/**
 * @file
 * Figure 10: number of L3 cache accesses performed by Whole,
 * Regional and Reduced Regional runs (Table I hierarchy).
 *
 * Paper finding: sampled replays perform orders of magnitude fewer
 * L3 accesses than the whole run — the root cause of the L3
 * miss-rate discrepancy in Figure 8 (cold-start misses are averaged
 * over far fewer accesses).
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("L3 accesses: Whole vs Regional vs Reduced",
                  "Figure 10");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    bench::ReportSink sink(argv[0], "Fig 10 - L3 cache accesses");
    sink.schema({{"Benchmark", "benchmark"},
                 {"Whole Run", "whole_l3"},
                 {"Regional", "regional_l3"},
                 {"Reduced", "reduced_l3"},
                 {"Whole/Regional", ""}});
    graph.config().describe(sink.manifest());

    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::WholeCache, ArtifactKind::PointsCacheCold};
    graph.runSuite(names, targets);
    graph.recordArtifacts(sink.manifest(), names, targets);

    // Counts: SI-formatted in the table, exact in the CSV.
    auto count = [](u64 v) -> bench::ReportSink::Cell {
        return {fmtSi(static_cast<double>(v), 2), std::to_string(v)};
    };
    double sumW = 0, sumR = 0, sumRR = 0;
    for (const auto &e : suiteTable()) {
        u64 whole = graph.wholeCache(e.name).l3.accesses;
        const auto &pts = graph.pointsCacheCold(e.name);
        auto reduced = reduceToQuantile(pts, 0.9);
        u64 regional = 0, rr = 0;
        for (const auto &p : pts)
            regional += p.m.l3.accesses;
        for (const auto &p : reduced)
            rr += p.m.l3.accesses;

        sink.row({e.name, count(whole), count(regional), count(rr),
                  fmtX(regional ? static_cast<double>(whole) /
                                      static_cast<double>(regional)
                                : 0.0, 0)});
        sumW += static_cast<double>(whole);
        sumR += static_cast<double>(regional);
        sumRR += static_cast<double>(rr);
    }
    double n = static_cast<double>(suiteTable().size());
    sink.separator();
    sink.tableOnlyRow({"Average", fmtSi(sumW / n, 2),
                       fmtSi(sumR / n, 2), fmtSi(sumRR / n, 2),
                       fmtX(sumW / sumR, 0)});
    sink.printTable();

    std::printf("\nExpected shape: Regional/Reduced runs touch the "
                "L3 orders of magnitude less\noften than the Whole "
                "Run (measured: %.0fx fewer on average).\n",
                sumW / sumR);
    sink.finish();
    return 0;
}
