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
    const SuiteComparison r = compareSuite(graph, names, Replay::Cold);
    const SuiteComparison rr =
        compareSuite(graph, names, Replay::Cold, 0.9);
    for (std::size_t i = 0; i < names.size(); ++i) {
        u64 whole = r.rows[i].whole.l3Accesses;
        u64 regional = r.rows[i].sampled.l3Accesses;
        sink.row({names[i], count(whole), count(regional),
                  count(rr.rows[i].sampled.l3Accesses),
                  fmtX(regional ? static_cast<double>(whole) /
                                      static_cast<double>(regional)
                                : 0.0, 0)});
    }
    sink.separator();
    sink.tableOnlyRow({"Average", fmtSi(r.wholeL3, 2), fmtSi(r.l3, 2),
                       fmtSi(rr.l3, 2), fmtX(r.l3Reduction, 0)});
    sink.printTable();

    std::printf("\nExpected shape: Regional/Reduced runs touch the "
                "L3 orders of magnitude less\noften than the Whole "
                "Run (measured: %.0fx fewer on average).\n",
                r.l3Reduction);
    sink.finish();
    return 0;
}
