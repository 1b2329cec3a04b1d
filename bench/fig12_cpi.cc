/**
 * @file
 * Figure 12: CPI of native execution (perf counters) vs the Sniper
 * timing model driven by simulation points (Table III machine).
 *
 * Paper findings: Regional-run CPI correlates well with native
 * execution — 2.59% average CPI error across the suite; Reduced
 * Regional deviates more (13.9% average vs the whole run), with a
 * few outliers (e.g. 507.cactuBSSN_r).
 */

#include "bench_util.hh"
#include "support/stats_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("CPI: native (perf) vs Sniper with SimPoints",
                  "Figure 12");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    bench::ReportSink sink(argv[0], "Fig 12 - CPI comparison");
    sink.schema({{"Benchmark", "benchmark"},
                 {"Native (perf)", "native_cpi"},
                 {"Sniper Regional", "regional_cpi"},
                 {"Sniper Reduced", "reduced_cpi"},
                 {"err R", ""},
                 {"err RR", ""}});
    graph.config().describe(sink.manifest());

    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::Native, ArtifactKind::PointsTiming};
    graph.runSuite(names, targets);
    graph.recordArtifacts(sink.manifest(), names, targets);

    std::vector<double> natives, regionals;
    double errR = 0, errRR = 0, n = 0;
    for (const auto &e : suiteTable()) {
        double native = graph.native(e.name).cpi();
        const auto &pts = graph.pointsTiming(e.name);
        double regional = aggregateTiming(pts).cpi;
        double reduced =
            aggregateTiming(reduceToQuantile(pts, 0.9)).cpi;

        sink.row({e.name, {fmt(native, 3), fmt(native, 5)},
                  {fmt(regional, 3), fmt(regional, 5)},
                  {fmt(reduced, 3), fmt(reduced, 5)},
                  fmtPct(relativeError(regional, native)),
                  fmtPct(relativeError(reduced, native))});

        natives.push_back(native);
        regionals.push_back(regional);
        errR += relativeError(regional, native);
        errRR += relativeError(reduced, native);
        n += 1.0;
    }
    sink.separator();
    sink.tableOnlyRow({"Average", "-", "-", "-", fmtPct(errR / n),
                       fmtPct(errRR / n)});
    sink.printTable();

    std::printf("\nPaper: 2.59%% average CPI error (Regional), "
                "13.9%% average deviation (Reduced).\n"
                "Measured: %.2f%% (Regional), %.2f%% (Reduced); "
                "native-vs-sampled CPI correlation r = %.3f.\n",
                errR / n * 100, errRR / n * 100,
                pearson(natives, regionals));
    sink.finish();
    return 0;
}
