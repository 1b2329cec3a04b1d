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

    const CpiComparison c = compareCpi(graph, names);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const CpiRow &r = c.rows[i];
        sink.row({names[i], {fmt(r.native, 3), fmt(r.native, 5)},
                  {fmt(r.regional, 3), fmt(r.regional, 5)},
                  {fmt(r.reduced, 3), fmt(r.reduced, 5)},
                  fmtPct(r.errRegional), fmtPct(r.errReduced)});
    }
    sink.separator();
    sink.tableOnlyRow({"Average", "-", "-", "-", fmtPct(c.errRegional),
                       fmtPct(c.errReduced)});
    sink.printTable();

    std::printf("\nPaper: 2.59%% average CPI error (Regional), "
                "13.9%% average deviation (Reduced).\n"
                "Measured: %.2f%% (Regional), %.2f%% (Reduced); "
                "native-vs-sampled CPI correlation r = %.3f.\n",
                c.errRegional * 100, c.errReduced * 100, c.r);
    sink.finish();
    return 0;
}
