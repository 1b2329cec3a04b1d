/**
 * @file
 * Figure 9: suite-average metric errors (vs Whole Run) and execution
 * time as the simulation-point percentile shrinks from 100 to 50.
 *
 * Paper findings: errors rise as points are dropped; execution time
 * falls; 100 and 90 percentile correspond to the Regional and
 * Reduced Regional runs.
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("Accuracy/runtime trade-off vs simulation-point "
                  "percentile", "Figure 9");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    bench::ReportSink sink(argv[0],
                           "Fig 9 - average error vs Whole Run, and "
                           "paper-equivalent execution time");
    sink.schema({{"Percentile", "percentile"},
                 {"Mix err (pts)", "mix_err"},
                 {"L1D err", "l1d_err"},
                 {"L2 err", "l2_err"},
                 {"L3 err", "l3_err"},
                 {"Exec time (min)", "exec_minutes"},
                 {"Points/bench", "avg_points"}});
    graph.config().describe(sink.manifest());

    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::WholeCache, ArtifactKind::PointsCacheCold};
    graph.runSuite(names, targets);
    graph.recordArtifacts(sink.manifest(), names, targets);
    for (double q : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5}) {
        const SuiteComparison s =
            compareSuite(graph, names, Replay::Cold, q);
        // Each cell: (table text, CSV text).
        sink.row({{fmt(q * 100, 0), fmt(q, 2)},
                  {fmtPct(s.err.mix), fmt(s.err.mix, 6)},
                  {fmtPct(s.err.l1d), fmt(s.err.l1d, 6)},
                  {fmtPct(s.err.l2), fmt(s.err.l2, 6)},
                  {fmtPct(s.err.l3), fmt(s.err.l3, 6)},
                  {fmt(s.seconds / 60.0, 2), fmt(s.seconds / 60.0, 4)},
                  {fmt(s.points, 1), fmt(s.points, 2)}});
    }
    sink.printTable();

    std::printf("\nExpected shape: errors grow and execution time "
                "falls as the percentile\nshrinks; 100 = Regional, "
                "90 = Reduced Regional.\n");
    sink.finish();
    return 0;
}
