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
#include "support/stats_util.hh"

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
    ReplayCostModel cost;
    const double percentiles[] = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5};

    for (double q : percentiles) {
        double mixErr = 0, err[3] = {}, execS = 0, pts = 0;
        double n = 0;
        for (const auto &e : suiteTable()) {
            auto whole = wholeAsAggregate(graph.wholeCache(e.name));
            auto sub =
                reduceToQuantile(graph.pointsCacheCold(e.name), q);
            auto agg = aggregateCache(sub);

            double m = 0;
            for (int i = 0; i < 4; ++i)
                m = std::max(m, std::fabs(agg.mixFrac[i] -
                                          whole.mixFrac[i]));
            mixErr += m;
            err[0] += relativeError(agg.l1dMissRate,
                                    whole.l1dMissRate);
            err[1] += relativeError(agg.l2MissRate,
                                    whole.l2MissRate);
            err[2] += relativeError(agg.l3MissRate,
                                    whole.l3MissRate);
            double paperScale =
                e.paperInstrsB * 1e9 /
                static_cast<double>(
                    graph.spec(e.name).totalInstrs());
            execS += cost.regionalSeconds(
                static_cast<double>(agg.executedInstrs) *
                    paperScale,
                sub.size());
            pts += static_cast<double>(sub.size());
            n += 1.0;
        }
        // Each cell: (table text, CSV text).
        sink.row({{fmt(q * 100, 0), fmt(q, 2)},
                  {fmtPct(mixErr / n), fmt(mixErr / n, 6)},
                  {fmtPct(err[0] / n), fmt(err[0] / n, 6)},
                  {fmtPct(err[1] / n), fmt(err[1] / n, 6)},
                  {fmtPct(err[2] / n), fmt(err[2] / n, 6)},
                  {fmt(execS / n / 60.0, 2), fmt(execS / n / 60.0, 4)},
                  {fmt(pts / n, 1), fmt(pts / n, 2)}});
    }
    sink.printTable();

    std::printf("\nExpected shape: errors grow and execution time "
                "falls as the percentile\nshrinks; 100 = Regional, "
                "90 = Reduced Regional.\n");
    sink.finish();
    return 0;
}
