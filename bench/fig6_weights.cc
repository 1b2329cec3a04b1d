/**
 * @file
 * Figure 6: weight of each simulation point per benchmark, with the
 * 90% cumulative cut (the dashed line in the paper's stacked bars).
 *
 * Paper findings: most programs have < 25 points; 503.bwaves_r has
 * one ~60% dominant point and its top three cover ~80%; benchmarks
 * like 631.deepsjeng_s / 648.exchange2_s / 511.povray_r are nearly
 * uniform; several FP codes carry many insignificant points.
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("Simulation-point weight distribution", "Figure 6");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {ArtifactKind::SimPoints};
    graph.runSuite(names, targets);

    // One table row per benchmark, one CSV row per simulation point.
    bench::ReportSink sink(argv[0], "Fig 6 - per-benchmark weight profile");
    sink.schema({{"Benchmark", ""},
                 {"Points", ""},
                 {"Top-1", ""},
                 {"Top-3 cum", ""},
                 {"90% cut at", ""},
                 {"Weights (descending, top 8)", ""},
                 {"", "benchmark"},
                 {"", "rank"},
                 {"", "weight"},
                 {"", "cumulative"},
                 {"", "within_90pct"}});
    graph.config().describe(sink.manifest());
    graph.recordArtifacts(sink.manifest(), names, targets);

    for (const auto &e : suiteTable()) {
        const SimPointResult &r = graph.simpoints(e.name);
        auto sorted = r.byDescendingWeight();
        std::size_t cut = r.topByWeight(0.9).size();

        double cum = 0.0;
        double top1 = 0.0, top3 = 0.0;
        std::string preview;
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            cum += sorted[i].weight;
            if (i == 0)
                top1 = sorted[i].weight;
            if (i == 2)
                top3 = cum;
            if (i < 8) {
                preview += fmt(sorted[i].weight * 100.0, 1);
                preview += i + 1 < sorted.size() && i < 7 ? " " : "";
            }
            sink.csvOnlyRow({e.name, std::to_string(i + 1),
                             fmt(sorted[i].weight, 6), fmt(cum, 6),
                             i < cut ? "1" : "0"});
        }
        if (sorted.size() < 3)
            top3 = cum;
        if (sorted.size() > 8)
            preview += " ...";
        sink.tableOnlyRow({e.name, std::to_string(sorted.size()),
                           fmtPct(top1, 1), fmtPct(top3, 1),
                           std::to_string(cut), preview});
    }
    sink.printTable();

    const SimPointResult &bw = graph.simpoints("503.bwaves_r");
    auto bwSorted = bw.byDescendingWeight();
    double bwTop3 = bwSorted[0].weight + bwSorted[1].weight +
                    bwSorted[2].weight;
    std::printf("\nPaper: bwaves_r has one ~60%% point and top-3 "
                "cover ~80%%.  Measured: top-1 %.1f%%, top-3 "
                "%.1f%%.\n", bwSorted[0].weight * 100.0,
                bwTop3 * 100.0);
    sink.finish();
    return 0;
}
