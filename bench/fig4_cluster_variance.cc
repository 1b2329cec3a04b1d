/**
 * @file
 * Figure 4: average within-cluster variance of phase similarity as
 * the number of clusters varies, per benchmark.
 *
 * Paper finding: forcing fewer clusters makes phases squeeze into
 * ill-fitting clusters, inflating the average intra-cluster
 * variance; the curve falls monotonically with the cluster budget.
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("Within-cluster variance vs number of clusters",
                  "Figure 4");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {ArtifactKind::SimPoints};
    graph.runSuite(names, targets);
    const u32 kPoints[] = {5, 10, 15, 20, 25, 30, 35};

    // One table row per benchmark, one CSV row per (benchmark, k).
    bench::ReportSink sink(
        argv[0], "Fig 4 - avg cluster variance (x1000) by #clusters");
    std::vector<bench::ReportSink::Column> cols = {{"Benchmark", ""}};
    for (u32 k : kPoints)
        cols.push_back({"k=" + std::to_string(k), ""});
    cols.push_back({"", "benchmark"});
    cols.push_back({"", "k"});
    cols.push_back({"", "avg_cluster_variance"});
    sink.schema(std::move(cols));
    graph.config().describe(sink.manifest());
    graph.recordArtifacts(sink.manifest(), names, targets);

    for (const auto &e : suiteTable()) {
        // The BIC sweep in the SimPoint selection already fit every
        // k in 1..MaxK; read the variance curve straight out of it.
        const SimPointResult &r = graph.simpoints(e.name);
        std::vector<std::string> cells = {e.name};
        for (u32 k : kPoints) {
            double var = 0.0;
            for (const auto &s : r.sweep)
                if (s.k == k)
                    var = s.avgClusterVariance;
            cells.push_back(fmt(var * 1000.0, 3));
            sink.csvOnlyRow({e.name, std::to_string(k), fmt(var, 8)});
        }
        sink.tableOnlyRow(std::move(cells));
    }
    sink.printTable();

    std::printf("\nExpected shape: variance decreases monotonically "
                "with the cluster budget\n(fewer clusters force "
                "dissimilar phases together).\n");
    sink.finish();
    return 0;
}
