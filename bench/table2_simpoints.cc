/**
 * @file
 * Table II: number of simulation points and 90th-percentile
 * simulation points per SPEC CPU2017 benchmark.
 *
 * Paper reference values: average 19.75 simulation points, 11.31
 * after the 90th-percentile reduction, with MaxK = 35 and 30M
 * (paper-scale) slices.
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("SPEC CPU2017 simulation points",
                  "Table II (MaxK = 35, slice = 30M-equivalent)");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    bench::ReportSink sink(
        argv[0], "Table II - SPEC CPU2017 Simulation Points");
    sink.schema({{"Benchmark", "benchmark"},
                 {"Simulation Points", "simpoints"},
                 {"90-pct Simulation Points", "simpoints90"},
                 {"Paper SP", "paper_sp"},
                 {"Paper 90-pct", "paper_sp90"}});
    graph.config().describe(sink.manifest());

    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::SimPoints};
    graph.runSuite(names, targets);
    graph.recordArtifacts(sink.manifest(), names, targets);

    const PointCounts c = countPoints(graph, names);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const SuiteEntry &e = suiteEntry(names[i]);
        sink.row({names[i], std::to_string(c.rows[i].first),
                  std::to_string(c.rows[i].second),
                  std::to_string(e.simPoints),
                  std::to_string(e.points90)});
    }
    sink.separator();
    sink.tableOnlyRow({"Average", fmt(c.points), fmt(c.points90),
                       fmt(c.paperPoints), fmt(c.paperPoints90)});
    sink.finish();

    std::printf("\nPaper: 19.75 / 11.31 average simulation points; "
                "measured: %.2f / %.2f\n", c.points, c.points90);
    return 0;
}
