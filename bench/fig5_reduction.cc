/**
 * @file
 * Figure 5: dynamic instruction count and execution time of Whole,
 * Regional and Reduced Regional runs.
 *
 * Paper findings: Regional runs execute ~650x fewer instructions and
 * finish ~750x faster than Whole runs (6,873.9B -> 10.4B instrs,
 * 213.2h -> 17.17min on average); Reduced Regional runs improve this
 * to ~1225x / ~1297x.  Time at paper scale comes from the replay
 * cost model (core/costmodel.hh).
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("Whole vs Regional vs Reduced Regional runs",
                  "Figure 5(a) instruction count, 5(b) time");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    bench::ReportSink sink(
        argv[0], "Fig 5 - run sizes and paper-equivalent times");
    sink.schema({{"Benchmark", "benchmark"},
                 {"Whole (instr)", "whole_instrs"},
                 {"Regional", "regional_instrs"},
                 {"Reduced", "reduced_instrs"},
                 {"I-ratio R", ""},
                 {"I-ratio RR", ""},
                 {"Whole time", "whole_hours"},
                 {"Regional", "regional_min"},
                 {"Reduced", "reduced_min"},
                 {"T-ratio R", ""},
                 {"T-ratio RR", ""}});
    graph.config().describe(sink.manifest());

    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::WholeCache, ArtifactKind::PointsCacheCold};
    graph.runSuite(names, targets);
    graph.recordArtifacts(sink.manifest(), names, targets);

    const SuiteComparison r = compareSuite(graph, names, Replay::Cold);
    const SuiteComparison rr =
        compareSuite(graph, names, Replay::Cold, 0.9);
    // Counts: SI-formatted in the table, exact in the CSV.
    auto count = [](u64 v) -> bench::ReportSink::Cell {
        return {fmtSi(static_cast<double>(v), 1), std::to_string(v)};
    };
    auto minutes = [](double s) -> bench::ReportSink::Cell {
        return {fmt(s / 60.0, 1) + " m", fmt(s / 60.0, 3)};
    };
    for (std::size_t i = 0; i < names.size(); ++i) {
        const RunComparison &a = r.rows[i], &b = rr.rows[i];
        double whole = static_cast<double>(a.whole.executedInstrs);
        double tW = a.wholeSeconds;
        sink.row({names[i], count(a.whole.executedInstrs),
                  count(a.sampled.executedInstrs),
                  count(b.sampled.executedInstrs),
                  fmtX(whole / static_cast<double>(
                                   a.sampled.executedInstrs)),
                  fmtX(whole / static_cast<double>(
                                   b.sampled.executedInstrs)),
                  {fmt(tW / 3600.0, 1) + " h", fmt(tW / 3600.0, 3)},
                  minutes(a.seconds), minutes(b.seconds),
                  fmtX(tW / a.seconds), fmtX(tW / b.seconds)});
    }
    sink.separator();
    sink.tableOnlyRow(
        {"Average", fmtSi(r.wholeInstrs, 1), fmtSi(r.instrs, 1),
         fmtSi(rr.instrs, 1), fmtX(r.instrReduction),
         fmtX(rr.instrReduction), fmt(r.wholeSeconds / 3600.0, 1) + " h",
         fmt(r.seconds / 60.0, 1) + " m",
         fmt(rr.seconds / 60.0, 1) + " m", fmtX(r.timeReduction),
         fmtX(rr.timeReduction)});
    sink.finish();

    std::printf("\nPaper: ~650x fewer instructions / ~750x less time "
                "(Regional); ~1225x / ~1297x (Reduced).\n"
                "Measured: %.0fx / %.0fx (Regional); %.0fx / %.0fx "
                "(Reduced).\n",
                r.instrReduction, r.timeReduction, rr.instrReduction,
                rr.timeReduction);
    return 0;
}
