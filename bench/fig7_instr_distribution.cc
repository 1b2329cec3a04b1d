/**
 * @file
 * Figure 7: instruction-distribution comparison of Whole, Regional
 * and Reduced Regional runs (ldstmix categories).
 *
 * Paper findings: category shares match the Whole Run almost
 * perfectly — errors below 1% for both Regional and Reduced
 * Regional; suite-average Whole mix is ~49.1% NO_MEM, 36.7% MEM_R,
 * 12.9% MEM_W.
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("Instruction distribution: Whole vs Regional vs "
                  "Reduced Regional", "Figure 7");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    // One table row per benchmark, one CSV row per (benchmark, run).
    bench::ReportSink sink(argv[0],
                           "Fig 7 - instruction mix (NO_MEM/MEM_R/"
                           "MEM_W/MEM_RW, % of instructions)");
    sink.schema({{"Benchmark", ""},
                 {"Whole", ""},
                 {"Regional", ""},
                 {"Reduced", ""},
                 {"max |err| R", ""},
                 {"max |err| RR", ""},
                 {"", "benchmark"},
                 {"", "run"},
                 {"", "no_mem"},
                 {"", "mem_r"},
                 {"", "mem_w"},
                 {"", "mem_rw"}});
    graph.config().describe(sink.manifest());

    const auto names = suiteNames();
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::WholeCache, ArtifactKind::PointsCacheCold};
    graph.runSuite(names, targets);
    graph.recordArtifacts(sink.manifest(), names, targets);

    auto mixString = [](const std::array<double, 4> &f) {
        return fmt(f[0] * 100, 1) + "/" + fmt(f[1] * 100, 1) + "/" +
               fmt(f[2] * 100, 1) + "/" + fmt(f[3] * 100, 1);
    };
    auto csvRow = [&](const std::string &bench, const char *run,
                      const std::array<double, 4> &f) {
        sink.csvOnlyRow({bench, run, fmt(f[0], 6), fmt(f[1], 6),
                         fmt(f[2], 6), fmt(f[3], 6)});
    };

    const SuiteComparison r = compareSuite(graph, names, Replay::Cold);
    const SuiteComparison rr =
        compareSuite(graph, names, Replay::Cold, 0.9);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const RunComparison &a = r.rows[i], &b = rr.rows[i];
        sink.tableOnlyRow({names[i], mixString(a.whole.mixFrac),
                           mixString(a.sampled.mixFrac),
                           mixString(b.sampled.mixFrac),
                           fmtPct(a.err.mix), fmtPct(b.err.mix)});
        csvRow(names[i], "whole", a.whole.mixFrac);
        csvRow(names[i], "regional", a.sampled.mixFrac);
        csvRow(names[i], "reduced", b.sampled.mixFrac);
    }
    sink.separator();
    sink.tableOnlyRow({"Average", mixString(r.wholeMix), "-", "-",
                       fmtPct(r.err.mix), fmtPct(rr.err.mix)});
    sink.printTable();

    std::printf("\nPaper: Whole-run average 49.1%% NO_MEM / 36.7%% "
                "MEM_R / 12.9%% MEM_W; sampling\nerrors < 1%%.  "
                "Measured: %.1f%% / %.1f%% / %.1f%%; avg max error "
                "%.2f%% (Regional), %.2f%% (Reduced).\n",
                r.wholeMix[0] * 100, r.wholeMix[1] * 100,
                r.wholeMix[2] * 100, r.err.mix * 100,
                rr.err.mix * 100);
    sink.finish();
    return 0;
}
