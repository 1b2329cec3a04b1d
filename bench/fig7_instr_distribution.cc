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
    auto maxErr = [](const std::array<double, 4> &a,
                     const std::array<double, 4> &b) {
        double m = 0.0;
        for (int i = 0; i < 4; ++i)
            m = std::max(m, std::fabs(a[i] - b[i]));
        return m;
    };
    auto csvRow = [&](const std::string &bench, const char *run,
                      const std::array<double, 4> &f) {
        sink.csvOnlyRow({bench, run, fmt(f[0], 6), fmt(f[1], 6),
                         fmt(f[2], 6), fmt(f[3], 6)});
    };

    std::array<double, 4> suiteWhole{};
    double sumErrR = 0.0, sumErrRR = 0.0;
    for (const auto &e : suiteTable()) {
        auto whole = wholeAsAggregate(graph.wholeCache(e.name));
        const auto &pts = graph.pointsCacheCold(e.name);
        auto regional = aggregateCache(pts);
        auto reduced = aggregateCache(reduceToQuantile(pts, 0.9));

        double errR = maxErr(regional.mixFrac, whole.mixFrac);
        double errRR = maxErr(reduced.mixFrac, whole.mixFrac);
        sink.tableOnlyRow({e.name, mixString(whole.mixFrac),
                           mixString(regional.mixFrac),
                           mixString(reduced.mixFrac), fmtPct(errR),
                           fmtPct(errRR)});
        csvRow(e.name, "whole", whole.mixFrac);
        csvRow(e.name, "regional", regional.mixFrac);
        csvRow(e.name, "reduced", reduced.mixFrac);

        for (int i = 0; i < 4; ++i)
            suiteWhole[i] += whole.mixFrac[i];
        sumErrR += errR;
        sumErrRR += errRR;
    }
    double n = static_cast<double>(suiteTable().size());
    for (auto &x : suiteWhole)
        x /= n;
    sink.separator();
    sink.tableOnlyRow({"Average", mixString(suiteWhole), "-", "-",
                       fmtPct(sumErrR / n), fmtPct(sumErrRR / n)});
    sink.printTable();

    std::printf("\nPaper: Whole-run average 49.1%% NO_MEM / 36.7%% "
                "MEM_R / 12.9%% MEM_W; sampling\nerrors < 1%%.  "
                "Measured: %.1f%% / %.1f%% / %.1f%%; avg max error "
                "%.2f%% (Regional), %.2f%% (Reduced).\n",
                suiteWhole[0] * 100, suiteWhole[1] * 100,
                suiteWhole[2] * 100, sumErrR / n * 100,
                sumErrRR / n * 100);
    sink.finish();
    return 0;
}
