/**
 * @file
 * Suite subsetting (extension; related-work methodology of Limaye &
 * Adegbija / Panda et al.): cluster the 29 benchmarks on whole-run
 * architecture-level features and report representative subsets —
 * the complementary axis of statistical sampling to SimPoint's
 * within-benchmark phases.
 *
 * (Not a paper figure; reproduces the related-work methodology the
 * paper positions itself against.)
 */

#include "bench_util.hh"
#include "core/subsetting.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("Benchmark-suite subsetting",
                  "Related work, Section V-A (extension)");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    graph.runSuite(suiteNames(), {ArtifactKind::WholeCache,
                                  ArtifactKind::WholeTiming});
    std::vector<BenchmarkFeatures> features;
    for (const auto &e : suiteTable())
        features.push_back(makeFeatures(e.name,
                                        graph.wholeCache(e.name),
                                        graph.wholeTiming(e.name)));

    CsvWriter csv;
    csv.header({"subset_size", "benchmark", "cluster",
                "representative", "representation_error"});

    TableWriter t("Representative subsets of the modelled suite");
    t.header({"Subset size", "Representation error",
              "Representatives"});
    for (std::size_t k : {4u, 8u, 12u}) {
        SuiteSubset s = subsetSuite(features, k);
        double err = subsetRepresentationError(features, s);
        std::string reps;
        for (u32 r : s.representatives) {
            reps += features[r].name;
            reps += " ";
        }
        if (reps.size() > 70)
            reps = reps.substr(0, 67) + "...";
        t.row({std::to_string(k), fmt(err, 3), reps});
        for (std::size_t i = 0; i < features.size(); ++i) {
            bool isRep = false;
            for (u32 r : s.representatives)
                isRep = isRep || r == i;
            csv.row({std::to_string(k), features[i].name,
                     std::to_string(s.assignment[i]),
                     isRep ? "1" : "0", fmt(err, 6)});
        }
    }
    t.print();

    // Sanity narrative: the INT and FP domains should rarely share
    // clusters at small subset sizes.
    SuiteSubset s8 = subsetSuite(features, 8);
    int mixedClusters = 0;
    for (u32 c = 0; c < s8.clusterCount(); ++c) {
        bool hasInt = false, hasFp = false;
        for (std::size_t i = 0; i < features.size(); ++i) {
            if (s8.assignment[i] != c)
                continue;
            if (suiteTable()[i].domain == SuiteDomain::FpRate)
                hasFp = true;
            else
                hasInt = true;
        }
        mixedClusters += hasInt && hasFp;
    }
    std::printf("\nAt subset size 8, %d of 8 clusters mix INT and "
                "FP benchmarks (fewer is the\nexpected outcome: the "
                "domains differ in mix, locality and CPI).\n",
                mixedClusters);
    bench::saveCsv(csv, argv[0]);

    obs::RunManifest mani(bench::toolName(argv[0]));
    mani.recordEnv("SPLAB_SCALE");
    mani.recordEnv("SPLAB_CACHE");
    graph.config().describe(mani);
    graph.recordArtifacts(mani, suiteNames(),
                          {ArtifactKind::WholeCache,
                           ArtifactKind::WholeTiming});
    mani.addOutput(bench::csvPath(argv[0]));
    bench::emitObservability(argv[0], mani);
    return 0;
}
