/**
 * @file
 * Ablation of the SimPoint design choices DESIGN.md calls out:
 * random-projection dimensionality, BIC score fraction and the
 * overlap-merge threshold.  For each configuration we report the
 * suite-average number of simulation points, the 90th-percentile
 * count and the resulting instruction-mix error — quantifying how
 * much each mechanism contributes to the paper's operating point.
 *
 * (Not a paper figure; a design ablation of this reproduction.)
 */

#include "bench_util.hh"

using namespace splab;

namespace
{

/** A representative spread of the suite keeps the ablation cheap. */
const std::vector<std::string> kAblationBenches = {
    "505.mcf_r", "623.xalancbmk_s", "620.omnetpp_s",
    "503.bwaves_r", "511.povray_r", "519.lbm_r",
    "631.deepsjeng_s", "549.fotonik3d_r"};

struct AblationRow
{
    std::string label;
    double avgPoints = 0;
    double avgPoints90 = 0;
    double avgMixErr = 0;
};

/**
 * One configuration's row.  Its selections come from a graph over
 * @p cfg on @p baseline's cache, so every configuration shares the
 * persisted BBV profiles (same slice length) and each selection is
 * made once per cache; their keys go into the manifest.
 */
AblationRow
evaluate(const std::string &label, const SimPointConfig &cfg,
         ArtifactGraph &baseline, obs::RunManifest &manifest)
{
    ArtifactGraph g(
        ExperimentConfig(baseline.config()).withSimPoint(cfg),
        baseline.cacheHandle());
    g.runSuite(kAblationBenches, {ArtifactKind::SimPoints});
    AblationRow row;
    row.label = label;
    double n = 0;
    for (const std::string &name : kAblationBenches) {
        manifest.addArtifact(
            "simpoints/" + name + "@" + label,
            g.artifactKey(name, ArtifactKind::SimPoints));
        const SimPointResult &r = g.simpoints(name);
        row.avgPoints += static_cast<double>(r.points.size());
        row.avgPoints90 +=
            static_cast<double>(r.topByWeight(0.9).size());

        row.avgMixErr +=
            cacheErrors(aggregateCache(measurePointsCache(
                            g.spec(name), r,
                            baseline.config().allcache, 0)),
                        wholeAsAggregate(baseline.wholeCache(name)))
                .mix;
        n += 1;
    }
    row.avgPoints /= n;
    row.avgPoints90 /= n;
    row.avgMixErr /= n;
    return row;
}

} // namespace

int
main(int, char **argv)
{
    bench::banner("SimPoint design-choice ablation",
                  "DESIGN.md section 5 (not a paper figure)");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    graph.runSuite(kAblationBenches, {ArtifactKind::WholeCache});
    bench::ReportSink sink(argv[0],
                           "Ablation - 8-benchmark averages per config");
    sink.schema({{"Config", "config"},
                 {"Points", "avg_points"},
                 {"Points@90%", "avg_points90"},
                 {"Mix err", "avg_mix_err"}});
    graph.config().describe(sink.manifest());
    graph.recordArtifacts(sink.manifest(), kAblationBenches,
                          {ArtifactKind::WholeCache});

    std::vector<std::pair<std::string, SimPointConfig>> configs;
    {
        SimPointConfig base;
        configs.push_back({"baseline (dim15, bic0.9, merge0.6)",
                           base});
        SimPointConfig c = base;
        c.projectionDim = 5;
        configs.push_back({"projection dim 5", c});
        c = base;
        c.projectionDim = 30;
        configs.push_back({"projection dim 30", c});
        c = base;
        c.bicFraction = 0.7;
        configs.push_back({"BIC fraction 0.7", c});
        c = base;
        c.bicFraction = 1.0;
        configs.push_back({"BIC fraction 1.0 (max-BIC k)", c});
        c = base;
        c.mergeThreshold = 0.0;
        configs.push_back({"no overlap merge", c});
        c = base;
        c.sampleCap = 500;
        configs.push_back({"sample cap 500", c});
        c = base;
        c.restarts = 1;
        configs.push_back({"single k-means restart", c});
    }

    for (const auto &[label, cfg] : configs) {
        AblationRow row =
            evaluate(label, cfg, graph, sink.manifest());
        sink.row({row.label,
                  {fmt(row.avgPoints, 1), fmt(row.avgPoints, 2)},
                  {fmt(row.avgPoints90, 1), fmt(row.avgPoints90, 2)},
                  {fmtPct(row.avgMixErr), fmt(row.avgMixErr, 6)}});
    }
    sink.printTable();

    std::printf("\nReading the table: too few projection dims or a "
                "low BIC fraction lose phases\n(points drop, mix "
                "error rises); disabling the overlap merge inflates "
                "the point\ncount by splitting dominant phases.\n");
    sink.finish();
    return 0;
}
