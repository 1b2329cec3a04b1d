/**
 * @file
 * Sampling-strategy comparison (extension): every SamplingStrategy
 * runs the same benchmarks through the artifact graph, and one table
 * compares instruction-mix / miss-rate / CPI error against the
 * strategy-aware reduction factor.
 *
 * Each strategy is its own parameterized artifact family (the
 * Regions node keys on the strategy salt + active knobs), so the six
 * selections, their regional pinballs and their replays coexist in
 * one artifact cache; the whole-run references are shared across
 * strategies through the same cache handle.
 */

#include "bench_util.hh"

using namespace splab;

int
main(int, char **argv)
{
    bench::banner("Sampling-strategy comparison",
                  "Section V methodology comparison (extension)");

    // Three small benchmarks keep six strategies tractable at any
    // scale; the graph fans (strategy x benchmark) work out itself.
    const std::vector<std::string> benches = {
        "620.omnetpp_s", "520.omnetpp_r", "631.deepsjeng_s"};

    bench::ReportSink sink(
        argv[0], "Strategy accuracy vs reduction factor "
                 "(weighted replays vs whole run)");
    sink.schema({
        {"Strategy", "strategy"},
        {"Benchmark", "benchmark"},
        {"Regions", "regions"},
        {"Reduction", "reduction_factor"},
        {"Mix err (pts)", "mix_err"},
        {"L1D err", "l1d_err"},
        {"L3 err", "l3_err"},
        {"CPI err", "cpi_err"},
    });

    // Whole-run references, computed once and shared with every
    // strategy graph through one cache handle.
    ExperimentConfig refCfg = ExperimentConfig::paperDefaults();
    ArtifactGraph ref(refCfg);
    ref.runSuite(benches, {ArtifactKind::WholeCache,
                           ArtifactKind::WholeTiming});

    for (const std::string &strat : strategyNames()) {
        ExperimentConfig cfg =
            ExperimentConfig::paperDefaults().withStrategy(strat);
        ArtifactGraph g(cfg, ref.cacheHandle());
        g.runSuite(benches, {ArtifactKind::Regions,
                             ArtifactKind::PointsCacheWarm,
                             ArtifactKind::PointsTiming});

        for (const std::string &b : benches) {
            const StrategyRow r = compareStrategy(g, ref, b);
            sink.row({strat, b, std::to_string(r.regions),
                      {fmtX(r.reduction), fmt(r.reduction, 4)},
                      {fmtPct(r.err.mix), fmt(r.err.mix, 6)},
                      {fmtPct(r.err.l1d), fmt(r.err.l1d, 6)},
                      {fmtPct(r.err.l3), fmt(r.err.l3, 6)},
                      {fmtPct(r.cpiErr), fmt(r.cpiErr, 6)}});
        }
        if (strat != strategyNames().back())
            sink.separator();
        g.recordArtifacts(sink.manifest(), benches,
                          {ArtifactKind::Regions,
                           ArtifactKind::PointsCacheWarm,
                           ArtifactKind::PointsTiming});
    }

    refCfg.describe(sink.manifest());
    sink.finish();

    std::printf("\nExpected shape: behaviour-aware strategies "
                "(simpoint, stratified) hold their\naccuracy at "
                "high reduction; SMARTS buys accuracy with many "
                "small units and\nwarm-up; oblivious baselines "
                "drift on CPI at equal budgets.\n");
    return 0;
}
