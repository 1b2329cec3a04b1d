#include "runs.hh"

#include <chrono>
#include <optional>

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "pin/engine.hh"
#include "pin/tools/allcache.hh"
#include "pin/tools/branch_profile.hh"
#include "pin/tools/ldstmix.hh"
#include "pin/tools/bbv_tool.hh"
#include "pinball/logger.hh"
#include "pinball/replayer.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "timing/interval_core.hh"

namespace splab
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

CacheRunMetrics
harvestCache(const AllCacheTool &cache, const LdStMixTool &mix,
             const BranchProfileTool &branches, ICount instrs,
             double wallSeconds)
{
    CacheRunMetrics m;
    m.instrs = instrs;
    m.mixFrac = mix.mix().fractions();
    auto fill = [](LevelCounts &dst, const CacheStats &src) {
        dst.accesses = src.accesses;
        dst.misses = src.misses;
    };
    const CacheHierarchy &h = cache.hierarchy();
    fill(m.l1i, h.levelStats(CacheLevel::L1I));
    fill(m.l1d, h.levelStats(CacheLevel::L1D));
    fill(m.l2, h.levelStats(CacheLevel::L2));
    fill(m.l3, h.levelStats(CacheLevel::L3));
    m.branches = branches.branchCount();
    m.wallSeconds = wallSeconds;
    return m;
}

TimingRunMetrics
harvestTiming(const IntervalCoreTool &core, double wallSeconds)
{
    const TimingStats &t = core.stats();
    TimingRunMetrics m;
    m.instrs = t.instrs;
    m.cycles = t.cycles;
    m.branches = t.branches;
    m.mispredicts = t.mispredicts;
    m.l2Hits = t.l2Hits;
    m.l3Hits = t.l3Hits;
    m.memAccesses = t.memAccesses;
    m.wallSeconds = wallSeconds;
    return m;
}

/**
 * The per-point runs one replayPoints() call computes: a tool is
 * attached when its config is set.
 */
struct PointReplays
{
    const HierarchyConfig *cold = nullptr; ///< never-warmed hierarchy
    const HierarchyConfig *warm = nullptr; ///< warmed hierarchy
    const MachineConfig *machine = nullptr; ///< warmed timing core
    /** Experiment-wide warm-up before each region, in chunks. */
    u64 warmupChunks = 0;
};

/**
 * The one per-point replay loop.  Per region, one Replayer plays the
 * warm-up chunks into the warm hierarchy and the timing core (both
 * in warm-up mode), then plays the region once to every requested
 * tool.  Tools are passive observers of one deterministic stream,
 * so each run's metrics equal those of a replay with that tool
 * alone; only wallSeconds (the shared per-point wall time) differs.
 * The vectors of runs not requested stay empty.
 */
PointsFusedMetrics
replayPoints(const Pinball &regional, const PointReplays &runs)
{
    // Each regional pinball replays in a fresh process: cold
    // microarchitectural state unless explicitly warmed.  Replays
    // are mutually independent, so they fan out across the pool —
    // every task owns its replayer, workload and tool stack, and
    // results land in index-addressed slots.
    const std::size_t n = regional.regions().size();
    PointsFusedMetrics out;
    if (runs.cold)
        out.cold.resize(n);
    if (runs.warm)
        out.warm.resize(n);
    if (runs.machine)
        out.timing.resize(n);
    static obs::Counter &points =
        obs::counter("runs.points_replayed",
                     "simulation points replayed (cache + timing)");
    parallelFor(n, [&](std::size_t i) {
        obs::TraceSpan pointSpan("runs.replay_point");
        points.add();
        auto tp = std::chrono::steady_clock::now();
        const RegionDesc &region = regional.regions()[i];
        Replayer replayer(regional);
        std::optional<AllCacheTool> cold, warm;
        std::optional<IntervalCoreTool> core;
        if (runs.cold)
            cold.emplace(*runs.cold);
        if (runs.warm)
            warm.emplace(*runs.warm);
        if (runs.machine)
            core.emplace(*runs.machine);
        LdStMixTool mix;
        BranchProfileTool branches;
        Engine engine;

        // A strategy's per-region warm-up prescription (e.g. SMARTS
        // wunit/allwarm) overrides the experiment-wide parameter —
        // but only for warm runs: warmupChunks == 0 stays truly cold.
        u64 warmup = runs.warmupChunks > 0 && region.warmupChunks > 0
                         ? region.warmupChunks
                         : runs.warmupChunks;
        if (warmup > 0 && (warm || core)) {
            if (warm) {
                warm->setWarmup(true);
                engine.attach(&*warm);
            }
            if (core) {
                core->setWarmup(true);
                engine.attach(&*core);
            }
            replayer.replayWarmup(i, warmup, engine);
            if (warm)
                warm->setWarmup(false);
            if (core)
                core->setWarmup(false);
            engine.clearTools();
        }

        // The region plays once to every tool; the cold and warm
        // hierarchies see the same region stream, so they share the
        // ldstmix and branch-profile views.
        if (cold)
            engine.attach(&*cold);
        if (warm)
            engine.attach(&*warm);
        if (cold || warm) {
            engine.attach(&mix);
            engine.attach(&branches);
        }
        if (core)
            engine.attach(&*core);
        ICount instrs = replayer.replayRegion(i, engine);

        double wall = secondsSince(tp);
        if (cold)
            out.cold[i] = {region.weight,
                           harvestCache(*cold, mix, branches, instrs,
                                        wall)};
        if (warm)
            out.warm[i] = {region.weight,
                           harvestCache(*warm, mix, branches, instrs,
                                        wall)};
        if (core)
            out.timing[i] = {region.weight, harvestTiming(*core, wall)};
    });
    return out;
}

} // namespace

CacheRunMetrics
measureWholeCache(const BenchmarkSpec &spec,
                  const HierarchyConfig &caches)
{
    obs::TraceSpan span("runs.whole_cache");
    auto t0 = std::chrono::steady_clock::now();
    SyntheticWorkload wl(spec);
    AllCacheTool cache(caches);
    LdStMixTool mix;
    BranchProfileTool branches;
    Engine engine;
    engine.attach(&cache);
    engine.attach(&mix);
    engine.attach(&branches);
    ICount instrs = engine.runWhole(wl);
    return harvestCache(cache, mix, branches, instrs,
                        secondsSince(t0));
}

FusedWholeResult
measureWholeFused(const BenchmarkSpec &spec,
                  const HierarchyConfig &caches,
                  const MachineConfig &machine, ICount bbvSliceInstrs)
{
    obs::TraceSpan span("runs.whole_fused");
    auto t0 = std::chrono::steady_clock::now();
    SyntheticWorkload wl(spec);
    AllCacheTool cache(caches);
    LdStMixTool mix;
    BranchProfileTool branches;
    IntervalCoreTool core(machine);
    std::unique_ptr<BbvTool> bbv;
    Engine engine;
    engine.attach(&cache);
    engine.attach(&mix);
    engine.attach(&branches);
    engine.attach(&core);
    if (bbvSliceInstrs > 0) {
        bbv = std::make_unique<BbvTool>(bbvSliceInstrs);
        engine.attach(bbv.get());
    }
    // One serial in-order traversal feeds every tool; the suite
    // runs these passes for different benchmarks in parallel
    // (ArtifactGraph::runSuite), not one pass across threads.
    ICount instrs = engine.runWhole(wl);

    double wall = secondsSince(t0);
    FusedWholeResult r;
    r.cache = harvestCache(cache, mix, branches, instrs, wall);
    r.timing = harvestTiming(core, wall);
    if (bbv)
        r.bbvs = bbv->vectors();
    return r;
}

std::vector<FrequencyVector>
profileBbvs(const BenchmarkSpec &spec, ICount sliceInstrs)
{
    obs::TraceSpan span("runs.bbv_profile");
    SyntheticWorkload wl(spec);
    BbvTool bbv(sliceInstrs);
    Engine engine;
    engine.attach(&bbv);
    engine.runWhole(wl);
    return bbv.vectors();
}

std::vector<PointCacheMetrics>
measurePointsCache(const BenchmarkSpec &spec,
                   const SimPointResult &simpoints,
                   const HierarchyConfig &caches, u64 warmupChunks)
{
    SyntheticWorkload wl(spec);
    Pinball whole = Logger::captureWhole(wl);
    Pinball regional = Logger::makeRegional(whole, simpoints);
    return measurePointsCache(regional, caches, warmupChunks);
}

std::vector<PointCacheMetrics>
measurePointsCache(const Pinball &regional,
                   const HierarchyConfig &caches, u64 warmupChunks)
{
    obs::TraceSpan span("runs.points_cache");
    // A warm-up of zero chunks leaves the warmed hierarchy cold.
    PointReplays runs;
    runs.warm = &caches;
    runs.warmupChunks = warmupChunks;
    return replayPoints(regional, runs).warm;
}

TimingRunMetrics
measureWholeTiming(const BenchmarkSpec &spec,
                   const MachineConfig &machine)
{
    obs::TraceSpan span("runs.whole_timing");
    auto t0 = std::chrono::steady_clock::now();
    SyntheticWorkload wl(spec);
    IntervalCoreTool core(machine);
    Engine engine;
    engine.attach(&core);
    engine.runWhole(wl);
    return harvestTiming(core, secondsSince(t0));
}

std::vector<PointTimingMetrics>
measurePointsTiming(const BenchmarkSpec &spec,
                    const SimPointResult &simpoints,
                    const MachineConfig &machine, u64 warmupChunks)
{
    SyntheticWorkload wl(spec);
    Pinball whole = Logger::captureWhole(wl);
    Pinball regional = Logger::makeRegional(whole, simpoints);
    return measurePointsTiming(regional, machine, warmupChunks);
}

std::vector<PointTimingMetrics>
measurePointsTiming(const Pinball &regional,
                    const MachineConfig &machine, u64 warmupChunks)
{
    obs::TraceSpan span("runs.points_timing");
    PointReplays runs;
    runs.machine = &machine;
    runs.warmupChunks = warmupChunks;
    return replayPoints(regional, runs).timing;
}

PointsFusedMetrics
measurePointsFused(const Pinball &regional,
                   const HierarchyConfig &caches,
                   const MachineConfig &machine, u64 warmupChunks)
{
    obs::TraceSpan span("runs.points_fused");
    PointReplays runs;
    runs.cold = &caches;
    runs.warm = &caches;
    runs.machine = &machine;
    runs.warmupChunks = warmupChunks;
    return replayPoints(regional, runs);
}

} // namespace splab
