/**
 * @file
 * Unit and integration tests for the core pipeline: metrics
 * aggregation, the artifact cache, uncached SimPoint selection and
 * the run drivers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/costmodel.hh"
#include "core/artifact_graph.hh"
#include "core/runs.hh"
#include "core/scale.hh"
#include "pinball/logger.hh"
#include "support/serialize.hh"
#include "support/stats_util.hh"
#include "support/thread_pool.hh"
#include "workload/synthetic.hh"

namespace splab
{
namespace
{

BenchmarkSpec
twoPhaseSpec(u64 chunks = 2000)
{
    BenchmarkSpec s;
    s.name = "core-test";
    s.seed = 31337;
    s.totalChunks = chunks;
    s.chunkLen = 1000;
    PhaseSpec a;
    a.name = "chase";
    a.weight = 0.7;
    a.kernel = KernelKind::PointerChase;
    a.workingSetBytes = 8 << 20;
    a.numBlocks = 14;
    PhaseSpec b;
    b.name = "scan";
    b.weight = 0.3;
    b.kernel = KernelKind::Stream;
    b.workingSetBytes = 32 << 20;
    b.numBlocks = 10;
    s.phases = {a, b};
    s.schedule = ScheduleKind::Markov;
    s.dwellChunks = 60;
    return s;
}

TEST(Scale, SliceConversions)
{
    EXPECT_EQ(scale::sliceForPaperMillions(30), 10000u);
    EXPECT_EQ(scale::sliceForPaperMillions(15), 5000u);
    EXPECT_EQ(scale::sliceForPaperMillions(100), 33000u);
    // Always a whole number of chunks.
    for (double m : scale::kPaperSliceSweepM)
        EXPECT_EQ(scale::sliceForPaperMillions(m) %
                      scale::kChunkInstrs,
                  0u);
}

TEST(CostModel, ReproducesPaperScaleRatios)
{
    ReplayCostModel cost;
    // Paper averages: whole 6,873.9B instrs in ~213.2h; regional
    // 10.4B instrs over ~20 pinballs in ~17.17 min.
    double wholeH = cost.wholeSeconds(6873.9e9) / 3600.0;
    double regionalMin =
        cost.regionalSeconds(10.4e9, 20) / 60.0;
    EXPECT_NEAR(wholeH, 213.2, 10.0);
    EXPECT_NEAR(regionalMin, 17.17, 2.0);
    double speedup = (wholeH * 60.0) / regionalMin;
    EXPECT_GT(speedup, 600.0);
    EXPECT_LT(speedup, 900.0);
}

TEST(Metrics, AggregateCacheWeighting)
{
    PointCacheMetrics p1, p2;
    p1.weight = 0.75;
    p1.m.instrs = 1000;
    p1.m.mixFrac = {0.5, 0.3, 0.2, 0.0};
    p1.m.l3 = {100, 50};
    p1.m.l1d = {400, 4};
    p2.weight = 0.25;
    p2.m.instrs = 1000;
    p2.m.mixFrac = {0.7, 0.2, 0.1, 0.0};
    p2.m.l3 = {300, 30};
    p2.m.l1d = {400, 12};

    AggregateCacheMetrics agg = aggregateCache({p1, p2});
    EXPECT_NEAR(agg.mixFrac[0], 0.75 * 0.5 + 0.25 * 0.7, 1e-12);
    // L3: weighted misses-per-instr / weighted accesses-per-instr.
    double mis = 0.75 * 50 / 1000.0 + 0.25 * 30 / 1000.0;
    double acc = 0.75 * 100 / 1000.0 + 0.25 * 300 / 1000.0;
    EXPECT_NEAR(agg.l3MissRate, mis / acc, 1e-12);
    EXPECT_EQ(agg.l3Accesses, 400u);
    EXPECT_EQ(agg.executedInstrs, 2000u);
}

TEST(Metrics, AggregateWeightsNeedNotBeNormalized)
{
    PointCacheMetrics p1, p2;
    p1.weight = 3.0;
    p1.m.instrs = 100;
    p1.m.mixFrac = {1.0, 0, 0, 0};
    p2.weight = 1.0;
    p2.m.instrs = 100;
    p2.m.mixFrac = {0.0, 1.0, 0, 0};
    AggregateCacheMetrics agg = aggregateCache({p1, p2});
    EXPECT_NEAR(agg.mixFrac[0], 0.75, 1e-12);
    EXPECT_NEAR(agg.mixFrac[1], 0.25, 1e-12);
}

TEST(Metrics, AggregateTimingCpi)
{
    PointTimingMetrics p1, p2;
    p1.weight = 0.5;
    p1.m.instrs = 1000;
    p1.m.cycles = 1000.0; // CPI 1
    p2.weight = 0.5;
    p2.m.instrs = 1000;
    p2.m.cycles = 3000.0; // CPI 3
    AggregateTimingMetrics agg = aggregateTiming({p1, p2});
    EXPECT_NEAR(agg.cpi, 2.0, 1e-12);
    EXPECT_EQ(agg.executedInstrs, 2000u);
}

TEST(Metrics, WholeAsAggregateConsistency)
{
    CacheRunMetrics whole;
    whole.instrs = 5000;
    whole.mixFrac = {0.5, 0.35, 0.13, 0.02};
    whole.l3 = {1000, 250};
    AggregateCacheMetrics agg = wholeAsAggregate(whole);
    EXPECT_EQ(agg.executedInstrs, 5000u);
    EXPECT_NEAR(agg.l3MissRate, 0.25, 1e-12);
    EXPECT_EQ(agg.l3Accesses, 1000u);
}

TEST(ArtifactCache, StoreLoadRoundTrip)
{
    std::string dir = testing::TempDir() + "/splab_cache_test";
    ArtifactCache cache(dir);
    ASSERT_TRUE(cache.enabled());
    ByteWriter w;
    w.putString("cached payload");
    cache.store("unit", 0x1234, w);
    CacheOutcome r = cache.load("unit", 0x1234);
    ASSERT_TRUE(r.hit());
    EXPECT_EQ(r.status, CacheStatus::Hit);
    EXPECT_EQ(r->getString(), "cached payload");
    EXPECT_EQ(cache.load("unit", 0x9999).status, CacheStatus::Miss);
    EXPECT_EQ(cache.load("other", 0x1234).status, CacheStatus::Miss);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, DisabledCacheIsInert)
{
    ArtifactCache cache("");
    EXPECT_FALSE(cache.enabled());
    ByteWriter w;
    w.put<u64>(1);
    cache.store("unit", 1, w); // must not crash
    CacheOutcome r = cache.load("unit", 1);
    EXPECT_FALSE(r.hit());
    EXPECT_EQ(r.status, CacheStatus::Disabled);
}

TEST(Pipeline, SimPointsFindPhasesOfKnownWorkload)
{
    SimPointConfig cfg;
    cfg.maxK = 8;
    // Contiguous phases: a single boundary slice, so the clustering
    // must find exactly the two designed phases.
    BenchmarkSpec spec = twoPhaseSpec();
    spec.schedule = ScheduleKind::Contiguous;
    SimPointResult r =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);
    EXPECT_EQ(r.points.size(), 2u);
    EXPECT_NEAR(r.totalWeight(), 1.0, 1e-9);
    auto sorted = r.byDescendingWeight();
    EXPECT_NEAR(sorted[0].weight, 0.7, 0.08);
    EXPECT_NEAR(sorted[1].weight, 0.3, 0.08);
}

TEST(Pipeline, SimPointsSerializationRoundTrip)
{
    SimPointConfig cfg;
    cfg.maxK = 6;
    SimPointResult r =
        pickSimPoints(profileBbvs(twoPhaseSpec(600), cfg.sliceInstrs), cfg);
    ByteWriter w;
    serializeSimPoints(w, r);
    ByteReader rd(w.bytes());
    SimPointResult s = deserializeSimPoints(rd);
    EXPECT_EQ(s.chosenK, r.chosenK);
    EXPECT_EQ(s.points.size(), r.points.size());
    EXPECT_EQ(s.sliceToCluster, r.sliceToCluster);
    EXPECT_EQ(s.sweep.size(), r.sweep.size());
}

TEST(Pipeline, RegionalPinballMatchesSelection)
{
    SimPointConfig cfg;
    cfg.maxK = 6;
    BenchmarkSpec spec = twoPhaseSpec(600);
    SimPointResult r =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);
    SyntheticWorkload wl(spec);
    Pinball regional =
        Logger::makeRegional(Logger::captureWhole(wl), r);
    ASSERT_EQ(regional.regions().size(), r.points.size());
    EXPECT_EQ(regional.coveredInstrs(),
              r.points.size() * cfg.sliceInstrs);
}

TEST(Runs, RegionalMixTracksWholeRun)
{
    // The paper's core claim at module scale: weighted regional
    // instruction mix matches the whole run within ~1%.
    BenchmarkSpec spec = twoPhaseSpec();
    SimPointConfig cfg;
    cfg.maxK = 8;
    SimPointResult sp =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);

    CacheRunMetrics whole = measureWholeCache(spec, tableIConfig());
    auto points =
        measurePointsCache(spec, sp, tableIConfig(), 0);
    AggregateCacheMetrics regional = aggregateCache(points);

    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        EXPECT_NEAR(regional.mixFrac[c], whole.mixFrac[c], 0.015)
            << memClassName(static_cast<MemClass>(c));
}

TEST(Runs, WarmupReducesL3MissRateError)
{
    BenchmarkSpec spec = twoPhaseSpec();
    SimPointConfig cfg;
    cfg.maxK = 8;
    SimPointResult sp =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);

    CacheRunMetrics whole = measureWholeCache(spec, tableIConfig());
    double wholeL3 = whole.l3.missRate();

    AggregateCacheMetrics cold = aggregateCache(
        measurePointsCache(spec, sp, tableIConfig(), 0));
    AggregateCacheMetrics warm = aggregateCache(
        measurePointsCache(spec, sp, tableIConfig(), 120));

    double errCold = relativeError(cold.l3MissRate, wholeL3);
    double errWarm = relativeError(warm.l3MissRate, wholeL3);
    EXPECT_LE(errWarm, errCold + 1e-9);
}

TEST(Runs, TimingPointsProduceFiniteCpi)
{
    BenchmarkSpec spec = twoPhaseSpec(800);
    SimPointConfig cfg;
    cfg.maxK = 6;
    SimPointResult sp =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);
    auto points =
        measurePointsTiming(spec, sp, tableIIIMachine(), 60);
    AggregateTimingMetrics agg = aggregateTiming(points);
    EXPECT_GT(agg.cpi, 0.25);
    EXPECT_LT(agg.cpi, 20.0);
    EXPECT_EQ(agg.executedInstrs,
              points.size() * cfg.sliceInstrs);
}

/** Serialized per-point metrics. */
template <typename Point>
std::vector<u8>
pointBytes(const std::vector<Point> &pts)
{
    ByteWriter w;
    w.putVector(pts);
    return w.bytes();
}

TEST(Runs, FusedReplayEqualsSeparateReplays)
{
    struct Case
    {
        const char *bench;
        const char *strategy;
        u64 warmupChunks;
    };
    const Case cases[] = {
        // The first region starts at chunk 790: its warm-up is
        // clipped at chunk 0.
        {"623.xalancbmk_s", "simpoint", 1000},
        // SMARTS prescribes each region's warm-up, which replaces
        // the experiment-wide 120 chunks.
        {"520.omnetpp_r", "smarts", 120},
        // No warm-up: the warmed runs are cold too.
        {"620.omnetpp_s", "simpoint", 0},
    };
    for (const Case &c : cases) {
        ExperimentConfig cfg = ExperimentConfig::paperDefaults()
                                   .withMaxK(6)
                                   .withStrategy(c.strategy)
                                   .withWarmupChunks(c.warmupChunks);
        ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                                 ArtifactCache("")));
        const Pinball &regional = g.regionalPinball(c.bench);
        ASSERT_FALSE(regional.regions().empty()) << c.bench;
        u64 firstChunk = regional.regions().front().firstChunk;
        u64 prescribed = 0;
        for (const RegionDesc &r : regional.regions()) {
            firstChunk = std::min(firstChunk, r.firstChunk);
            prescribed += r.warmupChunks > 0 &&
                          r.warmupChunks != c.warmupChunks;
        }
        if (c.warmupChunks == 1000) {
            EXPECT_LT(firstChunk, c.warmupChunks) << c.bench;
        }
        if (std::string(c.strategy) == "smarts") {
            EXPECT_GT(prescribed, 0u) << c.bench;
        }

        for (std::size_t threads : {1u, 4u}) {
            ThreadPool::setGlobalThreads(threads);
            PointsFusedMetrics fused = measurePointsFused(
                regional, cfg.allcache, cfg.machine, c.warmupChunks);
            EXPECT_EQ(pointBytes(fused.cold),
                      pointBytes(
                          measurePointsCache(regional, cfg.allcache, 0)))
                << c.bench << " threads " << threads;
            EXPECT_EQ(pointBytes(fused.warm),
                      pointBytes(measurePointsCache(
                          regional, cfg.allcache, c.warmupChunks)))
                << c.bench << " threads " << threads;
            EXPECT_EQ(pointBytes(fused.timing),
                      pointBytes(measurePointsTiming(
                          regional, cfg.machine, c.warmupChunks)))
                << c.bench << " threads " << threads;
            // The graph's projections are measurePointsFused's values.
            EXPECT_EQ(pointBytes(g.pointsCacheWarm(c.bench)),
                      pointBytes(fused.warm));
        }
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(ReduceToQuantile, KeepsHeaviest)
{
    std::vector<PointCacheMetrics> pts(4);
    pts[0].weight = 0.4;
    pts[1].weight = 0.3;
    pts[2].weight = 0.2;
    pts[3].weight = 0.1;
    auto reduced = reduceToQuantile(pts, 0.9);
    ASSERT_EQ(reduced.size(), 3u);
    EXPECT_DOUBLE_EQ(reduced[0].weight, 0.4);
    EXPECT_DOUBLE_EQ(reduced[2].weight, 0.2);
    auto all = reduceToQuantile(pts, 1.0);
    EXPECT_EQ(all.size(), 4u);
}

} // namespace
} // namespace splab
