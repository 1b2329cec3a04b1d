/**
 * @file
 * Edge cases and failure handling across modules: degenerate
 * clustering inputs, boundary cache geometries, invalid pinball
 * regions, empty aggregations, configuration validation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cache/hierarchy.hh"
#include "core/metrics.hh"
#include "pinball/logger.hh"
#include "pinball/replayer.hh"
#include "simpoint/simpoint.hh"
#include "workload/synthetic.hh"

namespace splab
{
namespace
{

// ---------------------------------------------------------------
// k-means / BIC degeneracies

TEST(Robustness, KMeansSinglePoint)
{
    std::vector<std::vector<double>> pts = {{1.0, 2.0}};
    KMeansResult r = kmeansFit(pts, 3, 1);
    EXPECT_EQ(r.k, 1u);
    EXPECT_EQ(r.clusterSize[0], 1u);
    EXPECT_DOUBLE_EQ(r.distortion, 0.0);
}

TEST(Robustness, KMeansAllIdenticalPoints)
{
    std::vector<std::vector<double>> pts(50, {3.0, 3.0, 3.0});
    KMeansResult r = kmeansFit(pts, 4, 1);
    EXPECT_DOUBLE_EQ(r.distortion, 0.0);
    u64 total = 0;
    for (u64 c : r.clusterSize)
        total += c;
    EXPECT_EQ(total, 50u);
    // BIC must not blow up on zero variance.
    double bic = bicScore(r, pts);
    EXPECT_TRUE(std::isfinite(bic));
}

TEST(Robustness, KMeansKEqualsN)
{
    std::vector<std::vector<double>> pts;
    Rng rng(9);
    for (int i = 0; i < 12; ++i)
        pts.push_back({rng.uniform(), rng.uniform()});
    KMeansResult r = kmeansBestOf(pts, 12, 1, 2);
    EXPECT_LE(r.distortion, 1e-9);
}

TEST(Robustness, SimPointsOnSingleSlice)
{
    FrequencyVector v;
    v.entries = {{0, 100.0f}};
    SimPointConfig cfg;
    SimPointResult r = pickSimPoints({v}, cfg);
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_EQ(r.points[0].slice, 0u);
    EXPECT_DOUBLE_EQ(r.points[0].weight, 1.0);
}

TEST(Robustness, SimPointsOnUniformStream)
{
    // All slices identical: one cluster, one point, weight 1.
    std::vector<FrequencyVector> bbvs(100);
    for (auto &v : bbvs)
        v.entries = {{3, 50.0f}, {7, 50.0f}};
    SimPointConfig cfg;
    cfg.maxK = 10;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    EXPECT_EQ(r.points.size(), 1u);
    EXPECT_NEAR(r.totalWeight(), 1.0, 1e-9);
}

TEST(Robustness, TopByWeightQuantileEdges)
{
    SimPointResult r;
    r.points = {{0, 0.5, 0, 5}, {1, 0.3, 1, 3}, {2, 0.2, 2, 2}};
    EXPECT_EQ(r.topByWeight(0.0).size(), 1u); // at least one point
    EXPECT_EQ(r.topByWeight(1.0).size(), 3u);
    EXPECT_EQ(r.topByWeight(0.5).size(), 1u);
    EXPECT_EQ(r.topByWeight(0.51).size(), 2u);
}

// ---------------------------------------------------------------
// Cache geometry edges

TEST(Robustness, SingleSetCache)
{
    SetAssocCache c({"one-set", 256, 4, 64});
    EXPECT_EQ(c.params().numSets(), 1u);
    for (Addr a = 0; a < 4 * 64; a += 64)
        c.access(a, false);
    EXPECT_TRUE(c.access(0, false));
    EXPECT_FALSE(c.access(4 * 64, false));
}

TEST(Robustness, BadGeometryPanics)
{
    CacheParams bad{"bad", 3000, 4, 64}; // sets not a power of two
    EXPECT_DEATH(SetAssocCache cache(bad), "power of two");
}

TEST(Robustness, ScaleFarCachesClampsAtMinimum)
{
    HierarchyConfig cfg = tableIConfig();
    HierarchyConfig tiny = scaleFarCaches(cfg, 1u << 30);
    // Clamped to one line per way and still a valid geometry.
    EXPECT_EQ(tiny.l2.sizeBytes,
              static_cast<u64>(tiny.l2.ways) * tiny.l2.lineBytes);
    CacheHierarchy h(tiny); // must construct without panicking
    h.accessData(0x1234, false);
    // L1 untouched.
    EXPECT_EQ(tiny.l1d.sizeBytes, cfg.l1d.sizeBytes);
}

TEST(Robustness, ScaleFarCachesIdentityDivisor)
{
    HierarchyConfig cfg = scaleFarCaches(tableIConfig(), 1);
    EXPECT_EQ(cfg.l2.sizeBytes, tableIConfig().l2.sizeBytes);
    EXPECT_EQ(cfg.l3.sizeBytes, tableIConfig().l3.sizeBytes);
}

// ---------------------------------------------------------------
// Aggregation edges

TEST(Robustness, AggregateEmptyPointSet)
{
    AggregateCacheMetrics agg = aggregateCache({});
    EXPECT_EQ(agg.executedInstrs, 0u);
    EXPECT_DOUBLE_EQ(agg.l3MissRate, 0.0);
    AggregateTimingMetrics t = aggregateTiming({});
    EXPECT_DOUBLE_EQ(t.cpi, 0.0);
}

TEST(Robustness, AggregateSinglePointIsIdentity)
{
    PointCacheMetrics p;
    p.weight = 0.37; // arbitrary unnormalized weight
    p.m.instrs = 1000;
    p.m.mixFrac = {0.5, 0.3, 0.15, 0.05};
    p.m.l1d = {400, 40};
    p.m.l2 = {40, 20};
    p.m.l3 = {20, 15};
    AggregateCacheMetrics agg = aggregateCache({p});
    EXPECT_DOUBLE_EQ(agg.mixFrac[0], 0.5);
    EXPECT_DOUBLE_EQ(agg.l1dMissRate, 0.1);
    EXPECT_DOUBLE_EQ(agg.l2MissRate, 0.5);
    EXPECT_DOUBLE_EQ(agg.l3MissRate, 0.75);
}

TEST(Robustness, AggregateZeroInstructionPoint)
{
    // A zero-length point must not poison the aggregate with NaNs.
    PointCacheMetrics good, empty;
    good.weight = 0.5;
    good.m.instrs = 100;
    good.m.mixFrac = {1.0, 0, 0, 0};
    good.m.l3 = {10, 5};
    empty.weight = 0.5;
    empty.m.instrs = 0;
    AggregateCacheMetrics agg = aggregateCache({good, empty});
    EXPECT_TRUE(std::isfinite(agg.l3MissRate));
    EXPECT_DOUBLE_EQ(agg.l3MissRate, 0.5);
}

// ---------------------------------------------------------------
// Pinball / replayer misuse

TEST(Robustness, RegionBeyondRunPanics)
{
    BenchmarkSpec spec;
    spec.name = "tiny";
    spec.totalChunks = 100;
    PhaseSpec a;
    spec.phases = {a};
    EXPECT_DEATH(Pinball(PinballKind::Regional, spec,
                         {{90, 20, 1.0, 0, 9}}),
                 "beyond the captured run");
}

TEST(Robustness, ReplayerRegionIndexOutOfRange)
{
    BenchmarkSpec spec;
    spec.name = "tiny";
    spec.totalChunks = 100;
    PhaseSpec a;
    spec.phases = {a};
    Pinball p(PinballKind::Regional, spec, {{0, 10, 1.0, 0, 0}});
    Replayer rep(p);
    Engine engine;
    EXPECT_DEATH(rep.replayRegion(5, engine), "out of range");
}

// ---------------------------------------------------------------
// Spec validation

TEST(Robustness, SpecValidationCatchesBadInput)
{
    BenchmarkSpec spec;
    spec.name = "bad";
    EXPECT_DEATH(spec.validate(), "needs phases");

    spec.phases.emplace_back();
    spec.chunkLen = 10; // out of range
    EXPECT_DEATH(spec.validate(), "chunkLen");

    spec.chunkLen = 1000;
    spec.phases[0].weight = -1.0;
    EXPECT_DEATH(spec.validate(), "negative");
}

TEST(Robustness, WorkloadRejectsOutOfRangeWindow)
{
    BenchmarkSpec spec;
    spec.name = "tiny";
    spec.totalChunks = 50;
    PhaseSpec a;
    spec.phases = {a};
    SyntheticWorkload wl(spec);
    class Null : public EventSink
    {
        void onBatch(const EventBatch &) override {}
    } sink;
    EXPECT_DEATH(wl.run(40, 20, sink), "beyond run");
}

} // namespace
} // namespace splab
