/**
 * @file
 * End-to-end integration: the paper's claims, asserted at test scale
 * on a miniature benchmark run through the full pipeline (profile ->
 * cluster -> regional pinballs -> replay -> weighted aggregation).
 */

#include <gtest/gtest.h>

#include "core/artifact_graph.hh"
#include "core/runs.hh"
#include "core/scale.hh"
#include "perf/native.hh"
#include "support/stats_util.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

/** A mini benchmark with known structure, shared by the tests. */
BenchmarkSpec
miniSpec()
{
    BenchmarkSpec spec;
    spec.name = "e2e-mini";
    spec.seed = 808;
    spec.totalChunks = 6000; // 6M instructions, 600 slices
    PhaseSpec hot;
    hot.name = "hot";
    hot.weight = 0.5;
    hot.kernel = KernelKind::ZipfHotCold;
    hot.workingSetBytes = 1 << 20;
    PhaseSpec scan;
    scan.name = "scan";
    scan.weight = 0.3;
    scan.kernel = KernelKind::Stream;
    scan.workingSetBytes = 2 << 20;
    scan.numBlocks = 9;
    PhaseSpec chase;
    chase.name = "chase";
    chase.weight = 0.2;
    chase.kernel = KernelKind::PointerChase;
    chase.workingSetBytes = 1 << 20;
    chase.numBlocks = 24;
    spec.phases = {hot, scan, chase};
    spec.schedule = ScheduleKind::Markov;
    spec.dwellChunks = 150;
    return spec;
}

HierarchyConfig
miniCaches()
{
    return scaleFarCaches(tableIConfig(), scale::kFarCacheDivisor);
}

class EndToEnd : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        spec = new BenchmarkSpec(miniSpec());
        SimPointConfig cfg;
        cfg.maxK = 12;
        sp = new SimPointResult(
            pickSimPoints(profileBbvs(*spec, cfg.sliceInstrs), cfg));
        whole = new CacheRunMetrics(
            measureWholeCache(*spec, miniCaches()));
        cold = new std::vector<PointCacheMetrics>(
            measurePointsCache(*spec, *sp, miniCaches(), 0));
        warm = new std::vector<PointCacheMetrics>(
            measurePointsCache(*spec, *sp, miniCaches(), 120));
    }

    static void
    TearDownTestSuite()
    {
        delete spec;
        delete sp;
        delete whole;
        delete cold;
        delete warm;
    }

    static BenchmarkSpec *spec;
    static SimPointResult *sp;
    static CacheRunMetrics *whole;
    static std::vector<PointCacheMetrics> *cold;
    static std::vector<PointCacheMetrics> *warm;
};

BenchmarkSpec *EndToEnd::spec = nullptr;
SimPointResult *EndToEnd::sp = nullptr;
CacheRunMetrics *EndToEnd::whole = nullptr;
std::vector<PointCacheMetrics> *EndToEnd::cold = nullptr;
std::vector<PointCacheMetrics> *EndToEnd::warm = nullptr;

TEST_F(EndToEnd, RecoversThePhaseCount)
{
    EXPECT_GE(sp->points.size(), 3u);
    EXPECT_LE(sp->points.size(), 5u); // phases + maybe a boundary
}

TEST_F(EndToEnd, InstructionMixWithinOnePercent)
{
    // The paper's Figure 7 claim.
    AggregateCacheMetrics regional = aggregateCache(*cold);
    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        EXPECT_NEAR(regional.mixFrac[c], whole->mixFrac[c], 0.01)
            << memClassName(static_cast<MemClass>(c));
}

TEST_F(EndToEnd, ReducedRegionalStillTracksMix)
{
    auto reduced = reduceToQuantile(*cold, 0.9);
    AggregateCacheMetrics agg = aggregateCache(reduced);
    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        EXPECT_NEAR(agg.mixFrac[c], whole->mixFrac[c], 0.02);
}

TEST_F(EndToEnd, ColdErrorGrowsTowardTheLlc)
{
    // The paper's Figure 8 shape: relative error is worst at L3.
    AggregateCacheMetrics regional = aggregateCache(*cold);
    double e1 = relativeError(regional.l1dMissRate,
                              whole->l1d.missRate());
    double e3 = relativeError(regional.l3MissRate,
                              whole->l3.missRate());
    EXPECT_GT(e3, e1);
}

TEST_F(EndToEnd, WarmupShrinksTheLlcError)
{
    AggregateCacheMetrics regional = aggregateCache(*cold);
    AggregateCacheMetrics warmed = aggregateCache(*warm);
    double eCold =
        relativeError(regional.l3MissRate, whole->l3.missRate());
    double eWarm =
        relativeError(warmed.l3MissRate, whole->l3.missRate());
    EXPECT_LT(eWarm, eCold);
}

TEST_F(EndToEnd, InstructionReductionMatchesSliceRatio)
{
    // Reduction factor = slices / points, by construction.
    AggregateCacheMetrics regional = aggregateCache(*cold);
    double ratio = static_cast<double>(spec->totalInstrs()) /
                   static_cast<double>(regional.executedInstrs);
    double expected = 600.0 /
                      static_cast<double>(sp->points.size());
    EXPECT_NEAR(ratio, expected, expected * 0.01);
}

TEST_F(EndToEnd, L3AccessesCollapseUnderSampling)
{
    // Figure 10's effect.
    AggregateCacheMetrics regional = aggregateCache(*cold);
    EXPECT_LT(regional.l3Accesses * 20, whole->l3.accesses);
}

TEST_F(EndToEnd, SampledCpiTracksNative)
{
    MachineConfig machine = tableIIIMachine();
    machine.caches =
        scaleFarCaches(machine.caches, scale::kFarCacheDivisor);

    SyntheticWorkload wl(*spec);
    NativeMachine hw(machine, 0.0, 0.0); // no hardware noise
    double native = hw.run(wl).cpi();

    auto points = measurePointsTiming(*spec, *sp, machine, 120);
    double sampled = aggregateTiming(points).cpi;
    EXPECT_LT(relativeError(sampled, native), 0.15);
}

} // namespace
} // namespace splab
