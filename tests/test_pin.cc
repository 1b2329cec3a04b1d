/**
 * @file
 * Unit tests for the instrumentation engine and the bundled tools.
 */

#include <gtest/gtest.h>

#include <vector>

#include "obs/counters.hh"
#include "pin/engine.hh"
#include "pin/tools/allcache.hh"
#include "pin/tools/bbv_tool.hh"
#include "pin/tools/branch_profile.hh"
#include "pin/tools/inscount.hh"
#include "pin/tools/ldstmix.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

BenchmarkSpec
smallSpec(u64 chunks = 300)
{
    BenchmarkSpec spec;
    spec.name = "pin-test";
    spec.seed = 77;
    spec.totalChunks = chunks;
    spec.chunkLen = 1000;
    PhaseSpec a;
    a.weight = 0.6;
    a.kernel = KernelKind::Stream;
    a.workingSetBytes = 4 << 20;
    PhaseSpec b;
    b.weight = 0.4;
    b.kernel = KernelKind::PointerChase;
    b.workingSetBytes = 1 << 20;
    spec.phases = {a, b};
    spec.schedule = ScheduleKind::Interleaved;
    spec.dwellChunks = 30;
    return spec;
}

TEST(Engine, CountsInstructionsExactly)
{
    SyntheticWorkload wl(smallSpec(100));
    InsCountTool count;
    Engine engine;
    engine.attach(&count);
    ICount n = engine.runWhole(wl);
    EXPECT_EQ(n, 100000u);
    EXPECT_EQ(count.instructions(), 100000u);
    EXPECT_GT(count.blockCount(), 500u);
    EXPECT_GT(count.branchCount(), 0u);
    EXPECT_LE(count.branchCount(), count.blockCount());
}

TEST(Engine, MultipleToolsSeeTheSameStream)
{
    SyntheticWorkload wl(smallSpec(50));
    InsCountTool c1, c2;
    Engine engine;
    engine.attach(&c1);
    engine.attach(&c2);
    engine.runWhole(wl);
    EXPECT_EQ(c1.instructions(), c2.instructions());
    EXPECT_EQ(c1.blockCount(), c2.blockCount());
}

TEST(Engine, WindowedRunsAccumulate)
{
    SyntheticWorkload wl(smallSpec(60));
    InsCountTool count;
    Engine engine;
    engine.attach(&count);
    engine.run(wl, 0, 20);
    engine.run(wl, 40, 20);
    EXPECT_EQ(count.instructions(), 40000u);
    EXPECT_EQ(engine.instructionsExecuted(), 40000u);
}

TEST(Engine, GaugesTimeEachToolAndGeneration)
{
    // Every run adds each tool's onBatch time and the generation
    // time to volatile gauges; tools of one name share a gauge.
    const char *names[] = {"engine.tool.inscount.seconds",
                           "engine.tool.ldstmix.seconds",
                           "engine.generate.seconds"};
    std::vector<double> before;
    for (const char *n : names)
        before.push_back(obs::gauge(n).value());
    SyntheticWorkload wl(smallSpec(100));
    InsCountTool c1, c2;
    LdStMixTool mix;
    Engine engine;
    engine.attach(&c1);
    engine.attach(&mix);
    engine.attach(&c2);
    engine.runWhole(wl);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_GT(obs::gauge(names[i]).value(), before[i]) << names[i];
}

TEST(LdStMix, FractionsSumToOne)
{
    SyntheticWorkload wl(smallSpec(200));
    LdStMixTool mix;
    Engine engine;
    engine.attach(&mix);
    engine.runWhole(wl);
    auto f = mix.mix().fractions();
    EXPECT_NEAR(f[0] + f[1] + f[2] + f[3], 1.0, 1e-12);
    EXPECT_GT(f[0], 0.2);
    EXPECT_GT(f[1], 0.1);
    EXPECT_EQ(mix.mix().total(), 200000u);
}

TEST(BbvTool, OneVectorPerSlice)
{
    SyntheticWorkload wl(smallSpec(120));
    BbvTool bbv(10000); // 10 chunks per slice
    Engine engine;
    engine.attach(&bbv);
    engine.runWhole(wl);
    EXPECT_EQ(bbv.vectors().size(), 12u);
    for (const auto &v : bbv.vectors()) {
        EXPECT_FALSE(v.entries.empty());
        EXPECT_NEAR(v.l1Norm(), 10000.0, 1e-6);
    }
}

TEST(BbvTool, SliceLengthMustAlignWithChunks)
{
    SyntheticWorkload wl(smallSpec(10));
    BbvTool bbv(1500); // not a multiple of 1000
    Engine engine;
    engine.attach(&bbv);
    EXPECT_DEATH(engine.runWhole(wl), "multiple of the chunk");
}

TEST(BbvTool, WindowedProfilingMatchesSliceOfWhole)
{
    // BBVs of slices 5..8 collected standalone equal those from a
    // full profile.
    SyntheticWorkload wlA(smallSpec(120));
    BbvTool whole(10000);
    Engine ea;
    ea.attach(&whole);
    ea.runWhole(wlA);

    SyntheticWorkload wlB(smallSpec(120));
    BbvTool window(10000);
    Engine eb;
    eb.attach(&window);
    eb.run(wlB, 50, 30); // slices 5,6,7

    ASSERT_EQ(window.vectors().size(), 3u);
    for (int s = 0; s < 3; ++s) {
        const auto &a = whole.vectors()[5 + s].entries;
        const auto &b = window.vectors()[s].entries;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].block, b[i].block);
            EXPECT_FLOAT_EQ(a[i].weight, b[i].weight);
        }
    }
}

TEST(AllCache, CountsAccessesConsistentWithMix)
{
    SyntheticWorkload wl(smallSpec(100));
    AllCacheTool cache(tableIConfig());
    LdStMixTool mix;
    Engine engine;
    engine.attach(&cache);
    engine.attach(&mix);
    engine.runWhole(wl);

    const InstrMix &m = mix.mix();
    u64 expectedData = m[MemClass::MemR] + m[MemClass::MemW] +
                       2 * m[MemClass::MemRW];
    EXPECT_EQ(cache.hierarchy()
                  .levelStats(CacheLevel::L1D)
                  .accesses,
              expectedData);
    EXPECT_GT(cache.hierarchy()
                  .levelStats(CacheLevel::L1I)
                  .accesses,
              0u);
}

TEST(AllCache, L1IMissRateIsNegligible)
{
    // The paper: "L1I has negligible miss rates in all cases".
    SyntheticWorkload wl(smallSpec(200));
    AllCacheTool cache(tableIConfig());
    Engine engine;
    engine.attach(&cache);
    engine.runWhole(wl);
    EXPECT_LT(cache.hierarchy()
                  .levelStats(CacheLevel::L1I)
                  .missRate(),
              0.02);
}

TEST(AllCache, ColdStartRaisesMissesVersusContinuation)
{
    // Replaying a late window cold must produce at least as many
    // L3 misses as the same window inside a continuous run.
    auto runWindow = [&](bool coldOnly) {
        SyntheticWorkload wl(smallSpec(200));
        AllCacheTool cache(tableIConfig());
        Engine engine;
        if (!coldOnly) {
            cache.setWarmup(true);
            engine.attach(&cache);
            engine.run(wl, 0, 150);
            cache.setWarmup(false);
            engine.clearTools();
        }
        engine.attach(&cache);
        engine.run(wl, 150, 50);
        return cache.hierarchy().levelStats(CacheLevel::L3).misses;
    };
    EXPECT_GE(runWindow(true), runWindow(false));
}

TEST(BranchProfile, RatesAreSane)
{
    SyntheticWorkload wl(smallSpec(100));
    BranchProfileTool prof;
    Engine engine;
    engine.attach(&prof);
    engine.runWhole(wl);
    EXPECT_GT(prof.branchCount(), 0u);
    EXPECT_GE(prof.takenCount(), 0u);
    EXPECT_LE(prof.takenCount(), prof.branchCount());
    EXPECT_LT(prof.dataDependentCount(), prof.branchCount());
    EXPECT_GT(prof.takenRate(), 0.05);
    EXPECT_LT(prof.takenRate(), 0.95);
}

} // namespace
} // namespace splab
