/**
 * @file
 * Unit tests for the native-hardware (perf) model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/scale.hh"
#include "perf/native.hh"
#include "pin/engine.hh"
#include "timing/interval_core.hh"

namespace splab
{
namespace
{

double
relErr(double a, double b)
{
    return b == 0.0 ? a : std::abs(a - b) / std::abs(b);
}

BenchmarkSpec
spec(u64 seed = 11)
{
    BenchmarkSpec s;
    s.name = "perf-test";
    s.seed = seed;
    s.totalChunks = 150;
    s.chunkLen = 1000;
    PhaseSpec a;
    a.weight = 1.0;
    a.kernel = KernelKind::ZipfHotCold;
    a.workingSetBytes = 4 << 20;
    s.phases = {a};
    s.schedule = ScheduleKind::Contiguous;
    return s;
}

TEST(Native, CountersArePopulated)
{
    SyntheticWorkload wl(spec());
    NativeMachine hw(tableIIIMachine());
    PerfCounters c = hw.run(wl);
    EXPECT_EQ(c.instructions, 150000u);
    EXPECT_GT(c.cpuCycles, c.instructions / 4);
    EXPECT_GT(c.branches, 0u);
    EXPECT_LE(c.branchMisses, c.branches);
    EXPECT_LE(c.cacheMisses, c.cacheReferences);
    EXPECT_GT(c.cpi(), 0.25);
    EXPECT_LT(c.cpi(), 20.0);
}

TEST(Native, RepeatedRunsJitterSlightly)
{
    SyntheticWorkload wl1(spec()), wl2(spec());
    NativeMachine hw(tableIIIMachine());
    PerfCounters a = hw.run(wl1, 0);
    PerfCounters b = hw.run(wl2, 1);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_NE(a.cpuCycles, b.cpuCycles); // non-determinism
    double rel = relErr(a.cpi(), b.cpi());
    EXPECT_LT(rel, 0.05);
}

TEST(Native, SameRunIndexIsReproducible)
{
    SyntheticWorkload wl1(spec()), wl2(spec());
    NativeMachine hw(tableIIIMachine());
    EXPECT_EQ(hw.run(wl1, 3).cpuCycles, hw.run(wl2, 3).cpuCycles);
}

TEST(Native, BiasIsPerBenchmark)
{
    // Two different benchmarks get different systematic biases.
    SyntheticWorkload wlA(spec(1)), wlB(spec(2));
    NativeMachine hw(tableIIIMachine(), 0.05, 0.0);
    double cpiA = hw.run(wlA).cpi();
    double cpiB = hw.run(wlB).cpi();
    // Same workload shape, different seeds -> CPI ratio reflects
    // the bias draw (and stream differences); must not be exactly
    // equal.
    EXPECT_NE(cpiA, cpiB);
}

TEST(Native, ZeroNoiseMatchesTimingModel)
{
    SyntheticWorkload wl(spec());
    NativeMachine clean(tableIIIMachine(), 0.0, 0.0);
    PerfCounters c = clean.run(wl);
    // With the hardware-effects model disabled, cycles equal the
    // timing model's output exactly (modulo u64 truncation).
    SyntheticWorkload wl2(spec());
    NativeMachine again(tableIIIMachine(), 0.0, 0.0);
    EXPECT_EQ(c.cpuCycles, again.run(wl2).cpuCycles);
}

/** Table III, and Table III with far caches shrunk as in the
 *  model-scale experiment config. */
std::vector<MachineConfig>
machines()
{
    MachineConfig scaled = tableIIIMachine();
    scaled.caches =
        scaleFarCaches(scaled.caches, scale::kFarCacheDivisor);
    return {tableIIIMachine(), scaled};
}

/** Drive @p core over the whole spec() workload. */
void
runWhole(IntervalCoreTool &core)
{
    SyntheticWorkload wl(spec());
    Engine engine;
    engine.attach(&core);
    engine.runWhole(wl);
}

void
expectSameCounters(const PerfCounters &a, const PerfCounters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cpuCycles, b.cpuCycles);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.branchMisses, b.branchMisses);
    EXPECT_EQ(a.cacheReferences, b.cacheReferences);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
}

TEST(Native, ObserveOfWholeTimingRunEqualsRun)
{
    // observe() is the hardware-effects model alone: applied to the
    // statistics of a whole timing run it must reproduce run().
    for (const MachineConfig &m : machines()) {
        IntervalCoreTool core(m);
        runWhole(core);

        NativeMachine hw(m);
        for (u64 runIndex : {0u, 2u}) {
            SyntheticWorkload again(spec());
            expectSameCounters(
                hw.observe(core.stats(), spec().contentHash(),
                           runIndex),
                hw.run(again, runIndex));
        }
    }
}

TEST(Native, LlcCountersEqualIntervalCoreL3Outcomes)
{
    // observe() reads LLC references/misses from the timing stats,
    // not the hierarchy: every L3 lookup ends as an L3 hit or a
    // memory access, and the interval core counts each one outside
    // warm-up.
    for (const MachineConfig &m : machines()) {
        IntervalCoreTool core(m);
        runWhole(core);

        const TimingStats &t = core.stats();
        const CacheStats &l3 =
            core.hierarchy().levelStats(CacheLevel::L3);
        EXPECT_GT(t.l3Hits, 0u);
        EXPECT_GT(t.memAccesses, 0u);
        EXPECT_EQ(l3.accesses, t.l3Hits + t.memAccesses);
        EXPECT_EQ(l3.misses, t.memAccesses);

        PerfCounters c = NativeMachine(m).observe(t, 1);
        EXPECT_EQ(c.cacheReferences, l3.accesses);
        EXPECT_EQ(c.cacheMisses, l3.misses);
    }
}

} // namespace
} // namespace splab
