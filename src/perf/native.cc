#include "native.hh"

#include "pin/engine.hh"
#include "support/rng.hh"
#include "timing/interval_core.hh"

namespace splab
{

NativeMachine::NativeMachine(const MachineConfig &hw, double biasSigma,
                             double jitterSigma)
    : hwConfig(hw), biasSigma(biasSigma), jitterSigma(jitterSigma)
{
}

PerfCounters
NativeMachine::run(SyntheticWorkload &workload, u64 runIndex)
{
    IntervalCoreTool core(hwConfig);
    Engine engine;
    engine.attach(&core);
    engine.runWhole(workload);
    return observe(core.stats(), workload.spec().contentHash(),
                   runIndex);
}

PerfCounters
NativeMachine::observe(const TimingStats &t, u64 benchKey,
                       u64 runIndex) const
{
    // Hardware-effects model: systematic per-benchmark bias plus
    // per-run jitter.
    Rng biasRng(benchKey, 0xb1a5ULL);
    Rng jitterRng(benchKey, runIndex, 0x11f7ULL);
    double factor = 1.0 + biasSigma * biasRng.gaussian() +
                    jitterSigma * jitterRng.gaussian();
    if (factor < 0.5)
        factor = 0.5;

    PerfCounters c;
    c.instructions = t.instrs;
    c.cpuCycles = static_cast<u64>(t.cycles * factor);
    c.branches = t.branches;
    c.branchMisses = t.mispredicts;
    // Every L3 lookup resolves to an L3 hit or a memory access, and
    // the interval core counts each one (the hierarchy issues no
    // writebacks), so these are exactly the L3 level's counters.
    c.cacheReferences = t.l3Hits + t.memAccesses;
    c.cacheMisses = t.memAccesses;
    return c;
}

} // namespace splab
