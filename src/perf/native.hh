/**
 * @file
 * The "real hardware" reference: native execution measured with
 * perf-style counters.
 *
 * Substitution note (see DESIGN.md): we cannot run on a physical
 * i7-3770, so native = the fused whole-run pass's timing view (the
 * same interval timing model over the *full* workload) plus a
 * hardware-effects model: a small per-benchmark systematic bias
 * (microarchitectural effects the simulator does not capture) plus
 * per-run jitter (non-determinism).  This preserves the structure of
 * the paper's Figure 12 comparison: sampled-simulation error =
 * sampling error + model-vs-hardware error + noise.
 *
 * observe() is the hardware-effects model alone, a pure function of
 * whole-run timing statistics; the artifact graph applies it to the
 * fused pass's timing view, so no benchmark is simulated twice.
 * run() simulates first and then observes, for standalone use.
 */

#ifndef SPLAB_PERF_NATIVE_HH
#define SPLAB_PERF_NATIVE_HH

#include "timing/machine_config.hh"
#include "workload/synthetic.hh"

namespace splab
{

struct TimingStats;

/** Values read from perf's hardware event counters. */
struct PerfCounters
{
    u64 instructions = 0;
    u64 cpuCycles = 0;
    u64 branches = 0;
    u64 branchMisses = 0;
    u64 cacheReferences = 0; ///< LLC references
    u64 cacheMisses = 0;     ///< LLC misses

    /** The paper's metric: cpu-cycles / instructions. */
    double
    cpi() const
    {
        return instructions ? static_cast<double>(cpuCycles) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/** Runs workloads natively and reports perf counters. */
class NativeMachine
{
  public:
    /**
     * @param hw        hardware being modelled (Table III)
     * @param biasSigma std-dev of the per-benchmark systematic
     *                  model-vs-hardware bias (fraction of cycles)
     * @param jitterSigma std-dev of per-run noise
     */
    explicit NativeMachine(const MachineConfig &hw,
                           double biasSigma = 0.02,
                           double jitterSigma = 0.005);

    /**
     * Execute the whole workload "natively" and read the counters.
     * @param runIndex distinguishes repeated timed runs (affects
     *        jitter only, like re-running perf).
     */
    PerfCounters run(SyntheticWorkload &workload, u64 runIndex = 0);

    /**
     * Read the counters of a whole run whose timing-model statistics
     * are @p t: the hardware-effects model alone, no simulation.
     * @param benchKey seeds the per-benchmark bias (the spec's
     *        content hash); @p runIndex seeds the per-run jitter.
     */
    PerfCounters observe(const TimingStats &t, u64 benchKey,
                         u64 runIndex = 0) const;

    const MachineConfig &config() const { return hwConfig; }

  private:
    MachineConfig hwConfig;
    double biasSigma;
    double jitterSigma;
};

} // namespace splab

#endif // SPLAB_PERF_NATIVE_HH
