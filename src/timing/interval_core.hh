/**
 * @file
 * Interval-style out-of-order core timing model (the Sniper
 * analogue), packaged as a PinTool.
 *
 * The model follows the interval-simulation idea: the core commits
 * dispatchWidth instructions per cycle until a miss event (branch
 * misprediction or off-core memory access) opens an interval whose
 * length is the event's exposed latency.  Exposed latencies are the
 * raw latencies scaled by an overlap factor per hierarchy level, and
 * back-to-back long-latency misses within a ROB window are treated
 * as memory-level parallel (charged once per MLP group).
 */

#ifndef SPLAB_TIMING_INTERVAL_CORE_HH
#define SPLAB_TIMING_INTERVAL_CORE_HH

#include <memory>
#include <vector>

#include "branch_predictor.hh"
#include "cache/hierarchy.hh"
#include "machine_config.hh"
#include "pin/pintool.hh"

namespace splab
{

/** Cycle/CPI statistics of one timing run. */
struct TimingStats
{
    ICount instrs = 0;
    double cycles = 0.0;
    u64 branches = 0;
    u64 mispredicts = 0;
    u64 l2Hits = 0;
    u64 l3Hits = 0;
    u64 memAccesses = 0;

    double
    cpi() const
    {
        return instrs ? cycles / static_cast<double>(instrs) : 0.0;
    }

    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) /
                              static_cast<double>(branches)
                        : 0.0;
    }
};

/** The timing simulator: attach to an Engine and replay a window. */
class IntervalCoreTool : public PinTool
{
  public:
    explicit IntervalCoreTool(const MachineConfig &config);
    ~IntervalCoreTool() override;

    const char *name() const override { return "sniper-core"; }
    bool wantsMemory() const override { return true; }

    /** Walks the batch through the hierarchy, then steps the model
     *  block by block over the levels the walk found (the interval
     *  model is inherently sequential per block). */
    void onBatch(const EventBatch &batch) override;

    /** Microarchitectural warm-up: state trains, stats frozen. */
    void setWarmup(bool on);

    /** Cold-restart the core (caches, predictor, MLP window). */
    void coldRestart();

    /** Zero the statistics (state is kept). */
    void resetStats();

    const TimingStats &stats() const { return timing; }
    const MachineConfig &config() const { return cfg; }
    CacheHierarchy &hierarchy() { return *caches; }

  private:
    MachineConfig cfg;
    std::unique_ptr<CacheHierarchy> caches;
    TournamentPredictor predictor;
    TimingStats timing;
    bool warming = false;

    /** Instructions since the last long-latency (memory) miss, for
     *  the MLP overlap window. */
    ICount sinceMemMiss;

    /** The walk's per-access levels, kept across batches so steady
     *  state does not allocate. */
    std::vector<HitLevel> fetchLevels, dataLevels;
};

} // namespace splab

#endif // SPLAB_TIMING_INTERVAL_CORE_HH
