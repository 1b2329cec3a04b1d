/**
 * @file
 * BBV-profiling tool: slices the dynamic stream into fixed-size
 * intervals and collects one basic-block vector per slice (the
 * PinPoints front-end).
 */

#ifndef SPLAB_PIN_TOOLS_BBV_TOOL_HH
#define SPLAB_PIN_TOOLS_BBV_TOOL_HH

#include <memory>
#include <vector>

#include "pin/pintool.hh"
#include "simpoint/bbv.hh"

namespace splab
{

/**
 * Collects instruction-weighted BBVs, one per @p sliceInstrs-sized
 * interval.  The slice length must be a whole multiple of the
 * workload's chunk length so slice boundaries are exact.
 */
class BbvTool : public PinTool
{
  public:
    explicit BbvTool(ICount sliceInstrs);

    const char *name() const override { return "bbv"; }

    void onRunStart(const SyntheticWorkload &workload) override;
    /** Accumulates from the batch's per-static-block instruction
     *  sums (O(touched blocks) per chunk).  A batch is one chunk and
     *  the slice length a whole number of chunks, so a slice
     *  boundary never falls inside a batch. */
    void onBatch(const EventBatch &batch) override;
    void onRunEnd() override;

    /** Per-slice BBVs collected so far (final partial slice kept if
     *  it holds at least half a slice of instructions). */
    const std::vector<FrequencyVector> &vectors() const
    {
        return slices;
    }

    /** How many vectors a run of @p instrs instructions yields: one
     *  per full slice, plus the kept final partial slice. */
    static u64 sliceCount(ICount instrs, ICount sliceInstrs);

  private:
    ICount sliceInstrs;
    ICount inSlice = 0;
    std::unique_ptr<BbvAccumulator> acc;
    std::vector<FrequencyVector> slices;
};

} // namespace splab

#endif // SPLAB_PIN_TOOLS_BBV_TOOL_HH
