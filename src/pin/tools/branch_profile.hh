/**
 * @file
 * Branch-behaviour profiling tool.
 */

#ifndef SPLAB_PIN_TOOLS_BRANCH_PROFILE_HH
#define SPLAB_PIN_TOOLS_BRANCH_PROFILE_HH

#include "pin/pintool.hh"

namespace splab
{

/** Counts dynamic branches, taken outcomes and data-dependent ones. */
class BranchProfileTool : public PinTool
{
  public:
    const char *name() const override { return "branchprofile"; }

    /** O(1) per chunk off the precomputed aggregates (the batch
     *  counted branch outcomes at push time). */
    void
    onBatch(const EventBatch &batch) override
    {
        branches += batch.branchTotal();
        taken += batch.takenTotal();
        dataDependent += batch.dataDependentTotal();
    }

    u64 branchCount() const { return branches; }
    u64 takenCount() const { return taken; }
    u64 dataDependentCount() const { return dataDependent; }

    double
    takenRate() const
    {
        return branches ? static_cast<double>(taken) /
                              static_cast<double>(branches)
                        : 0.0;
    }

  private:
    u64 branches = 0;
    u64 taken = 0;
    u64 dataDependent = 0;
};

} // namespace splab

#endif // SPLAB_PIN_TOOLS_BRANCH_PROFILE_HH
