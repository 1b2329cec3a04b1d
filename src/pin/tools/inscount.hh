/**
 * @file
 * The `inscount0` pintool: dynamic instruction counting.
 */

#ifndef SPLAB_PIN_TOOLS_INSCOUNT_HH
#define SPLAB_PIN_TOOLS_INSCOUNT_HH

#include "pin/pintool.hh"

namespace splab
{

/** Counts dynamic instructions, blocks and branches. */
class InsCountTool : public PinTool
{
  public:
    const char *name() const override { return "inscount"; }

    /** O(1) per chunk off the precomputed aggregates. */
    void
    onBatch(const EventBatch &batch) override
    {
        instrs += batch.instrs();
        blocks += batch.numBlocks();
        branches += batch.branchTotal();
    }

    ICount instructions() const { return instrs; }
    u64 blockCount() const { return blocks; }
    u64 branchCount() const { return branches; }

    void
    reset()
    {
        instrs = 0;
        blocks = 0;
        branches = 0;
    }

  private:
    ICount instrs = 0;
    u64 blocks = 0;
    u64 branches = 0;
};

} // namespace splab

#endif // SPLAB_PIN_TOOLS_INSCOUNT_HH
