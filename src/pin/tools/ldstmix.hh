/**
 * @file
 * The `ldstmix` pintool: instruction distribution by memory operand
 * pattern (NO_MEM / MEM_R / MEM_W / MEM_RW), the metric of the
 * paper's Figures 3 and 7.
 */

#ifndef SPLAB_PIN_TOOLS_LDSTMIX_HH
#define SPLAB_PIN_TOOLS_LDSTMIX_HH

#include "pin/pintool.hh"

namespace splab
{

/** Accumulates the dynamic instruction mix. */
class LdStMixTool : public PinTool
{
  public:
    const char *name() const override { return "ldstmix"; }

    /** O(1) per chunk off the precomputed aggregates (the batch
     *  already summed the per-block mixes at push time). */
    void
    onBatch(const EventBatch &batch) override
    {
        total += batch.mixTotal();
        fpInstrs += batch.fpTotal();
    }

    const InstrMix &mix() const { return total; }
    ICount fpInstructions() const { return fpInstrs; }

    void
    reset()
    {
        total = InstrMix();
        fpInstrs = 0;
    }

  private:
    InstrMix total;
    ICount fpInstrs = 0;
};

} // namespace splab

#endif // SPLAB_PIN_TOOLS_LDSTMIX_HH
