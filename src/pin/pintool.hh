/**
 * @file
 * Analysis-tool interface of the instrumentation engine.
 *
 * Mirrors the role of a Pintool: a passive observer of every dynamic
 * basic block (with its memory accesses and terminating branch) of
 * the instrumented execution, delivered one chunk-sized batch at a
 * time.
 */

#ifndef SPLAB_PIN_PINTOOL_HH
#define SPLAB_PIN_PINTOOL_HH

#include "isa/events.hh"

namespace splab
{

class SyntheticWorkload;

/** Base class for analysis tools attached to the Engine. */
class PinTool
{
  public:
    virtual ~PinTool() = default;

    /** Short identifier, e.g. "ldstmix". */
    virtual const char *name() const = 0;

    /**
     * Whether this tool consumes memory addresses.  When no attached
     * tool does, the engine skips address generation entirely (a
     * substantial speedup for BBV-profiling passes).
     */
    virtual bool wantsMemory() const { return false; }

    /** Called once before the first block of a run window. */
    virtual void onRunStart(const SyntheticWorkload &workload)
    {
        (void)workload;
    }

    /**
     * One batch (one workload chunk) of dynamic blocks in SoA
     * layout: the tool's only event callback.  Block-granular tools
     * walk batch.block(i) / accs(i) / branch(i) in stream order
     * (accs(i) is null when address generation is off); counting
     * tools read the batch's precomputed per-chunk aggregates.
     *
     * Threading contract: the engine delivers every batch of a run
     * in chunk order on the thread that called Engine::run, with the
     * batch contents read-only for the duration of the call.  Tools
     * need no locking as long as each engine run owns its tools.
     */
    virtual void onBatch(const EventBatch &batch) = 0;

    /** Called once after the last block of a run window. */
    virtual void onRunEnd() {}
};

} // namespace splab

#endif // SPLAB_PIN_PINTOOL_HH
