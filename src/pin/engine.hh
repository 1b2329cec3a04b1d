/**
 * @file
 * The instrumentation engine: executes a workload window and fans
 * dynamic events out to attached tools (the Pin analogue).
 */

#ifndef SPLAB_PIN_ENGINE_HH
#define SPLAB_PIN_ENGINE_HH

#include <vector>

#include "pintool.hh"
#include "workload/synthetic.hh"

namespace splab
{

/**
 * Runs a SyntheticWorkload under a set of PinTools.
 *
 * Tools are attached non-owning; the caller keeps them alive for the
 * duration of run().  Multiple run() calls against different windows
 * of the same workload are allowed (tool state carries over, exactly
 * like a Pintool observing a resumed execution).
 *
 * Delivery is serial and in order: run() lets the workload generate
 * each chunk into its batch arena and fans the batch out to every
 * tool, in attachment order, on the calling thread.  Parallelism
 * lives one level up — ArtifactGraph::runSuite runs one whole-run
 * traversal per benchmark on the thread pool — so a single run needs
 * no cross-thread handoff.  Callers outside runSuite (a bench's
 * whole-run baseline, profileBbvs over a hand-built spec, a test
 * harness thread) get the same serial traversal on their own thread.
 */
class Engine : public EventSink
{
  public:
    /** Attach a tool; order of attachment is dispatch order. */
    void attach(PinTool *tool);

    /** Detach all tools. */
    void clearTools();

    /**
     * Execute chunks [firstChunk, firstChunk + numChunks) of
     * @p workload, delivering events to every attached tool.
     * @return instructions executed in this window.
     */
    ICount run(SyntheticWorkload &workload, u64 firstChunk,
               u64 numChunks);

    /** Execute the whole workload. */
    ICount
    runWhole(SyntheticWorkload &workload)
    {
        return run(workload, 0, workload.totalChunks());
    }

    /** Instructions executed across all run() calls so far. */
    ICount instructionsExecuted() const { return icount; }

    /** EventSink: fans each batch out to every tool, one virtual
     *  call per (chunk, tool). */
    void onBatch(const EventBatch &batch) override;

  private:
    std::vector<PinTool *> tools;
    ICount icount = 0;
};

} // namespace splab

#endif // SPLAB_PIN_ENGINE_HH
