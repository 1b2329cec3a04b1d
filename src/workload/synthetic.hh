/**
 * @file
 * Executable synthetic workload: turns a BenchmarkSpec into a dynamic
 * event stream, addressable at chunk granularity.
 */

#ifndef SPLAB_WORKLOAD_SYNTHETIC_HH
#define SPLAB_WORKLOAD_SYNTHETIC_HH

#include <memory>
#include <vector>

#include "benchmark_spec.hh"

namespace splab
{

/**
 * Receiver of dynamic execution events: the workload delivers one
 * EventBatch per chunk (structure-of-arrays, see isa/events.hh), in
 * chunk order.  Sinks that need the per-block sequence walk
 * batch.block(i) / accs(i) / branch(i).
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /** One chunk's worth of events. */
    virtual void onBatch(const EventBatch &batch) = 0;
};

/**
 * Deterministic synthetic program.
 *
 * Replay contract: run(first, n, ...) produces a byte-identical event
 * stream regardless of what was or was not executed before — chunk
 * state is derived from (seed, chunk index) alone.  Microarchitectural
 * state (caches, predictors) is *not* part of this contract; starting
 * cold at a region boundary is exactly the cold-start artefact the
 * paper studies.
 */
class SyntheticWorkload
{
  public:
    explicit SyntheticWorkload(BenchmarkSpec spec);

    const BenchmarkSpec &spec() const { return benchSpec; }

    u64 totalChunks() const { return benchSpec.totalChunks; }
    ICount chunkLen() const { return benchSpec.chunkLen; }
    ICount totalInstrs() const { return benchSpec.totalInstrs(); }

    /** All static blocks across phases, in BlockId order. */
    const std::vector<StaticBlock> &staticBlocks() const
    {
        return allBlocks;
    }

    /** Number of distinct static blocks (the BBV dimensionality). */
    std::size_t numStaticBlocks() const { return allBlocks.size(); }

    const PhaseSchedule &schedule() const { return *phaseSchedule; }

    /** Phase index executing at @p chunk. */
    u32 phaseAt(u64 chunk) const
    {
        return phaseSchedule->phaseOf(chunk);
    }

    /**
     * Execute chunks [firstChunk, firstChunk + numChunks), delivering
     * events to @p sink.
     *
     * @param genAddresses when false, memory addresses are not
     *        generated (2-4x faster); accs is null in callbacks.
     */
    void run(u64 firstChunk, u64 numChunks, EventSink &sink,
             bool genAddresses = true);

  private:
    BenchmarkSpec benchSpec;
    std::vector<std::unique_ptr<PhaseModel>> phaseModels;
    std::unique_ptr<PhaseSchedule> phaseSchedule;
    std::vector<StaticBlock> allBlocks;
    /** Reusable batch arena: one chunk is built here, delivered,
     *  cleared.  Lives on the workload so per-region replays reuse
     *  the high-water capacity across run() calls. */
    EventBatch batchArena;
};

} // namespace splab

#endif // SPLAB_WORKLOAD_SYNTHETIC_HH
