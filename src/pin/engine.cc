#include "engine.hh"

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace splab
{

void
Engine::attach(PinTool *tool)
{
    SPLAB_ASSERT(tool != nullptr, "cannot attach null tool");
    tools.push_back(tool);
}

void
Engine::clearTools()
{
    tools.clear();
}

ICount
Engine::run(SyntheticWorkload &workload, u64 firstChunk, u64 numChunks)
{
    obs::TraceSpan span("engine.window");
    static obs::Counter &windows =
        obs::counter("pin.windows", "instrumented run windows");
    static obs::Counter &chunks =
        obs::counter("pin.chunks_replayed",
                     "workload chunks run under instrumentation");
    static obs::Counter &instrs =
        obs::counter("pin.instrs", "instructions instrumented");

    bool needAddresses = false;
    for (PinTool *t : tools)
        needAddresses = needAddresses || t->wantsMemory();

    for (PinTool *t : tools)
        t->onRunStart(workload);

    ICount before = icount;
    workload.run(firstChunk, numChunks, *this, needAddresses);

    for (PinTool *t : tools)
        t->onRunEnd();

    windows.add();
    chunks.add(numChunks);
    instrs.add(icount - before);
    return icount - before;
}

void
Engine::onBatch(const EventBatch &batch)
{
    static obs::Counter &batches =
        obs::counter("pin.batches", "event batches dispatched");
    static obs::Counter &batchBlocks =
        obs::counter("pin.batch_blocks",
                     "dynamic blocks delivered via batches");
    batches.add();
    batchBlocks.add(batch.numBlocks());
    icount += batch.instrs();
    for (PinTool *t : tools)
        t->onBatch(batch);
}

} // namespace splab
