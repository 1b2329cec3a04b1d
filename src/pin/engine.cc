#include "engine.hh"

#include <chrono>
#include <string>

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace splab
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

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
    toolSeconds.assign(tools.size(), 0.0);
    const Clock::time_point start = Clock::now();
    workload.run(firstChunk, numChunks, *this, needAddresses);
    double generate = secondsSince(start, Clock::now());
    for (std::size_t i = 0; i < tools.size(); ++i) {
        generate -= toolSeconds[i];
        obs::gauge(std::string("engine.tool.") + tools[i]->name() +
                   ".seconds")
            .add(toolSeconds[i]);
    }
    obs::gauge("engine.generate.seconds").add(generate);

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
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < tools.size(); ++i) {
        tools[i]->onBatch(batch);
        const Clock::time_point t1 = Clock::now();
        toolSeconds[i] += secondsSince(t0, t1);
        t0 = t1;
    }
}

} // namespace splab
