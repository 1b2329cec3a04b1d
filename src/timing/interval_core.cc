#include "interval_core.hh"

namespace splab
{

IntervalCoreTool::IntervalCoreTool(const MachineConfig &config)
    : cfg(config),
      caches(std::make_unique<CacheHierarchy>(config.caches)),
      predictor(config.predictorHistoryBits),
      sinceMemMiss(config.robEntries)
{
}

IntervalCoreTool::~IntervalCoreTool() = default;

void
IntervalCoreTool::setWarmup(bool on)
{
    warming = on;
    caches->setWarmup(on);
    predictor.setWarmup(on);
}

void
IntervalCoreTool::coldRestart()
{
    caches->flush();
    predictor.reset();
    sinceMemMiss = cfg.robEntries;
}

void
IntervalCoreTool::resetStats()
{
    timing = TimingStats();
    caches->resetStats();
    predictor.resetStats();
}

double
IntervalCoreTool::exposedLatency(HitLevel level)
{
    switch (level) {
      case HitLevel::L1:
        // Pipelined L1 hits are hidden by out-of-order execution.
        return 0.0;
      case HitLevel::L2:
        if (!warming)
            ++timing.l2Hits;
        return (cfg.l2LatencyCycles - cfg.l1LatencyCycles) * 0.35;
      case HitLevel::L3:
        if (!warming)
            ++timing.l3Hits;
        return (cfg.l3LatencyCycles - cfg.l2LatencyCycles) * 0.55;
      case HitLevel::Memory: {
        if (!warming)
            ++timing.memAccesses;
        // MLP: a miss issued within a ROB window of the previous
        // memory miss largely overlaps with it.
        double exposed = static_cast<double>(cfg.memLatencyCycles);
        if (sinceMemMiss < cfg.robEntries)
            exposed *= 0.25;
        sinceMemMiss = 0;
        return exposed * 0.8;
      }
    }
    return 0.0;
}

void
IntervalCoreTool::step(const BlockRecord &rec, const MemAccess *accs,
                       std::size_t nAccs, const BranchRecord *br)
{
    double cycles = static_cast<double>(rec.instrs) /
                    static_cast<double>(cfg.dispatchWidth);

    // Instruction fetch: L1I misses stall the front end.
    HitLevel fetch = caches->accessInstr(rec.pc);
    if (fetch != HitLevel::L1)
        cycles += exposedLatency(fetch) * 0.5;

    sinceMemMiss += rec.instrs;
    for (std::size_t i = 0; i < nAccs; ++i) {
        HitLevel level = caches->accessData(accs[i].addr,
                                            accs[i].isWrite);
        // L1 hits expose zero latency and touch no timing state, so
        // skip the latency call entirely on the (dominant) hit path;
        // exposedLatency(L1) would return 0.0 with no side effects,
        // making this guard byte-neutral.
        if (level == HitLevel::L1)
            continue;
        // Store misses retire through the write buffer; only loads
        // expose their full latency to the critical path.
        double scale = accs[i].isWrite ? 0.3 : 1.0;
        cycles += exposedLatency(level) * scale;
    }

    if (br) {
        bool correct = predictor.update(br->pc, br->taken);
        if (!warming) {
            ++timing.branches;
            if (!correct) {
                ++timing.mispredicts;
                cycles += cfg.branchMispredictPenalty;
            }
        }
    }

    if (!warming) {
        timing.instrs += rec.instrs;
        timing.cycles += cycles;
    }
}

void
IntervalCoreTool::onBatch(const EventBatch &batch)
{
    // The interval model carries sequential state (MLP window,
    // predictor) across blocks, so it steps block by block.
    const std::size_t n = batch.numBlocks();
    for (std::size_t i = 0; i < n; ++i)
        step(batch.block(i), batch.accs(i), batch.accCount(i),
             batch.branch(i));
}

} // namespace splab
