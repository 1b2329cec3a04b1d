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

void
IntervalCoreTool::onBatch(const EventBatch &batch)
{
    const std::size_t n = batch.numBlocks();
    if (fetchLevels.size() < n)
        fetchLevels.resize(n);
    if (dataLevels.size() < batch.accessPool().size())
        dataLevels.resize(batch.accessPool().size());
    caches->walk(batch, fetchLevels.data(), dataLevels.data());

    // Exposed latency of an access served at @p level (L1 hits are
    // hidden by out-of-order execution and never get here).
    auto exposed = [&](HitLevel level) {
        switch (level) {
          case HitLevel::L1:
            break;
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
            double lat = static_cast<double>(cfg.memLatencyCycles);
            if (sinceMemMiss < cfg.robEntries)
                lat *= 0.25;
            sinceMemMiss = 0;
            return lat * 0.8;
          }
        }
        return 0.0;
    };

    // The interval model carries sequential state (MLP window,
    // predictor) across blocks, so it steps block by block over the
    // levels the walk found.
    const BlockRecord *blocks = batch.blocks().data();
    const MemAccess *pool = batch.accessPool().data();
    const u32 *off = batch.offsets().data();
    const HitLevel *data = dataLevels.data();
    for (std::size_t b = 0; b < n; ++b) {
        const BlockRecord &rec = blocks[b];
        double cycles = static_cast<double>(rec.instrs) /
                        static_cast<double>(cfg.dispatchWidth);

        // Instruction fetch: L1I misses stall the front end.
        if (fetchLevels[b] != HitLevel::L1)
            cycles += exposed(fetchLevels[b]) * 0.5;

        sinceMemMiss += rec.instrs;
        for (u32 i = off[b]; i < off[b + 1]; ++i) {
            if (data[i] == HitLevel::L1)
                continue;
            // Store misses retire through the write buffer; only
            // loads expose their full latency to the critical path.
            double scale = pool[i].isWrite ? 0.3 : 1.0;
            cycles += exposed(data[i]) * scale;
        }

        if (const BranchRecord *br = batch.branch(b)) {
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
}

} // namespace splab
