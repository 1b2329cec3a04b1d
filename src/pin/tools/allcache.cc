#include "allcache.hh"

namespace splab
{

AllCacheTool::AllCacheTool(const HierarchyConfig &config)
    : caches(std::make_unique<CacheHierarchy>(config))
{
}

void
AllCacheTool::onBatch(const EventBatch &batch)
{
    // One instruction-fetch lookup per dynamic block.  Blocks are
    // small relative to I-cache lines and the paper reports L1I miss
    // rates as negligible, so per-line fetch modelling is not
    // load-bearing here.  Data references must go through
    // accessData(): the hierarchy keeps an absent-from-L1D memo
    // there that a direct levelRef() probe would silently
    // invalidate.
    const BlockRecord *blocks = batch.blocks().data();
    const MemAccess *pool = batch.accessPool().data();
    const u32 *off = batch.offsets().data();
    const std::size_t n = batch.numBlocks();
    for (std::size_t b = 0; b < n; ++b) {
        caches->accessInstr(blocks[b].pc);
        for (u32 i = off[b]; i < off[b + 1]; ++i)
            caches->accessData(pool[i].addr, pool[i].isWrite);
    }
}

} // namespace splab
