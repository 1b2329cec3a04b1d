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
    // load-bearing here.
    if (fetchLevels.size() < batch.numBlocks())
        fetchLevels.resize(batch.numBlocks());
    if (dataLevels.size() < batch.accessPool().size())
        dataLevels.resize(batch.accessPool().size());
    caches->walk(batch, fetchLevels.data(), dataLevels.data());
}

} // namespace splab
