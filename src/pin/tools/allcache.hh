/**
 * @file
 * The `allcache` pintool: functional simulation of the I+D cache
 * hierarchy (Table I by default).
 */

#ifndef SPLAB_PIN_TOOLS_ALLCACHE_HH
#define SPLAB_PIN_TOOLS_ALLCACHE_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "pin/pintool.hh"

namespace splab
{

/** Drives a CacheHierarchy from the dynamic event stream. */
class AllCacheTool : public PinTool
{
  public:
    explicit AllCacheTool(const HierarchyConfig &config);

    const char *name() const override { return "allcache"; }
    bool wantsMemory() const override { return true; }

    /** Per block: one instruction fetch, then the block's data
     *  accesses, over the batch's flattened access pool. */
    void onBatch(const EventBatch &batch) override;

    CacheHierarchy &hierarchy() { return *caches; }
    const CacheHierarchy &hierarchy() const { return *caches; }

    /** Enter/leave cache-warming mode (state updates, stats frozen). */
    void setWarmup(bool on) { caches->setWarmup(on); }

  private:
    std::unique_ptr<CacheHierarchy> caches;
    /** The walk's per-access levels (unused here), kept across
     *  batches so steady state does not allocate. */
    std::vector<HitLevel> fetchLevels, dataLevels;
};

} // namespace splab

#endif // SPLAB_PIN_TOOLS_ALLCACHE_HH
