/**
 * @file
 * Four-level cache hierarchy (L1I, L1D, unified L2, unified L3).
 */

#ifndef SPLAB_CACHE_HIERARCHY_HH
#define SPLAB_CACHE_HIERARCHY_HH

#include <array>
#include <string>
#include <vector>

#include "cache.hh"

namespace splab
{

class EventBatch;

/** Where in the hierarchy a request was satisfied. */
enum class HitLevel : u8
{
    L1 = 0,
    L2 = 1,
    L3 = 2,
    Memory = 3
};

/** Named index of a cache level within the hierarchy. */
enum class CacheLevel : u8
{
    L1I = 0,
    L1D = 1,
    L2 = 2,
    L3 = 3
};

constexpr std::size_t kNumCacheLevels = 4;

const std::string &cacheLevelName(CacheLevel l);

/** Geometry of the whole hierarchy. */
struct HierarchyConfig
{
    CacheParams l1i;
    CacheParams l1d;
    CacheParams l2;
    CacheParams l3;

    /** Combined CacheParams::contentHash() over all four levels. */
    u64 contentHash() const;
};

/**
 * The cache configuration of the paper's Table I, used by the
 * `allcache` pintool experiments (Figures 3 and 8).
 */
HierarchyConfig tableIConfig();

/**
 * The i7-3770 cache geometry from Table III, used by the Sniper
 * timing experiments (Figure 12).
 */
HierarchyConfig tableIIIConfig();

/**
 * Scale the far-cache (L2/L3) capacities down by @p divisor,
 * clamping at one line per set/way.
 *
 * Model-scale experiments replay regions 3000x shorter than the
 * paper's 30M-instruction slices, so full-size far caches could
 * never warm within a region and every sampled replay would be
 * 100% cold — unlike the paper's setup, where regions are large
 * relative to the caches.  Scaling L2/L3 with the region length
 * preserves the region-size : capacity ratio that governs the
 * cold-start effect.  L1 is left untouched: its working set (stack
 * and hot lines) does not shrink with run length.
 */
HierarchyConfig scaleFarCaches(HierarchyConfig cfg, u64 divisor);

/**
 * Inclusive-lookup hierarchy: a miss at level N looks up level N+1.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config);

    /**
     * Walk every access of @p batch in stream order: per block, its
     * instruction fetch (L1I -> L2 -> L3), then its data accesses
     * (L1D -> L2 -> L3).  fetch[b] receives the level that served
     * block b's fetch and data[i] the level that served access-pool
     * entry i.  One call of the active set kernel per batch.
     */
    void walk(const EventBatch &batch, HitLevel *fetch, HitLevel *data);

    /** One data reference (L1D -> L2 -> L3), outside a batch. */
    HitLevel accessData(Addr addr, bool isWrite);

    /** One instruction fetch (L1I -> L2 -> L3), outside a batch. */
    HitLevel accessInstr(Addr pc);

    /** Enable/disable warm-up (state updates, counters frozen). */
    void setWarmup(bool on);

    /** Drop all cached lines (cold start). */
    void flush();

    /** Zero all counters. */
    void resetStats();

    const CacheStats &levelStats(CacheLevel l) const;

  private:
    friend struct SetUpdate;

    /** Levels in CacheLevel order. */
    std::array<SetAssocCache, kNumCacheLevels> level;
};

/**
 * One build of the set update (see SetAssocCache).  Every build
 * updates a set as the scalar reference does: scan the ways for the
 * tag and move the ways in front of the match (all of them on a
 * miss) down by one.  The vector builds load the whole set, compare
 * every way at once, shift the loaded ways by one lane and store
 * only ways [0, pos] — nothing on a FIFO hit — with no branch on the
 * data.  Direct-mapped levels update inline in every build.
 *
 * access() is SetAssocCache::access on @p cache; walk() is
 * CacheHierarchy::walk on @p caches.
 */
struct SetKernel
{
    const char *name; ///< "scalar", "avx2" or "avx512"
    bool (*access)(SetAssocCache &cache, Addr addr, bool isWrite);
    void (*walk)(CacheHierarchy &caches, const EventBatch &batch,
                 HitLevel *fetch, HitLevel *data);
};

/** Every set-kernel build this host can run, the scalar reference
 *  first. */
std::vector<SetKernel> supportedSetKernels();

/** The widest supported build; picked once per process. */
const SetKernel &activeSetKernel();

} // namespace splab

#endif // SPLAB_CACHE_HIERARCHY_HH
