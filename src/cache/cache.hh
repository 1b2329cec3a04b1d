/**
 * @file
 * Functional set-associative cache model.
 *
 * This is the substrate behind the paper's `allcache` pintool
 * (functional I+D cache hierarchy simulator): it tracks hits and
 * misses, not timing.  The timing simulator reuses the same model
 * and adds latency on top.
 */

#ifndef SPLAB_CACHE_CACHE_HH
#define SPLAB_CACHE_CACHE_HH

#include <string>
#include <vector>

#include "support/types.hh"

namespace splab
{

/** Within-set victim selection policy. */
enum class ReplacementPolicy : u8
{
    LRU = 0,  ///< true LRU (move-to-front recency order)
    FIFO = 1, ///< insertion order; hits do not refresh
};

const char *replacementPolicyName(ReplacementPolicy p);

/** Geometry of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 32 * 1024;
    u32 ways = 8;        ///< 1 = direct-mapped
    u32 lineBytes = 64;
    ReplacementPolicy replacement = ReplacementPolicy::LRU;

    u64 numSets() const { return sizeBytes / (static_cast<u64>(ways) * lineBytes); }

    /**
     * Stable hash of *every* configuration field (geometry and
     * replacement policy alike).  Artifact-cache keys must use this
     * — never a hand-picked subset of fields — so that any config
     * change invalidates dependent cached artifacts.
     */
    u64 contentHash() const;
};

/** Hit/miss counters of one cache level. */
struct CacheStats
{
    u64 accesses = 0;
    u64 misses = 0;
    u64 readAccesses = 0;
    u64 readMisses = 0;
    u64 writeAccesses = 0;
    u64 writeMisses = 0;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/**
 * One cache level with configurable replacement (true LRU or FIFO
 * insertion order within each set).  Write misses allocate.
 *
 * Each set keeps its tags most recently used (LRU) or most recently
 * inserted (FIFO) first, so both policies are one update: find the
 * line's way pos (way ways-1 on a miss), shift ways [0, pos) down by
 * one and put the line in way 0.  A FIFO hit changes nothing.  The
 * set kernels (see SetKernel in hierarchy.hh) implement that update.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Look up (and on miss, allocate) the line containing @p addr
     * through the active set kernel.  @return true on hit.  The
     * hierarchy's batch walk is the hot path; this is the one-access
     * entry.
     */
    bool access(Addr addr, bool isWrite);

    /** Sentinel no real tag reaches (tags are addresses shifted
     *  right, so their top bits are always zero): an empty way. */
    static constexpr u64 kNoLine = ~u64{0};

    /** When warming, state updates but counters do not. */
    void setWarmup(bool on) { warming = on; }
    bool warmup() const { return warming; }

    /** Invalidate all lines (cold restart); stats are kept. */
    void flush();

    /** Zero the counters; contents are kept. */
    void
    resetStats()
    {
        for (u64 &c : cnt)
            c = 0;
    }

    /** Counters, materialized from the internal 2x2 (write, hit)
     *  matrix (one increment per access on the hot path). */
    const CacheStats &
    statsRef() const
    {
        statsCache.readMisses = cnt[0];
        statsCache.readAccesses = cnt[0] + cnt[1];
        statsCache.writeMisses = cnt[2];
        statsCache.writeAccesses = cnt[2] + cnt[3];
        statsCache.misses = cnt[0] + cnt[2];
        statsCache.accesses = statsCache.readAccesses +
                              statsCache.writeAccesses;
        return statsCache;
    }
    const CacheParams &params() const { return cacheParams; }

  private:
    friend struct SetUpdate;

    /** tags()[set * ways + i], way order as in the class comment;
     *  empty ways hold kNoLine, so the probe is one equality compare
     *  with no separate validity array.  Each set starts on a
     *  64-byte boundary when ways is a multiple of 8. */
    u64 *tags() { return tagBuf.data() + tagOffset; }

    CacheParams cacheParams;
    u64 setMask;
    u32 lineShift;
    /** Right-shift turning a line number into a tag: log2(numSets),
     *  precomputed once. */
    u32 tagShift;
    u32 ways;

    std::vector<u64> tagBuf;
    std::size_t tagOffset = 0; ///< first tag on a 64-byte boundary

    /** cnt[write*2 + hit]: read-miss, read-hit, write-miss,
     *  write-hit. */
    u64 cnt[4] = {0, 0, 0, 0};
    /** Scratch for statsRef()'s materialized view. */
    mutable CacheStats statsCache;
    bool warming = false;
};

} // namespace splab

#endif // SPLAB_CACHE_CACHE_HH
