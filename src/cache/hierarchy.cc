#include "hierarchy.hh"

#include "support/logging.hh"
#include "support/rng.hh"

namespace splab
{

u64
HierarchyConfig::contentHash() const
{
    u64 k = l1i.contentHash();
    k = hashCombine(k, l1d.contentHash());
    k = hashCombine(k, l2.contentHash());
    k = hashCombine(k, l3.contentHash());
    return k;
}

const std::string &
cacheLevelName(CacheLevel l)
{
    static const std::array<std::string, kNumCacheLevels> names = {
        "L1I", "L1D", "L2", "L3"};
    return names[static_cast<u8>(l)];
}

HierarchyConfig
tableIConfig()
{
    // Table I: ALLCACHE SIMULATOR CONFIGURATION.
    HierarchyConfig c;
    c.l1i = {"L1I", 32 * 1024, 32, 32};
    c.l1d = {"L1D", 32 * 1024, 32, 32};
    c.l2 = {"L2", 2 * 1024 * 1024, 1, 32};   // direct-mapped
    c.l3 = {"L3", 16 * 1024 * 1024, 1, 32};  // direct-mapped
    return c;
}

HierarchyConfig
tableIIIConfig()
{
    // Table III: cache geometry of the modelled i7-3770.
    HierarchyConfig c;
    c.l1i = {"L1I", 32 * 1024, 8, 64};
    c.l1d = {"L1D", 32 * 1024, 8, 64};
    c.l2 = {"L2", 256 * 1024, 8, 64};
    c.l3 = {"L3", 8 * 1024 * 1024, 16, 64};
    return c;
}

HierarchyConfig
scaleFarCaches(HierarchyConfig cfg, u64 divisor)
{
    SPLAB_ASSERT(divisor >= 1, "cache scale divisor must be >= 1");
    for (CacheParams *p : {&cfg.l2, &cfg.l3}) {
        u64 minSize = static_cast<u64>(p->ways) * p->lineBytes;
        u64 scaled = p->sizeBytes / divisor;
        // Keep the set count a power of two.
        u64 size = minSize;
        while (size * 2 <= scaled)
            size *= 2;
        p->sizeBytes = size;
    }
    return cfg;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : level{SetAssocCache(config.l1i), SetAssocCache(config.l1d),
            SetAssocCache(config.l2), SetAssocCache(config.l3)}
{
}

HitLevel
CacheHierarchy::accessData(Addr addr, bool isWrite)
{
    if (level[1].access(addr, isWrite))
        return HitLevel::L1;
    if (level[2].access(addr, isWrite))
        return HitLevel::L2;
    if (level[3].access(addr, isWrite))
        return HitLevel::L3;
    return HitLevel::Memory;
}

HitLevel
CacheHierarchy::accessInstr(Addr pc)
{
    if (level[0].access(pc, false))
        return HitLevel::L1;
    if (level[2].access(pc, false))
        return HitLevel::L2;
    if (level[3].access(pc, false))
        return HitLevel::L3;
    return HitLevel::Memory;
}

void
CacheHierarchy::walk(const EventBatch &batch, HitLevel *fetch,
                     HitLevel *data)
{
    activeSetKernel().walk(*this, batch, fetch, data);
}

void
CacheHierarchy::setWarmup(bool on)
{
    for (SetAssocCache &c : level)
        c.setWarmup(on);
}

void
CacheHierarchy::flush()
{
    for (SetAssocCache &c : level)
        c.flush();
}

void
CacheHierarchy::resetStats()
{
    for (SetAssocCache &c : level)
        c.resetStats();
}

const CacheStats &
CacheHierarchy::levelStats(CacheLevel l) const
{
    return level[static_cast<u8>(l)].statsRef();
}

} // namespace splab
