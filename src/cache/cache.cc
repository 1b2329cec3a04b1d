#include "cache.hh"

#include <cstdint>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"

namespace splab
{

const char *
replacementPolicyName(ReplacementPolicy p)
{
    switch (p) {
      case ReplacementPolicy::LRU:
        return "lru";
      case ReplacementPolicy::FIFO:
        return "fifo";
    }
    return "unknown";
}

u64
CacheParams::contentHash() const
{
    ByteWriter w;
    w.putString(name);
    w.put<u64>(sizeBytes);
    w.put<u32>(ways);
    w.put<u32>(lineBytes);
    w.put<u8>(static_cast<u8>(replacement));
    return hashBytes(w.bytes().data(), w.bytes().size());
}

namespace
{

bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

u32
log2u(u64 v)
{
    u32 n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheParams &params)
    : cacheParams(params), ways(params.ways)
{
    SPLAB_ASSERT(params.ways >= 1, params.name, ": ways must be >= 1");
    SPLAB_ASSERT(isPow2(params.lineBytes),
                 params.name, ": line size must be a power of two");
    u64 sets = params.numSets();
    SPLAB_ASSERT(sets >= 1 && isPow2(sets),
                 params.name, ": set count ", sets,
                 " must be a nonzero power of two");
    setMask = sets - 1;
    lineShift = log2u(params.lineBytes);
    tagShift = log2u(sets);
    // Seven spare tags let the first one start on a 64-byte boundary.
    tagBuf.assign(sets * ways + 7, kNoLine);
    auto addr = reinterpret_cast<std::uintptr_t>(tagBuf.data());
    tagOffset = (64 - addr % 64) % 64 / sizeof(u64);
}

void
SetAssocCache::flush()
{
    tagBuf.assign(tagBuf.size(), kNoLine);
}

} // namespace splab
