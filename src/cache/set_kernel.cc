/**
 * @file
 * The set-kernel builds (see SetKernel in hierarchy.hh): the scalar
 * reference, AVX2 and AVX-512, each with its own copy of the batch
 * hierarchy walk.
 *
 * Every build is written once as a template over an ISA policy and
 * compiled into one entry function per build; the x86 entries carry
 * a target attribute and are flattened, so the walk, the set update
 * and the intrinsics inline into code built for that ISA only.
 */

#include <cstring>

#include "hierarchy.hh"
#include "isa/events.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace splab
{

/** The set update and the batch walk, over the private state of
 *  SetAssocCache and CacheHierarchy. */
struct SetUpdate
{
    /** How a level updates a set in one build: inline
     *  (direct-mapped), by the scalar reference, or by the build's
     *  vector update over 1, 2, 4 or 8 registers.  A vector build
     *  takes only the geometries where it measured faster than the
     *  scalar reference, and only whole registers. */
    enum Shape : u8
    {
        Direct,
        Scan,
        Vec1,
        Vec2,
        Vec4,
        Vec8
    };

    /** One level's state, held in locals for the length of a call. */
    struct Level
    {
        u64 *tags;
        u64 setMask;
        u32 lineShift;
        u32 tagShift;
        u32 ways;
        Shape shape;
        bool lru;
    };

    template <class Isa>
    static Level
    view(SetAssocCache &c)
    {
        return {c.tags(),
                c.setMask,
                c.lineShift,
                c.tagShift,
                c.ways,
                Isa::shape(c.ways),
                c.cacheParams.replacement == ReplacementPolicy::LRU};
    }

    /** The scalar reference: scan for the first match, then move
     *  ways [0, pos) down one (pos = ways - 1 on a miss). */
    static bool
    scan(u64 *t, u32 ways, u64 tag, bool lru)
    {
        // A hit in way 0 changes nothing under either policy.
        if (t[0] == tag)
            return true;
        u32 pos = ways - 1;
        bool hit = false;
        for (u32 i = 1; i < ways; ++i) {
            if (t[i] == tag) {
                hit = true;
                pos = i;
                break;
            }
        }
        if (hit && !lru)
            return true;
        std::memmove(t + 1, t, pos * sizeof(u64));
        t[0] = tag;
        return hit;
    }

    /** Update the set holding @p addr's line; @return true on hit. */
    template <class Isa>
    static bool
    probe(const Level &l, Addr addr)
    {
        u64 line = addr >> l.lineShift;
        u64 tag = line >> l.tagShift;
        u64 *t = l.tags + (line & l.setMask) * l.ways;
        switch (l.shape) {
          case Direct: {
            bool hit = *t == tag;
            *t = tag;
            return hit;
          }
          case Vec1:
            return Isa::template update<1>(t, l, tag);
          case Vec2:
            return Isa::template update<2>(t, l, tag);
          case Vec4:
            return Isa::template update<4>(t, l, tag);
          case Vec8:
            return Isa::template update<8>(t, l, tag);
          case Scan:
            break;
        }
        return scan(t, l.ways, tag, l.lru);
    }

    template <class Isa>
    static bool
    access(SetAssocCache &c, Addr addr, bool isWrite)
    {
        bool hit = probe<Isa>(view<Isa>(c), addr);
        if (!c.warming)
            ++c.cnt[(static_cast<u32>(isWrite) << 1) |
                    static_cast<u32>(hit)];
        return hit;
    }

    template <class Isa>
    static void
    walk(CacheHierarchy &h, const EventBatch &batch, HitLevel *fetch,
         HitLevel *data)
    {
        Level lv[kNumCacheLevels];
        for (std::size_t i = 0; i < kNumCacheLevels; ++i)
            lv[i] = view<Isa>(h.level[i]);
        // cnt[level][write * 2 + hit], folded into the levels at the
        // end of the batch.
        u64 cnt[kNumCacheLevels][4] = {};
        auto reach = [&](std::size_t first, Addr addr, u32 isWrite) {
            bool hit = probe<Isa>(lv[first], addr);
            ++cnt[first][isWrite * 2 + hit];
            if (hit)
                return HitLevel::L1;
            hit = probe<Isa>(lv[2], addr);
            ++cnt[2][isWrite * 2 + hit];
            if (hit)
                return HitLevel::L2;
            hit = probe<Isa>(lv[3], addr);
            ++cnt[3][isWrite * 2 + hit];
            return hit ? HitLevel::L3 : HitLevel::Memory;
        };

        const BlockRecord *blocks = batch.blocks().data();
        const MemAccess *pool = batch.accessPool().data();
        const u32 *off = batch.offsets().data();
        const std::size_t n = batch.numBlocks();
        for (std::size_t b = 0; b < n; ++b) {
            fetch[b] = reach(0, blocks[b].pc, 0);
            for (u32 i = off[b]; i < off[b + 1]; ++i)
                data[i] = reach(1, pool[i].addr, pool[i].isWrite);
        }

        for (std::size_t i = 0; i < kNumCacheLevels; ++i)
            if (!h.level[i].warming)
                for (std::size_t k = 0; k < 4; ++k)
                    h.level[i].cnt[k] += cnt[i][k];
    }
};

namespace
{

/** The reference build: every associative level scans. */
struct ScalarIsa
{
    static SetUpdate::Shape
    shape(u32 ways)
    {
        return ways == 1 ? SetUpdate::Direct : SetUpdate::Scan;
    }

    /** Never reached: shape() names no vector update. */
    template <int NV>
    static bool
    update(u64 *t, const SetUpdate::Level &l, u64 tag)
    {
        return SetUpdate::scan(t, l.ways, tag, l.lru);
    }
};

[[gnu::flatten]] bool
accessScalar(SetAssocCache &c, Addr addr, bool isWrite)
{
    return SetUpdate::access<ScalarIsa>(c, addr, isWrite);
}

[[gnu::flatten]] void
walkScalar(CacheHierarchy &h, const EventBatch &batch, HitLevel *fetch,
           HitLevel *data)
{
    SetUpdate::walk<ScalarIsa>(h, batch, fetch, data);
}

#if defined(__x86_64__) || defined(__i386__)

/**
 * Eight ways per register, for 8, 16, 32 and 64 ways.  Register j
 * holds ways [8j, 8j + 8); the shifted set is valignq of register j
 * over register j - 1 (over the broadcast tag for j = 0), and a
 * masked store writes ways [0, pos].
 */
struct Avx512Isa
{
    static SetUpdate::Shape
    shape(u32 ways)
    {
        switch (ways) {
          case 1:
            return SetUpdate::Direct;
          case 8:
            return SetUpdate::Vec1;
          case 16:
            return SetUpdate::Vec2;
          case 32:
            return SetUpdate::Vec4;
          case 64:
            return SetUpdate::Vec8;
        }
        return SetUpdate::Scan;
    }

    template <int NV>
    [[gnu::target("avx512f")]] static bool
    update(u64 *t, const SetUpdate::Level &l, u64 tag)
    {
        const __m512i key = _mm512_set1_epi64(static_cast<i64>(tag));
        __m512i v[NV];
        u64 match = 0;
#pragma GCC unroll 8
        for (int j = 0; j < NV; ++j) {
            v[j] = _mm512_loadu_si512(t + 8 * j);
            match |= static_cast<u64>(_mm512_cmpeq_epi64_mask(v[j], key))
                     << (8 * j);
        }
        // The first match, or the last way on a miss.
        const u32 pos = static_cast<u32>(
            __builtin_ctzll(match | u64{1} << (8 * NV - 1)));
        const bool hit = match != 0;
        // Ways [0, pos]; none on a FIFO hit.
        const u64 store = ((u64{2} << pos) - 1) &
                          -static_cast<u64>(l.lru | !hit);
        __m512i below = key;
#pragma GCC unroll 8
        for (int j = 0; j < NV; ++j) {
            _mm512_mask_storeu_epi64(
                t + 8 * j, static_cast<__mmask8>(store >> (8 * j)),
                _mm512_maskz_alignr_epi64(0xff, v[j], below, 7));
            below = v[j];
        }
        return hit;
    }
};

/**
 * Four ways per register, for 8, 16 and 32 ways.  The shifted set is
 * each register rotated up one lane with the top lane of the
 * register below (the broadcast tag for the first) blended into
 * lane 0; vpmaskmovq writes ways [0, pos].
 */
struct Avx2Isa
{
    static SetUpdate::Shape
    shape(u32 ways)
    {
        switch (ways) {
          case 1:
            return SetUpdate::Direct;
          case 8:
            return SetUpdate::Vec2;
          case 16:
            return SetUpdate::Vec4;
          case 32:
            return SetUpdate::Vec8;
        }
        return SetUpdate::Scan;
    }

    template <int NV>
    [[gnu::target("avx2")]] static bool
    update(u64 *t, const SetUpdate::Level &l, u64 tag)
    {
        const __m256i key = _mm256_set1_epi64x(static_cast<i64>(tag));
        __m256i v[NV];
        u64 match = 0;
#pragma GCC unroll 8
        for (int j = 0; j < NV; ++j) {
            v[j] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(t + 4 * j));
            const __m256i eq = _mm256_cmpeq_epi64(v[j], key);
            match |= static_cast<u64>(_mm256_movemask_pd(
                         _mm256_castsi256_pd(eq)))
                     << (4 * j);
        }
        const u32 pos = static_cast<u32>(
            __builtin_ctzll(match | u64{1} << (4 * NV - 1)));
        const bool hit = match != 0;
        // Ways below `end` are stored: [0, pos], none on a FIFO hit.
        const __m256i end = _mm256_set1_epi64x(static_cast<i64>(
            (pos + 1) & -static_cast<u64>(l.lru | !hit)));
        __m256i below = key;
#pragma GCC unroll 8
        for (int j = 0; j < NV; ++j) {
            const __m256i way =
                _mm256_setr_epi64x(4 * j, 4 * j + 1, 4 * j + 2,
                                   4 * j + 3);
            const __m256i shifted = _mm256_blend_epi32(
                _mm256_permute4x64_epi64(v[j], 0x93),
                _mm256_permute4x64_epi64(below, 0x93), 0x03);
            _mm256_maskstore_epi64(
                reinterpret_cast<long long *>(t + 4 * j),
                _mm256_cmpgt_epi64(end, way), shifted);
            below = v[j];
        }
        return hit;
    }
};

__attribute__((target("avx2"), flatten)) bool
accessAvx2(SetAssocCache &c, Addr addr, bool isWrite)
{
    return SetUpdate::access<Avx2Isa>(c, addr, isWrite);
}

__attribute__((target("avx2"), flatten)) void
walkAvx2(CacheHierarchy &h, const EventBatch &batch, HitLevel *fetch,
         HitLevel *data)
{
    SetUpdate::walk<Avx2Isa>(h, batch, fetch, data);
}

__attribute__((target("avx512f"), flatten)) bool
accessAvx512(SetAssocCache &c, Addr addr, bool isWrite)
{
    return SetUpdate::access<Avx512Isa>(c, addr, isWrite);
}

__attribute__((target("avx512f"), flatten)) void
walkAvx512(CacheHierarchy &h, const EventBatch &batch,
           HitLevel *fetch, HitLevel *data)
{
    SetUpdate::walk<Avx512Isa>(h, batch, fetch, data);
}

#endif

} // namespace

std::vector<SetKernel>
supportedSetKernels()
{
    std::vector<SetKernel> builds = {
        {"scalar", accessScalar, walkScalar}};
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2"))
        builds.push_back({"avx2", accessAvx2, walkAvx2});
    if (__builtin_cpu_supports("avx512f"))
        builds.push_back({"avx512", accessAvx512, walkAvx512});
#endif
    return builds;
}

const SetKernel &
activeSetKernel()
{
    static const SetKernel picked = supportedSetKernels().back();
    return picked;
}

bool
SetAssocCache::access(Addr addr, bool isWrite)
{
    return activeSetKernel().access(*this, addr, isWrite);
}

} // namespace splab
