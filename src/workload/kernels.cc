#include "kernels.hh"

#include <array>

#include "support/logging.hh"

namespace splab
{

const std::string &
kernelKindName(KernelKind k)
{
    static const std::array<std::string, kNumKernelKinds> names = {
        "stream",       "strided",  "pointer-chase", "zipf-hot-cold",
        "stencil",      "blocked",  "random-uniform"};
    return names[static_cast<u8>(k)];
}

u64
AddressKernel::floorPow2(u64 v)
{
    u64 p = 1;
    while ((p << 1) && (p << 1) <= v)
        p <<= 1;
    return p;
}

AddressKernel::AddressKernel(const KernelConfig &config, u64 seed)
    : cfg(config), seed(seed)
{
    SPLAB_ASSERT(cfg.workingSet >= 4096,
                 "working set too small: ", cfg.workingSet);
    mask = floorPow2(cfg.workingSet) - 1;
}

namespace
{

/**
 * Pass 1 of fillBlock: the kind of every access, its locality flag
 * (one draw of loc.rng each, in stream order) and, for the local
 * ones, its stack slot.  Every access gets the slot the cursor points
 * at and the cursor advances past it only when the access is local,
 * so the loop has no data-dependent branch; pass 2 overwrites the
 * non-local accesses.
 *
 * @return the number of non-local accesses, whose indices are
 *         written to @p remote in stream order.
 */
std::size_t
drawLocality(u32 reads, u32 writes, LocalityStream &loc,
             MemAccess *out, u16 *remote)
{
    constexpr u64 kSlotMask = LocalityStream::kStackBytes - 1;
    const std::size_t n = std::size_t{reads} + writes;
    const u64 threshold = loc.threshold;
    u64 cursor = loc.stackCursor;
    std::size_t m = 0;
    u32 r = 0, w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Deterministic round-robin proportional to the two counts.
        bool doRead = (w >= writes) |
                      ((r < reads) & (static_cast<u64>(r) * writes <=
                                      static_cast<u64>(w) * reads));
        bool local = loc.rng.chanceBelow(threshold);
        MemAccess &a = out[i];
        a.addr = loc.stackBase + (cursor & kSlotMask);
        a.size = 8;
        a.isWrite = !doRead;
        cursor += static_cast<u64>(local) << 3;
        remote[m] = static_cast<u16>(i);
        m += !local;
        r += doRead;
        w += !doRead;
    }
    loc.stackCursor = cursor;
    return m;
}

/**
 * fillBlock for kernel class @p Kernel, which derives from this
 * template and is final: pass 2's nextRead()/nextWrite() calls bind
 * statically and inline, one virtual call per block instead of one
 * per access.
 */
template <class Kernel>
class FillKernel : public AddressKernel
{
  public:
    FillKernel(const KernelConfig &c, u64 s) : AddressKernel(c, s) {}

    void
    fillBlock(u32 reads, u32 writes, LocalityStream &loc,
              MemAccess *out) final
    {
        SPLAB_ASSERT(std::size_t{reads} + writes <= remote.size(),
                     "block emits too many accesses");
        std::size_t m = drawLocality(reads, writes, loc, out,
                                     remote.data());
        Kernel &k = static_cast<Kernel &>(*this);
        for (std::size_t j = 0; j < m; ++j) {
            MemAccess &a = out[remote[j]];
            a.addr = a.isWrite ? k.nextWrite() : k.nextRead();
        }
    }

  private:
    /** Pass 1's non-local indices, rewritten for every block. */
    std::array<u16, kMaxBlockAccesses> remote{};
};

/**
 * Unit-stride streaming.  Reads and writes advance separate cursors;
 * consecutive chunks of the same phase continue through the working
 * set so data is re-touched once per sweep.
 */
class StreamKernel final : public FillKernel<StreamKernel>
{
  public:
    using FillKernel::FillKernel;

    void
    beginChunk(u64 chunk) override
    {
        // ~400 accesses per 1000-instruction chunk at a typical mix;
        // advance the sweep position proportionally so the stream is
        // contiguous across consecutive chunks.
        u64 origin = (chunk * 512 * 8) & mask;
        readCursor = origin;
        writeCursor = (origin + ((mask + 1) >> 1)) & mask;
    }

    Addr
    nextRead() override
    {
        Addr a = cfg.base + readCursor;
        readCursor = (readCursor + 8) & mask;
        return a;
    }

    Addr
    nextWrite() override
    {
        Addr a = cfg.base + writeCursor;
        writeCursor = (writeCursor + 8) & mask;
        return a;
    }

  private:
    u64 readCursor = 0;
    u64 writeCursor = 0;
};

/** Fixed-stride walk: one access per line/column step. */
class StridedKernel final : public FillKernel<StridedKernel>
{
  public:
    using FillKernel::FillKernel;

    void
    beginChunk(u64 chunk) override
    {
        u64 origin = (chunk * 512 * cfg.stride) & mask;
        readCursor = origin;
        writeCursor = (origin + ((mask + 1) >> 1)) & mask;
    }

    Addr
    nextRead() override
    {
        Addr a = cfg.base + readCursor;
        readCursor = (readCursor + cfg.stride) & mask;
        return a;
    }

    Addr
    nextWrite() override
    {
        Addr a = cfg.base + writeCursor;
        writeCursor = (writeCursor + cfg.stride) & mask;
        return a;
    }

  private:
    u64 readCursor = 0;
    u64 writeCursor = 0;
};

/**
 * Dependent pointer chase.  A full-period LCG over line-granular
 * slots emulates walking a pseudo-random permutation (linked list /
 * tree traversal): every access depends on the previous one and the
 * whole working set is eventually visited.
 */
class PointerChaseKernel final : public FillKernel<PointerChaseKernel>
{
  public:
    PointerChaseKernel(const KernelConfig &c, u64 s)
        : FillKernel(c, s)
    {
        // A power of two (mask + 1 is one and at least 4096), so
        // the walk wraps with a mask.
        slotMask = (mask + 1) / kLine - 1;
    }

    void
    beginChunk(u64 chunk) override
    {
        // Continue the global walk: the chain position is a pure
        // function of the chunk index, as if the traversal had been
        // running since the phase began.
        pos = mix64(hashCombine(seed, chunk)) & slotMask;
    }

    Addr
    nextRead() override
    {
        // Full-period LCG (m power of two: c odd, a % 4 == 1).
        pos = (pos * 5 + 12345) & slotMask;
        return cfg.base + pos * kLine;
    }

    Addr
    nextWrite() override
    {
        // Writes update the node just visited.
        return cfg.base + pos * kLine + 8;
    }

  private:
    static constexpr u64 kLine = 64;
    u64 slotMask = 1;
    u64 pos = 0;
};

/**
 * Hot/cold access: with probability hotProbability the access falls
 * uniformly in a small hot subset (re-used across the whole phase,
 * so it is resident in a warm cache and cold after a checkpoint);
 * the rest streams through the cold region.
 */
class ZipfHotColdKernel final : public FillKernel<ZipfHotColdKernel>
{
  public:
    ZipfHotColdKernel(const KernelConfig &c, u64 s)
        : FillKernel(c, s), rng(s)
    {
        hotMask = 4096 - 1;
        u64 hotBytes = static_cast<u64>(
            static_cast<double>(mask + 1) * cfg.hotFraction);
        while ((hotMask + 1) * 2 <= hotBytes)
            hotMask = (hotMask << 1) | 1;
    }

    void
    beginChunk(u64 chunk) override
    {
        rng = Rng(seed, chunk, 0x2f0f);
        coldCursor = (chunk * 512 * 8) & mask;
    }

    Addr
    nextRead() override
    {
        return next(false);
    }

    Addr
    nextWrite() override
    {
        return next(true);
    }

  private:
    Addr
    next(bool write)
    {
        if (rng.uniform() < cfg.hotProbability) {
            // Hot set lives at the bottom of the segment.
            return cfg.base + (rng.next() & hotMask & ~7ULL);
        }
        Addr a = cfg.base + coldCursor + (write ? 8 : 0);
        coldCursor = (coldCursor + 8) & mask;
        return a;
    }

    Rng rng;
    u64 hotMask = 4095;
    u64 coldCursor = 0;
};

/**
 * Three-row stencil: reads from row-1 / row / row+1 round-robin,
 * writes to the centre row of a result grid in the upper half of the
 * working set.
 */
class StencilKernel final : public FillKernel<StencilKernel>
{
  public:
    StencilKernel(const KernelConfig &c, u64 s) : FillKernel(c, s)
    {
        // A power of two, so every "mod half" below is a mask (exact
        // for the wrapped unsigned sums too: half divides 2^64).
        half = (mask + 1) >> 1;
        // Row length: sqrt-ish of the grid, line aligned.
        row = 1024;
        while (row * row < half)
            row <<= 1;
    }

    void
    beginChunk(u64 chunk) override
    {
        col = (chunk * 512 * 8) & (half - 1);
        neighbour = 0;
    }

    Addr
    nextRead() override
    {
        // Cycle through the three source rows around the cursor.
        static constexpr i64 offs[3] = {-1, 0, 1};
        i64 r = offs[neighbour];
        neighbour = (neighbour + 1) % 3;
        u64 a = (col + static_cast<u64>(
                     static_cast<i64>(row) * r + static_cast<i64>(half)))
                & (half - 1);
        col = (col + (neighbour == 0 ? 8 : 0)) & (half - 1);
        return cfg.base + a;
    }

    Addr
    nextWrite() override
    {
        return cfg.base + half + (col & (half - 1));
    }

  private:
    u64 half = 0;
    u64 row = 1024;
    u64 col = 0;
    int neighbour = 0;
};

/**
 * Tile-local reuse: accesses stay inside one tile for many
 * operations, then move to the next tile.  Models blocked dense
 * linear algebra (very cache friendly).
 */
class BlockedKernel final : public FillKernel<BlockedKernel>
{
  public:
    BlockedKernel(const KernelConfig &c, u64 s)
        : FillKernel(c, s), rng(s)
    {
        tileMask = cfg.tileBytes ? cfg.tileBytes - 1 : 4095;
        // Tile size must be a power of two within the working set.
        SPLAB_ASSERT((tileMask & (tileMask + 1)) == 0,
                     "tileBytes must be a power of two");
    }

    void
    beginChunk(u64 chunk) override
    {
        rng = Rng(seed, chunk, 0xb10c);
        // A new tile every few chunks: tile index advances slowly.
        tileBase = ((chunk / 4) * (tileMask + 1)) & mask;
        cursor = 0;
    }

    Addr
    nextRead() override
    {
        cursor = (cursor + 8) & tileMask;
        return cfg.base + tileBase + cursor;
    }

    Addr
    nextWrite() override
    {
        return cfg.base + tileBase + (rng.next() & tileMask & ~7ULL);
    }

  private:
    Rng rng;
    u64 tileMask = 4095;
    u64 tileBase = 0;
    u64 cursor = 0;
};

/** Uniform random over the whole working set (worst locality). */
class RandomUniformKernel final : public FillKernel<RandomUniformKernel>
{
  public:
    RandomUniformKernel(const KernelConfig &c, u64 s)
        : FillKernel(c, s), rng(s)
    {}

    void
    beginChunk(u64 chunk) override
    {
        rng = Rng(seed, chunk, 0x7a2d);
    }

    Addr
    nextRead() override
    {
        return cfg.base + (rng.next() & mask & ~7ULL);
    }

    Addr
    nextWrite() override
    {
        return cfg.base + (rng.next() & mask & ~7ULL);
    }

  private:
    Rng rng;
};

} // namespace

std::unique_ptr<AddressKernel>
makeKernel(const KernelConfig &cfg, u64 seed)
{
    switch (cfg.kind) {
      case KernelKind::Stream:
        return std::make_unique<StreamKernel>(cfg, seed);
      case KernelKind::Strided:
        return std::make_unique<StridedKernel>(cfg, seed);
      case KernelKind::PointerChase:
        return std::make_unique<PointerChaseKernel>(cfg, seed);
      case KernelKind::ZipfHotCold:
        return std::make_unique<ZipfHotColdKernel>(cfg, seed);
      case KernelKind::Stencil:
        return std::make_unique<StencilKernel>(cfg, seed);
      case KernelKind::Blocked:
        return std::make_unique<BlockedKernel>(cfg, seed);
      case KernelKind::RandomUniform:
        return std::make_unique<RandomUniformKernel>(cfg, seed);
    }
    SPLAB_PANIC("unknown kernel kind ",
                static_cast<int>(cfg.kind));
}

} // namespace splab
