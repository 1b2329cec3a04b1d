/**
 * @file
 * Memory-address kernels for synthetic workload phases.
 *
 * A kernel turns an abstract "memory operation" into a concrete byte
 * address.  Each phase of a synthetic benchmark owns one kernel
 * parameterisation; the kernel family plus its working-set size is
 * what gives a phase its cache signature.
 *
 * Determinism contract: a kernel's address stream within a chunk is a
 * pure function of (workload seed, phase, chunk index) via
 * beginChunk().  This lets a regional pinball replay any chunk
 * without executing its predecessors.
 */

#ifndef SPLAB_WORKLOAD_KERNELS_HH
#define SPLAB_WORKLOAD_KERNELS_HH

#include <memory>
#include <string>

#include "isa/events.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace splab
{

/** Families of memory-access behaviour. */
enum class KernelKind : u8
{
    Stream = 0,      ///< unit-stride streaming over the working set
    Strided = 1,     ///< fixed non-unit stride (column walks)
    PointerChase = 2,///< dependent LCG walk (linked data structures)
    ZipfHotCold = 3, ///< hot subset reused + cold background
    Stencil = 4,     ///< neighbouring-row reads + centre write
    Blocked = 5,     ///< tile-local reuse (blocked dense kernels)
    RandomUniform = 6///< uniform random over the working set
};

constexpr std::size_t kNumKernelKinds = 7;

/** Display name, e.g. "pointer-chase". */
const std::string &kernelKindName(KernelKind k);

/** Static parameterisation of a kernel instance. */
struct KernelConfig
{
    KernelKind kind = KernelKind::Stream;
    Addr base = 0x100000000ULL;  ///< segment base address
    u64 workingSet = 1 << 20;    ///< bytes; rounded to a power of two
    u32 stride = 64;             ///< bytes (Strided)
    double hotFraction = 0.1;    ///< fraction of WS that is hot (Zipf)
    double hotProbability = 0.9; ///< P(access hits the hot set) (Zipf)
    u32 tileBytes = 4096;        ///< tile size (Blocked)
};

/**
 * The per-chunk locality state a block fill draws from besides its
 * kernel: which accesses hit the phase's stack/locals region, and
 * where in that region they land.
 */
struct LocalityStream
{
    /** Locality flags only: no other draw consumes this stream, so
     *  the instruction stream is bit-identical whether or not
     *  addresses are generated. */
    Rng rng;
    /** Rng::chanceThreshold(localFraction): an access is local when
     *  rng.chanceBelow(threshold). */
    u64 threshold = 0;
    Addr stackBase = 0;  ///< stack/locals region (L1-resident)
    u64 stackCursor = 0; ///< rotating cursor within the region

    /** Bytes of the per-phase stack/locals region. */
    static constexpr u64 kStackBytes = 8 * 1024;
};

/**
 * Generates the address stream of one phase.
 *
 * Usage: beginChunk(chunk) once per execution chunk, then any
 * interleaving of nextRead()/nextWrite()/fillBlock().
 */
class AddressKernel
{
  public:
    virtual ~AddressKernel() = default;

    /** Reset deterministic per-chunk state. */
    virtual void beginChunk(u64 chunk) = 0;

    /** Address of the next read access. */
    virtual Addr nextRead() = 0;

    /** Address of the next write access. */
    virtual Addr nextWrite() = 0;

    /**
     * Fill one block's @p reads + @p writes accesses into @p out,
     * reads and writes interleaved round-robin in proportion to
     * their counts.  Access i is local (the next stack/locals slot
     * of @p loc) when loc.rng.chanceBelow(loc.threshold), and
     * otherwise takes the kernel's next read or write address.
     *
     * Equal bit for bit to drawing each access's flag and then
     * calling nextRead()/nextWrite() for it, in stream order: the
     * flags come from loc.rng alone and the kernel never reads it,
     * so all flags are drawn first (with the stack slots, no
     * branches), then the kernel fills the non-local accesses in
     * order with inlined calls.  @p out holds at least
     * reads + writes slots.
     */
    virtual void fillBlock(u32 reads, u32 writes, LocalityStream &loc,
                           MemAccess *out) = 0;

    /** Most accesses one fillBlock() call may fill. */
    static constexpr std::size_t kMaxBlockAccesses = 1024;

    const KernelConfig &config() const { return cfg; }

    AddressKernel(const KernelConfig &config, u64 seed);

  protected:
    /** Working set size rounded down to a power of two. */
    u64 wsMask() const { return mask; }

    KernelConfig cfg;
    u64 seed;
    u64 mask; ///< workingSet rounded to pow2, minus 1

  private:
    static u64 floorPow2(u64 v);
};

/** Instantiate the kernel described by @p cfg. */
std::unique_ptr<AddressKernel> makeKernel(const KernelConfig &cfg,
                                          u64 seed);

} // namespace splab

#endif // SPLAB_WORKLOAD_KERNELS_HH
