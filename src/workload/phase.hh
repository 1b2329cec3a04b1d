/**
 * @file
 * Phase specification and runtime model for synthetic benchmarks.
 *
 * A phase is one long-lived behaviour of a program: a set of static
 * basic blocks with a characteristic instruction mix, branch
 * behaviour and memory-access kernel.  SimPoint's job is to discover
 * these phases from the dynamic basic-block stream; the workload
 * engine's job is to synthesise a stream that has them.
 */

#ifndef SPLAB_WORKLOAD_PHASE_HH
#define SPLAB_WORKLOAD_PHASE_HH

#include <string>
#include <vector>

#include "isa/basic_block.hh"
#include "isa/events.hh"
#include "kernels.hh"
#include "support/rng.hh"

namespace splab
{

/** User-facing description of one phase. */
struct PhaseSpec
{
    std::string name = "phase";
    /** Fraction of the whole run spent in this phase (need not be
     *  normalized across phases; the schedule normalizes). */
    double weight = 1.0;

    /// @name Code shape
    /// @{
    MixProfile mix;       ///< instruction-class fractions
    u32 numBlocks = 16;   ///< static basic blocks in this phase
    u32 avgBlockLen = 90; ///< mean instructions per block
    double fpFraction = 0.0; ///< FP share of the NO_MEM instructions
    /// @}

    /// @name Branch behaviour
    /// @{
    /** Fraction of dynamic branches whose direction is
     *  data-dependent (effectively unpredictable). */
    double dataDepBranchFraction = 0.05;
    /// @}

    /// @name Memory behaviour
    /// @{
    KernelKind kernel = KernelKind::Stream;
    u64 workingSetBytes = 1 << 20;
    /**
     * Fraction of memory accesses that hit the phase's stack/locals
     * region (a few KiB, effectively always L1-resident).  Real code
     * spends most of its references there; without this component
     * L1 miss rates are wildly unrealistic.
     */
    double localFraction = 0.6;
    u32 stride = 64;
    double hotFraction = 0.1;
    double hotProbability = 0.9;
    u32 tileBytes = 4096;
    /// @}

    /// @name Within-phase variation
    /// @{
    /** Relative jitter of per-chunk block frequencies; this is what
     *  creates nonzero intra-cluster variance (paper Fig. 4). */
    double blockNoise = 0.25;
    /** Amplitude of a slow sinusoidal drift of block frequencies
     *  across the phase (0 = stationary phase). */
    double drift = 0.0;
    /// @}
};

/**
 * Executable model of a phase: owns its static blocks and generates
 * dynamic events chunk by chunk.
 */
class PhaseModel
{
  public:
    /**
     * @param spec       phase description
     * @param seed       workload-level seed
     * @param phaseIndex index of this phase within the benchmark
     * @param idBase     first BlockId assigned to this phase
     * @param pcBase     code address of the phase's first block
     * @param dataBase   base address of the phase's data segment
     */
    PhaseModel(const PhaseSpec &spec, u64 seed, u32 phaseIndex,
               BlockId idBase, Addr pcBase, Addr dataBase);

    const std::vector<StaticBlock> &blocks() const { return statics; }
    const PhaseSpec &spec() const { return phaseSpec; }

    /** Bytes of code this phase occupies (for PC layout). */
    Addr codeBytes() const { return codeSize; }

    /** Reset deterministic state at a chunk boundary. */
    void beginChunk(u64 chunk);

    /** Sample the next basic block to execute within the chunk. */
    const StaticBlock &pickBlock();

    /**
     * Emit one dynamic execution of @p block, truncated to at most
     * @p maxInstrs instructions.
     *
     * @param block        static block to execute
     * @param maxInstrs    truncation limit (chunk budget)
     * @param genAddresses generate concrete memory addresses
     * @param rec          [out] dynamic block record
     * @param accs         [out] buffer for memory accesses, at least
     *                     AddressKernel::kMaxBlockAccesses slots
     * @param nAccs        [out] number of accesses written
     * @param br           [out] branch record (valid if hasBranch)
     * @param hasBranch    [out] block ended in a branch
     */
    void emit(const StaticBlock &block, u32 maxInstrs,
              bool genAddresses, BlockRecord &rec, MemAccess *accs,
              std::size_t &nAccs, BranchRecord &br, bool &hasBranch);

    /** Sentinel: branch run state not yet drawn for this chunk. */
    static constexpr u32 kRunUninit = 0xffffffffu;

  private:
    void buildBlocks(Addr pcBase);
    void rebuildChunkCdf(u64 chunk);

    PhaseSpec phaseSpec;
    u64 seed;
    u32 index;
    BlockId idBase;
    Addr codeSize = 0;

    std::vector<StaticBlock> statics;
    std::vector<double> baseWeight;   ///< stationary block popularity
    std::vector<double> chunkCdf;     ///< per-chunk block CDF
    double pickPhase = 0.0;           ///< systematic-sampling offset
    u64 pickIndex = 0;                ///< picks made in this chunk
    std::vector<double> takenBias;    ///< per-block branch bias
    /** Run-length branch direction state (see emit()): current
     *  direction and remaining run per block. */
    std::vector<u8> brDir;
    std::vector<u32> brRun;

    std::unique_ptr<AddressKernel> kernel;
    Rng rng;    ///< control-stream randomness (lengths, branches)
    /** Address-locality stream and stack region, separate from rng
     *  so the instruction stream is bit-identical whether or not
     *  addresses are generated (profiling vs measurement runs). */
    LocalityStream locality;
};

} // namespace splab

#endif // SPLAB_WORKLOAD_PHASE_HH
