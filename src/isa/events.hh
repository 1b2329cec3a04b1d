/**
 * @file
 * Dynamic events delivered by the instrumentation engine to tools.
 *
 * The engine executes a workload at basic-block granularity: each
 * dynamic basic block produces one BlockRecord, zero or more
 * MemAccess events and at most one BranchRecord (for the terminating
 * control instruction).
 */

#ifndef SPLAB_ISA_EVENTS_HH
#define SPLAB_ISA_EVENTS_HH

#include <cstddef>
#include <span>
#include <vector>

#include "instr.hh"
#include "support/types.hh"

namespace splab
{

/** One dynamic memory reference. */
struct MemAccess
{
    Addr addr = 0;      ///< byte address
    u8 size = 8;        ///< access size in bytes
    bool isWrite = false;
};

/** Outcome of a dynamic branch instruction. */
struct BranchRecord
{
    Addr pc = 0;        ///< address of the branch instruction
    bool taken = false;
    /**
     * True when the workload model marks this dynamic branch as hard
     * to predict (data-dependent direction).  The timing model still
     * runs its own predictor; this flag steers the synthetic
     * direction stream, not the predictor.
     */
    bool dataDependent = false;
};

/** One dynamic execution of a static basic block. */
struct BlockRecord
{
    BlockId bb = 0;          ///< static basic-block identifier
    Addr pc = 0;             ///< virtual address of the block start
    u32 instrs = 0;          ///< total instructions in this execution
    InstrMix mix;            ///< per-MemClass breakdown (sums to instrs)
    u32 fpInstrs = 0;        ///< floating-point subset (informational)
    bool endsInBranch = false;
};

/**
 * A batch of dynamic events in structure-of-arrays layout: one
 * BlockRecord per dynamic block, all memory accesses flattened into
 * one pool addressed by per-block offsets, and the terminating
 * branches in a parallel array with a validity flag.
 *
 * The workload fills one batch per chunk and delivers it with a
 * single sink callback, so engine dispatch costs ~(chunks x tools)
 * virtual calls instead of ~(blocks x tools).  The arena is reusable:
 * clear() keeps capacity, so steady-state batch construction does not
 * allocate.
 *
 * The per-block accessors (block(i), accs(i), branch(i)) give the
 * event content in stream order, for tools whose state evolves block
 * by block.
 *
 * Chunk-grained aggregates: the batch carries whole-chunk totals —
 * the summed InstrMix, fp-instruction count, branch outcome totals
 * and per-static-block instruction sums — so tools that only need
 * reductions (ldstmix, inscount, branchprofile, BBV accumulation)
 * consume O(1) (or O(touched blocks)) per chunk instead of walking
 * the block array.  They are computed lazily by a single
 * finalizeAggregates() pass over the filled SoA arrays (push()
 * itself stays lean for the generation inner loop) and cached until
 * the next push/clear.  The aggregates are pure integer sums of the
 * same per-block fields, so consuming them is observationally
 * identical to the per-block reduction in stream order.
 */
class EventBatch
{
  public:
    /** Drop all events; capacity is kept for reuse. */
    void
    clear()
    {
        blockRecs.clear();
        accOff.assign(1, 0);
        accUsed = 0;
        branchRecs.clear();
        branchFlag.clear();
        takenFlag.clear();
        dataDepFlag.clear();
        totalInstrs = 0;
        aggMix = InstrMix();
        aggFp = 0;
        aggBranches = 0;
        aggTaken = 0;
        aggDataDep = 0;
        // Zero only the touched slots of the dense block-sum array;
        // a full clear would be O(static blocks) per chunk.
        for (u32 b : touchedIds)
            blockSums[b] = 0;
        touchedIds.clear();
        aggValid = true; // an empty batch's aggregates are all zero
    }

    /**
     * Scratch space for the next block's accesses: guarantees
     * @p maxN writable slots at the pool tail and returns them.
     * The pool only ever grows to its high-water mark, so repeated
     * reservations are free after warm-up.
     */
    MemAccess *
    reserveAccs(std::size_t maxN)
    {
        if (accPool.size() < accUsed + maxN)
            accPool.resize(accUsed + maxN);
        return accPool.data() + accUsed;
    }

    /**
     * Append one block: @p rec, the first @p nAccs entries of the
     * last reserveAccs() scratch, and its terminating branch
     * (@p br ignored unless @p hasBranch).
     */
    void
    push(const BlockRecord &rec, std::size_t nAccs,
         const BranchRecord &br, bool hasBranch)
    {
        blockRecs.push_back(rec);
        accUsed += static_cast<u32>(nAccs);
        accOff.push_back(accUsed);
        branchRecs.push_back(hasBranch ? br : BranchRecord{});
        branchFlag.push_back(hasBranch ? 1 : 0);
        takenFlag.push_back(hasBranch && br.taken ? 1 : 0);
        dataDepFlag.push_back(hasBranch && br.dataDependent ? 1 : 0);
        aggValid = false;
    }

    /**
     * Compute the chunk-grained aggregates from the filled arrays
     * (no-op if already current).  Called implicitly by the
     * aggregate accessors.
     */
    void finalizeAggregates() const;

    std::size_t numBlocks() const { return blockRecs.size(); }
    bool empty() const { return blockRecs.empty(); }

    /** Total instructions across the batch. */
    ICount
    instrs() const
    {
        finalizeAggregates();
        return totalInstrs;
    }

    /// @name Per-block element access, in stream order
    /// @{
    const BlockRecord &block(std::size_t i) const
    {
        return blockRecs[i];
    }

    std::size_t accCount(std::size_t i) const
    {
        return accOff[i + 1] - accOff[i];
    }

    /** Accesses of block @p i; null when it performed none. */
    const MemAccess *
    accs(std::size_t i) const
    {
        return accOff[i + 1] == accOff[i] ? nullptr
                                          : accPool.data() + accOff[i];
    }

    /** Terminating branch of block @p i, or null. */
    const BranchRecord *
    branch(std::size_t i) const
    {
        return branchFlag[i] ? &branchRecs[i] : nullptr;
    }
    /// @}

    /// @name Raw SoA views for batch-optimized tools
    /// @{
    const std::vector<BlockRecord> &blocks() const
    {
        return blockRecs;
    }
    /** Flattened access pool, offsets().back() entries; block i
     *  owns [offsets()[i], offsets()[i+1]).  The arena's reserved
     *  slack past the last block is not part of it. */
    std::span<const MemAccess> accessPool() const
    {
        return {accPool.data(), accUsed};
    }
    /** numBlocks() + 1 prefix offsets into accessPool(). */
    const std::vector<u32> &offsets() const { return accOff; }
    const std::vector<BranchRecord> &branches() const
    {
        return branchRecs;
    }
    /** 1 where block i ends in a branch, else 0. */
    const std::vector<u8> &branchValid() const { return branchFlag; }
    /// @}

    /// @name Chunk-grained aggregates (see class comment)
    /// @{
    /** Summed InstrMix of every block in the batch. */
    const InstrMix &
    mixTotal() const
    {
        finalizeAggregates();
        return aggMix;
    }
    /** Summed fp-instruction count. */
    ICount
    fpTotal() const
    {
        finalizeAggregates();
        return aggFp;
    }
    /** Terminating branches in the batch. */
    u64
    branchTotal() const
    {
        finalizeAggregates();
        return aggBranches;
    }
    /** ... of which taken. */
    u64
    takenTotal() const
    {
        finalizeAggregates();
        return aggTaken;
    }
    /** ... of which data-dependent (hard to predict). */
    u64
    dataDependentTotal() const
    {
        finalizeAggregates();
        return aggDataDep;
    }
    /**
     * Static blocks executed at least once in this batch, in
     * first-touch (stream) order.  blockInstrSum() of every other
     * block is zero.
     */
    const std::vector<u32> &
    touchedBlocks() const
    {
        finalizeAggregates();
        return touchedIds;
    }
    /** Total instructions block @p bb contributed to this batch. */
    u64
    blockInstrSum(u32 bb) const
    {
        finalizeAggregates();
        return blockSums[bb];
    }
    /// @}

  private:
    std::vector<BlockRecord> blockRecs;
    std::vector<MemAccess> accPool;
    std::vector<u32> accOff{0};
    u32 accUsed = 0;
    std::vector<BranchRecord> branchRecs;
    std::vector<u8> branchFlag;
    std::vector<u8> takenFlag;
    std::vector<u8> dataDepFlag;

    // Aggregates: computed by finalizeAggregates() from the arrays
    // above, cached until the next push/clear.  Mutable so the const
    // accessors can finalize lazily; only ever touched by the thread
    // that owns the batch.
    mutable bool aggValid = true;
    mutable ICount totalInstrs = 0;
    mutable InstrMix aggMix;
    mutable ICount aggFp = 0;
    mutable u64 aggBranches = 0;
    mutable u64 aggTaken = 0;
    mutable u64 aggDataDep = 0;
    /** blockSums[bb] = instructions of static block bb in this
     *  batch; dense, grown to the highest BlockId seen, reset via
     *  the touched list. */
    mutable std::vector<u64> blockSums;
    mutable std::vector<u32> touchedIds;
};

} // namespace splab

#endif // SPLAB_ISA_EVENTS_HH
