#include "events.hh"

namespace splab
{

void
EventBatch::finalizeAggregates() const
{
    if (aggValid)
        return;

    // Whole-batch totals and the per-static-block sums in one pass
    // over the blocks; integer sums, so identical to the per-block
    // reduction in stream order.  The block sums and the first-touch
    // order of touchedIds are a scatter over BlockIds, recomputed
    // from scratch so a finalize after further pushes never
    // double-counts.
    InstrMix mix;
    ICount instrs = 0, fp = 0;
    u64 branches = 0, taken = 0, dataDep = 0;
    for (u32 b : touchedIds)
        blockSums[b] = 0;
    touchedIds.clear();
    for (std::size_t i = 0; i < blockRecs.size(); ++i) {
        const BlockRecord &rec = blockRecs[i];
        mix += rec.mix;
        instrs += rec.instrs;
        fp += rec.fpInstrs;
        branches += branchFlag[i];
        taken += takenFlag[i];
        dataDep += dataDepFlag[i];
        if (rec.bb >= blockSums.size())
            blockSums.resize(rec.bb + 1, 0);
        u64 &sum = blockSums[rec.bb];
        if (sum == 0)
            touchedIds.push_back(rec.bb);
        sum += rec.instrs;
    }
    aggMix = mix;
    totalInstrs = instrs;
    aggFp = fp;
    aggBranches = branches;
    aggTaken = taken;
    aggDataDep = dataDep;
    aggValid = true;
}

} // namespace splab
