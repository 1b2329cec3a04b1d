#include "bbv_tool.hh"

#include "support/logging.hh"
#include "workload/synthetic.hh"

namespace splab
{

namespace
{

/** Keep a final partial slice (@p inSlice > 0) only if it is at
 *  least half full, the half-full case included; SimPoint likewise
 *  drops trailing slivers. */
bool
keepsSliver(ICount inSlice, ICount sliceInstrs)
{
    return inSlice * 2 >= sliceInstrs;
}

} // namespace

BbvTool::BbvTool(ICount sliceInstrs) : sliceInstrs(sliceInstrs)
{
    SPLAB_ASSERT(sliceInstrs > 0, "slice length must be positive");
}

void
BbvTool::onRunStart(const SyntheticWorkload &workload)
{
    SPLAB_ASSERT(sliceInstrs % workload.chunkLen() == 0,
                 "slice length ", sliceInstrs,
                 " must be a multiple of the chunk length ",
                 workload.chunkLen());
    if (!acc)
        acc = std::make_unique<BbvAccumulator>(
            workload.numStaticBlocks());
}

void
BbvTool::onBatch(const EventBatch &batch)
{
    // Every batch is one whole chunk and onRunStart() checked that
    // the slice length is a multiple of the chunk length, so the
    // batch lands inside the current slice.  Accumulate from the
    // per-static-block sums — one add per *touched* block instead of
    // one per dynamic block.  The sums are integer-valued doubles
    // well below 2^53, so this reassociation is exact and the
    // harvested (sorted) vectors are byte-identical to a per-block
    // accumulation (asserted in tests/test_engine_batch.cc).
    SPLAB_ASSERT(inSlice + batch.instrs() <= sliceInstrs,
                 "slice boundary inside a batch");
    for (u32 b : batch.touchedBlocks())
        acc->add(b, static_cast<double>(batch.blockInstrSum(b)));
    inSlice += batch.instrs();
    if (inSlice == sliceInstrs) {
        slices.push_back(acc->harvest());
        inSlice = 0;
    }
}

void
BbvTool::onRunEnd()
{
    // Harvest unconditionally so the scratch resets through one
    // path, whether the sliver is kept or dropped.
    if (acc && !acc->empty()) {
        FrequencyVector sliver = acc->harvest();
        if (keepsSliver(inSlice, sliceInstrs))
            slices.push_back(std::move(sliver));
    }
    inSlice = 0;
}

u64
BbvTool::sliceCount(ICount instrs, ICount sliceInstrs)
{
    return instrs / sliceInstrs +
           (keepsSliver(instrs % sliceInstrs, sliceInstrs) ? 1 : 0);
}

} // namespace splab
