#include "synthetic.hh"

#include "support/logging.hh"

namespace splab
{

SyntheticWorkload::SyntheticWorkload(BenchmarkSpec spec)
    : benchSpec(std::move(spec))
{
    benchSpec.validate();

    // Lay out code and data segments, assign BlockId ranges.
    BlockId idCursor = 0;
    Addr pcCursor = code_layout::kTextBase;
    constexpr Addr kDataSegmentStride = 1ULL << 33; // 8 GiB apart
    Addr dataCursor = 0x100000000ULL;

    std::vector<double> weights;
    for (u32 p = 0; p < benchSpec.phases.size(); ++p) {
        const PhaseSpec &ps = benchSpec.phases[p];
        auto model = std::make_unique<PhaseModel>(
            ps, benchSpec.seed, p, idCursor, pcCursor, dataCursor);
        idCursor += ps.numBlocks;
        pcCursor += model->codeBytes();
        dataCursor += kDataSegmentStride;
        weights.push_back(ps.weight);
        for (const auto &b : model->blocks())
            allBlocks.push_back(b);
        phaseModels.push_back(std::move(model));
    }

    // Dominant phases (a bwaves-like 60%+ kernel) execute in long
    // stretches, tiny phases in short bursts; scaling the per-phase
    // dwell keeps the boundary-slice share of a dominant phase low
    // without starving sub-percent phases of schedule segments.
    double maxWeight = 0.0, weightSum = 0.0;
    for (double w : weights) {
        maxWeight = w > maxWeight ? w : maxWeight;
        weightSum += w;
    }
    std::vector<double> dwellScale;
    if (weightSum > 0.0 && maxWeight / weightSum > 0.3) {
        for (double w : weights)
            dwellScale.push_back(0.75 + 6.0 * w / weightSum);
    }

    phaseSchedule = std::make_unique<PhaseSchedule>(
        benchSpec.schedule, weights, benchSpec.totalChunks,
        benchSpec.dwellChunks, benchSpec.seed, dwellScale);
}

void
SyntheticWorkload::run(u64 firstChunk, u64 numChunks, EventSink &sink,
                       bool genAddresses)
{
    SPLAB_ASSERT(firstChunk + numChunks <= benchSpec.totalChunks,
                 benchSpec.name, ": chunk window [", firstChunk, ", ",
                 firstChunk + numChunks, ") beyond run of ",
                 benchSpec.totalChunks, " chunks");

    // Binary-search the owning segment once, then scan forward as
    // consecutive chunks walk the segment table.
    const auto &segs = phaseSchedule->segments();
    std::size_t seg = 0;
    {
        std::size_t lo = 0, hi = segs.size();
        while (lo + 1 < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (segs[mid].firstChunk <= firstChunk)
                lo = mid;
            else
                hi = mid;
        }
        seg = lo;
    }

    EventBatch &batch = batchArena;

    for (u64 chunk = firstChunk; chunk < firstChunk + numChunks;
         ++chunk) {
        while (seg + 1 < segs.size() &&
               segs[seg + 1].firstChunk <= chunk)
            ++seg;
        PhaseModel &phase = *phaseModels[segs[seg].phase];
        phase.beginChunk(chunk);

        // Fill one batch per chunk, then deliver it with a single
        // sink call; the accesses of each block are emitted straight
        // into the batch's flattened pool.
        batch.clear();
        BlockRecord rec;
        BranchRecord br;
        ICount budget = benchSpec.chunkLen;
        while (budget > 0) {
            const StaticBlock &blk = phase.pickBlock();
            MemAccess *accBuf =
                batch.reserveAccs(AddressKernel::kMaxBlockAccesses);
            std::size_t nAccs = 0;
            bool hasBranch = false;
            phase.emit(blk, static_cast<u32>(budget), genAddresses,
                       rec, accBuf, nAccs, br, hasBranch);
            SPLAB_ASSERT(rec.instrs > 0 && rec.instrs <= budget,
                         "chunk budget violation");
            budget -= rec.instrs;
            batch.push(rec, nAccs, br, hasBranch);
        }
        sink.onBatch(batch);
    }
}

} // namespace splab
