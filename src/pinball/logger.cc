#include "logger.hh"

#include <algorithm>

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "sampling/strategy.hh"
#include "support/logging.hh"
#include "workload/synthetic.hh"

namespace splab
{

namespace
{

/** Accumulates an order-sensitive checksum of the event stream:
 *  per block, its id and length, then its accesses, then its
 *  branch. */
class ChecksumSink : public EventSink
{
  public:
    void
    onBatch(const EventBatch &batch) override
    {
        const std::size_t n = batch.numBlocks();
        for (std::size_t b = 0; b < n; ++b) {
            const BlockRecord &rec = batch.block(b);
            sum = hashCombine(sum, rec.bb);
            sum = hashCombine(sum, rec.instrs);
            const MemAccess *accs = batch.accs(b);
            for (std::size_t i = 0; i < batch.accCount(b); ++i) {
                sum = hashCombine(
                    sum,
                    accs[i].addr ^ (accs[i].isWrite ? 1ULL : 0ULL));
            }
            if (const BranchRecord *br = batch.branch(b))
                sum = hashCombine(sum,
                                  br->pc ^ (br->taken ? 2ULL : 0ULL));
        }
    }

    u64 value() const { return sum; }

  private:
    u64 sum = 0x600dC0DEULL;
};

} // namespace

u64
Logger::streamChecksum(SyntheticWorkload &workload, u64 firstChunk,
                       u64 numChunks)
{
    ChecksumSink sink;
    workload.run(firstChunk, numChunks, sink, true);
    return sink.value();
}

Pinball
Logger::captureWhole(SyntheticWorkload &workload, bool verify)
{
    obs::TraceSpan span("logger.capture_whole");
    static obs::Counter &captured =
        obs::counter("pinball.whole_captured",
                     "whole pinballs logged");
    static obs::Counter &chunksLogged =
        obs::counter("pinball.chunks_logged",
                     "chunks covered by logged whole pinballs");
    captured.add();
    chunksLogged.add(workload.totalChunks());

    RegionDesc whole;
    whole.firstChunk = 0;
    whole.numChunks = workload.totalChunks();
    whole.weight = 1.0;

    Pinball p(PinballKind::Whole, workload.spec(), {whole});
    if (verify)
        p.setStreamChecksum(
            streamChecksum(workload, 0, workload.totalChunks()));
    return p;
}

Pinball
Logger::makeRegional(const Pinball &whole,
                     const RegionSelection &selection)
{
    obs::TraceSpan span("logger.make_regional");
    static obs::Counter &regionsLogged =
        obs::counter("pinball.regions_logged",
                     "regions extracted into regional pinballs");
    regionsLogged.add(selection.regions.size());
    SPLAB_ASSERT(whole.kind() == PinballKind::Whole,
                 "regional pinballs derive from whole pinballs");
    const BenchmarkSpec &spec = whole.spec();
    SPLAB_ASSERT(selection.sliceInstrs % spec.chunkLen == 0,
                 "slice length not chunk aligned");
    u64 sliceChunks = selection.sliceInstrs / spec.chunkLen;

    std::vector<RegionDesc> regions;
    regions.reserve(selection.regions.size());
    for (const Region &sr : selection.regions) {
        RegionDesc r;
        r.firstChunk = sr.startSlice * sliceChunks;
        r.numChunks = sr.lengthSlices * sliceChunks;
        if (r.firstChunk >= spec.totalChunks)
            SPLAB_PANIC("simulation region beyond the captured run");
        if (r.firstChunk + r.numChunks > spec.totalChunks)
            r.numChunks = spec.totalChunks - r.firstChunk;
        r.weight = sr.weight;
        r.cluster = sr.cluster;
        r.slice = sr.startSlice;
        r.warmupChunks = std::min<u64>(sr.warmupSlices * sliceChunks,
                                       r.firstChunk);
        regions.push_back(r);
    }
    return Pinball(PinballKind::Regional, spec, std::move(regions));
}

Pinball
Logger::makeRegional(const Pinball &whole,
                     const SimPointResult &simpoints)
{
    return makeRegional(whole, regionsFromSimPoints(simpoints));
}

} // namespace splab
