/**
 * @file
 * Batched event delivery and the fused whole-run measurement: every
 * batch tool must equal a per-block reduction over the batch's
 * per-block view, the optimised cache hierarchy and interval core
 * must equal independent reference models on real suite streams,
 * and the fused single-pass measurement must be byte-identical to
 * the separate passes it replaces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "core/artifact_graph.hh"
#include "core/runs.hh"
#include "obs/counters.hh"
#include "pin/engine.hh"
#include "pin/tools/allcache.hh"
#include "pin/tools/bbv_tool.hh"
#include "pin/tools/branch_profile.hh"
#include "pin/tools/ldstmix.hh"
#include "support/serialize.hh"
#include "timing/interval_core.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

BenchmarkSpec
smallSpec(u64 chunks = 300)
{
    BenchmarkSpec spec;
    spec.name = "batch-test";
    spec.seed = 99;
    spec.totalChunks = chunks;
    spec.chunkLen = 1000;
    PhaseSpec a;
    a.weight = 0.6;
    a.kernel = KernelKind::Stream;
    a.workingSetBytes = 4 << 20;
    PhaseSpec b;
    b.weight = 0.4;
    b.kernel = KernelKind::PointerChase;
    b.workingSetBytes = 1 << 20;
    spec.phases = {a, b};
    spec.schedule = ScheduleKind::Interleaved;
    spec.dwellChunks = 30;
    return spec;
}

/**
 * Reference cache: a full way scan over (tag, valid) pairs with
 * per-access set and tag division, and the replacement and counting
 * semantics of SetAssocCache.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p)
        : params(p), sets(p.numSets()), lines(sets * p.ways)
    {
    }

    bool
    access(Addr addr, bool isWrite)
    {
        u64 line = addr / params.lineBytes;
        u64 set = line % sets;
        u64 tag = line / sets;
        auto *t = &lines[set * params.ways];

        bool hit = false;
        u32 pos = 0;
        for (u32 i = 0; i < params.ways; ++i) {
            if (t[i].valid && t[i].tag == tag) {
                hit = true;
                pos = i;
                break;
            }
        }
        bool refresh =
            hit ? params.replacement == ReplacementPolicy::LRU : true;
        if (refresh) {
            u32 from = hit ? pos : params.ways - 1;
            for (u32 i = from; i > 0; --i)
                t[i] = t[i - 1];
            t[0] = {tag, true};
        }

        ++stats.accesses;
        if (isWrite) {
            ++stats.writeAccesses;
            if (!hit)
                ++stats.writeMisses;
        } else {
            ++stats.readAccesses;
            if (!hit)
                ++stats.readMisses;
        }
        if (!hit)
            ++stats.misses;
        return hit;
    }

    /** Invalidate every line; stats are kept. */
    void flush() { lines.assign(lines.size(), Line{}); }

    CacheStats stats;

  private:
    struct Line
    {
        u64 tag = 0;
        bool valid = false;
    };
    CacheParams params;
    u64 sets;
    std::vector<Line> lines;
};

/** Reference hierarchy: the plain L1 -> L2 -> L3 -> memory walk over
 *  ReferenceCaches, one access at a time. */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyConfig &cfg)
        : levels{ReferenceCache(cfg.l1i), ReferenceCache(cfg.l1d),
                 ReferenceCache(cfg.l2), ReferenceCache(cfg.l3)}
    {
    }

    HitLevel
    accessData(Addr addr, bool isWrite)
    {
        return walk(levels[1], addr, isWrite);
    }

    HitLevel accessInstr(Addr pc) { return walk(levels[0], pc, false); }

    void
    flush()
    {
        for (ReferenceCache &c : levels)
            c.flush();
    }

    const CacheStats &
    stats(CacheLevel l) const
    {
        return levels[static_cast<u8>(l)].stats;
    }

  private:
    HitLevel
    walk(ReferenceCache &l1, Addr addr, bool isWrite)
    {
        if (l1.access(addr, isWrite))
            return HitLevel::L1;
        if (levels[2].access(addr, isWrite))
            return HitLevel::L2;
        if (levels[3].access(addr, isWrite))
            return HitLevel::L3;
        return HitLevel::Memory;
    }

    std::vector<ReferenceCache> levels;
};

/** Reference interval core: IntervalCoreTool's per-block step
 *  without warm-up, operation for operation over the reference
 *  hierarchy (no L1-hit shortcut), so cycle counts compare
 *  bit-identically. */
class ReferenceCore
{
  public:
    explicit ReferenceCore(const MachineConfig &config)
        : caches(config.caches), cfg(config),
          predictor(config.predictorHistoryBits),
          sinceMemMiss(config.robEntries)
    {
    }

    void
    step(const BlockRecord &rec, const MemAccess *accs,
         std::size_t nAccs, const BranchRecord *br)
    {
        double cycles = static_cast<double>(rec.instrs) /
                        static_cast<double>(cfg.dispatchWidth);

        HitLevel fetch = caches.accessInstr(rec.pc);
        if (fetch != HitLevel::L1)
            cycles += exposedLatency(fetch) * 0.5;

        sinceMemMiss += rec.instrs;
        for (std::size_t i = 0; i < nAccs; ++i) {
            HitLevel level =
                caches.accessData(accs[i].addr, accs[i].isWrite);
            double scale = accs[i].isWrite ? 0.3 : 1.0;
            cycles += exposedLatency(level) * scale;
        }

        if (br) {
            bool correct = predictor.update(br->pc, br->taken);
            ++timing.branches;
            if (!correct) {
                ++timing.mispredicts;
                cycles += cfg.branchMispredictPenalty;
            }
        }

        timing.instrs += rec.instrs;
        timing.cycles += cycles;
    }

    TimingStats timing;
    ReferenceHierarchy caches;

  private:
    double
    exposedLatency(HitLevel level)
    {
        switch (level) {
          case HitLevel::L1:
            return 0.0;
          case HitLevel::L2:
            ++timing.l2Hits;
            return (cfg.l2LatencyCycles - cfg.l1LatencyCycles) * 0.35;
          case HitLevel::L3:
            ++timing.l3Hits;
            return (cfg.l3LatencyCycles - cfg.l2LatencyCycles) * 0.55;
          case HitLevel::Memory: {
            ++timing.memAccesses;
            double exposed =
                static_cast<double>(cfg.memLatencyCycles);
            if (sinceMemMiss < cfg.robEntries)
                exposed *= 0.25;
            sinceMemMiss = 0;
            return exposed * 0.8;
          }
        }
        return 0.0;
    }

    MachineConfig cfg;
    TournamentPredictor predictor;
    ICount sinceMemMiss;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.readAccesses, b.readAccesses) << what;
    EXPECT_EQ(a.readMisses, b.readMisses) << what;
    EXPECT_EQ(a.writeAccesses, b.writeAccesses) << what;
    EXPECT_EQ(a.writeMisses, b.writeMisses) << what;
}

void
expectSameCacheStats(const CacheHierarchy &a,
                     const ReferenceHierarchy &b)
{
    for (CacheLevel l : {CacheLevel::L1I, CacheLevel::L1D,
                         CacheLevel::L2, CacheLevel::L3})
        expectSameStats(a.levelStats(l), b.stats(l),
                        cacheLevelName(l));
}

void
expectSameTiming(const TimingStats &a, const TimingStats &b)
{
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l3Hits, b.l3Hits);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
}

/**
 * The per-block reference for every bundled tool.  Recomputes each
 * per-chunk aggregate from the batch's per-block view and checks it
 * against the precomputed accessors, and keeps running per-block
 * reductions over the whole stream: instruction mix and branch
 * counts always; optionally BBVs (a BbvAccumulator fed block by
 * block, with BbvTool's half-full sliver rule) and the reference
 * hierarchy and interval core.
 */
class AggregateCheckSink : public EventSink
{
  public:
    /** Also collect one BBV per @p slice instructions. */
    void
    collectBbvs(const SyntheticWorkload &wl, ICount slice)
    {
        bbvAcc = std::make_unique<BbvAccumulator>(wl.numStaticBlocks());
        sliceInstrs = slice;
    }

    /** Also drive the reference hierarchy and interval core. */
    void
    simulate(const HierarchyConfig &caches,
             const MachineConfig &machine)
    {
        refCaches = std::make_unique<ReferenceHierarchy>(caches);
        refCore = std::make_unique<ReferenceCore>(machine);
    }

    void
    onBatch(const EventBatch &batch) override
    {
        ++batches;
        InstrMix mix;
        ICount fp = 0;
        u64 branches = 0, taken = 0, dataDep = 0;
        std::map<u32, u64> sums;
        const std::size_t n = batch.numBlocks();
        for (std::size_t i = 0; i < n; ++i) {
            const BlockRecord &rec = batch.block(i);
            mix += rec.mix;
            fp += rec.fpInstrs;
            if (const BranchRecord *br = batch.branch(i)) {
                ++branches;
                taken += br->taken ? 1 : 0;
                dataDep += br->dataDependent ? 1 : 0;
            }
            sums[rec.bb] += rec.instrs;
            if (bbvAcc)
                addBbv(rec);
            if (refCaches) {
                const MemAccess *accs = batch.accs(i);
                refCaches->accessInstr(rec.pc);
                for (std::size_t k = 0; k < batch.accCount(i); ++k)
                    refCaches->accessData(accs[k].addr,
                                          accs[k].isWrite);
                refCore->step(rec, accs, batch.accCount(i),
                              batch.branch(i));
            }
        }
        for (std::size_t c = 0; c < kNumMemClasses; ++c)
            ASSERT_EQ(batch.mixTotal().count[c], mix.count[c]);
        ASSERT_EQ(batch.fpTotal(), fp);
        ASSERT_EQ(batch.branchTotal(), branches);
        ASSERT_EQ(batch.takenTotal(), taken);
        ASSERT_EQ(batch.dataDependentTotal(), dataDep);

        // The touched-block list names each touched block exactly
        // once, the per-block sums match a from-scratch reduction,
        // and together they cover the batch's instruction total.
        std::set<u32> seen;
        u64 total = 0;
        for (u32 b : batch.touchedBlocks()) {
            ASSERT_TRUE(seen.insert(b).second)
                << "duplicate touched block " << b;
            auto it = sums.find(b);
            ASSERT_NE(it, sums.end()) << "untouched block " << b;
            ASSERT_EQ(batch.blockInstrSum(b), it->second);
            total += it->second;
        }
        ASSERT_EQ(seen.size(), sums.size());
        ASSERT_EQ(total, batch.instrs());

        mixSum += mix;
        fpSum += fp;
        branchSum += branches;
        takenSum += taken;
        dataDepSum += dataDep;
    }

    /** End of run: keep the final BBV sliver if it is at least half
     *  a slice, as BbvTool::onRunEnd does. */
    void
    finish()
    {
        if (bbvAcc && !bbvAcc->empty()) {
            FrequencyVector sliver = bbvAcc->harvest();
            if (inSlice * 2 >= sliceInstrs)
                bbvs.push_back(std::move(sliver));
        }
        inSlice = 0;
    }

    std::size_t batches = 0;
    InstrMix mixSum;
    ICount fpSum = 0;
    u64 branchSum = 0, takenSum = 0, dataDepSum = 0;
    std::vector<FrequencyVector> bbvs;
    std::unique_ptr<ReferenceHierarchy> refCaches;
    std::unique_ptr<ReferenceCore> refCore;

  private:
    void
    addBbv(const BlockRecord &rec)
    {
        bbvAcc->add(rec.bb, static_cast<double>(rec.instrs));
        inSlice += rec.instrs;
        if (inSlice >= sliceInstrs) {
            ASSERT_EQ(inSlice, sliceInstrs)
                << "slice boundary crossed mid-block";
            bbvs.push_back(bbvAcc->harvest());
            inSlice = 0;
        }
    }

    std::unique_ptr<BbvAccumulator> bbvAcc;
    ICount sliceInstrs = 0;
    ICount inSlice = 0;
};

void
expectSameBbvs(const std::vector<FrequencyVector> &a,
               const std::vector<FrequencyVector> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        const auto &ea = a[s].entries;
        const auto &eb = b[s].entries;
        ASSERT_EQ(ea.size(), eb.size()) << "slice " << s;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].block, eb[i].block);
            // Exact, not approximate: byte-stability of the BBV
            // artifact is what keeps its cache salt unbumped.
            EXPECT_EQ(ea[i].weight, eb[i].weight);
        }
    }
}

TEST(EventBatching, BatchedMatchesPerBlock)
{
    // Every bundled tool under batched dispatch against the per-block
    // reductions over the same stream: all statistics exactly equal.
    BenchmarkSpec spec = smallSpec(200);
    const ICount slice = spec.chunkLen * 10;

    AllCacheTool cache(tableIConfig());
    LdStMixTool mix;
    BranchProfileTool br;
    IntervalCoreTool core(tableIIIMachine());
    BbvTool bbv(slice);
    Engine batched;
    for (PinTool *t : std::initializer_list<PinTool *>{
             &cache, &mix, &br, &core, &bbv})
        batched.attach(t);
    SyntheticWorkload wlA(spec);
    batched.runWhole(wlA);

    SyntheticWorkload wlB(spec);
    AggregateCheckSink ref;
    ref.collectBbvs(wlB, slice);
    ref.simulate(tableIConfig(), tableIIIMachine());
    wlB.run(0, spec.totalChunks, ref, true);
    ref.finish();

    expectSameCacheStats(cache.hierarchy(), *ref.refCaches);

    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        EXPECT_EQ(mix.mix().count[c], ref.mixSum.count[c]);
    EXPECT_EQ(mix.fpInstructions(), ref.fpSum);

    EXPECT_EQ(br.branchCount(), ref.branchSum);
    EXPECT_EQ(br.takenCount(), ref.takenSum);
    EXPECT_EQ(br.dataDependentCount(), ref.dataDepSum);

    expectSameTiming(core.stats(), ref.refCore->timing);

    expectSameBbvs(bbv.vectors(), ref.bbvs);
}

TEST(ReferenceModel, SuiteStreamsMatchAllCacheAndIntervalCore)
{
    // The optimised hierarchy (the active set kernel's batch walk)
    // behind AllCacheTool
    // (Table I) and IntervalCoreTool (Table III), against the
    // reference models on real suite address streams under both
    // replacement policies: every per-level counter and every timing
    // field exactly equal.
    const u64 window = 1000;
    const ExperimentConfig paper = ExperimentConfig::paperDefaults();
    for (ReplacementPolicy pol :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
        HierarchyConfig caches = paper.allcache;
        MachineConfig machine = paper.machine;
        for (HierarchyConfig *h : {&caches, &machine.caches})
            for (CacheParams *p : {&h->l1i, &h->l1d, &h->l2, &h->l3})
                p->replacement = pol;

        for (const char *name :
             {"505.mcf_r", "503.bwaves_r", "502.gcc_r", "519.lbm_r"}) {
            SCOPED_TRACE(std::string(name) + " " +
                         replacementPolicyName(pol));
            BenchmarkSpec spec = benchmarkByName(name);

            AllCacheTool cache(caches);
            IntervalCoreTool core(machine);
            Engine engine;
            engine.attach(&cache);
            engine.attach(&core);
            SyntheticWorkload wlA(spec);
            engine.run(wlA, 0, window);

            SyntheticWorkload wlB(spec);
            AggregateCheckSink ref;
            ref.simulate(caches, machine);
            wlB.run(0, window, ref, true);

            expectSameCacheStats(cache.hierarchy(), *ref.refCaches);
            expectSameCacheStats(core.hierarchy(),
                                 ref.refCore->caches);
            expectSameTiming(core.stats(), ref.refCore->timing);
            // The stream reaches memory, so every level both hits
            // and misses.
            EXPECT_GT(core.stats().memAccesses, 0u);
            EXPECT_GT(core.stats().l3Hits, 0u);
        }
    }
}

/** Sink that checks the structural invariants of every batch. */
class InvariantSink : public EventSink
{
  public:
    void
    onBatch(const EventBatch &batch) override
    {
        ++batches;
        const std::size_t n = batch.numBlocks();
        ASSERT_GT(n, 0u);
        ASSERT_EQ(batch.offsets().size(), n + 1);
        ASSERT_EQ(batch.branches().size(), n);
        ASSERT_EQ(batch.branchValid().size(), n);
        ASSERT_EQ(batch.blocks().size(), n);
        EXPECT_EQ(batch.offsets().front(), 0u);
        // The pool view is exactly the used prefix: the arena's
        // reserved slack is not exposed.
        EXPECT_EQ(batch.offsets().back(), batch.accessPool().size());

        ICount instrSum = 0;
        std::size_t accSum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_LE(batch.offsets()[i], batch.offsets()[i + 1]);
            instrSum += batch.block(i).instrs;
            accSum += batch.accCount(i);
            // Element accessors agree with the raw arrays.
            EXPECT_EQ(&batch.block(i), &batch.blocks()[i]);
            if (batch.accCount(i) == 0) {
                EXPECT_EQ(batch.accs(i), nullptr);
            } else {
                EXPECT_EQ(batch.accs(i), batch.accessPool().data() +
                                             batch.offsets()[i]);
            }
            if (batch.branch(i)) {
                EXPECT_EQ(batch.branch(i), &batch.branches()[i]);
                EXPECT_TRUE(batch.block(i).endsInBranch);
            }
        }
        EXPECT_EQ(batch.instrs(), instrSum);
        EXPECT_EQ(batch.offsets().back(), accSum);
        totalInstrs += instrSum;
    }

    std::size_t batches = 0;
    ICount totalInstrs = 0;
};

TEST(EventBatching, BatchLayoutInvariants)
{
    BenchmarkSpec spec = smallSpec(64);
    SyntheticWorkload wl(spec);
    InvariantSink sink;
    wl.run(0, spec.totalChunks, sink, true);
    // One batch per chunk, covering the full instruction budget.
    EXPECT_EQ(sink.batches, spec.totalChunks);
    EXPECT_EQ(sink.totalInstrs, spec.totalChunks * spec.chunkLen);
}

TEST(EventBatching, ChunkAggregatesMatchPerBlockReduction)
{
    BenchmarkSpec spec = smallSpec(120);
    SyntheticWorkload wl(spec);
    AggregateCheckSink sink;
    wl.run(0, spec.totalChunks, sink, true);
    EXPECT_EQ(sink.batches, spec.totalChunks);

    // Single-chunk windows out of stream order refill an arena that
    // last held another chunk; the aggregates must still match.
    for (u64 c : {17ull, 0ull, 39ull})
        wl.run(c, 1, sink, true);
    EXPECT_EQ(sink.batches, spec.totalChunks + 3);
}

TEST(BbvToolT, HalfFullSliverBoundary)
{
    // 25 chunks at slice = 10 chunks leaves a final sliver with
    // inSlice * 2 == sliceInstrs exactly — the keep/drop boundary.
    // A half-full sliver is kept; just under half (24 chunks -> 0.4
    // of a slice) is dropped.  The chunk-aggregate BBV path must
    // agree with a per-block accumulation, and the kept vectors must
    // be bit-identical (it reassociates exact integer-valued doubles
    // only).
    for (u64 chunks : {u64{25}, u64{24}}) {
        BenchmarkSpec spec = smallSpec(chunks);
        const ICount slice = spec.chunkLen * 10;
        const std::size_t expectSlices = chunks == 25 ? 3 : 2;

        BbvTool batched(slice);
        Engine eb;
        eb.attach(&batched);
        SyntheticWorkload wlA(spec);
        eb.runWhole(wlA);

        SyntheticWorkload wlB(spec);
        AggregateCheckSink perBlock;
        perBlock.collectBbvs(wlB, slice);
        wlB.run(0, spec.totalChunks, perBlock, false);
        perBlock.finish();

        ASSERT_EQ(batched.vectors().size(), expectSlices)
            << chunks << " chunks";
        ASSERT_EQ(perBlock.bbvs.size(), expectSlices);
        expectSameBbvs(batched.vectors(), perBlock.bbvs);
    }
}

TEST(HierarchyWalk, BatchWalkMatchesReferenceWalk)
{
    // CacheHierarchy::walk under every set-kernel build against the
    // plain L1 -> L2 -> L3 walk over reference caches: the same level
    // for every fetch and every data access, and the same per-level
    // counters.  Random streams with a working set far above L1D
    // capacity keep every level hitting and missing; a flush between
    // two batches mid-stream checks the cold restart.
    for (const SetKernel &kernel : supportedSetKernels()) {
        for (const HierarchyConfig &base :
             {tableIConfig(), tableIIIConfig()}) {
            for (ReplacementPolicy pol :
                 {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
                SCOPED_TRACE(std::string(kernel.name) + " " +
                             base.l1d.name + " " +
                             replacementPolicyName(pol));
                HierarchyConfig cfg = base;
                for (CacheParams *p :
                     {&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.l3})
                    p->replacement = pol;

                CacheHierarchy hier(cfg);
                ReferenceHierarchy ref(cfg);
                u64 state = 0x9e3779b97f4a7c15ULL ^ cfg.contentHash();
                auto next = [&] {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    return state;
                };

                EventBatch batch;
                std::vector<HitLevel> fetch, data;
                for (int b = 0; b < 400; ++b) {
                    if (b == 200) {
                        hier.flush();
                        ref.flush();
                    }
                    batch.clear();
                    for (int blk = 0; blk < 64; ++blk) {
                        const std::size_t n = next() % 9;
                        MemAccess *accs = batch.reserveAccs(n);
                        for (std::size_t i = 0; i < n; ++i) {
                            u64 r = next();
                            accs[i].addr = (r % (256 * 1024)) & ~7ULL;
                            accs[i].isWrite = (r >> 21) & 1;
                        }
                        BlockRecord rec;
                        rec.pc = 0x400000 + (next() % (64 * 1024));
                        batch.push(rec, n, BranchRecord{}, false);
                    }
                    fetch.assign(batch.numBlocks(), HitLevel::L1);
                    data.assign(batch.accessPool().size(),
                                HitLevel::L1);
                    kernel.walk(hier, batch, fetch.data(), data.data());

                    for (std::size_t k = 0; k < batch.numBlocks(); ++k) {
                        ASSERT_EQ(
                            static_cast<int>(fetch[k]),
                            static_cast<int>(
                                ref.accessInstr(batch.block(k).pc)))
                            << "batch " << b << " block " << k;
                        const u32 first = batch.offsets()[k];
                        for (std::size_t i = 0; i < batch.accCount(k);
                             ++i) {
                            const MemAccess &acc = batch.accs(k)[i];
                            ASSERT_EQ(static_cast<int>(data[first + i]),
                                      static_cast<int>(ref.accessData(
                                          acc.addr, acc.isWrite)))
                                << "batch " << b << " block " << k
                                << " access " << i;
                        }
                    }
                }

                expectSameCacheStats(hier, ref);
                // Every level both hit and missed.
                for (CacheLevel l : {CacheLevel::L1D, CacheLevel::L2,
                                     CacheLevel::L3}) {
                    const CacheStats &st = hier.levelStats(l);
                    EXPECT_GT(st.misses, 0u) << cacheLevelName(l);
                    EXPECT_GT(st.accesses, st.misses)
                        << cacheLevelName(l);
                }
            }
        }
    }
}

TEST(EventBatching, EngineCountsBatches)
{
    obs::resetCounters();
    SyntheticWorkload wl(smallSpec(50));
    LdStMixTool mix;
    Engine engine;
    engine.attach(&mix);
    engine.runWhole(wl);
    auto counters = obs::counterSnapshot();
    EXPECT_EQ(counters.at("pin.batches"), 50u);
    EXPECT_GT(counters.at("pin.batch_blocks"), 50u);
    EXPECT_EQ(counters.at("pin.instrs"), 50000u);
}


TEST(CacheFastPath, MruProbeMatchesReference)
{
    // Every set-kernel build against the full-scan reference model:
    // identical hit sequences and counters under both policies, for
    // direct-mapped through 64-way sets and a fully associative
    // cache whose 24 ways fill no whole vector register.
    struct Geometry
    {
        u64 sizeBytes;
        u32 ways;
    };
    std::vector<Geometry> geometries;
    for (u32 ways : {1u, 2u, 4u, 8u, 16u, 32u, 64u})
        geometries.push_back({16 * 1024, ways});
    geometries.push_back({24 * 64, 24}); // one set
    for (const SetKernel &kernel : supportedSetKernels()) {
        for (ReplacementPolicy pol :
             {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
            for (const Geometry &g : geometries) {
                CacheParams p;
                p.name = "fastpath-test";
                p.sizeBytes = g.sizeBytes;
                p.ways = g.ways;
                p.lineBytes = 64;
                p.replacement = pol;
                const std::string what =
                    std::string(kernel.name) + " " +
                    replacementPolicyName(pol) + " ways " +
                    std::to_string(g.ways);

                SetAssocCache fast(p);
                ReferenceCache ref(p);

                u64 state = 0x12345678 + g.ways;
                for (int i = 0; i < 100000; ++i) {
                    // xorshift64 over four times the capacity, so
                    // sets collide and hits land on every way.
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    Addr addr = (state % (4 * g.sizeBytes)) & ~7ULL;
                    bool isWrite = (state >> 20) & 1;
                    ASSERT_EQ(kernel.access(fast, addr, isWrite),
                              ref.access(addr, isWrite))
                        << "access " << i << " " << what;
                }
                const CacheStats &s = fast.statsRef();
                expectSameStats(s, ref.stats, what);
                EXPECT_GT(s.accesses, s.misses) << what; // hits occurred
            }
        }
    }
}

std::vector<u8>
cacheBytesNoWall(const CacheRunMetrics &m)
{
    ByteWriter w;
    w.put<u64>(m.instrs);
    for (double f : m.mixFrac)
        w.put<double>(f);
    for (const LevelCounts *lc : {&m.l1i, &m.l1d, &m.l2, &m.l3}) {
        w.put<u64>(lc->accesses);
        w.put<u64>(lc->misses);
    }
    w.put<u64>(m.branches);
    return w.bytes();
}

std::vector<u8>
timingBytesNoWall(const TimingRunMetrics &m)
{
    ByteWriter w;
    w.put<u64>(m.instrs);
    w.put<double>(m.cycles);
    w.put<u64>(m.branches);
    w.put<u64>(m.mispredicts);
    w.put<u64>(m.l2Hits);
    w.put<u64>(m.l3Hits);
    w.put<u64>(m.memAccesses);
    return w.bytes();
}

TEST(FusedWholeRun, MatchesSeparatePasses)
{
    BenchmarkSpec spec = smallSpec(250);
    HierarchyConfig caches = tableIConfig();
    MachineConfig machine = tableIIIMachine();
    const ICount slice = spec.chunkLen * 10;

    FusedWholeResult fused =
        measureWholeFused(spec, caches, machine, slice);
    CacheRunMetrics cacheOnly = measureWholeCache(spec, caches);
    TimingRunMetrics timingOnly = measureWholeTiming(spec, machine);

    EXPECT_EQ(cacheBytesNoWall(fused.cache),
              cacheBytesNoWall(cacheOnly));
    EXPECT_EQ(timingBytesNoWall(fused.timing),
              timingBytesNoWall(timingOnly));

    // The piggy-backed BBV pass matches a dedicated BBV tool run.
    SyntheticWorkload wl(spec);
    BbvTool bbv(slice);
    Engine engine;
    engine.attach(&bbv);
    engine.runWhole(wl);
    ASSERT_EQ(fused.bbvs.size(), bbv.vectors().size());
    for (std::size_t s = 0; s < fused.bbvs.size(); ++s) {
        const auto &ea = fused.bbvs[s].entries;
        const auto &eb = bbv.vectors()[s].entries;
        ASSERT_EQ(ea.size(), eb.size());
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].block, eb[i].block);
            EXPECT_FLOAT_EQ(ea[i].weight, eb[i].weight);
        }
    }
}

TEST(FusedWholeRun, GraphProjectionsShareOneTraversal)
{
    const std::string bench = "505.mcf_r";
    obs::resetCounters();
    ArtifactGraph g(ExperimentConfig::paperDefaults(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    const CacheRunMetrics &wc = g.wholeCache(bench);
    const TimingRunMetrics &wt = g.wholeTiming(bench);
    const FusedWholeMetrics &fused = g.wholeFused(bench);

    // Projections are the fused node's fields, not re-measurements.
    EXPECT_EQ(cacheBytesNoWall(wc), cacheBytesNoWall(fused.cache));
    EXPECT_EQ(timingBytesNoWall(wt),
              timingBytesNoWall(fused.timing));
    auto counters = obs::counterSnapshot();
    // spec + fused + two projections; one engine window total.
    EXPECT_EQ(counters.at("graph.nodes_computed"), 4u);
    EXPECT_EQ(counters.at("pin.windows"), 1u);
}

TEST(RegionalPinball, SharedCaptureAcrossReplayKinds)
{
    // The whole-pinball capture happens once per benchmark even when
    // cold cache, warm cache and timing replays are all requested —
    // the RegionalPinball artifact is their shared upstream.
    const std::vector<std::string> benches = {"505.mcf_r"};
    ExperimentConfig cfg = ExperimentConfig::paperDefaults();
    cfg.simpoint.maxK = 4;
    obs::resetCounters();
    ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    g.runSuite(benches, {ArtifactKind::PointsCacheCold,
                         ArtifactKind::PointsCacheWarm,
                         ArtifactKind::PointsTiming});
    auto counters = obs::counterSnapshot();
    EXPECT_EQ(counters.at("pinball.whole_captured"), 1u);
}

/** Serialize a batch's full event content plus its aggregates. */
std::vector<u8>
batchBytes(const EventBatch &batch)
{
    ByteWriter w;
    w.put<u64>(batch.numBlocks());
    for (std::size_t i = 0; i < batch.numBlocks(); ++i) {
        const BlockRecord &rec = batch.block(i);
        w.put<u32>(rec.bb);
        w.put<u64>(rec.pc);
        w.put<u32>(rec.instrs);
        for (ICount c : rec.mix.count)
            w.put<u64>(c);
        w.put<u32>(rec.fpInstrs);
        w.put<u8>(rec.endsInBranch ? 1 : 0);
        w.put<u64>(batch.accCount(i));
        const MemAccess *accs = batch.accs(i);
        for (std::size_t k = 0; k < batch.accCount(i); ++k) {
            w.put<u64>(accs[k].addr);
            w.put<u8>(accs[k].size);
            w.put<u8>(accs[k].isWrite ? 1 : 0);
        }
        const BranchRecord *br = batch.branch(i);
        w.put<u8>(br ? 1 : 0);
        if (br) {
            w.put<u64>(br->pc);
            w.put<u8>(br->taken ? 1 : 0);
            w.put<u8>(br->dataDependent ? 1 : 0);
        }
    }
    w.put<u64>(batch.instrs());
    for (ICount c : batch.mixTotal().count)
        w.put<u64>(c);
    w.put<u64>(batch.fpTotal());
    w.put<u64>(batch.branchTotal());
    w.put<u64>(batch.takenTotal());
    w.put<u64>(batch.dataDependentTotal());
    w.put<u64>(batch.touchedBlocks().size());
    for (u32 bb : batch.touchedBlocks()) {
        w.put<u32>(bb);
        w.put<u64>(batch.blockInstrSum(bb));
    }
    return w.bytes();
}

/** Sink keeping the last delivered batch: its bytes, read from the
 *  workload's own arena, and a copy to refill other arenas from. */
class LastBatchSink : public EventSink
{
  public:
    void
    onBatch(const EventBatch &batch) override
    {
        bytes = batchBytes(batch);
        copy = batch;
    }

    std::vector<u8> bytes;
    EventBatch copy;
};

/** Clear @p dst and refill it with @p src's blocks via push(). */
void
refill(EventBatch &dst, const EventBatch &src)
{
    dst.clear();
    for (std::size_t i = 0; i < src.numBlocks(); ++i) {
        const std::size_t n = src.accCount(i);
        std::copy_n(src.accs(i), n, dst.reserveAccs(n));
        const BranchRecord *br = src.branch(i);
        dst.push(src.block(i), n, br ? *br : BranchRecord{},
                 br != nullptr);
    }
}

TEST(ArenaReuse, PoisonedBatchRefillsClean)
{
    // A reused arena must not inherit anything from its previous
    // occupant.  Reference: chunk 17 from a fresh workload.
    BenchmarkSpec spec = smallSpec(50);
    LastBatchSink fresh;
    SyntheticWorkload(spec).run(17, 1, fresh, true);
    const std::vector<u8> want = fresh.bytes;

    // The workload's own arena, after other windows grew and dirtied
    // it, delivers chunk 17 byte-identically.
    SyntheticWorkload wl(spec);
    LastBatchSink sink;
    wl.run(30, 20, sink, true);
    wl.run(0, 17, sink, true);
    wl.run(17, 1, sink, true);
    EXPECT_EQ(sink.bytes, want);

    // Scribble garbage into an arena — junk blocks, accesses,
    // branches, finalized aggregates, touched-block sums — then
    // clear() and refill it with chunk 17.
    EventBatch reused;
    std::mt19937_64 rng(1);
    for (int round = 0; round < 3; ++round) {
        // High block ids grow blockSums past anything chunk 17
        // touches.
        reused.clear();
        for (std::size_t i = 0; i < 500; ++i) {
            BlockRecord r;
            r.bb = static_cast<u32>(rng() % 4096);
            r.pc = rng();
            r.instrs = 1 + static_cast<u32>(rng() % 50);
            for (std::size_t m = 0; m < r.mix.count.size(); ++m)
                r.mix.count[m] = rng() % 23;
            r.fpInstrs = static_cast<u32>(rng() % 7);
            std::size_t nAccs = rng() % 4;
            MemAccess *accs = reused.reserveAccs(nAccs);
            for (std::size_t k = 0; k < nAccs; ++k) {
                accs[k].addr = rng();
                accs[k].size = 8;
                accs[k].isWrite = (rng() & 1) != 0;
            }
            BranchRecord br;
            br.pc = rng();
            br.taken = (rng() & 1) != 0;
            br.dataDependent = (rng() & 1) != 0;
            bool hasBr = (rng() & 1) != 0;
            r.endsInBranch = hasBr;
            reused.push(r, nAccs, br, hasBr);
        }
        reused.finalizeAggregates(); // cache junk aggregates too

        refill(reused, fresh.copy);
        EXPECT_EQ(batchBytes(reused), want) << "round " << round;
    }
}

} // namespace
} // namespace splab
