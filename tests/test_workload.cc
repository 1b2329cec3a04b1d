/**
 * @file
 * Unit and invariant tests for the synthetic workload substrate:
 * kernels, schedules, phases and the chunk-deterministic executor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "support/rng.hh"
#include "support/serialize.hh"
#include "workload/kernels.hh"
#include "workload/schedule.hh"
#include "workload/suite.hh"
#include "workload/synthetic.hh"

namespace splab
{
namespace
{

KernelConfig
kernelConfig(KernelKind kind, u64 ws = 1 << 20)
{
    KernelConfig c;
    c.kind = kind;
    c.base = 0x200000000ULL;
    c.workingSet = ws;
    return c;
}

TEST(Kernels, AllKindsStayInsideWorkingSet)
{
    for (u8 k = 0; k < kNumKernelKinds; ++k) {
        KernelConfig c =
            kernelConfig(static_cast<KernelKind>(k), 1 << 20);
        auto kern = makeKernel(c, 99);
        for (u64 chunk : {0ULL, 5ULL, 1000ULL}) {
            kern->beginChunk(chunk);
            for (int i = 0; i < 500; ++i) {
                Addr r = kern->nextRead();
                Addr w = kern->nextWrite();
                EXPECT_GE(r, c.base) << kernelKindName(c.kind);
                EXPECT_LT(r, c.base + c.workingSet)
                    << kernelKindName(c.kind);
                EXPECT_GE(w, c.base) << kernelKindName(c.kind);
                EXPECT_LT(w, c.base + c.workingSet)
                    << kernelKindName(c.kind);
            }
        }
    }
}

TEST(Kernels, ChunkStreamsAreDeterministic)
{
    for (u8 k = 0; k < kNumKernelKinds; ++k) {
        KernelConfig c = kernelConfig(static_cast<KernelKind>(k));
        auto k1 = makeKernel(c, 7);
        auto k2 = makeKernel(c, 7);
        // Execute different histories, then the same chunk: streams
        // must match (slice-addressable determinism).
        k1->beginChunk(3);
        for (int i = 0; i < 100; ++i)
            k1->nextRead();
        k1->beginChunk(17);
        k2->beginChunk(17);
        for (int i = 0; i < 200; ++i) {
            EXPECT_EQ(k1->nextRead(), k2->nextRead())
                << kernelKindName(c.kind);
            EXPECT_EQ(k1->nextWrite(), k2->nextWrite())
                << kernelKindName(c.kind);
        }
    }
}

TEST(Kernels, SeedChangesTheStream)
{
    KernelConfig c = kernelConfig(KernelKind::RandomUniform);
    auto k1 = makeKernel(c, 1);
    auto k2 = makeKernel(c, 2);
    k1->beginChunk(0);
    k2->beginChunk(0);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += k1->nextRead() == k2->nextRead();
    EXPECT_LT(same, 5);
}

TEST(Kernels, StreamKernelIsSequential)
{
    KernelConfig c = kernelConfig(KernelKind::Stream);
    auto k = makeKernel(c, 3);
    k->beginChunk(0);
    Addr prev = k->nextRead();
    for (int i = 0; i < 100; ++i) {
        Addr a = k->nextRead();
        EXPECT_EQ(a, prev + 8);
        prev = a;
    }
}

TEST(Kernels, PointerChaseVisitsManyDistinctLines)
{
    KernelConfig c = kernelConfig(KernelKind::PointerChase, 1 << 18);
    auto k = makeKernel(c, 3);
    k->beginChunk(0);
    std::set<Addr> lines;
    for (int i = 0; i < 2000; ++i)
        lines.insert(k->nextRead() / 64);
    // A dependent chain over 4096 slots should not revisit early.
    EXPECT_GT(lines.size(), 1500u);
}

TEST(Kernels, ZipfConcentratesInHotSet)
{
    KernelConfig c = kernelConfig(KernelKind::ZipfHotCold, 1 << 24);
    c.hotFraction = 0.01;
    c.hotProbability = 0.9;
    auto k = makeKernel(c, 3);
    k->beginChunk(0);
    u64 hot = 0, n = 20000;
    for (u64 i = 0; i < n; ++i) {
        Addr a = k->nextRead() - c.base;
        if (a < (1 << 18)) // 1% of 16 MiB, rounded to a power of 2
            ++hot;
    }
    EXPECT_GT(static_cast<double>(hot) / static_cast<double>(n), 0.8);
}

/**
 * The per-access fill that AddressKernel::fillBlock replaced, kept as
 * its oracle: for each access in stream order, one locality draw
 * and then either the next stack slot or one virtual
 * nextRead()/nextWrite() call.
 */
void
referenceFill(AddressKernel &kernel, Rng &memRng, double localFraction,
              Addr stackBase, u64 &stackCursor, u32 reads, u32 writes,
              MemAccess *out)
{
    auto nextLocal = [&] {
        Addr a = stackBase +
                 (stackCursor & (LocalityStream::kStackBytes - 1));
        stackCursor += 8;
        return a;
    };
    std::size_t n = 0;
    u32 r = 0, w = 0;
    while (r < reads || w < writes) {
        bool doRead = w >= writes ||
                      (r < reads && static_cast<u64>(r) * writes <=
                                        static_cast<u64>(w) * reads);
        MemAccess &a = out[n++];
        bool local = memRng.chance(localFraction);
        if (doRead) {
            a.addr = local ? nextLocal() : kernel.nextRead();
            a.isWrite = false;
            ++r;
        } else {
            a.addr = local ? nextLocal() : kernel.nextWrite();
            a.isWrite = true;
            ++w;
        }
        a.size = 8;
    }
}

TEST(Kernels, FillBlockMatchesPerAccessReference)
{
    const double fractions[] = {0.0, 0.6, 1.0, -0.5, 1.5,
                                std::nan("")};
    for (u8 k = 0; k < kNumKernelKinds; ++k) {
        KernelConfig c = kernelConfig(static_cast<KernelKind>(k));
        for (double f : fractions) {
            auto ref = makeKernel(c, 11);
            auto fast = makeKernel(c, 11);
            LocalityStream loc;
            loc.threshold = Rng::chanceThreshold(f);
            loc.stackBase = 0x7f0000000000ULL;
            Rng refRng;
            u64 refCursor = 0;
            Rng shapes(k, 0x5eedULL);
            for (u64 chunk : {0ULL, 3ULL, 977ULL}) {
                ref->beginChunk(chunk);
                fast->beginChunk(chunk);
                refRng = loc.rng = Rng(42, chunk);
                refCursor = loc.stackCursor = 0;
                for (int block = 0; block < 150; ++block) {
                    // Mostly small blocks, some empty or read- or
                    // write-only ones, and the largest allowed.
                    u32 reads = static_cast<u32>(shapes.below(40));
                    u32 writes = static_cast<u32>(shapes.below(24));
                    if (block % 50 == 7) {
                        reads = 700;
                        writes = static_cast<u32>(
                            AddressKernel::kMaxBlockAccesses - 700);
                    }
                    std::size_t n = std::size_t{reads} + writes;
                    std::vector<MemAccess> want(n), got(n);
                    referenceFill(*ref, refRng, f, loc.stackBase,
                                  refCursor, reads, writes,
                                  want.data());
                    fast->fillBlock(reads, writes, loc, got.data());
                    for (std::size_t i = 0; i < n; ++i) {
                        ASSERT_EQ(got[i].addr, want[i].addr)
                            << kernelKindName(c.kind) << " f=" << f
                            << " chunk " << chunk << " block "
                            << block << " access " << i;
                        ASSERT_EQ(got[i].isWrite, want[i].isWrite);
                        ASSERT_EQ(got[i].size, want[i].size);
                    }
                }
                EXPECT_EQ(loc.stackCursor, refCursor);
                EXPECT_EQ(loc.rng.next(), refRng.next());
            }
        }
    }
}

TEST(Schedule, ContiguousCoversInOrder)
{
    PhaseSchedule s(ScheduleKind::Contiguous, {0.5, 0.3, 0.2}, 1000,
                    0, 1);
    EXPECT_EQ(s.phaseOf(0), 0u);
    EXPECT_EQ(s.phaseOf(499), 0u);
    EXPECT_EQ(s.phaseOf(500), 1u);
    EXPECT_EQ(s.phaseOf(999), 2u);
    auto w = s.realizedWeights();
    EXPECT_NEAR(w[0], 0.5, 0.01);
    EXPECT_NEAR(w[1], 0.3, 0.01);
    EXPECT_NEAR(w[2], 0.2, 0.01);
}

TEST(Schedule, InterleavedRotates)
{
    PhaseSchedule s(ScheduleKind::Interleaved, {0.5, 0.5}, 1000, 10,
                    1);
    // Must alternate between the two phases repeatedly.
    int transitions = 0;
    for (u64 c = 1; c < 1000; ++c)
        transitions += s.phaseOf(c) != s.phaseOf(c - 1);
    EXPECT_GT(transitions, 10);
    auto w = s.realizedWeights();
    EXPECT_NEAR(w[0], 0.5, 0.05);
}

TEST(Schedule, MarkovRealizesWeights)
{
    std::vector<double> target = {0.6, 0.25, 0.1, 0.05};
    PhaseSchedule s(ScheduleKind::Markov, target, 200000, 50, 7);
    auto w = s.realizedWeights();
    ASSERT_EQ(w.size(), target.size());
    for (std::size_t p = 0; p < target.size(); ++p)
        EXPECT_NEAR(w[p], target[p], 0.05) << "phase " << p;
}

TEST(Schedule, MarkovIsDeterministicInSeed)
{
    PhaseSchedule a(ScheduleKind::Markov, {0.4, 0.6}, 5000, 30, 9);
    PhaseSchedule b(ScheduleKind::Markov, {0.4, 0.6}, 5000, 30, 9);
    ASSERT_EQ(a.segments().size(), b.segments().size());
    for (std::size_t i = 0; i < a.segments().size(); ++i) {
        EXPECT_EQ(a.segments()[i].firstChunk,
                  b.segments()[i].firstChunk);
        EXPECT_EQ(a.segments()[i].phase, b.segments()[i].phase);
    }
}

TEST(Schedule, PhaseOfMatchesSegments)
{
    PhaseSchedule s(ScheduleKind::Markov, {0.3, 0.3, 0.4}, 10000, 40,
                    11);
    const auto &segs = s.segments();
    for (std::size_t i = 0; i + 1 < segs.size(); i += 7) {
        EXPECT_EQ(s.phaseOf(segs[i].firstChunk), segs[i].phase);
        if (segs[i + 1].firstChunk > 0) {
            EXPECT_EQ(s.phaseOf(segs[i + 1].firstChunk - 1),
                      segs[i].phase);
        }
    }
}

BenchmarkSpec
tinySpec(u64 chunks = 500)
{
    BenchmarkSpec spec;
    spec.name = "tiny";
    spec.seed = 1234;
    spec.totalChunks = chunks;
    spec.chunkLen = 1000;
    PhaseSpec a;
    a.name = "hot";
    a.weight = 0.7;
    a.kernel = KernelKind::ZipfHotCold;
    a.workingSetBytes = 1 << 20;
    PhaseSpec b;
    b.name = "scan";
    b.weight = 0.3;
    b.kernel = KernelKind::Stream;
    b.workingSetBytes = 8 << 20;
    b.numBlocks = 10;
    spec.phases = {a, b};
    spec.schedule = ScheduleKind::Markov;
    spec.dwellChunks = 25;
    return spec;
}

/** Records the full event stream for equality comparison. */
class RecordingSink : public EventSink
{
  public:
    struct Event
    {
        BlockRecord rec;
        std::vector<MemAccess> accs;
        bool hasBranch = false;
        BranchRecord br;
    };

    void
    onBatch(const EventBatch &batch) override
    {
        for (std::size_t i = 0; i < batch.numBlocks(); ++i) {
            Event e;
            e.rec = batch.block(i);
            e.accs.assign(batch.accs(i),
                          batch.accs(i) + batch.accCount(i));
            if (const BranchRecord *br = batch.branch(i)) {
                e.hasBranch = true;
                e.br = *br;
            }
            events.push_back(std::move(e));
        }
    }

    std::vector<Event> events;
};

bool
sameStream(const std::vector<RecordingSink::Event> &a,
           const std::vector<RecordingSink::Event> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.rec.bb != y.rec.bb || x.rec.instrs != y.rec.instrs ||
            x.accs.size() != y.accs.size() ||
            x.hasBranch != y.hasBranch)
            return false;
        for (std::size_t j = 0; j < x.accs.size(); ++j)
            if (x.accs[j].addr != y.accs[j].addr ||
                x.accs[j].isWrite != y.accs[j].isWrite)
                return false;
        if (x.hasBranch &&
            (x.br.taken != y.br.taken || x.br.pc != y.br.pc))
            return false;
    }
    return true;
}

TEST(SyntheticWorkload, ChunksAreInstructionExact)
{
    SyntheticWorkload wl(tinySpec(50));
    RecordingSink sink;
    wl.run(0, 50, sink, true);
    ICount total = 0;
    for (const auto &e : sink.events)
        total += e.rec.instrs;
    EXPECT_EQ(total, 50u * 1000u);
}

TEST(SyntheticWorkload, ReplayIsBitIdentical)
{
    SyntheticWorkload wl1(tinySpec());
    SyntheticWorkload wl2(tinySpec());
    RecordingSink s1, s2;
    wl1.run(100, 40, s1, true);
    wl2.run(100, 40, s2, true);
    EXPECT_TRUE(sameStream(s1.events, s2.events));
}

TEST(SyntheticWorkload, RegionMatchesFullRunWindow)
{
    // The heart of pinball correctness: executing [120, 140) alone
    // yields exactly the same events as that window inside a full
    // run.
    SyntheticWorkload full(tinySpec(200));
    RecordingSink sFull;
    full.run(0, 200, sFull, true);

    SyntheticWorkload regional(tinySpec(200));
    RecordingSink sRegion;
    regional.run(120, 20, sRegion, true);

    // Locate the window inside the full stream by instruction count.
    std::vector<RecordingSink::Event> window;
    ICount icount = 0;
    for (const auto &e : sFull.events) {
        if (icount >= 120000 && icount < 140000)
            window.push_back(e);
        icount += e.rec.instrs;
    }
    EXPECT_TRUE(sameStream(window, sRegion.events));
}

TEST(SyntheticWorkload, BlockIdsWithinStaticTable)
{
    SyntheticWorkload wl(tinySpec(100));
    RecordingSink sink;
    wl.run(0, 100, sink, false);
    for (const auto &e : sink.events)
        EXPECT_LT(e.rec.bb, wl.numStaticBlocks());
}

TEST(SyntheticWorkload, MixTracksPhaseProfiles)
{
    SyntheticWorkload wl(tinySpec(500));
    RecordingSink sink;
    wl.run(0, 500, sink, false);
    InstrMix mix;
    for (const auto &e : sink.events)
        mix += e.rec.mix;
    auto f = mix.fractions();
    // Both phases use the default profile (~50/35/13/2).
    EXPECT_NEAR(f[0], 0.50, 0.08);
    EXPECT_NEAR(f[1], 0.35, 0.08);
    EXPECT_NEAR(f[2], 0.13, 0.05);
}

TEST(SyntheticWorkload, AddressGenerationToggleKeepsBlocks)
{
    SyntheticWorkload a(tinySpec(30)), b(tinySpec(30));
    RecordingSink sa, sb;
    a.run(0, 30, sa, true);
    b.run(0, 30, sb, false);
    ASSERT_EQ(sa.events.size(), sb.events.size());
    for (std::size_t i = 0; i < sa.events.size(); ++i) {
        EXPECT_EQ(sa.events[i].rec.bb, sb.events[i].rec.bb);
        EXPECT_EQ(sa.events[i].rec.instrs, sb.events[i].rec.instrs);
        EXPECT_TRUE(sb.events[i].accs.empty());
    }
}

TEST(SyntheticWorkload, PhasesUseDisjointBlocks)
{
    SyntheticWorkload wl(tinySpec(400));
    // Map observed blocks to the phase executing at that chunk.
    std::map<u32, std::set<u32>> phaseBlocks;
    class PhaseSink : public EventSink
    {
      public:
        PhaseSink(SyntheticWorkload &w,
                  std::map<u32, std::set<u32>> &m)
            : wl(w), map(m)
        {}
        void
        onBatch(const EventBatch &batch) override
        {
            for (const BlockRecord &rec : batch.blocks()) {
                u64 chunk = icount / wl.chunkLen();
                map[wl.phaseAt(chunk)].insert(rec.bb);
                icount += rec.instrs;
            }
        }
        SyntheticWorkload &wl;
        std::map<u32, std::set<u32>> &map;
        ICount icount = 0;
    } sink(wl, phaseBlocks);
    wl.run(0, 400, sink, false);

    ASSERT_EQ(phaseBlocks.size(), 2u);
    for (u32 b : phaseBlocks[0])
        EXPECT_EQ(phaseBlocks[1].count(b), 0u);
}

TEST(BenchmarkSpec, SerializeRoundTrip)
{
    BenchmarkSpec s = tinySpec();
    ByteWriter w;
    s.serialize(w);
    ByteReader r(w.bytes());
    BenchmarkSpec t = BenchmarkSpec::deserialize(r);
    EXPECT_EQ(t.name, s.name);
    EXPECT_EQ(t.totalChunks, s.totalChunks);
    EXPECT_EQ(t.phases.size(), s.phases.size());
    EXPECT_EQ(t.contentHash(), s.contentHash());
}

TEST(BenchmarkSpec, HashSensitiveToContent)
{
    BenchmarkSpec a = tinySpec();
    BenchmarkSpec b = tinySpec();
    b.phases[0].workingSetBytes *= 2;
    EXPECT_NE(a.contentHash(), b.contentHash());
    BenchmarkSpec c = tinySpec();
    c.seed += 1;
    EXPECT_NE(a.contentHash(), c.contentHash());
}

} // namespace
} // namespace splab
