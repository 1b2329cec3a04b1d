/**
 * @file
 * Unit tests for the pinball checkpoint format, logger and replayer.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "pin/tools/inscount.hh"
#include "pinball/logger.hh"
#include "support/serialize.hh"
#include "pinball/replayer.hh"
#include "simpoint/simpoint.hh"

namespace splab
{
namespace
{

BenchmarkSpec
spec(u64 chunks = 400)
{
    BenchmarkSpec s;
    s.name = "pinball-test";
    s.seed = 4242;
    s.totalChunks = chunks;
    s.chunkLen = 1000;
    PhaseSpec a;
    a.weight = 0.5;
    a.kernel = KernelKind::ZipfHotCold;
    PhaseSpec b;
    b.weight = 0.5;
    b.kernel = KernelKind::Stream;
    b.numBlocks = 12;
    s.phases = {a, b};
    s.schedule = ScheduleKind::Markov;
    s.dwellChunks = 40;
    return s;
}

SimPointResult
fakeSimPoints(u64 totalSlices)
{
    SimPointResult r;
    r.chosenK = 3;
    r.totalSlices = totalSlices;
    r.sliceInstrs = 10000;
    r.points = {{2, 0.5, 0, totalSlices / 2},
                {10, 0.3, 1, totalSlices * 3 / 10},
                {30, 0.2, 2, totalSlices / 5}};
    return r;
}

TEST(Pinball, WholeCapture)
{
    SyntheticWorkload wl(spec());
    Pinball p = Logger::captureWhole(wl);
    EXPECT_EQ(p.kind(), PinballKind::Whole);
    ASSERT_EQ(p.regions().size(), 1u);
    EXPECT_EQ(p.regions()[0].numChunks, 400u);
    EXPECT_EQ(p.coveredInstrs(), 400000u);
}

TEST(Pinball, RegionalFromSimPoints)
{
    SyntheticWorkload wl(spec());
    Pinball whole = Logger::captureWhole(wl);
    Pinball regional =
        Logger::makeRegional(whole, fakeSimPoints(40));
    EXPECT_EQ(regional.kind(), PinballKind::Regional);
    ASSERT_EQ(regional.regions().size(), 3u);
    EXPECT_EQ(regional.regions()[0].firstChunk, 20u); // slice 2 * 10
    EXPECT_EQ(regional.regions()[0].numChunks, 10u);
    EXPECT_DOUBLE_EQ(regional.regions()[0].weight, 0.5);
    EXPECT_EQ(regional.coveredInstrs(), 30000u);
}

TEST(Pinball, SaveLoadRoundTrip)
{
    std::string path = testing::TempDir() + "/test.pinball";
    SyntheticWorkload wl(spec());
    Pinball whole = Logger::captureWhole(wl, /*verify=*/true);
    Pinball regional =
        Logger::makeRegional(whole, fakeSimPoints(40));
    regional.save(path);

    Pinball loaded = Pinball::load(path);
    EXPECT_EQ(loaded.kind(), PinballKind::Regional);
    EXPECT_EQ(loaded.spec().contentHash(),
              regional.spec().contentHash());
    ASSERT_EQ(loaded.regions().size(), 3u);
    EXPECT_EQ(loaded.regions()[1].firstChunk, 100u);
    EXPECT_DOUBLE_EQ(loaded.regions()[1].weight, 0.3);
    std::remove(path.c_str());
}

TEST(Pinball, LoadRejectsGarbage)
{
    std::string path = testing::TempDir() + "/garbage.pinball";
    ByteWriter w;
    w.putString("this is not a pinball");
    ASSERT_TRUE(w.saveFile(path));
    EXPECT_DEATH((void)Pinball::load(path), "not a pinball");
    std::remove(path.c_str());
}

TEST(Replayer, RegionInstructionCounts)
{
    SyntheticWorkload wl(spec());
    Pinball regional = Logger::makeRegional(
        Logger::captureWhole(wl), fakeSimPoints(40));
    Replayer rep(regional);
    InsCountTool count;
    Engine engine;
    engine.attach(&count);
    EXPECT_EQ(rep.replayRegion(0, engine), 10000u);
    EXPECT_EQ(rep.replayAll(engine), 30000u);
}

TEST(Replayer, ReplayMatchesOriginalStream)
{
    // Checksum of a replayed region equals the checksum of the same
    // window of the original workload.
    SyntheticWorkload original(spec());
    u64 direct = Logger::streamChecksum(original, 100, 10);

    Pinball regional = Logger::makeRegional(
        Logger::captureWhole(original), fakeSimPoints(40));
    Replayer rep(regional);
    u64 replayed =
        Logger::streamChecksum(rep.workload(), 100, 10);
    EXPECT_EQ(direct, replayed);
}

TEST(Replayer, ChecksumVerification)
{
    SyntheticWorkload wl(spec(100));
    Pinball whole = Logger::captureWhole(wl, /*verify=*/true);
    EXPECT_NE(whole.streamChecksum(), 0u);
    Replayer rep(whole);
    EXPECT_TRUE(rep.verifyChecksum());
}

TEST(Replayer, WarmupClampedAtRunStart)
{
    SimPointResult sp;
    sp.totalSlices = 40;
    sp.sliceInstrs = 10000;
    sp.points = {{1, 1.0, 0, 40}}; // region starts at chunk 10
    SyntheticWorkload wl(spec());
    Pinball regional =
        Logger::makeRegional(Logger::captureWhole(wl), sp);
    Replayer rep(regional);
    Engine engine;
    // Ask for more warm-up than exists before the region.
    EXPECT_EQ(rep.replayWarmup(0, 1000, engine), 10000u);
    // Region at chunk 0 has no warm-up at all.
    SimPointResult sp0;
    sp0.totalSlices = 40;
    sp0.sliceInstrs = 10000;
    sp0.points = {{0, 1.0, 0, 40}};
    SyntheticWorkload wl2(spec());
    Replayer rep0(
        Logger::makeRegional(Logger::captureWhole(wl2), sp0));
    EXPECT_EQ(rep0.replayWarmup(0, 1000, engine), 0u);
}

TEST(Logger, ChecksumPinned)
{
    // Relative equality cannot see a reordered fold (block id and
    // length, then the accesses, then the branch, block by block);
    // a pinned value can.  Changing it invalidates every stored
    // pinball checksum.
    SyntheticWorkload wl(spec());
    EXPECT_EQ(Logger::streamChecksum(wl, 100, 10),
              8132985435606576386ULL);
}

TEST(Logger, ChecksumPinnedPerKernelKind)
{
    // One single-phase workload per address kernel: pins each
    // kernel's part of the generated stream (addresses, locality
    // mix, read/write interleaving) the way ChecksumPinned pins the
    // fold.
    const u64 pinned[kNumKernelKinds] = {
        12037504942769927890ULL, // stream
        7289711519153254329ULL,  // strided
        5570501479073192999ULL,  // pointer-chase
        11695934649099120760ULL, // zipf-hot-cold
        17626661927976558803ULL, // stencil
        2914456770770788930ULL,  // blocked
        3783160621959279766ULL,  // random-uniform
    };
    for (u8 k = 0; k < kNumKernelKinds; ++k) {
        BenchmarkSpec s;
        s.name = "one-phase";
        s.seed = 2024;
        s.totalChunks = 64;
        s.chunkLen = 1000;
        PhaseSpec p;
        p.kernel = static_cast<KernelKind>(k);
        p.workingSetBytes = 256 << 10;
        s.phases = {p};
        SyntheticWorkload wl(s);
        EXPECT_EQ(Logger::streamChecksum(wl, 0, 64), pinned[k])
            << kernelKindName(p.kernel);
    }
}

TEST(Logger, ChecksumSensitiveToWindow)
{
    SyntheticWorkload wl(spec());
    EXPECT_NE(Logger::streamChecksum(wl, 0, 10),
              Logger::streamChecksum(wl, 10, 10));
    EXPECT_EQ(Logger::streamChecksum(wl, 0, 10),
              Logger::streamChecksum(wl, 0, 10));
}

} // namespace
} // namespace splab
