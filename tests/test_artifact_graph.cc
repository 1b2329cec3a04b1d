/**
 * @file
 * The artifact graph's contracts: Merkle key precision (every config
 * field keys exactly the artifacts it shapes), single-flight per
 * node, byte-identical values and counter snapshots at any
 * SPLAB_THREADS, cold/warm artifact-cache coherence, and one
 * computation per artifact across cache handles on one directory.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "core/artifact_graph.hh"
#include "core/headlines.hh"
#include "obs/counters.hh"
#include "obs/json.hh"
#include "perf/native.hh"
#include "support/env.hh"
#include "support/thread_pool.hh"
#include "workload/synthetic.hh"

namespace splab
{
namespace
{

// The graph resolves benchmarks through benchmarkByName, which bakes
// SPLAB_SCALE in on first use — set it before anything touches a
// spec so every test below runs on miniature workloads.
[[maybe_unused]] const bool kScaleSet = [] {
    setenv("SPLAB_SCALE", "0.05", 1);
    return true;
}();

/** The small benchmarks used throughout (fewest whole-run slices). */
const std::vector<std::string> kBenches = {"620.omnetpp_s",
                                           "520.omnetpp_r"};

ExperimentConfig
fastConfig()
{
    return ExperimentConfig::paperDefaults().withMaxK(6);
}

u64
keyOf(const ExperimentConfig &cfg, ArtifactKind kind)
{
    ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    return g.artifactKey(kBenches[0], kind);
}

TEST(ArtifactKeys, StableAcrossGraphInstances)
{
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
        ArtifactKind kind = static_cast<ArtifactKind>(k);
        EXPECT_EQ(keyOf(fastConfig(), kind), keyOf(fastConfig(), kind))
            << artifactKindName(kind);
    }
}

TEST(ArtifactKeys, PointReplayKeysPinned)
{
    // The per-point runs became projections of the fused point
    // replay, and then memory-resident, without moving their keys.
    // The spec, and so every key, depends on the workload scale,
    // which this file fixes at 0.05 (kScaleSet).
    ASSERT_EQ(workloadScale(), 0.05);
    EXPECT_EQ(keyOf(fastConfig(), ArtifactKind::PointsCacheCold),
              9780315379197207805ULL);
    EXPECT_EQ(keyOf(fastConfig(), ArtifactKind::PointsCacheWarm),
              10249133951621255657ULL);
    EXPECT_EQ(keyOf(fastConfig(), ArtifactKind::PointsTiming),
              14831231806976354006ULL);
}

TEST(ArtifactKeys, WarmupChunksKeysOnlyWarmedReplays)
{
    ExperimentConfig base = fastConfig();
    ExperimentConfig warmed = fastConfig().withWarmupChunks(7);

    // The warm-up length shapes warmed replays only: cold replays
    // and everything upstream must keep their cache blobs.
    EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheWarm),
              keyOf(warmed, ArtifactKind::PointsCacheWarm));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsTiming),
              keyOf(warmed, ArtifactKind::PointsTiming));
    EXPECT_EQ(keyOf(base, ArtifactKind::PointsCacheCold),
              keyOf(warmed, ArtifactKind::PointsCacheCold));
    EXPECT_EQ(keyOf(base, ArtifactKind::WholeCache),
              keyOf(warmed, ArtifactKind::WholeCache));
    EXPECT_EQ(keyOf(base, ArtifactKind::SimPoints),
              keyOf(warmed, ArtifactKind::SimPoints));
}

TEST(ArtifactKeys, ReplacementPolicyChangesCacheArtifactKeys)
{
    // The regression the old hand-rolled benchKey missed: it hashed
    // only sizeBytes/ways/lineBytes per level, so a replacement-
    // policy change silently reused stale blobs.
    ExperimentConfig base = fastConfig();
    ExperimentConfig fifo = fastConfig();
    fifo.allcache.l3.replacement = ReplacementPolicy::FIFO;

    EXPECT_NE(keyOf(base, ArtifactKind::WholeCache),
              keyOf(fifo, ArtifactKind::WholeCache));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheCold),
              keyOf(fifo, ArtifactKind::PointsCacheCold));
    // The simpoint selection and the timing machine (separate
    // hierarchy copy) do not read cfg.allcache.
    EXPECT_EQ(keyOf(base, ArtifactKind::SimPoints),
              keyOf(fifo, ArtifactKind::SimPoints));
    EXPECT_EQ(keyOf(base, ArtifactKind::WholeTiming),
              keyOf(fifo, ArtifactKind::WholeTiming));
    // Native projects the fused pass, which does run the allcache
    // tool, yet its value must not move with cfg.allcache either.
    EXPECT_EQ(keyOf(base, ArtifactKind::Native),
              keyOf(fifo, ArtifactKind::Native));
    auto nativeBytes = [](const ExperimentConfig &cfg) {
        ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                                 ArtifactCache("")));
        ByteWriter w;
        w.put(g.native(kBenches[0]));
        return w.bytes();
    };
    EXPECT_EQ(nativeBytes(base), nativeBytes(fifo));
}

TEST(ArtifactKeys, SimpointConfigCascadesToDependents)
{
    ExperimentConfig base = fastConfig();
    ExperimentConfig moreK = fastConfig().withMaxK(9);

    // Merkle keying: dependents inherit the change through their
    // upstream keys without hashing upstream *values*.
    EXPECT_NE(keyOf(base, ArtifactKind::SimPoints),
              keyOf(moreK, ArtifactKind::SimPoints));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheCold),
              keyOf(moreK, ArtifactKind::PointsCacheCold));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsTiming),
              keyOf(moreK, ArtifactKind::PointsTiming));
    EXPECT_EQ(keyOf(base, ArtifactKind::WholeCache),
              keyOf(moreK, ArtifactKind::WholeCache));
    EXPECT_EQ(keyOf(base, ArtifactKind::Native),
              keyOf(moreK, ArtifactKind::Native));
}

TEST(ArtifactKeys, CostModelKeysNoArtifact)
{
    // The replay cost model only shapes derived report columns, so
    // no cached artifact may depend on it.
    ExperimentConfig base = fastConfig();
    ReplayCostModel cost;
    cost.wholeRate *= 2.0;
    ExperimentConfig priced = fastConfig().withCost(cost);
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
        ArtifactKind kind = static_cast<ArtifactKind>(k);
        EXPECT_EQ(keyOf(base, kind), keyOf(priced, kind))
            << artifactKindName(kind);
    }
    // ...but the whole-experiment hash must still see it.
    EXPECT_NE(base.contentHash(), priced.contentHash());
}

TEST(ExperimentConfigHash, EveryFieldChangesTheHash)
{
    ExperimentConfig base = fastConfig();
    std::vector<ExperimentConfig> variants;
    variants.push_back(fastConfig().withMaxK(7));
    variants.push_back(fastConfig().withSliceInstrs(
        base.simpoint.sliceInstrs + 1000));
    variants.push_back(fastConfig().withSeed(base.simpoint.seed + 1));
    variants.push_back(fastConfig().withWarmupChunks(
        base.warmupChunks + 1));
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l1d.sizeBytes *= 2;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l2.ways *= 2;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l3.lineBytes *= 2;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l1i.replacement = ReplacementPolicy::FIFO;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.machine.caches.l3.replacement = ReplacementPolicy::FIFO;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.machine.robEntries += 32;
        variants.push_back(c);
    }
    variants.push_back(fastConfig().withStrategy("smarts"));
    {
        // Inactive-strategy knobs still count for the whole-
        // experiment hash (per-node keys ignore them; see
        // test_sampling.cc).
        ExperimentConfig c = fastConfig();
        c.sampling.smarts.munit += 1;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.sampling.stratified.strata += 1;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.sampling.rankedSet.subsamples += 1;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.cost.regionalRate *= 1.5;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.cost.pinballStartup += 1.0;
        variants.push_back(c);
    }

    std::set<u64> hashes = {base.contentHash()};
    for (std::size_t i = 0; i < variants.size(); ++i) {
        u64 h = variants[i].contentHash();
        EXPECT_NE(h, base.contentHash()) << "variant " << i;
        hashes.insert(h);
    }
    // All pairwise distinct, not just distinct from the baseline.
    EXPECT_EQ(hashes.size(), variants.size() + 1);
}

/** Wall-time-free bytes of every target artifact of @p g. */
std::vector<u8>
graphResultBytes(ArtifactGraph &g)
{
    ByteWriter w;
    for (const std::string &b : kBenches) {
        ByteWriter sp;
        serializeArtifact(sp, g.simpoints(b));
        w.putVector(sp.bytes());

        const CacheRunMetrics &whole = g.wholeCache(b);
        w.put<u64>(whole.instrs);
        for (double f : whole.mixFrac)
            w.put<double>(f);
        for (const LevelCounts *lc :
             {&whole.l1i, &whole.l1d, &whole.l2, &whole.l3}) {
            w.put<u64>(lc->accesses);
            w.put<u64>(lc->misses);
        }
        w.put<u64>(whole.branches);

        for (const PointCacheMetrics &p : g.pointsCacheCold(b)) {
            w.put<double>(p.weight);
            w.put<u64>(p.m.instrs);
            w.put<u64>(p.m.l3.accesses);
            w.put<u64>(p.m.l3.misses);
        }
    }
    return w.bytes();
}

TEST(ArtifactGraphScheduling, RunSuiteThreadCountInvariant)
{
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::SimPoints, ArtifactKind::WholeCache,
        ArtifactKind::PointsCacheCold};

    std::vector<std::vector<u8>> blobs;
    std::vector<std::map<std::string, u64>> counters;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        obs::resetCounters();
        ArtifactGraph g(fastConfig(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache("")));
        g.runSuite(kBenches, targets);
        blobs.push_back(graphResultBytes(g));

        std::map<std::string, u64> graphStats;
        for (const auto &kv : obs::counterSnapshot())
            if (kv.first.rfind("graph.", 0) == 0)
                graphStats[kv.first] = kv.second;
        counters.push_back(graphStats);
    }

    // The serial driver shape, without runSuite: one thread, each
    // benchmark walked to completion through the accessors (which is
    // what graphResultBytes does on a fresh graph) before the next.
    ThreadPool::setGlobalThreads(1);
    obs::resetCounters();
    ArtifactGraph walk(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache("")));
    blobs.push_back(graphResultBytes(walk));
    const u64 walkComputed =
        obs::counterSnapshot().at("graph.nodes_computed");
    ThreadPool::setGlobalThreads(0);

    ASSERT_FALSE(blobs[0].empty());
    EXPECT_EQ(blobs[0], blobs[1]);
    EXPECT_EQ(blobs[0], blobs[2]);
    EXPECT_EQ(blobs[0], blobs[3]);
    EXPECT_EQ(walkComputed, kBenches.size() * 9);

    // Counters accumulate work performed, never scheduling: the
    // snapshots must match across thread counts too.
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_EQ(counters[0], counters[2]);
    // spec, bbv, sp, regions, fused, whole-cache projection,
    // regional pinball, fused point replays, cold projection
    EXPECT_EQ(counters[0].at("graph.nodes_computed"),
              kBenches.size() * 9);
    EXPECT_EQ(counters[0].at("graph.tasks_scheduled"),
              kBenches.size() * targets.size());
}

TEST(ArtifactGraphScheduling, SingleFlightUnderConcurrentRequests)
{
    ThreadPool::setGlobalThreads(8);
    obs::resetCounters();
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));

    // 16 concurrent requests for the same node: exactly one
    // computation, every caller sees the same stored value.
    std::atomic<const SimPointResult *> first{nullptr};
    std::atomic<int> mismatches{0};
    parallelFor(16, [&](std::size_t) {
        const SimPointResult &r = g.simpoints(kBenches[0]);
        const SimPointResult *expected = nullptr;
        if (!first.compare_exchange_strong(expected, &r) &&
            expected != &r)
            mismatches.fetch_add(1);
    });
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(obs::counterSnapshot().at("graph.nodes_computed"),
              3u); // spec, bbv profile, simpoints — each once
}

TEST(ArtifactGraphCache, ColdThenWarmRunsAreByteIdentical)
{
    std::string dir = testing::TempDir() + "/splab-graph-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::SimPoints, ArtifactKind::WholeCache,
        ArtifactKind::PointsCacheCold};

    obs::resetCounters();
    ArtifactGraph cold(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    cold.runSuite(kBenches, targets);
    std::vector<u8> coldBytes = graphResultBytes(cold);
    u64 coldHits = obs::counterSnapshot().at("graph.cache_hits");
    EXPECT_EQ(coldHits, 0u);

    obs::resetCounters();
    ArtifactGraph warm(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    warm.runSuite(kBenches, targets);
    std::vector<u8> warmBytes = graphResultBytes(warm);

    EXPECT_EQ(coldBytes, warmBytes);
    // The persisted nodes (simpoints and the two fused nodes) come
    // back from disk; only the spec and the two projections are
    // computed, in memory.  A warm simpoints hit must not recompute
    // the BBV profile.
    auto stats = obs::counterSnapshot();
    EXPECT_EQ(stats.at("graph.cache_hits"), kBenches.size() * 3);
    EXPECT_EQ(stats.at("graph.nodes_computed"), kBenches.size() * 3);
    EXPECT_EQ(stats.at("graph.loaded.pointsfused"), kBenches.size());
    EXPECT_EQ(stats.at("graph.loaded.wholefused"), kBenches.size());

    // Same config in a third instance: keys resolve to the same
    // blobs without touching artifact values at all.
    ArtifactGraph probe(fastConfig(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache(dir)));
    EXPECT_EQ(probe.artifactKey(kBenches[0],
                                ArtifactKind::PointsCacheCold),
              cold.artifactKey(kBenches[0],
                               ArtifactKind::PointsCacheCold));
    std::filesystem::remove_all(dir);
}

/**
 * Raw bytes of every regular file in @p dir, keyed by filename: the
 * blobs.  The "locks/" directory of empty key-lock files is skipped.
 */
std::map<std::string, std::vector<char>>
dirContents(const std::string &dir)
{
    std::map<std::string, std::vector<char>> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (!e.is_regular_file())
            continue;
        std::ifstream f(e.path(), std::ios::binary);
        out[name] = {std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>()};
    }
    return out;
}

u64
counterOr0(const std::map<std::string, u64> &snap, const char *name)
{
    auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second;
}

std::vector<u8>
fusedBytes(ArtifactGraph &g)
{
    ByteWriter w;
    for (const std::string &b : kBenches) {
        w.put(g.wholeFused(b));
        w.put(g.wholeCache(b));
        w.put(g.wholeTiming(b));
    }
    return w.bytes();
}

const std::vector<ArtifactKind> kWholeTargets = {
    ArtifactKind::WholeFused, ArtifactKind::WholeCache,
    ArtifactKind::WholeTiming};

/** The wholefused blob files of @p dir. */
std::map<std::string, std::vector<char>>
fusedBlobs(const std::string &dir)
{
    std::map<std::string, std::vector<char>> out;
    for (auto &kv : dirContents(dir))
        if (kv.first.rfind("wholefused-", 0) == 0)
            out.insert(std::move(kv));
    return out;
}

TEST(FusedPersistence, WarmRunSkipsFusedTraversal)
{
    std::string dir = testing::TempDir() + "/splab-fused-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    obs::resetCounters();
    ArtifactGraph cold(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    cold.runSuite(kBenches, kWholeTargets);
    std::vector<u8> coldBytes = fusedBytes(cold);
    // One inline wholefused blob per benchmark and nothing else: the
    // two projections stay memory-resident.
    auto coldFiles = dirContents(dir);
    EXPECT_EQ(coldFiles.size(), kBenches.size());
    EXPECT_EQ(fusedBlobs(dir).size(), kBenches.size());
    for (const auto &kv : fusedBlobs(dir))
        EXPECT_GT(kv.second.size(), sizeof(FusedWholeMetrics));

    obs::resetCounters();
    ArtifactGraph warm(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    warm.runSuite(kBenches, kWholeTargets);
    EXPECT_EQ(fusedBytes(warm), coldBytes);

    auto warmStats = obs::counterSnapshot();
    // The fused node comes back from disk; the spec (needed for
    // keying) and the two projections are computed in memory — the
    // warm run performs no fused traversal at all.
    EXPECT_EQ(counterOr0(warmStats, "graph.cache_hits"),
              kBenches.size());
    EXPECT_EQ(counterOr0(warmStats, "graph.loaded.wholefused"),
              kBenches.size());
    EXPECT_EQ(counterOr0(warmStats, "graph.nodes_computed"),
              kBenches.size() * 3);
    EXPECT_EQ(counterOr0(warmStats, "pin.windows"), 0u);
    EXPECT_EQ(counterOr0(warmStats, "pin.chunks_replayed"), 0u);

    // The warm run must not have rewritten or perturbed any blob.
    EXPECT_EQ(dirContents(dir), coldFiles);
    std::filesystem::remove_all(dir);
}

TEST(FusedPersistence, BlobLayoutAndCountersThreadCountInvariant)
{
    std::vector<std::map<std::string, std::vector<char>>> blobs;
    std::vector<std::map<std::string, u64>> counters;
    std::vector<std::vector<u8>> values;
    for (std::size_t threads : {1u, 2u, 8u}) {
        std::string dir = testing::TempDir() +
                          "/splab-fused-threads-" +
                          std::to_string(threads);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        ThreadPool::setGlobalThreads(threads);
        obs::resetCounters();
        ArtifactGraph g(fastConfig(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache(dir)));
        g.runSuite(kBenches, kWholeTargets);
        values.push_back(fusedBytes(g));
        blobs.push_back(dirContents(dir));
        std::map<std::string, u64> stats;
        for (const auto &kv : obs::counterSnapshot())
            if (kv.first.rfind("graph.", 0) == 0 ||
                kv.first.rfind("artifact_cache.", 0) == 0)
                stats[kv.first] = kv.second;
        counters.push_back(stats);
        std::filesystem::remove_all(dir);
    }
    ThreadPool::setGlobalThreads(0);

    // No wall clock is stored, so independent computes agree byte
    // for byte: the same values, the same blob names and bytes, and
    // the same counters at every thread count.
    ASSERT_FALSE(values[0].empty());
    EXPECT_EQ(values[0], values[1]);
    EXPECT_EQ(values[0], values[2]);
    EXPECT_EQ(blobs[0].size(), kBenches.size());
    EXPECT_EQ(blobs[0], blobs[1]);
    EXPECT_EQ(blobs[0], blobs[2]);
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_EQ(counters[0], counters[2]);
    EXPECT_EQ(counters[0].at("graph.computed.wholefused"),
              kBenches.size());
    EXPECT_EQ(counters[0].at("graph.computed.wholecache"),
              kBenches.size());
    EXPECT_EQ(counters[0].at("graph.computed.wholetiming"),
              kBenches.size());
    EXPECT_EQ(counters[0].at("graph.cache_hits"), 0u);
}

TEST(FusedPersistence, CorruptBlobIsRecomputed)
{
    std::string dir = testing::TempDir() + "/splab-fused-corrupt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto openGraph = [&] {
        return ArtifactGraph(fastConfig(),
                             std::make_shared<const ArtifactCache>(
                                 ArtifactCache(dir)));
    };

    std::vector<u8> coldBytes;
    {
        ArtifactGraph cold = openGraph();
        cold.runSuite(kBenches, kWholeTargets);
        coldBytes = fusedBytes(cold);
    }
    auto coldFiles = dirContents(dir);

    // Flip one byte in the middle of one fused blob.
    auto fused = fusedBlobs(dir);
    ASSERT_EQ(fused.size(), kBenches.size());
    {
        std::fstream f(dir + "/" + fused.begin()->first,
                       std::ios::in | std::ios::out | std::ios::binary);
        std::streamoff mid =
            static_cast<std::streamoff>(fused.begin()->second.size() / 2);
        f.seekg(mid);
        char c = 0;
        f.get(c);
        f.seekp(mid);
        f.put(static_cast<char>(c ^ 0x5a));
    }

    obs::resetCounters();
    {
        ArtifactGraph warm = openGraph();
        warm.runSuite(kBenches, kWholeTargets);
        EXPECT_EQ(fusedBytes(warm), coldBytes);
    }
    auto stats = obs::counterSnapshot();
    EXPECT_EQ(counterOr0(stats, "artifact_cache.corrupt"), 1u);
    EXPECT_EQ(counterOr0(stats, "graph.computed.wholefused"), 1u);
    EXPECT_EQ(counterOr0(stats, "graph.loaded.wholefused"),
              kBenches.size() - 1);
    // The recompute rewrote the damaged blob with its cold bytes (no
    // wall clock differs), and a third graph loads cleanly.
    EXPECT_EQ(dirContents(dir), coldFiles);
    obs::resetCounters();
    {
        ArtifactGraph again = openGraph();
        EXPECT_EQ(fusedBytes(again), coldBytes);
    }
    stats = obs::counterSnapshot();
    EXPECT_EQ(counterOr0(stats, "artifact_cache.corrupt"), 0u);
    EXPECT_EQ(counterOr0(stats, "pin.windows"), 0u);
    std::filesystem::remove_all(dir);
}

TEST(NativeProjection, EqualsStandaloneNativeRun)
{
    ArtifactGraph g(fastConfig(), std::make_shared<const ArtifactCache>(
                                      ArtifactCache("")));
    for (const std::string &b :
         {kBenches[0], kBenches[1], std::string("631.deepsjeng_s")}) {
        ByteWriter projected;
        projected.put(g.native(b));
        SyntheticWorkload wl(g.spec(b));
        ByteWriter standalone;
        standalone.put(NativeMachine(g.config().machine).run(wl));
        EXPECT_EQ(projected.bytes(), standalone.bytes()) << b;
    }
}

TEST(NativeProjection, RunsNoTraversalOfItsOwn)
{
    obs::resetCounters();
    ArtifactGraph g(fastConfig(), std::make_shared<const ArtifactCache>(
                                      ArtifactCache("")));
    g.wholeFused(kBenches[0]);
    u64 windows = counterOr0(obs::counterSnapshot(), "pin.windows");
    EXPECT_GT(windows, 0u);
    g.native(kBenches[0]);
    EXPECT_EQ(counterOr0(obs::counterSnapshot(), "pin.windows"),
              windows);
}

TEST(ArtifactGraphManifest, RecordsDependencyClosure)
{
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    obs::RunManifest m("test");
    g.recordArtifacts(m, {kBenches[0]},
                      {ArtifactKind::PointsCacheCold});
    std::string json = m.renderDeterministic();
    // Target plus its transitive upstreams and the nodes they are
    // computed from, nothing else.
    EXPECT_NE(json.find("\"pointscold/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pointsfused/" + kBenches[0] + "\""),
              std::string::npos);
    // Region selection is in the closure (strategy-qualified blob
    // family), and so is the SimPoints node the simpoint strategy's
    // regions are computed from, though it enters no key.
    EXPECT_NE(json.find("\"regions_simpoint/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"simpoints/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bbvprofile/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"spec/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_EQ(json.find("\"wholecache/"), std::string::npos);
    EXPECT_EQ(json.find("\"wholefused/"), std::string::npos);
    EXPECT_EQ(json.find("\"pointswarm/"), std::string::npos);
}

TEST(ArtifactGraphManifest, RecordsTheFusedBlobsProjectionsReadFrom)
{
    // Fig 8's targets are all memory-resident projections; the blobs
    // the run loads or stores are the fused nodes behind them, so
    // the manifest must name those under their cache keys.
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    obs::RunManifest m("test");
    g.recordArtifacts(m, kBenches,
                      {ArtifactKind::WholeCache,
                       ArtifactKind::PointsCacheCold,
                       ArtifactKind::PointsCacheWarm});
    auto parsed = obs::parseJson(m.renderDeterministic());
    ASSERT_TRUE(parsed.has_value());
    const obs::JsonValue *artifacts = parsed->find("artifacts");
    ASSERT_NE(artifacts, nullptr);
    for (const std::string &b : kBenches)
        for (ArtifactKind kind :
             {ArtifactKind::WholeFused, ArtifactKind::PointsFused}) {
            const std::string name =
                std::string(artifactKindName(kind)) + "/" + b;
            const obs::JsonValue *key = artifacts->find(name);
            ASSERT_NE(key, nullptr) << name;
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016llx",
                          static_cast<unsigned long long>(
                              g.artifactKey(b, kind)));
            EXPECT_EQ(key->asString(), hex) << name;
        }
}

TEST(ArtifactGraphSerialization, RoundTripsEveryKind)
{
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    const std::string &b = kBenches[0];
    g.runSuite({b}, {ArtifactKind::PointsCacheCold});

    auto roundTrip = [&](ArtifactKind kind, const ArtifactValue &v) {
        ByteWriter w;
        serializeArtifact(w, v);
        ByteReader r(w.bytes());
        ArtifactValue back = deserializeArtifact(kind, r);
        ByteWriter w2;
        serializeArtifact(w2, back);
        EXPECT_EQ(w.bytes(), w2.bytes()) << artifactKindName(kind);
    };
    roundTrip(ArtifactKind::Spec, g.spec(b));
    roundTrip(ArtifactKind::BbvProfile, g.bbvProfile(b));
    roundTrip(ArtifactKind::SimPoints, g.simpoints(b));
    roundTrip(ArtifactKind::Regions, g.regions(b));
    roundTrip(ArtifactKind::PointsCacheCold, g.pointsCacheCold(b));
}

/** The targets a select-only strategy graph asks for. */
std::vector<ArtifactKind>
selectTargets(const std::string &strategy)
{
    if (strategy == "simpoint")
        return {ArtifactKind::SimPoints, ArtifactKind::Regions};
    return {ArtifactKind::Regions};
}

/** What running every strategy graph in turn over one cache did. */
struct StrategyGraphsRun
{
    std::vector<u64> windows;  ///< pin.windows added, per graph
    std::vector<u64> computed; ///< graph.computed.bbvprofile, per graph
    std::vector<u64> loaded;   ///< graph.loaded.bbvprofile, per graph
    std::vector<std::vector<u8>> profiles; ///< profile bytes, per graph
    std::map<std::string, u64> graphCounters; ///< graph.* at the end
};

StrategyGraphsRun
runStrategyGraphs(const std::string &dir)
{
    StrategyGraphsRun out;
    obs::resetCounters();
    for (const std::string &s : strategyNames()) {
        auto before = obs::counterSnapshot();
        ArtifactGraph g(fastConfig().withStrategy(s),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache(dir)));
        g.runSuite(kBenches, selectTargets(s));
        auto after = obs::counterSnapshot();
        auto added = [&](const char *name) {
            return counterOr0(after, name) - counterOr0(before, name);
        };
        out.windows.push_back(added("pin.windows"));
        out.computed.push_back(added("graph.computed.bbvprofile"));
        out.loaded.push_back(added("graph.loaded.bbvprofile"));
        std::vector<u8> bytes;
        for (const std::string &b : kBenches) {
            std::vector<u8> p =
                g.ensureSerialized(b, ArtifactKind::BbvProfile);
            bytes.insert(bytes.end(), p.begin(), p.end());
        }
        out.profiles.push_back(std::move(bytes));
    }
    for (const auto &kv : obs::counterSnapshot())
        if (kv.first.rfind("graph.", 0) == 0)
            out.graphCounters[kv.first] = kv.second;
    return out;
}

/** The bbvprofile blob files of @p dir. */
std::map<std::string, std::vector<char>>
profileBlobs(const std::string &dir)
{
    std::map<std::string, std::vector<char>> out;
    for (auto &kv : dirContents(dir))
        if (kv.first.rfind("bbvprofile-", 0) == 0)
            out.insert(std::move(kv));
    return out;
}

TEST(BbvProfilePersistence, ComputedOncePerCacheAcrossStrategyGraphs)
{
    std::string dir = testing::TempDir() + "/splab-bbv-strategies";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    StrategyGraphsRun run = runStrategyGraphs(dir);
    ASSERT_EQ(run.windows.size(), strategyNames().size());
    // The first graph profiles every benchmark.  No later graph
    // traverses: one whose strategy reads the profile loads it, and a
    // count-only one (smarts, random, stride) reads none.
    EXPECT_GT(run.windows[0], 0u);
    EXPECT_EQ(run.computed[0], kBenches.size());
    EXPECT_EQ(run.loaded[0], 0u);
    for (std::size_t i = 1; i < run.windows.size(); ++i) {
        const std::string &s = strategyNames()[i];
        EXPECT_EQ(run.windows[i], 0u) << s;
        EXPECT_EQ(run.computed[i], 0u) << s;
        EXPECT_EQ(run.loaded[i],
                  strategyReadsProfile(strategyByName(s))
                      ? kBenches.size()
                      : 0u)
            << s;
    }
    EXPECT_EQ(profileBlobs(dir).size(), kBenches.size());

    // Loaded profiles are byte-equal to computed ones and to a graph
    // without any cache.
    ArtifactGraph plain(fastConfig(), std::make_shared<const ArtifactCache>(
                                          ArtifactCache("")));
    std::vector<u8> uncached;
    for (const std::string &b : kBenches) {
        std::vector<u8> p =
            plain.ensureSerialized(b, ArtifactKind::BbvProfile);
        uncached.insert(uncached.end(), p.begin(), p.end());
    }
    ASSERT_FALSE(uncached.empty());
    for (std::size_t i = 0; i < run.profiles.size(); ++i)
        EXPECT_EQ(run.profiles[i], uncached) << strategyNames()[i];
    std::filesystem::remove_all(dir);
}

TEST(BbvProfilePersistence, BlobsAndCountersThreadCountInvariant)
{
    std::vector<std::map<std::string, std::vector<char>>> blobs;
    std::vector<std::map<std::string, u64>> counters;
    for (std::size_t threads : {1u, 4u}) {
        std::string dir = testing::TempDir() + "/splab-bbv-threads-" +
                          std::to_string(threads);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        ThreadPool::setGlobalThreads(threads);
        counters.push_back(runStrategyGraphs(dir).graphCounters);
        blobs.push_back(profileBlobs(dir));
        std::filesystem::remove_all(dir);
    }
    ThreadPool::setGlobalThreads(0);

    ASSERT_EQ(blobs[0].size(), kBenches.size());
    EXPECT_EQ(blobs[0], blobs[1]);
    // The per-kind node counters count work, never scheduling.
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_EQ(counters[0].at("graph.computed.bbvprofile"),
              kBenches.size());
    // Each profile-reading graph after the first loads every profile
    // for its selection.  The selections only borrowed it, so each
    // graph's ensureSerialized in runStrategyGraphs loads it again.
    std::size_t readers = 0;
    for (const std::string &s : strategyNames())
        readers += strategyReadsProfile(strategyByName(s));
    EXPECT_EQ(counters[0].at("graph.loaded.bbvprofile"),
              kBenches.size() *
                  (readers - 1 + strategyNames().size()));
    EXPECT_EQ(counters[0].at("graph.computed.regions"),
              kBenches.size() * strategyNames().size());
}

TEST(BbvProfilePersistence, CorruptBlobIsRecomputed)
{
    std::string dir = testing::TempDir() + "/splab-bbv-corrupt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::vector<ArtifactKind> targets = selectTargets("simpoint");
    auto selectionBytes = [&](ArtifactGraph &g) {
        std::vector<u8> out;
        for (const std::string &b : kBenches)
            for (ArtifactKind k : targets) {
                std::vector<u8> v = g.ensureSerialized(b, k);
                out.insert(out.end(), v.begin(), v.end());
            }
        return out;
    };
    auto openGraph = [&] {
        return ArtifactGraph(fastConfig(),
                             std::make_shared<const ArtifactCache>(
                                 ArtifactCache(dir)));
    };

    std::vector<u8> coldBytes;
    {
        ArtifactGraph cold = openGraph();
        cold.runSuite(kBenches, targets);
        coldBytes = selectionBytes(cold);
    }
    auto coldFiles = dirContents(dir);

    // Drop the selections so they must be rebuilt from the profiles,
    // then flip one byte in the middle of one profile blob.
    for (const auto &kv : coldFiles)
        if (kv.first.rfind("simpoints-", 0) == 0 ||
            kv.first.rfind("regions_", 0) == 0)
            std::filesystem::remove(dir + "/" + kv.first);
    auto profiles = profileBlobs(dir);
    ASSERT_EQ(profiles.size(), kBenches.size());
    {
        std::fstream f(dir + "/" + profiles.begin()->first,
                       std::ios::in | std::ios::out | std::ios::binary);
        std::streamoff mid =
            static_cast<std::streamoff>(profiles.begin()->second.size() / 2);
        f.seekg(mid);
        char c = 0;
        f.get(c);
        f.seekp(mid);
        f.put(static_cast<char>(c ^ 0x5a));
    }

    obs::resetCounters();
    {
        ArtifactGraph warm = openGraph();
        warm.runSuite(kBenches, targets);
        EXPECT_EQ(selectionBytes(warm), coldBytes);
    }
    auto stats = obs::counterSnapshot();
    EXPECT_EQ(counterOr0(stats, "artifact_cache.corrupt"), 1u);
    EXPECT_EQ(counterOr0(stats, "graph.computed.bbvprofile"), 1u);
    EXPECT_EQ(counterOr0(stats, "graph.loaded.bbvprofile"),
              kBenches.size() - 1);
    // The recompute rewrote the damaged blob: every file is back to
    // its cold bytes, and a third graph loads cleanly.
    EXPECT_EQ(dirContents(dir), coldFiles);
    obs::resetCounters();
    {
        ArtifactGraph again = openGraph();
        for (const std::string &b : kBenches)
            again.bbvProfile(b);
    }
    stats = obs::counterSnapshot();
    EXPECT_EQ(counterOr0(stats, "artifact_cache.corrupt"), 0u);
    EXPECT_EQ(counterOr0(stats, "graph.loaded.bbvprofile"),
              kBenches.size());
    std::filesystem::remove_all(dir);
}

TEST(BbvProfilePersistence, SharedAcrossSimPointConfigs)
{
    // A sweep over SimPoint knobs (fig3, ablation_simpoint): one
    // graph per configuration over one cache handle.
    std::string dir = testing::TempDir() + "/splab-bbv-configs";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto handle =
        std::make_shared<const ArtifactCache>(ArtifactCache(dir));
    const SimPointConfig base = fastConfig().simpoint;
    std::vector<SimPointConfig> configs(4, base);
    configs[1].maxK = 4;
    configs[2].projectionDim = 5;
    configs[3].restarts = 1;

    auto pass = [&] {
        std::vector<std::vector<u8>> out;
        for (const SimPointConfig &c : configs) {
            ArtifactGraph g(fastConfig().withSimPoint(c), handle);
            g.runSuite(kBenches, {ArtifactKind::SimPoints});
            for (const std::string &b : kBenches)
                out.push_back(
                    g.ensureSerialized(b, ArtifactKind::SimPoints));
        }
        return out;
    };
    auto counted = [](const char *name) {
        return counterOr0(obs::counterSnapshot(), name);
    };

    // Cold: one profile per benchmark for every configuration, one
    // selection per (benchmark, configuration).
    obs::resetCounters();
    const std::vector<std::vector<u8>> cold = pass();
    EXPECT_EQ(counted("graph.computed.bbvprofile"), kBenches.size());
    EXPECT_EQ(counted("graph.loaded.bbvprofile"),
              kBenches.size() * (configs.size() - 1));
    EXPECT_EQ(counted("graph.computed.simpoints"),
              kBenches.size() * configs.size());
    EXPECT_EQ(profileBlobs(dir).size(), kBenches.size());

    // Warm: every selection loads, without touching its profile.
    obs::resetCounters();
    EXPECT_EQ(pass(), cold);
    EXPECT_EQ(counted("graph.computed.simpoints"), 0u);
    EXPECT_EQ(counted("graph.loaded.simpoints"),
              kBenches.size() * configs.size());
    EXPECT_EQ(counted("graph.computed.bbvprofile"), 0u);

    // The persisted selections are the uncached ones, byte for byte.
    std::size_t i = 0;
    for (const SimPointConfig &c : configs)
        for (const std::string &b : kBenches) {
            ByteWriter w;
            serializeSimPoints(
                w, pickSimPoints(
                       profileBbvs(benchmarkByName(b), c.sliceInstrs),
                       c));
            EXPECT_EQ(cold[i++], w.bytes()) << b;
        }

    // A slice change keys (and computes) a new profile.
    obs::resetCounters();
    ArtifactGraph sliced(
        fastConfig().withSliceInstrs(2 * base.sliceInstrs), handle);
    sliced.bbvProfile(kBenches[0]);
    EXPECT_EQ(counted("graph.computed.bbvprofile"), 1u);
    EXPECT_EQ(profileBlobs(dir).size(), kBenches.size() + 1);
    std::filesystem::remove_all(dir);
}

/** graph.* counter @p name now, 0 when unregistered. */
u64
counted(const char *name)
{
    return counterOr0(obs::counterSnapshot(), name);
}

/** A stratified graph (its selection reads the profile) over @p dir;
 *  "" disables the cache. */
ArtifactGraph
stratifiedGraph(const std::string &dir)
{
    return ArtifactGraph(fastConfig().withStrategy("stratified"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(dir)));
}

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "/" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(BbvProfileRetention, DependencyReadIsNotKeptWithACache)
{
    std::string dir = freshDir("splab-bbv-borrowed");
    const std::string &b = kBenches[0];
    obs::resetCounters();
    {
        ArtifactGraph g = stratifiedGraph(dir);
        g.runSuite({b}, {ArtifactKind::Regions});
        EXPECT_EQ(counted("graph.computed.bbvprofile"), 1u);
        EXPECT_EQ(counted("graph.loaded.bbvprofile"), 0u);
        // The selection borrowed the profile: the accessor loads its
        // blob, and pins it from then on.
        std::vector<u8> bytes =
            g.ensureSerialized(b, ArtifactKind::BbvProfile);
        EXPECT_EQ(counted("graph.loaded.bbvprofile"), 1u);
        g.bbvProfile(b);
        EXPECT_EQ(g.ensureSerialized(b, ArtifactKind::BbvProfile),
                  bytes);
        EXPECT_EQ(counted("graph.loaded.bbvprofile"), 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(BbvProfileRetention, ComputedOnceWhateverReadsIt)
{
    // SimPoints and a stratified Regions both read the profile.  With
    // a cache, the first reader computes and stores it and the other
    // loads it, in either order; without one the graph keeps it, so
    // no reader computes it again.  Same counts at 1 and 4 threads.
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::SimPoints, ArtifactKind::Regions};
    for (std::size_t threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        std::string dir = freshDir("splab-bbv-readers");
        for (const std::string &d : {std::string(""), dir}) {
            obs::resetCounters();
            ArtifactGraph g = stratifiedGraph(d);
            g.runSuite(kBenches, targets);
            for (const std::string &b : kBenches) {
                g.bbvProfile(b);
                g.ensureSerialized(b, ArtifactKind::BbvProfile);
            }
            bool cached = !d.empty();
            EXPECT_EQ(counted("graph.computed.bbvprofile"),
                      kBenches.size())
                << threads << " threads, cached " << cached;
            // Cached: the second reader and the accessor load.
            EXPECT_EQ(counted("graph.loaded.bbvprofile"),
                      cached ? 2 * kBenches.size() : 0u)
                << threads << " threads, cached " << cached;
        }
        std::filesystem::remove_all(dir);
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(BbvProfileRetention, PinnedReferenceSurvivesRunSuite)
{
    std::string dir = freshDir("splab-bbv-pinned");
    const std::string &b = kBenches[0];
    ArtifactGraph g = stratifiedGraph(dir);
    const std::vector<FrequencyVector> &profile = g.bbvProfile(b);
    std::vector<u8> bytes = g.ensureSerialized(b, ArtifactKind::BbvProfile);

    obs::resetCounters();
    g.runSuite({b}, {ArtifactKind::SimPoints, ArtifactKind::Regions});
    // Both readers shared the pinned profile.
    EXPECT_EQ(counted("graph.computed.bbvprofile"), 0u);
    EXPECT_EQ(counted("graph.loaded.bbvprofile"), 0u);
    EXPECT_EQ(&g.bbvProfile(b), &profile);
    ByteWriter w;
    serializeArtifact(w, profile);
    EXPECT_EQ(w.bytes(), bytes);
    std::filesystem::remove_all(dir);
}

TEST(BbvProfileRetention, RunSuiteTargetIsSharedWithItsReaders)
{
    // A profile that runSuite was asked for is pinned, and the
    // selections computed beside it read that value: no load, whether
    // a selection task or the profile task runs first.
    for (std::size_t threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        std::string dir = freshDir("splab-bbv-target");
        obs::resetCounters();
        {
            ArtifactGraph g = stratifiedGraph(dir);
            g.runSuite(kBenches,
                       {ArtifactKind::BbvProfile, ArtifactKind::SimPoints,
                        ArtifactKind::Regions});
        }
        EXPECT_EQ(counted("graph.computed.bbvprofile"), kBenches.size())
            << threads;
        EXPECT_EQ(counted("graph.loaded.bbvprofile"), 0u) << threads;
        std::filesystem::remove_all(dir);
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(SharedCacheLock, TwoHandlesOnOneDirectoryComputeOnce)
{
    std::string dir = testing::TempDir() + "/splab-two-handles";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ThreadPool::setGlobalThreads(4);
    obs::resetCounters();

    // Two graphs over two cache handles on one directory behave like
    // two processes: they share no in-process single-flight.
    auto openGraph = [&] {
        return std::make_unique<ArtifactGraph>(
            fastConfig(), std::make_shared<const ArtifactCache>(
                              ArtifactCache(dir)));
    };
    std::unique_ptr<ArtifactGraph> graphs[2] = {openGraph(),
                                                openGraph()};
    // Resolve the unpersisted spec up front, so both threads reach
    // the profile's key lock together.
    for (auto &g : graphs)
        g->spec(kBenches[0]);

    std::barrier sync(2);
    std::vector<u8> bytes[2];
    std::thread threads[2];
    for (int i = 0; i < 2; ++i)
        threads[i] = std::thread([&, i] {
            sync.arrive_and_wait();
            bytes[i] = graphs[i]->ensureSerialized(
                kBenches[0], ArtifactKind::BbvProfile);
        });
    for (std::thread &t : threads)
        t.join();
    ThreadPool::setGlobalThreads(0);

    // One handle computed and stored under the key lock; the other
    // waited on it and loaded the published blob.
    auto stats = obs::counterSnapshot();
    EXPECT_EQ(counterOr0(stats, "graph.computed.bbvprofile"), 1u);
    EXPECT_EQ(counterOr0(stats, "graph.loaded.bbvprofile"), 1u);
    ASSERT_FALSE(bytes[0].empty());
    EXPECT_EQ(bytes[0], bytes[1]);
    std::filesystem::remove_all(dir);
}

TEST(Headlines, PercentileTimesFollowTheGraphCostModel)
{
    // Fig 9's 100- and 90-percentile times are Fig 5's Regional and
    // Reduced averages, so both must price replays with the graph's
    // cost model.  Start-up scales with the region count and the
    // rest with the replay rate.
    ReplayCostModel paper, slow;
    slow.pinballStartup = 30.0;
    slow.wholeRate /= 4;
    slow.regionalRate /= 4;
    auto cache = std::make_shared<const ArtifactCache>(ArtifactCache(""));
    ArtifactGraph a(fastConfig(), cache);
    ArtifactGraph b(ExperimentConfig(fastConfig()).withCost(slow), cache);
    for (double q : {1.0, 0.9}) {
        SuiteComparison pa = compareSuite(a, kBenches, Replay::Cold, q);
        SuiteComparison sb = compareSuite(b, kBenches, Replay::Cold, q);
        double sum = 0;
        for (std::size_t i = 0; i < kBenches.size(); ++i) {
            const RunComparison &x = pa.rows[i], &y = sb.rows[i];
            ASSERT_EQ(x.points, y.points);
            double n = static_cast<double>(x.points);
            EXPECT_NEAR(y.seconds - slow.pinballStartup * n,
                        4 * (x.seconds - paper.pinballStartup * n),
                        1e-9 * y.seconds);
            EXPECT_NEAR(y.wholeSeconds - slow.pinballStartup,
                        4 * (x.wholeSeconds - paper.pinballStartup),
                        1e-9 * y.wholeSeconds);
            sum += y.seconds;
        }
        EXPECT_DOUBLE_EQ(sb.seconds, sum / kBenches.size());
        EXPECT_GT(sb.seconds, pa.seconds);
    }
}

} // namespace
} // namespace splab
