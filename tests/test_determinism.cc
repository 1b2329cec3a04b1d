/**
 * @file
 * Determinism guarantees across the stack: identical streams across
 * instances, windows, pinball round trips and suite constructions.
 * These properties are what make regional pinballs exact and every
 * bench byte-reproducible.
 */

#include <gtest/gtest.h>

#include "core/artifact_graph.hh"
#include "obs/json.hh"
#include "core/runs.hh"
#include "pin/tools/ldstmix.hh"
#include "pinball/logger.hh"
#include "pinball/replayer.hh"
#include "support/thread_pool.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

TEST(Determinism, SuiteSpecsStableAcrossProcessLifetime)
{
    // Hashes must derive from content only (no pointers, no time).
    auto a = spec2017Suite();
    auto b = spec2017Suite();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].contentHash(), b[i].contentHash()) << a[i].name;
}

TEST(Determinism, SuiteStreamChecksumsAreStable)
{
    // A golden-value style regression net: if workload generation
    // changes, these change, and every cached artifact must be
    // invalidated.  Checked against a second evaluation rather than
    // literals so the test documents the *property*.
    for (const char *name : {"505.mcf_r", "519.lbm_r"}) {
        SyntheticWorkload w1(benchmarkByName(name));
        SyntheticWorkload w2(benchmarkByName(name));
        EXPECT_EQ(Logger::streamChecksum(w1, 100, 20),
                  Logger::streamChecksum(w2, 100, 20))
            << name;
    }
}

TEST(Determinism, SimPointSelectionIsReproducible)
{
    BenchmarkSpec spec = benchmarkByName("620.omnetpp_s");
    spec.totalChunks = 4000; // keep the test fast
    SimPointConfig cfg;
    cfg.maxK = 10;
    SimPointResult a =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);
    SimPointResult b =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].slice, b.points[i].slice);
        EXPECT_DOUBLE_EQ(a.points[i].weight, b.points[i].weight);
    }
    EXPECT_EQ(a.sliceToCluster, b.sliceToCluster);
}

/** Serialize a SimPointResult to comparable bytes. */
std::vector<u8>
simpointBytes(const SimPointResult &r)
{
    ByteWriter w;
    serializeSimPoints(w, r);
    return w.bytes();
}

/** Serialize per-point cache metrics, excluding wall time (the only
 *  field allowed to vary run to run). */
std::vector<u8>
cachePointBytes(const std::vector<PointCacheMetrics> &pts)
{
    ByteWriter w;
    for (const auto &p : pts) {
        w.put<double>(p.weight);
        w.put<u64>(p.m.instrs);
        for (double f : p.m.mixFrac)
            w.put<double>(f);
        for (const LevelCounts *lc :
             {&p.m.l1i, &p.m.l1d, &p.m.l2, &p.m.l3}) {
            w.put<u64>(lc->accesses);
            w.put<u64>(lc->misses);
        }
        w.put<u64>(p.m.branches);
    }
    return w.bytes();
}

/** Serialize per-point timing metrics, excluding wall time. */
std::vector<u8>
timingPointBytes(const std::vector<PointTimingMetrics> &pts)
{
    ByteWriter w;
    for (const auto &p : pts) {
        w.put<double>(p.weight);
        w.put<u64>(p.m.instrs);
        w.put<double>(p.m.cycles);
        w.put<u64>(p.m.branches);
        w.put<u64>(p.m.mispredicts);
        w.put<u64>(p.m.l2Hits);
        w.put<u64>(p.m.l3Hits);
        w.put<u64>(p.m.memAccesses);
    }
    return w.bytes();
}

TEST(Determinism, SimPointSelectionThreadCountInvariant)
{
    // The determinism contract of support/thread_pool.hh, end to
    // end: the serialized SimPoint selection must be byte-identical
    // for SPLAB_THREADS = 1, 2 and 8.
    BenchmarkSpec spec = benchmarkByName("620.omnetpp_s");
    spec.totalChunks = 3000;
    SimPointConfig cfg;
    cfg.maxK = 8;
    auto bbvs = profileBbvs(spec, cfg.sliceInstrs);

    std::vector<std::vector<u8>> blobs;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        blobs.push_back(simpointBytes(pickSimPoints(bbvs, cfg)));
    }
    ThreadPool::setGlobalThreads(0);
    ASSERT_FALSE(blobs[0].empty());
    EXPECT_EQ(blobs[0], blobs[1]);
    EXPECT_EQ(blobs[0], blobs[2]);
}

TEST(Determinism, RegionalReplayThreadCountInvariant)
{
    // Per-point cache and timing metrics must not depend on how the
    // regional replays were scheduled across threads, cold (no
    // warm-up) or with a warm-up.
    BenchmarkSpec spec = benchmarkByName("557.xz_r");
    spec.totalChunks = 2000;
    SimPointConfig cfg;
    cfg.maxK = 6;
    SimPointResult sp =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);

    for (u64 warmup : {0u, 2u}) {
        std::vector<std::vector<u8>> cacheBlobs, timingBlobs;
        for (std::size_t threads : {1u, 2u, 8u}) {
            ThreadPool::setGlobalThreads(threads);
            cacheBlobs.push_back(cachePointBytes(measurePointsCache(
                spec, sp, tableIConfig(), warmup)));
            timingBlobs.push_back(timingPointBytes(measurePointsTiming(
                spec, sp, tableIIIMachine(), warmup)));
        }
        ThreadPool::setGlobalThreads(0);
        ASSERT_FALSE(cacheBlobs[0].empty()) << warmup;
        EXPECT_EQ(cacheBlobs[0], cacheBlobs[1]) << warmup;
        EXPECT_EQ(cacheBlobs[0], cacheBlobs[2]) << warmup;
        ASSERT_FALSE(timingBlobs[0].empty()) << warmup;
        EXPECT_EQ(timingBlobs[0], timingBlobs[1]) << warmup;
        EXPECT_EQ(timingBlobs[0], timingBlobs[2]) << warmup;
    }
}

/** Whole-run cache metrics as comparable bytes, excluding wall
 *  time. */
std::vector<u8>
wholeCacheBytes(const CacheRunMetrics &m)
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

/** Whole-run timing metrics as comparable bytes, excluding wall
 *  time. */
std::vector<u8>
wholeTimingBytes(const TimingRunMetrics &m)
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

TEST(Determinism, FusedWholeRunThreadCountInvariant)
{
    // The fused single-pass measurement must be byte-identical to
    // the separate passes it replaces, at every thread-pool size —
    // fusion and batching are observer changes, never stream
    // changes.
    BenchmarkSpec spec = benchmarkByName("505.mcf_r");
    spec.totalChunks = 1500;
    HierarchyConfig caches = tableIConfig();
    MachineConfig machine = tableIIIMachine();

    std::vector<u8> separateCache =
        wholeCacheBytes(measureWholeCache(spec, caches));
    std::vector<u8> separateTiming =
        wholeTimingBytes(measureWholeTiming(spec, machine));

    std::vector<std::vector<u8>> cacheBlobs, timingBlobs;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        FusedWholeResult fused =
            measureWholeFused(spec, caches, machine);
        cacheBlobs.push_back(wholeCacheBytes(fused.cache));
        timingBlobs.push_back(wholeTimingBytes(fused.timing));
    }
    ThreadPool::setGlobalThreads(0);

    for (std::size_t i = 0; i < cacheBlobs.size(); ++i) {
        EXPECT_EQ(cacheBlobs[i], separateCache) << "threads run " << i;
        EXPECT_EQ(timingBlobs[i], separateTiming)
            << "threads run " << i;
    }
}

TEST(Determinism, ArtifactManifestSectionThreadCountInvariant)
{
    // Artifact keys are pure functions of (spec, config, salts), so
    // the manifest's config + artifacts sections must render
    // byte-identically at any SPLAB_THREADS setting — that is what
    // makes run manifests diffable across machines.
    const std::vector<std::string> benches = {"620.omnetpp_s",
                                              "557.xz_r"};
    std::vector<ArtifactKind> allKinds;
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k)
        allKinds.push_back(static_cast<ArtifactKind>(k));

    // Process-global counters/stages accumulate across iterations;
    // the contract under test is the config + artifacts sections.
    std::vector<std::string> renders;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        ArtifactGraph g(ExperimentConfig::paperDefaults(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache("")));
        obs::RunManifest m("determinism-test");
        g.config().describe(m);
        g.recordArtifacts(m, benches, allKinds);
        auto parsed = obs::parseJson(m.renderDeterministic());
        ASSERT_TRUE(parsed.has_value());
        const obs::JsonValue *config = parsed->find("config");
        const obs::JsonValue *artifacts = parsed->find("artifacts");
        ASSERT_NE(config, nullptr);
        ASSERT_NE(artifacts, nullptr);
        EXPECT_EQ(artifacts->members().size(),
                  benches.size() * kNumArtifactKinds);
        renders.push_back(config->render() + artifacts->render());
    }
    ThreadPool::setGlobalThreads(0);
    ASSERT_FALSE(renders[0].empty());
    EXPECT_EQ(renders[0], renders[1]);
    EXPECT_EQ(renders[0], renders[2]);
}

TEST(Determinism, PinballRoundTripPreservesExecution)
{
    BenchmarkSpec spec = benchmarkByName("557.xz_r");
    spec.totalChunks = 2000;
    SyntheticWorkload original(spec);
    Pinball whole = Logger::captureWhole(original, true);

    std::string path = testing::TempDir() + "/det.pinball";
    whole.save(path);
    Replayer rep(Pinball::load(path));
    EXPECT_TRUE(rep.verifyChecksum());
    std::remove(path.c_str());
}

TEST(Determinism, WindowSplitMatchesContiguousRun)
{
    // Running [0, 100) in one engine call equals [0, 40) + [40, 100)
    // for every attached tool.
    BenchmarkSpec spec = benchmarkByName("541.leela_r");
    spec.totalChunks = 2000;

    SyntheticWorkload one(spec);
    LdStMixTool mixOne;
    Engine engineOne;
    engineOne.attach(&mixOne);
    engineOne.run(one, 0, 100);

    SyntheticWorkload two(spec);
    LdStMixTool mixTwo;
    Engine engineTwo;
    engineTwo.attach(&mixTwo);
    engineTwo.run(two, 0, 40);
    engineTwo.run(two, 40, 60);

    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        EXPECT_EQ(mixOne.mix().count[c], mixTwo.mix().count[c]);
}

TEST(Determinism, MidStreamAttachSeesSameSuffix)
{
    // A tool attached for the suffix only sees exactly the suffix
    // stream of a full run (Pin semantics: instrumentation does not
    // perturb execution).
    BenchmarkSpec spec = benchmarkByName("508.namd_r");
    spec.totalChunks = 1000;

    SyntheticWorkload full(spec);
    u64 direct = Logger::streamChecksum(full, 600, 50);

    SyntheticWorkload resumed(spec);
    // Execute a prefix with different tooling first.
    LdStMixTool mix;
    Engine engine;
    engine.attach(&mix);
    engine.run(resumed, 0, 600);
    u64 suffix = Logger::streamChecksum(resumed, 600, 50);
    EXPECT_EQ(direct, suffix);
}

TEST(Determinism, ScaledWorkloadKeepsStructure)
{
    // SPLAB_SCALE shortens runs but must not change the phase
    // structure (phases, weights, kernels).
    BenchmarkSpec full = benchmarkByName("625.x264_s");
    ASSERT_EQ(setenv("SPLAB_SCALE", "0.25", 1), 0);
    // workloadScale() caches on first use; emulate by constructing
    // the entry at a reduced length directly instead.
    unsetenv("SPLAB_SCALE");
    SuiteEntry entry = suiteEntry("625.x264_s");
    entry.slices /= 4;
    BenchmarkSpec quarter = makeBenchmark(entry);
    ASSERT_EQ(quarter.phases.size(), full.phases.size());
    for (std::size_t p = 0; p < full.phases.size(); ++p) {
        EXPECT_DOUBLE_EQ(quarter.phases[p].weight,
                         full.phases[p].weight);
        EXPECT_EQ(quarter.phases[p].kernel, full.phases[p].kernel);
    }
    EXPECT_EQ(quarter.totalChunks, full.totalChunks / 4);
}

} // namespace
} // namespace splab
