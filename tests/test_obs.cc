/**
 * @file
 * The observability layer: JSON model, trace spans (nesting and
 * thread-pool attribution), counter determinism, run manifests, the
 * typed artifact-cache outcomes and the fluent experiment builder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/artifact_graph.hh"
#include "obs/counters.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/trace.hh"
#include "simpoint/simpoint.hh"
#include "support/thread_pool.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

TEST(ObsJson, RenderParseRoundTrip)
{
    obs::JsonValue root = obs::JsonValue::object();
    root.set("name", obs::JsonValue::string("fig5 \"quoted\"\n"));
    root.set("count", obs::JsonValue::number(u64{42}));
    root.set("ratio", obs::JsonValue::number(0.30000000000000004));
    root.set("on", obs::JsonValue::boolean(true));
    obs::JsonValue arr = obs::JsonValue::array();
    arr.push(obs::JsonValue::number(i64{-7}));
    arr.push(obs::JsonValue::null());
    root.set("items", std::move(arr));

    std::string text = root.render();
    auto parsed = obs::parseJson(text);
    ASSERT_TRUE(parsed.has_value());
    // Idempotent rendering: parse(render(x)) renders identically.
    EXPECT_EQ(parsed->render(), text);

    const obs::JsonValue *name = parsed->find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->asString(), "fig5 \"quoted\"\n");
    EXPECT_EQ(parsed->find("count")->asU64(), 42u);
    EXPECT_DOUBLE_EQ(parsed->find("ratio")->asDouble(),
                     0.30000000000000004);
    EXPECT_EQ(parsed->find("items")->size(), 2u);
    EXPECT_TRUE(parsed->find("items")->at(1).isNull());
}

TEST(ObsJson, RejectsMalformedDocuments)
{
    EXPECT_FALSE(obs::parseJson("{").has_value());
    EXPECT_FALSE(obs::parseJson("{\"a\": }").has_value());
    EXPECT_FALSE(obs::parseJson("[1, 2,]").has_value());
    EXPECT_FALSE(obs::parseJson("{} trailing").has_value());
    EXPECT_FALSE(obs::parseJson("\"unterminated").has_value());
}

TEST(ObsJson, FormatDoubleRoundTrips)
{
    for (double v : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e-300, 2.5e17,
                     0.30000000000000004}) {
        std::string s = obs::formatDouble(v);
        EXPECT_EQ(std::stod(s), v) << s;
    }
}

TEST(ObsTrace, SpansNestIntoPaths)
{
    obs::clearSpans();
    {
        obs::TraceSpan outer("outer");
        {
            obs::TraceSpan inner("inner");
        }
        {
            obs::TraceSpan inner("inner");
        }
    }
    auto stats = obs::spanStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].path, "outer");
    EXPECT_EQ(stats[0].count, 1u);
    EXPECT_EQ(stats[1].path, "outer/inner");
    EXPECT_EQ(stats[1].count, 2u);
}

TEST(ObsTrace, CloseIsIdempotentAndEndsTheSpanEarly)
{
    obs::clearSpans();
    {
        obs::TraceSpan a("a");
        a.close();
        a.close(); // second close must be a no-op
        obs::TraceSpan b("b");
        // "a" closed before "b" opened, so "b" is NOT a child of "a".
    }
    auto stats = obs::spanStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].path, "a");
    EXPECT_EQ(stats[1].path, "b");
}

TEST(ObsTrace, PoolWorkersInheritTheSubmittersPath)
{
    // Spans opened inside parallelFor tasks must aggregate under the
    // submitting stage's path — identically at every thread count.
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        obs::clearSpans();
        {
            obs::TraceSpan stage("stage");
            parallelFor(16, [&](std::size_t) {
                obs::TraceSpan work("work");
            });
        }
        auto stats = obs::spanStats();
        ASSERT_EQ(stats.size(), 2u) << "threads=" << threads;
        EXPECT_EQ(stats[0].path, "stage");
        EXPECT_EQ(stats[1].path, "stage/work");
        EXPECT_EQ(stats[1].count, 16u) << "threads=" << threads;
    }
    ThreadPool::setGlobalThreads(0);
    obs::clearSpans();
}

TEST(ObsTrace, ChromeTraceIsParseableJson)
{
    obs::clearSpans();
    obs::setTracingEnabled(true);
    {
        obs::TraceSpan outer("outer");
        obs::TraceSpan inner("inner");
    }
    obs::setTracingEnabled(false);
    EXPECT_GE(obs::traceEventCount(), 2u);

    std::string path = testing::TempDir() + "/obs_trace.json";
    ASSERT_TRUE(obs::writeChromeTrace(path));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    auto doc = obs::parseJson(text);
    ASSERT_TRUE(doc.has_value());
    const obs::JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GE(events->size(), 2u);
    bool sawInner = false;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const obs::JsonValue &e = events->at(i);
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("ph"), nullptr);
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("dur"), nullptr);
        if (e.find("name")->asString() == "inner")
            sawInner = true;
    }
    EXPECT_TRUE(sawInner);
    obs::clearSpans();
}

TEST(ObsCounters, RegistryAccumulatesAndSnapshots)
{
    obs::Counter &c =
        obs::counter("test_obs.widget", "widgets processed");
    c.reset();
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Same name -> same counter.
    EXPECT_EQ(&obs::counter("test_obs.widget"), &c);
    EXPECT_EQ(obs::counterSnapshot().at("test_obs.widget"), 5u);
    EXPECT_EQ(obs::statDescription("test_obs.widget"),
              "widgets processed");
    c.reset();
}

TEST(ObsCounters, DeterministicAcrossThreadCounts)
{
    // The manifest contract: after identical work, the counter
    // snapshot and the deterministic manifest rendering must be
    // byte-identical at SPLAB_THREADS = 1, 2 and 8.
    BenchmarkSpec spec = benchmarkByName("541.leela_r");
    spec.totalChunks = 1200;
    SimPointConfig cfg;
    cfg.maxK = 4;
    auto bbvs = profileBbvs(spec, cfg.sliceInstrs);

    std::map<std::string, u64> snapshots[3];
    std::string manifests[3];
    std::size_t round = 0;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        obs::resetCounters();
        obs::clearSpans();
        (void)pickSimPoints(bbvs, cfg);
        snapshots[round] = obs::counterSnapshot();

        obs::RunManifest m("test_obs");
        m.setConfig("simpoint.max_k", cfg.maxK);
        manifests[round] = m.renderDeterministic();
        ++round;
    }
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(snapshots[0], snapshots[1]);
    EXPECT_EQ(snapshots[0], snapshots[2]);
    EXPECT_EQ(manifests[0], manifests[1]);
    EXPECT_EQ(manifests[0], manifests[2]);
    EXPECT_GT(snapshots[0].at("kmeans.fits"), 0u);
    obs::resetCounters();
    obs::clearSpans();
}

TEST(ObsManifest, SchemaRoundTrips)
{
    obs::clearSpans();
    {
        obs::TraceSpan span("manifest_stage");
    }
    std::string outPath = testing::TempDir() + "/obs_out.csv";
    std::FILE *f = std::fopen(outPath.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n1,2\n", f);
    std::fclose(f);

    obs::RunManifest m("test_tool");
    m.setConfig("simpoint.max_k", u32{35});
    m.setConfig("machine.model", "tableIII");
    m.setConfig("bic_fraction", 0.9);
    m.recordEnv("SPLAB_SCALE");
    ASSERT_TRUE(m.addOutput(outPath));
    m.setTimingNote("wall_s", 1.25);
    std::remove(outPath.c_str());

    auto doc = obs::parseJson(m.render());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->asString(), "splab-manifest-v1");
    EXPECT_EQ(doc->find("tool")->asString(), "test_tool");
    EXPECT_EQ(doc->find("config")->find("simpoint.max_k")->asU64(),
              35u);
    EXPECT_DOUBLE_EQ(
        doc->find("config")->find("bic_fraction")->asDouble(), 0.9);
    ASSERT_NE(doc->find("env")->find("SPLAB_SCALE"), nullptr);
    ASSERT_NE(doc->find("counters"), nullptr);
    const obs::JsonValue *outs = doc->find("outputs");
    ASSERT_NE(outs, nullptr);
    ASSERT_EQ(outs->size(), 1u);
    EXPECT_EQ(outs->at(0).find("file")->asString(), "obs_out.csv");
    EXPECT_EQ(outs->at(0).find("bytes")->asU64(), 8u);
    ASSERT_NE(doc->find("timing"), nullptr);
    ASSERT_NE(doc->find("timing")->find("wall_s"), nullptr);

    // Span aggregation surfaced in the stages section.
    const obs::JsonValue *stages = doc->find("stages");
    ASSERT_NE(stages, nullptr);
    bool sawStage = false;
    for (std::size_t i = 0; i < stages->size(); ++i)
        if (stages->at(i).find("path")->asString() ==
            "manifest_stage")
            sawStage = true;
    EXPECT_TRUE(sawStage);

    // The deterministic rendering drops the volatile section.
    auto det = obs::parseJson(m.renderDeterministic());
    ASSERT_TRUE(det.has_value());
    EXPECT_EQ(det->find("timing"), nullptr);
    obs::clearSpans();
}

TEST(ObsManifest, CarriesArtifactCacheCounterFamily)
{
    // Constructing a cache registers the full counter family
    // eagerly, so every run manifest's deterministic section carries
    // the counts (zeros included) — cross-run diffs and the service
    // smoke test key off them.
    std::string dir = testing::TempDir() + "/obs_manifest_cache";
    std::filesystem::remove_all(dir);
    ArtifactCache cache(dir);

    obs::RunManifest m("test_obs");
    auto det = obs::parseJson(m.renderDeterministic());
    ASSERT_TRUE(det.has_value());
    const obs::JsonValue *counters = det->find("counters");
    ASSERT_NE(counters, nullptr);
    for (const char *name :
         {"artifact_cache.hits", "artifact_cache.misses",
          "artifact_cache.corrupt", "artifact_cache.bytes_read",
          "artifact_cache.bytes_written"})
        EXPECT_NE(counters->find(name), nullptr) << name;
}

TEST(ObsCache, OutcomeDistinguishesHitMissCorruptDisabled)
{
    std::string dir = testing::TempDir() + "/obs_cache_test";
    std::filesystem::remove_all(dir);
    ArtifactCache cache(dir);
    ASSERT_TRUE(cache.enabled());

    EXPECT_EQ(cache.load("simpoints", 7).status, CacheStatus::Miss);

    ByteWriter w;
    w.put<u64>(0xfeedULL);
    cache.store("simpoints", 7, w);
    CacheOutcome hit = cache.load("simpoints", 7);
    EXPECT_EQ(hit.status, CacheStatus::Hit);
    ASSERT_TRUE(hit.hit());
    EXPECT_EQ(hit->get<u64>(), 0xfeedULL);

    // Truncate the stored blob: the checksum no longer validates and
    // the lookup must say Corrupt, not Hit or Miss.  The blob is the
    // only file in the directory.
    std::size_t corrupted = 0;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        std::filesystem::resize_file(ent.path(), 3);
        ++corrupted;
    }
    ASSERT_EQ(corrupted, 1u);
    EXPECT_EQ(cache.load("simpoints", 7).status,
              CacheStatus::Corrupt);

    ArtifactCache off("");
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.load("simpoints", 7).status,
              CacheStatus::Disabled);
    std::filesystem::remove_all(dir);
}

TEST(ObsCache, UnusableCacheDirDegradesToDisabled)
{
    // A path that cannot become a directory (a regular file is in
    // the way) must disable the cache instead of failing every
    // store; loads then report Disabled.
    std::string file = testing::TempDir() + "/obs_cache_blocker";
    std::FILE *f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    ArtifactCache cache(file + "/sub");
    EXPECT_FALSE(cache.enabled());
    EXPECT_EQ(cache.load("simpoints", 1).status,
              CacheStatus::Disabled);
    ByteWriter w;
    w.put<u32>(1);
    cache.store("simpoints", 1, w); // must be a silent no-op
    std::remove(file.c_str());
}

TEST(ObsConfig, FluentBuilderMatchesFieldPokes)
{
    ExperimentConfig cfg = ExperimentConfig::paperDefaults()
                               .withMaxK(12)
                               .withWarmupChunks(7)
                               .withSeed(99)
                               .withSliceInstrs(5000);
    EXPECT_EQ(cfg.simpoint.maxK, 12u);
    EXPECT_EQ(cfg.warmupChunks, 7u);
    EXPECT_EQ(cfg.simpoint.seed, 99u);
    EXPECT_EQ(cfg.simpoint.sliceInstrs, 5000u);

    // The deprecated spelling still works and agrees.
    ExperimentConfig legacy;
    legacy.simpoint.maxK = 12;
    legacy.warmupChunks = 7;
    legacy.simpoint.seed = 99;
    legacy.simpoint.sliceInstrs = 5000;
    EXPECT_EQ(legacy.simpoint.contentHash(),
              cfg.simpoint.contentHash());

    obs::RunManifest m("builder_test");
    cfg.describe(m);
    auto doc = obs::parseJson(m.renderDeterministic());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("config")->find("simpoint.max_k")->asU64(),
              12u);
    EXPECT_EQ(doc->find("config")->find("warmup_chunks")->asU64(),
              7u);
}

TEST(ObsPipeline, SimPointBlobsHaveNoPaddingGarbage)
{
    // SimPoint/KSweepEntry carry internal struct padding; the
    // serializer must emit fields, not raw structs, so two
    // serializations of equal results are byte-identical even when
    // the structs were built on differently-dirtied stacks/heaps.
    SimPointResult r;
    r.chosenK = 2;
    r.totalSlices = 10;
    r.sliceInstrs = 10000;
    r.points.push_back({3, 0.4, 0, 4, 0.01});
    r.points.push_back({8, 0.6, 1, 6, 0.02});
    r.sliceToCluster = {0, 0, 0, 0, 1, 1, 1, 1, 1, 1};
    r.sweep.push_back({1, 10.0, 5.0, 0.5});
    r.sweep.push_back({2, 20.0, 2.0, 0.25});

    ByteWriter w1, w2;
    serializeSimPoints(w1, r);
    ByteReader rd(w1.bytes());
    SimPointResult back = deserializeSimPoints(rd);
    serializeSimPoints(w2, back);
    EXPECT_EQ(w1.bytes(), w2.bytes());
    EXPECT_EQ(back.chosenK, r.chosenK);
    ASSERT_EQ(back.points.size(), 2u);
    EXPECT_EQ(back.points[1].slice, 8u);
    EXPECT_DOUBLE_EQ(back.points[1].weight, 0.6);
    EXPECT_EQ(back.sliceToCluster, r.sliceToCluster);
    ASSERT_EQ(back.sweep.size(), 2u);
    EXPECT_DOUBLE_EQ(back.sweep[1].bic, 20.0);
}

} // namespace
} // namespace splab
