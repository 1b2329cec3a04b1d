/**
 * @file
 * The SamplingStrategy contracts: exact rational weight
 * normalization, registry round-trips, per-strategy selection
 * shape, determinism and thread-count invariance through the
 * artifact graph, Regions
 * artifact-key field sensitivity for every new knob, cold/warm
 * byte-equality of the per-strategy node families, and the
 * count-only strategies' profile-free path.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>

#include "core/artifact_graph.hh"
#include "obs/counters.hh"
#include "pin/tools/bbv_tool.hh"
#include "sampling/strategies.hh"
#include "support/env.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"

namespace splab
{
namespace
{

// Miniature workloads everywhere (see test_artifact_graph.cc).
[[maybe_unused]] const bool kScaleSet = [] {
    setenv("SPLAB_SCALE", "0.05", 1);
    return true;
}();

/** Smallest whole-run benchmark (fewest slices). */
const std::string kBench = "620.omnetpp_s";

ExperimentConfig
fastConfig()
{
    return ExperimentConfig::paperDefaults().withMaxK(6);
}

/** Deterministic two-phase synthetic BBV profile. */
std::vector<FrequencyVector>
synthBbvs(u64 n)
{
    std::vector<FrequencyVector> bbvs(n);
    for (u64 i = 0; i < n; ++i) {
        u32 phase = i < n / 2 ? 0 : 1;
        bbvs[i].entries = {
            {phase * 7u, 0.6f},
            {phase * 7u + 3u, 0.4f},
            {static_cast<u32>(i % 5) + 20u, 0.2f},
        };
    }
    return bbvs;
}

std::vector<u8>
selectionBytes(const RegionSelection &sel)
{
    ByteWriter w;
    serializeRegions(w, sel);
    return w.bytes();
}

u64
keyOf(const ExperimentConfig &cfg, ArtifactKind kind)
{
    ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    return g.artifactKey(kBench, kind);
}

TEST(RegionNormalize, WeightsAreExactRationalReconstructions)
{
    RegionSelection sel;
    for (u64 c : {3ull, 5ull, 7ull, 85ull}) {
        Region r;
        r.count = c;
        sel.regions.push_back(r);
    }
    sel.normalize();

    // Every weight is the one correctly-rounded division count /
    // total, bit-for-bit — the same value any caller reconstructing
    // the rational independently arrives at (0 ulp).
    u64 total = sel.countTotal();
    ASSERT_EQ(total, 100u);
    double recon = 0.0;
    for (const Region &r : sel.regions) {
        double expect = static_cast<double>(r.count) /
                        static_cast<double>(total);
        EXPECT_EQ(r.weight, expect);
        recon += expect;
    }
    // The sum equals the reconstructed sum bit-for-bit; it is also
    // 1.0 up to the usual FP-summation slack.
    EXPECT_EQ(sel.totalWeight(), recon);
    EXPECT_NEAR(sel.totalWeight(), 1.0, 1e-12);
}

TEST(RegionNormalize, EqualCountsBitEqualOneOverN)
{
    // c / (n*c) and 1/n round the same real number, so equal-share
    // selections carry exactly the historical 1/n weights.
    RegionSelection sel;
    sel.regions.resize(3);
    for (Region &r : sel.regions)
        r.count = 10;
    sel.normalize();
    for (const Region &r : sel.regions)
        EXPECT_EQ(r.weight, 1.0 / 3.0);
}

TEST(StrategyRegistry, NamesRoundTripAndSaltsAreDistinct)
{
    ASSERT_EQ(strategyNames().size(), kNumStrategies);
    std::set<u64> salts;
    for (const std::string &name : strategyNames()) {
        StrategyKind k = strategyByName(name);
        EXPECT_STREQ(strategyName(k), name.c_str());
        salts.insert(strategySalt(k));
    }
    EXPECT_EQ(salts.size(), kNumStrategies);
}

TEST(StrategyRegistry, MakeStrategyBuildsEveryKind)
{
    SamplingConfig cfg;
    SimPointConfig sp;
    for (const std::string &name : strategyNames()) {
        auto strat = makeStrategy(name, cfg, sp);
        ASSERT_NE(strat, nullptr) << name;
        EXPECT_STREQ(strat->name(), name.c_str());
    }
}

TEST(StrategyRegistry, ActiveHashSaltedPerStrategy)
{
    // Identical knob structs under different active strategies must
    // produce distinct Regions config slices (strategy salt).
    SamplingConfig cfg;
    SimPointConfig sp;
    std::set<u64> hashes;
    for (const std::string &name : strategyNames()) {
        cfg.strategy = strategyByName(name);
        hashes.insert(cfg.activeHash(sp));
    }
    EXPECT_EQ(hashes.size(), kNumStrategies);
}

TEST(SmartsShape, SystematicUnitsWithWarmupPrescription)
{
    SmartsConfig cfg;
    cfg.k = 10;
    cfg.munit = 2;
    cfg.wunit = 3;
    StrategyInputs in{nullptr, 100, 10000};
    RegionSelection sel = SmartsStrategy(cfg).select(in);

    // 50 units of 2 slices, every 10th starting mid-interval
    // (offset k/2 = unit 5): starts 10, 30, 50, 70, 90.
    ASSERT_EQ(sel.regions.size(), 5u);
    for (std::size_t i = 0; i < sel.regions.size(); ++i) {
        const Region &r = sel.regions[i];
        EXPECT_EQ(r.startSlice, 10 + 20 * i);
        EXPECT_EQ(r.lengthSlices, 2u);
        EXPECT_EQ(r.count, 2u);
        EXPECT_EQ(r.warmupSlices, 3u); // wunit (start >= wunit)
        EXPECT_EQ(r.weight, 2.0 / 10.0);
    }
    EXPECT_EQ(sel.measuredSlices(), 10u);
    EXPECT_EQ(sel.pilotSlices, 0u);
}

TEST(SmartsShape, AllwarmCoversTheWholeGap)
{
    SmartsConfig cfg;
    cfg.k = 10;
    cfg.munit = 2;
    cfg.allwarm = true;
    StrategyInputs in{nullptr, 100, 10000};
    RegionSelection sel = SmartsStrategy(cfg).select(in);

    ASSERT_EQ(sel.regions.size(), 5u);
    // First region warms from the run start; the rest warm the full
    // gap since the previous measurement unit ended.
    EXPECT_EQ(sel.regions[0].warmupSlices, 10u);
    for (std::size_t i = 1; i < sel.regions.size(); ++i)
        EXPECT_EQ(sel.regions[i].warmupSlices, 18u);
    // Continuous warming => every slice up to the last unit's end is
    // either warmed or measured.
    EXPECT_EQ(sel.measuredSlices() + sel.warmupSlicesTotal(0), 92u);
}

TEST(StratifiedShape, PilotPassAndExactStratumCounts)
{
    const u64 n = 200;
    auto bbvs = synthBbvs(n);
    StratifiedConfig cfg;
    cfg.strata = 4;
    cfg.budget = 16;
    cfg.pilotStride = 4;
    StrategyInputs in{&bbvs, n, 10000};
    RegionSelection sel = StratifiedStrategy(cfg).select(in);

    // Phase 1 cost is charged: every 4th slice piloted.
    EXPECT_EQ(sel.pilotSlices, 50u);
    // Counts are exact span populations, so they partition the run.
    EXPECT_EQ(sel.countTotal(), n);
    EXPECT_LE(sel.regions.size(), 16u);
    EXPECT_GE(sel.regions.size(), 1u);
    for (const Region &r : sel.regions) {
        EXPECT_LT(r.startSlice, n);
        EXPECT_LT(r.cluster, cfg.strata);
        EXPECT_EQ(r.weight, static_cast<double>(r.count) /
                                static_cast<double>(n));
    }
    for (std::size_t i = 1; i < sel.regions.size(); ++i)
        EXPECT_LT(sel.regions[i - 1].startSlice,
                  sel.regions[i].startSlice);
    // The pilot pass lowers the reduction factor below the
    // measured-slices-only figure.
    EXPECT_LT(sel.reductionFactor(0),
              static_cast<double>(n) /
                  static_cast<double>(sel.measuredSlices()));
}

TEST(RankedSetShape, MultiplicityPoolsToExactTotal)
{
    const u64 n = 120;
    auto bbvs = synthBbvs(n);
    RankedSetConfig cfg;
    cfg.setSize = 3;
    cfg.cycles = 4;
    cfg.subsamples = 5;
    StrategyInputs in{&bbvs, n, 10000};
    RegionSelection sel = RankedSetStrategy(cfg).select(in);

    // B subsamples x m cycles x r rank positions, merged by
    // multiplicity: counts sum to exactly B*m*r.
    EXPECT_EQ(sel.countTotal(), 5u * 4u * 3u);
    u64 total = sel.countTotal();
    std::set<SliceIndex> seen;
    for (const Region &r : sel.regions) {
        EXPECT_TRUE(seen.insert(r.startSlice).second);
        EXPECT_LT(r.startSlice, n);
        EXPECT_LT(r.cluster, cfg.setSize);
        EXPECT_GE(r.count, 1u);
        EXPECT_EQ(r.weight, static_cast<double>(r.count) /
                                static_cast<double>(total));
    }
    for (std::size_t i = 1; i < sel.regions.size(); ++i)
        EXPECT_LT(sel.regions[i - 1].startSlice,
                  sel.regions[i].startSlice);

    // Deterministic in the seed; a different seed reshuffles.
    EXPECT_EQ(selectionBytes(sel),
              selectionBytes(RankedSetStrategy(cfg).select(in)));
    RankedSetConfig other = cfg;
    other.seed += 1;
    EXPECT_NE(selectionBytes(sel),
              selectionBytes(RankedSetStrategy(other).select(in)));
}

TEST(StrategyDeterminism, ThreadCountInvariantThroughTheGraph)
{
    for (const std::string &name : strategyNames()) {
        std::vector<std::vector<u8>> blobs;
        std::vector<std::map<std::string, u64>> counters;
        for (std::size_t threads : {1u, 2u, 8u}) {
            ThreadPool::setGlobalThreads(threads);
            obs::resetCounters();
            ArtifactGraph g(fastConfig().withStrategy(name),
                            std::make_shared<const ArtifactCache>(
                                ArtifactCache("")));
            blobs.push_back(selectionBytes(g.regions(kBench)));

            std::map<std::string, u64> sampStats;
            for (const auto &kv : obs::counterSnapshot())
                if (kv.first.rfind("sampling.", 0) == 0)
                    sampStats[kv.first] = kv.second;
            counters.push_back(sampStats);
        }
        ThreadPool::setGlobalThreads(0);

        ASSERT_FALSE(blobs[0].empty()) << name;
        EXPECT_EQ(blobs[0], blobs[1]) << name;
        EXPECT_EQ(blobs[0], blobs[2]) << name;
        EXPECT_EQ(counters[0], counters[1]) << name;
        EXPECT_EQ(counters[0], counters[2]) << name;
        // The per-strategy work counters accumulated.
        EXPECT_GE(counters[0].at("sampling." + name +
                                 ".regions_selected"),
                  1u);
    }
}

TEST(RegionArtifactKeys, StrategySwitchMovesTheKey)
{
    std::set<u64> keys;
    for (const std::string &name : strategyNames())
        keys.insert(keyOf(fastConfig().withStrategy(name),
                          ArtifactKind::Regions));
    EXPECT_EQ(keys.size(), kNumStrategies);
}

TEST(RegionArtifactKeys, ActiveKnobsKeyTheSelection)
{
    // Every new knob moves its own strategy's Regions key (and
    // cascades to the replays through the Merkle chain).
    struct Case
    {
        const char *strategy;
        void (*mutate)(ExperimentConfig &);
    };
    const std::vector<Case> cases = {
        {"smarts", [](ExperimentConfig &c) { c.sampling.smarts.k += 1; }},
        {"smarts",
         [](ExperimentConfig &c) { c.sampling.smarts.munit += 1; }},
        {"smarts",
         [](ExperimentConfig &c) { c.sampling.smarts.wunit += 1; }},
        {"smarts",
         [](ExperimentConfig &c) { c.sampling.smarts.allwarm = true; }},
        {"stratified",
         [](ExperimentConfig &c) { c.sampling.stratified.strata += 1; }},
        {"stratified",
         [](ExperimentConfig &c) { c.sampling.stratified.budget += 1; }},
        {"stratified",
         [](ExperimentConfig &c) {
             c.sampling.stratified.pilotStride += 1;
         }},
        {"stratified",
         [](ExperimentConfig &c) { c.sampling.stratified.seed += 1; }},
        {"ranked_set",
         [](ExperimentConfig &c) { c.sampling.rankedSet.setSize += 1; }},
        {"ranked_set",
         [](ExperimentConfig &c) { c.sampling.rankedSet.cycles += 1; }},
        {"ranked_set",
         [](ExperimentConfig &c) {
             c.sampling.rankedSet.subsamples += 1;
         }},
        {"ranked_set",
         [](ExperimentConfig &c) { c.sampling.rankedSet.seed += 1; }},
        {"random",
         [](ExperimentConfig &c) { c.sampling.random.n += 1; }},
        {"random",
         [](ExperimentConfig &c) { c.sampling.random.seed += 1; }},
        {"stride",
         [](ExperimentConfig &c) { c.sampling.stride.n += 1; }},
        {"simpoint", [](ExperimentConfig &c) { c.simpoint.maxK += 1; }},
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
        ExperimentConfig base =
            fastConfig().withStrategy(cases[i].strategy);
        ExperimentConfig turned = base;
        cases[i].mutate(turned);
        EXPECT_NE(keyOf(base, ArtifactKind::Regions),
                  keyOf(turned, ArtifactKind::Regions))
            << "case " << i;
        EXPECT_NE(keyOf(base, ArtifactKind::RegionalPinball),
                  keyOf(turned, ArtifactKind::RegionalPinball))
            << "case " << i;
        EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheCold),
                  keyOf(turned, ArtifactKind::PointsCacheCold))
            << "case " << i;
    }
}

TEST(RegionArtifactKeys, InactiveKnobsDoNotMoveAnyKey)
{
    // An inactive strategy's knob must not invalidate any cached
    // artifact: the active slice hashes only what select() reads.
    ExperimentConfig base = fastConfig().withStrategy("smarts");
    ExperimentConfig turned = base;
    turned.sampling.stratified.strata += 3;
    turned.sampling.rankedSet.subsamples += 2;
    turned.sampling.random.seed += 1;
    turned.sampling.stride.n += 5;
    turned.simpoint.maxK += 1; // simpoint knobs inactive under smarts
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
        ArtifactKind kind = static_cast<ArtifactKind>(k);
        if (kind == ArtifactKind::SimPoints)
            continue; // keyed by its own (unchanged-path) config
        EXPECT_EQ(keyOf(base, kind), keyOf(turned, kind))
            << artifactKindName(kind);
    }
    // ...except SimPoints itself, whose own slice saw maxK move.
    EXPECT_NE(keyOf(base, ArtifactKind::SimPoints),
              keyOf(turned, ArtifactKind::SimPoints));
}

TEST(RegionArtifactKeys, CacheConfigDoesNotKeySelections)
{
    ExperimentConfig base = fastConfig().withStrategy("smarts");
    ExperimentConfig bigger = base;
    bigger.allcache.l1d.sizeBytes *= 2;
    EXPECT_EQ(keyOf(base, ArtifactKind::Regions),
              keyOf(bigger, ArtifactKind::Regions));
    EXPECT_EQ(keyOf(base, ArtifactKind::RegionalPinball),
              keyOf(bigger, ArtifactKind::RegionalPinball));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheCold),
              keyOf(bigger, ArtifactKind::PointsCacheCold));
}

TEST(RegionColdWarm, EveryStrategyByteEqualFromItsOwnFamily)
{
    std::string dir = testing::TempDir() + "/splab-sampling-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    for (const std::string &name : strategyNames()) {
        ExperimentConfig cfg = fastConfig().withStrategy(name);
        ArtifactGraph cold(cfg,
                           std::make_shared<const ArtifactCache>(
                               ArtifactCache(dir)));
        std::vector<u8> coldBytes =
            selectionBytes(cold.regions(kBench));

        obs::resetCounters();
        ArtifactGraph warm(cfg,
                           std::make_shared<const ArtifactCache>(
                               ArtifactCache(dir)));
        std::vector<u8> warmBytes =
            selectionBytes(warm.regions(kBench));

        EXPECT_EQ(coldBytes, warmBytes) << name;
        auto stats = obs::counterSnapshot();
        EXPECT_EQ(stats.at("graph.cache_hits"), 1u) << name;
        // Warm selections come from the strategy's own blob family
        // (flat "<family>-<key>.bin" layout); no re-selection
        // (counters stay registered process-wide, so check the
        // value, not the presence).
        bool familyOnDisk = false;
        for (const auto &e :
             std::filesystem::directory_iterator(dir))
            if (e.path().filename().string().rfind(
                    "regions_" + name + "-", 0) == 0)
                familyOnDisk = true;
        EXPECT_TRUE(familyOnDisk) << name;
        auto it = stats.find("sampling." + name +
                             ".regions_selected");
        EXPECT_EQ(it == stats.end() ? 0u : it->second, 0u) << name;
    }
}

TEST(RegionalPinballWarmup, PrescriptionCarriesThroughCapture)
{
    ExperimentConfig cfg = fastConfig().withStrategy("smarts");
    cfg.sampling.smarts.wunit = 2;
    ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    const Pinball &pin = g.regionalPinball(kBench);
    const RegionSelection &sel = g.regions(kBench);
    const BenchmarkSpec &spec = g.spec(kBench);
    u64 sliceChunks = cfg.simpoint.sliceInstrs / spec.chunkLen;

    ASSERT_EQ(pin.regions().size(), sel.regions.size());
    for (std::size_t i = 0; i < sel.regions.size(); ++i) {
        const RegionDesc &rd = pin.regions()[i];
        const Region &r = sel.regions[i];
        EXPECT_EQ(rd.firstChunk, r.startSlice * sliceChunks);
        EXPECT_EQ(rd.numChunks, r.lengthSlices * sliceChunks);
        EXPECT_EQ(rd.warmupChunks,
                  std::min<u64>(r.warmupSlices * sliceChunks,
                                rd.firstChunk));
        EXPECT_EQ(rd.weight, r.weight);
    }
    // SMARTS prescribes warm-up for every region past the run start.
    for (const RegionDesc &rd : pin.regions()) {
        if (rd.firstChunk > 0) {
            EXPECT_GT(rd.warmupChunks, 0u);
        }
    }
}

TEST(SimpointProjection, RegionsMatchSimPointSelection)
{
    // The simpoint strategy's Regions node is a projection of the
    // SimPoints node: same slices, clusters and verbatim weights.
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    const SimPointResult &sp = g.simpoints(kBench);
    const RegionSelection &sel = g.regions(kBench);
    ASSERT_EQ(sel.regions.size(), sp.points.size());
    for (std::size_t i = 0; i < sp.points.size(); ++i) {
        EXPECT_EQ(sel.regions[i].startSlice, sp.points[i].slice);
        EXPECT_EQ(sel.regions[i].count, sp.points[i].clusterSize);
        EXPECT_EQ(sel.regions[i].weight, sp.points[i].weight);
        EXPECT_EQ(sel.regions[i].cluster, sp.points[i].cluster);
        EXPECT_EQ(sel.regions[i].lengthSlices, 1u);
        EXPECT_EQ(sel.regions[i].warmupSlices, 0u);
    }
    EXPECT_EQ(sel.totalSlices, sp.totalSlices);
    EXPECT_EQ(sel.sliceInstrs, sp.sliceInstrs);
}

TEST(CountOnlyStrategies, SliceCountMatchesTheProfile)
{
    // smarts, random and stride select from BbvTool::sliceCount, not
    // from a profile.  It must equal the profile's length for every
    // benchmark, at two run lengths (SPLAB_SCALE 0.05, and 0.013
    // built by hand, since the file pins 0.05) and four slice
    // lengths.  The runs are whole multiples of 10k instructions, so
    // the final partial slice is a third of a 15k slice (dropped),
    // two thirds of one (kept) or half of a 20k one (kept).
    ASSERT_EQ(workloadScale(), 0.05);
    std::vector<BenchmarkSpec> specs;
    for (const std::string &name : suiteNames()) {
        specs.push_back(benchmarkByName(name));
        SuiteEntry e = suiteEntry(name);
        u64 slices = std::max<u64>(
            200, static_cast<u64>(static_cast<double>(e.slices) * 0.013));
        e.slices = slices * 20; // makeBenchmark scales by 0.05
        specs.push_back(makeBenchmark(e));
        ASSERT_EQ(specs.back().totalChunks, slices * 10) << name;
    }
    const std::vector<ICount> sliceLens = {5000, 10000, 15000, 20000};
    std::vector<u64> profiled(specs.size() * sliceLens.size());
    parallelFor(profiled.size(), [&](std::size_t i) {
        profiled[i] = profileBbvs(specs[i / sliceLens.size()],
                                  sliceLens[i % sliceLens.size()])
                          .size();
    });
    std::set<int> slivers; // -1 dropped, 0 half, 1 kept
    for (std::size_t i = 0; i < profiled.size(); ++i) {
        const BenchmarkSpec &spec = specs[i / sliceLens.size()];
        ICount slice = sliceLens[i % sliceLens.size()];
        EXPECT_EQ(BbvTool::sliceCount(spec.totalInstrs(), slice),
                  profiled[i])
            << spec.name << ", " << spec.totalChunks << " chunks, "
            << slice << "-instruction slices";
        ICount rem = spec.totalInstrs() % slice;
        if (rem > 0)
            slivers.insert(rem * 2 < slice ? -1 : rem * 2 > slice);
    }
    EXPECT_EQ(slivers, (std::set<int>{-1, 0, 1}));
}

TEST(CountOnlyStrategies, SelectWithoutReadingTheProfile)
{
    std::string dir = testing::TempDir() + "/splab-count-only";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::size_t countOnly = 0;
    for (const std::string &name : strategyNames()) {
        ExperimentConfig cfg = fastConfig().withStrategy(name);
        if (strategyReadsProfile(cfg.sampling.strategy))
            continue;
        ++countOnly;
        obs::resetCounters();
        ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                                 ArtifactCache(dir)));
        std::vector<u8> bytes = selectionBytes(g.regions(kBench));
        auto stats = obs::counterSnapshot();
        EXPECT_EQ(stats.at("graph.computed.bbvprofile"), 0u) << name;
        EXPECT_EQ(stats.at("graph.loaded.bbvprofile"), 0u) << name;

        // The same regions as a selection over the profile itself.
        ICount slice = cfg.simpoint.sliceInstrs;
        std::vector<FrequencyVector> bbvs =
            profileBbvs(g.spec(kBench), slice);
        EXPECT_EQ(bytes,
                  selectionBytes(makeStrategy(cfg.sampling, cfg.simpoint)
                                     ->select({&bbvs, bbvs.size(), slice})))
            << name;
    }
    EXPECT_EQ(countOnly, 3u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace splab
