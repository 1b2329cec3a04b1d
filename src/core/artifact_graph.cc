#include "artifact_graph.hh"

#include <array>
#include <condition_variable>
#include <cstdio>

#include "artifact_backend.hh"
#include "obs/counters.hh"
#include "obs/trace.hh"
#include "pinball/logger.hh"
#include "sampling/strategies.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "timing/interval_core.hh"
#include "workload/synthetic.hh"

namespace splab
{

namespace
{

// Artifact blobs are written as raw struct bytes (putVector / put),
// so the structs must be padding-free or cached blobs would embed
// uninitialized bytes and break byte-level reproducibility (see the
// SimPoint field-wise serializer for the one type that is not).
static_assert(sizeof(LevelCounts) == 16);
static_assert(sizeof(CacheRunMetrics) == 120);
static_assert(sizeof(TimingRunMetrics) == 64);
static_assert(sizeof(FusedWholeMetrics) == 184);
static_assert(sizeof(PointCacheMetrics) == 128);
static_assert(sizeof(PointTimingMetrics) == 72);
static_assert(sizeof(PerfCounters) == 48);

/** Static description of one artifact kind. */
struct KindInfo
{
    const char *name;     ///< cache-blob family + manifest key
    const char *spanName; ///< trace span around load/compute
    /** Version salt: bump the low digits when the producing
     *  algorithm or serialized layout of this kind changes. */
    u64 salt;
    bool persisted;
    std::vector<ArtifactKind> deps;
};

const KindInfo &
kindInfo(ArtifactKind k)
{
    static const std::array<KindInfo, kNumArtifactKinds> table = {{
        {"spec", "graph.spec", 0x7370656300000001ULL, false, {}},
        // Persisted because every strategy graph over one cache
        // selects from the same profile (its key has no strategy in
        // it): the first graph computes it, later ones load it.
        // Persisting moved neither the salt nor the bytes.
        {"bbvprofile", "graph.bbv_profile", 0x6262767000000001ULL,
         true, {ArtifactKind::Spec}},
        {"simpoints", "graph.simpoints", 0x73696d7000000001ULL,
         true, {ArtifactKind::BbvProfile}},
        // Strategy-selected regions.  Deps are {BbvProfile} even
        // though the simpoint strategy's compute routes through the
        // SimPoints node: the *value* is a pure function of the BBV
        // profile plus the active strategy's knobs, which enter the
        // key through the strategy-salted config slice
        // (SamplingConfig::activeHash).  The blob family is
        // per-strategy ("regions_smarts", ...) — see blobFamily().
        {"regions", "graph.regions", 0x7267696f00000001ULL, true,
         {ArtifactKind::BbvProfile}},
        // The one persisted whole-run blob: both views inline, so a
        // warm run of any whole-run consumer skips the traversal.
        // Salt history: ..02 when it became persisted as a ref blob
        // over shared sub-blobs, ..03 when it became inline bytes
        // with no wall clock.
        {"wholefused", "graph.whole_fused", 0x7766757300000003ULL,
         true, {ArtifactKind::Spec}},
        // Memory-resident projections of wholefused (see
        // computeValue); their keys name no blob.
        {"wholecache", "graph.whole_cache", 0x7763616300000003ULL,
         false, {ArtifactKind::Spec}},
        {"wholetiming", "graph.whole_timing", 0x7774696d00000003ULL,
         false, {ArtifactKind::Spec}},
        // Salt bumped (..01 -> ..02) when the capture moved from the
        // SimPoints selection to the strategy-generic Regions node
        // (regions gained lengths and warm-up prescriptions).
        {"regionalpinball", "graph.regional_pinball",
         0x7270696e00000002ULL, false,
         {ArtifactKind::Spec, ArtifactKind::Regions}},
        // One replay per region for all three per-point runs, and
        // the one persisted per-point blob: a warm run of any
        // per-point consumer never replays.
        {"pointsfused", "graph.points_fused", 0x7066757300000001ULL,
         true, {ArtifactKind::RegionalPinball}},
        // Memory-resident projections of pointsfused (see
        // computeValue).  Their values are byte-equal to a replay
        // under their own tools alone, so deps, slices and salts
        // did not move.
        {"pointscold", "graph.points_cache_cold",
         0x70636f6c00000001ULL, false,
         {ArtifactKind::RegionalPinball}},
        {"pointswarm", "graph.points_cache_warm",
         0x7077726d00000001ULL, false,
         {ArtifactKind::RegionalPinball}},
        // Projects wholetiming (see computeValue), byte-equal to a
        // standalone NativeMachine::run, so the salt did not move.
        {"native", "graph.native", 0x6e61746900000001ULL, true,
         {ArtifactKind::Spec}},
        {"pointstiming", "graph.points_timing",
         0x7074696d00000001ULL, false,
         {ArtifactKind::RegionalPinball}},
    }};
    return table[static_cast<u8>(k)];
}

/**
 * Cache-blob family (and manifest key prefix) of one kind.  Regions
 * qualifies by the active strategy ("regions_smarts", ...): each
 * strategy is its own cached node family, so per-strategy selections
 * coexist in one cache directory and the manifest says which
 * strategy produced each recorded key.
 */
std::string
blobFamily(ArtifactKind kind, const ExperimentConfig &cfg)
{
    std::string family = kindInfo(kind).name;
    if (kind == ArtifactKind::Regions) {
        family += '_';
        family += strategyName(cfg.sampling.strategy);
    }
    return family;
}

} // namespace

const char *
artifactKindName(ArtifactKind k)
{
    return kindInfo(k).name;
}

const std::vector<ArtifactKind> &
artifactKindDeps(ArtifactKind k)
{
    return kindInfo(k).deps;
}

bool
artifactKindPersisted(ArtifactKind k)
{
    return kindInfo(k).persisted;
}

u64
artifactKindSalt(ArtifactKind k)
{
    return kindInfo(k).salt;
}

void
serializeArtifact(ByteWriter &w, const ArtifactValue &v)
{
    struct Visitor
    {
        ByteWriter &w;

        void
        operator()(const BenchmarkSpec &s)
        {
            s.serialize(w);
        }
        void
        operator()(const std::vector<FrequencyVector> &bbvs)
        {
            w.put<u64>(bbvs.size());
            for (const FrequencyVector &fv : bbvs)
                w.putVector(fv.entries);
        }
        void
        operator()(const SimPointResult &r)
        {
            serializeSimPoints(w, r);
        }
        void
        operator()(const RegionSelection &s)
        {
            serializeRegions(w, s);
        }
        void
        operator()(const FusedWholeMetrics &m)
        {
            w.put(m);
        }
        void
        operator()(const CacheRunMetrics &m)
        {
            w.put(m);
        }
        void
        operator()(const Pinball &p)
        {
            p.serialize(w);
        }
        void
        operator()(const PointsFusedMetrics &m)
        {
            w.putVector(m.cold);
            w.putVector(m.warm);
            w.putVector(m.timing);
        }
        void
        operator()(const std::vector<PointCacheMetrics> &pts)
        {
            w.putVector(pts);
        }
        void
        operator()(const TimingRunMetrics &m)
        {
            w.put(m);
        }
        void
        operator()(const PerfCounters &c)
        {
            w.put(c);
        }
        void
        operator()(const std::vector<PointTimingMetrics> &pts)
        {
            w.putVector(pts);
        }
    };
    std::visit(Visitor{w}, v);
}

ArtifactValue
deserializeArtifact(ArtifactKind k, ByteReader &r)
{
    switch (k) {
      case ArtifactKind::Spec:
        return BenchmarkSpec::deserialize(r);
      case ArtifactKind::BbvProfile: {
        std::vector<FrequencyVector> bbvs(r.get<u64>());
        for (FrequencyVector &fv : bbvs)
            fv.entries = r.getVector<BbvEntry>();
        return bbvs;
      }
      case ArtifactKind::SimPoints:
        return deserializeSimPoints(r);
      case ArtifactKind::Regions:
        return deserializeRegions(r);
      case ArtifactKind::WholeFused:
        return r.get<FusedWholeMetrics>();
      case ArtifactKind::WholeCache:
        return r.get<CacheRunMetrics>();
      case ArtifactKind::WholeTiming:
        return r.get<TimingRunMetrics>();
      case ArtifactKind::RegionalPinball:
        return Pinball::deserialize(r);
      case ArtifactKind::PointsFused: {
        PointsFusedMetrics m;
        m.cold = r.getVector<PointCacheMetrics>();
        m.warm = r.getVector<PointCacheMetrics>();
        m.timing = r.getVector<PointTimingMetrics>();
        return m;
      }
      case ArtifactKind::PointsCacheCold:
      case ArtifactKind::PointsCacheWarm:
        return r.getVector<PointCacheMetrics>();
      case ArtifactKind::Native:
        return r.get<PerfCounters>();
      case ArtifactKind::PointsTiming:
        return r.getVector<PointTimingMetrics>();
    }
    SPLAB_FATAL("unknown artifact kind ",
                static_cast<int>(static_cast<u8>(k)));
}

u64
ExperimentConfig::contentHash() const
{
    ByteWriter w;
    w.put<u64>(simpoint.contentHash());
    w.put<u8>(static_cast<u8>(sampling.strategy));
    w.put<u64>(sampling.smarts.contentHash());
    w.put<u64>(sampling.stratified.contentHash());
    w.put<u64>(sampling.rankedSet.contentHash());
    w.put<u64>(sampling.random.contentHash());
    w.put<u64>(sampling.stride.contentHash());
    w.put<u64>(allcache.contentHash());
    w.put<u64>(machine.contentHash());
    w.put<u64>(warmupChunks);
    w.put<double>(cost.wholeRate);
    w.put<double>(cost.regionalRate);
    w.put<double>(cost.pinballStartup);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

void
ExperimentConfig::describe(obs::RunManifest &m) const
{
    m.setConfig("simpoint.max_k", simpoint.maxK);
    m.setConfig("simpoint.slice_instrs", u64{simpoint.sliceInstrs});
    m.setConfig("simpoint.projection_dim", simpoint.projectionDim);
    m.setConfig("simpoint.bic_fraction", simpoint.bicFraction);
    m.setConfig("simpoint.restarts", simpoint.restarts);
    m.setConfig("simpoint.max_iters", simpoint.maxIters);
    m.setConfig("simpoint.sample_cap", simpoint.sampleCap);
    m.setConfig("simpoint.merge_threshold", simpoint.mergeThreshold);
    m.setConfig("simpoint.seed", simpoint.seed);
    // The active strategy records "sampling.strategy" plus its own
    // "sampling.<strategy>.<knob>" keys.
    makeStrategy(sampling, simpoint)->describe(m);
    m.setConfig("warmup_chunks", warmupChunks);
    auto level = [&](const char *name, const CacheParams &p) {
        std::string base = std::string("allcache.") + name;
        m.setConfig(base + ".size_bytes", p.sizeBytes);
        m.setConfig(base + ".ways", p.ways);
        m.setConfig(base + ".line_bytes", p.lineBytes);
        m.setConfig(base + ".replacement",
                    replacementPolicyName(p.replacement));
    };
    level("l1i", allcache.l1i);
    level("l1d", allcache.l1d);
    level("l2", allcache.l2);
    level("l3", allcache.l3);
    m.setConfig("machine.model", machine.model);
    auto hashHex = [](u64 h) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(h));
        return std::string(hex);
    };
    m.setConfig("machine.content_hash",
                hashHex(machine.contentHash()));
    m.setConfig("experiment.content_hash", hashHex(contentHash()));
}

/** Single-flight state of one (benchmark, kind) node. */
struct ArtifactGraph::Node
{
    std::mutex mtx;
    std::condition_variable cv;
    enum State : u8
    {
        Empty,   ///< never requested
        Busy,    ///< one thread is loading/computing
        Ready,   ///< value valid; immutable from here on
    } state = Empty;
    ArtifactValue value;
};

ArtifactGraph::ArtifactGraph(ExperimentConfig cfg)
    : ArtifactGraph(std::move(cfg),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache(artifactCacheDir())))
{
}

ArtifactGraph::ArtifactGraph(
    ExperimentConfig cfg, std::shared_ptr<const ArtifactCache> cache)
    : cfg(std::move(cfg)), cache(std::move(cache))
{
    SPLAB_ASSERT(this->cache != nullptr,
                 "artifact graph needs a cache instance (may be "
                 "disabled, not null)");
}

ArtifactGraph::ArtifactGraph(
    ExperimentConfig cfg, std::shared_ptr<const ArtifactCache> cache,
    LocalBackendTag)
    : ArtifactGraph(std::move(cfg), std::move(cache))
{
}

ArtifactGraph::~ArtifactGraph() = default;

ArtifactGraph::Node &
ArtifactGraph::nodeFor(const std::string &name, ArtifactKind kind)
{
    std::lock_guard<std::mutex> g(registryMtx);
    auto &slot = nodes[{name, static_cast<u8>(kind)}];
    if (!slot)
        slot = std::make_unique<Node>();
    return *slot;
}

u64
ArtifactGraph::configSliceHash(ArtifactKind kind) const
{
    switch (kind) {
      case ArtifactKind::Spec:
        return 0; // the spec's own content hash is the key
      case ArtifactKind::BbvProfile:
        return hashCombine(0, u64{cfg.simpoint.sliceInstrs});
      case ArtifactKind::SimPoints:
        return cfg.simpoint.contentHash();
      case ArtifactKind::Regions:
        // Strategy-salted slice over exactly the active strategy's
        // knobs: switching strategies or turning an *active* knob
        // moves the key; an inactive strategy's knob never does.
        return cfg.sampling.activeHash(cfg.simpoint);
      case ArtifactKind::WholeFused:
        // The fused value carries both views, so its key covers
        // both config surfaces.
        return hashCombine(cfg.allcache.contentHash(),
                           cfg.machine.contentHash());
      case ArtifactKind::RegionalPinball:
        // Pure function of (spec, simpoints); no config of its own.
        return 0;
      case ArtifactKind::PointsFused:
        // The union of its three projections' slices.
        return hashCombine(hashCombine(cfg.allcache.contentHash(),
                                       cfg.machine.contentHash()),
                           cfg.warmupChunks);
      case ArtifactKind::WholeCache:
      case ArtifactKind::PointsCacheCold:
        return cfg.allcache.contentHash();
      case ArtifactKind::PointsCacheWarm:
        return hashCombine(cfg.allcache.contentHash(),
                           cfg.warmupChunks);
      case ArtifactKind::WholeTiming:
      case ArtifactKind::Native:
        return cfg.machine.contentHash();
      case ArtifactKind::PointsTiming:
        return hashCombine(cfg.machine.contentHash(),
                           cfg.warmupChunks);
    }
    SPLAB_FATAL("unknown artifact kind ",
                static_cast<int>(static_cast<u8>(kind)));
}

u64
ArtifactGraph::artifactKey(const std::string &name,
                           ArtifactKind kind)
{
    if (kind == ArtifactKind::Spec)
        return hashCombine(artifactKindSalt(kind),
                           spec(name).contentHash());
    u64 k = hashCombine(artifactKindSalt(kind),
                        configSliceHash(kind));
    for (ArtifactKind d : artifactKindDeps(kind))
        k = hashCombine(k, artifactKey(name, d));
    return k;
}

ArtifactValue
ArtifactGraph::computeValue(const std::string &name,
                            ArtifactKind kind)
{
    switch (kind) {
      case ArtifactKind::Spec:
        return benchmarkByName(name);
      case ArtifactKind::BbvProfile:
        return profileBbvs(spec(name), cfg.simpoint.sliceInstrs);
      case ArtifactKind::SimPoints:
        SPLAB_VERBOSE("simpoint selection: ", name);
        return SimpointStrategy(cfg.simpoint).pick(bbvProfile(name));
      case ArtifactKind::Regions: {
        SPLAB_VERBOSE("region selection (",
                      strategyName(cfg.sampling.strategy),
                      "): ", name);
        if (cfg.sampling.strategy == StrategyKind::Simpoint) {
            // Route through the cached SimPoints node instead of
            // re-clustering; the value is the same pure function of
            // the BBV profile either way (projection-node rule).
            RegionSelection sel =
                regionsFromSimPoints(simpoints(name));
            accountSelection(StrategyKind::Simpoint, sel);
            return sel;
        }
        const std::vector<FrequencyVector> &bbvs = bbvProfile(name);
        StrategyInputs in{&bbvs, bbvs.size(),
                          cfg.simpoint.sliceInstrs};
        return makeStrategy(cfg.sampling, cfg.simpoint)->select(in);
      }
      case ArtifactKind::WholeFused: {
        SPLAB_INFORM("fused whole-run simulation: ", name);
        FusedWholeResult r =
            measureWholeFused(spec(name), cfg.allcache, cfg.machine);
        return FusedWholeMetrics{r.cache, r.timing};
      }
      case ArtifactKind::WholeCache:
        return wholeFused(name).cache;
      case ArtifactKind::WholeTiming:
        return wholeFused(name).timing;
      case ArtifactKind::RegionalPinball: {
        SPLAB_VERBOSE("regional pinball capture: ", name);
        SyntheticWorkload wl(spec(name));
        Pinball whole = Logger::captureWhole(wl);
        return Logger::makeRegional(whole, regions(name));
      }
      case ArtifactKind::PointsFused:
        SPLAB_INFORM("regional replays (cold, warmup, timing): ",
                     name);
        return measurePointsFused(regionalPinball(name), cfg.allcache,
                                  cfg.machine, cfg.warmupChunks);
      case ArtifactKind::PointsCacheCold:
        return pointsFused(name).cold;
      case ArtifactKind::PointsCacheWarm:
        return pointsFused(name).warm;
      case ArtifactKind::Native: {
        // Projection of the fused pass's timing view (same
        // cfg.machine) through the hardware-effects model: no
        // traversal of its own.
        const TimingRunMetrics &m = wholeTiming(name);
        TimingStats t;
        t.instrs = m.instrs;
        t.cycles = m.cycles;
        t.branches = m.branches;
        t.mispredicts = m.mispredicts;
        t.l2Hits = m.l2Hits;
        t.l3Hits = m.l3Hits;
        t.memAccesses = m.memAccesses;
        return NativeMachine(cfg.machine)
            .observe(t, spec(name).contentHash());
      }
      case ArtifactKind::PointsTiming:
        return pointsFused(name).timing;
    }
    SPLAB_FATAL("unknown artifact kind ",
                static_cast<int>(static_cast<u8>(kind)));
}

const ArtifactValue &
ArtifactGraph::ensure(const std::string &name, ArtifactKind kind)
{
    static obs::Counter &hits =
        obs::counter("graph.cache_hits",
                     "artifact nodes served from the disk cache");
    static obs::Counter &computed =
        obs::counter("graph.nodes_computed",
                     "artifact nodes computed fresh");
    // Per-kind split of the two totals ("graph.computed.bbvprofile"),
    // registered up front so a manifest lists every kind, zeros too.
    auto perKind = [](const std::string &what, const char *desc) {
        std::array<obs::Counter *, kNumArtifactKinds> out{};
        for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
            std::string kn =
                artifactKindName(static_cast<ArtifactKind>(k));
            out[k] = &obs::counter("graph." + what + "." + kn,
                                   kn + desc);
        }
        return out;
    };
    static const auto loadedBy =
        perKind("loaded", " nodes served from the disk cache");
    static const auto computedBy =
        perKind("computed", " nodes computed fresh");

    Node &n = nodeFor(name, kind);
    std::unique_lock<std::mutex> lock(n.mtx);
    if (n.state == Node::Ready)
        return n.value;
    if (n.state == Node::Busy) {
        // Single-flight: another thread owns the computation; wait
        // for its result instead of duplicating the work.
        n.cv.wait(lock, [&] { return n.state == Node::Ready; });
        return n.value;
    }
    n.state = Node::Busy;
    lock.unlock();

    const KindInfo &info = kindInfo(kind);
    ArtifactValue v;
    try {
        obs::TraceSpan span(info.spanName);
        bool persist = info.persisted && cache->enabled();
        bool loaded = false;
        std::string family = blobFamily(kind, cfg);
        u64 key = 0;
        // Held until the store below is published: another process
        // (or cache handle) asking for this artifact waits here and
        // then loads it instead of computing it a second time.
        FileLock keyLock;
        if (persist) {
            key = artifactKey(name, kind);
            keyLock = cache->lockArtifact(family, key);
            if (CacheOutcome got = cache->load(family, key)) {
                v = deserializeArtifact(kind, *got);
                loaded = true;
                hits.add();
                loadedBy[static_cast<u8>(kind)]->add();
            }
        }
        if (!loaded) {
            v = computeValue(name, kind);
            computed.add();
            computedBy[static_cast<u8>(kind)]->add();
            if (persist) {
                ByteWriter w;
                serializeArtifact(w, v);
                cache->store(family, key, w);
            }
        }
    } catch (...) {
        // Re-open the node so a later request can retry, and wake
        // current waiters into the retry path.
        lock.lock();
        n.state = Node::Empty;
        n.cv.notify_all();
        throw;
    }

    lock.lock();
    n.value = std::move(v);
    n.state = Node::Ready;
    n.cv.notify_all();
    return n.value;
}

std::vector<u8>
ArtifactGraph::ensureSerialized(const std::string &name,
                                ArtifactKind kind)
{
    const ArtifactValue &v = ensure(name, kind);
    ByteWriter w;
    serializeArtifact(w, v);
    return w.bytes();
}

const BenchmarkSpec &
ArtifactGraph::spec(const std::string &name)
{
    return std::get<BenchmarkSpec>(ensure(name, ArtifactKind::Spec));
}

const std::vector<FrequencyVector> &
ArtifactGraph::bbvProfile(const std::string &name)
{
    return std::get<std::vector<FrequencyVector>>(
        ensure(name, ArtifactKind::BbvProfile));
}

const SimPointResult &
ArtifactGraph::simpoints(const std::string &name)
{
    return std::get<SimPointResult>(
        ensure(name, ArtifactKind::SimPoints));
}

const RegionSelection &
ArtifactGraph::regions(const std::string &name)
{
    return std::get<RegionSelection>(
        ensure(name, ArtifactKind::Regions));
}

const FusedWholeMetrics &
ArtifactGraph::wholeFused(const std::string &name)
{
    return std::get<FusedWholeMetrics>(
        ensure(name, ArtifactKind::WholeFused));
}

const CacheRunMetrics &
ArtifactGraph::wholeCache(const std::string &name)
{
    return std::get<CacheRunMetrics>(
        ensure(name, ArtifactKind::WholeCache));
}

const Pinball &
ArtifactGraph::regionalPinball(const std::string &name)
{
    return std::get<Pinball>(
        ensure(name, ArtifactKind::RegionalPinball));
}

const PointsFusedMetrics &
ArtifactGraph::pointsFused(const std::string &name)
{
    return std::get<PointsFusedMetrics>(
        ensure(name, ArtifactKind::PointsFused));
}

const std::vector<PointCacheMetrics> &
ArtifactGraph::pointsCacheCold(const std::string &name)
{
    return std::get<std::vector<PointCacheMetrics>>(
        ensure(name, ArtifactKind::PointsCacheCold));
}

const std::vector<PointCacheMetrics> &
ArtifactGraph::pointsCacheWarm(const std::string &name)
{
    return std::get<std::vector<PointCacheMetrics>>(
        ensure(name, ArtifactKind::PointsCacheWarm));
}

const TimingRunMetrics &
ArtifactGraph::wholeTiming(const std::string &name)
{
    return std::get<TimingRunMetrics>(
        ensure(name, ArtifactKind::WholeTiming));
}

const PerfCounters &
ArtifactGraph::native(const std::string &name)
{
    return std::get<PerfCounters>(
        ensure(name, ArtifactKind::Native));
}

const std::vector<PointTimingMetrics> &
ArtifactGraph::pointsTiming(const std::string &name)
{
    return std::get<std::vector<PointTimingMetrics>>(
        ensure(name, ArtifactKind::PointsTiming));
}

void
ArtifactGraph::runSuite(const std::vector<std::string> &benchmarks,
                        const std::vector<ArtifactKind> &targets)
{
    obs::TraceSpan span("graph.run_suite");

    std::array<bool, kNumArtifactKinds> wanted{};
    for (ArtifactKind t : targets)
        wanted[static_cast<u8>(t)] = true;

    // Only the requested targets fan out as tasks; dependencies
    // resolve lazily inside ensure(), so a disk-cached downstream
    // artifact never forces an upstream recompute.  Kind-major task
    // order (kinds are declared in topological order) keeps
    // concurrently claimed tasks on *different* benchmarks, which
    // minimizes single-flight collisions, and lets a benchmark's
    // dependents start the moment its own upstreams exist — no
    // stage barriers anywhere.
    std::vector<std::pair<std::size_t, ArtifactKind>> tasks;
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k)
        if (wanted[k])
            for (std::size_t b = 0; b < benchmarks.size(); ++b)
                tasks.emplace_back(b, static_cast<ArtifactKind>(k));

    static obs::Counter &scheduled =
        obs::counter("graph.tasks_scheduled",
                     "suite tasks fanned out by runSuite");
    scheduled.add(tasks.size());

    parallelFor(tasks.size(), [&](std::size_t i) {
        ensure(benchmarks[tasks[i].first], tasks[i].second);
    });
}

std::vector<ArtifactKind>
ArtifactGraph::computedFrom(ArtifactKind kind) const
{
    switch (kind) {
      case ArtifactKind::WholeCache:
      case ArtifactKind::WholeTiming:
      case ArtifactKind::Native:
        return {ArtifactKind::WholeFused};
      case ArtifactKind::PointsCacheCold:
      case ArtifactKind::PointsCacheWarm:
      case ArtifactKind::PointsTiming:
        return {ArtifactKind::PointsFused};
      case ArtifactKind::Regions:
        if (cfg.sampling.strategy == StrategyKind::Simpoint)
            return {ArtifactKind::SimPoints};
        return {};
      default:
        return {};
    }
}

void
ArtifactGraph::recordArtifacts(
    obs::RunManifest &m, const std::vector<std::string> &benchmarks,
    const std::vector<ArtifactKind> &targets)
{
    std::array<bool, kNumArtifactKinds> inClosure{};
    // The kinds enum is in topological order, and every node a
    // projection is computed from precedes it, so one reverse pass
    // closes over both.
    for (ArtifactKind t : targets)
        inClosure[static_cast<u8>(t)] = true;
    for (std::size_t k = kNumArtifactKinds; k-- > 0;) {
        if (!inClosure[k])
            continue;
        ArtifactKind kind = static_cast<ArtifactKind>(k);
        for (ArtifactKind d : artifactKindDeps(kind))
            inClosure[static_cast<u8>(d)] = true;
        for (ArtifactKind src : computedFrom(kind))
            inClosure[static_cast<u8>(src)] = true;
    }

    for (const std::string &b : benchmarks)
        for (std::size_t k = 0; k < kNumArtifactKinds; ++k)
            if (inClosure[k]) {
                ArtifactKind kind = static_cast<ArtifactKind>(k);
                m.addArtifact(blobFamily(kind, cfg) + "/" + b,
                              artifactKey(b, kind));
            }
}

} // namespace splab
