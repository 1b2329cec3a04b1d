/**
 * @file
 * The artifact graph: the experiment core as a typed,
 * content-addressed stage DAG.
 *
 * Every figure/table bench needs some subset of thirteen artifact
 * kinds per benchmark — executable spec, BBV profile, SimPoint
 * selection, the strategy-selected region set, fused whole-run
 * measurement, whole-run cache metrics, whole-run timing, the
 * regional pinball, fused per-point replays, cold/warm per-point
 * cache replays, native perf counters, per-point timing replays.
 * Each kind is a declared node with:
 *
 *  - typed dependencies on upstream kinds (a static DAG),
 *  - a compute function (pure given its inputs and the config),
 *  - a (de)serializer for the on-disk artifact cache, and
 *  - a per-node version salt, bumped when the producing algorithm
 *    or the serialized layout changes.
 *
 * Keying rule (Merkle-style): a node's disk-cache key is
 *
 *     key = H(salt, configSlice, key(dep_0), key(dep_1), ...)
 *
 * where configSlice hashes exactly the configuration fields the
 * node's compute function reads (full CacheParams/MachineConfig
 * content hashes — never hand-picked field subsets), and the source
 * node's key is the content hash of the serialized benchmark spec.
 * Keys are therefore cheap pure functions of the configuration: a
 * warm lookup never computes upstream *values*, yet any change to
 * an upstream definition, a config field or a version salt changes
 * every downstream key.
 *
 * Projection nodes: a node's declared deps and config slice describe
 * what its *value* depends on, not how the compute function happens
 * to route.  WholeCache and WholeTiming are computed by projecting
 * the fused WholeFused traversal, but their values are byte-
 * identical to the dedicated single-tool passes (tools are passive
 * observers of one deterministic stream — tested), so their keys
 * keep the original narrow slices: an allcache change still leaves
 * WholeTiming's key untouched.  Native is a projection too:
 * NativeMachine::observe over the WholeTiming view, so its deps stay
 * {Spec} and its slice cfg.machine.  The per-point runs follow the
 * same rule: PointsCacheCold, PointsCacheWarm and PointsTiming are
 * computed by projecting the PointsFused node (one replay per region
 * feeds all three tool stacks), but each keeps its deps
 * {RegionalPinball} and its own slice (allcache; allcache +
 * warmupChunks; machine + warmupChunks).  Regions is the
 * same shape: its value depends only on the BBV profile and the
 * active SamplingStrategy's knobs (strategy-salted via
 * SamplingConfig::activeHash), so its deps are {BbvProfile} even
 * though the simpoint strategy's compute routes through the cached
 * SimPoints node.  Each strategy persists into its own blob family
 * ("regions_simpoint", "regions_smarts", ...), so per-strategy
 * selections coexist in one cache directory.
 *
 * Persistence: each persisted kind is one checksummed blob of its
 * serialized value under its key, and every value is a pure function
 * of its key (no wall clock is stored), so two cold runs leave
 * identical cache directories.  The fused nodes persist and their
 * projections stay memory-resident: one WholeFused blob serves the
 * cache and timing views (and Native's input) and one PointsFused
 * blob serves all three per-point runs, so a run that wants the
 * timing views after one that wanted the cache views traverses and
 * replays nothing.  The cost: a graph that changes only cfg.machine
 * re-runs the fused traversal for the cache view it already has (and
 * likewise for cfg.allcache and, per point, warmupChunks).  No bench
 * sweeps those fields.  See DESIGN.md section 10.
 *
 * Scheduling: accessors compute lazily with single-flight per node
 * (concurrent requests for the same node block until the one
 * computation finishes).  A persisted node also holds its cache
 * key lock (ArtifactCache::lockArtifact) across its one load and,
 * on a miss, its compute and store, so graphs in other processes —
 * or over other cache handles on the same directory — wait and then
 * load instead of computing it again.  A holder only waits on the
 * locks of its own upstream nodes, so the waits follow DAG edges and
 * cannot cycle.  No other code reads or writes the cache: a sweep
 * over SimPoint configurations builds one graph per configuration
 * over one cacheHandle(), so its selections share the salted keys,
 * the key lock and one persisted BBV profile per slice length.
 * runSuite() fans (benchmark x target) tasks
 * over the global thread pool in topological kind order, so
 * cross-benchmark parallelism is the default for suite-wide benches
 * — while one benchmark's replays run, another's profile is being
 * collected.  Determinism contract: node values are pure functions
 * of (spec, config), tasks write only node-local state, and result
 * collection is by (benchmark, kind) — never by completion order —
 * so every artifact, CSV and deterministic manifest section is
 * byte-identical at any SPLAB_THREADS setting and across cold/warm
 * artifact-cache runs.
 */

#ifndef SPLAB_CORE_ARTIFACT_GRAPH_HH
#define SPLAB_CORE_ARTIFACT_GRAPH_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "artifact_cache.hh"
#include "costmodel.hh"
#include "obs/manifest.hh"
#include "pipeline.hh"
#include "runs.hh"
#include "sampling/strategy.hh"
#include "scale.hh"
#include "workload/suite.hh"

namespace splab
{

/**
 * Everything a suite-wide experiment can be configured with.
 *
 * Build configurations with the fluent interface:
 *
 *     ArtifactGraph graph(ExperimentConfig::paperDefaults()
 *                             .withWarmupChunks(60)
 *                             .withMaxK(20));
 *
 * The public fields remain for existing code (aggregate
 * initialization, direct pokes) but are a deprecated spelling; new
 * code should go through paperDefaults() + with*().
 */
struct ExperimentConfig
{
    SimPointConfig simpoint;                      ///< MaxK 35, 30M-eq
    /** Region-selection strategy axis: which SamplingStrategy picks
     *  simulation regions, plus every strategy's knobs.  The
     *  SimPoint strategy's knobs are the `simpoint` member above. */
    SamplingConfig sampling;
    /** Table I hierarchy at model scale (far caches scaled with the
     *  slice length; see scaleFarCaches()). */
    HierarchyConfig allcache =
        scaleFarCaches(tableIConfig(), scale::kFarCacheDivisor);
    /** Table III machine at model scale. */
    MachineConfig machine = [] {
        MachineConfig m = tableIIIMachine();
        m.caches =
            scaleFarCaches(m.caches, scale::kFarCacheDivisor);
        return m;
    }();
    /**
     * Functional warm-up before each simulation point for the
     * Warmup Regional Runs, in chunks.  120 chunks = 12 slices ~
     * the paper's 500M warm-up cycles at paper scale.
     */
    u64 warmupChunks = 120;
    ReplayCostModel cost;

    /** The paper's operating point (Table I/III at model scale). */
    static ExperimentConfig paperDefaults() { return {}; }

    /// @name Fluent setters; each returns *this for chaining.
    /// @{
    ExperimentConfig &
    withSimPoint(SimPointConfig c)
    {
        simpoint = c;
        return *this;
    }
    ExperimentConfig &
    withMaxK(u32 k)
    {
        simpoint.maxK = k;
        return *this;
    }
    ExperimentConfig &
    withSliceInstrs(ICount n)
    {
        simpoint.sliceInstrs = n;
        return *this;
    }
    ExperimentConfig &
    withSeed(u64 s)
    {
        simpoint.seed = s;
        return *this;
    }
    ExperimentConfig &
    withSampling(SamplingConfig c)
    {
        sampling = c;
        return *this;
    }
    /** Select the region-selection strategy by registry name
     *  ("simpoint", "smarts", "stratified", "ranked_set", "random",
     *  "stride"); fatal on an unknown name. */
    ExperimentConfig &
    withStrategy(const std::string &name)
    {
        sampling.strategy = strategyByName(name);
        return *this;
    }
    ExperimentConfig &
    withStrategy(StrategyKind k)
    {
        sampling.strategy = k;
        return *this;
    }
    ExperimentConfig &
    withAllcache(HierarchyConfig h)
    {
        allcache = h;
        return *this;
    }
    ExperimentConfig &
    withMachine(MachineConfig m)
    {
        machine = m;
        return *this;
    }
    ExperimentConfig &
    withWarmupChunks(u64 n)
    {
        warmupChunks = n;
        return *this;
    }
    ExperimentConfig &
    withCost(ReplayCostModel c)
    {
        cost = c;
        return *this;
    }
    /// @}

    /**
     * Stable hash over *every* configuration field, including those
     * (like the replay cost model) that only shape derived report
     * columns: the one-line answer to "were these the same
     * experiment?".  Per-node cache keys use the narrower per-node
     * config slices instead, so e.g. a warmupChunks change does not
     * invalidate cold-replay artifacts.
     */
    u64 contentHash() const;

    /** Dump the configuration into a run manifest. */
    void describe(obs::RunManifest &m) const;

};

/** The artifact kinds, in topological (dependency) order. */
enum class ArtifactKind : u8
{
    Spec = 0,        ///< executable benchmark spec (source node)
    BbvProfile,      ///< one BBV per slice of the whole execution
    SimPoints,       ///< SimPoint selection (BIC-chosen k)
    Regions,         ///< strategy-selected simulation regions
    WholeFused,      ///< one fused traversal: cache + timing views
    WholeCache,      ///< Whole Run under ldstmix + allcache
    WholeTiming,     ///< Whole Run under the timing model
    RegionalPinball, ///< shared simulation-point pinball capture
    PointsFused,     ///< one replay per region: all three point runs
    PointsCacheCold, ///< per-point cold cache replays
    PointsCacheWarm, ///< per-point replays with functional warm-up
    Native,          ///< native-hardware perf counters
    PointsTiming,    ///< per-point timing replays
};

constexpr std::size_t kNumArtifactKinds = 13;

/** Stable artifact-kind name ("simpoints", "points_cache_cold"). */
const char *artifactKindName(ArtifactKind k);

/** Typed upstream dependencies of @p k (static DAG edges). */
const std::vector<ArtifactKind> &artifactKindDeps(ArtifactKind k);

/** Whether this kind is persisted in the on-disk artifact cache
 *  (cheap, upstream-only and projection kinds stay memory-resident). */
bool artifactKindPersisted(ArtifactKind k);

/** Per-node version salt (bump on algorithm/layout change). */
u64 artifactKindSalt(ArtifactKind k);

/** One artifact's value; the alternative is determined by the kind. */
using ArtifactValue =
    std::variant<BenchmarkSpec,                    // Spec
                 std::vector<FrequencyVector>,     // BbvProfile
                 SimPointResult,                   // SimPoints
                 RegionSelection,                  // Regions
                 FusedWholeMetrics,                // WholeFused
                 CacheRunMetrics,                  // WholeCache
                 TimingRunMetrics,                 // WholeTiming
                 Pinball,                          // RegionalPinball
                 PointsFusedMetrics,               // PointsFused
                 std::vector<PointCacheMetrics>,   // PointsCache*
                 PerfCounters,                     // Native
                 std::vector<PointTimingMetrics>>; // PointsTiming

/// @name Artifact (de)serialization for the on-disk cache
/// @{
void serializeArtifact(ByteWriter &w, const ArtifactValue &v);
ArtifactValue deserializeArtifact(ArtifactKind k, ByteReader &r);
/// @}

struct LocalBackendTag; // see artifact_backend.hh

/**
 * Content-addressed, cross-benchmark-parallel experiment core.
 *
 * Thread-safe: accessors may be called concurrently (from inside
 * runSuite() tasks or from user code); each node computes exactly
 * once per process (single-flight) and, when persisted, at most once
 * per cache lifetime on disk across every process sharing it.
 */
class ArtifactGraph
{
  public:
    explicit ArtifactGraph(ExperimentConfig cfg = ExperimentConfig());

    /** Share an externally owned cache: graphs over one handle
     *  share one writability probe, warn-once state and counter
     *  stream. */
    ArtifactGraph(ExperimentConfig cfg,
                  std::shared_ptr<const ArtifactCache> cache);

    /** Same as the two-argument form; the tag is a leftover of the
     *  removed backend seam (see artifact_backend.hh). */
    ArtifactGraph(ExperimentConfig cfg,
                  std::shared_ptr<const ArtifactCache> cache,
                  LocalBackendTag);

    ~ArtifactGraph(); // out-of-line: Node is incomplete here

    const ExperimentConfig &config() const { return cfg; }

    /** Shared handle for a sibling graph over another
     *  configuration (a swept SimPointConfig, say) on this graph's
     *  cache instance instead of a parallel one. */
    std::shared_ptr<const ArtifactCache> cacheHandle() const
    {
        return cache;
    }

    /// @name Typed artifact accessors (lazy, cached, thread-safe)
    /// @{
    /** Executable spec (scaled by SPLAB_SCALE). */
    const BenchmarkSpec &spec(const std::string &name);

    /** One BBV per slice of the whole execution. */
    const std::vector<FrequencyVector> &
    bbvProfile(const std::string &name);

    /** SimPoint selection at the configured operating point. */
    const SimPointResult &simpoints(const std::string &name);

    /** Simulation regions selected by the configured
     *  SamplingStrategy (cfg.sampling.strategy). */
    const RegionSelection &regions(const std::string &name);

    /** Both whole-run views from one fused traversal; WholeCache
     *  and WholeTiming are projections of this node. */
    const FusedWholeMetrics &wholeFused(const std::string &name);

    /** Whole Run under ldstmix + allcache (Table I). */
    const CacheRunMetrics &wholeCache(const std::string &name);

    /** Regional pinball (capture shared by all per-point replays). */
    const Pinball &regionalPinball(const std::string &name);

    /** All three per-point runs from one replay per region;
     *  PointsCacheCold, PointsCacheWarm and PointsTiming are
     *  projections of this node. */
    const PointsFusedMetrics &pointsFused(const std::string &name);

    /** Per-point cold replays (Regional / Reduced Regional). */
    const std::vector<PointCacheMetrics> &
    pointsCacheCold(const std::string &name);

    /** Per-point replays with functional cache warm-up. */
    const std::vector<PointCacheMetrics> &
    pointsCacheWarm(const std::string &name);

    /** Whole run under the timing model (Table III machine). */
    const TimingRunMetrics &wholeTiming(const std::string &name);

    /** Native-hardware perf counters: the WholeTiming view through
     *  the hardware-effects model (no traversal of its own). */
    const PerfCounters &native(const std::string &name);

    /** Per-point cold timing replays (Sniper with SimPoints). */
    const std::vector<PointTimingMetrics> &
    pointsTiming(const std::string &name);
    /// @}

    /**
     * Content-addressed disk-cache key of (benchmark, kind): the
     * Merkle hash over the node's salt, its config slice and its
     * upstream keys.  Cheap — never computes artifact values.
     */
    u64 artifactKey(const std::string &name, ArtifactKind kind);

    /**
     * ensure() + serializeArtifact: the artifact's cache-blob payload
     * bytes, whether the value was computed or loaded.
     */
    std::vector<u8> ensureSerialized(const std::string &name,
                                     ArtifactKind kind);

    /**
     * Compute @p targets for every benchmark in @p benchmarks,
     * fanning (benchmark x artifact) tasks over the global thread
     * pool (SPLAB_THREADS).  Tasks are issued in topological kind
     * order with no stage barriers: a benchmark's replays start as
     * soon as *its* upstream artifacts exist, regardless of how far
     * other benchmarks have progressed.  After this returns, the
     * accessors above are in-memory hits.  Byte-identical results at
     * any thread count.
     */
    void runSuite(const std::vector<std::string> &benchmarks,
                  const std::vector<ArtifactKind> &targets);

    /**
     * Record the content-addressed key of every (benchmark, kind) in
     * the closure of @p targets into the manifest's "artifacts"
     * section: declared dependencies plus the nodes projections are
     * computed from (computedFrom), so the manifest names every blob
     * the run loads or stores.  Deterministic across thread counts
     * and cache states, so two manifests disagree exactly where the
     * experiments did.
     */
    void recordArtifacts(obs::RunManifest &m,
                         const std::vector<std::string> &benchmarks,
                         const std::vector<ArtifactKind> &targets);

  private:
    struct Node;

    Node &nodeFor(const std::string &name, ArtifactKind kind);
    /** Single-flight load-or-compute of one node: the only code
     *  that locks, loads or stores an artifact-cache blob. */
    const ArtifactValue &ensure(const std::string &name,
                                ArtifactKind kind);
    ArtifactValue computeValue(const std::string &name,
                               ArtifactKind kind);
    u64 configSliceHash(ArtifactKind kind) const;
    /** Nodes computeValue reads beyond the declared deps: the fused
     *  node a projection is taken from, and SimPoints for the
     *  simpoint strategy's Regions.  They enter no key. */
    std::vector<ArtifactKind> computedFrom(ArtifactKind kind) const;

    ExperimentConfig cfg;
    std::shared_ptr<const ArtifactCache> cache;

    std::mutex registryMtx; ///< guards the node map only
    std::map<std::pair<std::string, u8>, std::unique_ptr<Node>>
        nodes;
};

} // namespace splab

#endif // SPLAB_CORE_ARTIFACT_GRAPH_HH
