/**
 * @file
 * The SamplingStrategy contract: region selection as a pluggable,
 * artifact-graph-keyable stage.
 *
 * A strategy consumes the per-slice observables the fused pass
 * already produces (the BBV profile; run shape) and returns a
 * RegionSelection.  The contract (see DESIGN.md section 11):
 *
 *  - select() is a pure function of (inputs, knobs): byte-identical
 *    at any SPLAB_THREADS and across processes;
 *  - regions come back sorted by startSlice with normalize()d
 *    weights (one shared rational normalization — see region.hh);
 *  - configHash() covers exactly the knobs select() reads, so the
 *    artifact graph's Regions node key is strategy-salted and
 *    config-slice-hashed: changing an *inactive* strategy's knob
 *    never invalidates cached selections;
 *  - per-strategy counters ("sampling.<name>.regions_selected",
 *    ".pilot_slices", ".warmup_slices_budgeted") accumulate work
 *    performed, never scheduling, so manifests stay thread-count
 *    invariant.
 *
 * Strategies are named ("simpoint", "smarts", "stratified",
 * "ranked_set", "random", "stride") and built through the
 * string-keyed registry (makeStrategy); ExperimentConfig
 * .withStrategy("smarts") is the config-level spelling.
 */

#ifndef SPLAB_SAMPLING_STRATEGY_HH
#define SPLAB_SAMPLING_STRATEGY_HH

#include <memory>
#include <string>
#include <vector>

#include "region.hh"
#include "simpoint/simpoint.hh"

namespace splab
{

namespace obs
{
class RunManifest;
}

/** The six region-selection strategies. */
enum class StrategyKind : u8
{
    Simpoint = 0, ///< BBV clustering (the paper's methodology)
    Smarts,       ///< SMARTS-style systematic unit sampling
    Stratified,   ///< Ekman two-phase stratified sampling
    RankedSet,    ///< ranked-set sampling w/ repeated subsampling
    Random,       ///< uniform random slices (behaviour-oblivious)
    Stride,       ///< evenly spaced slices (behaviour-oblivious)
};

constexpr std::size_t kNumStrategies = 6;

/** Stable strategy name ("simpoint", "ranked_set", ...). */
const char *strategyName(StrategyKind k);

/** Inverse of strategyName(); fatal() on an unknown name. */
StrategyKind strategyByName(const std::string &name);

/** All strategy names, in enum order (bench/table iteration). */
const std::vector<std::string> &strategyNames();

/** Per-strategy version salt folded into the Regions artifact key
 *  (bump when a strategy's selection algorithm changes). */
u64 strategySalt(StrategyKind k);

/** Whether the strategy reads the per-slice BBVs (simpoint,
 *  stratified, ranked_set).  smarts, random and stride read only
 *  StrategyInputs::totalSlices and run with a null profile. */
bool strategyReadsProfile(StrategyKind k);

/** SMARTS-style systematic sampling knobs (cf. SMARTSim's
 *  sampling_k / sampling_munit / sampling_wunit / sampling_allwarm,
 *  scaled from instructions to model slices). */
struct SmartsConfig
{
    /** Sampling interval: measure one unit out of every k. */
    u64 k = 30;
    /** Measurement-unit length in slices. */
    u64 munit = 1;
    /** Detailed warm-up unit: slices functionally warmed
     *  immediately before each measurement unit. */
    u64 wunit = 2;
    /** Warm the whole gap between consecutive measurement units
     *  (continuous functional warming) instead of just wunit. */
    bool allwarm = false;

    u64 contentHash() const;
};

/** Ekman-style two-phase stratified sampling knobs. */
struct StratifiedConfig
{
    /** Number of strata over the pilot observable. */
    u32 strata = 8;
    /** Total second-phase regions, allocated across strata
     *  proportionally to stratum population. */
    u32 budget = 32;
    /** Pilot pass measures every pilotStride-th slice. */
    u32 pilotStride = 4;
    /** Observable-projection seed. */
    u64 seed = 42;

    u64 contentHash() const;
};

/** Ranked-set sampling with repeated subsampling knobs. */
struct RankedSetConfig
{
    /** Set size r: r random candidates ranked per selection, and r
     *  rank positions cycled through. */
    u32 setSize = 5;
    /** Ranked-set cycles per subsample (r selections each). */
    u32 cycles = 6;
    /** Repeated-subsampling rounds; selections pool with
     *  multiplicity. */
    u32 subsamples = 4;
    u64 seed = 42;

    u64 contentHash() const;
};

/** Uniform random sampling knobs. */
struct RandomConfig
{
    u32 n = 30; ///< regions (slices) to draw
    u64 seed = 42;

    u64 contentHash() const;
};

/** Evenly-spaced (stride) sampling knobs. */
struct StrideConfig
{
    u32 n = 30; ///< regions (slices) to place

    u64 contentHash() const;
};

/**
 * The strategy axis of an ExperimentConfig: which strategy is
 * active, plus every strategy's knobs.  Only the active strategy's
 * knobs enter activeHash() — the Regions artifact key must not move
 * when an inactive strategy's knob does.  The SimPoint strategy's
 * knobs live in ExperimentConfig::simpoint (SimPointConfig), not
 * here, to keep one source of truth.
 */
struct SamplingConfig
{
    StrategyKind strategy = StrategyKind::Simpoint;
    SmartsConfig smarts;
    StratifiedConfig stratified;
    RankedSetConfig rankedSet;
    RandomConfig random;
    StrideConfig stride;

    /** Strategy-salted hash of the *active* strategy's knobs
     *  (simpoint knobs supplied by the caller). */
    u64 activeHash(const SimPointConfig &simpoint) const;
};

/** What a strategy selects from. */
struct StrategyInputs
{
    /** Per-slice BBVs (null for behaviour-oblivious strategies
     *  invoked without a profile). */
    const std::vector<FrequencyVector> *bbvs = nullptr;
    u64 totalSlices = 0;
    ICount sliceInstrs = 0;
};

/** Abstract region-selection strategy; see the file comment for the
 *  contract. */
class SamplingStrategy
{
  public:
    virtual ~SamplingStrategy() = default;

    virtual StrategyKind kind() const = 0;
    const char *name() const { return strategyName(kind()); }

    /** Hash of exactly the knobs select() reads. */
    virtual u64 configHash() const = 0;

    /** Select regions; sorted, normalized, deterministic. */
    virtual RegionSelection select(const StrategyInputs &in) const
        = 0;

    /** Dump the active knobs into a run manifest
     *  ("sampling.<knob>" keys). */
    virtual void describe(obs::RunManifest &m) const = 0;
};

/**
 * String-keyed registry: build the strategy selected by @p cfg.
 * @p simpoint supplies the SimPoint strategy's knobs (and the slice
 * length every strategy inherits).
 */
std::unique_ptr<SamplingStrategy>
makeStrategy(const SamplingConfig &cfg,
             const SimPointConfig &simpoint);

/** Registry lookup by name; every other field of @p cfg supplies
 *  the knobs.  Fatal on an unknown name. */
std::unique_ptr<SamplingStrategy>
makeStrategy(const std::string &name, const SamplingConfig &cfg,
             const SimPointConfig &simpoint);

/**
 * Account a finished selection to the per-strategy counters.
 * Called exactly once per select() (strategies do this themselves;
 * the artifact graph's projection path for the SimPoints node calls
 * it directly).
 */
void accountSelection(StrategyKind k, const RegionSelection &sel);

/// @name SimPointResult bridging
/// @{
/**
 * View a SimPoint selection as a RegionSelection: one single-slice
 * region per point, count = cluster population, weight copied
 * verbatim (SimPoint weights are already the rational
 * count/totalSlices — no re-normalization, so subset selections
 * with deliberately unnormalized weights pass through unchanged).
 */
RegionSelection regionsFromSimPoints(const SimPointResult &sp);

/**
 * Compatibility shim for SimPointResult-shaped consumers: slice =
 * startSlice, clusterSize = count, weight copied verbatim.  Region
 * lengths and warm-up prescriptions do not survive this view — the
 * pinball path (Logger::makeRegional on the RegionSelection) is the
 * lossless one.
 */
SimPointResult simPointsFromRegions(const RegionSelection &sel);
/// @}

/// @name RegionSelection (de)serialization for the artifact cache
/// @{
class ByteReader;
class ByteWriter;
void serializeRegions(ByteWriter &w, const RegionSelection &sel);
RegionSelection deserializeRegions(ByteReader &r);
/// @}

} // namespace splab

#endif // SPLAB_SAMPLING_STRATEGY_HH
