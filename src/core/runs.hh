/**
 * @file
 * Measurement drivers: Whole, Regional and Warmup-Regional runs
 * under the ldstmix/allcache tools and under the timing model.
 */

#ifndef SPLAB_CORE_RUNS_HH
#define SPLAB_CORE_RUNS_HH

#include <vector>

#include "cache/hierarchy.hh"
#include "metrics.hh"
#include "perf/native.hh"
#include "pinball/pinball.hh"
#include "simpoint/bbv.hh"
#include "simpoint/simpoint.hh"
#include "timing/machine_config.hh"
#include "workload/benchmark_spec.hh"

namespace splab
{

/**
 * Whole Run: replay the entire workload under ldstmix + allcache.
 */
CacheRunMetrics measureWholeCache(const BenchmarkSpec &spec,
                                  const HierarchyConfig &caches);

/**
 * Everything measureWholeFused() can produce from one traversal.
 * The bbvs member is populated only when a nonzero slice length was
 * requested.
 */
struct FusedWholeResult
{
    CacheRunMetrics cache;
    TimingRunMetrics timing;
    std::vector<FrequencyVector> bbvs;
};

/**
 * Fused Whole Run: one traversal of the workload with the allcache,
 * ldstmix, branchprofile and timing tools all attached (plus a BBV
 * tool when @p bbvSliceInstrs is nonzero).  Produces byte-identical
 * metrics to the separate measureWholeCache() / measureWholeTiming()
 * / BBV-profiling passes — tools are passive observers of the same
 * deterministic stream — for one generation of that stream instead
 * of three.  Both wallSeconds fields record the single fused wall
 * time.
 */
FusedWholeResult measureWholeFused(const BenchmarkSpec &spec,
                                   const HierarchyConfig &caches,
                                   const MachineConfig &machine,
                                   ICount bbvSliceInstrs = 0);

/**
 * BBV profile: one traversal of the workload with only a BBV tool
 * attached, one frequency vector per @p sliceInstrs slice.  The
 * input of SimPoint selection; pickSimPoints(profileBbvs(spec,
 * cfg.sliceInstrs), cfg) is the uncached selection of a spec the
 * artifact graph does not know (a hand-built or resized one).
 */
std::vector<FrequencyVector> profileBbvs(const BenchmarkSpec &spec,
                                         ICount sliceInstrs);

/**
 * Regional Run: replay each simulation point individually under
 * ldstmix + allcache, starting from cold microarchitectural state
 * (plus @p warmupChunks of functional cache warming when nonzero),
 * exactly as the paper replays each Regional Pinball.  A region's
 * own warm-up prescription (SMARTS, say) replaces a nonzero
 * @p warmupChunks.
 *
 * @return per-point metrics with SimPoint weights attached; feed to
 *         aggregateCache() for Regional / Reduced Regional numbers.
 */
std::vector<PointCacheMetrics> measurePointsCache(
    const BenchmarkSpec &spec, const SimPointResult &simpoints,
    const HierarchyConfig &caches, u64 warmupChunks = 0);

/**
 * Regional Run against an already-captured regional pinball.  The
 * spec-based overload is capture + this; the artifact graph shares
 * one RegionalPinball capture across the cache and timing replays.
 */
std::vector<PointCacheMetrics> measurePointsCache(
    const Pinball &regional, const HierarchyConfig &caches,
    u64 warmupChunks = 0);

/** Whole run under the timing model (full-detail simulation). */
TimingRunMetrics measureWholeTiming(const BenchmarkSpec &spec,
                                    const MachineConfig &machine);

/**
 * Per-simulation-point timing runs (cold core per point, plus
 * optional warm-up), the "Sniper with SimPoints" configuration of
 * Figure 12.
 */
std::vector<PointTimingMetrics> measurePointsTiming(
    const BenchmarkSpec &spec, const SimPointResult &simpoints,
    const MachineConfig &machine, u64 warmupChunks = 0);

/** Timing Regional Run against an already-captured regional pinball. */
std::vector<PointTimingMetrics> measurePointsTiming(
    const Pinball &regional, const MachineConfig &machine,
    u64 warmupChunks = 0);

/**
 * Fused Regional Runs: the cold cache, warmed cache and warmed
 * timing runs of every region from one replay per region.  The
 * warm-up chunks play into the warmed hierarchy and the timing core
 * only; the region then plays once to all three tool stacks.  Equal
 * byte for byte to measurePointsCache(regional, caches, 0),
 * measurePointsCache(regional, caches, warmupChunks) and
 * measurePointsTiming(regional, machine, warmupChunks), except that
 * every wallSeconds field records the one fused per-point wall time.
 */
PointsFusedMetrics measurePointsFused(const Pinball &regional,
                                      const HierarchyConfig &caches,
                                      const MachineConfig &machine,
                                      u64 warmupChunks);

} // namespace splab

#endif // SPLAB_CORE_RUNS_HH
