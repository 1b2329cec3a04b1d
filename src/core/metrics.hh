/**
 * @file
 * Run metrics and weighted aggregation across simulation points.
 *
 * All per-run structures are trivially copyable so they can be
 * serialized into the artifact cache as flat byte vectors.
 */

#ifndef SPLAB_CORE_METRICS_HH
#define SPLAB_CORE_METRICS_HH

#include <array>
#include <vector>

#include "isa/instr.hh"
#include "support/types.hh"

namespace splab
{

/** Access/miss counters of one cache level. */
struct LevelCounts
{
    u64 accesses = 0;
    u64 misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** ldstmix + allcache statistics of one run window. */
struct CacheRunMetrics
{
    u64 instrs = 0;
    /** Instruction-mix fractions: NO_MEM, MEM_R, MEM_W, MEM_RW. */
    std::array<double, kNumMemClasses> mixFrac{};
    LevelCounts l1i;
    LevelCounts l1d;
    LevelCounts l2;
    LevelCounts l3;
    u64 branches = 0;
    /** Always 0: retired; goes with the next benchmark change. */
    double wallSeconds = 0.0;
};
static_assert(std::is_trivially_copyable_v<CacheRunMetrics>);

/** Timing-model statistics of one run window. */
struct TimingRunMetrics
{
    u64 instrs = 0;
    double cycles = 0.0;
    u64 branches = 0;
    u64 mispredicts = 0;
    u64 l2Hits = 0;
    u64 l3Hits = 0;
    u64 memAccesses = 0;
    /** Always 0: retired; goes with the next benchmark change. */
    double wallSeconds = 0.0;

    double
    cpi() const
    {
        return instrs ? cycles / static_cast<double>(instrs) : 0.0;
    }
};
static_assert(std::is_trivially_copyable_v<TimingRunMetrics>);

/**
 * Both whole-run views measured by one fused traversal: the cache
 * (ldstmix + allcache + branchprofile) metrics and the timing-model
 * metrics of the same instruction stream.  WholeCache / WholeTiming
 * artifacts are projections of this.
 */
struct FusedWholeMetrics
{
    CacheRunMetrics cache;
    TimingRunMetrics timing;
};
static_assert(std::is_trivially_copyable_v<FusedWholeMetrics>);

/** One simulation point's metrics plus its SimPoint weight. */
struct PointCacheMetrics
{
    double weight = 0.0;
    CacheRunMetrics m;
};
static_assert(std::is_trivially_copyable_v<PointCacheMetrics>);

/** One simulation point's timing metrics plus its weight. */
struct PointTimingMetrics
{
    double weight = 0.0;
    TimingRunMetrics m;
};
static_assert(std::is_trivially_copyable_v<PointTimingMetrics>);

/**
 * All three per-point runs of one regional pinball, from one replay
 * per region: cold and warmed cache metrics and warmed timing
 * metrics.  PointsCacheCold / PointsCacheWarm / PointsTiming
 * artifacts are projections of this.
 */
struct PointsFusedMetrics
{
    std::vector<PointCacheMetrics> cold;
    std::vector<PointCacheMetrics> warm;
    std::vector<PointTimingMetrics> timing;
};

/**
 * Weighted aggregate over a set of simulation points, as the paper
 * prescribes: per-instruction-normalized statistics are combined by
 * cluster weight (renormalized over the included points), and raw
 * executed-work counters are summed.
 */
struct AggregateCacheMetrics
{
    u64 executedInstrs = 0; ///< raw instructions actually replayed
    std::array<double, kNumMemClasses> mixFrac{};
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    double l3MissRate = 0.0;
    u64 l3Accesses = 0;     ///< raw L3 accesses actually performed
};

/** Weighted CPI aggregate over simulation points. */
struct AggregateTimingMetrics
{
    u64 executedInstrs = 0;
    double cpi = 0.0;
};

/**
 * Aggregate cache metrics over @p points (weights renormalized).
 * Miss rates combine as weighted misses-per-instruction over
 * weighted accesses-per-instruction — the ratio estimator implied by
 * weighting instruction-normalized statistics.
 */
AggregateCacheMetrics aggregateCache(
    const std::vector<PointCacheMetrics> &points);

/** Aggregate timing metrics over @p points (weighted CPI). */
AggregateTimingMetrics aggregateTiming(
    const std::vector<PointTimingMetrics> &points);

/** View a whole run's metrics in the aggregate shape. */
AggregateCacheMetrics wholeAsAggregate(const CacheRunMetrics &whole);

/**
 * Reduce per-point metrics to the heaviest points covering
 * @p quantile of the weight (0.9 = Reduced Regional Run).
 */
std::vector<PointCacheMetrics>
reduceToQuantile(const std::vector<PointCacheMetrics> &points,
                 double quantile);
std::vector<PointTimingMetrics>
reduceToQuantile(const std::vector<PointTimingMetrics> &points,
                 double quantile);

} // namespace splab

#endif // SPLAB_CORE_METRICS_HH
