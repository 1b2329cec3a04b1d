/**
 * @file
 * The paper's headline numbers, each defined once: how a sampled run
 * is scored against the Whole Run and how suite averages are formed.
 * The figure benches print what these functions return and the
 * repro_check test asserts it.  A suite mean is a sum over @p names,
 * in order, divided by their count; a reduction is a ratio of suite
 * sums; times are paper-scale seconds from the graph's cost model.
 */

#ifndef SPLAB_CORE_HEADLINES_HH
#define SPLAB_CORE_HEADLINES_HH

#include "artifact_graph.hh"

namespace splab
{

/** Errors against the Whole Run, as fractions: the largest absolute
 *  mix-fraction difference and per-level relative miss-rate errors. */
struct CacheErrors
{
    double mix = 0, l1d = 0, l2 = 0, l3 = 0;
};

CacheErrors cacheErrors(const AggregateCacheMetrics &sampled,
                        const AggregateCacheMetrics &whole);

/** Relative error of the weighted CPI of @p points. */
double cpiError(const std::vector<PointTimingMetrics> &points,
                double reference);

/** Which per-point replays a sampled run aggregates. */
enum class Replay
{
    Cold,
    Warm
};

/** One benchmark's sampled run against its Whole Run. */
struct RunComparison
{
    AggregateCacheMetrics whole, sampled;
    CacheErrors err;
    u64 points = 0;
    double wholeSeconds = 0, seconds = 0;
};

/** Suite means of RunComparison rows (Figs 5, 7, 8, 9 and 10). */
struct SuiteComparison
{
    std::vector<RunComparison> rows;
    CacheErrors err;
    std::array<double, kNumMemClasses> wholeMix{};
    double wholeInstrs = 0, instrs = 0, wholeSeconds = 0, seconds = 0;
    double wholeL3 = 0, l3 = 0, points = 0; ///< L3 accesses, regions
    double instrReduction = 0, timeReduction = 0, l3Reduction = 0;
};

/** Each benchmark's @p replay points, cut to the heaviest ones
 *  covering @p quantile of the weight, against its Whole Run. */
SuiteComparison compareSuite(ArtifactGraph &g,
                             const std::vector<std::string> &names,
                             Replay replay, double quantile = 1.0);

/** Table II: simulation points (all, 90th percentile) and means. */
struct PointCounts
{
    std::vector<std::pair<std::size_t, std::size_t>> rows;
    double points = 0, points90 = 0, paperPoints = 0, paperPoints90 = 0;
};

PointCounts countPoints(ArtifactGraph &g,
                        const std::vector<std::string> &names);

/** Fig 12: native CPI against the Regional and Reduced timing runs. */
struct CpiRow
{
    double native = 0, regional = 0, reduced = 0;
    double errRegional = 0, errReduced = 0;
};

struct CpiComparison
{
    std::vector<CpiRow> rows;
    double errRegional = 0, errReduced = 0;
    double r = 0; ///< Pearson r of native and Regional CPI
};

CpiComparison compareCpi(ArtifactGraph &g,
                         const std::vector<std::string> &names);

/** strategy_compare: @p g's warmed and timing replays of @p name
 *  against the whole runs of @p ref. */
struct StrategyRow
{
    std::size_t regions = 0;
    double reduction = 0, cpiErr = 0;
    CacheErrors err;
};

StrategyRow compareStrategy(ArtifactGraph &g, ArtifactGraph &ref,
                            const std::string &name);

} // namespace splab

#endif // SPLAB_CORE_HEADLINES_HH
