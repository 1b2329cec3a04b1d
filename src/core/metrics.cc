#include "metrics.hh"

#include <algorithm>

#include "support/logging.hh"

namespace splab
{

AggregateCacheMetrics
aggregateCache(const std::vector<PointCacheMetrics> &points)
{
    AggregateCacheMetrics agg;
    if (points.empty())
        return agg;

    double wTotal = 0.0;
    for (const auto &p : points)
        wTotal += p.weight;
    SPLAB_ASSERT(wTotal > 0.0, "aggregate: zero total weight");

    // Weighted per-instruction rates.
    std::array<double, kNumMemClasses> mix{};
    double accPI[3] = {}; // l1d, l2, l3 accesses per instr
    double misPI[3] = {};
    for (const auto &p : points) {
        double w = p.weight / wTotal;
        double inv =
            p.m.instrs ? 1.0 / static_cast<double>(p.m.instrs) : 0.0;
        for (std::size_t c = 0; c < kNumMemClasses; ++c)
            mix[c] += w * p.m.mixFrac[c];
        const LevelCounts *lvls[3] = {&p.m.l1d, &p.m.l2, &p.m.l3};
        for (int l = 0; l < 3; ++l) {
            accPI[l] += w * static_cast<double>(lvls[l]->accesses) *
                        inv;
            misPI[l] += w * static_cast<double>(lvls[l]->misses) * inv;
        }
        agg.executedInstrs += p.m.instrs;
        agg.l3Accesses += p.m.l3.accesses;
    }
    agg.mixFrac = mix;
    auto rate = [](double mis, double acc) {
        return acc > 0.0 ? mis / acc : 0.0;
    };
    agg.l1dMissRate = rate(misPI[0], accPI[0]);
    agg.l2MissRate = rate(misPI[1], accPI[1]);
    agg.l3MissRate = rate(misPI[2], accPI[2]);
    return agg;
}

AggregateTimingMetrics
aggregateTiming(const std::vector<PointTimingMetrics> &points)
{
    AggregateTimingMetrics agg;
    if (points.empty())
        return agg;

    double wTotal = 0.0;
    for (const auto &p : points)
        wTotal += p.weight;
    SPLAB_ASSERT(wTotal > 0.0, "aggregate: zero total weight");

    for (const auto &p : points) {
        agg.cpi += p.weight / wTotal * p.m.cpi();
        agg.executedInstrs += p.m.instrs;
    }
    return agg;
}

AggregateCacheMetrics
wholeAsAggregate(const CacheRunMetrics &whole)
{
    AggregateCacheMetrics agg;
    agg.executedInstrs = whole.instrs;
    agg.mixFrac = whole.mixFrac;
    agg.l1dMissRate = whole.l1d.missRate();
    agg.l2MissRate = whole.l2.missRate();
    agg.l3MissRate = whole.l3.missRate();
    agg.l3Accesses = whole.l3.accesses;
    return agg;
}

namespace
{

template <typename P>
std::vector<P>
reduceImpl(const std::vector<P> &points, double quantile)
{
    std::vector<const P *> sorted;
    sorted.reserve(points.size());
    for (const auto &p : points)
        sorted.push_back(&p);
    std::sort(sorted.begin(), sorted.end(),
              [](const P *a, const P *b) {
                  return a->weight > b->weight;
              });
    double total = 0.0;
    for (const auto &p : points)
        total += p.weight;
    std::vector<P> kept;
    double acc = 0.0;
    for (const P *p : sorted) {
        kept.push_back(*p);
        acc += p->weight;
        if (acc >= quantile * total - 1e-12)
            break;
    }
    return kept;
}

} // namespace

std::vector<PointCacheMetrics>
reduceToQuantile(const std::vector<PointCacheMetrics> &points,
                 double quantile)
{
    return reduceImpl(points, quantile);
}

std::vector<PointTimingMetrics>
reduceToQuantile(const std::vector<PointTimingMetrics> &points,
                 double quantile)
{
    return reduceImpl(points, quantile);
}

} // namespace splab
