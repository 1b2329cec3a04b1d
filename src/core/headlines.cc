#include "headlines.hh"

#include <algorithm>
#include <cmath>

#include "support/stats_util.hh"

namespace splab
{

CacheErrors
cacheErrors(const AggregateCacheMetrics &sampled,
            const AggregateCacheMetrics &whole)
{
    CacheErrors e;
    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        e.mix = std::max(e.mix, std::fabs(sampled.mixFrac[c] -
                                          whole.mixFrac[c]));
    e.l1d = relativeError(sampled.l1dMissRate, whole.l1dMissRate);
    e.l2 = relativeError(sampled.l2MissRate, whole.l2MissRate);
    e.l3 = relativeError(sampled.l3MissRate, whole.l3MissRate);
    return e;
}

double
cpiError(const std::vector<PointTimingMetrics> &points,
         double reference)
{
    return relativeError(aggregateTiming(points).cpi, reference);
}

SuiteComparison
compareSuite(ArtifactGraph &g, const std::vector<std::string> &names,
             Replay replay, double quantile)
{
    const ReplayCostModel &cost = g.config().cost;
    SuiteComparison s;
    for (const std::string &name : names) {
        const auto &all = replay == Replay::Cold
                              ? g.pointsCacheCold(name)
                              : g.pointsCacheWarm(name);
        const auto pts =
            quantile < 1.0 ? reduceToQuantile(all, quantile) : all;
        RunComparison c;
        c.whole = wholeAsAggregate(g.wholeCache(name));
        c.sampled = aggregateCache(pts);
        c.err = cacheErrors(c.sampled, c.whole);
        c.points = pts.size();
        // Run-length equivalence: the suite table's paper-scale
        // instruction count maps the model run onto the paper's
        // testbed (absorbing the replay overhead its pinballs carry).
        double whole = static_cast<double>(c.whole.executedInstrs);
        double instrs = static_cast<double>(c.sampled.executedInstrs);
        double paperScale = suiteEntry(name).paperInstrsB * 1e9 / whole;
        c.wholeSeconds = cost.wholeSeconds(whole * paperScale);
        c.seconds = cost.regionalSeconds(instrs * paperScale, c.points);

        s.err.mix += c.err.mix;
        s.err.l1d += c.err.l1d;
        s.err.l2 += c.err.l2;
        s.err.l3 += c.err.l3;
        for (std::size_t i = 0; i < kNumMemClasses; ++i)
            s.wholeMix[i] += c.whole.mixFrac[i];
        s.wholeInstrs += whole;
        s.instrs += instrs;
        s.wholeSeconds += c.wholeSeconds;
        s.seconds += c.seconds;
        s.wholeL3 += static_cast<double>(c.whole.l3Accesses);
        s.l3 += static_cast<double>(c.sampled.l3Accesses);
        s.points += static_cast<double>(c.points);
        s.rows.push_back(c);
    }
    s.instrReduction = s.wholeInstrs / s.instrs;
    s.timeReduction = s.wholeSeconds / s.seconds;
    s.l3Reduction = s.wholeL3 / s.l3;
    double n = static_cast<double>(names.size());
    for (double *x : {&s.err.mix, &s.err.l1d, &s.err.l2, &s.err.l3,
                      &s.wholeInstrs, &s.instrs, &s.wholeSeconds,
                      &s.seconds, &s.wholeL3, &s.l3, &s.points})
        *x /= n;
    for (double &x : s.wholeMix)
        x /= n;
    return s;
}

PointCounts
countPoints(ArtifactGraph &g, const std::vector<std::string> &names)
{
    PointCounts c;
    for (const std::string &name : names) {
        const SimPointResult &r = g.simpoints(name);
        c.rows.emplace_back(r.points.size(), r.topByWeight(0.9).size());
        c.points += static_cast<double>(c.rows.back().first);
        c.points90 += static_cast<double>(c.rows.back().second);
        c.paperPoints += suiteEntry(name).simPoints;
        c.paperPoints90 += suiteEntry(name).points90;
    }
    double n = static_cast<double>(names.size());
    for (double *x :
         {&c.points, &c.points90, &c.paperPoints, &c.paperPoints90})
        *x /= n;
    return c;
}

CpiComparison
compareCpi(ArtifactGraph &g, const std::vector<std::string> &names)
{
    CpiComparison c;
    std::vector<double> natives, regionals;
    for (const std::string &name : names) {
        const auto &pts = g.pointsTiming(name);
        const auto reduced = reduceToQuantile(pts, 0.9);
        CpiRow r;
        r.native = g.native(name).cpi();
        r.regional = aggregateTiming(pts).cpi;
        r.reduced = aggregateTiming(reduced).cpi;
        r.errRegional = cpiError(pts, r.native);
        r.errReduced = cpiError(reduced, r.native);
        c.errRegional += r.errRegional;
        c.errReduced += r.errReduced;
        natives.push_back(r.native);
        regionals.push_back(r.regional);
        c.rows.push_back(r);
    }
    double n = static_cast<double>(names.size());
    c.errRegional /= n;
    c.errReduced /= n;
    c.r = pearson(natives, regionals);
    return c;
}

StrategyRow
compareStrategy(ArtifactGraph &g, ArtifactGraph &ref,
                const std::string &name)
{
    const ExperimentConfig &cfg = g.config();
    const RegionSelection &sel = g.regions(name);
    u64 sliceChunks =
        cfg.simpoint.sliceInstrs / ref.spec(name).chunkLen;
    StrategyRow row;
    row.regions = sel.regions.size();
    row.reduction = sel.reductionFactor(cfg.warmupChunks / sliceChunks);
    row.err = cacheErrors(aggregateCache(g.pointsCacheWarm(name)),
                          wholeAsAggregate(ref.wholeCache(name)));
    row.cpiErr = cpiError(g.pointsTiming(name), ref.wholeTiming(name).cpi());
    return row;
}

} // namespace splab
