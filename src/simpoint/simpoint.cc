#include "simpoint.hh"

#include <algorithm>
#include <limits>

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "sampling/region.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"

namespace splab
{

u64
SimPointConfig::contentHash() const
{
    ByteWriter w;
    w.put<u32>(maxK);
    w.put<u64>(sliceInstrs);
    w.put<u32>(projectionDim);
    w.put<double>(bicFraction);
    w.put<int>(restarts);
    w.put<int>(maxIters);
    w.put<u32>(sampleCap);
    w.put<double>(mergeThreshold);
    w.put<u64>(seed);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

double
SimPointResult::totalWeight() const
{
    double s = 0.0;
    for (const auto &p : points)
        s += p.weight;
    return s;
}

std::vector<SimPoint>
SimPointResult::byDescendingWeight() const
{
    std::vector<SimPoint> sorted = points;
    std::sort(sorted.begin(), sorted.end(),
              [](const SimPoint &a, const SimPoint &b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  return a.slice < b.slice;
              });
    return sorted;
}

std::vector<SimPoint>
SimPointResult::topByWeight(double quantile) const
{
    std::vector<SimPoint> sorted = byDescendingWeight();
    double total = totalWeight();
    std::vector<SimPoint> kept;
    double acc = 0.0;
    for (const auto &p : sorted) {
        kept.push_back(p);
        acc += p.weight;
        if (acc >= quantile * total - 1e-12)
            break;
    }
    return kept;
}

namespace
{

/** Slices per finalize-pass chunk; a pure constant so the reduction
 *  order never depends on the thread count. */
constexpr std::size_t kSliceChunk = 1024;
static_assert(kSliceChunk % DistanceTile::kBlockRows == 0,
              "a chunk never splits a tile block");

/**
 * Strided deterministic sub-sample of [0, n): strictly increasing
 * indices, at most cap of them.  When cap is close to n the
 * floating-point stride rounds several slots onto the same index;
 * such collisions are bumped to the next free index instead of
 * duplicating sample rows.
 */
std::vector<u32>
strideSample(std::size_t n, u32 cap)
{
    std::vector<u32> idx;
    // A zero cap would return an empty sample and trip the
    // downstream "kmeans: no points" assert; one representative
    // slice is the smallest meaningful clustering input.
    if (cap == 0)
        cap = 1;
    if (n <= cap) {
        idx.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            idx[i] = static_cast<u32>(i);
        return idx;
    }
    idx.reserve(cap);
    double step = static_cast<double>(n) / static_cast<double>(cap);
    for (u32 i = 0; i < cap; ++i) {
        u32 v = static_cast<u32>(static_cast<double>(i) * step);
        if (!idx.empty() && v <= idx.back())
            v = idx.back() + 1;
        if (v >= n)
            break;
        idx.push_back(v);
    }
    return idx;
}

/** Normalized + projected slices, and the clustering sub-sample. */
struct ClusterInputs
{
    DenseMatrix projected; ///< one row per slice
    DenseMatrix sample;    ///< strided sub-sample of the rows
    DistanceTile tile;     ///< the sample, for every fit of the sweep
};

/**
 * The shared preamble of SimPoint selection: L1-normalize every BBV
 * during projection (no normalized copy is materialised), then carve
 * out the strided clustering sample, and tile it when @p blocks.
 */
ClusterInputs
prepareClusterInputs(const std::vector<FrequencyVector> &bbvs,
                     const SimPointConfig &cfg, bool blocks)
{
    ClusterInputs in;
    RandomProjection proj(cfg.projectionDim,
                          hashCombine(cfg.seed, 0x9e37ULL));
    in.projected = proj.projectAllNormalized(bbvs);

    auto sampleIdx = strideSample(in.projected.rows(), cfg.sampleCap);
    in.sample.reset(sampleIdx.size(), in.projected.cols());
    for (std::size_t i = 0; i < sampleIdx.size(); ++i)
        in.sample.setRow(i, in.projected.row(sampleIdx[i]));
    if (blocks)
        in.tile.assign(in.sample);
    return in;
}

/** Union-find with path halving. */
u32
findRoot(std::vector<u32> &parent, u32 x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

/** Build the final result from a fit over the sample; the slices
 *  are assigned through the block kernel when @p blocks. */
SimPointResult
finalize(const KMeansResult &fit, const DenseMatrix &allProjected,
         const SimPointConfig &cfg, bool blocks)
{
    obs::TraceSpan span("simpoint.finalize");
    SimPointResult res;
    res.totalSlices = allProjected.rows();
    res.sliceInstrs = cfg.sliceInstrs;

    const std::size_t n = allProjected.rows();
    const std::size_t dim = allProjected.cols();

    // Pass 1: assign every slice (not just the sample) to its
    // nearest k-means centroid, through the block kernel of the
    // Lloyd passes or the scalar scan (bit-identical; see
    // kmeans.hh).  Chunks accumulate private population counts and
    // per-cluster distance lists; the chunk-order reduction below
    // concatenates the lists in slice order, exactly as a serial
    // scan would.
    struct Pass1Accum
    {
        std::vector<u64> population;
        std::vector<std::vector<double>> distances;
    };
    DistanceTile tile;
    if (blocks)
        tile.assign(allProjected);
    std::vector<u32> rawAssign(n, 0);
    auto pass1 = parallelChunkApply<Pass1Accum>(
        n, kSliceChunk, [&](Pass1Accum &a, const ChunkRange &r) {
            a.population.assign(fit.k, 0);
            a.distances.assign(fit.k, {});
            double dist[kSliceChunk];
            assignNearest(allProjected, blocks ? &tile : nullptr,
                          fit.centroids, r.begin, r.end,
                          rawAssign.data() + r.begin, dist);
            for (std::size_t i = r.begin; i < r.end; ++i) {
                ++a.population[rawAssign[i]];
                a.distances[rawAssign[i]].push_back(dist[i - r.begin]);
            }
        });
    std::vector<u64> population(fit.k, 0);
    std::vector<std::vector<double>> distances(fit.k);
    for (const Pass1Accum &a : pass1) {
        for (u32 c = 0; c < fit.k; ++c) {
            population[c] += a.population[c];
            distances[c].insert(distances[c].end(),
                                a.distances[c].begin(),
                                a.distances[c].end());
        }
    }
    accountDistances(static_cast<u64>(n) * fit.k);

    // Merge clusters whose centroids overlap within their own
    // spread (see SimPointConfig::mergeThreshold).  Spread is the
    // *core* (20%-trimmed) variance: a tight cluster stays tight
    // even when a few phase-boundary mixture slices were assigned
    // to it, so genuinely distinct small phases do not merge.
    std::vector<u32> parent(fit.k);
    for (u32 c = 0; c < fit.k; ++c)
        parent[c] = c;
    if (cfg.mergeThreshold > 0.0) {
        std::vector<double> variance(fit.k, 0.0);
        for (u32 c = 0; c < fit.k; ++c) {
            if (population[c] == 0)
                continue;
            std::sort(distances[c].begin(), distances[c].end());
            std::size_t keep =
                std::max<std::size_t>(1, distances[c].size() * 8 / 10);
            double s = 0.0;
            for (std::size_t i = 0; i < keep; ++i)
                s += distances[c][i];
            variance[c] = s / static_cast<double>(keep);
        }
        for (u32 i = 0; i < fit.k; ++i) {
            if (population[i] == 0)
                continue;
            for (u32 j = i + 1; j < fit.k; ++j) {
                if (population[j] == 0)
                    continue;
                double sep = squaredDistance(fit.centroids.row(i),
                                             fit.centroids.row(j),
                                             dim);
                if (sep < cfg.mergeThreshold *
                              (variance[i] + variance[j]))
                    parent[findRoot(parent, j)] =
                        findRoot(parent, i);
            }
        }
    }

    // Compact group ids and compute merged centroids
    // (population-weighted averages of the k-means centroids).
    std::vector<u32> groupOf(fit.k, 0);
    std::vector<std::vector<double>> groupCentroid;
    std::vector<u64> groupPop;
    std::vector<i64> groupIdOfRoot(fit.k, -1);
    for (u32 c = 0; c < fit.k; ++c) {
        if (population[c] == 0)
            continue;
        u32 root = findRoot(parent, c);
        if (groupIdOfRoot[root] < 0) {
            groupIdOfRoot[root] =
                static_cast<i64>(groupCentroid.size());
            groupCentroid.emplace_back(dim, 0.0);
            groupPop.push_back(0);
        }
        u32 g = static_cast<u32>(groupIdOfRoot[root]);
        groupOf[c] = g;
        double w = static_cast<double>(population[c]);
        const double *cent = fit.centroids.row(c);
        for (std::size_t d = 0; d < dim; ++d)
            groupCentroid[g][d] += w * cent[d];
        groupPop[g] += population[c];
    }
    for (std::size_t g = 0; g < groupCentroid.size(); ++g)
        for (std::size_t d = 0; d < dim; ++d)
            groupCentroid[g][d] /=
                static_cast<double>(groupPop[g]);

    // Pass 2: relabel slices, pick the representative (closest to
    // the merged centroid) and the within-group variance.  Again
    // chunked with an ordered reduction: strict < comparisons keep
    // the earliest-slice representative on ties, matching the
    // serial scan.
    std::size_t nGroups = groupCentroid.size();
    res.chosenK = static_cast<u32>(nGroups);
    res.sliceToCluster.assign(n, 0);
    struct Pass2Accum
    {
        std::vector<double> bestDist;
        std::vector<SliceIndex> representative;
        std::vector<double> sumDist;
    };
    auto pass2 = parallelChunkApply<Pass2Accum>(
        n, kSliceChunk, [&](Pass2Accum &a, const ChunkRange &r) {
            a.bestDist.assign(nGroups,
                              std::numeric_limits<double>::max());
            a.representative.assign(nGroups, 0);
            a.sumDist.assign(nGroups, 0.0);
            for (std::size_t i = r.begin; i < r.end; ++i) {
                u32 g = groupOf[rawAssign[i]];
                res.sliceToCluster[i] = g;
                double d =
                    squaredDistance(allProjected.row(i),
                                    groupCentroid[g].data(), dim);
                a.sumDist[g] += d;
                if (d < a.bestDist[g]) {
                    a.bestDist[g] = d;
                    a.representative[g] = i;
                }
            }
        });
    std::vector<double> bestDist(
        nGroups, std::numeric_limits<double>::max());
    std::vector<SliceIndex> representative(nGroups, 0);
    std::vector<double> groupSumDist(nGroups, 0.0);
    for (const Pass2Accum &a : pass2)
        for (std::size_t g = 0; g < nGroups; ++g) {
            groupSumDist[g] += a.sumDist[g];
            if (a.bestDist[g] < bestDist[g]) {
                bestDist[g] = a.bestDist[g];
                representative[g] = a.representative[g];
            }
        }

    // Weights go through the one shared rational normalization
    // (RegionSelection::normalize): count_g / sum(count).  The
    // group populations sum to n, so this is the same correctly-
    // rounded division as the historical groupPop / n — bit-equal —
    // but now every strategy normalizes identically.
    RegionSelection norm;
    norm.regions.resize(nGroups);
    for (u32 g = 0; g < nGroups; ++g)
        norm.regions[g].count = groupPop[g];
    norm.normalize();
    for (u32 g = 0; g < nGroups; ++g) {
        SimPoint p;
        p.slice = representative[g];
        p.cluster = g;
        p.clusterSize = groupPop[g];
        p.weight = norm.regions[g].weight;
        p.variance =
            groupSumDist[g] / static_cast<double>(groupPop[g]);
        res.points.push_back(p);
    }
    std::sort(res.points.begin(), res.points.end(),
              [](const SimPoint &a, const SimPoint &b) {
                  return a.slice < b.slice;
              });
    // Cluster ids in points must track the sorted order's identity;
    // they already name the group labels used in sliceToCluster.
    return res;
}

/** pickSimPoints with every nearest-centroid scan through the block
 *  kernels (@p blocks) or the scalar scans. */
SimPointResult
selectSimPoints(const std::vector<FrequencyVector> &bbvs,
                const SimPointConfig &cfg, bool blocks)
{
    obs::TraceSpan span("simpoint.pick");
    static obs::Counter &selections =
        obs::counter("simpoint.selections",
                     "SimPoint selections performed");
    selections.add();
    SPLAB_ASSERT(!bbvs.empty(), "simpoint: no slices");

    ClusterInputs in = prepareClusterInputs(bbvs, cfg, blocks);
    const DistanceTile *tile = blocks ? &in.tile : nullptr;

    u32 maxK = cfg.maxK;
    if (maxK > in.sample.rows())
        maxK = static_cast<u32>(in.sample.rows());

    // The BIC model-selection sweep: every k is an independent fit
    // seeded by hashCombine(seed, k), so the sweep fans out across
    // the pool and results are collected by index.  All fits share
    // the sample's tile (null on the scalar reference).
    struct SweepFit
    {
        KMeansResult fit;
        KSweepEntry entry;
    };
    obs::TraceSpan sweepSpan("simpoint.ksweep");
    auto sweep = parallelMap<SweepFit>(maxK, [&](std::size_t ki) {
        u32 k = static_cast<u32>(ki) + 1;
        SweepFit s;
        s.fit = kmeansBestOf(in.sample, tile, k,
                             hashCombine(cfg.seed, k), cfg.restarts,
                             cfg.maxIters);
        s.entry = {k, bicScore(s.fit, in.sample), s.fit.distortion,
                   s.fit.avgClusterVariance(in.sample)};
        return s;
    });
    sweepSpan.close();

    std::vector<double> scores;
    scores.reserve(sweep.size());
    for (const SweepFit &s : sweep)
        scores.push_back(s.entry.bic);

    std::size_t pick = pickByBicFraction(scores, cfg.bicFraction);
    SimPointResult out =
        finalize(sweep[pick].fit, in.projected, cfg, blocks);
    out.sweep.reserve(sweep.size());
    for (const SweepFit &s : sweep)
        out.sweep.push_back(s.entry);
    return out;
}

} // namespace

SimPointResult
pickSimPoints(const std::vector<FrequencyVector> &bbvs,
              const SimPointConfig &cfg)
{
    return selectSimPoints(bbvs, cfg, true);
}

SimPointResult
pickSimPointsReference(const std::vector<FrequencyVector> &bbvs,
                       const SimPointConfig &cfg)
{
    return selectSimPoints(bbvs, cfg, false);
}

// SimPoint and KSweepEntry carry internal padding (a u32 member
// followed by an 8-byte one), so they must be serialized field by
// field: memcpying the whole struct (putVector) would emit the
// uninitialized padding bytes and break byte-level reproducibility
// of cached blobs and manifests.

void
serializeSimPoints(ByteWriter &w, const SimPointResult &r)
{
    w.put<u32>(r.chosenK);
    w.put<u64>(r.totalSlices);
    w.put<u64>(r.sliceInstrs);
    w.put<u64>(r.points.size());
    for (const SimPoint &p : r.points) {
        w.put<u64>(p.slice);
        w.put<double>(p.weight);
        w.put<u32>(p.cluster);
        w.put<u64>(p.clusterSize);
        w.put<double>(p.variance);
    }
    w.putVector(r.sliceToCluster);
    w.put<u64>(r.sweep.size());
    for (const KSweepEntry &e : r.sweep) {
        w.put<u32>(e.k);
        w.put<double>(e.bic);
        w.put<double>(e.distortion);
        w.put<double>(e.avgClusterVariance);
    }
}

SimPointResult
deserializeSimPoints(ByteReader &r)
{
    SimPointResult res;
    res.chosenK = r.get<u32>();
    res.totalSlices = r.get<u64>();
    res.sliceInstrs = r.get<u64>();
    res.points.resize(r.get<u64>());
    for (SimPoint &p : res.points) {
        p.slice = r.get<u64>();
        p.weight = r.get<double>();
        p.cluster = r.get<u32>();
        p.clusterSize = r.get<u64>();
        p.variance = r.get<double>();
    }
    res.sliceToCluster = r.getVector<u32>();
    res.sweep.resize(r.get<u64>());
    for (KSweepEntry &e : res.sweep) {
        e.k = r.get<u32>();
        e.bic = r.get<double>();
        e.distortion = r.get<double>();
        e.avgClusterVariance = r.get<double>();
    }
    return res;
}

} // namespace splab
