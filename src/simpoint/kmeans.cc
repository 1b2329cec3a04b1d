#include "kmeans.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"

namespace splab
{

double
squaredDistance(const double *a, const double *b, std::size_t n)
{
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

double
squaredDistance(const std::vector<double> &a,
                const std::vector<double> &b)
{
    SPLAB_ASSERT(a.size() == b.size(), "dimension mismatch");
    return squaredDistance(a.data(), b.data(), a.size());
}

void
DistanceTile::assign(const DenseMatrix &m)
{
    nRows = m.rows();
    nCols = m.cols();
    const std::size_t full = nRows / kBlockRows * kBlockRows;
    const std::size_t tail = tailLanes();
    // 8 spare doubles let the block storage start on a 64-byte
    // boundary, so no lane load straddles a cache line.
    buf.assign(full * nCols + tail * nCols + 8, 0.0);
    offset = (64 - reinterpret_cast<std::uintptr_t>(buf.data()) % 64) %
             64 / sizeof(double);
    double *blk = buf.data() + offset;
    for (std::size_t r0 = 0; r0 < nRows; r0 += kBlockRows) {
        const std::size_t lanes = r0 < full ? kBlockRows : tail;
        const std::size_t used = std::min(kBlockRows, nRows - r0);
        for (std::size_t j = 0; j < used; ++j) {
            const double *src = m.row(r0 + j);
            for (std::size_t d = 0; d < nCols; ++d)
                blk[d * lanes + j] = src[d];
        }
        blk += lanes * nCols;
    }
}

namespace
{

/**
 * The tile kernel, written once over a GCC vector type V of L
 * doubles.  A block of rows keeps one accumulator per vector G, so
 * the adds of different rows overlap instead of waiting on each
 * other as the scalar loop's do.  The per-vector steps are unrolled
 * by a fold expression: constant indices let the compiler keep the
 * accumulators in registers.
 */
template <typename V, std::size_t... G>
[[gnu::always_inline]] inline void
blockDistances(const double *row, const double *blk, std::size_t dim,
               double *out, std::size_t nOut,
               std::index_sequence<G...>)
{
    constexpr std::size_t L = sizeof(V) / sizeof(double);
    constexpr std::size_t W = sizeof...(G) * L;
    V acc[sizeof...(G)] = {};
    for (std::size_t d = 0; d < dim; ++d) {
        const double x = row[d];
        const double *col = blk + d * W;
        (
            [&] {
                V c;
                std::memcpy(&c, col + G * L, sizeof c);
                V t = x - c;
                acc[G] += t * t;
            }(),
            ...);
    }
    // Only the first nOut lanes are results; the rest are padding.
    double lanes[W];
    double *dst = nOut == W ? out : lanes;
    (
        [&] {
            const V v = acc[G];
            std::memcpy(dst + G * L, &v, sizeof v);
        }(),
        ...);
    if (dst == lanes)
        std::copy(lanes, lanes + nOut, out);
}

/** Distances from @p row to every row of @p tile, in blocks of
 *  kBlockRows and one narrower tail block. */
template <typename V>
[[gnu::always_inline]] inline void
tileDistances(const double *row, const DistanceTile &tile,
              double *out)
{
    constexpr std::size_t L = sizeof(V) / sizeof(double);
    constexpr std::size_t B = DistanceTile::kBlockRows;
    static_assert(DistanceTile::kLanePad % L == 0,
                  "tail blocks must hold whole vectors");
    const std::size_t dim = tile.cols();
    const std::size_t n = tile.rows();
    const double *blk = tile.data();
    std::size_t r = 0;
    for (; r + B <= n; r += B, blk += B * dim)
        blockDistances<V>(row, blk, dim, out + r, B,
                          std::make_index_sequence<B / L>());
    switch (tile.tailLanes()) {
    case 4:
        blockDistances<V>(row, blk, dim, out + r, n - r,
                          std::make_index_sequence<4 / L>());
        break;
    case 8:
        blockDistances<V>(row, blk, dim, out + r, n - r,
                          std::make_index_sequence<8 / L>());
        break;
    case 12:
        blockDistances<V>(row, blk, dim, out + r, n - r,
                          std::make_index_sequence<12 / L>());
        break;
    case 16:
        blockDistances<V>(row, blk, dim, out + r, n - r,
                          std::make_index_sequence<16 / L>());
        break;
    default:
        break;
    }
}

typedef double Lanes2 __attribute__((vector_size(16)));

void
tileDistancesBase(const double *row, const DistanceTile &tile,
                  double *out)
{
    tileDistances<Lanes2>(row, tile, out);
}

#if defined(__x86_64__) || defined(__i386__)
constexpr const char *kBaseName = "sse2";

typedef double Lanes4 __attribute__((vector_size(32)));

// AVX2 only: "fma" (or arch=x86-64-v3) would let the compiler fuse
// t * t into the add, which rounds once instead of twice and breaks
// the equality with squaredDistance.
__attribute__((target("avx2"))) void
tileDistancesAvx2(const double *row, const DistanceTile &tile,
                  double *out)
{
    tileDistances<Lanes4>(row, tile, out);
}
#else
constexpr const char *kBaseName = "generic";
#endif

} // namespace

std::vector<TileKernel>
supportedTileKernels()
{
    std::vector<TileKernel> builds = {{kBaseName, tileDistancesBase}};
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2"))
        builds.push_back({"avx2", tileDistancesAvx2});
#endif
    return builds;
}

const TileKernel &
activeTileKernel()
{
    static const TileKernel picked = supportedTileKernels().back();
    return picked;
}

double
KMeansResult::avgClusterVariance(const DenseMatrix &points) const
{
    if (k == 0 || points.empty())
        return 0.0;
    std::vector<double> sum(k, 0.0);
    for (std::size_t i = 0; i < points.rows(); ++i)
        sum[assignment[i]] +=
            squaredDistance(points.row(i),
                            centroids.row(assignment[i]),
                            points.cols());
    double acc = 0.0;
    u32 live = 0;
    for (u32 c = 0; c < k; ++c) {
        if (clusterSize[c] == 0)
            continue;
        acc += sum[c] / static_cast<double>(clusterSize[c]);
        ++live;
    }
    return live ? acc / static_cast<double>(live) : 0.0;
}

void
accountDistanceKernel(const DistanceKernelStats &s)
{
    static obs::Counter &computed =
        obs::counter("kmeans.distances_computed",
                     "exact distance evaluations in the clustering "
                     "kernels");
    static obs::Counter &pruned =
        obs::counter("kmeans.distances_pruned",
                     "candidate distances skipped via "
                     "triangle-inequality bounds");
    static obs::Counter &fallbacks =
        obs::counter("kmeans.bound_fallbacks",
                     "inconclusive point bounds that fell back to a "
                     "full centroid scan");
    computed.add(s.computed);
    pruned.add(s.pruned);
    fallbacks.add(s.fallbacks);
}

namespace
{

constexpr double kMaxD = std::numeric_limits<double>::max();

/**
 * Conservative bound margins.  The rule that makes pruning *safe*
 * rather than approximate: every stored lower bound is deflated by
 * kDistShrink, every upper bound inflated by kDistGrow, and every
 * pruning test demands one further margin factor plus an absolute
 * slack in its favor.  The relative margin (1e-6)
 * exceeds the distance kernel's worst-case relative rounding error
 * (~1e-13 at these dimensionalities) by seven orders of magnitude,
 * so a passed test is a *proof* about the computed (not just the
 * true) distances; the absolute slack keeps denormal-range
 * arithmetic, where relative-error reasoning breaks down, from ever
 * licensing a skip.  The cost is a sliver of pruning power on
 * near-ties — which must fall back to the exact scan anyway to
 * reproduce brute-force tie-breaking bit-for-bit.
 */
constexpr double kBoundMargin = 1e-6;
constexpr double kDistGrow = 1.0 + kBoundMargin;
constexpr double kDistShrink = 1.0 - kBoundMargin;
constexpr double kAbsSlackDist = 1e-140;

/** Conservative lower bound on the runner-up distance from a scan's
 *  second-best computed squared distance.  second2 stays kMaxD when
 *  k == 1 (vacuously valid: there is no other centroid) and can be
 *  +inf when a distance overflowed (clamping to kMaxD stays valid:
 *  an overflowed computed distance proves the true one exceeds
 *  sqrt(DBL_MAX)). */
double
lowerBoundFromSecond(double second2)
{
    return std::sqrt(std::min(second2, kMaxD)) * kDistShrink;
}

/**
 * Index-order strict-`<` argmin over the k squared distances in
 * @p dist: the brute scan's winner and its distance, plus the exact
 * second-best (kMaxD when k == 1) for the runner-up bound.
 */
void
argminTwo(const double *dist, u32 k, double &best, u32 &bestC,
          double &second2)
{
    best = kMaxD;
    second2 = kMaxD;
    bestC = 0;
    for (u32 c = 0; c < k; ++c) {
        const double d = dist[c];
        if (d < best) {
            second2 = best;
            best = d;
            bestC = c;
        } else if (d < second2) {
            second2 = d;
        }
    }
}

/**
 * For every centroid, a conservative lower bound on half the
 * distance to its nearest other centroid (+inf when k == 1), from
 * tile scans of @p tile (the same centroids).  The rounded map
 * d2 -> 0.5 * sqrt(d2) * kDistShrink is monotone, so it is applied
 * once, to the smallest squared distance.  A non-finite distance
 * collapses the bound to 0: lower bounds may only shrink when the
 * arithmetic gives out.
 */
void
halfSeparations(const DenseMatrix &cents, const DistanceTile &tile,
                const TileKernel &kernel, std::vector<double> &sLow,
                DistanceKernelStats &st)
{
    const u32 k = static_cast<u32>(cents.rows());
    sLow.assign(k, std::numeric_limits<double>::infinity());
    if (k < 2)
        return;
    std::vector<double> dist(k);
    for (u32 a = 0; a < k; ++a) {
        kernel.distances(cents.row(a), tile, dist.data());
        st.computed += k;
        double m = kMaxD;
        bool finite = true;
        for (u32 b = 0; b < k; ++b) {
            if (b == a)
                continue;
            if (!std::isfinite(dist[b]))
                finite = false;
            else if (dist[b] < m)
                m = dist[b];
        }
        sLow[a] = finite ? 0.5 * std::sqrt(m) * kDistShrink : 0.0;
    }
}

/** Points per assignment-pass chunk.  A pure constant: the chunk
 *  decomposition (and hence the floating-point reduction order) must
 *  never depend on the thread count. */
constexpr std::size_t kAssignChunk = 256;

/** Per-chunk partials of one Lloyd assignment pass. */
struct AssignAccum
{
    std::vector<double> sums; ///< k * dim centroid numerators
    std::vector<u64> counts;  ///< k populations
    double distortion = 0.0;
    bool changed = false;
    DistanceKernelStats stats;
    std::vector<double> dist; ///< one point's k centroid distances
};

/**
 * k-means++ initial centroid selection (sequential: each draw
 * conditions on the previous centroid).  d2[i] tracks the exact
 * squared distance from point i to its closest placed centroid.
 * With @p accel, each new centroid is scored against a tile of the
 * points; the kernel returns the same doubles as squaredDistance,
 * and d2, the running total and every RNG draw are updated in index
 * order, so the picks are bit-identical to the scalar pass.
 */
DenseMatrix
seedCentroids(const DenseMatrix &points, u32 k, Rng &rng, bool accel,
              DistanceKernelStats &st)
{
    const std::size_t n = points.rows();
    const std::size_t dim = points.cols();
    DenseMatrix centroids(k, dim);
    u32 placed = 0;
    centroids.setRow(placed++, points.row(rng.below(n)));

    std::vector<double> d2(n, kMaxD);
    std::vector<double> dist;
    DistanceTile tile;
    const TileKernel &kernel = activeTileKernel();
    if (accel && k > 1) {
        tile.assign(points);
        dist.resize(n);
    }
    while (placed < k) {
        double total = 0.0;
        const double *last = centroids.row(placed - 1);
        if (accel)
            kernel.distances(last, tile, dist.data());
        for (std::size_t i = 0; i < n; ++i) {
            double d = accel ? dist[i]
                             : squaredDistance(points.row(i), last,
                                               dim);
            if (d < d2[i])
                d2[i] = d;
            total += d2[i];
        }
        st.computed += n;
        if (total <= 0.0) {
            // All remaining points coincide with a centroid; pad
            // with duplicates (clusters will come back empty).
            centroids.setRow(placed++, points.row(rng.below(n)));
            continue;
        }
        double u = rng.uniform() * total;
        double acc = 0.0;
        std::size_t pick = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            acc += d2[i];
            if (acc >= u) {
                pick = i;
                break;
            }
        }
        centroids.setRow(placed++, points.row(pick));
    }
    return centroids;
}

} // namespace

NearestCentroids::NearestCentroids(const DenseMatrix &centroids,
                                   bool accel,
                                   DistanceKernelStats *stats)
    : cents(centroids), k(static_cast<u32>(centroids.rows())),
      usePruning(accel && centroids.rows() >= 2)
{
    if (!usePruning)
        return;
    const std::size_t dim = cents.cols();
    halfLow.assign(static_cast<std::size_t>(k) * k, 0.0);
    for (u32 a = 0; a < k; ++a) {
        for (u32 b = a + 1; b < k; ++b) {
            double d2 = squaredDistance(cents.row(a), cents.row(b),
                                        dim);
            if (stats)
                ++stats->computed;
            // An overflowed distance collapses to 0 — that entry
            // then never licenses a skip (lower bounds may only
            // shrink when arithmetic gives out).
            double h = std::isfinite(d2)
                           ? 0.5 * std::sqrt(d2) * kDistShrink
                           : 0.0;
            halfLow[static_cast<std::size_t>(a) * k + b] = h;
            halfLow[static_cast<std::size_t>(b) * k + a] = h;
        }
    }
}

u32
NearestCentroids::nearest(const double *p, double &bestD2,
                          DistanceKernelStats &stats) const
{
    const std::size_t dim = cents.cols();
    double best = kMaxD;
    u32 bestC = 0;
    double ubNow = 0.0;
    for (u32 c = 0; c < k; ++c) {
        // Skip when half the distance from the current best centroid
        // to c provably exceeds the distance to the current best: by
        // the triangle inequality c is then strictly farther, so the
        // brute scan's strict-< could not have selected it.
        if (usePruning && best < kMaxD &&
            halfLowAt(bestC, c) > ubNow + kAbsSlackDist) {
            ++stats.pruned;
            continue;
        }
        double d = squaredDistance(p, cents.row(c), dim);
        ++stats.computed;
        if (d < best) {
            best = d;
            bestC = c;
            ubNow = std::sqrt(best) * kDistGrow;
        }
    }
    bestD2 = best;
    return bestC;
}

KMeansResult
kmeansFit(const DenseMatrix &points, u32 k, u64 seed, int maxIters)
{
    obs::TraceSpan span("kmeans.fit");
    static obs::Counter &fits =
        obs::counter("kmeans.fits", "k-means fits performed");
    static obs::Counter &iters =
        obs::counter("kmeans.iterations",
                     "Lloyd iterations across all fits");
    fits.add();
    SPLAB_ASSERT(!points.empty(), "kmeans: no points");
    if (k > points.rows())
        k = static_cast<u32>(points.rows());
    SPLAB_ASSERT(k >= 1, "kmeans: k must be >= 1");

    const std::size_t n = points.rows();
    const std::size_t dim = points.cols();
    const bool accel = kmeansAccelEnabled();
    DistanceKernelStats stats;

    Rng rng(seed, 0x63a5ULL);
    KMeansResult res;
    res.k = k;
    res.centroids = seedCentroids(points, k, rng, accel, stats);
    res.assignment.assign(n, 0);
    res.clusterSize.assign(k, 0);

    std::vector<double> sums(k * dim, 0.0);

    // Hamerly bound state (accel only).  lb[i] under-estimates the
    // distance from point i to every centroid other than its
    // assigned one; it decays by the largest centroid drift between
    // iterations.  The matching upper bound needs no storage: the
    // exact distance to the incumbent is recomputed every iteration
    // anyway (the distortion bytes require it), which is the
    // tightest upper bound there is.
    std::vector<double> lb;
    DenseMatrix prevCents;
    double maxDrift = 0.0, maxDrift2 = 0.0;
    u32 maxDriftC = 0;
    if (accel) {
        lb.assign(n, 0.0);
        prevCents.reset(k, dim);
    }

    // Full scans (first iteration, bound fallbacks) score a point
    // against every centroid at once through the tile kernel; the
    // brute path keeps the scalar kernel.
    DistanceTile centTile;
    const TileKernel &kernel = activeTileKernel();
    std::vector<double> sLow;

    for (int iter = 0; iter < maxIters; ++iter) {
        // The Hamerly gate reads each centroid's half-distance to
        // its nearest neighbour.
        if (accel) {
            centTile.assign(res.centroids);
            if (iter > 0)
                halfSeparations(res.centroids, centTile, kernel, sLow,
                                stats);
        }

        // Assignment pass: each chunk accumulates private partial
        // sums; res.assignment and lb are written index-wise, so
        // chunks never contend.
        auto accums = parallelChunkApply<AssignAccum>(
            n, kAssignChunk,
            [&](AssignAccum &a, const ChunkRange &r) {
                a.sums.assign(k * dim, 0.0);
                a.counts.assign(k, 0);
                a.dist.resize(k);
                // Every centroid's exact distance, then the index-
                // order winner and runner-up.
                auto fullScan = [&](const double *p, double &best,
                                    u32 &bestC, double &second2) {
                    if (accel)
                        kernel.distances(p, centTile, a.dist.data());
                    else
                        for (u32 c = 0; c < k; ++c)
                            a.dist[c] = squaredDistance(
                                p, res.centroids.row(c), dim);
                    a.stats.computed += k;
                    argminTwo(a.dist.data(), k, best, bestC, second2);
                };
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    const double *p = points.row(i);
                    double best;
                    u32 bestC;
                    double second2;
                    if (accel && iter > 0) {
                        const u32 prev = res.assignment[i];
                        // Decay the carried runner-up bound by the
                        // largest drift among the *other* centroids,
                        // then compute the exact incumbent distance.
                        double l =
                            lb[i] - (maxDriftC == prev ? maxDrift2
                                                       : maxDrift);
                        l = l <= 0.0 ? 0.0 : l * kDistShrink;
                        double d2a = squaredDistance(
                            p, res.centroids.row(prev), dim);
                        ++a.stats.computed;
                        double ubT = std::sqrt(d2a) * kDistGrow;
                        double z = std::max(l, sLow[prev]);
                        if (ubT * kDistGrow + kAbsSlackDist < z) {
                            // Every other centroid is provably
                            // strictly farther: keep the incumbent.
                            best = d2a;
                            bestC = prev;
                            a.stats.pruned += k - 1;
                            lb[i] = l;
                        } else {
                            ++a.stats.fallbacks;
                            fullScan(p, best, bestC, second2);
                            lb[i] = lowerBoundFromSecond(second2);
                        }
                    } else {
                        // First iteration (no carried bounds yet) or
                        // the brute path.
                        fullScan(p, best, bestC, second2);
                        if (accel)
                            lb[i] = lowerBoundFromSecond(second2);
                    }
                    if (res.assignment[i] != bestC) {
                        res.assignment[i] = bestC;
                        a.changed = true;
                    }
                    a.distortion += best;
                    ++a.counts[bestC];
                    double *s = a.sums.data() + bestC * dim;
                    for (std::size_t d = 0; d < dim; ++d)
                        s[d] += p[d];
                }
            });

        // Reduce in chunk order — fixed regardless of thread count.
        bool changed = false;
        res.distortion = 0.0;
        std::fill(res.clusterSize.begin(), res.clusterSize.end(), 0);
        std::fill(sums.begin(), sums.end(), 0.0);
        for (const AssignAccum &a : accums) {
            res.distortion += a.distortion;
            changed = changed || a.changed;
            stats.merge(a.stats);
            for (u32 c = 0; c < k; ++c)
                res.clusterSize[c] += a.counts[c];
            for (std::size_t j = 0; j < sums.size(); ++j)
                sums[j] += a.sums[j];
        }

        // Double-buffer the centroids so the drift (old -> new) can
        // be measured after the update; every row is rewritten below.
        if (accel)
            prevCents.swap(res.centroids);
        for (u32 c = 0; c < k; ++c) {
            if (res.clusterSize[c] == 0) {
                // Re-seed an empty cluster at a random point.
                res.centroids.setRow(c, points.row(rng.below(n)));
                changed = true;
                continue;
            }
            const double *s = sums.data() + c * dim;
            double *cent = res.centroids.row(c);
            for (std::size_t d = 0; d < dim; ++d)
                cent[d] =
                    s[d] / static_cast<double>(res.clusterSize[c]);
        }
        if (accel) {
            maxDrift = maxDrift2 = 0.0;
            maxDriftC = 0;
            for (u32 c = 0; c < k; ++c) {
                double dd2 = squaredDistance(prevCents.row(c),
                                             res.centroids.row(c),
                                             dim);
                ++stats.computed;
                double dr = std::sqrt(dd2) * kDistGrow;
                if (dr > maxDrift) {
                    maxDrift2 = maxDrift;
                    maxDrift = dr;
                    maxDriftC = c;
                } else if (dr > maxDrift2) {
                    maxDrift2 = dr;
                }
            }
        }

        res.iterations = iter + 1;
        if (!changed) {
            res.converged = true;
            break;
        }
    }
    iters.add(res.iterations);
    accountDistanceKernel(stats);
    return res;
}

KMeansResult
kmeansBestOf(const DenseMatrix &points, u32 k, u64 seed,
             int restarts, int maxIters)
{
    SPLAB_ASSERT(restarts >= 1, "kmeans: restarts must be >= 1");
    auto fits = parallelMap<KMeansResult>(
        static_cast<std::size_t>(restarts), [&](std::size_t r) {
            return kmeansFit(points, k, hashCombine(seed, r),
                             maxIters);
        });
    // Index-order reduction: the earliest restart wins ties, exactly
    // as the serial loop did.
    std::size_t best = 0;
    for (std::size_t r = 1; r < fits.size(); ++r)
        if (fits[r].distortion < fits[best].distortion)
            best = r;
    return std::move(fits[best]);
}

} // namespace splab
