/**
 * @file
 * Tests for the accelerated clustering kernels: the lane-parallel
 * tile distance kernel, the rescoring block kernel over a distance
 * table, the dirty-cluster sums kernel, and Lloyd's first assignment
 * taken from the k-means++ seeding scan.
 *
 * The acceleration contract is *exact equality*, not approximation:
 * every fit and whole-pipeline SimPoint selection must be
 * bit-identical to the scalar reference (a null tile,
 * pickSimPointsReference) at any SPLAB_THREADS, and every build of
 * the kernels must return the scalar scan's indices and doubles — so
 * these tests compare doubles with memcmp, not EXPECT_NEAR.  The work
 * tally (kmeans.distances_computed) is a deterministic counter and is
 * asserted to be exact and thread-count invariant as well.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "obs/counters.hh"
#include "simpoint/simpoint.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"

namespace splab
{
namespace
{

/** Scoped global-pool resize; restores the environment default. */
class ThreadsGuard
{
  public:
    explicit ThreadsGuard(std::size_t n)
    {
        ThreadPool::setGlobalThreads(n);
    }

    ~ThreadsGuard() { ThreadPool::setGlobalThreads(0); }
};

/** Byte-level equality of two fits — the acceleration contract. */
void
expectBitIdentical(const KMeansResult &a, const KMeansResult &b)
{
    ASSERT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.clusterSize, b.clusterSize);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(std::memcmp(&a.distortion, &b.distortion,
                          sizeof(double)),
              0);
    ASSERT_EQ(a.centroids.rows(), b.centroids.rows());
    ASSERT_EQ(a.centroids.cols(), b.centroids.cols());
    for (std::size_t r = 0; r < a.centroids.rows(); ++r)
        EXPECT_EQ(std::memcmp(a.centroids.row(r), b.centroids.row(r),
                              a.centroids.cols() * sizeof(double)),
                  0)
            << "centroid row " << r << " differs";
}

std::vector<std::vector<double>>
gaussianBlobs(u32 clusters, u32 perCluster, double spread, u64 seed,
              std::size_t dim = 8)
{
    Rng rng(seed);
    std::vector<std::vector<double>> pts;
    for (u32 c = 0; c < clusters; ++c) {
        std::vector<double> centre(dim);
        for (auto &x : centre)
            x = rng.uniform(-10.0, 10.0);
        for (u32 i = 0; i < perCluster; ++i) {
            std::vector<double> p(dim);
            for (std::size_t d = 0; d < dim; ++d)
                p[d] = centre[d] + spread * rng.gaussian();
            pts.push_back(std::move(p));
        }
    }
    return pts;
}

/** The scalar reference fit: no tile, so every scan is scalar. */
KMeansResult
referenceFit(const std::vector<std::vector<double>> &pts, u32 k,
             u64 seed)
{
    return kmeansFit(DenseMatrix::fromRows(pts), nullptr, k, seed);
}

/** Delta of the kmeans.distances_computed counter across @p body
 *  (the counter is process-global and monotonic). */
template <typename Fn>
u64
distancesComputed(Fn &&body)
{
    obs::Counter &c = obs::counter("kmeans.distances_computed");
    u64 c0 = c.value();
    body();
    return c.value() - c0;
}

TEST(KMeansAccel, FitBitIdenticalToBruteAcrossK)
{
    // Every k of the paper's BIC sweep, on 360 points and on 1001
    // points in the projection's 15 dimensions: neither count is a
    // multiple of the tile kernel's block, so partial tail blocks
    // are exercised in both the seeding and the Lloyd scans.
    const std::vector<std::vector<std::vector<double>>> inputs = {
        gaussianBlobs(6, 60, 0.4, 11),
        gaussianBlobs(7, 143, 0.4, 13, 15)};
    for (const auto &pts : inputs) {
        for (u32 k = 1; k <= 35; ++k) {
            KMeansResult brute = referenceFit(pts, k, 7);
            KMeansResult accel = kmeansFit(pts, k, 7);
            SCOPED_TRACE("n=" + std::to_string(pts.size()) +
                         " k=" + std::to_string(k));
            expectBitIdentical(brute, accel);
        }
    }
}

TEST(KMeansAccel, BestOfBitIdentical)
{
    auto pts = gaussianBlobs(4, 80, 0.6, 19);
    KMeansResult brute =
        kmeansBestOf(DenseMatrix::fromRows(pts), nullptr, 6, 3, 4);
    KMeansResult accel = kmeansBestOf(pts, 6, 3, 4);
    expectBitIdentical(brute, accel);
}

TEST(KMeansAccel, DuplicatePointsAndTiesBitIdentical)
{
    // Worst case for tie-breaking: many exactly coincident points
    // and a symmetric grid where several centroids end up exactly
    // equidistant from a point.  The brute scan resolves every tie
    // by lowest index; the block kernel and the seeded first
    // assignment must never change that.  All-equal points make the
    // k-means++ total 0, so the seeding pads with duplicate
    // centroids; k = 1 has no seeding draw at all.
    std::vector<std::vector<double>> grid;
    for (int rep = 0; rep < 20; ++rep)
        for (double x : {-1.0, 0.0, 1.0})
            for (double y : {-1.0, 0.0, 1.0})
                grid.push_back({x, y});
    const std::vector<std::vector<double>> same(50, {0.5, -2.0, 3.0});
    const std::vector<
        std::pair<const std::vector<std::vector<double>> *, u32>>
        cases = {{&grid, 2},  {&grid, 3}, {&grid, 4}, {&grid, 9},
                 {&grid, 1},  {&same, 1}, {&same, 2}, {&same, 5},
                 {&same, 20}};
    for (const auto &[pts, k] : cases) {
        KMeansResult brute = referenceFit(*pts, k, 1);
        KMeansResult accel = kmeansFit(*pts, k, 1);
        SCOPED_TRACE("n=" + std::to_string(pts->size()) +
                     " k=" + std::to_string(k));
        expectBitIdentical(brute, accel);
    }
}

TEST(KMeansAccel, SettledCentroidsAreNotRescored)
{
    // The seeding scan already scored k - 1 centroids against every
    // point, so the accelerated fit skips Lloyd's first scan: that
    // alone saves n * (k - 1) distances.  Later passes rescore only
    // the centroids whose bytes moved, so a fit in which some
    // centroids settle before it converges saves strictly more.
    // The fits are bit-identical, so they run the same iterations.
    auto pts = gaussianBlobs(8, 100, 0.1, 29);
    const u32 k = 16;
    KMeansResult ref, fit;
    u64 brute = distancesComputed([&] { ref = referenceFit(pts, k, 5); });
    u64 accel = distancesComputed([&] { fit = kmeansFit(pts, k, 5); });
    expectBitIdentical(ref, fit);
    ASSERT_GE(fit.iterations, 3);
    EXPECT_LT(accel, brute - pts.size() * (k - 1));
}

TEST(KMeansAccel, CountersThreadCountInvariant)
{
    // The work tally is a pure function of the data -- never of
    // scheduling -- so it is part of the deterministic manifest
    // section.  Assert the deltas (and the fit bytes) are identical
    // at 1, 2 and 8 threads.
    auto pts = gaussianBlobs(5, 120, 0.3, 43);
    KMeansResult ref;
    u64 refComputed = 0;
    bool first = true;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadsGuard tg(threads);
        KMeansResult r;
        u64 computed =
            distancesComputed([&] { r = kmeansFit(pts, 10, 9); });
        if (first) {
            ref = r;
            refComputed = computed;
            first = false;
            continue;
        }
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectBitIdentical(ref, r);
        EXPECT_EQ(computed, refComputed);
    }
}

/** Equal bit patterns (distinguishes -0.0 from 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(TileKernel, EveryBuildMatchesScalarDistanceBitForBit)
{
    const std::vector<TileKernel> builds = supportedTileKernels();
    ASSERT_FALSE(builds.empty());
    EXPECT_STREQ(activeTileKernel().name, builds.back().name);

    // Signed zeros, subnormals (whose squares underflow), 1e154
    // (whose squared differences overflow to inf) and ordinary
    // values of both signs.
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double sub = std::numeric_limits<double>::min() / 8.0;
    const std::vector<double> special = {
        0.0,  -0.0,   tiny,   -tiny, sub,   -sub,  3.0 * sub,
        1e154, -1e154, 1.0,   -1.0,  0.5,   -2.25, 1e-160};
    Rng rng(83);
    auto value = [&] {
        if (rng.below(3) == 0)
            return special[rng.below(special.size())];
        return rng.uniform(-8.0, 8.0);
    };
    const double sentinel = -12345.0;
    for (std::size_t dim : {1u, 2u, 3u, 5u, 8u, 15u, 16u, 17u, 31u}) {
        for (std::size_t width = 1; width <= 37; ++width) {
            DenseMatrix rows(width, dim);
            for (std::size_t r = 0; r < width; ++r)
                for (std::size_t d = 0; d < dim; ++d)
                    rows.at(r, d) = value();
            std::vector<double> row(dim);
            for (double &x : row)
                x = value();
            DistanceTile tile;
            tile.assign(rows);
            ASSERT_EQ(tile.rows(), width);
            for (const TileKernel &kernel : builds) {
                SCOPED_TRACE(std::string(kernel.name) + " dim=" +
                             std::to_string(dim) + " width=" +
                             std::to_string(width));
                std::vector<double> out(width + 16, sentinel);
                kernel.distances(row.data(), tile, out.data());
                for (std::size_t r = 0; r < width; ++r) {
                    EXPECT_TRUE(sameBits(
                        out[r], squaredDistance(row.data(),
                                                rows.row(r), dim)))
                        << "row " << r;
                    EXPECT_TRUE(sameBits(
                        out[r], squaredDistance(rows.row(r),
                                                row.data(), dim)))
                        << "row " << r << " (operands swapped)";
                }
                // Padding lanes are computed but never written.
                for (std::size_t r = width; r < out.size(); ++r)
                    EXPECT_TRUE(sameBits(out[r], sentinel))
                        << "wrote past the tile at " << r;
            }
        }
    }
}

TEST(TileKernel, EveryBuildNearestMatchesScalarArgminBitForBit)
{
    const std::vector<TileKernel> builds = supportedTileKernels();
    ASSERT_FALSE(builds.empty());

    // The special values of the distance test: signed zeros,
    // subnormals, 1e154 (whose squared differences overflow, so a
    // point can have no finite distance at all) and ordinary values.
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double sub = std::numeric_limits<double>::min() / 8.0;
    const std::vector<double> special = {
        0.0,  -0.0,   tiny,   -tiny, sub,   -sub,  3.0 * sub,
        1e154, -1e154, 1.0,   -1.0,  0.5,   -2.25, 1e-160};
    Rng rng(89);
    auto value = [&] {
        if (rng.below(3) == 0)
            return special[rng.below(special.size())];
        return rng.uniform(-8.0, 8.0);
    };
    constexpr std::size_t kMaxK = 37;
    const std::size_t block = DistanceTile::kBlockRows;
    const double distSentinel = -12345.0;
    const u32 idxSentinel = 0xdeadbeef;
    for (std::size_t dim : {1u, 2u, 3u, 5u, 8u, 15u, 16u, 17u, 31u}) {
        // One centroid set per dim; every third row repeats an
        // earlier one, so exact ties must go to the lower index.
        DenseMatrix cents(kMaxK, dim);
        for (std::size_t c = 0; c < kMaxK; ++c) {
            if (c > 0 && rng.below(3) == 0) {
                cents.setRow(c, cents.row(rng.below(c)));
                continue;
            }
            for (std::size_t d = 0; d < dim; ++d)
                cents.at(c, d) = value();
        }
        for (std::size_t count = 1; count <= 37; ++count) {
            DenseMatrix points(count, dim);
            for (std::size_t r = 0; r < count; ++r) {
                // Some points sit exactly on a centroid.
                if (rng.below(4) == 0) {
                    points.setRow(r, cents.row(rng.below(kMaxK)));
                    continue;
                }
                for (std::size_t d = 0; d < dim; ++d)
                    points.at(r, d) = value();
            }
            DistanceTile tile;
            tile.assign(points);
            for (std::size_t k = 1; k <= kMaxK; ++k) {
                DenseMatrix kc(k, dim);
                for (std::size_t c = 0; c < k; ++c)
                    kc.setRow(c, cents.row(c));
                // The scalar brute scan: (0, DBL_MAX), strict <.
                std::vector<u32> wantIdx(count, 0);
                std::vector<double> wantDist(
                    count, std::numeric_limits<double>::max());
                for (std::size_t r = 0; r < count; ++r)
                    for (u32 c = 0; c < k; ++c) {
                        double d = squaredDistance(points.row(r),
                                                   kc.row(c), dim);
                        if (d < wantDist[r]) {
                            wantDist[r] = d;
                            wantIdx[r] = c;
                        }
                    }
                for (const TileKernel &kernel : builds) {
                    // Every range from a block boundary to the end,
                    // once with every centroid listed over an empty
                    // table and once with a random subset listed
                    // over a table that holds the others' exact
                    // distances.
                    for (std::size_t begin = 0; begin < count;
                         begin += block)
                        for (bool partial : {false, true}) {
                            SCOPED_TRACE(
                                std::string(kernel.name) +
                                " dim=" + std::to_string(dim) +
                                " count=" + std::to_string(count) +
                                " k=" + std::to_string(k) +
                                " begin=" + std::to_string(begin) +
                                (partial ? " partial" : " full"));
                            const std::size_t n = count - begin;
                            const std::size_t slots =
                                (n + block - 1) / block * block * k;
                            // A stale slot holds -1, which would win
                            // every argmin if it were not rescored.
                            std::vector<double> table(slots + block,
                                                      -1.0);
                            std::vector<u32> moved;
                            for (u32 c = 0; c < k; ++c) {
                                if (!partial || rng.below(2) == 0) {
                                    moved.push_back(c);
                                    continue;
                                }
                                for (std::size_t j = 0; j < n; ++j)
                                    table[(j / block * k + c) * block +
                                          j % block] =
                                        squaredDistance(
                                            points.row(begin + j),
                                            kc.row(c), dim);
                            }
                            // The listed order does not matter.
                            for (std::size_t m = moved.size(); m > 1;
                                 --m)
                                std::swap(moved[m - 1],
                                          moved[rng.below(m)]);
                            std::vector<u32> idx(n + 16, idxSentinel);
                            std::vector<double> dist(n + 16,
                                                     distSentinel);
                            kernel.rescore(tile, begin, count, kc,
                                           moved.data(), moved.size(),
                                           table.data(), idx.data(),
                                           dist.data());
                            for (std::size_t j = 0; j < n; ++j) {
                                EXPECT_EQ(idx[j], wantIdx[begin + j])
                                    << "row " << begin + j;
                                EXPECT_TRUE(sameBits(
                                    dist[j], wantDist[begin + j]))
                                    << "row " << begin + j;
                            }
                            // Every listed centroid's slots now hold
                            // its exact distances.
                            for (u32 c : moved)
                                for (std::size_t j = 0; j < n; ++j)
                                    EXPECT_TRUE(sameBits(
                                        table[(j / block * k + c) *
                                                  block +
                                              j % block],
                                        squaredDistance(
                                            points.row(begin + j),
                                            kc.row(c), dim)))
                                        << "centroid " << c << " row "
                                        << begin + j;
                            // Padding lanes are scored but never
                            // written out, and the table ends where
                            // the range does.
                            for (std::size_t j = n; j < idx.size();
                                 ++j) {
                                EXPECT_EQ(idx[j], idxSentinel)
                                    << "wrote past the range at " << j;
                                EXPECT_TRUE(
                                    sameBits(dist[j], distSentinel))
                                    << "wrote past the range at " << j;
                            }
                            for (std::size_t j = slots;
                                 j < table.size(); ++j)
                                EXPECT_TRUE(sameBits(table[j], -1.0))
                                    << "wrote past the table at " << j;
                        }
                }
            }
        }
    }
}

TEST(TileKernel, EveryBuildClusterSumsMatchScalarChunkOrder)
{
    // The Lloyd passes rebuild only the sums of clusters whose
    // members changed; every build must give, for each dirty
    // cluster, the scalar reference's s[d] += p[d] in index order
    // from +0.0, and leave every other row alone.  k reaches past
    // 64, so no dirty set fits one machine word.
    const std::vector<TileKernel> builds = supportedTileKernels();
    ASSERT_FALSE(builds.empty());
    const double tiny = std::numeric_limits<double>::denorm_min();
    const std::vector<double> special = {
        0.0, -0.0, tiny, -tiny, 1e308, -1e308, 1.0, -1.0, 1e-160};
    Rng rng(97);
    auto value = [&] {
        if (rng.below(3) == 0)
            return special[rng.below(special.size())];
        return rng.uniform(-8.0, 8.0);
    };
    const double sentinel = -12345.0;
    for (std::size_t dim : {1u, 2u, 15u, 16u, 17u, 31u}) {
        for (std::size_t k : {1u, 5u, 35u, 70u}) {
            const std::size_t n = 300;
            DenseMatrix points(n, dim);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t d = 0; d < dim; ++d)
                    points.at(r, d) = value();
            std::vector<u32> assign(n);
            for (u32 &a : assign)
                a = static_cast<u32>(rng.below(k));
            std::vector<u8> dirty(k);
            for (u8 &d : dirty)
                d = rng.below(4) != 0;
            // Ranges inside the matrix, as a Lloyd chunk sees them.
            for (auto [begin, end] :
                 {std::pair<std::size_t, std::size_t>{0, n},
                  {32, 288},
                  {256, n}}) {
                std::vector<double> want(k * dim, sentinel);
                for (std::size_t c = 0; c < k; ++c)
                    if (dirty[c])
                        std::fill_n(want.begin() + c * dim, dim, 0.0);
                for (std::size_t i = begin; i < end; ++i) {
                    if (!dirty[assign[i]])
                        continue;
                    double *s = want.data() + assign[i] * dim;
                    const double *p = points.row(i);
                    for (std::size_t d = 0; d < dim; ++d)
                        s[d] += p[d];
                }
                for (const TileKernel &kernel : builds) {
                    SCOPED_TRACE(std::string(kernel.name) +
                                 " dim=" + std::to_string(dim) +
                                 " k=" + std::to_string(k) +
                                 " begin=" + std::to_string(begin));
                    std::vector<double> sums(k * dim, sentinel);
                    kernel.clusterSums(points, begin, end,
                                       assign.data() + begin,
                                       dirty.data(), k, sums.data());
                    for (std::size_t j = 0; j < sums.size(); ++j)
                        EXPECT_TRUE(sameBits(sums[j], want[j]))
                            << "cluster " << j / dim << " dim "
                            << j % dim;
                }
            }
        }
    }
}

/** Synthesize per-slice BBVs with a known phase structure. */
std::vector<FrequencyVector>
phasedBbvs(const std::vector<double> &weights, u32 slices, u64 seed)
{
    Rng rng(seed);
    std::vector<double> cdf(weights.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        cdf[i] = acc;
    }
    for (auto &c : cdf)
        c /= acc;
    std::vector<FrequencyVector> out;
    for (u32 s = 0; s < slices; ++s) {
        auto phase = sampleCdf(cdf.data(), cdf.size(), rng.uniform());
        FrequencyVector v;
        for (u32 b = 0; b < 12; ++b) {
            double w = 1.0 + 0.05 * rng.gaussian();
            v.entries.push_back(
                {static_cast<u32>(phase * 12 + b),
                 static_cast<float>(w < 0.01 ? 0.01 : w)});
        }
        out.push_back(std::move(v));
    }
    return out;
}

std::vector<u8>
selectionBytes(const SimPointResult &r)
{
    ByteWriter w;
    serializeSimPoints(w, r);
    return w.bytes();
}

TEST(SimPointAccel, WholePipelineBytesInvariant)
{
    // End-to-end SimPoint selection — sub-sampled k-sweep, BIC pick,
    // whole-run slice assignment — serialized and byte-compared:
    // the block kernel at every thread count must agree exactly with
    // the scalar reference, which is what keeps cached artifact
    // bytes stable with no salt bump.
    auto bbvs = phasedBbvs({0.4, 0.3, 0.2, 0.1}, 500, 67);
    SimPointConfig cfg;
    cfg.maxK = 10;
    const std::vector<u8> ref =
        selectionBytes(pickSimPointsReference(bbvs, cfg));
    ASSERT_FALSE(ref.empty());
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadsGuard tg(threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(selectionBytes(pickSimPoints(bbvs, cfg)), ref);
    }
}

TEST(SimPointAccel, PipelineComputesFewerDistances)
{
    // Every fit of the sweep takes its first assignment from the
    // seeding scan, so the accelerated selection computes fewer
    // distances than the scalar one for the same bytes.
    auto bbvs = phasedBbvs({0.5, 0.3, 0.2}, 600, 71);
    SimPointConfig cfg;
    cfg.maxK = 12;
    u64 brute =
        distancesComputed([&] { pickSimPointsReference(bbvs, cfg); });
    u64 accel = distancesComputed([&] { pickSimPoints(bbvs, cfg); });
    EXPECT_GT(accel, 0u);
    EXPECT_LT(accel, brute);
}

TEST(KMeansResult, AvgClusterVarianceBoundaries)
{
    DenseMatrix pts = DenseMatrix::fromRows(
        {{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}});

    // k == 0 and empty inputs are defined as zero, not UB.
    KMeansResult zero;
    EXPECT_EQ(zero.avgClusterVariance(pts), 0.0);
    KMeansResult fitted;
    fitted.k = 1;
    EXPECT_EQ(fitted.avgClusterVariance(DenseMatrix()), 0.0);

    // An empty cluster contributes nothing: the average runs over
    // live clusters only, so it must not drag the mean toward zero
    // (nor divide by its zero population).
    KMeansResult r;
    r.k = 2;
    r.assignment = {0, 0, 0};
    r.clusterSize = {3, 0};
    r.centroids.reset(2, 2);
    double perPoint =
        (squaredDistance(pts.row(0), r.centroids.row(0), 2) +
         squaredDistance(pts.row(1), r.centroids.row(0), 2) +
         squaredDistance(pts.row(2), r.centroids.row(0), 2)) /
        3.0;
    EXPECT_DOUBLE_EQ(r.avgClusterVariance(pts), perPoint);
}

SimPointResult
weightedResult(const std::vector<double> &weights)
{
    SimPointResult r;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        SimPoint p;
        p.slice = static_cast<SliceIndex>(i);
        p.weight = weights[i];
        p.cluster = static_cast<u32>(i);
        r.points.push_back(p);
    }
    return r;
}

TEST(SimPointResult, TopByWeightQuantileBoundaries)
{
    SimPointResult r = weightedResult({0.5, 0.3, 0.2});

    // Exact hit: the cumulative weight equals quantile * total.
    EXPECT_EQ(r.topByWeight(0.8).size(), 2u);
    // Within the 1e-12 epsilon below the threshold: still a hit —
    // float noise in the weight sum must not drag in an extra point.
    EXPECT_EQ(r.topByWeight(0.8 + 1e-13).size(), 2u);
    // Clearly above the epsilon: the next point is required.
    EXPECT_EQ(r.topByWeight(0.8 + 1e-9).size(), 3u);
    // Degenerate quantiles.
    EXPECT_EQ(r.topByWeight(0.0).size(), 1u);
    EXPECT_EQ(r.topByWeight(1.0).size(), 3u);
    // No points -> no selection (and no crash).
    EXPECT_TRUE(SimPointResult().topByWeight(0.9).empty());
}

TEST(SimPointResult, TopByWeightTieOrderIsDeterministic)
{
    // Equal weights tie-break by ascending slice index, so the kept
    // prefix is stable across runs.
    SimPointResult r = weightedResult({0.25, 0.25, 0.25, 0.25});
    auto kept = r.topByWeight(0.5);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].slice, 0u);
    EXPECT_EQ(kept[1].slice, 1u);
}

} // namespace
} // namespace splab
