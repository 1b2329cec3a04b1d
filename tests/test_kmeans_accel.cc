/**
 * @file
 * Tests for the accelerated clustering kernels: triangle-inequality
 * bounds and the lane-parallel tile distance kernel.
 *
 * The acceleration contract is *exact equality*, not approximation:
 * with SPLAB_KMEANS_ACCEL on, every fit, nearest-centroid scan and
 * whole-pipeline SimPoint selection must be bit-identical to the
 * brute-force path at any SPLAB_THREADS, and every build of the tile
 * kernel must return squaredDistance's doubles — so these tests
 * compare doubles with memcmp, not EXPECT_NEAR.  The work tallies
 * (kmeans.distances_computed / distances_pruned / bound_fallbacks)
 * are deterministic counters and are asserted to be thread-count
 * invariant as well.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/counters.hh"
#include "simpoint/simpoint.hh"
#include "support/env.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"

namespace splab
{
namespace
{

/** Scoped SPLAB_KMEANS_ACCEL setter; restores the default (on). */
class AccelGuard
{
  public:
    explicit AccelGuard(bool on)
    {
        ::setenv("SPLAB_KMEANS_ACCEL", on ? "1" : "0", 1);
    }

    ~AccelGuard() { ::setenv("SPLAB_KMEANS_ACCEL", "1", 1); }
};

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

struct KernelDeltas
{
    u64 computed = 0;
    u64 pruned = 0;
    u64 fallbacks = 0;
};

/** Counter deltas of the kmeans.* distance-kernel family across
 *  @p body (the counters are process-global and monotonic). */
template <typename Fn>
KernelDeltas
kernelDeltas(Fn &&body)
{
    obs::Counter &c = obs::counter("kmeans.distances_computed");
    obs::Counter &p = obs::counter("kmeans.distances_pruned");
    obs::Counter &f = obs::counter("kmeans.bound_fallbacks");
    u64 c0 = c.value(), p0 = p.value(), f0 = f.value();
    body();
    return {c.value() - c0, p.value() - p0, f.value() - f0};
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
            KMeansResult brute, accel;
            {
                AccelGuard off(false);
                brute = kmeansFit(pts, k, 7);
            }
            {
                AccelGuard on(true);
                accel = kmeansFit(pts, k, 7);
            }
            SCOPED_TRACE("n=" + std::to_string(pts.size()) +
                         " k=" + std::to_string(k));
            expectBitIdentical(brute, accel);
        }
    }
}

TEST(KMeansAccel, BestOfBitIdentical)
{
    auto pts = gaussianBlobs(4, 80, 0.6, 19);
    KMeansResult brute, accel;
    {
        AccelGuard off(false);
        brute = kmeansBestOf(pts, 6, 3, 4);
    }
    {
        AccelGuard on(true);
        accel = kmeansBestOf(pts, 6, 3, 4);
    }
    expectBitIdentical(brute, accel);
}

TEST(KMeansAccel, DuplicatePointsAndTiesBitIdentical)
{
    // Worst case for tie-breaking: many exactly coincident points
    // and a symmetric grid where several centroids end up exactly
    // equidistant from a point.  The brute scan resolves every tie
    // by lowest index; pruning must never change that.
    std::vector<std::vector<double>> pts;
    for (int rep = 0; rep < 20; ++rep)
        for (double x : {-1.0, 0.0, 1.0})
            for (double y : {-1.0, 0.0, 1.0})
                pts.push_back({x, y});
    for (u32 k : {2u, 3u, 4u, 9u}) {
        KMeansResult brute, accel;
        {
            AccelGuard off(false);
            brute = kmeansFit(pts, k, 1);
        }
        {
            AccelGuard on(true);
            accel = kmeansFit(pts, k, 1);
        }
        SCOPED_TRACE("k=" + std::to_string(k));
        expectBitIdentical(brute, accel);
    }
}

TEST(KMeansAccel, PruningEngagesAndSavesWork)
{
    auto pts = gaussianBlobs(8, 100, 0.1, 29);
    KernelDeltas brute, accel;
    {
        AccelGuard off(false);
        brute = kernelDeltas([&] { kmeansFit(pts, 16, 5); });
    }
    {
        AccelGuard on(true);
        accel = kernelDeltas([&] { kmeansFit(pts, 16, 5); });
    }
    // Brute force never prunes and never consults bounds.
    EXPECT_EQ(brute.pruned, 0u);
    EXPECT_EQ(brute.fallbacks, 0u);
    // The accelerated fit must actually skip work, and skip more
    // than its bound-maintenance overhead costs.
    EXPECT_GT(accel.pruned, 0u);
    EXPECT_LT(accel.computed, brute.computed);
}

TEST(KMeansAccel, KnobReReadPerFit)
{
    // The env knob is consulted per fit, so one process can compare
    // both paths without re-exec.
    auto pts = gaussianBlobs(4, 50, 0.2, 37);
    {
        AccelGuard off(false);
        KernelDeltas d = kernelDeltas([&] { kmeansFit(pts, 8, 2); });
        EXPECT_EQ(d.pruned, 0u);
    }
    {
        AccelGuard on(true);
        KernelDeltas d = kernelDeltas([&] { kmeansFit(pts, 8, 2); });
        EXPECT_GT(d.pruned, 0u);
    }
}

TEST(KMeansAccel, CountersThreadCountInvariant)
{
    // The work tallies are pure functions of the data and the bound
    // state — never of scheduling — so they are part of the
    // deterministic manifest section.  Assert the deltas (and the
    // fit bytes) are identical at 1, 2 and 8 threads.
    auto pts = gaussianBlobs(5, 120, 0.3, 43);
    AccelGuard on(true);
    KMeansResult ref;
    KernelDeltas refDeltas;
    bool first = true;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadsGuard tg(threads);
        KMeansResult r;
        KernelDeltas d =
            kernelDeltas([&] { r = kmeansFit(pts, 10, 9); });
        if (first) {
            ref = r;
            refDeltas = d;
            first = false;
            continue;
        }
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectBitIdentical(ref, r);
        EXPECT_EQ(d.computed, refDeltas.computed);
        EXPECT_EQ(d.pruned, refDeltas.pruned);
        EXPECT_EQ(d.fallbacks, refDeltas.fallbacks);
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

TEST(NearestCentroids, MatchesBruteScanExactly)
{
    Rng rng(51);
    DenseMatrix cents(12, 6);
    for (std::size_t r = 0; r < cents.rows(); ++r)
        for (std::size_t c = 0; c < cents.cols(); ++c)
            cents.at(r, c) = rng.uniform(-5.0, 5.0);

    DistanceKernelStats stats;
    NearestCentroids pruned(cents, true, &stats);
    NearestCentroids brute(cents, false);
    EXPECT_TRUE(pruned.pruning());
    EXPECT_FALSE(brute.pruning());

    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> p(6);
        for (auto &x : p)
            x = rng.uniform(-6.0, 6.0);
        DistanceKernelStats sp, sb;
        double dPruned = 0.0, dBrute = 0.0;
        u32 cPruned = pruned.nearest(p.data(), dPruned, sp);
        u32 cBrute = brute.nearest(p.data(), dBrute, sb);
        EXPECT_EQ(cPruned, cBrute);
        EXPECT_EQ(std::memcmp(&dPruned, &dBrute, sizeof(double)), 0);
        // The brute scan computes every candidate.
        EXPECT_EQ(sb.computed, cents.rows());
        EXPECT_EQ(sp.computed + sp.pruned, cents.rows());
    }
}

TEST(NearestCentroids, SingleCentroidNeverPrunes)
{
    DenseMatrix cents(1, 4);
    NearestCentroids nc(cents, true);
    EXPECT_FALSE(nc.pruning());
    std::vector<double> p = {1.0, 2.0, 3.0, 4.0};
    DistanceKernelStats st;
    double d = 0.0;
    EXPECT_EQ(nc.nearest(p.data(), d, st), 0u);
    EXPECT_EQ(d, 30.0);
    EXPECT_EQ(st.pruned, 0u);
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
selectionBytes(const std::vector<FrequencyVector> &bbvs,
               const SimPointConfig &cfg)
{
    ByteWriter w;
    serializeSimPoints(w, pickSimPoints(bbvs, cfg));
    return w.bytes();
}

TEST(SimPointAccel, WholePipelineBytesInvariant)
{
    // End-to-end SimPoint selection — sub-sampled k-sweep, BIC pick,
    // whole-run slice assignment — serialized and byte-compared:
    // accel on/off and every thread count must agree exactly, which
    // is what keeps cached artifact bytes stable with no salt bump.
    auto bbvs = phasedBbvs({0.4, 0.3, 0.2, 0.1}, 500, 67);
    SimPointConfig cfg;
    cfg.maxK = 10;
    std::vector<u8> ref;
    {
        AccelGuard off(false);
        ref = selectionBytes(bbvs, cfg);
    }
    ASSERT_FALSE(ref.empty());
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadsGuard tg(threads);
        AccelGuard on(true);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(selectionBytes(bbvs, cfg), ref);
    }
}

TEST(SimPointAccel, PipelinePruningEngages)
{
    auto bbvs = phasedBbvs({0.5, 0.3, 0.2}, 600, 71);
    SimPointConfig cfg;
    cfg.maxK = 12;
    AccelGuard on(true);
    KernelDeltas d =
        kernelDeltas([&] { pickSimPoints(bbvs, cfg); });
    EXPECT_GT(d.pruned, 0u);
    EXPECT_GT(d.computed, 0u);
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
