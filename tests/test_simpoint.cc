/**
 * @file
 * Unit tests for the SimPoint machinery: BBVs, projection, k-means,
 * BIC and the end-to-end selector.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "simpoint/simpoint.hh"
#include "support/rng.hh"

namespace splab
{
namespace
{

TEST(Bbv, AccumulatorHarvestsSortedSparse)
{
    BbvAccumulator acc(16);
    acc.add(5, 100);
    acc.add(2, 50);
    acc.add(5, 25);
    FrequencyVector v = acc.harvest();
    ASSERT_EQ(v.entries.size(), 2u);
    EXPECT_EQ(v.entries[0].block, 2u);
    EXPECT_FLOAT_EQ(v.entries[0].weight, 50.0f);
    EXPECT_EQ(v.entries[1].block, 5u);
    EXPECT_FLOAT_EQ(v.entries[1].weight, 125.0f);
    // Harvest resets the scratch.
    EXPECT_TRUE(acc.empty());
    acc.add(5, 7);
    FrequencyVector w = acc.harvest();
    ASSERT_EQ(w.entries.size(), 1u);
    EXPECT_FLOAT_EQ(w.entries[0].weight, 7.0f);
}

TEST(Bbv, NormalizeMakesUnitL1)
{
    FrequencyVector v;
    v.entries = {{0, 30.0f}, {3, 70.0f}};
    v.normalize();
    EXPECT_NEAR(v.l1Norm(), 1.0, 1e-6);
    EXPECT_NEAR(v.entries[1].weight, 0.7, 1e-6);
}

TEST(Projection, DeterministicAndLinearInWeight)
{
    RandomProjection p(15, 99);
    FrequencyVector v;
    v.entries = {{1, 1.0f}, {7, 2.0f}};
    std::vector<double> a, b;
    p.project(v, a);
    p.project(v, b);
    EXPECT_EQ(a, b);

    FrequencyVector v2;
    v2.entries = {{1, 2.0f}, {7, 4.0f}};
    p.project(v2, b);
    for (u32 d = 0; d < 15; ++d)
        EXPECT_NEAR(b[d], 2.0 * a[d], 1e-9);
}

TEST(Projection, PreservesRelativeDistances)
{
    // Two far-apart groups of sparse vectors must stay far apart
    // relative to within-group distances after projection.
    RandomProjection p(15, 5);
    Rng rng(3);
    auto makeVec = [&](u32 base) {
        FrequencyVector v;
        for (u32 i = 0; i < 10; ++i)
            v.entries.push_back(
                {base + i,
                 static_cast<float>(0.1 * (1.0 + 0.05 *
                                           rng.gaussian()))});
        v.normalize();
        return v;
    };
    std::vector<std::vector<double>> g1, g2;
    for (int i = 0; i < 10; ++i) {
        std::vector<double> out;
        p.project(makeVec(0), out);
        g1.push_back(out);
        p.project(makeVec(100), out);
        g2.push_back(out);
    }
    double within = squaredDistance(g1[0], g1[1]);
    double across = squaredDistance(g1[0], g2[0]);
    EXPECT_GT(across, 10.0 * within);
}

std::vector<std::vector<double>>
gaussianBlobs(u32 clusters, u32 perCluster, double spread, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> pts;
    for (u32 c = 0; c < clusters; ++c) {
        std::vector<double> centre(8);
        for (auto &x : centre)
            x = rng.uniform(-10.0, 10.0);
        for (u32 i = 0; i < perCluster; ++i) {
            std::vector<double> p(8);
            for (std::size_t d = 0; d < 8; ++d)
                p[d] = centre[d] + spread * rng.gaussian();
            pts.push_back(std::move(p));
        }
    }
    return pts;
}

TEST(KMeans, RecoversWellSeparatedBlobs)
{
    auto pts = gaussianBlobs(4, 50, 0.1, 17);
    KMeansResult r = kmeansBestOf(pts, 4, 1, 3);
    EXPECT_TRUE(r.converged);
    // Each true blob (50 consecutive points) maps to one cluster.
    for (u32 blob = 0; blob < 4; ++blob) {
        u32 c0 = r.assignment[blob * 50];
        for (u32 i = 0; i < 50; ++i)
            EXPECT_EQ(r.assignment[blob * 50 + i], c0);
    }
    for (u32 c = 0; c < 4; ++c)
        EXPECT_EQ(r.clusterSize[c], 50u);
}

TEST(KMeans, DistortionDecreasesWithK)
{
    auto pts = gaussianBlobs(6, 40, 0.8, 23);
    double prev = -1.0;
    for (u32 k : {1u, 2u, 4u, 8u}) {
        KMeansResult r = kmeansBestOf(pts, k, 1, 3);
        if (prev >= 0.0) {
            EXPECT_LT(r.distortion, prev);
        }
        prev = r.distortion;
    }
}

TEST(KMeans, KClampedToPointCount)
{
    auto pts = gaussianBlobs(1, 3, 0.1, 5);
    KMeansResult r = kmeansFit(pts, 10, 1);
    EXPECT_EQ(r.k, 3u);
}

TEST(KMeans, AssignmentsMatchNearestCentroid)
{
    auto pts = gaussianBlobs(3, 30, 1.0, 29);
    KMeansResult r = kmeansBestOf(pts, 3, 1, 2);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        double assigned = squaredDistance(
            pts[i].data(), r.centroids.row(r.assignment[i]),
            r.centroids.cols());
        for (u32 c = 0; c < r.k; ++c)
            EXPECT_LE(assigned,
                      squaredDistance(pts[i].data(),
                                      r.centroids.row(c),
                                      r.centroids.cols()) +
                          1e-9);
    }
}

TEST(Bic, PeaksNearTrueClusterCount)
{
    auto pts = gaussianBlobs(5, 60, 0.15, 31);
    std::vector<double> scores;
    u32 bestK = 0;
    double bestScore = -1e300;
    for (u32 k = 1; k <= 10; ++k) {
        KMeansResult r = kmeansBestOf(pts, k, 7, 3);
        double s = bicScore(r, pts);
        scores.push_back(s);
        if (s > bestScore) {
            bestScore = s;
            bestK = k;
        }
    }
    EXPECT_GE(bestK, 4u);
    EXPECT_LE(bestK, 7u);
    // The fraction rule should not pick fewer clusters than exist.
    std::size_t idx = pickByBicFraction(scores, 0.9);
    EXPECT_GE(idx + 1, 4u);
}

TEST(Bic, FractionRulePicksSmallestQualifying)
{
    std::vector<double> scores = {0.0, 50.0, 95.0, 99.0, 100.0};
    EXPECT_EQ(pickByBicFraction(scores, 0.9), 2u);
    EXPECT_EQ(pickByBicFraction(scores, 1.0), 4u);
    EXPECT_EQ(pickByBicFraction({5.0, 5.0}, 0.9), 0u); // flat
}

/** Synthesize per-slice BBVs with a known phase structure. */
std::vector<FrequencyVector>
phasedBbvs(const std::vector<double> &weights, u32 slices, u64 seed,
           double noise = 0.05)
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
            double w = 1.0 + noise * rng.gaussian();
            v.entries.push_back(
                {static_cast<u32>(phase * 12 + b),
                 static_cast<float>(w < 0.01 ? 0.01 : w)});
        }
        out.push_back(std::move(v));
    }
    return out;
}

TEST(SimPointSelect, FindsThePhases)
{
    auto bbvs = phasedBbvs({0.4, 0.3, 0.2, 0.1}, 800, 77);
    SimPointConfig cfg;
    cfg.maxK = 10;
    cfg.sliceInstrs = 10000;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    EXPECT_EQ(r.points.size(), 4u);
    EXPECT_NEAR(r.totalWeight(), 1.0, 1e-9);
    // Weights recover the schedule shares.
    auto sorted = r.byDescendingWeight();
    EXPECT_NEAR(sorted[0].weight, 0.4, 0.06);
    EXPECT_NEAR(sorted[3].weight, 0.1, 0.04);
}

TEST(SimPointSelect, WeightsSumToOneAndSlicesValid)
{
    auto bbvs = phasedBbvs({0.5, 0.25, 0.25}, 600, 13);
    SimPointConfig cfg;
    cfg.maxK = 8;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    EXPECT_NEAR(r.totalWeight(), 1.0, 1e-9);
    for (const auto &p : r.points) {
        EXPECT_LT(p.slice, bbvs.size());
        EXPECT_GT(p.weight, 0.0);
        EXPECT_EQ(p.clusterSize,
                  static_cast<u64>(p.weight * 600.0 + 0.5));
    }
    EXPECT_EQ(r.sliceToCluster.size(), bbvs.size());
}

TEST(SimPointSelect, RepresentativeBelongsToItsCluster)
{
    auto bbvs = phasedBbvs({0.6, 0.4}, 300, 3);
    SimPointConfig cfg;
    cfg.maxK = 6;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    for (const auto &p : r.points)
        EXPECT_EQ(r.sliceToCluster[p.slice], p.cluster);
}

TEST(SimPointSelect, VarianceDropsWithMoreClusters)
{
    // Fig. 4's monotone trend: fewer clusters inflate the
    // within-cluster variance.  The sweep's entry for k is the
    // best-of-restarts fit at that k, as Fig. 4 reads it.
    auto bbvs = phasedBbvs({0.3, 0.3, 0.2, 0.1, 0.1}, 600, 21, 0.1);
    SimPointConfig cfg;
    cfg.maxK = 5;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    ASSERT_EQ(r.sweep.size(), 5u);
    ASSERT_EQ(r.sweep[1].k, 2u);
    ASSERT_EQ(r.sweep[4].k, 5u);
    double v2 = r.sweep[1].avgClusterVariance;
    double v5 = r.sweep[4].avgClusterVariance;
    EXPECT_GT(v2, v5 * 2.0);
}

TEST(SimPointSelect, TopByWeightCoversQuantile)
{
    auto bbvs = phasedBbvs({0.5, 0.2, 0.1, 0.1, 0.05, 0.05}, 900, 41);
    SimPointConfig cfg;
    cfg.maxK = 12;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    auto reduced = r.topByWeight(0.9);
    double cum = 0.0;
    for (const auto &p : reduced)
        cum += p.weight;
    EXPECT_GE(cum, 0.9 - 1e-9);
    EXPECT_LE(reduced.size(), r.points.size());
    // Dropping the lightest point must fall below the quantile.
    if (reduced.size() > 1) {
        EXPECT_LT(cum - reduced.back().weight, 0.9);
    }
}

TEST(SimPointSelect, SweepCoversOneToMaxK)
{
    auto bbvs = phasedBbvs({0.7, 0.3}, 200, 55);
    SimPointConfig cfg;
    cfg.maxK = 7;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    ASSERT_EQ(r.sweep.size(), 7u);
    for (u32 i = 0; i < 7; ++i)
        EXPECT_EQ(r.sweep[i].k, i + 1);
    // Distortion is nonincreasing in k (best-of restarts, well
    // separated data).
    for (u32 i = 1; i < 7; ++i)
        EXPECT_LE(r.sweep[i].distortion,
                  r.sweep[i - 1].distortion * 1.05);
}

TEST(SimPointSelect, ZeroSampleCapClampsToOneSlice)
{
    // sampleCap = 0 used to produce an empty strided sub-sample and
    // trip the "kmeans: no points" assert; it now clamps to one
    // representative slice and degenerates to a single-cluster
    // selection instead of aborting.
    auto bbvs = phasedBbvs({0.7, 0.3}, 120, 61);
    SimPointConfig cfg;
    cfg.maxK = 5;
    cfg.sampleCap = 0;
    SimPointResult r = pickSimPoints(bbvs, cfg);
    ASSERT_EQ(r.points.size(), 1u);
    EXPECT_NEAR(r.totalWeight(), 1.0, 1e-9);
    EXPECT_EQ(r.sliceToCluster.size(), bbvs.size());
}

TEST(SimPointConfig, HashChangesWithKnobs)
{
    SimPointConfig a, b;
    EXPECT_EQ(a.contentHash(), b.contentHash());
    b.maxK = 20;
    EXPECT_NE(a.contentHash(), b.contentHash());
    SimPointConfig c;
    c.sliceInstrs = 20000;
    EXPECT_NE(a.contentHash(), c.contentHash());
}

} // namespace
} // namespace splab
