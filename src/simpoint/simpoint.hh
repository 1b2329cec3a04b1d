/**
 * @file
 * SimPoint selection: from per-slice BBVs to weighted simulation
 * points.
 *
 * Pipeline (SimPoint 3.0): normalize BBVs -> random-project to 15
 * dims -> k-means for k = 1..MaxK (sub-sampling large runs) -> BIC
 * model selection -> for the chosen clustering, emit one simulation
 * point per cluster (the slice nearest the centroid) with weight
 * proportional to the cluster population.
 */

#ifndef SPLAB_SIMPOINT_SIMPOINT_HH
#define SPLAB_SIMPOINT_SIMPOINT_HH

#include <vector>

#include "bbv.hh"
#include "bic.hh"
#include "projection.hh"
#include "support/serialize.hh"

namespace splab
{

/** Knobs of the SimPoint methodology. */
struct SimPointConfig
{
    /** Maximum number of clusters (the paper settles on 35). */
    u32 maxK = 35;
    /** Slice length in model instructions (10,000 model instructions
     *  correspond to the paper's 30M-instruction slices). */
    ICount sliceInstrs = 10000;
    /** Random-projection dimensionality (SimPoint default 15). */
    u32 projectionDim = 15;
    /** Range-normalized BIC threshold for picking k. */
    double bicFraction = 0.9;
    /** k-means restarts per k. */
    int restarts = 2;
    /** Lloyd iteration cap. */
    int maxIters = 40;
    /** Cluster on at most this many slices (strided sub-sample). */
    u32 sampleCap = 3000;
    /**
     * Post-selection merge of overlapping clusters: clusters i, j
     * merge when the squared distance between their centroids is
     * below mergeThreshold * (var_i + var_j).  This undoes the
     * well-known BIC pathology of carving one wide, highly-populated
     * cluster (a dominant program phase) into slivers; genuinely
     * distinct phases sit many variances apart and never merge.
     * 0 disables.
     */
    double mergeThreshold = 0.6;
    /** Determinism seed for projection/clustering. */
    u64 seed = 42;

    u64 contentHash() const;
};

/** One simulation point. */
struct SimPoint
{
    SliceIndex slice = 0;  ///< representative slice index
    double weight = 0.0;   ///< cluster share of the whole run
    u32 cluster = 0;
    u64 clusterSize = 0;   ///< slices in the cluster
    double variance = 0.0; ///< mean sq. distance within the cluster
};

/** One entry of the k sweep (drives Fig. 4 and diagnostics). */
struct KSweepEntry
{
    u32 k = 0;
    double bic = 0.0;
    double distortion = 0.0;
    double avgClusterVariance = 0.0;
};

/** Complete outcome of SimPoint selection for one run. */
struct SimPointResult
{
    std::vector<SimPoint> points;    ///< one per non-empty cluster
    u32 chosenK = 0;                 ///< clusters picked by BIC
    u64 totalSlices = 0;
    ICount sliceInstrs = 0;
    std::vector<u32> sliceToCluster; ///< full per-slice assignment
    std::vector<KSweepEntry> sweep;  ///< per-k diagnostics

    /** Sum of point weights (should be ~1). */
    double totalWeight() const;

    /** Points sorted by descending weight. */
    std::vector<SimPoint> byDescendingWeight() const;

    /**
     * The paper's percentile reduction: smallest set of heaviest
     * points whose cumulative weight reaches @p quantile (0.9 for
     * "Reduced Regional").  Weights are kept unnormalized; weighted
     * aggregation renormalizes.
     */
    std::vector<SimPoint> topByWeight(double quantile) const;
};

/**
 * Run the full SimPoint selection over per-slice BBVs.
 *
 * @param bbvs one BBV per slice, in slice order
 * @param cfg  methodology knobs
 */
SimPointResult pickSimPoints(const std::vector<FrequencyVector> &bbvs,
                             const SimPointConfig &cfg);

/// @name SimPointResult (de)serialization for the artifact cache
/// @{
void serializeSimPoints(ByteWriter &w, const SimPointResult &r);
SimPointResult deserializeSimPoints(ByteReader &r);
/// @}

} // namespace splab

#endif // SPLAB_SIMPOINT_SIMPOINT_HH
