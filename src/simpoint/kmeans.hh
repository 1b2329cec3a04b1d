/**
 * @file
 * Lloyd's k-means with k-means++ seeding, the clustering engine of
 * the SimPoint methodology.
 *
 * Points live in a contiguous row-major DenseMatrix so the
 * nearest-centroid scans stream cache lines instead of chasing
 * per-row pointers.  The assignment pass and the restart loop run on
 * the global thread pool; per-chunk partial sums are reduced in
 * fixed chunk order, so fits are bit-identical at any SPLAB_THREADS.
 *
 * Triangle-inequality acceleration (SPLAB_KMEANS_ACCEL, default on):
 * Lloyd iterations keep one Hamerly-style lower bound per point on
 * the distance to its second-closest centroid, decayed each
 * iteration by the largest drift of any other centroid; the upper
 * bound is the incumbent's exact distance, recomputed every
 * iteration, so none is stored.  Points whose bounds are
 * inconclusive, the first iteration and the k-means++ seeding are
 * scored against a transposed tile of rows by a lane-parallel kernel
 * (DistanceTile) that reproduces squaredDistance's operation
 * sequence in every lane.  The whole-run slice assignment prunes
 * candidates through inter-centroid half-distances
 * (NearestCentroids).  The contract is *exact equality*, not
 * approximation: a centroid is skipped only when conservative bound
 * arithmetic (lower bounds deflated, upper bounds inflated by a
 * relative margin that dwarfs the distance kernel's rounding error)
 * proves the brute-force scan's strict-`<` comparison could not
 * have selected it, and every evaluated distance is the same double
 * the scalar kernel returns.  Assignments, tie-breaks, distortion,
 * and centroid bytes are therefore bit-identical to the brute-force
 * path at any SPLAB_THREADS, and cached artifact bytes never move
 * (no version-salt bump).  Work is tallied in the deterministic
 * counters kmeans.distances_computed / kmeans.distances_pruned /
 * kmeans.bound_fallbacks.
 */

#ifndef SPLAB_SIMPOINT_KMEANS_HH
#define SPLAB_SIMPOINT_KMEANS_HH

#include <vector>

#include "support/matrix.hh"
#include "support/types.hh"

namespace splab
{

/** Outcome of one k-means fit. */
struct KMeansResult
{
    u32 k = 0;
    std::vector<u32> assignment;  ///< point -> cluster
    DenseMatrix centroids;        ///< k rows of dim columns
    std::vector<u64> clusterSize;
    double distortion = 0.0; ///< sum of squared distances
    int iterations = 0;
    bool converged = false;

    /** Mean over clusters of the within-cluster mean squared
     *  distance (the paper's Figure 4 "variance"). */
    double avgClusterVariance(const DenseMatrix &points) const;
};

/** Squared Euclidean distance between two dense rows of length n. */
double squaredDistance(const double *a, const double *b,
                       std::size_t n);

/** Squared Euclidean distance between two dense vectors. */
double squaredDistance(const std::vector<double> &a,
                       const std::vector<double> &b);

/**
 * Rows of a matrix stored transposed for the tile distance kernel.
 * Rows are grouped in blocks of kBlockRows; inside a block each
 * column is a run of lanes, one per row.  The last block is only as
 * wide as its rows rounded up to kLanePad lanes.  Padding lanes are
 * zero; the kernel computes them but never writes them out.
 */
class DistanceTile
{
  public:
    static constexpr std::size_t kBlockRows = 16;
    static constexpr std::size_t kLanePad = 4;

    /** Rebuild from every row of @p m. */
    void assign(const DenseMatrix &m);

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }

    /** Lanes in the last, possibly partial, block (0 when the rows
     *  fill whole blocks). */
    std::size_t
    tailLanes() const
    {
        std::size_t rem = nRows % kBlockRows;
        return (rem + kLanePad - 1) / kLanePad * kLanePad;
    }

    /** Block storage: block b starts at b * kBlockRows * cols(). */
    const double *data() const { return buf.data() + offset; }

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    std::size_t offset = 0; ///< first element on a 64-byte boundary
    std::vector<double> buf;
};

/**
 * One build of the tile distance kernel.  distances() writes
 * out[r] = squaredDistance(row, tile row r) for r < tile.rows(),
 * bit for bit, and nothing past out[tile.rows() - 1].  Each lane
 * runs the scalar kernel's sequence (t = a[d] - b[d]; s += t * t,
 * d ascending, s from +0.0) with no fused multiply-add, so the lane
 * width never changes a result.  Swapping the operands only negates
 * t, so out[r] also equals squaredDistance(tile row r, row).
 */
struct TileKernel
{
    const char *name; ///< "sse2", "avx2" or "generic"
    void (*distances)(const double *row, const DistanceTile &tile,
                      double *out);
};

/** Every kernel build this host can run, baseline first. */
std::vector<TileKernel> supportedTileKernels();

/** The widest supported build; picked once per process. */
const TileKernel &activeTileKernel();

/**
 * Tally of nearest-centroid kernel work.  Deterministic: every field
 * is a pure function of the data and the bound state, never of
 * scheduling, so totals are identical at any SPLAB_THREADS.
 */
struct DistanceKernelStats
{
    u64 computed = 0;  ///< exact squaredDistance evaluations
    u64 pruned = 0;    ///< candidate distances skipped via bounds
    u64 fallbacks = 0; ///< inconclusive point bounds -> full scan

    void
    merge(const DistanceKernelStats &o)
    {
        computed += o.computed;
        pruned += o.pruned;
        fallbacks += o.fallbacks;
    }
};

/** Flush @p s into the kmeans.distances_computed /
 *  kmeans.distances_pruned / kmeans.bound_fallbacks counters. */
void accountDistanceKernel(const DistanceKernelStats &s);

/**
 * Pruned nearest-centroid search over a FIXED centroid set (the
 * whole-run slice assignment of SimPoint finalize).  Construction
 * precomputes conservative lower bounds on half the inter-centroid
 * distances; nearest() then skips a candidate c only when half the
 * distance from the current best centroid to c provably exceeds the
 * distance to the current best — by the triangle inequality c is
 * then strictly farther, so the brute-force strict-`<` scan could
 * not have picked it.  Results (index and exact squared distance)
 * are bit-identical to the brute scan whether pruning is enabled or
 * not.
 */
class NearestCentroids
{
  public:
    /** @param centroids fixed centroid rows (must outlive this)
     *  @param accel     false = plain brute scans (no table)
     *  @param stats     when non-null, receives the table build's
     *                   distance evaluations */
    NearestCentroids(const DenseMatrix &centroids, bool accel,
                     DistanceKernelStats *stats = nullptr);

    /** Nearest centroid of @p p (dim = centroids.cols()) under the
     *  brute scan's index-order strict-`<` semantics.  @p bestD2
     *  receives the exact squared distance to the winner. */
    u32 nearest(const double *p, double &bestD2,
                DistanceKernelStats &stats) const;

    bool pruning() const { return usePruning; }

    /** Conservative lower bound on half the distance from centroid
     *  @p a to centroid @p b (distance space, not squared). */
    double
    halfLowAt(u32 a, u32 b) const
    {
        return halfLow[a * k + b];
    }

  private:
    const DenseMatrix &cents;
    u32 k = 0;
    std::vector<double> halfLow; ///< k*k half-distance lower bounds
    bool usePruning = false;
};

/**
 * Fit k-means to @p points.
 *
 * @param points   dense row-major point matrix
 * @param k        number of clusters (clamped to points.rows())
 * @param seed     seeding determinism
 * @param maxIters Lloyd iteration cap
 */
KMeansResult kmeansFit(const DenseMatrix &points, u32 k, u64 seed,
                       int maxIters = 40);

/**
 * Best of @p restarts fits (lowest distortion, earliest restart on
 * ties), varying the seed.  Restarts run in parallel.
 */
KMeansResult kmeansBestOf(const DenseMatrix &points, u32 k, u64 seed,
                          int restarts, int maxIters = 40);

/// @name Row-vector conveniences (tests, benches, external callers)
/// @{

inline KMeansResult
kmeansFit(const std::vector<std::vector<double>> &points, u32 k,
          u64 seed, int maxIters = 40)
{
    return kmeansFit(DenseMatrix::fromRows(points), k, seed,
                     maxIters);
}

inline KMeansResult
kmeansBestOf(const std::vector<std::vector<double>> &points, u32 k,
             u64 seed, int restarts, int maxIters = 40)
{
    return kmeansBestOf(DenseMatrix::fromRows(points), k, seed,
                        restarts, maxIters);
}

/// @}

} // namespace splab

#endif // SPLAB_SIMPOINT_KMEANS_HH
