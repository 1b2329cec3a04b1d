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
 * Block-kernel acceleration: given a tile, the points are stored
 * once transposed (DistanceTile) and every nearest-centroid
 * assignment -- each Lloyd pass after the first and the whole-run
 * slice assignment -- scores blocks of 16 points at once
 * (TileKernel::rescore).  Lloyd's first assignment is no scan at
 * all: the k-means++ seeding already scored every placed centroid
 * against every point, so it keeps the running argmin and adds one
 * pass for the last centroid.  Each fit keeps a table of exact
 * point-centroid distances, and a later pass rescores only the
 * centroids whose bytes moved; it rebuilds the centroid sums only of
 * clusters whose membership changed (TileKernel::clusterSums).
 * The contract is *exact equality*: every lane repeats the scalar
 * squaredDistance sequence and the scalar scan's index-order
 * strict-`<` argmin, an unchanged centroid's distances are the ones
 * a rescan would compute, and an unchanged membership's sums the
 * ones a rebuild would, so assignments, tie-breaks, distortion and
 * centroid bytes are bit-identical to the scalar path at any
 * SPLAB_THREADS, and cached artifact bytes never move (no
 * version-salt bump).  A null tile runs the scalar scans and full
 * sums: the reference the kernels are tested against.  The
 * deterministic counter kmeans.distances_computed tallies the work.
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
 * Rows of a matrix stored transposed for the tile kernels.  Rows are
 * grouped in blocks of kBlockRows; inside a block each column is a
 * run of lanes, one per row.  The last block is only as wide as its
 * rows rounded up to kLanePad lanes, so it holds whole AVX-512
 * vectors.  Padding lanes are zero; the kernels compute them but
 * never write them out.
 */
class DistanceTile
{
  public:
    static constexpr std::size_t kBlockRows = 16;
    static constexpr std::size_t kLanePad = 8;

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
 * One build of the tile kernels.  Each lane runs the scalar kernel's
 * sequence (t = a[d] - b[d]; s += t * t, d ascending, s from +0.0)
 * with no fused multiply-add, so the lane width never changes a
 * result.  Swapping the operands only negates t, so either operand
 * order gives squaredDistance's bits.
 *
 * distances() writes out[r] = squaredDistance(row, tile row r) for
 * r < tile.rows() and nothing past out[tile.rows() - 1].
 *
 * rescore() works on a distance table of tile rows [begin, end):
 * block b of kBlockRows rows (counted from @p begin) keeps centroid
 * c's lanes at table[(b * k + c) * kBlockRows], k = cents.rows().
 * It first writes, for each of the @p nMoved centroids listed in
 * @p moved, its distance to every row of the range into the table.
 * Then it takes each row's winner over its whole table row, exactly
 * as the brute scan would: from (0, DBL_MAX), centroids in index
 * order, a centroid taken only when its distance is strictly
 * smaller, so the lowest index wins a tie and a row whose distances
 * all overflow keeps (0, DBL_MAX).  Row begin + j gets idx[j] and
 * dist[j].  The table slots of unlisted centroids must already hold
 * their exact distances.  @p begin is a multiple of kBlockRows;
 * @p end is one too, or tile.rows().  Nothing is written past
 * idx[end - begin - 1], dist[end - begin - 1] or the range's table.
 *
 * clusterSums() sets, for every cluster c < k with dirty[c], row c
 * of the row-major k x points.cols() matrix @p sums to the sum of
 * the rows i in [begin, end) with assign[i - begin] == c, added in
 * index order from +0.0 (s[d] += p[d]); other rows are untouched.
 */
struct TileKernel
{
    const char *name; ///< "sse2", "avx2", "avx512" or "generic"
    void (*distances)(const double *row, const DistanceTile &tile,
                      double *out);
    void (*rescore)(const DistanceTile &tile, std::size_t begin,
                    std::size_t end, const DenseMatrix &cents,
                    const u32 *moved, std::size_t nMoved, double *table,
                    u32 *idx, double *dist);
    void (*clusterSums)(const DenseMatrix &points, std::size_t begin,
                        std::size_t end, const u32 *assign,
                        const u8 *dirty, std::size_t k, double *sums);
};

/** Every kernel build this host can run, baseline first. */
std::vector<TileKernel> supportedTileKernels();

/** The widest supported build; picked once per process. */
const TileKernel &activeTileKernel();

/**
 * Nearest centroid of rows [begin, end) of @p points under the brute
 * scan's rule (see TileKernel::rescore), written to idx[j] and
 * dist[j] for row begin + j.  With @p tile (the tile of @p points)
 * the active rescore kernel scores every centroid, one block at a
 * time through a one-block scratch table; without, the scalar scan,
 * which is the reference the kernels are tested against.
 */
void assignNearest(const DenseMatrix &points, const DistanceTile *tile,
                   const DenseMatrix &cents, std::size_t begin,
                   std::size_t end, u32 *idx, double *dist);

/** Add @p computed exact distance evaluations to the
 *  kmeans.distances_computed counter. */
void accountDistances(u64 computed);

/**
 * Fit k-means to @p points.
 *
 * @param points   dense row-major point matrix
 * @param tile     the tile of @p points, for the block kernels; null
 *                 runs the scalar scans (the reference)
 * @param k        number of clusters (clamped to points.rows())
 * @param seed     seeding determinism
 * @param maxIters Lloyd iteration cap
 */
KMeansResult kmeansFit(const DenseMatrix &points,
                       const DistanceTile *tile, u32 k, u64 seed,
                       int maxIters = 40);

/**
 * Best of @p restarts fits (lowest distortion, earliest restart on
 * ties), varying the seed.  Restarts run in parallel and share
 * @p tile (null: the scalar reference).
 */
KMeansResult kmeansBestOf(const DenseMatrix &points,
                          const DistanceTile *tile, u32 k, u64 seed,
                          int restarts, int maxIters = 40);

/// @name Conveniences that build the tile and run the block kernels
/// @{

KMeansResult kmeansFit(const DenseMatrix &points, u32 k, u64 seed,
                       int maxIters = 40);

KMeansResult kmeansBestOf(const DenseMatrix &points, u32 k, u64 seed,
                          int restarts, int maxIters = 40);

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
