#include "kmeans.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "obs/counters.hh"
#include "obs/trace.hh"
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

constexpr double kMaxD = std::numeric_limits<double>::max();

/**
 * The tile distance kernel, written once over a GCC vector type V of
 * L doubles.  A block of rows keeps one accumulator per vector G, so
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
    constexpr std::size_t P = DistanceTile::kLanePad;
    static_assert(P % L == 0, "tail blocks must hold whole vectors");
    const std::size_t dim = tile.cols();
    const std::size_t n = tile.rows();
    const double *blk = tile.data();
    std::size_t r = 0;
    for (; r + B <= n; r += B, blk += B * dim)
        blockDistances<V>(row, blk, dim, out + r, B,
                          std::make_index_sequence<B / L>());
    if (tile.tailLanes() == P)
        blockDistances<V>(row, blk, dim, out + r, n - r,
                          std::make_index_sequence<P / L>());
    else if (r < n)
        blockDistances<V>(row, blk, dim, out + r, n - r,
                          std::make_index_sequence<B / L>());
}

/** Accumulators the rescoring kernel keeps in flight: a block of NG
 *  vectors scores kInFlight / NG centroids at a time. */
constexpr std::size_t kInFlight = 8;

/**
 * One step of the rescoring kernel: the centroids moved[0],
 * moved[1], ... scored against a block of NG vectors of points, each
 * distance stored in its slot of the block's table (centroid c's
 * lanes start at c * kBlockRows).  Accumulator I holds centroid
 * moved[I / NG] against vector I % NG.
 */
template <typename V, std::size_t NG, std::size_t... I>
[[gnu::always_inline]] inline void
scoreMoved(const double *blk, std::size_t dim, const DenseMatrix &cents,
           const u32 *moved, double *blockTable,
           std::index_sequence<I...>)
{
    constexpr std::size_t L = sizeof(V) / sizeof(double);
    constexpr std::size_t B = DistanceTile::kBlockRows;
    const double *cent[sizeof...(I)] = {cents.row(moved[I / NG])...};
    V acc[sizeof...(I)] = {};
    for (std::size_t d = 0; d < dim; ++d) {
        const double *col = blk + d * NG * L;
        (
            [&] {
                V p;
                std::memcpy(&p, col + I % NG * L, sizeof p);
                V t = p - cent[I][d];
                acc[I] += t * t;
            }(),
            ...);
    }
    (
        [&] {
            std::memcpy(blockTable + moved[I / NG] * B + I % NG * L,
                        &acc[I], sizeof(V));
        }(),
        ...);
}

/**
 * Rescore the listed centroids against one block of NG vectors of
 * points, then take each point's winner over its whole table row:
 * centroids in index order, strict `<`, from (0, DBL_MAX), exactly
 * as the scalar scan does.  The winner's index travels as a double
 * (exact for any centroid count) so the select stays one blend.
 * Only the first nOut lanes are points; the rest are padding.
 */
template <typename V, std::size_t... G>
[[gnu::always_inline]] inline void
blockRescore(const double *blk, std::size_t dim,
             const DenseMatrix &cents, const u32 *moved,
             std::size_t nMoved, double *blockTable, u32 *idxOut,
             double *distOut, std::size_t nOut,
             std::index_sequence<G...>)
{
    constexpr std::size_t L = sizeof(V) / sizeof(double);
    constexpr std::size_t NG = sizeof...(G);
    constexpr std::size_t W = NG * L;
    constexpr std::size_t C = kInFlight / NG;
    constexpr std::size_t B = DistanceTile::kBlockRows;
    std::size_t m = 0;
    for (; m + C <= nMoved; m += C)
        scoreMoved<V, NG>(blk, dim, cents, moved + m, blockTable,
                          std::make_index_sequence<C * NG>());
    for (; m < nMoved; ++m)
        scoreMoved<V, NG>(blk, dim, cents, moved + m, blockTable,
                          std::make_index_sequence<NG>());
    V best[NG] = {(static_cast<void>(G), V{} + kMaxD)...};
    V idx[NG] = {};
    const u32 k = static_cast<u32>(cents.rows());
    for (u32 c = 0; c < k; ++c) {
        const double *slot = blockTable + c * B;
        (
            [&] {
                V v;
                std::memcpy(&v, slot + G * L, sizeof v);
                const auto closer = v < best[G];
                best[G] = closer ? v : best[G];
                idx[G] = closer ? V{} + static_cast<double>(c) : idx[G];
            }(),
            ...);
    }
    double bestLanes[W], idxLanes[W];
    (
        [&] {
            std::memcpy(bestLanes + G * L, &best[G], sizeof(V));
            std::memcpy(idxLanes + G * L, &idx[G], sizeof(V));
        }(),
        ...);
    for (std::size_t j = 0; j < nOut; ++j) {
        distOut[j] = bestLanes[j];
        idxOut[j] = static_cast<u32>(idxLanes[j]);
    }
}

/** Rescore tile rows [begin, end), in blocks of kBlockRows and, at
 *  the tile's end, one narrower tail block. */
template <typename V>
[[gnu::always_inline]] inline void
tileRescore(const DistanceTile &tile, std::size_t begin,
            std::size_t end, const DenseMatrix &cents, const u32 *moved,
            std::size_t nMoved, double *table, u32 *idx, double *dist)
{
    constexpr std::size_t L = sizeof(V) / sizeof(double);
    constexpr std::size_t B = DistanceTile::kBlockRows;
    constexpr std::size_t P = DistanceTile::kLanePad;
    static_assert(B / L <= kInFlight, "a block must fit in flight");
    static_assert(P % L == 0, "tail blocks must hold whole vectors");
    const std::size_t dim = tile.cols();
    const std::size_t k = cents.rows();
    const double *blk = tile.data() + begin * dim;
    std::size_t r = begin;
    for (; r + B <= end; r += B, blk += B * dim, table += B * k)
        blockRescore<V>(blk, dim, cents, moved, nMoved, table,
                        idx + (r - begin), dist + (r - begin), B,
                        std::make_index_sequence<B / L>());
    if (r == end)
        return;
    // A partial block is the tile's last one.
    if (tile.tailLanes() == P)
        blockRescore<V>(blk, dim, cents, moved, nMoved, table,
                        idx + (r - begin), dist + (r - begin), end - r,
                        std::make_index_sequence<P / L>());
    else
        blockRescore<V>(blk, dim, cents, moved, nMoved, table,
                        idx + (r - begin), dist + (r - begin), end - r,
                        std::make_index_sequence<B / L>());
}

typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));
typedef double Lanes8 __attribute__((vector_size(64)));

/** s[0, L) += p[0, L) as one vector add. */
template <typename V>
[[gnu::always_inline]] inline void
addLanes(double *s, const double *p)
{
    V a, b;
    std::memcpy(&a, s, sizeof a);
    std::memcpy(&b, p, sizeof b);
    a += b;
    std::memcpy(s, &a, sizeof a);
}

/** s[d] += p[d] for every d < dim: whole vectors of V, then one
 *  step of each narrower width and a scalar last add. */
template <typename V>
[[gnu::always_inline]] inline void
addRow(double *s, const double *p, std::size_t dim)
{
    constexpr std::size_t L = sizeof(V) / sizeof(double);
    std::size_t d = 0;
    for (; d + L <= dim; d += L)
        addLanes<V>(s + d, p + d);
    if constexpr (L > 4)
        if (d + 4 <= dim) {
            addLanes<Lanes4>(s + d, p + d);
            d += 4;
        }
    if constexpr (L > 2)
        if (d + 2 <= dim) {
            addLanes<Lanes2>(s + d, p + d);
            d += 2;
        }
    if (d < dim)
        s[d] += p[d];
}

/** The cluster-sums kernel over one vector width (see
 *  TileKernel::clusterSums). */
template <typename V>
[[gnu::always_inline]] inline void
chunkSums(const DenseMatrix &points, std::size_t begin, std::size_t end,
          const u32 *assign, const u8 *dirty, std::size_t k,
          double *sums)
{
    const std::size_t dim = points.cols();
    for (std::size_t c = 0; c < k; ++c)
        if (dirty[c])
            std::fill_n(sums + c * dim, dim, 0.0);
    for (std::size_t i = begin; i < end; ++i) {
        const u32 c = assign[i - begin];
        if (dirty[c])
            addRow<V>(sums + c * dim, points.row(i), dim);
    }
}

void
tileDistancesBase(const double *row, const DistanceTile &tile,
                  double *out)
{
    tileDistances<Lanes2>(row, tile, out);
}

void
tileRescoreBase(const DistanceTile &tile, std::size_t begin,
                std::size_t end, const DenseMatrix &cents,
                const u32 *moved, std::size_t nMoved, double *table,
                u32 *idx, double *dist)
{
    tileRescore<Lanes2>(tile, begin, end, cents, moved, nMoved, table,
                        idx, dist);
}

void
clusterSumsBase(const DenseMatrix &points, std::size_t begin,
                std::size_t end, const u32 *assign, const u8 *dirty,
                std::size_t k, double *sums)
{
    chunkSums<Lanes2>(points, begin, end, assign, dirty, k, sums);
}

#if defined(__x86_64__) || defined(__i386__)
constexpr const char *kBaseName = "sse2";

// The file is built with -ffp-contract=off: AVX-512F carries fused
// multiply-adds, and fusing t * t into the add rounds once instead of
// twice, which breaks the equality with squaredDistance.  The AVX2
// builds leave out "fma" for the same reason.
__attribute__((target("avx2"))) void
tileDistancesAvx2(const double *row, const DistanceTile &tile,
                  double *out)
{
    tileDistances<Lanes4>(row, tile, out);
}

__attribute__((target("avx2"))) void
tileRescoreAvx2(const DistanceTile &tile, std::size_t begin,
                std::size_t end, const DenseMatrix &cents,
                const u32 *moved, std::size_t nMoved, double *table,
                u32 *idx, double *dist)
{
    tileRescore<Lanes4>(tile, begin, end, cents, moved, nMoved, table,
                        idx, dist);
}

__attribute__((target("avx2"))) void
clusterSumsAvx2(const DenseMatrix &points, std::size_t begin,
                std::size_t end, const u32 *assign, const u8 *dirty,
                std::size_t k, double *sums)
{
    chunkSums<Lanes4>(points, begin, end, assign, dirty, k, sums);
}

__attribute__((target("avx512f"))) void
tileDistancesAvx512(const double *row, const DistanceTile &tile,
                    double *out)
{
    tileDistances<Lanes8>(row, tile, out);
}

__attribute__((target("avx512f"))) void
tileRescoreAvx512(const DistanceTile &tile, std::size_t begin,
                  std::size_t end, const DenseMatrix &cents,
                  const u32 *moved, std::size_t nMoved, double *table,
                  u32 *idx, double *dist)
{
    tileRescore<Lanes8>(tile, begin, end, cents, moved, nMoved, table,
                        idx, dist);
}

__attribute__((target("avx512f"))) void
clusterSumsAvx512(const DenseMatrix &points, std::size_t begin,
                  std::size_t end, const u32 *assign, const u8 *dirty,
                  std::size_t k, double *sums)
{
    chunkSums<Lanes8>(points, begin, end, assign, dirty, k, sums);
}
#else
constexpr const char *kBaseName = "generic";
#endif

} // namespace

std::vector<TileKernel>
supportedTileKernels()
{
    std::vector<TileKernel> builds = {
        {kBaseName, tileDistancesBase, tileRescoreBase,
         clusterSumsBase}};
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2"))
        builds.push_back({"avx2", tileDistancesAvx2, tileRescoreAvx2,
                          clusterSumsAvx2});
    if (__builtin_cpu_supports("avx512f"))
        builds.push_back({"avx512", tileDistancesAvx512,
                          tileRescoreAvx512, clusterSumsAvx512});
#endif
    return builds;
}

const TileKernel &
activeTileKernel()
{
    static const TileKernel picked = supportedTileKernels().back();
    return picked;
}

void
assignNearest(const DenseMatrix &points, const DistanceTile *tile,
              const DenseMatrix &cents, std::size_t begin,
              std::size_t end, u32 *idx, double *dist)
{
    if (tile) {
        SPLAB_ASSERT(tile->rows() == points.rows() &&
                         tile->cols() == cents.cols(),
                     "kmeans: tile does not match the points");
        SPLAB_ASSERT(begin % DistanceTile::kBlockRows == 0 &&
                         (end % DistanceTile::kBlockRows == 0 ||
                          end == tile->rows()),
                     "kmeans: range splits a tile block");
        // Every centroid listed, one block at a time through a
        // scratch table of one block's rows.
        const std::size_t k = cents.rows();
        std::vector<u32> all(k);
        std::iota(all.begin(), all.end(), 0u);
        std::vector<double> scratch(DistanceTile::kBlockRows * k);
        for (std::size_t r = begin; r < end;
             r += DistanceTile::kBlockRows)
            activeTileKernel().rescore(
                *tile, r, std::min(end, r + DistanceTile::kBlockRows),
                cents, all.data(), k, scratch.data(), idx + (r - begin),
                dist + (r - begin));
        return;
    }
    const std::size_t dim = points.cols();
    const u32 k = static_cast<u32>(cents.rows());
    for (std::size_t i = begin; i < end; ++i) {
        double best = kMaxD;
        u32 bestC = 0;
        for (u32 c = 0; c < k; ++c) {
            double d = squaredDistance(points.row(i), cents.row(c), dim);
            if (d < best) {
                best = d;
                bestC = c;
            }
        }
        idx[i - begin] = bestC;
        dist[i - begin] = best;
    }
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
accountDistances(u64 computed)
{
    static obs::Counter &counter =
        obs::counter("kmeans.distances_computed",
                     "exact distance evaluations in the clustering "
                     "kernels");
    counter.add(computed);
}

namespace
{

/** Points per assignment-pass chunk.  A pure constant: the chunk
 *  decomposition (and hence the floating-point reduction order) must
 *  never depend on the thread count. */
constexpr std::size_t kAssignChunk = 256;
static_assert(kAssignChunk % DistanceTile::kBlockRows == 0,
              "a chunk never splits a tile block");

/** Per-chunk partials of one reference Lloyd pass. */
struct AssignAccum
{
    std::vector<double> sums; ///< k * dim centroid numerators
    std::vector<u64> counts;  ///< k populations
    double distortion = 0.0;
    bool changed = false;
};

/**
 * One Lloyd assignment pass of the scalar reference: every point
 * scanned against every centroid, and every cluster's sum rebuilt
 * from chunk partials reduced in chunk order.  Fills res.assignment,
 * res.clusterSize, res.distortion and @p sums; returns whether any
 * point changed cluster.
 */
bool
referencePass(const DenseMatrix &points, KMeansResult &res,
              std::vector<double> &sums)
{
    const std::size_t dim = points.cols();
    const u32 k = res.k;
    auto accums = parallelChunkApply<AssignAccum>(
        points.rows(), kAssignChunk,
        [&](AssignAccum &a, const ChunkRange &r) {
            a.sums.assign(k * dim, 0.0);
            a.counts.assign(k, 0);
            u32 idx[kAssignChunk];
            double dist[kAssignChunk];
            assignNearest(points, nullptr, res.centroids, r.begin,
                          r.end, idx, dist);
            for (std::size_t i = r.begin; i < r.end; ++i) {
                const u32 c = idx[i - r.begin];
                if (res.assignment[i] != c) {
                    res.assignment[i] = c;
                    a.changed = true;
                }
                a.distortion += dist[i - r.begin];
                ++a.counts[c];
                const double *p = points.row(i);
                double *s = a.sums.data() + c * dim;
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
        for (u32 c = 0; c < k; ++c)
            res.clusterSize[c] += a.counts[c];
        for (std::size_t j = 0; j < sums.size(); ++j)
            sums[j] += a.sums[j];
    }
    return changed;
}

/**
 * The tile path's Lloyd state, kept across the passes of one fit.
 * The table holds every point's exact distance to every centroid,
 * for the centroid bytes it was last scored against: block b of
 * kBlockRows points keeps centroid c's lanes at
 * table[(b * k + c) * kBlockRows].  A centroid whose bytes did not
 * change keeps its column, so each pass rescores only the stale
 * ones.  Each chunk keeps its partial sums in the same way: a pass
 * rebuilds only the clusters a point of that chunk joined or left.
 */
struct TiledLloyd
{
    /** A chunk's populations, partial sums and dirty clusters. */
    struct Chunk
    {
        ChunkRange range;
        std::vector<double> sums; ///< k * dim partial numerators
        std::vector<u64> counts;  ///< k populations
        std::vector<u8> dirty;    ///< clusters whose members changed
        double distortion = 0.0;
        bool changed = false;
    };

    std::vector<Chunk> chunks;
    std::unique_ptr<double[]> table;
    std::vector<u8> stale; ///< centroids the table does not hold
    std::vector<u32> moved;

    TiledLloyd(std::size_t n, std::size_t dim, u32 k)
        : table(new double[(n + DistanceTile::kBlockRows - 1) /
                           DistanceTile::kBlockRows *
                           DistanceTile::kBlockRows * k]),
          stale(k, 1)
    {
        for (const ChunkRange &r : fixedChunks(n, kAssignChunk)) {
            Chunk &c = chunks.emplace_back();
            c.range = r;
            c.sums.assign(k * dim, 0.0);
            c.counts.assign(k, 0);
            c.dirty.assign(k, 0);
        }
    }

    /**
     * One Lloyd assignment pass, bit-identical to referencePass:
     * from the seeding's (near, d2) when given (the first pass),
     * else from the table after rescoring the stale centroids.  Adds
     * the distances it computed to @p computed.
     */
    bool
    pass(const DenseMatrix &points, const DistanceTile &tile,
         const u32 *seedIdx, const double *seedDist, KMeansResult &res,
         std::vector<double> &sums, u64 &computed)
    {
        const TileKernel &kernel = activeTileKernel();
        const std::size_t dim = points.cols();
        const u32 k = res.k;
        const bool seeded = seedIdx != nullptr;
        moved.clear();
        if (!seeded) {
            for (u32 c = 0; c < k; ++c)
                if (stale[c])
                    moved.push_back(c);
            std::fill(stale.begin(), stale.end(), 0);
            computed += points.rows() * moved.size();
        }
        parallelFor(chunks.size(), [&](std::size_t ci) {
            Chunk &ch = chunks[ci];
            const ChunkRange &r = ch.range;
            u32 chunkIdx[kAssignChunk];
            double chunkDist[kAssignChunk];
            const u32 *idx = chunkIdx;
            const double *dist = chunkDist;
            if (seeded) {
                idx = seedIdx + r.begin;
                dist = seedDist + r.begin;
            } else {
                kernel.rescore(tile, r.begin, r.end, res.centroids,
                               moved.data(), moved.size(),
                               table.get() + r.begin * k, chunkIdx,
                               chunkDist);
            }
            // The first pass builds every cluster's sums.
            std::fill(ch.dirty.begin(), ch.dirty.end(), seeded);
            std::fill(ch.counts.begin(), ch.counts.end(), 0);
            ch.distortion = 0.0;
            ch.changed = false;
            for (std::size_t i = r.begin; i < r.end; ++i) {
                const u32 c = idx[i - r.begin];
                u32 &a = res.assignment[i];
                if (a != c) {
                    ch.dirty[a] = ch.dirty[c] = 1;
                    a = c;
                    ch.changed = true;
                }
                ch.distortion += dist[i - r.begin];
                ++ch.counts[c];
            }
            kernel.clusterSums(points, r.begin, r.end,
                               res.assignment.data() + r.begin,
                               ch.dirty.data(), k, ch.sums.data());
        });

        // Reduce in chunk order, as referencePass does.  A cluster
        // no chunk marked has the same partials, so its sum stands.
        bool changed = false;
        res.distortion = 0.0;
        std::fill(res.clusterSize.begin(), res.clusterSize.end(), 0);
        std::vector<u8> dirty(k, 0);
        for (const Chunk &ch : chunks) {
            res.distortion += ch.distortion;
            changed = changed || ch.changed;
            for (u32 c = 0; c < k; ++c) {
                res.clusterSize[c] += ch.counts[c];
                dirty[c] |= ch.dirty[c];
            }
        }
        for (u32 c = 0; c < k; ++c) {
            if (!dirty[c])
                continue;
            double *s = sums.data() + c * dim;
            std::fill_n(s, dim, 0.0);
            for (const Chunk &ch : chunks)
                for (std::size_t d = 0; d < dim; ++d)
                    s[d] += ch.sums[c * dim + d];
        }
        return changed;
    }
};

/**
 * k-means++ initial centroid selection (sequential: each draw
 * conditions on the previous centroid).  d2[i] tracks the exact
 * squared distance from point i to its closest placed centroid and
 * near[i] that centroid, under the brute scan's rule: centroids in
 * index order, strict `<`, from (0, DBL_MAX).  With @p tile, each
 * new centroid is scored against the tile by the kernel, which
 * returns squaredDistance's doubles; d2, the running total and every
 * RNG draw are updated in index order, so the picks are
 * bit-identical to the scalar pass.  The tile path also scores the
 * last centroid, after which (near, d2) is Lloyd's first assignment.
 */
DenseMatrix
seedCentroids(const DenseMatrix &points, const DistanceTile *tile,
              u32 k, Rng &rng, std::vector<u32> &near,
              std::vector<double> &d2, u64 &computed)
{
    const std::size_t n = points.rows();
    const std::size_t dim = points.cols();
    DenseMatrix centroids(k, dim);
    u32 placed = 0;
    centroids.setRow(placed++, points.row(rng.below(n)));

    near.assign(n, 0);
    d2.assign(n, kMaxD);
    std::vector<double> dist(tile ? n : 0);
    const TileKernel &kernel = activeTileKernel();
    const u32 passes = tile ? k : k - 1;
    for (u32 c = 0; c < passes; ++c) {
        const double *last = centroids.row(c);
        if (tile)
            kernel.distances(last, *tile, dist.data());
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double d = tile ? dist[i]
                            : squaredDistance(points.row(i), last,
                                              dim);
            if (d < d2[i]) {
                d2[i] = d;
                near[i] = c;
            }
            total += d2[i];
        }
        computed += n;
        if (placed == k)
            break;
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

KMeansResult
kmeansFit(const DenseMatrix &points, const DistanceTile *tile, u32 k,
          u64 seed, int maxIters)
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
    u64 computed = 0;

    Rng rng(seed, 0x63a5ULL);
    KMeansResult res;
    res.k = k;
    std::vector<u32> seedIdx;
    std::vector<double> seedDist;
    res.centroids =
        seedCentroids(points, tile, k, rng, seedIdx, seedDist,
                      computed);
    res.assignment.assign(n, 0);
    res.clusterSize.assign(k, 0);

    std::vector<double> sums(k * dim, 0.0);
    std::unique_ptr<TiledLloyd> tiled;
    if (tile)
        tiled = std::make_unique<TiledLloyd>(n, dim, k);

    for (int iter = 0; iter < maxIters; ++iter) {
        bool changed;
        if (tiled) {
            // The seeding already made the first assignment.
            const bool seeded = iter == 0;
            changed = tiled->pass(
                points, *tile, seeded ? seedIdx.data() : nullptr,
                seeded ? seedDist.data() : nullptr, res, sums, computed);
        } else {
            changed = referencePass(points, res, sums);
            computed += n * k;
        }

        for (u32 c = 0; c < k; ++c) {
            bool moved = true;
            if (res.clusterSize[c] == 0) {
                // Re-seed an empty cluster at a random point.
                res.centroids.setRow(c, points.row(rng.below(n)));
                changed = true;
            } else {
                const double *s = sums.data() + c * dim;
                double *cent = res.centroids.row(c);
                moved = false;
                for (std::size_t d = 0; d < dim; ++d) {
                    const double v =
                        s[d] / static_cast<double>(res.clusterSize[c]);
                    moved = moved || std::bit_cast<u64>(v) !=
                                         std::bit_cast<u64>(cent[d]);
                    cent[d] = v;
                }
            }
            if (tiled && moved)
                tiled->stale[c] = 1;
        }

        res.iterations = iter + 1;
        if (!changed) {
            res.converged = true;
            break;
        }
    }
    iters.add(res.iterations);
    accountDistances(computed);
    return res;
}

KMeansResult
kmeansBestOf(const DenseMatrix &points, const DistanceTile *tile,
             u32 k, u64 seed, int restarts, int maxIters)
{
    SPLAB_ASSERT(restarts >= 1, "kmeans: restarts must be >= 1");
    auto fits = parallelMap<KMeansResult>(
        static_cast<std::size_t>(restarts), [&](std::size_t r) {
            return kmeansFit(points, tile, k, hashCombine(seed, r),
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

KMeansResult
kmeansFit(const DenseMatrix &points, u32 k, u64 seed, int maxIters)
{
    DistanceTile tile;
    tile.assign(points);
    return kmeansFit(points, &tile, k, seed, maxIters);
}

KMeansResult
kmeansBestOf(const DenseMatrix &points, u32 k, u64 seed, int restarts,
             int maxIters)
{
    DistanceTile tile;
    tile.assign(points);
    return kmeansBestOf(points, &tile, k, seed, restarts, maxIters);
}

} // namespace splab
