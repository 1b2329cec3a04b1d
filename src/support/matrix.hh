/**
 * @file
 * Dense row-major matrix of doubles.
 *
 * The clustering hot paths (nearest-centroid scans in k-means and
 * SimPoint finalization) stream every point against every centroid.
 * A vector-of-vectors layout chases one pointer per row; this type
 * keeps all rows in one contiguous allocation so the scans walk
 * cache lines linearly and the prefetcher can keep up.
 */

#ifndef SPLAB_SUPPORT_MATRIX_HH
#define SPLAB_SUPPORT_MATRIX_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "logging.hh"

namespace splab
{

/** Contiguous row-major matrix of doubles. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;

    DenseMatrix(std::size_t rows, std::size_t cols)
        : nRows(rows), nCols(cols), buf(rows * cols, 0.0)
    {
    }

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }
    bool empty() const { return nRows == 0; }

    double *row(std::size_t r) { return buf.data() + r * nCols; }

    const double *
    row(std::size_t r) const
    {
        return buf.data() + r * nCols;
    }

    double &
    at(std::size_t r, std::size_t c)
    {
        return buf[r * nCols + c];
    }

    double
    at(std::size_t r, std::size_t c) const
    {
        return buf[r * nCols + c];
    }

    /** Overwrite row @p r with @p src (must hold cols() doubles). */
    void
    setRow(std::size_t r, const double *src)
    {
        std::copy(src, src + nCols, row(r));
    }

    /** Reshape to rows x cols, zero-filled. */
    void
    reset(std::size_t rows, std::size_t cols)
    {
        nRows = rows;
        nCols = cols;
        buf.assign(rows * cols, 0.0);
    }

    /** Build from equally-sized row vectors. */
    static DenseMatrix
    fromRows(const std::vector<std::vector<double>> &rows)
    {
        DenseMatrix m;
        if (rows.empty())
            return m;
        m.reset(rows.size(), rows[0].size());
        for (std::size_t r = 0; r < rows.size(); ++r) {
            SPLAB_ASSERT(rows[r].size() == m.nCols,
                         "matrix: ragged input rows");
            m.setRow(r, rows[r].data());
        }
        return m;
    }

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    std::vector<double> buf;
};

} // namespace splab

#endif // SPLAB_SUPPORT_MATRIX_HH
