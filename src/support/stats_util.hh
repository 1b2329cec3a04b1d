/**
 * @file
 * Small numeric helpers used throughout metric aggregation.
 */

#ifndef SPLAB_SUPPORT_STATS_UTIL_HH
#define SPLAB_SUPPORT_STATS_UTIL_HH

#include <cstddef>
#include <vector>

namespace splab
{

/** Arithmetic mean; 0 for an empty range. */
double mean(const std::vector<double> &xs);

/** Population standard deviation; 0 for fewer than two samples. */
double stddev(const std::vector<double> &xs);

/** Weighted mean; weights need not be normalized. */
double weightedMean(const std::vector<double> &xs,
                    const std::vector<double> &ws);

/**
 * Relative error of @p measured against @p reference as a fraction
 * (0.25 == 25% off).  Returns |measured| when the reference is 0.
 */
double relativeError(double measured, double reference);

/** Pearson correlation coefficient; 0 if either side is constant. */
double pearson(const std::vector<double> &xs,
               const std::vector<double> &ys);

} // namespace splab

#endif // SPLAB_SUPPORT_STATS_UTIL_HH
