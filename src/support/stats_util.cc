#include "stats_util.hh"

#include <cmath>

#include "logging.hh"

namespace splab
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size()));
}

double
weightedMean(const std::vector<double> &xs, const std::vector<double> &ws)
{
    SPLAB_ASSERT(xs.size() == ws.size(),
                 "weightedMean: size mismatch ", xs.size(), " vs ",
                 ws.size());
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        num += xs[i] * ws[i];
        den += ws[i];
    }
    return den == 0.0 ? 0.0 : num / den;
}

double
relativeError(double measured, double reference)
{
    if (reference == 0.0)
        return std::fabs(measured);
    return std::fabs(measured - reference) / std::fabs(reference);
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    SPLAB_ASSERT(xs.size() == ys.size(), "pearson: size mismatch");
    if (xs.size() < 2)
        return 0.0;
    double mx = mean(xs), my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double dx = xs[i] - mx, dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace splab
