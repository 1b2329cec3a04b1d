/**
 * @file
 * Counter-based pseudo-random number generation.
 *
 * Every random decision in the library is derived from a pure
 * function of (seed, stream, counter).  This is the property that
 * makes regional pinballs exact: replaying slice k of a workload
 * regenerates the identical event stream without executing slices
 * 0..k-1 first.
 */

#ifndef SPLAB_SUPPORT_RNG_HH
#define SPLAB_SUPPORT_RNG_HH

#include <cmath>

#include "types.hh"

namespace splab
{

/** SplitMix64 finalizer: a high-quality 64-bit mixing function. */
constexpr u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into a new well-mixed seed. */
constexpr u64
hashCombine(u64 a, u64 b)
{
    return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/** Stable 64-bit hash of a byte string (FNV-1a). */
u64 hashBytes(const void *data, std::size_t len);

/**
 * A stateful generator seeded from a (seed, stream) pair.
 *
 * Internally a SplitMix64 sequence; construction is O(1), so it is
 * cheap to create one per slice / per phase / per kernel, which is
 * how slice-addressable determinism is achieved.
 */
class Rng
{
  public:
    Rng() : state(0x853c49e6748fea9bULL) {}

    /** Seed from an arbitrary number of stream components. */
    template <typename... Parts>
    explicit Rng(u64 seed, Parts... parts) : state(mix64(seed))
    {
        ((state = hashCombine(state, static_cast<u64>(parts))), ...);
    }

    /** Next raw 64-bit value. */
    u64
    next()
    {
        state += 0x9e3779b97f4a7c15ULL;
        u64 z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    u64
    below(u64 bound)
    {
        // Multiply-shift rejection-free mapping; bias is negligible
        // for the bounds used here (all far below 2^48).
        return static_cast<u64>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Standard normal deviate (Box-Muller, one value per call). */
    double
    gaussian()
    {
        double u1 = uniform();
        double u2 = uniform();
        if (u1 < 1e-300)
            u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(6.283185307179586 * u2);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * The integer form of chance(p): chanceBelow(chanceThreshold(p))
     * draws the same value and returns the same result as chance(p)
     * for every double p.  uniform() is x * 2^-53 for the integer
     * x = next() >> 11 < 2^53, and x * 2^-53 < p holds exactly when
     * x < ceil(p * 2^53) (the product is exact: a power-of-two
     * scaling).  NaN and p <= 0 never pass, so their threshold is 0;
     * p >= 1 always passes, so its threshold is 2^53.
     */
    static u64
    chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return u64{1} << 53;
        return static_cast<u64>(std::ceil(std::ldexp(p, 53)));
    }

    /** Bernoulli trial against a chanceThreshold(). */
    bool
    chanceBelow(u64 threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Geometric-ish burst length in [1, cap]. */
    u64
    burst(double mean, u64 cap)
    {
        if (mean <= 1.0)
            return 1;
        double x = -mean * std::log(1.0 - uniform());
        u64 n = static_cast<u64>(x) + 1;
        return n > cap ? cap : n;
    }

  private:
    u64 state;
};

/**
 * Sample an index from a discrete distribution given cumulative
 * weights (cdf must be nondecreasing with cdf.back() ~ 1.0).
 */
std::size_t sampleCdf(const double *cdf, std::size_t n, double u);

} // namespace splab

#endif // SPLAB_SUPPORT_RNG_HH
