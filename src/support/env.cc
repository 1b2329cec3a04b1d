#include "env.hh"

#include <cctype>
#include <cstdlib>

#include "logging.hh"

namespace splab
{

namespace
{

/**
 * Parse $name with @p parse (strtod-like), accepting the value only
 * when the number spans the whole string bar trailing whitespace:
 * strtol("512M") stops at 'M' and would silently yield 512.
 */
template <typename T, typename Parse>
T
envNumber(const char *name, T fallback, Parse parse)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    T x = parse(v, &end);
    bool ok = end != v;
    for (; ok && *end; ++end)
        ok = std::isspace(static_cast<unsigned char>(*end)) != 0;
    if (!ok) {
        SPLAB_WARN("ignoring non-numeric ", name, "=", v);
        return fallback;
    }
    return x;
}

} // namespace

double
envDouble(const char *name, double fallback)
{
    return envNumber(name, fallback, [](const char *v, char **end) {
        return std::strtod(v, end);
    });
}

long
envLong(const char *name, long fallback)
{
    return envNumber(name, fallback, [](const char *v, char **end) {
        return std::strtol(v, end, 10);
    });
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v ? std::string(v) : fallback;
}

double
workloadScale()
{
    static const double scale = [] {
        double s = envDouble("SPLAB_SCALE", 1.0);
        if (s <= 0.0) {
            SPLAB_WARN("SPLAB_SCALE must be positive; using 1.0");
            s = 1.0;
        }
        return s;
    }();
    return scale;
}

std::string
artifactCacheDir()
{
    return envString("SPLAB_CACHE", "splab_cache");
}

bool
fusedPersistEnabled()
{
    return envLong("SPLAB_FUSED_PERSIST", 1) != 0;
}

bool
genPipelineEnabled()
{
    return envLong("SPLAB_GEN_PIPELINE", 1) != 0;
}

bool
simdKernelsEnabled()
{
    return envLong("SPLAB_SIMD", 1) != 0;
}

bool
toolLanesEnabled()
{
    return envLong("SPLAB_TOOL_LANES", 1) != 0;
}

bool
kmeansAccelEnabled()
{
    return envLong("SPLAB_KMEANS_ACCEL", 1) != 0;
}

} // namespace splab
