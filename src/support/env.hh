/**
 * @file
 * Environment-variable configuration knobs.
 *
 * The bench harness honours:
 *  - SPLAB_SCALE   : multiply all workload lengths by this factor
 *                    (default 1.0; use e.g. 0.1 for a quick smoke run)
 *  - SPLAB_CACHE   : directory for the on-disk artifact cache
 *                    (default "splab_cache" under the CWD; empty
 *                    string disables caching).  The cache never
 *                    evicts: delete the directory to reclaim it.
 *  - SPLAB_THREADS : worker threads for the parallel stages (k-sweep,
 *                    k-means, regional replays); 0 or unset = all
 *                    hardware threads.  Changes wall time only —
 *                    results are bit-identical at any thread count
 *                    (see support/thread_pool.hh).
 *  - SPLAB_TRACE   : 1 = record every trace span and have benches
 *                    dump "<binary>.trace.json" (Chrome trace_event
 *                    format) plus a span tree on stdout.  Aggregated
 *                    span statistics are collected regardless (see
 *                    obs/trace.hh).
 *  - SPLAB_MANIFEST: 0 = suppress the "<binary>.manifest.json" run
 *                    manifest benches write by default (see
 *                    obs/manifest.hh).
 *  - SPLAB_LOG     : log verbosity (see support/logging.hh).
 *
 * Those six are the only variables the library's behaviour depends
 * on.  Five retired knobs (SPLAB_FUSED_PERSIST, SPLAB_GEN_PIPELINE,
 * SPLAB_SIMD, SPLAB_TOOL_LANES, SPLAB_KMEANS_ACCEL) are read only by
 * the print-only functions below, for the suite benchmark's [config]
 * line.
 */

#ifndef SPLAB_SUPPORT_ENV_HH
#define SPLAB_SUPPORT_ENV_HH

#include <string>

#include "types.hh"

namespace splab
{

/** Read a double from the environment, falling back to @p fallback
 *  when unset or empty.  A value with anything but whitespace after
 *  the number ("0.1x") is rejected with a warning, also falling
 *  back. */
double envDouble(const char *name, double fallback);

/** Read a base-10 integer from the environment; same fallback and
 *  rejection rules as envDouble ("512M" falls back, " 7 " is 7). */
long envLong(const char *name, long fallback);

/** Read a string from the environment. */
std::string envString(const char *name, const std::string &fallback);

/** Global workload scale factor (SPLAB_SCALE). */
double workloadScale();

/** Artifact cache directory (SPLAB_CACHE); empty = disabled. */
std::string artifactCacheDir();

/** Value of the retired SPLAB_FUSED_PERSIST knob (default on).  No
 *  library code reads it: the fused whole-run artifact always
 *  persists.  It remains only for the suite benchmark's [config]
 *  print line and goes with that line in the next benchmark
 *  change. */
bool fusedPersistEnabled();

/** Value of the retired SPLAB_GEN_PIPELINE knob (default on).  No
 *  library code reads it: engine runs always deliver serially.  It
 *  remains only for the suite benchmark's [config] print line and
 *  goes with that line in the next benchmark change. */
bool genPipelineEnabled();

/** Value of the retired SPLAB_SIMD knob (default on).  No library
 *  code reads it: batch aggregates are one scalar pass.  It remains
 *  only for the suite benchmark's [config] print line and goes with
 *  that line in the next benchmark change. */
bool simdKernelsEnabled();

/** Value of the retired SPLAB_TOOL_LANES knob (default on).  No
 *  library code reads it: engine runs always deliver serially.  It
 *  remains only for the suite benchmark's [config] print line and
 *  goes with that line in the next benchmark change. */
bool toolLanesEnabled();

/** Value of the retired SPLAB_KMEANS_ACCEL knob (default on).  No
 *  library code reads it: pickSimPoints always runs the block
 *  kernel, and pickSimPointsReference is the scalar reference.  It
 *  remains only for the suite benchmark's [config] print line and
 *  goes with that line in the next benchmark change. */
bool kmeansAccelEnabled();

} // namespace splab

#endif // SPLAB_SUPPORT_ENV_HH
