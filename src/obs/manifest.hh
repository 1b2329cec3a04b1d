/**
 * @file
 * Per-run manifests: a machine-readable record of what a bench ran.
 *
 * A manifest captures (1) the full experiment configuration, (2) the
 * observability-relevant environment (SPLAB_SCALE, SPLAB_CACHE, ...;
 * SPLAB_THREADS deliberately excluded, see below), (3) the counter
 * registry snapshot, (4) per-stage span counts, and (5) content
 * hashes of every emitted output file — enough to tell whether two
 * runs of a figure were the same experiment, and to diff them when
 * they were not.
 *
 * Determinism contract: everything outside the "timing" section is a
 * pure function of the configuration and the work performed.  Two
 * runs at different SPLAB_THREADS (and identical artifact-cache
 * state) render byte-identical deterministic content; wall-clock
 * stage timings, thread counts and gauges live under "timing" and
 * are excluded by renderDeterministic().
 */

#ifndef SPLAB_OBS_MANIFEST_HH
#define SPLAB_OBS_MANIFEST_HH

#include <string>

#include "json.hh"

namespace splab
{
namespace obs
{

/** True unless SPLAB_MANIFEST=0 disables manifest emission. */
bool manifestEnabled();

/** Accumulates one run's record; render()/write() snapshot the
 *  counter and span registries at call time. */
class RunManifest
{
  public:
    /** @param tool bench/binary name, e.g. "fig5_reduction". */
    explicit RunManifest(std::string tool);

    /// @name Configuration key/values (dotted keys, e.g.
    /// "simpoint.max_k"); insertion order is preserved.
    /// @{
    void setConfig(const std::string &key, const std::string &value);
    void setConfig(const std::string &key, const char *value);
    void setConfig(const std::string &key, double value);
    void setConfig(const std::string &key, u64 value);
    void setConfig(const std::string &key, u32 value);
    void setConfig(const std::string &key, int value);
    void setConfig(const std::string &key, bool value);
    /// @}

    /** Record an environment variable's value ("" when unset). */
    void recordEnv(const char *name);

    /**
     * Record an output file: basename, size and FNV-1a content hash.
     * @return false when the file cannot be read.
     */
    bool addOutput(const std::string &path);

    /**
     * Record one content-addressed artifact key (the "artifacts"
     * section; deterministic).  @p name is "kind/benchmark", e.g.
     * "simpoints/perlbench_r"; see ArtifactGraph::recordArtifacts.
     */
    void addArtifact(const std::string &name, u64 key);

    /** Volatile session note (lands in the "timing" section). */
    void setTimingNote(const std::string &key, double value);

    /**
     * Full manifest JSON, including the volatile "timing" section
     * (wall-clock stage timings, thread count, gauges).
     */
    std::string render() const;

    /** Manifest JSON without the volatile "timing" section. */
    std::string renderDeterministic() const;

    /** Write render() to @p path. @return success. */
    bool write(const std::string &path) const;

  private:
    JsonValue build(bool includeTiming) const;

    std::string toolName;
    JsonValue config = JsonValue::object();
    JsonValue env = JsonValue::object();
    JsonValue artifacts = JsonValue::object();
    JsonValue outputs = JsonValue::array();
    JsonValue timingNotes = JsonValue::object();
};

} // namespace obs
} // namespace splab

#endif // SPLAB_OBS_MANIFEST_HH
