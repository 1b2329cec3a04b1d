// Exists only for suitebench/layers.cc; delete with that call.
#ifndef SPLAB_CORE_PIPELINE_HH
#define SPLAB_CORE_PIPELINE_HH
#include "artifact_cache.hh"
#include "runs.hh"
namespace splab {
struct PinPointsPipeline
{
    PinPointsPipeline(SimPointConfig c, std::shared_ptr<const ArtifactCache>)
        : slice(c.sliceInstrs) {}
    auto profileBbvs(const BenchmarkSpec &s) const { return splab::profileBbvs(s, slice); }
    ICount slice;
};
} // namespace splab
#endif // SPLAB_CORE_PIPELINE_HH
