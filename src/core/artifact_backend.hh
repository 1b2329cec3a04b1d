// Exists only for suitebench/workloads.cc, which still passes
// makeLocalBackend(cache) to ArtifactGraph; delete with that call.
#ifndef SPLAB_CORE_ARTIFACT_BACKEND_HH
#define SPLAB_CORE_ARTIFACT_BACKEND_HH

#include "artifact_graph.hh"

namespace splab
{
struct LocalBackendTag {};
inline LocalBackendTag
makeLocalBackend(const std::shared_ptr<const ArtifactCache> &) { return {}; }
} // namespace splab

#endif // SPLAB_CORE_ARTIFACT_BACKEND_HH
