#include "strategies.hh"

#include "obs/manifest.hh"
#include "support/logging.hh"

namespace splab
{

SimPointResult
SimpointStrategy::pick(const std::vector<FrequencyVector> &bbvs) const
{
    return pickSimPoints(bbvs, cfg);
}

RegionSelection
SimpointStrategy::select(const StrategyInputs &in) const
{
    SPLAB_ASSERT(in.bbvs != nullptr,
                 "simpoint strategy needs a BBV profile");
    RegionSelection sel = regionsFromSimPoints(pick(*in.bbvs));
    accountSelection(kind(), sel);
    return sel;
}

void
SimpointStrategy::describe(obs::RunManifest &m) const
{
    m.setConfig("sampling.strategy", name());
    m.setConfig("sampling.simpoint.max_k", cfg.maxK);
    m.setConfig("sampling.simpoint.seed", cfg.seed);
}

} // namespace splab
