/**
 * @file
 * The six concrete SamplingStrategy implementations.  Construction
 * normally goes through the registry (makeStrategy in strategy.hh);
 * the concrete types are exposed for tests and for callers that
 * need strategy-specific entry points (SimpointStrategy::pick keeps
 * the k-sweep diagnostics a plain RegionSelection cannot carry).
 */

#ifndef SPLAB_SAMPLING_STRATEGIES_HH
#define SPLAB_SAMPLING_STRATEGIES_HH

#include "strategy.hh"

namespace splab
{

/** The paper's methodology behind the common interface: BBV
 *  clustering with BIC model selection (src/simpoint). */
class SimpointStrategy : public SamplingStrategy
{
  public:
    explicit SimpointStrategy(SimPointConfig cfg) : cfg(cfg) {}

    StrategyKind kind() const override
    {
        return StrategyKind::Simpoint;
    }
    u64 configHash() const override { return cfg.contentHash(); }
    RegionSelection select(const StrategyInputs &in) const override;
    void describe(obs::RunManifest &m) const override;

    /** Full selection including the k-sweep diagnostics. */
    SimPointResult
    pick(const std::vector<FrequencyVector> &bbvs) const;

  private:
    SimPointConfig cfg;
};

/** SMARTS-style systematic sampling over measurement units. */
class SmartsStrategy : public SamplingStrategy
{
  public:
    explicit SmartsStrategy(SmartsConfig cfg) : cfg(cfg) {}

    StrategyKind kind() const override
    {
        return StrategyKind::Smarts;
    }
    u64 configHash() const override { return cfg.contentHash(); }
    RegionSelection select(const StrategyInputs &in) const override;
    void describe(obs::RunManifest &m) const override;

  private:
    SmartsConfig cfg;
};

/** Ekman two-phase stratified sampling: strided pilot pass ->
 *  equal-frequency strata over a 1-D observable -> proportional
 *  second-phase allocation. */
class StratifiedStrategy : public SamplingStrategy
{
  public:
    explicit StratifiedStrategy(StratifiedConfig cfg) : cfg(cfg) {}

    StrategyKind kind() const override
    {
        return StrategyKind::Stratified;
    }
    u64 configHash() const override { return cfg.contentHash(); }
    RegionSelection select(const StrategyInputs &in) const override;
    void describe(obs::RunManifest &m) const override;

  private:
    StratifiedConfig cfg;
};

/** Ranked-set sampling with repeated subsampling: rank r random
 *  candidates per draw, keep the cycling order statistic, pool
 *  subsample rounds with multiplicity. */
class RankedSetStrategy : public SamplingStrategy
{
  public:
    explicit RankedSetStrategy(RankedSetConfig cfg) : cfg(cfg) {}

    StrategyKind kind() const override
    {
        return StrategyKind::RankedSet;
    }
    u64 configHash() const override { return cfg.contentHash(); }
    RegionSelection select(const StrategyInputs &in) const override;
    void describe(obs::RunManifest &m) const override;

  private:
    RankedSetConfig cfg;
};

/** Uniform random slice sampling (behaviour-oblivious baseline). */
class RandomStrategy : public SamplingStrategy
{
  public:
    explicit RandomStrategy(RandomConfig cfg) : cfg(cfg) {}

    StrategyKind kind() const override
    {
        return StrategyKind::Random;
    }
    u64 configHash() const override { return cfg.contentHash(); }
    RegionSelection select(const StrategyInputs &in) const override;
    void describe(obs::RunManifest &m) const override;

  private:
    RandomConfig cfg;
};

/** Evenly-spaced slice sampling (behaviour-oblivious baseline,
 *  first sample at stride/2, SMARTS-style). */
class StrideStrategy : public SamplingStrategy
{
  public:
    explicit StrideStrategy(StrideConfig cfg) : cfg(cfg) {}

    StrategyKind kind() const override
    {
        return StrategyKind::Stride;
    }
    u64 configHash() const override { return cfg.contentHash(); }
    RegionSelection select(const StrategyInputs &in) const override;
    void describe(obs::RunManifest &m) const override;

  private:
    StrideConfig cfg;
};

} // namespace splab

#endif // SPLAB_SAMPLING_STRATEGIES_HH
