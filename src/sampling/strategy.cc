#include "strategy.hh"

#include <array>

#include "obs/counters.hh"
#include "strategies.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"

namespace splab
{

namespace
{

constexpr std::array<const char *, kNumStrategies> kNames = {
    "simpoint", "smarts", "stratified", "ranked_set",
    "random",   "stride",
};

/** Per-strategy version salts ("rsel" + strategy id + revision);
 *  bump the low digits when a strategy's algorithm changes. */
constexpr std::array<u64, kNumStrategies> kSalts = {
    0x7273656c'73700001ULL, // simpoint
    0x7273656c'736d0001ULL, // smarts
    0x7273656c'73740001ULL, // stratified
    0x7273656c'726b0001ULL, // ranked_set
    0x7273656c'726e0001ULL, // random
    0x7273656c'73720001ULL, // stride
};

} // namespace

const char *
strategyName(StrategyKind k)
{
    return kNames[static_cast<u8>(k)];
}

StrategyKind
strategyByName(const std::string &name)
{
    for (std::size_t i = 0; i < kNumStrategies; ++i)
        if (name == kNames[i])
            return static_cast<StrategyKind>(i);
    SPLAB_FATAL("unknown sampling strategy \"", name,
                "\" (expected simpoint|smarts|stratified|"
                "ranked_set|random|stride)");
}

const std::vector<std::string> &
strategyNames()
{
    static const std::vector<std::string> names(kNames.begin(),
                                                kNames.end());
    return names;
}

u64
strategySalt(StrategyKind k)
{
    return kSalts[static_cast<u8>(k)];
}

bool
strategyReadsProfile(StrategyKind k)
{
    return k == StrategyKind::Simpoint ||
           k == StrategyKind::Stratified ||
           k == StrategyKind::RankedSet;
}

u64
SmartsConfig::contentHash() const
{
    ByteWriter w;
    w.put<u64>(k);
    w.put<u64>(munit);
    w.put<u64>(wunit);
    w.put<u8>(allwarm ? 1 : 0);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

u64
StratifiedConfig::contentHash() const
{
    ByteWriter w;
    w.put<u32>(strata);
    w.put<u32>(budget);
    w.put<u32>(pilotStride);
    w.put<u64>(seed);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

u64
RankedSetConfig::contentHash() const
{
    ByteWriter w;
    w.put<u32>(setSize);
    w.put<u32>(cycles);
    w.put<u32>(subsamples);
    w.put<u64>(seed);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

u64
RandomConfig::contentHash() const
{
    ByteWriter w;
    w.put<u32>(n);
    w.put<u64>(seed);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

u64
StrideConfig::contentHash() const
{
    ByteWriter w;
    w.put<u32>(n);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

u64
SamplingConfig::activeHash(const SimPointConfig &simpoint) const
{
    u64 knobs = 0;
    switch (strategy) {
      case StrategyKind::Simpoint:
        knobs = simpoint.contentHash();
        break;
      case StrategyKind::Smarts:
        knobs = smarts.contentHash();
        break;
      case StrategyKind::Stratified:
        knobs = stratified.contentHash();
        break;
      case StrategyKind::RankedSet:
        knobs = rankedSet.contentHash();
        break;
      case StrategyKind::Random:
        knobs = random.contentHash();
        break;
      case StrategyKind::Stride:
        knobs = stride.contentHash();
        break;
    }
    return hashCombine(strategySalt(strategy), knobs);
}

std::unique_ptr<SamplingStrategy>
makeStrategy(const SamplingConfig &cfg,
             const SimPointConfig &simpoint)
{
    switch (cfg.strategy) {
      case StrategyKind::Simpoint:
        return std::make_unique<SimpointStrategy>(simpoint);
      case StrategyKind::Smarts:
        return std::make_unique<SmartsStrategy>(cfg.smarts);
      case StrategyKind::Stratified:
        return std::make_unique<StratifiedStrategy>(cfg.stratified);
      case StrategyKind::RankedSet:
        return std::make_unique<RankedSetStrategy>(cfg.rankedSet);
      case StrategyKind::Random:
        return std::make_unique<RandomStrategy>(cfg.random);
      case StrategyKind::Stride:
        return std::make_unique<StrideStrategy>(cfg.stride);
    }
    SPLAB_FATAL("unknown strategy kind ",
                static_cast<int>(static_cast<u8>(cfg.strategy)));
}

std::unique_ptr<SamplingStrategy>
makeStrategy(const std::string &name, const SamplingConfig &cfg,
             const SimPointConfig &simpoint)
{
    SamplingConfig named = cfg;
    named.strategy = strategyByName(name);
    return makeStrategy(named, simpoint);
}

void
accountSelection(StrategyKind k, const RegionSelection &sel)
{
    std::string base = std::string("sampling.") + strategyName(k);
    obs::counter(base + ".regions_selected",
                 "regions selected by this strategy")
        .add(sel.regions.size());
    if (sel.pilotSlices > 0)
        obs::counter(base + ".pilot_instrs",
                     "pilot-pass instructions charged to the "
                     "reduction factor")
            .add(sel.pilotSlices * sel.sliceInstrs);
    u64 warm = 0;
    for (const Region &r : sel.regions)
        warm += std::min<u64>(r.warmupSlices, r.startSlice);
    if (warm > 0)
        obs::counter(base + ".warmup_instrs_budgeted",
                     "strategy-prescribed warm-up instructions")
            .add(warm * sel.sliceInstrs);
}

RegionSelection
regionsFromSimPoints(const SimPointResult &sp)
{
    RegionSelection sel;
    sel.totalSlices = sp.totalSlices;
    sel.sliceInstrs = sp.sliceInstrs;
    sel.regions.reserve(sp.points.size());
    for (const SimPoint &p : sp.points) {
        Region r;
        r.startSlice = p.slice;
        r.lengthSlices = 1;
        r.count = p.clusterSize;
        r.weight = p.weight; // verbatim; see strategy.hh
        r.cluster = p.cluster;
        sel.regions.push_back(r);
    }
    return sel;
}

SimPointResult
simPointsFromRegions(const RegionSelection &sel)
{
    SimPointResult sp;
    sp.totalSlices = sel.totalSlices;
    sp.sliceInstrs = sel.sliceInstrs;
    sp.chosenK = static_cast<u32>(sel.regions.size());
    sp.points.reserve(sel.regions.size());
    for (const Region &r : sel.regions) {
        SimPoint p;
        p.slice = r.startSlice;
        p.weight = r.weight;
        p.cluster = r.cluster;
        p.clusterSize = r.count;
        sp.points.push_back(p);
    }
    return sp;
}

// Region carries internal padding (u32 cluster before a u64), so
// selections serialize field by field like SimPoints do — memcpying
// the struct would embed uninitialized padding bytes in cached
// blobs.

void
serializeRegions(ByteWriter &w, const RegionSelection &sel)
{
    w.put<u64>(sel.totalSlices);
    w.put<u64>(sel.sliceInstrs);
    w.put<u64>(sel.pilotSlices);
    w.put<u64>(sel.regions.size());
    for (const Region &r : sel.regions) {
        w.put<u64>(r.startSlice);
        w.put<u64>(r.lengthSlices);
        w.put<u64>(r.count);
        w.put<double>(r.weight);
        w.put<u32>(r.cluster);
        w.put<u64>(r.warmupSlices);
    }
}

RegionSelection
deserializeRegions(ByteReader &r)
{
    RegionSelection sel;
    sel.totalSlices = r.get<u64>();
    sel.sliceInstrs = r.get<u64>();
    sel.pilotSlices = r.get<u64>();
    sel.regions.resize(r.get<u64>());
    for (Region &reg : sel.regions) {
        reg.startSlice = r.get<u64>();
        reg.lengthSlices = r.get<u64>();
        reg.count = r.get<u64>();
        reg.weight = r.get<double>();
        reg.cluster = r.get<u32>();
        reg.warmupSlices = r.get<u64>();
    }
    return sel;
}

} // namespace splab
