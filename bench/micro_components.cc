/**
 * @file
 * Component micro-benchmarks (google-benchmark): engine throughput,
 * cache access, k-means, random projection, branch predictor; plus
 * the projection-dimension ablation called out in DESIGN.md.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "pin/engine.hh"
#include "pin/tools/allcache.hh"
#include "pin/tools/bbv_tool.hh"
#include "simpoint/kmeans.hh"
#include "simpoint/projection.hh"
#include "support/rng.hh"
#include "timing/branch_predictor.hh"
#include "timing/interval_core.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

BenchmarkSpec
microSpec(u64 chunks)
{
    BenchmarkSpec s;
    s.name = "micro";
    s.seed = 7;
    s.totalChunks = chunks;
    s.chunkLen = 1000;
    PhaseSpec a;
    a.weight = 0.5;
    a.kernel = KernelKind::ZipfHotCold;
    a.workingSetBytes = 8 << 20;
    PhaseSpec b;
    b.weight = 0.5;
    b.kernel = KernelKind::Stream;
    b.workingSetBytes = 32 << 20;
    s.phases = {a, b};
    s.schedule = ScheduleKind::Markov;
    s.dwellChunks = 60;
    return s;
}

/** Discards all events; measures raw generation speed. */
class NullTool : public PinTool
{
  public:
    explicit NullTool(bool mem) : mem(mem) {}
    const char *name() const override { return "null"; }
    bool wantsMemory() const override { return mem; }
    void
    onBatch(const EventBatch &batch) override
    {
        for (const BlockRecord &rec : batch.blocks())
            instrs += rec.instrs;
    }
    ICount instrs = 0;
    bool mem;
};

void
BM_EngineMixOnly(benchmark::State &state)
{
    SyntheticWorkload wl(microSpec(1000));
    NullTool tool(false);
    Engine engine;
    engine.attach(&tool);
    for (auto _ : state)
        engine.run(wl, 0, 1000);
    state.SetItemsProcessed(static_cast<int64_t>(tool.instrs));
}
BENCHMARK(BM_EngineMixOnly)->Unit(benchmark::kMillisecond);

void
BM_EngineWithAddresses(benchmark::State &state)
{
    SyntheticWorkload wl(microSpec(1000));
    NullTool tool(true);
    Engine engine;
    engine.attach(&tool);
    for (auto _ : state)
        engine.run(wl, 0, 1000);
    state.SetItemsProcessed(static_cast<int64_t>(tool.instrs));
}
BENCHMARK(BM_EngineWithAddresses)->Unit(benchmark::kMillisecond);

void
BM_EngineAllCache(benchmark::State &state)
{
    SyntheticWorkload wl(microSpec(1000));
    AllCacheTool cache(tableIConfig());
    Engine engine;
    engine.attach(&cache);
    ICount instrs = 0;
    for (auto _ : state)
        instrs += engine.run(wl, 0, 1000);
    state.SetItemsProcessed(static_cast<int64_t>(instrs));
}
BENCHMARK(BM_EngineAllCache)->Unit(benchmark::kMillisecond);

void
BM_EngineTiming(benchmark::State &state)
{
    SyntheticWorkload wl(microSpec(1000));
    IntervalCoreTool core(tableIIIMachine());
    Engine engine;
    engine.attach(&core);
    ICount instrs = 0;
    for (auto _ : state)
        instrs += engine.run(wl, 0, 1000);
    state.SetItemsProcessed(static_cast<int64_t>(instrs));
}
BENCHMARK(BM_EngineTiming)->Unit(benchmark::kMillisecond);

void
BM_CacheAccess(benchmark::State &state)
{
    SetAssocCache cache({"l1", 32 * 1024, 8, 64});
    Rng rng(1);
    std::vector<Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.next() & ((1 << 22) - 1);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i & 4095], false));
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_PredictorUpdate(benchmark::State &state)
{
    TournamentPredictor p(14);
    Rng rng(2);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            p.update(0x400000 + (i % 64) * 16, (i & 7) != 0));
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PredictorUpdate);

void
BM_Projection(benchmark::State &state)
{
    RandomProjection proj(static_cast<u32>(state.range(0)), 5);
    FrequencyVector v;
    Rng rng(3);
    for (u32 b = 0; b < 64; ++b)
        v.entries.push_back({b * 3, static_cast<float>(
                                        rng.uniform())});
    std::vector<double> out;
    for (auto _ : state) {
        proj.project(v, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// Ablation: SimPoint's 15 dims vs cheaper/richer projections.
BENCHMARK(BM_Projection)->Arg(5)->Arg(15)->Arg(30);

void
BM_KMeans(benchmark::State &state)
{
    const u32 k = static_cast<u32>(state.range(0));
    Rng rng(4);
    std::vector<std::vector<double>> pts(2000,
                                         std::vector<double>(15));
    for (auto &p : pts)
        for (auto &x : p)
            x = rng.uniform(-1.0, 1.0);
    DenseMatrix m = DenseMatrix::fromRows(pts);
    for (auto _ : state) {
        KMeansResult r = kmeansFit(m, k, 1, 20);
        benchmark::DoNotOptimize(r.distortion);
    }
}
BENCHMARK(BM_KMeans)->Arg(8)->Arg(20)->Arg(35)
    ->Unit(benchmark::kMillisecond);

void
BM_BbvProfiling(benchmark::State &state)
{
    SyntheticWorkload wl(microSpec(2000));
    for (auto _ : state) {
        BbvTool bbv(10000);
        Engine engine;
        engine.attach(&bbv);
        engine.run(wl, 0, 2000);
        benchmark::DoNotOptimize(bbv.vectors().size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 2000 * 1000);
}
BENCHMARK(BM_BbvProfiling)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace splab

BENCHMARK_MAIN();
