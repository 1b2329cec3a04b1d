/**
 * @file
 * Engine microbench: the fused single-pass whole-run measurement
 * (measureWholeFused: allcache + ldstmix + branchprofile + timing +
 * BBV in one traversal) against the same three views measured in
 * separate passes.
 *
 * The comparison asserts byte-equality of the deterministic results
 * and the bench exits nonzero on any mismatch.  (The optimised cache
 * hierarchy and interval core are checked against independent
 * reference models in tests/test_engine_batch.cc.)  Wall times go to
 * the paper-style table, the run manifest's timing notes and a
 * "BENCH_engine.json" baseline for perf tracking; "<binary>.csv"
 * holds only the per-benchmark verdicts.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "bench_util.hh"
#include "cache/hierarchy.hh"
#include "core/runs.hh"
#include "pin/engine.hh"
#include "pin/tools/bbv_tool.hh"
#include "support/env.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// ===================================================================
// Result serialization for the equality checks
// ===================================================================

/** Raw bytes of one metrics struct (padding-free, no wall clock). */
template <typename T>
std::vector<u8>
rawBytes(const T &m)
{
    ByteWriter w;
    w.put(m);
    return w.bytes();
}

bool
bbvsEqual(const std::vector<FrequencyVector> &a,
          const std::vector<FrequencyVector> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s].entries.size() != b[s].entries.size())
            return false;
        for (std::size_t i = 0; i < a[s].entries.size(); ++i)
            if (a[s].entries[i].block != b[s].entries[i].block ||
                a[s].entries[i].weight != b[s].entries[i].weight)
                return false;
    }
    return true;
}

} // namespace
} // namespace splab

int
main(int, char **argv)
{
    using namespace splab;

    // A reduced scale keeps the separate-pass leg quick; override to
    // measure at full size.
    setenv("SPLAB_SCALE", "0.1", 0);
    const ExperimentConfig cfg = ExperimentConfig::paperDefaults();
    const auto benches = suiteNames();
    bool identical = true;

    const unsigned nproc = std::thread::hardware_concurrency();
    const std::size_t poolThreads = ThreadPool::global().threads();
    bench::banner("Engine: fused whole run",
                  "one traversal vs three separate passes");
    std::printf("nproc %u, pool threads %zu, set kernel %s\n\n", nproc,
                poolThreads, activeSetKernel().name);

    bench::ReportSink sink(
        argv[0], "Whole-run measurement, " +
                     std::to_string(benches.size()) +
                     " benchmarks (BBV + cache + timing views)");
    // Timings stay out of the CSV, so its manifest hash is
    // deterministic; they print in the table and land in the
    // manifest's timing section and BENCH_engine.json.
    sink.schema({{"benchmark", "bench"},
                 {"separate x3 (s)", ""},
                 {"fused (s)", ""},
                 {"speedup", ""},
                 {"identical", "identical"}});
    cfg.describe(sink.manifest());

    // Whole-run measurement, two drivers:
    //   separate x3: one pass per view (BBV, cache, timing)
    //   fused: all views in one traversal
    double sepSec = 0.0, fusedSec = 0.0;
    u64 totalInstrs = 0;
    for (const std::string &name : benches) {
        BenchmarkSpec spec = benchmarkByName(name);
        const ICount slice = cfg.simpoint.sliceInstrs;

        CacheRunMetrics cacheOnly;
        TimingRunMetrics timingOnly;
        std::vector<FrequencyVector> bbvsOnly;
        double sep = wallSeconds([&] {
            SyntheticWorkload wb(spec);
            BbvTool bbv(slice);
            Engine e;
            e.attach(&bbv);
            e.runWhole(wb);
            bbvsOnly = bbv.vectors();
            cacheOnly = measureWholeCache(spec, cfg.allcache);
            timingOnly = measureWholeTiming(spec, cfg.machine);
        });

        FusedWholeResult fused;
        double fsd = wallSeconds([&] {
            fused = measureWholeFused(spec, cfg.allcache,
                                      cfg.machine, slice);
        });

        bool same = rawBytes(fused.cache) == rawBytes(cacheOnly) &&
                    rawBytes(fused.timing) == rawBytes(timingOnly) &&
                    bbvsEqual(fused.bbvs, bbvsOnly);
        if (!same)
            std::printf("[FAIL] fused != separate passes on %s\n",
                        name.c_str());
        identical = identical && same;
        sepSec += sep;
        fusedSec += fsd;
        totalInstrs += fused.cache.instrs;
        sink.row({name, fmt(sep, 4), fmt(fsd, 4),
                  fmt(fsd > 0.0 ? sep / fsd : 0.0, 3),
                  same ? "1" : "0"});
    }
    double fusedVsCurrent =
        fusedSec > 0.0 ? sepSec / fusedSec : 0.0;
    auto rate = [&](double sec) {
        return fmt(sec > 0.0 ? totalInstrs / sec / 1e6 : 0.0, 1);
    };
    sink.separator();
    sink.tableOnlyRow({"total", fmt(sepSec, 3), fmt(fusedSec, 3),
                       fmtX(fusedVsCurrent, 2),
                       identical ? "yes" : "NO"});
    sink.tableOnlyRow(
        {"Minstr/s", rate(sepSec), rate(fusedSec), "", ""});
    sink.printTable();

    sink.manifest().setConfig("engine.benchmarks",
                              static_cast<u64>(benches.size()));
    sink.manifest().setTimingNote("engine.separate_sec", sepSec);
    sink.manifest().setTimingNote("engine.fused_sec", fusedSec);
    sink.finish();

    // Default into the CWD (the build tree under ctest); set
    // SPLAB_BENCH_OUT to publish straight to the repo root so the
    // committed baseline tracks the perf trajectory.
    const std::string jsonPath =
        envString("SPLAB_BENCH_OUT", "BENCH_engine.json");
    if (std::FILE *f = std::fopen(jsonPath.c_str(), "w")) {
        std::fprintf(
            f,
            "{\"bench\":\"micro_engine\",\"nproc\":%u,"
            "\"pool_threads\":%zu,\"scale\":%.3g,"
            "\"benchmarks\":%zu,\"total_minstrs\":%.1f,"
            "\"current_sec\":%.4f,\"fused_sec\":%.4f,"
            "\"fused_vs_current\":%.3f,\"set_kernel\":\"%s\","
            "\"identical\":%s}\n",
            nproc, poolThreads, workloadScale(), benches.size(),
            totalInstrs / 1e6, sepSec, fusedSec, fusedVsCurrent,
            activeSetKernel().name, identical ? "true" : "false");
        std::fclose(f);
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    if (!identical) {
        std::printf("[FAIL] fused results differ from the separate "
                    "passes\n");
        return 1;
    }
    return 0;
}
