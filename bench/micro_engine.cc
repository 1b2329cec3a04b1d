/**
 * @file
 * Engine microbench: the fused single-pass whole-run measurement
 * (measureWholeFused: allcache + ldstmix + branchprofile + timing +
 * BBV in one traversal) against the same three views measured in
 * separate passes, and the SIMD chunk-aggregate kernels against
 * their scalar reference.
 *
 * Both comparisons assert byte-equality of the deterministic results
 * and the bench exits nonzero on any mismatch.  (The optimised cache
 * hierarchy and interval core are checked against independent
 * reference models in tests/test_engine_batch.cc.)  Wall times go to
 * the paper-style tables, "<binary>.csv", the run manifest and a
 * "BENCH_engine.json" baseline for perf tracking.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <thread>

#include "bench_util.hh"
#include "cache/hierarchy.hh"
#include "core/runs.hh"
#include "isa/accumulate.hh"
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

/** Deterministic bytes of cache metrics (wallSeconds excluded). */
std::vector<u8>
cacheBytesNoWall(const CacheRunMetrics &m)
{
    ByteWriter w;
    w.put<u64>(m.instrs);
    for (double f : m.mixFrac)
        w.put<double>(f);
    for (const LevelCounts *lc : {&m.l1i, &m.l1d, &m.l2, &m.l3}) {
        w.put<u64>(lc->accesses);
        w.put<u64>(lc->misses);
    }
    w.put<u64>(m.branches);
    return w.bytes();
}

/** Deterministic bytes of timing metrics (wallSeconds excluded). */
std::vector<u8>
timingBytesNoWall(const TimingRunMetrics &m)
{
    ByteWriter w;
    w.put<u64>(m.instrs);
    w.put<double>(m.cycles);
    w.put<u64>(m.branches);
    w.put<u64>(m.mispredicts);
    w.put<u64>(m.l2Hits);
    w.put<u64>(m.l3Hits);
    w.put<u64>(m.memAccesses);
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
    sink.schema({{"", "section"},
                 {"benchmark", "bench"},
                 {"separate x3 (s)", "current_sec", true},
                 {"fused (s)", "fused_sec", true},
                 {"speedup", "speedup", true},
                 {"identical", "identical"}});
    sink.manifest().recordEnv("SPLAB_SIMD");
    cfg.describe(sink.manifest());

    // ---- Part 1: whole-run measurement, two drivers ----
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

        bool same = cacheBytesNoWall(fused.cache) ==
                        cacheBytesNoWall(cacheOnly) &&
                    timingBytesNoWall(fused.timing) ==
                        timingBytesNoWall(timingOnly) &&
                    bbvsEqual(fused.bbvs, bbvsOnly);
        if (!same)
            std::printf("[FAIL] fused != separate passes on %s\n",
                        name.c_str());
        identical = identical && same;
        sepSec += sep;
        fusedSec += fsd;
        totalInstrs += fused.cache.instrs;
        sink.row({"whole_run", name, fmt(sep, 4), fmt(fsd, 4),
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

    // ---- Part 2: SIMD vs scalar accumulate kernels ----
    // The finalize-pass reductions in isolation, on block arrays
    // shaped like generated chunks; equality is part of the bench
    // contract just like every other section.
    const std::size_t simdBlocks = 1 << 18;
    std::vector<BlockRecord> simdRecs;
    std::vector<u8> simdValid, simdTaken, simdDataDep;
    {
        std::mt19937_64 rng(2017);
        simdRecs.reserve(simdBlocks);
        for (std::size_t i = 0; i < simdBlocks; ++i) {
            BlockRecord r;
            r.bb = static_cast<u32>(rng() % 4096);
            r.pc = rng();
            r.instrs = 1 + static_cast<u32>(rng() % 40);
            for (std::size_t m = 0; m < r.mix.count.size(); ++m)
                r.mix.count[m] = rng() % 17;
            r.fpInstrs = static_cast<u32>(rng() % 9);
            bool hasBr = (rng() & 1) != 0;
            r.endsInBranch = hasBr;
            simdRecs.push_back(r);
            simdValid.push_back(hasBr ? 1 : 0);
            simdTaken.push_back(hasBr && (rng() & 1) ? 1 : 0);
            simdDataDep.push_back(hasBr && (rng() & 1) ? 1 : 0);
        }
    }
    const int simdReps = 40;
    BatchAggregates scalarAgg, simdAgg;
    u64 scalarSink = 0, simdSink = 0;
    double scalarSec = wallSeconds([&] {
        for (int r = 0; r < simdReps; ++r) {
            scalarAgg = accumulateScalar(
                simdRecs.data(), simdRecs.size(), simdValid.data(),
                simdTaken.data(), simdDataDep.data());
            scalarSink ^= scalarAgg.instrs + r;
        }
    });
    double simdSec = wallSeconds([&] {
        for (int r = 0; r < simdReps; ++r) {
            simdAgg = accumulateSimd(
                simdRecs.data(), simdRecs.size(), simdValid.data(),
                simdTaken.data(), simdDataDep.data());
            simdSink ^= simdAgg.instrs + r;
        }
    });
    bool simdSame =
        scalarAgg == simdAgg && scalarSink == simdSink;
    if (!simdSame)
        std::printf("[FAIL] SIMD accumulate != scalar reference\n");
    identical = identical && simdSame;
    double simdSpeedup = simdSec > 0.0 ? scalarSec / simdSec : 0.0;
    sink.csvOnlyRow({"simd", "accumulate", fmt(scalarSec, 4),
                     fmt(simdSec, 4), fmt(simdSpeedup, 3),
                     simdSame ? "1" : "0"});

    TableWriter simdTable(
        "Accumulate kernels, " + std::to_string(simdBlocks) +
        " blocks x " + std::to_string(simdReps) + " reps (" +
        (simdAccumulateCompiled() ? "SSE2" : "scalar-only build") +
        ")");
    simdTable.header(
        {"kernel", "wall (s)", "speedup", "identical"});
    simdTable.row(
        {"scalar", fmt(scalarSec, 3), fmtX(1.0, 2), "-"});
    simdTable.row({"simd", fmt(simdSec, 3), fmtX(simdSpeedup, 2),
                   simdSame ? "yes" : "NO"});
    simdTable.print();

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
            "\"fused_vs_current\":%.3f,"
            "\"simd_compiled\":%s,\"set_kernel\":\"%s\","
            "\"simd_scalar_sec\":%.4f,\"simd_sec\":%.4f,"
            "\"simd_speedup\":%.3f,\"identical\":%s}\n",
            nproc, poolThreads, workloadScale(), benches.size(),
            totalInstrs / 1e6, sepSec, fusedSec, fusedVsCurrent,
            simdAccumulateCompiled() ? "true" : "false",
            activeSetKernel().name, scalarSec,
            simdSec, simdSpeedup, identical ? "true" : "false");
        std::fclose(f);
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    if (!identical) {
        std::printf("[FAIL] fused or SIMD results differ from their "
                    "references\n");
        return 1;
    }
    return 0;
}
