/**
 * @file
 * Clustering microbench: pickSimPoints (the lane-parallel block
 * kernel for every nearest-centroid assignment, the tile kernel for
 * k-means++ seeding, and Lloyd's first assignment taken from the
 * seeding scan) against pickSimPointsReference (the scalar scans),
 * on the paper-default BIC k-sweep and finalize over real
 * per-benchmark BBV profiles.
 *
 * Always runs in check mode: every comparison byte-compares the
 * serialized SimPointResult (assignments, centroid doubles, sweep
 * diagnostics) of both paths and the bench exits nonzero on any
 * mismatch — the acceleration contract is exact equality, not
 * approximation.  Wall times and distance counts go to the
 * paper-style table, "<binary>.csv" and a "BENCH_kmeans.json"
 * baseline for perf tracking, which also records the core count,
 * the pool size, SPLAB_SCALE and the tile-kernel build that ran.
 * The run manifest ("<binary>.manifest.json", unless
 * SPLAB_MANIFEST=0) carries the configuration, the scale, the tile
 * kernel and the check verdict, with the core count and pool size
 * in its timing section.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/runs.hh"
#include "obs/counters.hh"
#include "simpoint/simpoint.hh"
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

/** Delta of the kmeans.distances_computed counter across @p fn. */
u64
distancesComputed(const std::function<void()> &fn)
{
    obs::Counter &c = obs::counter("kmeans.distances_computed");
    u64 c0 = c.value();
    fn();
    return c.value() - c0;
}

std::vector<u8>
simpointBytes(const SimPointResult &r)
{
    ByteWriter w;
    serializeSimPoints(w, r);
    return w.bytes();
}

} // namespace
} // namespace splab

int
main(int, char **argv)
{
    using namespace splab;

    // A reduced scale keeps the brute-force leg tolerable; override
    // to measure at full size.
    setenv("SPLAB_SCALE", "0.1", 0);
    const ExperimentConfig cfg = ExperimentConfig::paperDefaults();
    const auto benches = suiteNames();
    bool identical = true;

    const unsigned nproc = std::thread::hardware_concurrency();
    const std::size_t poolThreads = ThreadPool::global().threads();
    const char *kernel = activeTileKernel().name;
    bench::banner("k-means: block kernel",
                  "SimPoint selection (BIC k-sweep, k = 1.." +
                      std::to_string(cfg.simpoint.maxK) +
                      ", and finalize) vs the scalar scans");
    std::printf("nproc %u, pool threads %zu, tile kernel %s\n\n",
                nproc, poolThreads, kernel);

    CsvWriter csv;
    csv.header({"bench", "slices", "brute_sec", "accel_sec",
                "speedup", "identical"});

    // The paper's whole methodology per benchmark: sub-sampled BIC
    // k-sweep, restarts, merge pass, whole-run slice assignment.
    double bruteSec = 0.0, accelSec = 0.0;
    u64 bruteWork = 0, accelWork = 0;
    u64 totalSlices = 0;
    for (const std::string &name : benches) {
        BenchmarkSpec spec = benchmarkByName(name);
        auto bbvs = profileBbvs(spec, cfg.simpoint.sliceInstrs);
        totalSlices += bbvs.size();

        SimPointResult brute, accel;
        double bs = wallSeconds([&] {
            bruteWork += distancesComputed([&] {
                brute = pickSimPointsReference(bbvs, cfg.simpoint);
            });
        });
        double as = wallSeconds([&] {
            accelWork += distancesComputed(
                [&] { accel = pickSimPoints(bbvs, cfg.simpoint); });
        });

        bool same = simpointBytes(brute) == simpointBytes(accel);
        if (!same)
            std::printf("[FAIL] accel selection != brute on %s\n",
                        name.c_str());
        identical = identical && same;
        bruteSec += bs;
        accelSec += as;
        csv.row({name, std::to_string(bbvs.size()), fmt(bs, 4),
                 fmt(as, 4), fmt(as > 0.0 ? bs / as : 0.0, 3),
                 same ? "1" : "0"});
    }
    double speedup = accelSec > 0.0 ? bruteSec / accelSec : 0.0;

    TableWriter table(
        "SimPoint selection, " + std::to_string(benches.size()) +
        " benchmarks (BIC k-sweep, maxK = " +
        std::to_string(cfg.simpoint.maxK) + ", " +
        std::to_string(totalSlices) + " slices)");
    table.header({"scan", "wall (s)", "distances", "speedup",
                  "identical"});
    table.row({"scalar", fmt(bruteSec, 3), fmtCount(bruteWork),
               fmtX(1.0, 2), "-"});
    table.row({std::string("block kernel (") + kernel + ")",
               fmt(accelSec, 3), fmtCount(accelWork),
               fmtX(speedup, 2), identical ? "yes" : "NO"});
    table.print();

    bench::saveCsv(csv, argv[0]);

    // Default into the CWD (the build tree under ctest); set
    // SPLAB_BENCH_OUT to publish straight to the repo root so the
    // committed baseline tracks the perf trajectory.
    const std::string jsonPath =
        envString("SPLAB_BENCH_OUT", "BENCH_kmeans.json");
    if (std::FILE *f = std::fopen(jsonPath.c_str(), "w")) {
        std::fprintf(
            f,
            "{\"bench\":\"micro_kmeans\",\"nproc\":%u,"
            "\"pool_threads\":%zu,\"scale\":%.3g,"
            "\"tile_kernel\":\"%s\",\"benchmarks\":%zu,"
            "\"max_k\":%u,\"slices\":%llu,"
            "\"sweep_brute_sec\":%.4f,\"sweep_accel_sec\":%.4f,"
            "\"sweep_speedup\":%.3f,"
            "\"brute_distances\":%llu,\"accel_distances\":%llu,"
            "\"identical\":%s}\n",
            nproc, poolThreads, workloadScale(), kernel,
            benches.size(), cfg.simpoint.maxK,
            static_cast<unsigned long long>(totalSlices), bruteSec,
            accelSec, speedup,
            static_cast<unsigned long long>(bruteWork),
            static_cast<unsigned long long>(accelWork),
            identical ? "true" : "false");
        std::fclose(f);
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    obs::RunManifest mani(bench::toolName(argv[0]));
    mani.recordEnv("SPLAB_SCALE");
    cfg.describe(mani);
    mani.setConfig("kmeans.scale", workloadScale());
    mani.setConfig("kmeans.tile_kernel", kernel);
    mani.setConfig("kmeans.identical", identical);
    mani.setTimingNote("kmeans.nproc", nproc);
    mani.setTimingNote("kmeans.pool_threads",
                       static_cast<double>(poolThreads));
    bench::emitObservability(argv[0], mani);

    if (!identical) {
        std::printf("[FAIL] accelerated clustering differs from the "
                    "brute-force path\n");
        return 1;
    }
    return 0;
}
