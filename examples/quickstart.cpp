/**
 * @file
 * Quickstart: the whole PinPoints flow on a small synthetic
 * benchmark in ~60 lines of user code.
 *
 *   1. describe a phase-structured workload (BenchmarkSpec)
 *   2. pick simulation points (profileBbvs + pickSimPoints)
 *   3. replay only the simulation points under analysis tools
 *   4. compare the weighted estimate against the full run
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "core/scale.hh"
#include "core/runs.hh"
#include "support/table.hh"

using namespace splab;

int
main()
{
    // 1. A two-phase program: a cache-hostile pointer chase and a
    //    streaming scan, alternating irregularly.
    BenchmarkSpec spec;
    spec.name = "quickstart";
    spec.seed = 2017;
    spec.totalChunks = 20000; // 20M instructions
    PhaseSpec chase;
    chase.name = "chase";
    chase.weight = 0.65;
    chase.kernel = KernelKind::PointerChase;
    chase.workingSetBytes = 2 << 20;
    PhaseSpec scan;
    scan.name = "scan";
    scan.weight = 0.35;
    scan.kernel = KernelKind::Stream;
    scan.workingSetBytes = 8 << 20;
    spec.phases = {chase, scan};
    spec.schedule = ScheduleKind::Markov;
    spec.dwellChunks = 200;

    // 2. SimPoint selection (MaxK = 35, 30M-equivalent slices).
    SimPointConfig cfg;
    SimPointResult points =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);
    std::printf("found %zu simulation points over %llu slices:\n",
                points.points.size(),
                static_cast<unsigned long long>(points.totalSlices));
    for (const auto &p : points.byDescendingWeight())
        std::printf("  slice %6llu  weight %5.1f%%  (cluster %u)\n",
                    static_cast<unsigned long long>(p.slice),
                    p.weight * 100.0, p.cluster);

    // 3. Replay: whole run vs weighted simulation points, under
    //    the Table I hierarchy at model scale.
    HierarchyConfig caches =
        scaleFarCaches(tableIConfig(), scale::kFarCacheDivisor);
    CacheRunMetrics whole = measureWholeCache(spec, caches);
    auto perPoint =
        measurePointsCache(spec, points, caches, 0);
    AggregateCacheMetrics sampled = aggregateCache(perPoint);

    // 4. Compare.
    TableWriter t("whole run vs weighted simulation points");
    t.header({"Metric", "Whole", "Sampled", "note"});
    t.row({"instructions", fmtSi(double(whole.instrs), 1),
           fmtSi(double(sampled.executedInstrs), 1),
           fmtX(double(whole.instrs) /
                double(sampled.executedInstrs), 0) + " fewer"});
    const char *mixName[] = {"NO_MEM", "MEM_R", "MEM_W", "MEM_RW"};
    for (int c = 0; c < 4; ++c)
        t.row({mixName[c], fmtPct(whole.mixFrac[c]),
               fmtPct(sampled.mixFrac[c]), "should match closely"});
    t.row({"L1D miss rate", fmtPct(whole.l1d.missRate()),
           fmtPct(sampled.l1dMissRate), ""});
    t.row({"L3 miss rate", fmtPct(whole.l3.missRate()),
           fmtPct(sampled.l3MissRate),
           "inflated: cold caches (see cache_warmup_study)"});
    t.print();
    return 0;
}
