/**
 * @file
 * Figure 3: sensitivity of SimPoint accuracy to MaxK and slice size,
 * for 623.xalancbmk_s.
 *
 * (a) MaxK in {15, 20, 25, 30, 35} at a 30M-equivalent slice;
 * (b) slice in {15, 25, 30, 50, 100}M-equivalent at MaxK = 35.
 *
 * Metrics (vs the full run): ldstmix instruction distribution and
 * allcache miss rates for the Table I hierarchy at model scale, the
 * same hierarchy for the full run and every swept point.  Paper
 * findings: small MaxK distorts the instruction distribution; small
 * slices inflate miss rates of the far caches (cold-cache effect),
 * larger slices pull L3 miss rates back toward the full run.
 */

#include "bench_util.hh"
#include "core/scale.hh"

using namespace splab;

namespace
{

struct ConfigRow
{
    std::string label;
    AggregateCacheMetrics agg;
};

/**
 * One swept point: the selection comes from a graph over the swept
 * SimPointConfig on @p graph's cache (salted keys, key lock, one
 * persisted profile per slice length), replayed on the same scaled
 * hierarchy as the Full Run row.  The selection's key goes into the
 * manifest, since the row depends on it.
 */
ConfigRow
runConfig(ArtifactGraph &graph, const std::string &name, u32 maxK,
          double sliceM, obs::RunManifest &manifest)
{
    SimPointConfig cfg;
    cfg.maxK = maxK;
    cfg.sliceInstrs = scale::sliceForPaperMillions(sliceM);
    ArtifactGraph g(ExperimentConfig(graph.config()).withSimPoint(cfg),
                    graph.cacheHandle());
    ConfigRow row;
    row.label = "MaxK=" + std::to_string(maxK) + ", slice=" +
                fmt(sliceM, 0) + "M";
    manifest.addArtifact("simpoints/" + name + "@" + row.label,
                         g.artifactKey(name, ArtifactKind::SimPoints));
    auto points = measurePointsCache(g.spec(name), g.simpoints(name),
                                     graph.config().allcache, 0);
    row.agg = aggregateCache(points);
    return row;
}

/** Table text (percent) and CSV value (6 decimals) of one row. */
std::vector<bench::ReportSink::Cell>
cells(const std::string &label, const AggregateCacheMetrics &m)
{
    auto cell = [](double v) {
        return bench::ReportSink::Cell{fmtPct(v), fmt(v, 6)};
    };
    return {label,
            cell(m.mixFrac[0]),
            cell(m.mixFrac[1]),
            cell(m.mixFrac[2]),
            cell(m.mixFrac[3]),
            cell(m.l1dMissRate),
            cell(m.l2MissRate),
            cell(m.l3MissRate)};
}

} // namespace

int
main(int, char **argv)
{
    bench::banner("MaxK and slice-size sensitivity (xalancbmk_s)",
                  "Figure 3(a) and 3(b)");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    const std::string name = "623.xalancbmk_s";

    AggregateCacheMetrics whole =
        wholeAsAggregate(graph.wholeCache(name));

    // The sink's table is Fig 3(a); Fig 3(b) is a second table whose
    // rows continue the same CSV.
    bench::ReportSink sink(argv[0],
                           "Fig 3(a) - varying MaxK (slice = 30M-eq)");
    sink.schema({{"Config", "config"},
                 {"NO_MEM", "no_mem"},
                 {"MEM_R", "mem_r"},
                 {"MEM_W", "mem_w"},
                 {"MEM_RW", "mem_rw"},
                 {"L1D miss", "l1d_miss"},
                 {"L2 miss", "l2_miss"},
                 {"L3 miss", "l3_miss"}});
    graph.config().describe(sink.manifest());
    graph.recordArtifacts(sink.manifest(), {name},
                          {ArtifactKind::WholeCache});
    sink.manifest().setConfig("fig3.benchmark", name);
    sink.manifest().setConfig("fig3.slice_for_maxk_sweep_m",
                              scale::kChosenSliceM);
    sink.manifest().setConfig("fig3.maxk_for_slice_sweep",
                              scale::kChosenMaxK);

    sink.row(cells("Full Run", whole));
    sink.separator();
    for (u32 maxK : scale::kMaxKSweep) {
        ConfigRow row = runConfig(graph, name, maxK,
                                  scale::kChosenSliceM,
                                  sink.manifest());
        sink.row(cells(row.label, row.agg));
    }
    sink.printTable();

    TableWriter tb("Fig 3(b) - varying slice size (MaxK = 35)");
    tb.header({"Config", "NO_MEM", "MEM_R", "MEM_W", "MEM_RW",
               "L1D miss", "L2 miss", "L3 miss"});
    auto emitB = [&](const std::string &label,
                     const AggregateCacheMetrics &m) {
        std::vector<std::string> tr, cr;
        for (const bench::ReportSink::Cell &c : cells(label, m)) {
            tr.push_back(c.table);
            cr.push_back(c.csv);
        }
        tb.row(std::move(tr));
        sink.csvOnlyRow(cr);
    };
    emitB("Full Run", whole);
    tb.separator();
    for (double sliceM : scale::kPaperSliceSweepM) {
        ConfigRow row = runConfig(graph, name, scale::kChosenMaxK,
                                  sliceM, sink.manifest());
        emitB(row.label, row.agg);
    }
    tb.print();

    std::printf("\nExpected shape: instruction-mix errors shrink as "
                "MaxK grows; L3 miss-rate\nerror shrinks as the "
                "slice grows (cold-cache effect fades).\n");
    sink.finish();
    return 0;
}
