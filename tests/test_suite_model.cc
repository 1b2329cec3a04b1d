/**
 * @file
 * Tests for the SPEC CPU2017 suite model: Table II encoding, weight
 * design and generated benchmark structure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "workload/suite.hh"
#include "workload/synthetic.hh"

namespace splab
{
namespace
{

TEST(SuiteTable, HasTheTwentyNineBenchmarksOfTableII)
{
    const auto &table = suiteTable();
    EXPECT_EQ(table.size(), 29u);
    std::set<std::string> names;
    for (const auto &e : table)
        names.insert(e.name);
    EXPECT_EQ(names.size(), 29u);
    EXPECT_TRUE(names.count("623.xalancbmk_s"));
    EXPECT_TRUE(names.count("503.bwaves_r"));
    EXPECT_TRUE(names.count("500.perlbench_r"));
}

TEST(SuiteTable, TableIIAveragesMatchPaper)
{
    // Paper Table II: averages 19.75 simulation points and 11.31
    // 90th-percentile points (rounded to 2 decimals over 29 rows...
    // the paper prints the column means).
    double sp = 0.0, p90 = 0.0;
    for (const auto &e : suiteTable()) {
        sp += e.simPoints;
        p90 += e.points90;
    }
    sp /= suiteTable().size();
    p90 /= suiteTable().size();
    EXPECT_NEAR(sp, 19.75, 0.5);
    EXPECT_NEAR(p90, 11.31, 0.5);
}

TEST(SuiteTable, PaperRowsSpotCheck)
{
    EXPECT_EQ(suiteEntry("623.xalancbmk_s").simPoints, 25);
    EXPECT_EQ(suiteEntry("623.xalancbmk_s").points90, 19);
    EXPECT_EQ(suiteEntry("620.omnetpp_s").simPoints, 3);
    EXPECT_EQ(suiteEntry("620.omnetpp_s").points90, 2);
    EXPECT_EQ(suiteEntry("503.bwaves_r").simPoints, 26);
    EXPECT_EQ(suiteEntry("503.bwaves_r").points90, 7);
}

TEST(SuiteTable, UnknownBenchmarkIsFatal)
{
    EXPECT_DEATH((void)suiteEntry("999.bogus_r"),
                 "unknown benchmark");
}

TEST(DesignWeights, HitsTheTargetCoverageCount)
{
    struct Case
    {
        int n, m90;
    };
    for (Case c : {Case{26, 7}, Case{25, 4}, Case{12, 10},
                   Case{23, 19}, Case{18, 11}, Case{15, 5},
                   Case{3, 2}, Case{21, 16}}) {
        auto w = designWeights(c.n, c.m90);
        ASSERT_EQ(static_cast<int>(w.size()), c.n);
        EXPECT_EQ(coverageCount(w, 0.9), c.m90)
            << "n=" << c.n << " m90=" << c.m90;
        double sum = 0.0;
        for (double x : w) {
            EXPECT_GT(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(DesignWeights, EveryTableIIRowIsRealizable)
{
    for (const auto &e : suiteTable()) {
        if (std::string(e.name) == "503.bwaves_r")
            continue; // custom profile
        auto w = designWeights(e.simPoints, e.points90);
        EXPECT_EQ(coverageCount(w, 0.9), e.points90) << e.name;
    }
}

TEST(CoverageCount, BasicBehaviour)
{
    EXPECT_EQ(coverageCount({0.6, 0.3, 0.1}, 0.9), 2);
    EXPECT_EQ(coverageCount({0.25, 0.25, 0.25, 0.25}, 0.9), 4);
    EXPECT_EQ(coverageCount({1.0}, 0.9), 1);
    // Order independence.
    EXPECT_EQ(coverageCount({0.1, 0.6, 0.3}, 0.9), 2);
}

TEST(MakeBenchmark, StructureMatchesEntry)
{
    const SuiteEntry &e = suiteEntry("623.xalancbmk_s");
    BenchmarkSpec spec = makeBenchmark(e);
    EXPECT_EQ(spec.name, "623.xalancbmk_s");
    EXPECT_EQ(static_cast<int>(spec.phases.size()), e.simPoints);
    EXPECT_EQ(spec.totalChunks, e.slices * 10);
    double sum = 0.0;
    for (const auto &p : spec.phases)
        sum += p.weight;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MakeBenchmark, DeterministicAcrossCalls)
{
    BenchmarkSpec a = benchmarkByName("505.mcf_r");
    BenchmarkSpec b = benchmarkByName("505.mcf_r");
    EXPECT_EQ(a.contentHash(), b.contentHash());
}

TEST(MakeBenchmark, DistinctBenchmarksDiffer)
{
    EXPECT_NE(benchmarkByName("505.mcf_r").contentHash(),
              benchmarkByName("605.mcf_s").contentHash());
}

TEST(MakeBenchmark, BwavesHasDominantPhase)
{
    BenchmarkSpec spec = benchmarkByName("503.bwaves_r");
    double maxW = 0.0, top3 = 0.0;
    std::vector<double> ws;
    for (const auto &p : spec.phases)
        ws.push_back(p.weight);
    std::sort(ws.begin(), ws.end(), std::greater<>());
    maxW = ws[0];
    top3 = ws[0] + ws[1] + ws[2];
    // Section IV-C: one point ~60%, top three ~80%.
    EXPECT_NEAR(maxW, 0.60, 0.02);
    EXPECT_NEAR(top3, 0.80, 0.02);
}

TEST(MakeBenchmark, DomainsShapeTheMix)
{
    // FP benchmarks carry meaningful FP fractions; INT ones do not.
    BenchmarkSpec fp = benchmarkByName("519.lbm_r");
    BenchmarkSpec intb = benchmarkByName("541.leela_r");
    double fpShare = 0.0, intShare = 0.0;
    for (const auto &p : fp.phases)
        fpShare += p.fpFraction;
    for (const auto &p : intb.phases)
        intShare += p.fpFraction;
    fpShare /= fp.phases.size();
    intShare /= intb.phases.size();
    EXPECT_GT(fpShare, 0.3);
    EXPECT_LT(intShare, 0.12);
}

TEST(MakeBenchmark, SpecsAreExecutable)
{
    // Construct + run a short window of every suite benchmark.
    for (const auto &e : suiteTable()) {
        BenchmarkSpec spec = makeBenchmark(e);
        SyntheticWorkload wl(spec);
        class NullSink : public EventSink
        {
          public:
            void
            onBatch(const EventBatch &batch) override
            {
                for (const BlockRecord &r : batch.blocks())
                    instrs += r.instrs;
            }
            ICount instrs = 0;
        } sink;
        wl.run(0, 20, sink, true);
        EXPECT_EQ(sink.instrs, 20u * spec.chunkLen) << e.name;
    }
}

TEST(Spec2017Suite, ReturnsAllSpecsInOrder)
{
    auto suite = spec2017Suite();
    ASSERT_EQ(suite.size(), suiteTable().size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, suiteTable()[i].name);
}

} // namespace
} // namespace splab
