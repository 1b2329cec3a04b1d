/**
 * @file
 * The reproduction gate: the paper's headline numbers, as
 * core/headlines defines them, at SPLAB_SCALE=0.1.
 *
 *  (a) At the default SimPoint seed (42) every number matches
 *      BENCH_repro.json within its band.  Known deviations from the
 *      paper carry the paper's value and a reason there, and stay
 *      asserted: a change that closes or widens one fails the gate.
 *  (b) At seeds 42, 1, 2 and 3 the paper's conclusions (PAPER.md
 *      section 1) hold wherever they hold at this scale.
 *
 * One temporary artifact cache serves all four seeds, so the whole
 * runs (which no seed changes) are computed once.  Refreshing
 * BENCH_repro.json is a hand edit: a failing (a) prints every
 * measured value next to its committed band.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/headlines.hh"
#include "obs/json.hh"
#include "support/env.hh"

namespace splab
{
namespace
{

// The graph bakes SPLAB_SCALE in on first use; the committed values
// are at 0.1.
[[maybe_unused]] const bool kScaleSet = [] {
    setenv("SPLAB_SCALE", "0.1", 1);
    return true;
}();

/** Fig 9's percentiles; the first two are Regional and Reduced. */
const double kPercentiles[] = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5};
const u64 kSeeds[] = {42, 1, 2, 3};

struct Headlines
{
    PointCounts points;
    std::vector<SuiteComparison> sweep; ///< one per kPercentiles
    SuiteComparison warm;
    CpiComparison cpi;
};

Headlines
measure(std::shared_ptr<const ArtifactCache> cache, u64 seed)
{
    ArtifactGraph g(ExperimentConfig::paperDefaults().withSeed(seed),
                    std::move(cache));
    const std::vector<std::string> names = suiteNames();
    g.runSuite(names,
               {ArtifactKind::SimPoints, ArtifactKind::WholeCache,
                ArtifactKind::PointsCacheCold,
                ArtifactKind::PointsCacheWarm, ArtifactKind::Native,
                ArtifactKind::PointsTiming});
    Headlines h;
    h.points = countPoints(g, names);
    for (double q : kPercentiles)
        h.sweep.push_back(compareSuite(g, names, Replay::Cold, q));
    h.warm = compareSuite(g, names, Replay::Warm);
    h.cpi = compareCpi(g, names);
    return h;
}

/** The numbers BENCH_repro.json commits, by name; errors in %. */
std::map<std::string, double>
named(const Headlines &h)
{
    const SuiteComparison &r = h.sweep[0], &rr = h.sweep[1],
                          &p50 = h.sweep.back();
    return {
        {"table2.avg_points", h.points.points},
        {"table2.avg_points90", h.points.points90},
        {"fig5.regional.instr_reduction_x", r.instrReduction},
        {"fig5.regional.time_reduction_x", r.timeReduction},
        {"fig5.regional.minutes", r.seconds / 60},
        {"fig5.reduced.instr_reduction_x", rr.instrReduction},
        {"fig5.reduced.time_reduction_x", rr.timeReduction},
        {"fig5.reduced.minutes", rr.seconds / 60},
        {"fig7.regional.mix_err_pct", r.err.mix * 100},
        {"fig7.reduced.mix_err_pct", rr.err.mix * 100},
        {"fig8.regional.l1d_err_pct", r.err.l1d * 100},
        {"fig8.regional.l2_err_pct", r.err.l2 * 100},
        {"fig8.regional.l3_err_pct", r.err.l3 * 100},
        {"fig8.reduced.l1d_err_pct", rr.err.l1d * 100},
        {"fig8.reduced.l2_err_pct", rr.err.l2 * 100},
        {"fig8.reduced.l3_err_pct", rr.err.l3 * 100},
        {"fig8.warmup.l1d_err_pct", h.warm.err.l1d * 100},
        {"fig8.warmup.l2_err_pct", h.warm.err.l2 * 100},
        {"fig8.warmup.l3_err_pct", h.warm.err.l3 * 100},
        {"fig9.p50.mix_err_pct", p50.err.mix * 100},
        {"fig9.p50.l3_err_pct", p50.err.l3 * 100},
        {"fig9.p50.minutes", p50.seconds / 60},
        {"fig9.p50.points", p50.points},
        {"fig10.l3_reduction_x", r.l3Reduction},
        {"fig12.regional.cpi_err_pct", h.cpi.errRegional * 100},
        {"fig12.reduced.cpi_err_pct", h.cpi.errReduced * 100},
        {"fig12.r", h.cpi.r},
    };
}

class ReproCheck : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        std::string dir = testing::TempDir() + "/splab-repro-" +
                          std::to_string(::getpid());
        std::filesystem::remove_all(dir);
        auto cache = std::make_shared<const ArtifactCache>(
            ArtifactCache(dir));
        for (u64 seed : kSeeds)
            results[seed] = measure(cache, seed);
        std::filesystem::remove_all(dir);
    }

    static std::map<u64, Headlines> results;
};

std::map<u64, Headlines> ReproCheck::results;

TEST_F(ReproCheck, DefaultSeedMatchesCommittedValues)
{
    std::ifstream in(SPLAB_REPRO_JSON);
    std::stringstream text;
    text << in.rdbuf();
    std::optional<obs::JsonValue> doc = obs::parseJson(text.str());
    ASSERT_TRUE(doc) << "cannot parse " << SPLAB_REPRO_JSON;
    const obs::JsonValue *values = doc->find("values");
    ASSERT_TRUE(values && values->isArray());
    const obs::JsonValue *scale = doc->find("scale");
    ASSERT_TRUE(scale && scale->asDouble() == workloadScale());

    std::map<std::string, double> measured = named(results.at(42));
    std::string report;
    bool ok = true;
    for (std::size_t i = 0; i < values->size(); ++i) {
        const obs::JsonValue &v = values->at(i);
        ASSERT_TRUE(v.find("name") && v.find("value") && v.find("band"))
            << "entry " << i << " needs name, value and band";
        const std::string &name = v.find("name")->asString();
        double want = v.find("value")->asDouble();
        double band = v.find("band")->asDouble();
        ASSERT_EQ(measured.count(name), 1u) << "unknown " << name;
        double got = measured[name];
        bool in = std::fabs(got - want) <= band;
        char line[160];
        std::snprintf(line, sizeof line,
                      "  %-34s %10.4f  want %.4f +- %g%s\n",
                      name.c_str(), got, want, band,
                      in ? "" : "  FAIL");
        report += line;
        ok = ok && in;
        measured.erase(name);
        // A known deviation keeps the paper's value outside its band
        // and says why.
        if (const obs::JsonValue *paper = v.find("paper")) {
            EXPECT_GT(std::fabs(paper->asDouble() - want), band)
                << name;
            const obs::JsonValue *reason = v.find("reason");
            EXPECT_TRUE(reason && !reason->asString().empty()) << name;
        }
    }
    EXPECT_TRUE(ok) << "seed 42 at SPLAB_SCALE=0.1:\n" << report;
    for (const auto &[name, got] : measured)
        ADD_FAILURE() << name << " = " << got
                      << " has no entry in BENCH_repro.json";
}

TEST_F(ReproCheck, PaperConclusionsHoldAtEverySeed)
{
    for (const auto &[seed, h] : results) {
        SCOPED_TRACE("SimPoint seed " + std::to_string(seed));
        const SuiteComparison &r = h.sweep[0], &rr = h.sweep[1];
        // Fig 7: sampling keeps the instruction mix.
        EXPECT_LT(r.err.mix, 0.01);
        // Fig 8: warming collapses the LLC error; L2 stays small.
        EXPECT_LT(h.warm.err.l3, r.err.l3 / 3);
        EXPECT_LT(r.err.l2, 0.02);
        EXPECT_LT(h.warm.err.l2, 0.02);
        // Fig 5: the 90th-percentile cut buys more reduction.
        EXPECT_GT(rr.instrReduction, r.instrReduction);
        // Fig 9: dropping points raises the mix error and cuts time
        // and points at every step.  L1D and L2 error are not
        // monotone at this scale, and L3 only end to end.
        for (std::size_t i = 1; i < h.sweep.size(); ++i) {
            SCOPED_TRACE("percentile " +
                         std::to_string(kPercentiles[i]));
            EXPECT_GE(h.sweep[i].err.mix, h.sweep[i - 1].err.mix);
            EXPECT_LE(h.sweep[i].seconds, h.sweep[i - 1].seconds);
            EXPECT_LE(h.sweep[i].points, h.sweep[i - 1].points);
        }
        EXPECT_GE(h.sweep.back().err.l3, r.err.l3);
        // Fig 10: the whole run touches the L3 far more often.  At
        // scale 0.1 the whole run shrinks tenfold and regions do
        // not, so 624x at scale 1 reads ~70x here.
        EXPECT_GE(r.l3Reduction, 50.0);
        // Fig 12: Regional CPI tracks native execution.
        EXPECT_LT(h.cpi.errRegional, 0.05);
        EXPECT_GT(h.cpi.r, 0.95);
    }
}

} // namespace
} // namespace splab
