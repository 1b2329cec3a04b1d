/**
 * @file
 * Unit tests for the support library: RNG, serialization, tables,
 * numeric helpers, environment knobs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <cstdlib>
#include <set>
#include <vector>

#include "support/env.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/stats_util.hh"
#include "support/table.hh"

namespace splab
{
namespace
{

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123, 7, 9);
    Rng b(123, 7, 9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentStreamsDiffer)
{
    Rng a(123, 7);
    Rng b(123, 8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LE(same, 1);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(42);
    for (u64 bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(42);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceThresholdIsExact)
{
    // chanceBelow(chanceThreshold(p)) must draw and decide exactly as
    // chance(p), including at the boundary p == x * 2^-53 of the
    // drawn x, where only a strict "<" gets the answer right.
    std::vector<double> ps = {0.0,
                              -0.0,
                              -0.5,
                              1.0,
                              1.5,
                              std::nan(""),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::denorm_min(),
                              std::ldexp(1.0, -53),
                              std::nextafter(1.0, 0.0),
                              0.6,
                              1.0 / 3.0};
    Rng probe(77);
    for (int i = 0; i < 64; ++i) {
        // Boundary values of the draws the checks below will see.
        double x = static_cast<double>(probe.next() >> 11);
        ps.push_back(std::ldexp(x, -53));
        ps.push_back(std::nextafter(std::ldexp(x, -53), 0.0));
        ps.push_back(std::nextafter(std::ldexp(x, -53), 1.0));
    }
    for (double p : ps) {
        Rng a(77), b(77);
        u64 t = Rng::chanceThreshold(p);
        EXPECT_LE(t, u64{1} << 53) << p;
        for (int i = 0; i < 64; ++i)
            EXPECT_EQ(a.chance(p), b.chanceBelow(t)) << p << " draw " << i;
        EXPECT_EQ(a.next(), b.next()) << "streams diverged at " << p;
    }
}

TEST(Rng, BurstRespectsCap)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        u64 b = r.burst(50.0, 100);
        EXPECT_GE(b, 1u);
        EXPECT_LE(b, 100u);
    }
}

TEST(Rng, Mix64AvalanchesSingleBit)
{
    // Flipping one input bit should flip roughly half the output.
    u64 a = mix64(0x1234);
    u64 b = mix64(0x1235);
    int diff = __builtin_popcountll(a ^ b);
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
}

TEST(SampleCdf, PicksCorrectBuckets)
{
    double cdf[] = {0.1, 0.4, 1.0};
    EXPECT_EQ(sampleCdf(cdf, 3, 0.05), 0u);
    EXPECT_EQ(sampleCdf(cdf, 3, 0.1), 0u);
    EXPECT_EQ(sampleCdf(cdf, 3, 0.25), 1u);
    EXPECT_EQ(sampleCdf(cdf, 3, 0.9), 2u);
    EXPECT_EQ(sampleCdf(cdf, 3, 1.5), 2u); // clamped
}

TEST(HashBytes, StableAndSensitive)
{
    std::string s1 = "623.xalancbmk_s";
    std::string s2 = "623.xalancbmk_r";
    EXPECT_EQ(hashBytes(s1.data(), s1.size()),
              hashBytes(s1.data(), s1.size()));
    EXPECT_NE(hashBytes(s1.data(), s1.size()),
              hashBytes(s2.data(), s2.size()));
}

TEST(Serialize, ScalarRoundTrip)
{
    ByteWriter w;
    w.put<u64>(0xdeadbeefULL);
    w.put<double>(3.25);
    w.put<u8>(7);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get<u64>(), 0xdeadbeefULL);
    EXPECT_EQ(r.get<double>(), 3.25);
    EXPECT_EQ(r.get<u8>(), 7);
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, StringAndVectorRoundTrip)
{
    ByteWriter w;
    w.putString("hello, pinball");
    w.putVector(std::vector<u32>{1, 2, 3, 42});
    w.putString("");
    ByteReader r(w.bytes());
    EXPECT_EQ(r.getString(), "hello, pinball");
    EXPECT_EQ(r.getVector<u32>(), (std::vector<u32>{1, 2, 3, 42}));
    EXPECT_EQ(r.getString(), "");
}

TEST(Serialize, FileRoundTripWithChecksum)
{
    std::string path = testing::TempDir() + "/splab_ser_test.bin";
    ByteWriter w;
    w.put<u64>(99);
    w.putString("persisted");
    ASSERT_TRUE(w.saveFile(path));
    std::optional<ByteReader> tried = ByteReader::tryLoadFile(path);
    ASSERT_TRUE(tried.has_value());
    EXPECT_EQ(tried->get<u64>(), 99u);
    EXPECT_EQ(tried->getString(), "persisted");
    ByteReader r = ByteReader::loadFile(path);
    EXPECT_EQ(r.get<u64>(), 99u);
    EXPECT_EQ(r.getString(), "persisted");
    std::remove(path.c_str());
}

TEST(Serialize, CorruptionDetected)
{
    std::string path = testing::TempDir() + "/splab_corrupt.bin";
    ByteWriter w;
    w.putString("soon to be damaged");
    ASSERT_TRUE(w.saveFile(path));
    // Flip a byte in the middle.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 10, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 10, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
    EXPECT_FALSE(ByteReader::tryLoadFile(path).has_value());
    std::remove(path.c_str());
    // Absent and shorter-than-a-checksum files fail the same way.
    EXPECT_FALSE(ByteReader::tryLoadFile(path).has_value());
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("abc", f);
    std::fclose(f);
    EXPECT_FALSE(ByteReader::tryLoadFile(path).has_value());
    std::remove(path.c_str());
}

TEST(Table, RendersAlignedColumns)
{
    TableWriter t("demo");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"bb", "22222"});
    std::string out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("| alpha |"), std::string::npos);
    EXPECT_NE(out.find("| 22222 |"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials)
{
    CsvWriter c;
    c.header({"a", "b"});
    c.row({"x,y", "he said \"hi\""});
    EXPECT_EQ(c.content(),
              "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPct(0.2516, 2), "25.16%");
    EXPECT_EQ(fmtX(750.34, 1), "750.3x");
    EXPECT_EQ(fmtSi(6873.9e9, 2), "6.87 T");
    EXPECT_EQ(fmtSi(10.4e9, 1), "10.4 B");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(123), "123");
}

TEST(StatsUtil, MeanAndStddev)
{
    std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(StatsUtil, WeightedMean)
{
    EXPECT_DOUBLE_EQ(weightedMean({1.0, 3.0}, {1.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(weightedMean({1.0, 3.0}, {3.0, 1.0}), 1.5);
    EXPECT_DOUBLE_EQ(weightedMean({}, {}), 0.0);
}

TEST(StatsUtil, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(110.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(90.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(5.0, 0.0), 5.0);
}

TEST(StatsUtil, Pearson)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> yUp = {2, 4, 6, 8, 10};
    std::vector<double> yDown = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, yUp), 1.0, 1e-12);
    EXPECT_NEAR(pearson(x, yDown), -1.0, 1e-12);
    EXPECT_DOUBLE_EQ(pearson(x, {1, 1, 1, 1, 1}), 0.0);
}

TEST(Env, NumbersMustSpanTheWholeValue)
{
    // A numeric prefix is not a number: "512M" must not be read as
    // 512.  Rejected values fall back.
    const char *var = "SPLAB_TEST_ENV_NUMBER";
    auto longOf = [&](const char *v) {
        setenv(var, v, 1);
        return envLong(var, -1);
    };
    auto doubleOf = [&](const char *v) {
        setenv(var, v, 1);
        return envDouble(var, -1.0);
    };
    EXPECT_EQ(longOf("4096"), 4096);
    EXPECT_EQ(longOf("512M"), -1);
    EXPECT_EQ(longOf("1.5x"), -1);
    EXPECT_EQ(longOf(" 7 "), 7);
    EXPECT_EQ(longOf(""), -1);
    EXPECT_DOUBLE_EQ(doubleOf("4096"), 4096.0);
    EXPECT_DOUBLE_EQ(doubleOf("512M"), -1.0);
    EXPECT_DOUBLE_EQ(doubleOf("1.5x"), -1.0);
    EXPECT_DOUBLE_EQ(doubleOf(" 7 "), 7.0);
    EXPECT_DOUBLE_EQ(doubleOf(""), -1.0);
    unsetenv(var);
    EXPECT_EQ(envLong(var, -1), -1);
}

} // namespace
} // namespace splab
