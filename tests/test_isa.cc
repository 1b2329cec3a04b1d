/**
 * @file
 * Unit tests for instruction taxonomy and mix handling.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/basic_block.hh"
#include "isa/instr.hh"

namespace splab
{
namespace
{

TEST(InstrMix, TotalsAndFractions)
{
    InstrMix m;
    m[MemClass::NoMem] = 50;
    m[MemClass::MemR] = 35;
    m[MemClass::MemW] = 13;
    m[MemClass::MemRW] = 2;
    EXPECT_EQ(m.total(), 100u);
    auto f = m.fractions();
    EXPECT_DOUBLE_EQ(f[0], 0.50);
    EXPECT_DOUBLE_EQ(f[1], 0.35);
    EXPECT_DOUBLE_EQ(f[2], 0.13);
    EXPECT_DOUBLE_EQ(f[3], 0.02);
}

TEST(InstrMix, EmptyFractionsAreZero)
{
    InstrMix m;
    auto f = m.fractions();
    for (double x : f)
        EXPECT_EQ(x, 0.0);
}

TEST(InstrMix, Accumulates)
{
    InstrMix a, b;
    a[MemClass::MemR] = 10;
    b[MemClass::MemR] = 5;
    b[MemClass::NoMem] = 7;
    a += b;
    EXPECT_EQ(a[MemClass::MemR], 15u);
    EXPECT_EQ(a[MemClass::NoMem], 7u);
    EXPECT_EQ(a.total(), 22u);
}

TEST(MemClass, NamesMatchPaper)
{
    EXPECT_EQ(memClassName(MemClass::NoMem), "NO_MEM");
    EXPECT_EQ(memClassName(MemClass::MemR), "MEM_R");
    EXPECT_EQ(memClassName(MemClass::MemW), "MEM_W");
    EXPECT_EQ(memClassName(MemClass::MemRW), "MEM_RW");
}

TEST(MixProfile, NormalizeSumsToOne)
{
    MixProfile p;
    p.noMem = 2.0;
    p.memR = 1.0;
    p.memW = 0.5;
    p.memRW = 0.5;
    p.normalize();
    EXPECT_NEAR(p.noMem + p.memR + p.memW + p.memRW, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(p.noMem, 0.5);
}

TEST(MixProfile, CdfIsMonotoneAndEndsAtOne)
{
    MixProfile p;
    p.normalize();
    auto c = p.cdf();
    EXPECT_GT(c[0], 0.0);
    for (std::size_t i = 1; i < kNumMemClasses; ++i)
        EXPECT_GE(c[i], c[i - 1]);
    EXPECT_NEAR(c[3], 1.0, 1e-12);
}

TEST(StaticBlock, MemOpsCountsRwTwice)
{
    StaticBlock b;
    b.instrs = 100;
    b.mix = {60, 25, 12, 3};
    // 25 reads + 12 writes + 3 read-write pairs = 25+12+6.
    EXPECT_EQ(b.memOps(), 25u + 12u + 6u);
}

} // namespace
} // namespace splab
