/**
 * @file
 * Unit tests for the deterministic fork-join layer: full index
 * coverage, index-ordered collection, exception propagation, empty
 * ranges, nesting, and the fixed-chunk decomposition that underpins
 * bit-identical parallel reductions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "support/thread_pool.hh"

namespace splab
{
namespace
{

TEST(ThreadPool, ForEachVisitsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> visits(n);
    std::function<void(std::size_t)> fn = [&](std::size_t i) {
        visits[i].fetch_add(1);
    };
    pool.forEach(n, fn);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    ThreadPool pool(4);
    bool ran = false;
    std::function<void(std::size_t)> fn = [&](std::size_t) {
        ran = true;
    };
    pool.forEach(0, fn);
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::thread::id self = std::this_thread::get_id();
    std::function<void(std::size_t)> fn = [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    };
    pool.forEach(64, fn);
}

TEST(ThreadPool, ParallelMapCollectsByIndex)
{
    ThreadPool::setGlobalThreads(4);
    auto out = parallelMap<std::size_t>(
        1000, [](std::size_t i) { return i * i; });
    ThreadPool::setGlobalThreads(0);
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, LowestIndexExceptionPropagates)
{
    ThreadPool pool(4);
    std::function<void(std::size_t)> fn = [](std::size_t i) {
        if (i == 3 || i == 700)
            throw std::runtime_error("boom " + std::to_string(i));
    };
    // Completion order varies across runs; the rethrown exception
    // must still deterministically be the lowest failing index.
    try {
        pool.forEach(1000, fn);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 3");
    }
}

TEST(ThreadPool, PoolSurvivesAnException)
{
    ThreadPool pool(4);
    std::function<void(std::size_t)> bad = [](std::size_t) {
        throw std::runtime_error("x");
    };
    EXPECT_THROW(pool.forEach(8, bad), std::runtime_error);
    std::atomic<int> count{0};
    std::function<void(std::size_t)> good = [&](std::size_t) {
        count.fetch_add(1);
    };
    pool.forEach(100, good);
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedForEachRunsInlineWithoutDeadlock)
{
    ThreadPool::setGlobalThreads(4);
    constexpr std::size_t outer = 16, inner = 32;
    std::vector<std::vector<int>> hits(
        outer, std::vector<int>(inner, 0));
    parallelFor(outer, [&](std::size_t o) {
        parallelFor(inner, [&](std::size_t i) { ++hits[o][i]; });
    });
    ThreadPool::setGlobalThreads(0);
    for (const auto &row : hits)
        for (int h : row)
            EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ConcurrentOutsideSubmittersEachGetTheirIndices)
{
    // Several non-pool threads submit at once.  One of them holds the
    // pool's job slot, the rest run inline; either way every call
    // must run each of its own indices exactly once.
    ThreadPool::setGlobalThreads(4);
    constexpr std::size_t submitters = 4, rounds = 300, n = 64;
    std::atomic<std::size_t> wrong{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t r = 0; r < rounds; ++r) {
                const std::size_t tag = (t * rounds + r) * n;
                std::vector<std::size_t> out(n, 0);
                parallelFor(n, [&](std::size_t i) {
                    out[i] += tag + i + 1;
                });
                for (std::size_t i = 0; i < n; ++i)
                    if (out[i] != tag + i + 1)
                        wrong.fetch_add(1);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(wrong.load(), 0u);
}

TEST(ThreadPool, SetGlobalThreadsResizesPool)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(parallelThreads(), 3u);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(parallelThreads(), 1u);
    ThreadPool::setGlobalThreads(0);
    EXPECT_GE(parallelThreads(), 1u);
}

TEST(FixedChunks, CoversRangeExactlyOnce)
{
    for (std::size_t n : {0ul, 1ul, 255ul, 256ul, 257ul, 10000ul}) {
        auto chunks = fixedChunks(n, 256);
        std::size_t covered = 0;
        std::size_t expectedBegin = 0;
        for (const auto &c : chunks) {
            EXPECT_EQ(c.begin, expectedBegin);
            EXPECT_GT(c.end, c.begin);
            covered += c.size();
            expectedBegin = c.end;
        }
        EXPECT_EQ(covered, n);
        if (!chunks.empty()) {
            EXPECT_EQ(chunks.back().end, n);
        }
    }
}

TEST(FixedChunks, DecompositionIgnoresThreadCount)
{
    // The property the determinism contract rests on: the chunk
    // boundaries are a pure function of (n, chunkSize).
    auto a = fixedChunks(12345, 512);
    ThreadPool::setGlobalThreads(7);
    auto b = fixedChunks(12345, 512);
    ThreadPool::setGlobalThreads(0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
    }
}

TEST(FixedChunks, ChunkOrderReductionIsThreadCountInvariant)
{
    // End-to-end miniature of the pattern used by k-means and
    // finalize: per-chunk partial sums reduced in chunk order must
    // be bit-identical for 1, 2 and 8 threads.
    std::vector<double> xs(40000);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = 1.0 / (1.0 + static_cast<double>(i));

    auto sumWithThreads = [&](std::size_t t) {
        ThreadPool::setGlobalThreads(t);
        auto chunks = fixedChunks(xs.size(), 256);
        std::vector<double> partial(chunks.size(), 0.0);
        parallelFor(chunks.size(), [&](std::size_t ci) {
            double s = 0.0;
            for (std::size_t i = chunks[ci].begin;
                 i < chunks[ci].end; ++i)
                s += xs[i];
            partial[ci] = s;
        });
        double total = 0.0;
        for (double p : partial)
            total += p;
        return total;
    };
    double s1 = sumWithThreads(1);
    double s2 = sumWithThreads(2);
    double s8 = sumWithThreads(8);
    ThreadPool::setGlobalThreads(0);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s8);
}

} // namespace
} // namespace splab
