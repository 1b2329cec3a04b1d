/**
 * @file
 * ArtifactCache publish tests: N forked writers racing store() of
 * one key must leave exactly one healthy blob, forked
 * plain stores must all land, loads racing re-stores of one key must
 * only ever see the whole blob, and loads (hits and misses alike)
 * must leave every file in the directory untouched.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/artifact_cache.hh"
#include "support/serialize.hh"

namespace splab
{
namespace
{

namespace fs = std::filesystem;

/** Fresh cache directory under the gtest scratch root. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "/splab-cache-" + tag;
    fs::remove_all(dir);
    return dir;
}

std::vector<u8>
patternBytes(std::size_t n, u8 seed)
{
    std::vector<u8> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<u8>(seed + i * 7);
    return v;
}

/** Files on disk whose names start with @p prefix. */
std::set<std::string>
blobFiles(const std::string &dir, const std::string &prefix = "")
{
    std::set<std::string> names;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.rfind(prefix, 0) == 0)
            names.insert(name);
    }
    return names;
}

/** (name, size, inode, mtime in ns) of every entry in @p dir. */
using DirEntry = std::tuple<std::string, u64, u64, u64>;

std::set<DirEntry>
dirStat(const std::string &dir)
{
    std::set<DirEntry> out;
    for (const auto &e : fs::directory_iterator(dir)) {
        struct stat st{};
        if (::stat(e.path().c_str(), &st) != 0)
            continue;
        out.emplace(e.path().filename().string(), u64(st.st_size),
                    u64(st.st_ino),
                    u64(st.st_mtim.tv_sec) * 1000000000ULL +
                        u64(st.st_mtim.tv_nsec));
    }
    return out;
}

TEST(CacheStress, ForkedWritersOfOneKeyNeverExposeATornBlob)
{
    std::string dir = freshDir("fork-one-key");
    std::vector<u8> payload = patternBytes(64 * 1024, 23);
    ByteWriter blob;
    blob.putRaw(payload.data(), payload.size());

    constexpr int kWriters = 8;
    constexpr int kRounds = 16;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: hammer store() of one key and payload and verify
            // every load sees healthy, full-length bytes.
            ArtifactCache cache(dir);
            for (int i = 0; i < kRounds; ++i) {
                cache.store("stress", 7, blob);
                CacheOutcome got = cache.load("stress", 7);
                if (!got.hit())
                    _exit(3);
                if (got->remaining() != payload.size())
                    _exit(4);
            }
            _exit(0);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "writer " << pid << " failed";
    }

    // Exactly one healthy blob and no leftover temp files.
    EXPECT_EQ(blobFiles(dir).size(), 1u);
    EXPECT_EQ(blobFiles(dir, "stress-").size(), 1u);
    ArtifactCache after(dir);
    CacheOutcome got = after.load("stress", 7);
    ASSERT_TRUE(got.hit());
    ASSERT_EQ(got->remaining(), payload.size());
    std::vector<u8> bytes = got->getRaw(payload.size());
    EXPECT_EQ(bytes, payload);
}

TEST(CacheStress, ForkedStoresAllLand)
{
    std::string dir = freshDir("fork-stores");
    constexpr int kWriters = 6;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ArtifactCache cache(dir);
            ByteWriter blob;
            std::vector<u8> bytes = patternBytes(256, u8(40 + w));
            blob.putRaw(bytes.data(), bytes.size());
            cache.store("stress", u64(w), blob);
            _exit(cache.load("stress", u64(w)).hit() ? 0 : 5);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    // Every writer's blob landed, and nothing else did.
    ArtifactCache after(dir);
    EXPECT_EQ(blobFiles(dir).size(), u64(kWriters));
    for (int w = 0; w < kWriters; ++w)
        EXPECT_TRUE(after.load("stress", u64(w)).hit()) << w;
}

TEST(CacheStress, ConcurrentStoresAndLoadsOfOneKeyNeverTear)
{
    std::string dir = freshDir("store-load");
    // Large enough that a non-atomic rewrite stays torn for a while.
    std::vector<u8> payload = patternBytes(1 << 20, 61);
    ByteWriter blob;
    blob.putRaw(payload.data(), payload.size());
    // Two handles on one directory, as two processes would hold.
    ArtifactCache writer(dir), reader(dir);
    writer.store("stress", 7, blob);

    constexpr int kWriters = 2;
    constexpr int kReaders = 4;
    constexpr int kRounds = 40;
    std::atomic<int> notHit{0}, wrongBytes{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w)
        threads.emplace_back([&] {
            for (int i = 0; i < kRounds; ++i)
                writer.store("stress", 7, blob);
        });
    for (int r = 0; r < kReaders; ++r)
        threads.emplace_back([&] {
            for (int i = 0; i < kRounds; ++i) {
                CacheOutcome got = reader.load("stress", 7);
                if (!got.hit()) {
                    notHit.fetch_add(1);
                    continue;
                }
                if (got->remaining() != payload.size() ||
                    got->getRaw(payload.size()) != payload)
                    wrongBytes.fetch_add(1);
            }
        });
    for (std::thread &t : threads)
        t.join();

    // The blob exists throughout, so every load is a hit on exactly
    // the stored bytes, and no temp file is left behind.
    EXPECT_EQ(notHit.load(), 0);
    EXPECT_EQ(wrongBytes.load(), 0);
    EXPECT_EQ(blobFiles(dir).size(), 1u);
}

TEST(CacheStress, HitsLeaveTheDirectoryUntouched)
{
    std::string dir = freshDir("hits-untouched");
    ArtifactCache writer(dir);
    for (u64 k = 0; k < 3; ++k) {
        ByteWriter blob;
        std::vector<u8> bytes = patternBytes(512, u8(80 + k));
        blob.putRaw(bytes.data(), bytes.size());
        writer.store("stress", k, blob);
    }
    // Two handles on one directory, as two processes would hold.
    ArtifactCache a(dir), b(dir);
    std::set<DirEntry> before = dirStat(dir);
    ASSERT_FALSE(before.empty());

    constexpr int kThreads = 4;
    constexpr int kLoads = 50;
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            const ArtifactCache &cache = t % 2 ? b : a;
            for (int i = 0; i < kLoads; ++i) {
                // Keys 0..2 are stored, 3..5 absent.
                u64 key = u64((t + i) % 6);
                if (cache.load("stress", key).hit() != (key < 3))
                    wrong.fetch_add(1);
            }
        });
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(wrong.load(), 0);
    // A load reads; it never creates, rewrites or renames a file.
    EXPECT_EQ(dirStat(dir), before);
}

} // namespace
} // namespace splab
