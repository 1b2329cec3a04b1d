/**
 * @file
 * ArtifactCache hygiene tests: the persistent index (incremental
 * maintenance, reopen without a scan, rebuild from a corrupt or
 * missing index), size-bounded LRU eviction, ref-counted reclamation
 * of shared sub-blobs, and torn-blob safety: N forked writers
 * racing storeShared on one content hash must leave exactly one
 * healthy blob, and loads racing re-stores of one key must only ever
 * see the whole blob.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_cache.hh"
#include "obs/counters.hh"
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

/** Blob files on disk (index bookkeeping excluded). */
std::set<std::string>
blobFiles(const std::string &dir, const std::string &prefix = "")
{
    std::set<std::string> names;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.rfind("index.", 0) == 0)
            continue;
        if (name.rfind(prefix, 0) == 0)
            names.insert(name);
    }
    return names;
}

u64
counterValue(const std::string &name)
{
    return obs::counter(name).value();
}

TEST(CacheIndex, PersistsAcrossReopenAndTracksUsage)
{
    std::string dir = freshDir("index-reopen");
    ByteWriter blob;
    blob.putRaw(patternBytes(256, 3).data(), 256);
    {
        ArtifactCache cache(dir);
        cache.store("simpoints", 1, blob);
        cache.store("simpoints", 2, blob);
        cache.storeShared(patternBytes(128, 9).data(), 128);
        CacheUsage u = cache.usage();
        EXPECT_EQ(u.artifacts, 2u);
        EXPECT_EQ(u.sharedBlobs, 1u);
        EXPECT_GE(u.residentBytes, 2 * 256 + 128u);
    }
    // A second cache over the same directory serves lookups and
    // usage from the persisted index alone.
    ArtifactCache reopened(dir);
    CacheUsage u = reopened.usage();
    EXPECT_EQ(u.artifacts, 2u);
    EXPECT_EQ(u.sharedBlobs, 1u);
    EXPECT_TRUE(reopened.load("simpoints", 1).hit());
    EXPECT_TRUE(reopened.load("simpoints", 2).hit());
}

TEST(CacheIndex, RebuildsFromCorruptOrMissingIndex)
{
    std::string dir = freshDir("index-rebuild");
    ByteWriter blob;
    blob.putRaw(patternBytes(64, 1).data(), 64);
    u64 shared = 0;
    {
        ArtifactCache cache(dir);
        cache.store("regions", 7, blob);
        shared = cache.storeShared(patternBytes(96, 2).data(), 96);
    }
    // Corrupt the index: the next open must fall back to a directory
    // scan and still see both blobs.
    {
        std::ofstream out(dir + "/index.bin",
                          std::ios::binary | std::ios::trunc);
        out << "not an index";
    }
    {
        ArtifactCache cache(dir);
        CacheUsage u = cache.usage();
        EXPECT_EQ(u.artifacts, 1u);
        EXPECT_EQ(u.sharedBlobs, 1u);
        EXPECT_TRUE(cache.load("regions", 7).hit());
        EXPECT_TRUE(cache.loadShared(shared).hit());
    }
    // Same story with the index deleted outright.
    fs::remove(dir + "/index.bin");
    ArtifactCache cache(dir);
    EXPECT_EQ(cache.usage().artifacts, 1u);
    EXPECT_TRUE(cache.load("regions", 7).hit());
}

TEST(CacheIndex, CountersRegisterEagerly)
{
    ArtifactCache cache(freshDir("counters"));
    std::map<std::string, u64> snap = obs::counterSnapshot();
    for (const char *name :
         {"artifact_cache.hits", "artifact_cache.misses",
          "artifact_cache.evictions", "artifact_cache.bytes_evicted",
          "artifact_cache.bytes_read", "artifact_cache.bytes_written",
          "artifact_cache.blob_share_hits",
          "artifact_cache.shared_blobs_reclaimed"})
        EXPECT_TRUE(snap.count(name)) << name;
}

TEST(CacheEviction, LruRespectsBudgetAndProtectsNewestStore)
{
    std::string dir = freshDir("evict-lru");
    ByteWriter blob;
    blob.putRaw(patternBytes(512, 5).data(), 512);
    u64 perBlobBytes = 0;
    {
        ArtifactCache cache(dir);
        cache.store("whole", 1, blob);
        perBlobBytes = cache.usage().residentBytes;
        cache.store("whole", 2, blob);
        cache.store("whole", 3, blob);
        ASSERT_EQ(cache.usage().artifacts, 3u);
    }
    u64 evictionsBefore = counterValue("artifact_cache.evictions");
    // Budget fits two blobs: storing a third must evict exactly the
    // least-recently-used one, never the blob just stored.
    ArtifactCache bounded(dir, 2 * perBlobBytes + perBlobBytes / 2);
    bounded.store("whole", 4, blob);
    EXPECT_GE(counterValue("artifact_cache.evictions"),
              evictionsBefore + 2);
    CacheUsage u = bounded.usage();
    EXPECT_LE(u.residentBytes, bounded.maxBytes());
    EXPECT_TRUE(bounded.load("whole", 4).hit());
    EXPECT_FALSE(bounded.load("whole", 1).hit());
}

TEST(CacheEviction, SharedBlobSurvivesWhileReferencedThenReclaimed)
{
    std::string dir = freshDir("evict-shared");
    std::vector<u8> payload = patternBytes(900, 11);
    u64 hash = 0;
    u64 setupBytes = 0;
    {
        ArtifactCache cache(dir);
        hash = cache.storeShared(payload.data(), payload.size());
        ByteWriter ref;
        ref.put<u64>(1);
        ref.put<u64>(hash);
        cache.store("fused", 1, ref, {hash});
        cache.store("fused", 2, ref, {hash});
        setupBytes = cache.usage().residentBytes;
    }
    ByteWriter filler;
    filler.putRaw(patternBytes(100, 13).data(), 100);

    // Phase 1: budget forces out the older ref blob only.  The shared
    // sub-blob must survive because "fused"/2 still references it.
    u64 reclaimedBefore =
        counterValue("artifact_cache.shared_blobs_reclaimed");
    {
        ArtifactCache cache(dir, setupBytes + 100);
        cache.store("filler", 1, filler);
        EXPECT_FALSE(cache.load("fused", 1).hit());
        EXPECT_TRUE(cache.load("fused", 2).hit());
        EXPECT_TRUE(cache.loadShared(hash).hit());
        EXPECT_EQ(counterValue("artifact_cache.shared_blobs_reclaimed"),
                  reclaimedBefore);
        EXPECT_EQ(blobFiles(dir, "shared-").size(), 1u);
        setupBytes = cache.usage().residentBytes;
    }

    // Phase 2: squeeze out the last referencing artifact — now the
    // sub-blob is unreferenced and must be reclaimed with it.
    ByteWriter bigFiller;
    bigFiller.putRaw(patternBytes(400, 17).data(), 400);
    ArtifactCache cache(dir, setupBytes - 500);
    cache.store("filler", 2, bigFiller);
    EXPECT_FALSE(cache.load("fused", 2).hit());
    EXPECT_FALSE(cache.loadShared(hash).hit());
    EXPECT_GT(counterValue("artifact_cache.shared_blobs_reclaimed"),
              reclaimedBefore);
    EXPECT_TRUE(blobFiles(dir, "shared-").empty());
}

TEST(CacheStress, ForkedWritersNeverExposeATornSharedBlob)
{
    std::string dir = freshDir("fork-shared");
    std::vector<u8> payload = patternBytes(64 * 1024, 23);
    u64 expected = 0;
    {
        // Learn the content hash up front (disabled cache still
        // hashes), so children can verify what they compute.
        ArtifactCache probe("");
        expected = probe.storeShared(payload.data(), payload.size());
    }

    constexpr int kWriters = 8;
    constexpr int kRounds = 16;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: hammer storeShared with the same content and
            // verify every load sees healthy, full-length bytes.
            ArtifactCache cache(dir);
            for (int i = 0; i < kRounds; ++i) {
                if (cache.storeShared(payload.data(),
                                      payload.size()) != expected)
                    _exit(2);
                CacheOutcome got = cache.loadShared(expected);
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

    // Exactly one healthy blob, no leftover temp files, and a sane
    // index (one shared entry, no phantom artifacts).
    EXPECT_EQ(blobFiles(dir).size(), 1u);
    EXPECT_EQ(blobFiles(dir, "shared-").size(), 1u);
    ArtifactCache after(dir);
    CacheOutcome got = after.loadShared(expected);
    ASSERT_TRUE(got.hit());
    ASSERT_EQ(got->remaining(), payload.size());
    std::vector<u8> bytes = got->getRaw(payload.size());
    EXPECT_EQ(bytes, payload);
    CacheUsage u = after.usage();
    EXPECT_EQ(u.artifacts, 0u);
    EXPECT_EQ(u.sharedBlobs, 1u);
    // Re-storing the same content from this process must count as a
    // share hit against the healthy blob the writers raced to
    // publish (counters are per-process, so the children's hits are
    // invisible here — this replays one deliberately).
    u64 shareHitsBefore = counterValue("artifact_cache.blob_share_hits");
    EXPECT_EQ(after.storeShared(payload.data(), payload.size()),
              expected);
    EXPECT_EQ(counterValue("artifact_cache.blob_share_hits"),
              shareHitsBefore + 1);
}

TEST(CacheStress, ForkedStoresKeepIndexConsistent)
{
    std::string dir = freshDir("fork-index");
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
    // Every writer's entry survived the concurrent flock'd
    // read-modify-write cycles on the index.
    ArtifactCache after(dir);
    EXPECT_EQ(after.usage().artifacts, u64(kWriters));
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
    EXPECT_EQ(ArtifactCache(dir).usage().artifacts, 1u);
}

} // namespace
} // namespace splab
