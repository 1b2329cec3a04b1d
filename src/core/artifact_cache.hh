/**
 * @file
 * On-disk artifact cache.
 *
 * Bench binaries share expensive intermediates (SimPoint selections,
 * whole-run cache simulations, timing runs) across processes through
 * checksummed blobs keyed by content hashes.  Set SPLAB_CACHE="" to
 * disable, or point it at a directory of your choice.
 *
 * Lookups return a typed CacheOutcome so callers (and the obs
 * counters) can distinguish a genuine miss from a corrupt blob or a
 * disabled cache.  A directory that exists but cannot be written is
 * detected up front, warned about once, and degrades the cache to
 * disabled instead of silently failing every store.
 *
 * Every artifact is one checksummed blob file, named by its key and
 * published through a temp file + atomic rename, so a reader sees
 * the old blob or the new one, never a torn one.  There is no index
 * and no eviction: a hit is one file read that writes nothing, and
 * the way to evict is to delete the directory.
 *
 *  - Shared sub-blobs ("shared-<hash>.bin", see storeShared) are
 *    named by their content hash alone, so artifacts that embed
 *    identical byte ranges store them once.
 *  - Hit/miss/byte counters ("artifact_cache.*") register eagerly at
 *    construction so every run manifest carries the full family
 *    even when a count is zero.
 *  - Cross-process single-flight: lockArtifact() takes an exclusive
 *    flock on "locks/<family>-<hex>.lock", so processes (or cache
 *    handles) sharing one directory compute each artifact once — the
 *    holder loads, computes on a miss and stores before releasing;
 *    a waiter then loads the published blob.  Lock files are empty
 *    and live in a subdirectory apart from the blobs.
 */

#ifndef SPLAB_CORE_ARTIFACT_CACHE_HH
#define SPLAB_CORE_ARTIFACT_CACHE_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/serialize.hh"

namespace splab
{

/** What a cache lookup found. */
enum class CacheStatus
{
    Hit,      ///< blob present and checksum-valid
    Miss,     ///< no blob under this key
    Corrupt,  ///< blob present but truncated or checksum-invalid
    Disabled, ///< cache off (SPLAB_CACHE empty or dir unusable)
};

/** Result of ArtifactCache::load: a status plus the blob on a hit. */
struct CacheOutcome
{
    CacheStatus status = CacheStatus::Disabled;
    std::optional<ByteReader> blob;

    bool hit() const { return status == CacheStatus::Hit; }
    explicit operator bool() const { return hit(); }
    ByteReader &operator*() { return *blob; }
    ByteReader *operator->() { return &*blob; }
};

/**
 * Scoped exclusive flock on one file.  Advisory, so only
 * ArtifactCache users contend.  A file that cannot be opened yields
 * an unlocked (no-op) lock: the caller degrades to unlocked work
 * instead of failing.  Default-constructed = holds nothing.
 */
class FileLock
{
  public:
    FileLock() = default;
    explicit FileLock(const std::string &path);
    FileLock(FileLock &&o) noexcept : fd(std::exchange(o.fd, -1)) {}
    FileLock &operator=(FileLock &&o) noexcept;
    ~FileLock();

    bool locked() const { return fd >= 0; }

  private:
    int fd = -1;
};

/** Content-addressed blob store under one directory. */
class ArtifactCache
{
  public:
    /** @param dir cache directory; empty disables the cache. */
    explicit ArtifactCache(std::string dir);

    bool enabled() const { return !root.empty(); }

    /** Cache directory ("" when disabled). */
    const std::string &dir() const { return root; }

    /**
     * Look up a blob.  One read both validates and returns it; a
     * torn or corrupt blob comes back as Corrupt, never a crash.
     * @param kind artifact family, e.g. "simpoints"
     * @param key  content hash of everything the artifact depends on
     */
    CacheOutcome load(const std::string &kind, u64 key) const;

    /** Store a blob (no-op when disabled).  The file is published
     *  through a temp file + atomic rename, so a concurrent load in
     *  any process sees the old blob or the new one, never a torn
     *  one. */
    void store(const std::string &kind, u64 key,
               const ByteWriter &blob) const;

    /**
     * Store @p size bytes as a content-addressed *shared sub-blob*
     * (file "shared-<hex>.bin", named by the content hash alone) and
     * return that content hash.  If a checksum-valid blob with the
     * same content already exists the write is skipped and the
     * "artifact_cache.blob_share_hits" counter bumped — this is how
     * artifacts that embed identical byte ranges (the fused whole-run
     * node and its cache/timing projections) share storage instead of
     * double-storing.  A present-but-corrupt file is rewritten
     * (healing).  Writes go through a temp file + atomic rename so
     * concurrent writers of the same content can never expose a torn
     * blob.  No-op (but still returns the hash) when disabled.
     */
    u64 storeShared(const u8 *data, std::size_t size) const;

    /** Look up the shared sub-blob with content hash @p contentHash;
     *  outcome semantics identical to load(). */
    CacheOutcome loadShared(u64 contentHash) const;

    /**
     * Exclusive lock on artifact (@p family, @p key), shared with
     * every process and cache handle on this directory.  Hold it
     * across one loadArtifact and, on a miss, the compute and its
     * storeArtifact.  Unlocked when the cache is disabled.
     */
    FileLock lockArtifact(const std::string &family, u64 key) const;

    /**
     * Load the serialized payload of artifact (@p family, @p key)
     * into @p out.  A @p shared artifact is stored as a ref blob
     * naming content-addressed sub-blobs (see storeArtifact); it is
     * reassembled here, and a missing or corrupt sub-blob counts as
     * a miss ("graph.shared_blob_fallbacks") so the caller
     * recomputes and the store heals it.
     * @return true on a hit.
     */
    bool loadArtifact(const std::string &family, u64 key, bool shared,
                      std::vector<u8> &out) const;

    /**
     * Store serialized payload @p bytes of artifact (@p family,
     * @p key).  Inline when @p sharedRanges is empty; otherwise each
     * (offset, length) range becomes a shared sub-blob and the
     * artifact a ref blob over their content hashes, so artifacts
     * embedding identical ranges store them once.
     */
    void storeArtifact(
        const std::string &family, u64 key,
        const std::vector<u8> &bytes,
        const std::vector<std::pair<std::size_t, std::size_t>>
            &sharedRanges = {}) const;

    /**
     * Version salt mixed into every key; bump when serialized
     * layouts or producing algorithms change.
     */
    static constexpr u64 kVersionSalt = 0x53504c41422d7634ULL;

  private:
    /** "<kind>-<hex>": the file stem of a blob and of its lock. */
    std::string stem(const std::string &kind, u64 key) const;
    std::string path(const std::string &kind, u64 key) const;
    std::string sharedFileName(u64 contentHash) const;

    /** Read and validate the blob at @p p in one pass, classify it
     *  and bump the hit/miss/corrupt/disabled counters. */
    CacheOutcome readBlob(const std::string &p) const;

    std::string root;
};

} // namespace splab

#endif // SPLAB_CORE_ARTIFACT_CACHE_HH
