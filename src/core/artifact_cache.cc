#include "artifact_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "obs/counters.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace splab
{

namespace
{

/**
 * True when @p dir accepts new files.  std::filesystem permission
 * bits are not enough (root, ACLs, read-only mounts), so probe by
 * actually creating and removing a scratch file.
 */
bool
dirIsWritable(const std::string &dir)
{
    std::string probe = dir + "/.splab-write-probe";
    std::FILE *f = std::fopen(probe.c_str(), "wb");
    if (!f)
        return false;
    std::fclose(f);
    std::error_code ec;
    std::filesystem::remove(probe, ec);
    return true;
}

/** Warn about an unusable cache dir only once per directory. */
void
warnOnce(const std::string &dir, const char *why)
{
    static std::mutex mtx;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> g(mtx);
    if (!warned.insert(dir).second)
        return;
    SPLAB_WARN("cache dir ", dir, ": ", why, "; caching disabled");
}

/**
 * Write @p w (plus its checksum) to @p p through a unique temp file
 * and an atomic rename: saveFile truncates in place, so a reader in
 * another thread or process could otherwise see a torn file.
 * @return false, after warning about @p what, on any I/O failure.
 */
bool
saveAtomically(const ByteWriter &w, const std::string &p,
               const char *what)
{
    static std::atomic<u64> seq{0};
    std::string tmp = p + ".tmp." +
                      std::to_string(static_cast<long>(::getpid())) +
                      "." + std::to_string(seq.fetch_add(1));
    std::error_code ec;
    if (!w.saveFile(tmp)) {
        SPLAB_WARN("cannot write ", what, " ", tmp);
        std::filesystem::remove(tmp, ec);
        return false;
    }
    std::filesystem::rename(tmp, p, ec);
    if (ec) {
        SPLAB_WARN("cannot publish ", what, " ", p, ": ",
                   ec.message());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace

FileLock::FileLock(const std::string &path)
    : fd(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644))
{
    if (fd < 0)
        return;
    while (::flock(fd, LOCK_EX) != 0) {
        if (errno != EINTR) {
            ::close(fd);
            fd = -1;
            return;
        }
    }
}

FileLock &
FileLock::operator=(FileLock &&o) noexcept
{
    if (this != &o) {
        if (fd >= 0)
            ::close(fd);
        fd = std::exchange(o.fd, -1);
    }
    return *this;
}

FileLock::~FileLock()
{
    if (fd >= 0)
        ::close(fd); // closing drops the flock
}

ArtifactCache::ArtifactCache(std::string dir) : root(std::move(dir))
{
    // Register the whole counter family eagerly so every run
    // manifest carries it even when the counts stay zero.
    obs::counter("artifact_cache.hits", "cache lookups served");
    obs::counter("artifact_cache.misses",
                 "cache lookups with no blob");
    obs::counter("artifact_cache.corrupt",
                 "cache blobs failing checksum validation");
    obs::counter("artifact_cache.disabled_lookups",
                 "cache lookups while disabled");
    obs::counter("artifact_cache.bytes_read",
                 "bytes loaded from cache blobs");
    obs::counter("artifact_cache.bytes_written",
                 "bytes stored into cache blobs");
    obs::counter("artifact_cache.blob_share_hits",
                 "shared sub-blob stores satisfied by an existing "
                 "identical blob");

    if (root.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec) {
        warnOnce(root, "cannot create");
        root.clear();
        return;
    }
    if (!dirIsWritable(root)) {
        warnOnce(root, "not writable");
        root.clear();
    }
}

std::string
ArtifactCache::stem(const std::string &kind, u64 key) const
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      hashCombine(key, kVersionSalt)));
    return kind + "-" + hex;
}

std::string
ArtifactCache::path(const std::string &kind, u64 key) const
{
    return root + "/" + stem(kind, key) + ".bin";
}

std::string
ArtifactCache::sharedFileName(u64 contentHash) const
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      hashCombine(contentHash, kVersionSalt)));
    return std::string("shared-") + hex + ".bin";
}

// --- blob operations -------------------------------------------------

CacheOutcome
ArtifactCache::readBlob(const std::string &p) const
{
    static obs::Counter &hits = obs::counter("artifact_cache.hits");
    static obs::Counter &misses =
        obs::counter("artifact_cache.misses");
    static obs::Counter &corrupt =
        obs::counter("artifact_cache.corrupt");
    static obs::Counter &disabled =
        obs::counter("artifact_cache.disabled_lookups");
    static obs::Counter &bytesRead =
        obs::counter("artifact_cache.bytes_read");

    CacheOutcome out;
    if (!enabled()) {
        disabled.add();
        out.status = CacheStatus::Disabled;
        return out;
    }
    // One read validates and returns the blob.  Publishing is atomic
    // (saveAtomically), so a failed read of a file that exists means
    // real damage, never a store in progress.
    out.blob = ByteReader::tryLoadFile(p);
    if (out.blob) {
        hits.add();
        bytesRead.add(out.blob->remaining());
        out.status = CacheStatus::Hit;
        return out;
    }
    std::error_code ec;
    if (std::filesystem::exists(p, ec) && !ec) {
        corrupt.add();
        SPLAB_WARN("corrupt cache blob ", p, "; recomputing artifact");
        out.status = CacheStatus::Corrupt;
    } else {
        misses.add();
        out.status = CacheStatus::Miss;
    }
    return out;
}

CacheOutcome
ArtifactCache::load(const std::string &kind, u64 key) const
{
    return readBlob(path(kind, key));
}

void
ArtifactCache::store(const std::string &kind, u64 key,
                     const ByteWriter &blob) const
{
    if (enabled() &&
        saveAtomically(blob, path(kind, key), "cache artifact"))
        obs::counter("artifact_cache.bytes_written")
            .add(blob.bytes().size());
}

u64
ArtifactCache::storeShared(const u8 *data, std::size_t size) const
{
    static obs::Counter &shareHits =
        obs::counter("artifact_cache.blob_share_hits");

    u64 h = hashBytes(data, size);
    if (!enabled())
        return h;
    std::string p = root + "/" + sharedFileName(h);
    if (ByteReader::tryLoadFile(p)) {
        shareHits.add();
        return h;
    }
    // Either absent or corrupt; (re)write it.
    ByteWriter w;
    w.putRaw(data, size);
    if (saveAtomically(w, p, "shared cache blob"))
        obs::counter("artifact_cache.bytes_written").add(size);
    return h;
}

CacheOutcome
ArtifactCache::loadShared(u64 contentHash) const
{
    return readBlob(root + "/" + sharedFileName(contentHash));
}

// --- artifacts (inline or ref blob over shared sub-blobs) ------------

FileLock
ArtifactCache::lockArtifact(const std::string &family, u64 key) const
{
    if (!enabled())
        return FileLock();
    std::string p = root + "/locks/" + stem(family, key) + ".lock";
    FileLock lock(p);
    if (!lock.locked()) {
        // First lock in this directory: create "locks/" and retry.
        // Still unlocked after that means an unusable directory; the
        // caller then computes without cross-process merging.
        std::error_code ec;
        std::filesystem::create_directories(root + "/locks", ec);
        lock = FileLock(p);
    }
    return lock;
}

bool
ArtifactCache::loadArtifact(const std::string &family, u64 key,
                            bool shared, std::vector<u8> &out) const
{
    static obs::Counter &fallbacks = obs::counter(
        "graph.shared_blob_fallbacks",
        "shared-blob refs with a missing or corrupt sub-blob "
        "(artifact recomputed)");

    CacheOutcome got = load(family, key);
    if (!got.hit())
        return false;
    if (!shared) {
        out = got->getRaw(got->remaining());
        return true;
    }
    // Ref blob: sub-blob count, then their content hashes.
    u64 n = got->get<u64>();
    out.clear();
    for (u64 i = 0; i < n; ++i) {
        CacheOutcome sub = loadShared(got->get<u64>());
        if (!sub.hit()) {
            fallbacks.add();
            return false;
        }
        std::vector<u8> bytes = sub->getRaw(sub->remaining());
        out.insert(out.end(), bytes.begin(), bytes.end());
    }
    return true;
}

void
ArtifactCache::storeArtifact(
    const std::string &family, u64 key, const std::vector<u8> &bytes,
    const std::vector<std::pair<std::size_t, std::size_t>>
        &sharedRanges) const
{
    ByteWriter w;
    if (sharedRanges.empty()) {
        w.putRaw(bytes.data(), bytes.size());
        store(family, key, w);
        return;
    }
    // The sub-blobs dedup against identical stored bytes.
    w.put<u64>(sharedRanges.size());
    for (auto [off, len] : sharedRanges)
        w.put<u64>(storeShared(bytes.data() + off, len));
    store(family, key, w);
}

} // namespace splab
