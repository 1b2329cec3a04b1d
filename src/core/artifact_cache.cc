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
 * @return false, after warning, on any I/O failure.
 */
bool
saveAtomically(const ByteWriter &w, const std::string &p)
{
    static std::atomic<u64> seq{0};
    std::string tmp = p + ".tmp." +
                      std::to_string(static_cast<long>(::getpid())) +
                      "." + std::to_string(seq.fetch_add(1));
    std::error_code ec;
    if (!w.saveFile(tmp)) {
        SPLAB_WARN("cannot write cache artifact ", tmp);
        std::filesystem::remove(tmp, ec);
        return false;
    }
    std::filesystem::rename(tmp, p, ec);
    if (ec) {
        SPLAB_WARN("cannot publish cache artifact ", p, ": ",
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

// --- blob operations -------------------------------------------------

CacheOutcome
ArtifactCache::load(const std::string &kind, u64 key) const
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
    const std::string p = path(kind, key);
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

void
ArtifactCache::store(const std::string &kind, u64 key,
                     const ByteWriter &blob) const
{
    if (enabled() && saveAtomically(blob, path(kind, key)))
        obs::counter("artifact_cache.bytes_written")
            .add(blob.bytes().size());
}

// --- cross-process key locks ----------------------------------------

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

} // namespace splab
