#include "artifact_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "obs/counters.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace splab
{

namespace
{

constexpr u64 kIndexMagic = 0x53504c4142494458ULL; // "SPLABIDX"
constexpr u32 kIndexVersion = 1;

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

u64
fileSizeOr0(const std::string &p)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(p, ec);
    return ec ? 0 : static_cast<u64>(n);
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

obs::Counter &
evictionsCounter()
{
    return obs::counter("artifact_cache.evictions",
                        "artifact blobs evicted by the size budget");
}

obs::Counter &
bytesEvictedCounter()
{
    return obs::counter("artifact_cache.bytes_evicted",
                        "bytes reclaimed by cache eviction");
}

obs::Counter &
sharedReclaimedCounter()
{
    return obs::counter("artifact_cache.shared_blobs_reclaimed",
                        "shared sub-blobs reclaimed after their last "
                        "referencing artifact was evicted");
}

obs::Gauge &
residentGauge()
{
    return obs::gauge("artifact_cache.resident_bytes",
                      "indexed artifact + shared sub-blob bytes");
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

/**
 * In-memory mirror of index.bin.  Disk is authoritative: every
 * mutation reloads under the file lock before applying, so the
 * mirror only exists to answer usage() without touching the disk.
 */
struct ArtifactCache::IndexState
{
    struct Entry
    {
        u64 size = 0;    ///< blob file bytes (payload + checksum)
        u64 lastUse = 0; ///< logical stamp, bumped on load/store
        std::vector<std::string> refFiles; ///< shared files referenced
    };

    std::mutex mtx;
    std::map<std::string, Entry> entries; ///< artifact blobs, by name
    std::map<std::string, u64> shared;    ///< shared sub-blob sizes
    u64 stamp = 0; ///< logical clock for last-use ordering

    u64
    residentBytes() const
    {
        u64 total = 0;
        for (const auto &kv : entries)
            total += kv.second.size;
        for (const auto &kv : shared)
            total += kv.second;
        return total;
    }
};

const char *
cacheStatusName(CacheStatus s)
{
    switch (s) {
      case CacheStatus::Hit:
        return "hit";
      case CacheStatus::Miss:
        return "miss";
      case CacheStatus::Corrupt:
        return "corrupt";
      case CacheStatus::Disabled:
        return "disabled";
    }
    return "unknown";
}

ArtifactCache::ArtifactCache(std::string dir, u64 maxBytes)
    : root(std::move(dir)), budget(maxBytes)
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
    evictionsCounter();
    bytesEvictedCounter();
    sharedReclaimedCounter();
    residentGauge();

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
        return;
    }
    idx = std::make_unique<IndexState>();
    // Populate the mirror (and heal a missing/corrupt index) so
    // usage() is meaningful before the first store.
    indexMutate([](IndexState &) {});
}

ArtifactCache::ArtifactCache(ArtifactCache &&) noexcept = default;
ArtifactCache &
ArtifactCache::operator=(ArtifactCache &&) noexcept = default;
ArtifactCache::~ArtifactCache() = default;

ArtifactCache
ArtifactCache::fromEnv()
{
    return ArtifactCache(artifactCacheDir(), cacheMaxBytes());
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

// --- persistent index ------------------------------------------------

void
ArtifactCache::indexSaveLocked(const IndexState &st) const
{
    ByteWriter w;
    w.put<u64>(kIndexMagic);
    w.put<u32>(kIndexVersion);
    w.put<u64>(st.stamp);
    w.put<u32>(static_cast<u32>(st.entries.size()));
    for (const auto &kv : st.entries) {
        w.putString(kv.first);
        w.put<u64>(kv.second.size);
        w.put<u64>(kv.second.lastUse);
        w.put<u32>(static_cast<u32>(kv.second.refFiles.size()));
        for (const auto &ref : kv.second.refFiles)
            w.putString(ref);
    }
    w.put<u32>(static_cast<u32>(st.shared.size()));
    for (const auto &kv : st.shared) {
        w.putString(kv.first);
        w.put<u64>(kv.second);
    }

    // tmp + rename so a reader (or a crash) never sees a torn index.
    saveAtomically(w, root + "/index.bin", "cache index");
}

void
ArtifactCache::indexRebuildLocked(IndexState &st) const
{
    st.entries.clear();
    st.shared.clear();
    st.stamp = 0;
    std::error_code ec;
    std::filesystem::directory_iterator it(root, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        std::string name = it->path().filename().string();
        // Skip the index's own files and unpublished temporaries.
        if (name.rfind("index.", 0) == 0 ||
            name.find(".tmp.") != std::string::npos ||
            name.rfind(".", 0) == 0)
            continue;
        u64 size = fileSizeOr0(it->path().string());
        if (name.rfind("shared-", 0) == 0) {
            st.shared[name] = size;
        } else {
            // Shared references are unknowable without decoding the
            // blob, so leave them empty: after a rebuild, shared
            // sub-blobs are conservatively never reclaimed.
            st.entries[name] =
                IndexState::Entry{size, ++st.stamp, {}};
        }
    }
}

void
ArtifactCache::indexLoadLocked(IndexState &st) const
{
    std::optional<ByteReader> loaded =
        ByteReader::tryLoadFile(root + "/index.bin");
    if (!loaded) {
        indexRebuildLocked(st);
        return;
    }
    ByteReader &r = *loaded;
    if (r.remaining() < sizeof(u64) + sizeof(u32) ||
        r.get<u64>() != kIndexMagic ||
        r.get<u32>() != kIndexVersion) {
        indexRebuildLocked(st);
        return;
    }
    st.entries.clear();
    st.shared.clear();
    st.stamp = r.get<u64>();
    u32 nEntries = r.get<u32>();
    for (u32 i = 0; i < nEntries; ++i) {
        std::string name = r.getString();
        IndexState::Entry e;
        e.size = r.get<u64>();
        e.lastUse = r.get<u64>();
        u32 nRefs = r.get<u32>();
        e.refFiles.reserve(nRefs);
        for (u32 j = 0; j < nRefs; ++j)
            e.refFiles.push_back(r.getString());
        st.entries.emplace(std::move(name), std::move(e));
    }
    u32 nShared = r.get<u32>();
    for (u32 i = 0; i < nShared; ++i) {
        std::string name = r.getString();
        st.shared[name] = r.get<u64>();
    }
}

void
ArtifactCache::evictLocked(IndexState &st,
                           const std::string &protect) const
{
    u64 resident = st.residentBytes();
    while (resident > budget) {
        // Oldest last-use stamp wins; never the blob being stored.
        auto victim = st.entries.end();
        for (auto it = st.entries.begin(); it != st.entries.end();
             ++it) {
            if (it->first == protect)
                continue;
            if (victim == st.entries.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == st.entries.end())
            break; // nothing evictable (only the protected blob)
        std::vector<std::string> refs =
            std::move(victim->second.refFiles);
        u64 freed = victim->second.size;
        std::error_code ec;
        std::filesystem::remove(root + "/" + victim->first, ec);
        st.entries.erase(victim);
        evictionsCounter().add();
        // Release the victim's shared references: a sub-blob goes
        // only when no surviving artifact still lists it.
        for (const auto &ref : refs) {
            bool stillReferenced = false;
            for (const auto &kv : st.entries) {
                for (const auto &other : kv.second.refFiles) {
                    if (other == ref) {
                        stillReferenced = true;
                        break;
                    }
                }
                if (stillReferenced)
                    break;
            }
            if (stillReferenced)
                continue;
            auto sh = st.shared.find(ref);
            if (sh == st.shared.end())
                continue;
            freed += sh->second;
            std::filesystem::remove(root + "/" + sh->first, ec);
            st.shared.erase(sh);
            sharedReclaimedCounter().add();
        }
        bytesEvictedCounter().add(freed);
        resident = resident > freed ? resident - freed : 0;
    }
}

void
ArtifactCache::indexMutate(
    const std::function<void(IndexState &)> &apply,
    const std::string &protect) const
{
    if (!enabled() || !idx)
        return;
    std::lock_guard<std::mutex> g(idx->mtx);
    FileLock lock(root + "/index.lock");
    indexLoadLocked(*idx);
    apply(*idx);
    if (budget != 0)
        evictLocked(*idx, protect);
    indexSaveLocked(*idx);
    residentGauge().set(idx->residentBytes());
}

CacheUsage
ArtifactCache::usage() const
{
    CacheUsage u;
    if (!enabled() || !idx)
        return u;
    std::lock_guard<std::mutex> g(idx->mtx);
    u.artifacts = idx->entries.size();
    u.sharedBlobs = idx->shared.size();
    u.residentBytes = idx->residentBytes();
    return u;
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
    std::string p = path(kind, key);
    CacheOutcome out = readBlob(p);
    // Refresh the last-use stamp so LRU eviction sees live blobs.
    // Shared sub-blobs are governed by ref-counts, not recency.
    if (out.hit() && kind != "shared") {
        std::string name =
            std::filesystem::path(p).filename().string();
        u64 size = out.blob->remaining() + sizeof(u64); // + checksum
        indexMutate([&](IndexState &st) {
            auto it = st.entries.find(name);
            if (it == st.entries.end())
                it = st.entries
                         .emplace(name,
                                  IndexState::Entry{size, 0, {}})
                         .first;
            it->second.lastUse = ++st.stamp;
        });
    }
    return out;
}

void
ArtifactCache::store(const std::string &kind, u64 key,
                     const ByteWriter &blob,
                     const std::vector<u64> &sharedRefs) const
{
    if (!enabled())
        return;
    std::string p = path(kind, key);
    if (!saveAtomically(blob, p, "cache artifact"))
        return;
    obs::counter("artifact_cache.bytes_written")
        .add(blob.bytes().size());
    std::string name = std::filesystem::path(p).filename().string();
    u64 size = blob.bytes().size() + sizeof(u64); // + checksum
    std::vector<std::string> refs;
    refs.reserve(sharedRefs.size());
    for (u64 h : sharedRefs)
        refs.push_back(sharedFileName(h));
    indexMutate(
        [&](IndexState &st) {
            st.entries[name] =
                IndexState::Entry{size, ++st.stamp,
                                  std::move(refs)};
        },
        name);
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
    if (!saveAtomically(w, p, "shared cache blob"))
        return h;
    obs::counter("artifact_cache.bytes_written").add(size);
    std::string name = std::filesystem::path(p).filename().string();
    u64 fsize = size + sizeof(u64); // + checksum
    indexMutate([&](IndexState &st) { st.shared[name] = fsize; });
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
    // The sub-blobs dedup against identical stored bytes, and the
    // hash list rides into the index so eviction can ref-count them.
    std::vector<u64> hashes;
    hashes.reserve(sharedRanges.size());
    w.put<u64>(sharedRanges.size());
    for (auto [off, len] : sharedRanges) {
        u64 h = storeShared(bytes.data() + off, len);
        w.put<u64>(h);
        hashes.push_back(h);
    }
    store(family, key, w, hashes);
}

} // namespace splab
