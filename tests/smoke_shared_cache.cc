/**
 * @file
 * CI smoke check for processes sharing one artifact-cache directory:
 * starts three concurrent cold runs of a bench binary (argv[1]) over
 * one fresh cache and checks that the per-artifact key lock merges
 * their computations:
 *
 *  - each run's CSV is byte-identical to an uncached (SPLAB_CACHE=)
 *    solo run;
 *  - for every persisted artifact kind, graph.computed.<kind> summed
 *    over the three manifests equals a solo cold run's count;
 *  - the shared cache ends up with the solo cold cache's artifact
 *    blob files, each holding the same artifact once wall-clock
 *    fields are zeroed (they are the one part of a whole-run or
 *    per-point metric that differs between two computations; every
 *    other artifact must match byte for byte), and as many shared
 *    sub-blobs.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_graph.hh"
#include "obs/json.hh"
#include "support/rng.hh"

namespace
{

namespace fs = std::filesystem;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "smoke_shared_cache: FAIL: %s\n",
                     what.c_str());
        ++failures;
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

/** counters.<name> of a manifest's text, or 0 when absent. */
splab::u64
counterOf(const std::string &manifestText, const std::string &name)
{
    auto doc = splab::obs::parseJson(manifestText);
    const splab::obs::JsonValue *counters =
        doc ? doc->find("counters") : nullptr;
    const splab::obs::JsonValue *c =
        counters ? counters->find(name) : nullptr;
    return c ? c->asU64() : 0;
}

/** @p v with every wall-clock field zeroed. */
splab::ArtifactValue
maskWallClock(splab::ArtifactValue v)
{
    using namespace splab;
    if (auto *f = std::get_if<FusedWholeMetrics>(&v)) {
        f->cache.wallSeconds = 0;
        f->timing.wallSeconds = 0;
    } else if (auto *c = std::get_if<CacheRunMetrics>(&v)) {
        c->wallSeconds = 0;
    } else if (auto *t = std::get_if<TimingRunMetrics>(&v)) {
        t->wallSeconds = 0;
    } else if (auto *pc =
                   std::get_if<std::vector<PointCacheMetrics>>(&v)) {
        for (PointCacheMetrics &p : *pc)
            p.m.wallSeconds = 0;
    } else if (auto *pt =
                   std::get_if<std::vector<PointTimingMetrics>>(&v)) {
        for (PointTimingMetrics &p : *pt)
            p.m.wallSeconds = 0;
    }
    return v;
}

/** The artifact kind stored under blob family @p family
 *  ("regions_<strategy>" for Regions). */
std::optional<splab::ArtifactKind>
kindOfFamily(const std::string &family)
{
    for (std::size_t k = 0; k < splab::kNumArtifactKinds; ++k) {
        auto kind = static_cast<splab::ArtifactKind>(k);
        std::string name = splab::artifactKindName(kind);
        if (family == name || (kind == splab::ArtifactKind::Regions &&
                               family.rfind(name + "_", 0) == 0))
            return kind;
    }
    return std::nullopt;
}

/** Payload of one artifact blob file; a ref blob is reassembled from
 *  the shared sub-blobs it names.  Empty when unreadable. */
std::vector<splab::u8>
payloadOf(const std::string &dir, const std::string &file, bool ref)
{
    auto r = splab::ByteReader::tryLoadFile(dir + "/" + file);
    if (!r)
        return {};
    if (!ref)
        return r->getRaw(r->remaining());
    std::vector<splab::u8> out;
    for (splab::u64 n = r->get<splab::u64>(); n > 0; --n) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(splab::hashCombine(
                          r->get<splab::u64>(),
                          splab::ArtifactCache::kVersionSalt)));
        auto sub = splab::ByteReader::tryLoadFile(
            dir + "/shared-" + hex + ".bin");
        if (!sub)
            return {};
        std::vector<splab::u8> bytes = sub->getRaw(sub->remaining());
        out.insert(out.end(), bytes.begin(), bytes.end());
    }
    return out;
}

/** Artifact blobs of a cache directory by file name, each as its
 *  payload with wall-clock fields zeroed, plus the number of shared
 *  sub-blobs (index and lock files excluded; those are bookkeeping,
 *  not artifacts). */
std::map<std::string, std::string>
artifactBlobs(const std::string &dir)
{
    std::map<std::string, std::string> out;
    std::size_t subBlobs = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (!e.is_regular_file() || name.rfind("index.", 0) == 0)
            continue;
        if (name.rfind("shared-", 0) == 0) {
            ++subBlobs;
            continue;
        }
        auto kind = kindOfFamily(name.substr(0, name.rfind('-')));
        if (!kind) {
            out[name] = slurp(e.path().string());
            continue;
        }
        std::vector<splab::u8> payload =
            payloadOf(dir, name, splab::artifactKindShared(*kind));
        if (payload.empty()) {
            out[name] = "(unreadable)";
            continue;
        }
        splab::ByteReader r(std::move(payload));
        splab::ByteWriter w;
        splab::serializeArtifact(
            w, maskWallClock(splab::deserializeArtifact(*kind, r)));
        out[name].assign(w.bytes().begin(), w.bytes().end());
    }
    out["(shared sub-blobs)"] = std::to_string(subBlobs);
    return out;
}

/** One bench run with SPLAB_CACHE=@p cache (empty disables). */
int
runBench(const std::string &bin, const std::string &cache)
{
    std::string cmd = "SPLAB_MANIFEST=1 SPLAB_CACHE=\"" + cache +
                      "\" SPLAB_LOG=0 SPLAB_SCALE=0.05 "
                      "SPLAB_THREADS=4 \"" +
                      bin + "\" > /dev/null";
    return std::system(cmd.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: smoke_shared_cache <bench-binary>\n");
        return 2;
    }
    std::string bin = argv[1];

    // Reference: a solo run without any cache.
    check(runBench(bin, "") == 0, "uncached bench run exited non-zero");
    std::string refCsv = slurp(bin + ".csv");
    check(!refCsv.empty(), "uncached CSV missing or empty");

    // Baseline: a solo cold run over a fresh cache.
    std::string soloDir = bin + ".smoke-shared-solo";
    fs::remove_all(soloDir);
    check(runBench(bin, soloDir) == 0, "solo cold run exited non-zero");
    std::string soloMani = slurp(bin + ".manifest.json");
    check(slurp(bin + ".csv") == refCsv,
          "solo cold CSV differs from the uncached CSV");

    // Three concurrent cold runs over one fresh cache.  Each run
    // writes its CSV and manifest next to its binary, so each gets
    // its own copy of the binary.
    std::string sharedDir = bin + ".smoke-shared";
    fs::remove_all(sharedDir);
    std::vector<std::string> bins;
    for (const char *tag : {"a", "b", "c"}) {
        bins.push_back(bin + "-shared-" + tag);
        fs::copy_file(bin, bins.back(),
                      fs::copy_options::overwrite_existing);
    }
    std::vector<int> rcs(bins.size(), -1);
    std::vector<std::thread> runs;
    for (std::size_t i = 0; i < bins.size(); ++i)
        runs.emplace_back(
            [&, i] { rcs[i] = runBench(bins[i], sharedDir); });
    for (std::thread &t : runs)
        t.join();

    std::vector<std::string> manis;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        check(rcs[i] == 0, bins[i] + " exited non-zero");
        check(slurp(bins[i] + ".csv") == refCsv,
              bins[i] + ": CSV differs from the uncached CSV");
        manis.push_back(slurp(bins[i] + ".manifest.json"));
    }

    for (std::size_t k = 0; k < splab::kNumArtifactKinds; ++k) {
        auto kind = static_cast<splab::ArtifactKind>(k);
        if (!splab::artifactKindPersisted(kind))
            continue;
        std::string name = splab::artifactKindName(kind);
        splab::u64 solo = counterOf(soloMani, "graph.computed." + name);
        splab::u64 computed = 0;
        for (const std::string &m : manis)
            computed += counterOf(m, "graph.computed." + name);
        check(computed == solo,
              name + ": the concurrent runs computed " +
                  std::to_string(computed) + " nodes, a solo run " +
                  std::to_string(solo));
    }
    check(counterOf(soloMani, "graph.computed.bbvprofile") > 0,
          "solo run computed no persisted artifact");
    check(artifactBlobs(sharedDir) == artifactBlobs(soloDir),
          "shared cache blobs differ from a solo cold cache");

    for (const std::string &b : bins)
        for (const char *ext : {"", ".csv", ".manifest.json"})
            fs::remove(b + ext);
    fs::remove_all(soloDir);
    fs::remove_all(sharedDir);

    if (failures == 0)
        std::printf("smoke_shared_cache: OK (%s)\n", bin.c_str());
    return failures == 0 ? 0 : 1;
}
