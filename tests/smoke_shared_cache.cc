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
 *  - the shared cache ends up with exactly the solo cold cache's
 *    blob files, byte for byte.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_graph.hh"
#include "obs/json.hh"

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

/** Blob files of a cache directory by name (index and lock files
 *  excluded; those are bookkeeping, not artifacts). */
std::map<std::string, std::string>
blobFiles(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (e.is_regular_file() && name.rfind("index.", 0) != 0)
            out[name] = slurp(e.path().string());
    }
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
    check(blobFiles(sharedDir) == blobFiles(soloDir),
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
