/**
 * @file
 * CI smoke check for persisted fused-run blobs.
 *
 * With one bench binary (argv[1]) whose targets are whole-run
 * projections, it runs the bench twice against one fresh
 * artifact-cache directory — cold, then warm — and verifies that
 *
 *   - the warm run performed NO fused traversal at all
 *     (pin.windows == 0 and pin.chunks_replayed == 0 — every
 *     whole-run view came back from disk),
 *   - and both runs emitted byte-identical CSVs and identical
 *     deterministic manifest sections.
 *
 * Counters outside the ones asserted are NOT compared: cache_hits vs
 * nodes_computed legitimately differ between the two runs.
 *
 * With two bench binaries (argv[1], argv[2]) it runs them in turn
 * over one fresh cache, once at SPLAB_THREADS=1 and once at 4, and
 * verifies that
 *
 *   - the second bench, cold itself, traversed and replayed nothing
 *     (pin.windows == 0 and pin.chunks_replayed == 0): the first
 *     one's fused blobs hold every view it needs,
 *   - the two caches hold the same files with the same bytes
 *     (locks/ aside): every blob is a function of its key,
 *   - and a warm rerun of both benches leaves every file untouched.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>

#include "obs/json.hh"

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "smoke_fused_persist: FAIL: %s\n",
                     what.c_str());
        ++failures;
    }
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/** render() of one manifest section, or "" when absent. */
std::string
section(const splab::obs::JsonValue &manifest, const char *key)
{
    const splab::obs::JsonValue *v = manifest.find(key);
    return v ? v->render() : std::string();
}

/** counters.<name> as a u64, or 0 when absent. */
splab::u64
counterOf(const splab::obs::JsonValue &manifest, const char *name)
{
    const splab::obs::JsonValue *counters = manifest.find("counters");
    if (!counters)
        return 0;
    const splab::obs::JsonValue *c = counters->find(name);
    return c ? c->asU64() : 0;
}

namespace fs = std::filesystem;

/** Run @p bin over cache @p dir at @p threads pool threads. */
int
runBench(const std::string &bin, const std::string &dir, int threads)
{
    std::string cmd = "SPLAB_MANIFEST=1 SPLAB_CACHE=\"" + dir +
                      "\" SPLAB_LOG=0 SPLAB_SCALE=0.05 SPLAB_THREADS=" +
                      std::to_string(threads) + " \"" + bin +
                      "\" > /dev/null";
    return std::system(cmd.c_str());
}

/** Cache files by name: (bytes, inode, mtime in ns). */
using CacheFiles =
    std::map<std::string, std::tuple<std::string, splab::u64, splab::u64>>;

/** Every file of a cache directory; inode and mtime are 0 unless
 *  @p withStat.  The locks/ directory of empty key-lock files is
 *  skipped; any other directory is reported. */
CacheFiles
cacheFiles(const std::string &dir, bool withStat)
{
    CacheFiles out;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (e.is_directory()) {
            check(name == "locks", "unexpected directory " + name);
            continue;
        }
        struct stat st{};
        if (withStat && ::stat(e.path().c_str(), &st) != 0)
            check(false, "cannot stat " + name);
        out[name] = {slurp(e.path().string()),
                     withStat ? splab::u64(st.st_ino) : 0,
                     withStat ? splab::u64(st.st_mtim.tv_sec) *
                                        1000000000ULL +
                                    splab::u64(st.st_mtim.tv_nsec)
                              : 0};
    }
    return out;
}

/** Two benches in turn over fresh caches at 1 and 4 threads. */
void
checkSequence(const std::string &first, const std::string &second)
{
    // Each run writes its CSV and manifest next to its binary, so
    // run copies: other checks may run the same binaries meanwhile.
    std::string bins[2] = {first + "-sequence", second + "-sequence"};
    fs::copy_file(first, bins[0], fs::copy_options::overwrite_existing);
    fs::copy_file(second, bins[1], fs::copy_options::overwrite_existing);

    CacheFiles caches[2];
    const int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        std::string dir = bins[0] + ".smoke-cache-" +
                          std::to_string(threads[i]);
        fs::remove_all(dir);
        fs::create_directories(dir);
        std::string at = " at SPLAB_THREADS=" + std::to_string(threads[i]);
        check(runBench(bins[0], dir, threads[i]) == 0,
              "first bench exited non-zero" + at);
        check(runBench(bins[1], dir, threads[i]) == 0,
              "second bench exited non-zero" + at);
        auto mani = splab::obs::parseJson(slurp(bins[1] + ".manifest.json"));
        check(mani.has_value(), "second bench's manifest does not parse");
        if (mani) {
            check(counterOf(*mani, "pin.windows") == 0,
                  "second bench ran an instrumented window over the "
                  "first one's cache" + at);
            check(counterOf(*mani, "pin.chunks_replayed") == 0,
                  "second bench replayed workload chunks over the "
                  "first one's cache" + at);
        }
        caches[i] = cacheFiles(dir, false);

        // Warm reruns load every blob and write nothing.
        auto before = cacheFiles(dir, true);
        check(runBench(bins[0], dir, threads[i]) == 0 &&
                  runBench(bins[1], dir, threads[i]) == 0,
              "warm rerun exited non-zero" + at);
        check(cacheFiles(dir, true) == before,
              "warm rerun changed a cache file" + at);
        fs::remove_all(dir);
    }
    check(!caches[0].empty(), "the benches stored no blob");
    check(caches[0] == caches[1],
          "caches filled at SPLAB_THREADS=1 and 4 differ");
    for (const std::string &b : bins)
        for (const char *ext : {"", ".csv", ".manifest.json"})
            fs::remove(b + ext);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3) {
        checkSequence(argv[1], argv[2]);
        if (failures == 0)
            std::printf("smoke_fused_persist: OK (%s then %s)\n",
                        argv[1], argv[2]);
        return failures == 0 ? 0 : 1;
    }
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: smoke_fused_persist <bench-binary> "
                     "[<second-bench-binary>]\n");
        return 2;
    }
    std::string bin = argv[1];
    std::string cacheDir = bin + ".smoke-fused-cache";
    std::filesystem::remove_all(cacheDir);
    std::filesystem::create_directories(cacheDir);

    check(runBench(bin, cacheDir, 4) == 0,
          "cold bench run exited non-zero");
    std::string coldCsv = slurp(bin + ".csv");
    std::string coldMani = slurp(bin + ".manifest.json");

    check(runBench(bin, cacheDir, 4) == 0,
          "warm bench run exited non-zero");
    std::string warmCsv = slurp(bin + ".csv");
    std::string warmMani = slurp(bin + ".manifest.json");
    std::filesystem::remove_all(cacheDir);

    check(!coldCsv.empty(), "cold CSV missing or empty");
    check(coldCsv == warmCsv,
          "warm-cache CSV differs from cold-cache CSV");

    using splab::obs::parseJson;
    auto cold = parseJson(coldMani);
    auto warm = parseJson(warmMani);
    check(cold.has_value(), "cold manifest does not parse");
    check(warm.has_value(), "warm manifest does not parse");
    if (cold && warm) {
        for (const char *key : {"config", "artifacts", "outputs"}) {
            check(!section(*cold, key).empty(),
                  "manifest section missing");
            check(section(*cold, key) == section(*warm, key),
                  "deterministic manifest section differs across "
                  "cache states");
        }
        check(counterOf(*cold, "pin.windows") > 0,
              "cold run never ran the fused traversal");
        check(counterOf(*warm, "pin.windows") == 0,
              "warm run re-ran an instrumented window despite "
              "persisted fused blobs");
        check(counterOf(*warm, "pin.chunks_replayed") == 0,
              "warm run replayed workload chunks despite persisted "
              "fused blobs");
        check(counterOf(*warm, "graph.cache_hits") > 0,
              "warm run never hit the artifact cache");
    }

    if (failures == 0)
        std::printf("smoke_fused_persist: OK (%s)\n", bin.c_str());
    return failures == 0 ? 0 : 1;
}
