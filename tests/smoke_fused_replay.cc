/**
 * @file
 * CI smoke check for the fused regional replay: runs a bench binary
 * (argv[1]) that needs the cold and the warmed per-point cache runs
 * twice against one fresh artifact-cache directory — cold, then
 * warm — and verifies that
 *
 *   - the cold run computed one fused point replay per suite
 *     benchmark (graph.computed.pointsfused == 29) and replayed each
 *     logged region exactly once (pinball.regions_replayed ==
 *     pinball.regions_logged), not once per run kind,
 *   - the warm run replayed nothing (both counts are 0: every
 *     per-point view came back from disk),
 *   - and both runs emitted byte-identical CSVs.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/json.hh"

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "smoke_fused_replay: FAIL: %s\n",
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: smoke_fused_replay <bench-binary>\n");
        return 2;
    }
    std::string bin = argv[1];
    std::string cacheDir = bin + ".smoke-replay-cache";
    std::filesystem::remove_all(cacheDir);
    std::filesystem::create_directories(cacheDir);

    std::string cmd = "SPLAB_MANIFEST=1 SPLAB_CACHE=\"" + cacheDir +
                      "\" SPLAB_LOG=0 SPLAB_SCALE=0.05 "
                      "SPLAB_THREADS=4 \"" +
                      bin + "\" > /dev/null";

    check(std::system(cmd.c_str()) == 0,
          "cold bench run exited non-zero");
    std::string coldCsv = slurp(bin + ".csv");
    std::string coldMani = slurp(bin + ".manifest.json");

    check(std::system(cmd.c_str()) == 0,
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
        splab::u64 fused =
            counterOf(*cold, "graph.computed.pointsfused");
        splab::u64 logged = counterOf(*cold, "pinball.regions_logged");
        splab::u64 replayed =
            counterOf(*cold, "pinball.regions_replayed");
        check(fused == 29,
              "cold run computed " + std::to_string(fused) +
                  " fused point replays, not one per suite "
                  "benchmark (29)");
        check(logged > 0, "cold run logged no regions");
        check(replayed == logged,
              "cold run replayed " + std::to_string(replayed) +
                  " regions for " + std::to_string(logged) +
                  " logged ones");
        check(counterOf(*warm, "graph.computed.pointsfused") == 0,
              "warm run computed a fused point replay");
        check(counterOf(*warm, "pinball.regions_replayed") == 0,
              "warm run replayed regions despite persisted per-point "
              "blobs");
    }

    if (failures == 0)
        std::printf("smoke_fused_replay: OK (%s)\n", bin.c_str());
    return failures == 0 ? 0 : 1;
}
