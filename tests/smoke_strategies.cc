/**
 * @file
 * CI smoke check for the pluggable sampling strategies: runs the
 * strategy-comparison bench (argv[1]) twice against one fresh
 * artifact-cache directory — cold, then warm — and verifies that
 *
 *  - the comparison CSV carries the stable schema
 *    (strategy,benchmark,regions,reduction_factor,mix_err,l1d_err,
 *    l3_err,cpi_err),
 *  - every registered strategy produced rows,
 *  - the warm run is byte-identical to the cold run and was served
 *    from the per-strategy blob families (fewer nodes computed,
 *    more cache hits than cold — the cold run itself legitimately
 *    hits the cache: the six strategy graphs share one cache handle,
 *    so the BBV profiles the first graph computes are loaded by the
 *    other five),
 *  - the BBV profile is computed once per benchmark in the cold run
 *    and never in the warm run (graph.computed.bbvprofile), and
 *  - a cold run at SPLAB_THREADS=1 writes the same CSV and the same
 *    per-kind graph.computed.* / graph.loaded.* counters as the cold
 *    run at SPLAB_THREADS=4.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "smoke_strategies: FAIL: %s\n",
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
                     "usage: smoke_strategies <strategy-bench>\n");
        return 2;
    }
    std::string bin = argv[1];
    std::string cacheDir = bin + ".smoke-cache";
    std::filesystem::remove_all(cacheDir);
    std::filesystem::create_directories(cacheDir);

    auto command = [&](const std::string &dir, int threads) {
        return "SPLAB_MANIFEST=1 SPLAB_CACHE=\"" + dir +
               "\" SPLAB_LOG=0 SPLAB_SCALE=0.05 SPLAB_THREADS=" +
               std::to_string(threads) + " \"" + bin +
               "\" > /dev/null";
    };
    std::string cmd = command(cacheDir, 4);

    check(std::system(cmd.c_str()) == 0,
          "cold bench run exited non-zero");
    std::string coldCsv = slurp(bin + ".csv");
    std::string coldMani = slurp(bin + ".manifest.json");

    check(std::system(cmd.c_str()) == 0,
          "warm bench run exited non-zero");
    std::string warmCsv = slurp(bin + ".csv");
    std::string warmMani = slurp(bin + ".manifest.json");

    std::string serialDir = cacheDir + "-serial";
    std::filesystem::remove_all(serialDir);
    std::filesystem::create_directories(serialDir);
    check(std::system(command(serialDir, 1).c_str()) == 0,
          "serial cold bench run exited non-zero");
    std::string serialCsv = slurp(bin + ".csv");
    std::string serialMani = slurp(bin + ".manifest.json");
    std::filesystem::remove_all(serialDir);
    check(serialCsv == coldCsv,
          "SPLAB_THREADS=1 CSV differs from SPLAB_THREADS=4 CSV");

    check(!coldCsv.empty(), "cold CSV missing or empty");
    check(coldCsv == warmCsv,
          "warm-cache CSV differs from cold-cache CSV");

    // Schema: the stable header the comparison table promises.
    const std::string header = "strategy,benchmark,regions,"
                               "reduction_factor,mix_err,l1d_err,"
                               "l3_err,cpi_err";
    check(coldCsv.rfind(header + "\n", 0) == 0,
          "comparison CSV header is not the stable schema");

    // Every registered strategy reported rows.
    const std::vector<std::string> strategies = {
        "simpoint", "smarts",  "stratified",
        "ranked_set", "random", "stride"};
    for (const std::string &s : strategies)
        check(coldCsv.find("\n" + s + ",") != std::string::npos,
              "no CSV rows for strategy " + s);

    // Every per-strategy blob family landed on disk (flat
    // "<family>-<key>.bin" cache layout).
    for (const std::string &s : strategies) {
        bool onDisk = false;
        for (const auto &e :
             std::filesystem::directory_iterator(cacheDir))
            if (e.path().filename().string().rfind(
                    "regions_" + s + "-", 0) == 0)
                onDisk = true;
        check(onDisk, "missing blob family regions_" + s);
    }
    std::filesystem::remove_all(cacheDir);

    using splab::obs::parseJson;
    auto cold = parseJson(coldMani);
    auto warm = parseJson(warmMani);
    auto serial = parseJson(serialMani);
    check(cold.has_value(), "cold manifest does not parse");
    check(warm.has_value(), "warm manifest does not parse");
    check(serial.has_value(), "serial manifest does not parse");
    if (cold && warm) {
        // One BBV profile per benchmark, shared by all six strategy
        // graphs through the cache; none at all when warm.
        check(counterOf(*cold, "graph.computed.bbvprofile") == 3,
              "cold run did not compute exactly 3 BBV profiles");
        check(counterOf(*warm, "graph.computed.bbvprofile") == 0,
              "warm run recomputed a BBV profile");
        check(counterOf(*warm, "graph.cache_hits") >
                  counterOf(*cold, "graph.cache_hits"),
              "warm run did not hit the cache more than cold");
        check(counterOf(*warm, "graph.nodes_computed") <
                  counterOf(*cold, "graph.nodes_computed"),
              "warm run recomputed as much as the cold run");
        // The per-strategy selection counters are part of the
        // observable surface: each strategy accounted its regions
        // in the cold run.
        for (const std::string &s : strategies)
            check(counterOf(*cold, ("sampling." + s +
                                    ".regions_selected")
                                       .c_str()) > 0,
                  "cold run missing sampling." + s +
                      ".regions_selected");
    }

    if (cold && serial) {
        // Per-kind node counters count work, never scheduling.
        const splab::obs::JsonValue *counters = cold->find("counters");
        std::size_t perKind = 0;
        if (counters)
            for (const auto &kv : counters->members()) {
                const std::string &name = kv.first;
                if (name.rfind("graph.computed.", 0) != 0 &&
                    name.rfind("graph.loaded.", 0) != 0)
                    continue;
                ++perKind;
                check(counterOf(*serial, name.c_str()) ==
                          kv.second.asU64(),
                      name + " differs between SPLAB_THREADS=1 and 4");
            }
        // computed + loaded for each of the 13 artifact kinds
        // (kNumArtifactKinds; this checker does not link the core).
        check(perKind == 2 * 13,
              "manifest lacks the per-kind graph counters");
    }

    if (failures == 0)
        std::printf("smoke_strategies: OK (%s)\n", bin.c_str());
    return failures == 0 ? 0 : 1;
}
