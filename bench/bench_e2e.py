#!/usr/bin/env python3
"""End-to-end ledger of the paper benches: one JSON row per run.

    python3 bench/bench_e2e.py --build build [--build ../parent/build] \\
        [--bench fig8_cache_missrates ...] [--runs 3] [--no-sequence] \\
        [--label TEXT] [--out BENCH_e2e.json]

For each build directory, in turn:

  - each bench (default: every paper and extension bench) runs cold
    at SPLAB_SCALE=0.1, each in a fresh artifact cache;
  - the whole sequence of benches runs over one cache, cold and then
    warm (how long a user waits to regenerate the paper), unless
    --no-sequence.

With several --build directories the runs alternate between them,
so rows to compare come from one host under the same load.  Each
row records wall time, CPU time and peak RSS (the child's wait4
rusage), per-layer CPU from the run manifest's stages (the CPU
seconds of every span, summed by span name), the engine gauges
(engine.tool.<name>.seconds, engine.generate.seconds), nproc, the
pool's thread count and the commit of the build's source tree.
Every bench runs with its argv[0] inside a temporary directory, so its
CSV and manifest land there and the build tree is not touched.
Rows are appended to --out (a JSON list, one row per line), or
printed when --out is omitted.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

BENCHES = (
    "table2_simpoints", "fig3_sensitivity", "fig4_cluster_variance",
    "fig5_reduction", "fig6_weights", "fig7_instr_distribution",
    "fig8_cache_missrates", "fig9_percentile_sweep",
    "fig10_l3_accesses", "fig12_cpi", "ablation_simpoint",
    "ablation_subsetting", "baseline_sampling", "strategy_compare",
)
SCALE = "0.1"


def source_commit(build):
    """Short commit of the source tree a build directory was
    configured from ("-dirty" when it has uncommitted changes)."""
    src = None
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"CMAKE_HOME_DIRECTORY:INTERNAL=(.*)", line)
            if m:
                src = m.group(1).strip()
    try:
        head = subprocess.run(
            ["git", "-C", src, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", src, "status", "--porcelain", "--",
             "src", "bench", "CMakeLists.txt"],
            capture_output=True, text=True, check=True).stdout.strip()
        return head + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError, TypeError):
        return "unknown"


def run_bench(build, bench, cache, workdir):
    """Run one bench; return its measurements and manifest timing."""
    exe = os.path.join(build, "bench", bench)
    argv0 = os.path.join(workdir, bench)
    env = dict(os.environ, SPLAB_SCALE=SCALE, SPLAB_CACHE=cache,
               SPLAB_LOG="0")
    for var in ("SPLAB_TRACE", "SPLAB_MANIFEST"):
        env.pop(var, None)
    t0 = time.monotonic()
    proc = subprocess.Popen([argv0], executable=exe, cwd=workdir,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    if status != 0:
        sys.exit(f"bench_e2e: {exe} exited with status {status}")
    with open(argv0 + ".manifest.json") as f:
        timing = json.load(f)["timing"]
    layers = {}
    for st in timing["stages"]:
        name = st["path"].rsplit("/", 1)[-1]
        layers[name] = layers.get(name, 0.0) + st["cpu_s"]
    gauges = timing["gauges"]
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "pool_threads": int(gauges.get("pool.threads", 0)),
        "layers_cpu_s": layers,
        "engine_gauges_s": {k: v for k, v in gauges.items()
                            if k.startswith("engine.")},
    }


def merge(parts):
    """One row for a sequence of runs: times and layers add up, the
    peak RSS is the largest child's."""
    out = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
           "pool_threads": 0, "layers_cpu_s": {}, "engine_gauges_s": {}}
    for p in parts:
        out["wall_s"] += p["wall_s"]
        out["cpu_s"] += p["cpu_s"]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], p["peak_rss_mb"])
        out["pool_threads"] = max(out["pool_threads"], p["pool_threads"])
        for key in ("layers_cpu_s", "engine_gauges_s"):
            for k, v in p[key].items():
                out[key][k] = out[key].get(k, 0.0) + v
    return out


def row(label, commit, bench, cache, m):
    rounded = {k: (round(v, 4) if isinstance(v, float) else v)
               for k, v in m.items() if not isinstance(v, dict)}
    r = {"row": label, "commit": commit, "bench": bench, "cache": cache,
         "scale": float(SCALE), "nproc": os.cpu_count()}
    r.update(rounded)
    for key in ("layers_cpu_s", "engine_gauges_s"):
        r[key] = {k: round(v, 4) for k, v in sorted(m[key].items())}
    return r


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", action="append", required=True,
                    help="build directory (repeat to alternate)")
    ap.add_argument("--bench", action="append",
                    help="bench to run cold (default: all)")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs of each bench per build")
    ap.add_argument("--no-sequence", action="store_true",
                    help="skip the whole-sequence cold and warm rows")
    ap.add_argument("--label", default="",
                    help="text for every row's 'row' field")
    ap.add_argument("--out", help="JSON list to append rows to")
    args = ap.parse_args()

    builds = [os.path.abspath(b) for b in args.build]
    commits = {b: source_commit(b) for b in builds}
    benches = args.bench or list(BENCHES)
    rows = []

    def emit(r):
        rows.append(r)
        print(json.dumps(r), flush=True)

    def order(i):
        # Alternate which build goes first, run by run.
        return builds if i % 2 == 0 else builds[::-1]

    tmp_root = tempfile.mkdtemp(prefix="bench_e2e.")
    try:
        for bench in benches:
            for i in range(args.runs):
                for b in order(i):
                    workdir = tempfile.mkdtemp(dir=tmp_root)
                    m = run_bench(b, bench,
                                  os.path.join(workdir, "cache"), workdir)
                    emit(row(args.label, commits[b], bench, "cold", m))
                    shutil.rmtree(workdir)
        if not args.no_sequence:
            name = f"sequence of {len(benches)}"
            for i in range(args.runs):
                for b in order(i):
                    workdir = tempfile.mkdtemp(dir=tmp_root)
                    cache = os.path.join(workdir, "cache")
                    for state in ("cold", "warm"):
                        parts = [run_bench(b, bench, cache, workdir)
                                 for bench in benches]
                        emit(row(args.label, commits[b], name, state,
                                 merge(parts)))
                    shutil.rmtree(workdir)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    if args.out:
        # Append, leaving the rows already in the file byte for byte.
        added = ",\n".join(json.dumps(r, separators=(",", ":"))
                           for r in rows)
        body = "["
        if os.path.exists(args.out):
            with open(args.out) as f:
                body = f.read().rstrip()
            if not body.endswith("]"):
                sys.exit(f"bench_e2e: {args.out} is not a JSON list")
            body = body[:-1].rstrip()
        sep = "\n" if body == "[" else ",\n"
        with open(args.out, "w") as f:
            f.write(body + sep + added + "\n]\n")


if __name__ == "__main__":
    main()
