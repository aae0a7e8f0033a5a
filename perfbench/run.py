#!/usr/bin/env python3
"""Repository benchmark: build the driver and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fit_warmup --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --record      # re-pin every digest
    python3 perfbench/run.py --compare OLD.json NEW.json

A run builds perfbench/ (which compiles ../src and ../bench) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, and
refuses unoptimized builds. It then times set-up in fresh processes,
runs the workload once, checks every run's digest against
perfbench/pinned.txt and prints, as its last stdout line, one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones. Host context (nproc, workers, build
type, compiler, load average) and the full result go to stderr and to
<build>/results/<workload>-seed<N>-trace<T>.json. Exit code 0 means
every run was correct; a digest mismatch exits 1.

See perfbench/README.md for the workloads and how to read the trace.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.txt")
WORKLOADS = ("fit_warmup", "spill_sim", "device_ladder", "fig11_cold")
OPTIMIZED_BUILD_TYPES = ("release", "relwithdebinfo")
#: Fresh processes that time set-up, besides the measured run.
SETUP_SAMPLES = 19
#: Wall-clock limit for the measured run, in seconds.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    for need in ("src/CMakeLists.txt", "bench/figures.hh"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"simulator sources missing ({need}); run from a "
                 "full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    build_type = ""
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip().lower()
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail(f"refusing to time a '{build_type or 'unset'}' build; "
             "configure with CMAKE_BUILD_TYPE=Release")
    return os.path.join(out, "perfbench")


def pinned_seeds():
    seeds = {}
    if os.path.isfile(PINNED):
        with open(PINNED) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 3 and parts[0] == "seed":
                    seeds[parts[1]] = int(parts[2])
    return seeds


def driver(binary, args, timeout):
    """Run the driver; returns (exit code, last-line JSON or None)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout} s")
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run(opts):
    binary = build()
    work = os.path.join(build_dir(), "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--work-dir", work]
    load_avg = os.getloadavg()[0]

    setups = []
    for _ in range(0 if opts.trace else SETUP_SAMPLES):
        rc, out = driver(binary, common + ["--setup-only"], 60)
        if rc != 0 or out is None:
            fail("set-up run failed")
        setups.append(out["setup_s"])

    args = common + ["--seconds", str(opts.seconds),
                     "--trace", "1" if opts.trace else "0",
                     "--pinned", PINNED]
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{int(opts.trace)}"
    if opts.trace:
        args += ["--spans", os.path.join(results, stem + ".spans.jsonl")]
    t0 = time.monotonic()
    rc, out = driver(binary, args, RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    if out is None:
        fail(f"driver printed no result (exit {rc})")
    setups.append(out["setup_s"])

    context = dict(out["context"], load_avg_1m=load_avg,
                   run_s=round(time.monotonic() - t0, 3))
    if context["build_type"] not in OPTIMIZED_BUILD_TYPES:
        fail(f"refusing results of a '{context['build_type']}' build")
    got = dict(out["metrics"])
    if not opts.trace:
        got["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in metric_specs(opts.trace):
        if m["name"] not in got:
            fail(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": got[m["name"]], "unit": m["unit"]}

    correct = rc == 0 and out["pinned_ok"] and out["failed"] == 0
    detail = {"workload": opts.workload, "seed": opts.seed,
              "trace": int(opts.trace), "context": context,
              "samples": out["samples"], "setup_samples_s": setups,
              "workload_digest": out["workload_digest"],
              "errors": out["errors"], "correct": correct,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps({k: detail[k] for k in
                      ("workload", "context", "samples", "errors")}),
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def record():
    """Re-pin every workload's digests (after an intended change)."""
    binary = build()
    seeds = pinned_seeds() or {"default": 1, "held_out": 7919}
    work = os.path.join(build_dir(), "work")
    lines = ["# Pinned digests of the repository benchmark; see "
             "perfbench/README.md.",
             "# Regenerate with: python3 perfbench/run.py --record"]
    lines += [f"seed {k} {v}" for k, v in sorted(seeds.items())]
    for w in WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        rec = os.path.join(build_dir(), f"pinned-{w}.txt")
        rc, out = driver(binary, ["--workload", w, "--seed", "1",
                                  "--seconds", "0", "--trace", "1",
                                  "--work-dir", work, "--record", rec],
                         RUN_TIMEOUT_S)
        if rc != 0 or out is None or out["failed"]:
            fail(f"{w}: runs failed; nothing recorded")
        with open(rec) as f:
            lines += f.read().splitlines()
        print(f"recorded {w}: {out and out['workload_digest']}",
              file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with open(PINNED, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def compare(old_path, new_path):
    """Per-metric ratios of two result files from the same host."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in ("nproc", "workers"):
        if old["context"][key] != new["context"][key]:
            fail(f"refusing to compare results taken at different "
                 f"{key}: {old['context'][key]} vs {new['context'][key]}")
    if old["workload"] != new["workload"]:
        fail("refusing to compare different workloads")
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:8.3f}x" if a else "       -"
        print(f"{name:34s} {a:14.6g} {b:14.6g} {ratio} {m['unit']}")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    opts = ap.parse_args()
    if opts.compare:
        return compare(*opts.compare)
    if opts.record:
        return record()
    if not opts.workload:
        ap.error("--workload is required")
    if opts.seed is None:
        opts.seed = pinned_seeds().get("default", 1)
    return run(opts)


if __name__ == "__main__":
    sys.exit(main())
