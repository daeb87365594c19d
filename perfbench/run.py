#!/usr/bin/env python3
"""The repository benchmark: builds mgbench from source, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload tree15_overload --seed 7 --seconds 40 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else to .bench_build. With --trace 0 it repeats the workload, one process per
repetition, until --seconds have passed (at least twice) and reports the
end-to-end metrics as medians. With --trace 1 it makes the untraced reference
run, the traced run and the layer drivers once, and reports the per-layer
metrics. Either way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. README.md beside this file
describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rgg3k_idle", "tree15_overload", "tree15_campaign")
MIN_REPS = 2  # the same-seed fingerprint check needs two runs
CHILD_TIMEOUT_S = 170


def load_spec():
    """The metric list and units, from BENCHMARK.json at the repository root."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configures and builds mgbench; build output goes to stderr. Compiler
    temporaries go under the build directory too, not to the system's."""
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "mgbench", "-j", jobs],
    ):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, check=True,
                       timeout=880)
    return os.path.join(build_dir, "mgbench")


def run_child(cmd):
    """Runs one mgbench process and returns the JSON object it printed."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint_failures(reps, key):
    """Repetitions whose fingerprint `key` differs from the first one's."""
    return sum(1 for r in reps if r[key] != reps[0][key])


def end_to_end(reps):
    """The end-to-end metrics and the failed-repetition count of a timed run."""
    failed = sum(1 for r in reps if r["failed_checks"])
    failed += fingerprint_failures(reps, "fnv1a")
    if "json_fnv1a" in reps[0]:
        failed += fingerprint_failures(reps, "json_fnv1a")
    setup = [s for r in reps for s in r["setup_s"]]
    values = {
        "sim_per_wall": statistics.median(r["sim_s"] / r["run_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in reps),
    }
    return values, min(failed, len(reps))


def result(values, names, units, attempted, failed):
    """The final JSON object; every listed metric must have been measured."""
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError("metrics not measured: " + ", ".join(missing))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in section}

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    base = [exe, "trace" if args.trace else "rep", "--workload", args.workload,
            "--seed", str(args.seed)]

    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        out = run_child(base + ["--spans", spans])
        failed = min(len(out["failed_checks"]), int(out["runs"]))
        res = result(out["metrics"], names, units, int(out["runs"]), failed)
    else:
        reps = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            reps.append(run_child(base))
            took = time.monotonic() - t0
            if len(reps) >= MIN_REPS and time.monotonic() - start + took > args.seconds:
                break
        values, failed = end_to_end(reps)
        print("perfbench: %s seed %d: %d repetitions, sim_per_wall each: %s"
              % (args.workload, args.seed, len(reps),
                 " ".join("%.4g" % (r["sim_s"] / r["run_s"]) for r in reps)),
              file=sys.stderr)
        res = result(values, names, units, len(reps), failed)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
