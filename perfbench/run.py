#!/usr/bin/env python3
"""The repo benchmark: host time end to end and per layer.

Builds the abclsim library and the `abclbench` sample runner from this
checkout's sources, then measures one workload (or every one in turn) for
a fixed time and prints every metric by name with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). See README.md for the workloads, the metrics and the
correctness gate.

    python3 perfbench/run.py --workload nqueens --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "abclbench")
# nqueens-2t is not in BENCHMARK.json: its wall time follows the host's
# thread wake-up latency (see README.md), so it is measured on demand only.
WORKLOADS = ("nqueens", "nqueens-1t", "nqueens-2t", "churn")
DEFAULT_SEED = 1  # the seed whose simulated outputs pins.json holds
HELD_OUT_SEED = 7  # reserved for validating a claimed gain; never tuned on
SAMPLE_TIMEOUT_S = 60
# Printed with the per-layer table but kept out of BENCHMARK.json: on the
# workloads without a checkpoint they read exactly 0 on every run.
UNGATED_UNITS = {"ckpt.capture_s": ("s", "lower"),
                 "ckpt.restore_s": ("s", "lower")}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class SetupError(Exception):
    """The benchmark cannot run here at all: no result is printed."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build ---

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SetupError("no abclsim sources in %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise SetupError("cmake not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if os.path.exists(cache) and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE
                                      not in open(cache).read()):
            shutil.rmtree(os.path.join(BUILD, "CMakeFiles"), ignore_errors=True)
            os.remove(cache)  # the checkout moved: configure afresh
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD, "--target", "abclbench",
                      "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                raise SetupError("build step failed: %s" % " ".join(cmd))


def tree_digest(top, suffixes):
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(suffixes):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, top).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def comparability_facts(build_info):
    """What decides whether two results may be compared."""
    # Only a repository at ROOT itself counts: git must not search above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    flags = build_info.get("cxx_flags", "")
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "build_type": build_info.get("build_type", "?"),
        "cxx_flags": flags.strip(),
        "optimized": any(f in flags.split() for f in ("-O2", "-O3", "-Ofast")),
        "compiler": build_info.get("compiler", "?"),
        "commit": commit,
        "src_digest": tree_digest(os.path.join(ROOT, "src"),
                                  (".cpp", ".hpp", ".txt")),
        "bench_digest": tree_digest(HERE, (".cpp", ".py", ".txt", ".json")),
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


# ---------------------------------------------------------------- samples ---

def run_sample(workload, seed, size, extra):
    """One abclbench process. Returns (record, error-or-None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--size", size] + extra
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % SAMPLE_TIMEOUT_S
    lines = r.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "crashed (exit %d): %s" % (r.returncode,
                                                r.stderr.strip()[-400:])
    if not rec.get("ok") or r.returncode != 0:
        return rec, "; ".join(rec.get("errors") or ["exit %d" % r.returncode])
    return rec, None


def gate(rec, reference, pins):
    """Cross-sample checks; returns a list of failures."""
    bad = []
    if reference is not None and rec["digest"] != reference["digest"]:
        bad.append("metrics_json digest %s differs from the reference %s"
                   % (rec["digest"], reference["digest"]))
    for key, want in (pins or {}).items():
        got = rec["observed"].get(key)
        if got != want:
            bad.append("pinned %s = %s, expected %s" % (key, got, want))
    return bad


def load_pins(path, workload, size, seed):
    with open(path) as f:
        table = json.load(f)
    key = "nqueens" if workload.startswith("nqueens") else workload
    return table.get(key, {}).get(size, {}).get(str(seed))


# -------------------------------------------------------------- reporting ---

def tail(values, better):
    """The highest percentile with at least ten samples beyond it, taken
    on the metric's bad side (nearest rank)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            worst_last = sorted(values, reverse=(better == "higher"))
            return "p%g" % p, worst_last[math.ceil(p / 100 * n) - 1]
    return None, None


def describe(name, unit, better, values):
    label, value = tail(values, better)
    t = "%s %.6g" % (label, value) if label else "no tail (n<20)"
    return "  %-30s %-13s %-6s median %-14.6g %-22s n=%d" % (
        name, unit, better, statistics.median(values), t, len(values))


def measure(workload, seed, seconds, trace, size, pins_path, spec):
    """Runs one workload; returns (attempted, failed, metrics, record).
    A metric that could not be measured is left out of `metrics`."""
    pins = load_pins(pins_path, workload, size, seed)
    failures = []
    ref, err = run_sample(workload, seed, size, ["--reference"])
    if err is None:
        err = "; ".join(gate(ref, None, pins)) or None
    if err is not None:
        log("%s: reference run FAILED: %s" % (workload, err))
        print("%s (seed %d): the reference run failed the gate" % (workload,
                                                                   seed))
        print("  %-30s %-13s %-6s 1 (1 of 1 runs failed)" % (
            "fail_ratio", "ratio", "lower"))
        return 1, 1, {}, {"workload": workload, "failures": [err]}
    extra = []
    if workload == "churn":
        extra = ["--ckpt-at", str(ref["sim_time"] // 2 + 1)]

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # Untraced samples time the end-to-end metrics; with --trace 1 every
    # other sample is the traced run, and the untraced ones give the
    # tracing overhead.
    untraced, traced = [], []
    tries = {False: 0, True: 0}
    start = time.monotonic()
    while True:
        traced_turn = bool(trace) and tries[True] < tries[False]
        args = list(extra)
        if traced_turn:
            args += ["--trace", os.path.join(
                trace_dir, "%s-seed%d-%d.json" % (workload, seed, tries[True]))]
        tries[traced_turn] += 1
        rec, err = run_sample(workload, seed, size, args)
        problems = [err] if err else gate(rec, ref, pins)
        if problems:
            failures.append("; ".join(problems))
            log("%s: sample %d FAILED: %s" % (workload, sum(tries.values()),
                                              failures[-1]))
            if rec is None:
                break  # a crash or a hang would repeat: stop
        else:
            (traced if traced_turn else untraced).append(rec)
        if (time.monotonic() - start >= seconds and
                (tries[True] or not trace)):
            break
    attempted = 1 + sum(tries.values())

    fail_ratio = len(failures) / attempted
    e2e = {}
    if untraced:
        e2e = {
            "wall_s": [r["wall_s"] for r in untraced],
            "msgs_per_s": [r["messages"] / r["wall_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "heap_mb": [r["heap_mb"] for r in untraced],
        }
    layers = {}
    if traced and untraced:
        for name in traced[0]["layers"]:
            layers[name] = [r["layers"][name] for r in traced]
        untraced_wall = statistics.median(e2e["wall_s"])
        traced_wall = [r["wall_s"] for r in traced]
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_ratio"] = [
            statistics.median(traced_wall) / untraced_wall]

    units = dict(UNGATED_UNITS)
    units.update({m["name"]: (m["unit"], m["better"])
                  for m in spec["end_to_end"] + spec["per_layer"]})
    print("%s (seed %d%s, size %s, %.1f s measured, %d samples, %d traced)" % (
        workload, seed, ", the held-out seed" if seed == HELD_OUT_SEED else "",
        size, time.monotonic() - start, len(untraced), len(traced)))
    for name, values in list(e2e.items()) + list(layers.items()):
        unit, better = units.get(name, ("", "lower"))
        print(describe(name, unit, better, values))
    print("  %-30s %-13s %-6s %.6g (%d of %d runs failed)" % (
        "fail_ratio", "ratio", "lower", fail_ratio, len(failures), attempted))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else e2e
    metrics = {m["name"]: {"value": statistics.median(source[m["name"]]),
                           "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    record = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "failures": failures, "fail_ratio": fail_ratio,
        "samples": untraced, "traced_samples": traced, "reference": ref,
    }
    return attempted, len(failures), metrics, record


# ------------------------------------------------------------------- main ---

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-test only")
    ap.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                    help="pinned simulated outputs (default: pins.json)")
    ap.add_argument("--print-pins", action="store_true",
                    help="print a pins.json for the current program and exit")
    args = ap.parse_args()

    try:
        found = sorted(k for k in os.environ if k.startswith("ABCLSIM_"))
        if found:
            raise SetupError("refusing to run with %s set: the environment "
                             "must not configure the simulator"
                             % ", ".join(found))
        spec_path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.isfile(spec_path):
            raise SetupError("no BENCHMARK.json at %s" % ROOT)
        with open(spec_path) as f:
            spec = json.load(f)
        build()
    except SetupError as e:
        log("perfbench: %s" % e)
        return 2

    if args.print_pins:
        return print_pins(args.seed)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = len(spec["per_layer" if args.trace else "end_to_end"])
    attempted = failed = 0
    complete = True
    metrics = {}
    records = []
    for w in workloads:
        a, f, m, rec = measure(w, args.seed, args.seconds, args.trace,
                               args.size, args.pins, spec)
        attempted += a
        failed += f
        complete = complete and len(m) == wanted
        records.append(rec)
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({"%s.%s" % (w, k): v for k, v in m.items()})

    build_info = {}
    for rec in records:
        if rec.get("reference"):
            build_info = rec["reference"]
    facts = comparability_facts(build_info)
    print("comparability: " + json.dumps(facts, sort_keys=True))
    if not facts["optimized"]:
        print("WARNING: the library was built without -O2/-O3; its times "
              "are not comparable with an optimized build")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump({"facts": facts, "runs": records}, f, indent=1)
    print("samples and facts written to %s" % os.path.relpath(out, ROOT))
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_pins(seed):
    """The pins.json for the program as it is now; regenerate it only with
    a change that is meant to alter simulated results."""
    table = {}
    for w in ("nqueens", "churn"):
        for size in ("full", "tiny"):
            rec, err = run_sample(w, seed, size, ["--reference"])
            if err is not None:
                log("%s/%s: %s" % (w, size, err))
                return 1
            table.setdefault(w, {}).setdefault(size, {})[str(seed)] = (
                rec["observed"])
    print(json.dumps(table, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
