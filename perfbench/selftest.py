#!/usr/bin/env python3
"""Self-test of the repo benchmark, at tiny sizes.

For every workload, one short untraced and one short traced run: each must
pass the correctness gate and print every metric BENCHMARK.json names, by
name in the table and in the final JSON line. Then a copy of pins.json with
one deliberately wrong pinned value must trip the gate.

    python3 perfbench/selftest.py        # exit 0 = all checks passed
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, pins=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0.5", "--trace",
           str(trace), "--size", "tiny"]
    if pins is not None:
        cmd += ["--pins", pins]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit("selftest: %s failed (exit %d)\n%s"
                         % (" ".join(cmd), r.returncode, r.stderr[-2000:]))
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    # Every workload BENCHMARK.json gates, plus the on-demand nqueens-2t.
    workloads = [w["name"] for w in spec["workloads"]] + ["nqueens-2t"]
    for w in workloads:
        for trace in (0, 1):
            lines, res = run(w, trace)
            where = "%s --trace %d" % (w, trace)
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: gate failed on a correct program" % where)
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            if sorted(res["metrics"]) != sorted(names):
                problems.append("%s: JSON metrics %s != BENCHMARK.json %s"
                                % (where, sorted(res["metrics"]), sorted(names)))
            table = {l.split()[0] for l in lines if l.startswith("  ")}
            for n in names + ["fail_ratio"]:
                if n not in table:
                    problems.append("%s: %s not printed" % (where, n))
            print("ok   %s: %d metrics, %d runs" % (where, len(names),
                                                   res["attempted"]))

    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    pins["nqueens"]["tiny"]["1"]["sim_time"] += 1
    wrong = os.path.join(ROOT, ".bench_build", "perfbench",
                         "selftest-wrong-pins.json")
    with open(wrong, "w") as f:
        json.dump(pins, f)
    _, res = run("nqueens", 0, pins=wrong)
    if res["correct"] or res["failed"] == 0:
        problems.append("a wrong pinned sim_time did not trip the gate")
    else:
        print("ok   a wrong pinned sim_time trips the gate (%d of %d runs "
              "failed)" % (res["failed"], res["attempted"]))

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
