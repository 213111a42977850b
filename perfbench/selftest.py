#!/usr/bin/env python3
"""Seconds-fast self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny scale (--smoke), the on-demand fig1-sat
included, and checks that:
  * the timed run prints every end-to-end metric of BENCHMARK.json with
    its unit, and the traced run every per-layer metric, both correct;
  * two runs of one seed give identical exact counts (test_patterns and
    the deterministic per-layer counters);
  * a planted wrong verdict (--plant-wrong) makes the run incorrect and
    drives ok_frac below 1.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 1
WORKLOADS = ("tegus-drop", "fig1-sat", "serve-mix", "cluster-shard")
EXACT_COUNTS = (
    "fsim.node_evals", "sat.conflicts", "sat.propagations", "sat.decisions",
    "cnf.vars", "cnf.clauses", "tegus.dropped_random", "tegus.dropped_sim",
    "cluster.shards", "cluster.solve_ratio", "incremental.reused_implications",
)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first = run(w, 7, trace)
            second = run(w, 7, trace)
            expect(first["correct"] and first["failed"] == 0,
                   f"{w} trace={trace}: correct")
            for m in metrics:
                got = first["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       f"{w} trace={trace}: {m['name']} [{m['unit']}]")
            exact = ("test_patterns",) if trace == 0 else EXACT_COUNTS
            for name in exact:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                expect(a == b, f"{w} trace={trace}: {name} exact ({a} == {b})")
        planted = run(w, 7, 0, "--plant-wrong")
        expect(not planted["correct"] and
               planted["metrics"]["ok_frac"]["value"] < 1.0,
               f"{w}: planted wrong verdict caught (ok_frac "
               f"{planted['metrics']['ok_frac']['value']:.6f})")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
