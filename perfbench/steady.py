#!/usr/bin/env python3
"""Ten-run steadiness check of the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 1]

Runs every workload --runs times through perfbench/run.py, each time with
another --seed, and reports per end-to-end metric the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The
workloads take turns (run i of every workload, then run i+1), so a slow
spell of the host is shared by all of them instead of landing on one. A spread
above a third of the metric's bound in BENCHMARK.json is flagged "wide";
above the whole bound, "FAIL" (setup_s is only reported: its bound applies
to the median, between two sets of runs). With --against FILE (the --out
file of an earlier set) it also checks that no median got worse by more
than its bound. Exits 1 when any check fails or any run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run's metrics here (JSON)")
    parser.add_argument("--against", help="--out file of an earlier set")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    workloads = args.workloads.split(",")
    record = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        for workload in workloads:
            result = run_once(workload, args.seed_base + i, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {args.seed_base + i}: INCORRECT")
                ok = False
            values = {k: v["value"] for k, v in result["metrics"].items()}
            record[workload].append(values)
            print(f"{workload} seed {args.seed_base + i}: " + " ".join(
                f"{k}={values[k]:.5g}" for k in bounds), file=sys.stderr,
                flush=True)
    for workload in workloads:
        runs = record[workload]
        print(f"== {workload} ({args.runs} runs, {args.seconds:g} s)")
        for name, m in bounds.items():
            values = [r[name] for r in runs]
            med, sp = spread(values)
            verdict = "ok"
            if name != "setup_s" and sp > m["bound"]:
                verdict, ok = "FAIL", False
            elif name != "setup_s" and sp > m["bound"] / 3:
                verdict = "wide"
            line = (f"  {name:16s} median {med:<14.6g} spread {sp:7.2%} "
                    f"(bound {m['bound']:.0%}) {verdict}  "
                    f"[{' '.join(f'{v:.5g}' for v in values)}]")
            if workload in earlier:
                old = statistics.median(r[name] for r in earlier[workload])
                worse = (med - old) / old if m["better"] == "lower" else \
                    (old - med) / old
                line += f"  vs earlier {worse:+.2%}"
                if worse > m["bound"]:
                    line += " WORSE"
                    ok = False
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
