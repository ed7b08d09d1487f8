"""Steadiness check of the ma6 benchmark.

Runs every workload in two sets of ``--runs`` runs, each run with its own
seed (set A: seeds 1..N, set B: seeds N+1..2N), then reports per
end-to-end metric the spread of each set (interquartile range over median)
and how far set B's median moved from set A's, both as a share of the
metric's median, beside the metric's bound in BENCHMARK.json.  A metric is
steady when each spread is within its bound and the two medians are within
it of each other, in either direction.  ``--runs 1 --sets 1`` prints every
end-to-end metric of every workload once.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fields --sets 1

Exit 0 when every run is correct and every metric is steady.  All results
go to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, timeout=200)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr.decode()}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(a, b, better):
    """Relative worsening of median b against median a (negative when b is
    better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    results = {}
    ok = True
    for workload in args.workloads.split(","):
        for s in range(args.sets):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                r = run_once(workload, seed, args.seconds)
                runs.append(r)
                ok &= r["correct"]
                print(f"{workload} set {'AB'[s]} seed {seed}: {r['wall_s']:.1f} s, "
                      f"correct {r['correct']}, {r['failed']}/{r['attempted']} failed, "
                      + ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                                  for k, v in r["metrics"].items()),
                      flush=True)
            results[(workload, s)] = runs

    print(f"\n{'workload':14s} {'metric':18s} {'bound':>6s} "
          f"{'spreadA':>8s} {'spreadB':>8s} {'medA':>11s} {'medB':>11s} {'B-A':>7s}")
    for workload in args.workloads.split(","):
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in results[(workload, s)]]
                    for s in range(args.sets)]
            spreads = [spread(v) for v in sets]
            meds = [statistics.median(v) for v in sets]
            moved = worse(meds[0], meds[-1], m["better"])
            steady = all(sp <= bound for sp in spreads) and abs(moved) <= bound
            ok &= steady
            print(f"{workload:14s} {name:18s} {bound:6.2f} "
                  + " ".join(f"{sp:8.3f}" for sp in spreads)
                  + ("" if args.sets == 2 else " " * 9)
                  + " ".join(f"{md:11.5g}" for md in meds)
                  + ("" if args.sets == 2 else " " * 12)
                  + f" {moved:+7.3f} {'ok' if steady else 'NOT STEADY'}")
        walls = [r["wall_s"] for s in range(args.sets) for r in results[(workload, s)]]
        print(f"{workload:14s} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({f"{w}:{'AB'[s]}": v for (w, s), v in results.items()}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
