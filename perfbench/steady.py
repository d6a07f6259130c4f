#!/usr/bin/env python3
"""Steadiness of the monitor-pipeline benchmark (see perfbench/README.md).

Run from the root of the repository.

    python3 perfbench/steady.py run --runs 10 --out set-a.json
        Runs every workload of BENCHMARK.json --runs times through
        perfbench/run.py for its run_seconds, with seeds 1..runs and tracing
        off, alternating the workload order from run to run, and prints for each metric the median, the quartiles and their
        distance as a share of the median, next to the metric's bound in
        BENCHMARK.json.

    python3 perfbench/steady.py compare set-a.json set-b.json
        Compares two sets: the second median against the first, and the
        share of failed checks, per workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            seed = i + 1
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"steady: {name} seed {seed} failed ({proc.returncode})")
            result = json.loads(lines[-1])
            runs.append({"workload": name, "seed": seed,
                         "wall_s": time.time() - t0, "result": result})
            print(f"steady: {name} seed {seed}: {time.time() - t0:.1f} s, "
                  f"{result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
    report(runs, bench)


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def report(runs, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, rs in by_workload(runs).items():
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in rs}
        walls = [r["wall_s"] for r in rs]
        print(f"{name}: {len(rs)} runs, failed share {sorted(shares)}, "
              f"run wall {min(walls):.1f}..{max(walls):.1f} s")
        for metric in rs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in rs]
            unit = rs[0]["result"]["metrics"][metric]["unit"]
            if len(values) < 2:
                print(f"  {metric:34s} {values[0]:12.5g} {unit}")
                continue
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(metric)
            note = ""
            if bound:
                note = f"  bound {bound:.3f}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {metric:34s} median {med:12.5g} {unit:6s} q1 {q1:12.5g} "
                  f"q3 {q3:12.5g} spread {spread:6.3f}{note}")


def compare(args):
    bench = spec()
    better = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"]}
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(by_workload(json.load(f)["runs"]))
    ok = True
    for name, first in sets[0].items():
        second = sets[1].get(name, [])
        if not second:
            continue
        share = [{r["result"]["failed"] / r["result"]["attempted"] for r in s}
                 for s in (first, second)]
        same = share[0] == share[1] and len(share[0]) == 1
        ok &= same
        print(f"{name}: failed share {sorted(share[0])} vs {sorted(share[1])} "
              f"{'same' if same else 'DIFFERENT'}")
        for metric, (direction, bound) in better.items():
            a = statistics.median(r["result"]["metrics"][metric]["value"] for r in first)
            b = statistics.median(r["result"]["metrics"][metric]["value"] for r in second)
            worse = (b - a) / a if direction == "lower" else (a - b) / a
            within = worse <= bound
            ok &= within
            print(f"  {metric:20s} {a:12.5g} -> {b:12.5g}  worse by {worse:+7.3f} "
                  f"(bound {bound:.3f}) {'ok' if within else 'REGRESSED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    if args.cmd == "run":
        run_set(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
