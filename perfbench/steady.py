"""Steadiness check: run workloads over several seeds and report spreads.

Run from the root of a groundlogic checkout:

    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 3 --out a.json
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 3 --out b.json \
        --compare a.json

For each workload and end-to-end metric it prints the median and the
quartile spread (Q3 - Q1 over the median, from statistics.quantiles with
n=4) and flags spreads at or above a third of the metric's bound.  With
--compare it also flags a median that got worse by more than the bound and
any seed whose output digest or unit counts differ between the two sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(".bench_out", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    return proc.returncode, result, record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace-seeds", type=int, default=0,
                    help="also make a traced run for this many leading seeds (unit counts)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summary, ok = {}, True
    for w in args.workloads:
        runs = {}
        for seed in args.seeds:
            code, result, record = run_one(w, seed, args.seconds, 0)
            entry = {"exit": code, "correct": result["correct"], "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     "digest": record["output_digest"]}
            if seed in args.seeds[: args.trace_seeds]:
                _, _, traced = run_one(w, seed, args.seconds, 1)
                entry["unit_counts"] = traced["unit_counts"]
                entry["traced_digest"] = traced["output_digest"]
            runs[seed] = entry
            print(f"{w} seed {seed}: exit {code} correct {result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in entry["metrics"].items()), flush=True)
            if code != 0 or not result["correct"]:
                ok = False
        stats = {}
        for name in bounds:
            values = [r["metrics"][name] for r in runs.values()]
            s, med = spread(values)
            stats[name] = {"spread": s, "median": med}
            flag = "" if s < bounds[name]["bound"] / 3 else "  <-- spread >= bound/3"
            if flag and name != "setup_s":
                ok = False
            print(f"  {w} {name}: median {med:.4g} spread {s:.3f} "
                  f"(bound {bounds[name]['bound']}){flag}")
        summary[w] = {"runs": {str(k): v for k, v in runs.items()}, "stats": stats}

    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            old = json.load(fh)
        for w, cur in summary.items():
            if w not in old:
                continue
            for name, st in cur["stats"].items():
                before = old[w]["stats"][name]["median"]
                worse = (st["median"] - before) / before
                if bounds[name]["better"] == "higher":
                    worse = -worse
                if worse > bounds[name]["bound"]:
                    ok = False
                    print(f"  {w} {name}: median worse by {worse:.3f} > bound")
            for seed, run in cur["runs"].items():
                prev = old[w]["runs"].get(seed)
                if prev is None:
                    continue
                for key in ("digest", "unit_counts"):
                    if key in run and key in prev and run[key] != prev[key]:
                        ok = False
                        print(f"  {w} seed {seed}: {key} differs between the two sets")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
