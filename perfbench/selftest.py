"""Self-tests of the benchmark harness.

Run from the root of a groundlogic checkout:

    python3 perfbench/selftest.py

Checks that a corrupted output (one flipped ground-state bit) is counted in
wrong_outputs and fails the run; that an op that raises is counted as
failed without aborting the pass; that a held-out seed runs with zero
wrong outputs on every workload; and that the benchmark refuses to run,
without printing a result, where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HELD_OUT_SEED = 801
WORKLOADS = ("sat-search", "dtm-verify", "anneal-readout", "blind-oracle")


def bench(workload, seed, *extra, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = None
    path = os.path.join(cwd, ".bench_out", f"{workload}-seed{seed}-trace0.json")
    if result is not None:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    return proc.returncode, result, record


def expect(failures, cond, message):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def main():
    failures: list[str] = []
    for workload in ("sat-search", "blind-oracle"):
        code, result, record = bench(workload, HELD_OUT_SEED, "--inject", "wrong")
        expect(failures, code != 0 and result is not None and not result["correct"]
               and record["wrong_outputs"] == 1,
               f"{workload}: one flipped ground-state bit gives wrong_outputs=1 and fails the run")

    code, result, record = bench("blind-oracle", HELD_OUT_SEED, "--inject", "raise")
    ops = record["passes"] * len(record["instances"]) if record else -1
    expect(failures, code != 0 and result is not None and result["failed"] == 1
           and result["attempted"] == ops and record["error_rate"] == 1 / ops
           and record["wrong_outputs"] == 0,
           "blind-oracle: a raising op is counted in error_rate and the pass goes on")

    for workload in WORKLOADS:
        code, result, record = bench(workload, HELD_OUT_SEED)
        expect(failures, code == 0 and result["correct"] and result["failed"] == 0
               and record["wrong_outputs"] == 0,
               f"{workload}: held-out seed {HELD_OUT_SEED} runs with zero wrong outputs")

    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, result, _ = bench("sat-search", HELD_OUT_SEED, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(failures, code != 0 and result is None,
           "without the program the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
