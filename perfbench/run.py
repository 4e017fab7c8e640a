"""groundlogic benchmark: one workload per process, outputs checked against
independent references.

Run from the root of a groundlogic checkout:

    python3 perfbench/run.py --workload sat-search --seed 301 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics on untraced passes over the
workload's instances.  `--trace 1` alternates untraced and traced passes
and reports the per-layer metrics from the traced ones, plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a run record and, when
traced, the spans are written under `.bench_out/`.
"""

from __future__ import annotations

import os

# one compute thread per workload process; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import COUNT_METRICS, Tracer, layer_metrics, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_SAMPLES = 5
DEFAULT_SEED = 301


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # benchmark self-test hooks (see selftest.py)
    ap.add_argument("--inject", choices=("wrong", "raise"), default=None,
                    help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    sys.path.insert(0, os.path.abspath("src"))
    import groundlogic
    import groundlogic.cli  # noqa: F401  (the cli module is not imported by the package)

    return groundlogic


def make_workload(args, workdir):
    gl = load_program()
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](gl, args.seed, workdir)
    wl.prepare()
    return gl, wl


def setup_only(args):
    workdir = os.path.join(OUT_DIR, f"setup-{os.getpid()}")
    try:
        make_workload(args, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def sample_setup(args):
    """Set-up time of fresh processes: start to ready for the first op.

    One unmeasured start first fills the bytecode caches.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        if i:
            samples.append(t1 - t0)
    return samples


class Runner:
    """Runs passes over the instances, checks every output, keeps the tallies."""

    def __init__(self, wl, inject):
        self.wl = wl
        self.inject = inject
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.first_outputs: dict[int, str] = {}
        self.extra: dict[int, dict] = {}

    def run_pass(self, tracer=None, timed=True):
        """One pass over every instance; returns the summed op time.

        A pass with timed=False (the traced one) is checked like any other
        but adds no latencies to the end-to-end metrics.
        """
        op_total = 0.0
        start = perf_counter()
        for inst in self.wl.instances:
            first = self.passes == 0 and inst.id == 0
            sid = tracer.begin_op(inst.id) if tracer else None
            t0 = perf_counter()
            try:
                if first and self.inject == "raise":
                    raise RuntimeError("injected op failure")
                out, err = self.wl.run(inst), None
            except Exception as exc:  # an op failure is counted, the pass goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer:
                tracer.end_op(sid)
            op_total += dt
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.failures.append(f"pass {self.passes} {inst.label}: {err}")
                continue
            if timed:
                self.latencies.append(dt)
            if first and self.inject == "wrong":
                out = self.wl.corrupt(inst, out)
            self._check(inst, out)
            del out  # an op's output must not stay alive during the next op
        self.passes += 1
        self.pass_walls.append(perf_counter() - start)
        return op_total

    def _check(self, inst, out):
        try:
            canon, problems, extra = self.wl.check(inst, out)
        except Exception as exc:  # a malformed output is a wrong output
            canon, problems, extra = "", [f"check raised {type(exc).__name__}: {exc}"], {}
        digest = hashlib.sha256(canon.encode()).hexdigest()
        if inst.id in self.first_outputs and self.first_outputs[inst.id] != digest:
            problems.append("output differs from the same instance's earlier pass")
        elif not problems:
            # the first correct output of an instance is what later passes must repeat
            self.first_outputs.setdefault(inst.id, digest)
            self.extra.setdefault(inst.id, extra)
        if problems:
            self.wrong += 1
            self.failures.append(f"pass {self.passes} {inst.label}: wrong output: "
                                 + "; ".join(problems))

    def digest(self):
        """sha256 over the per-instance output digests, in instance order."""
        h = hashlib.sha256()
        for i in sorted(self.first_outputs):
            h.update(self.first_outputs[i].encode())
        return h.hexdigest()


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def loop(seconds, body):
    """Call body() until another call would pass `seconds`; at least once."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        body()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return


def run_traced(runner, seconds, gl):
    """Alternate untraced and traced passes; per-layer metrics of the traced."""
    passes, overheads = [], []

    def pair():
        untraced = runner.run_pass()
        tracer = Tracer(gl)
        tracer.install()
        try:
            traced = runner.run_pass(tracer, timed=False)
        finally:
            tracer.uninstall()
        passes.append(tracer.spans)
        overheads.append(traced - untraced)

    loop(seconds, pair)
    return passes, sum(overheads) / len(overheads)


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(".git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "groundlogic", "__init__.py")):
        print("perfbench: src/groundlogic not found; run from the root of a groundlogic "
              "checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    os.makedirs(OUT_DIR, exist_ok=True)
    setup_samples = sample_setup(args)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        return measure(args, setup_samples, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def measure(args, setup_samples, workdir):
    gl, wl = make_workload(args, workdir)
    t0 = perf_counter()
    problems = wl.reference()
    reference_s = perf_counter() - t0
    runner = Runner(wl, args.inject)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine_record()}

    t0 = perf_counter()
    if args.trace:
        passes, overhead_s = run_traced(runner, args.seconds, gl)
    else:
        loop(args.seconds, runner.run_pass)
    measured_s = perf_counter() - t0

    lat = runner.latencies
    tail_value, tail_pct = tail(lat) if lat else (0.0, 0.0)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
        "op_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    restarts = sum(e.get("restarts", 0) for e in runner.extra.values())
    successes = sum(e.get("successes", 0) for e in runner.extra.values())
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{runner.passes} passes, {runner.attempted} ops in {measured_s:.2f} s; "
             f"reference {reference_s:.2f} s"]
    lines += [f"{name} = {e2e[name]:.6g} {unit}" for name, unit in E2E_UNITS.items()]
    lines.append(f"op_tail_ms is p{tail_pct:.1f} of {len(lat)} samples")
    lines.append(f"error_rate = {runner.failed / max(runner.attempted, 1):.6g} "
                 f"({runner.failed} of {runner.attempted})")
    lines.append(f"wrong_outputs = {runner.wrong}")
    if restarts:
        lines.append(f"anneal_success_rate = {successes / restarts:.6g} "
                     f"({successes} of {restarts})")

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"{tag}-spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for k, spans in enumerate(passes):
                for s in spans:
                    fh.write(json.dumps({"pass": k, **s}) + "\n")
        layer, counts, counts_repeat, busy = layer_metrics(passes, overhead_s)
        if not counts_repeat:
            problems.append("unit counts differ between traced passes")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer_metrics()}
        record.update(unit_counts={k: layer[k] for k in COUNT_METRICS}, raw_counts=counts,
                      busy_s=busy, spans=spans_path)
        lines += [f"{name} = {layer[name]:.6g} {unit}" for name, unit in per_layer_metrics()]
        top = sorted(busy.items(), key=lambda kv: -kv[1])[:6]
        lines.append("busy share of traced op time: " + ", ".join(
            f"{g} {100 * b / layer['trace.op_s']:.1f}%" for g, b in top if b > 0))
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    correct = runner.wrong == 0 and not problems
    record.update(
        instances=[{"id": i.id, "kind": i.kind, "label": i.label, **i.sizes}
                   for i in wl.instances],
        passes=runner.passes, pass_walls_s=runner.pass_walls,
        attempted=runner.attempted, failed=runner.failed,
        error_rate=runner.failed / max(runner.attempted, 1), wrong_outputs=runner.wrong,
        failures=runner.failures[:20], setup_problems=problems,
        setup_samples_s=setup_samples, reference_s=reference_s, measured_s=measured_s,
        tail_percentile=tail_pct, samples=len(lat), op_latencies_s=lat,
        anneal_success_rate=successes / restarts if restarts else None,
        output_digest=runner.digest(), end_to_end=e2e, metrics=metrics,
    )
    record_path = os.path.join(OUT_DIR, f"{tag}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    lines += [f"problem: {p}" for p in (problems + runner.failures)[:10]]
    lines.append(f"output_digest = sha256:{runner.digest()}")
    lines.append(f"record = {record_path}")
    print(lines[0])
    for line in lines[1:]:
        print(f"  {line}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct and runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
