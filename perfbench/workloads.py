"""The four benchmark workloads: inputs, one op each, and output checks.

Each workload draws its inputs from the seed (`prepare`, timed as set-up),
computes independent references (`reference`, timed separately), runs one
op per instance through the public functions of groundlogic (`run`, the
only timed region), and checks an op's output against the reference
(`check`).  Calls go through module attributes at call time so the traced
pass can rebind them.  Ops cost 0.15-0.3 s, so a run holds about a
hundred samples, over which the median and tail average out the drift of
a shared host's CPU speed.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import reference as R


@dataclass
class Instance:
    id: int
    kind: str
    label: str
    sizes: dict
    data: dict


def run_cli(gl, argv):
    """In-process `groundlogic` command; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = gl.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _kv_lines(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class Workload:
    name = ""

    def __init__(self, gl, seed: int, workdir: str):
        self.gl = gl
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.instances: list[Instance] = []

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self):
        raise NotImplementedError

    def reference(self) -> list[str]:
        """Compute references; return set-up problems (empty when sound)."""
        raise NotImplementedError

    def run(self, inst):
        raise NotImplementedError

    def check(self, inst, out):
        """(canonical output text, problems, extra counts) for one op."""
        raise NotImplementedError

    def corrupt(self, inst, out):
        """Flip one ground-state bit of an op's output (benchmark self-test)."""
        raise NotImplementedError(f"{self.name} has no ground-state output to corrupt")


# --- sat-search -----------------------------------------------------------------


class SatSearch(Workload):
    """Random 3-CNF near the threshold through the conditioned exact solve."""

    name = "sat-search"
    N, M, CANDIDATES = 10, 42, 64
    SAT, UNSAT = 3, 3

    def prepare(self):
        self.candidates = []
        for _ in range(self.CANDIDATES):
            clauses = R.random_3cnf(self.rng, self.N, self.M)
            self.candidates.append((clauses, R.format_dimacs(self.N, clauses)))

    def reference(self):
        sat, unsat = [], []
        for clauses, text in self.candidates:
            masks = R.satisfying_masks(self.N, clauses)
            (sat if len(masks) else unsat).append((clauses, text, masks))
        if len(sat) < self.SAT or len(unsat) < self.UNSAT:
            return [f"only {len(sat)} SAT and {len(unsat)} UNSAT candidates"]
        picked = [x for pair in zip(sat, unsat) for x in pair][: self.SAT + self.UNSAT]
        for i, (clauses, text, masks) in enumerate(picked):
            e0 = 0 if len(masks) else 1
            if not len(masks):
                masks = np.arange(1 << self.N, dtype=np.int64)
            self.instances.append(
                Instance(i, "cnf", f"cnf{i}", {"n": self.N, "m": self.M, "sat": e0 == 0},
                         {"clauses": clauses, "text": text, "e0": e0, "masks": masks})
            )
        return []

    def run(self, inst):
        gl = self.gl
        cnf = gl.parse_dimacs(inst.data["text"])
        net = gl.compile_netlist(gl.encode_cnf(cnf), penalty=2)
        net = gl.attach_dedlu(net, "sat", 1)
        e0, states = net.ground_states()
        return net, e0, states

    def check(self, inst, out):
        net, e0, states = out
        var_ids = net.model.var_ids
        inst.sizes.update(vars=len(var_ids), plan=len(net.plan))
        bits = R.states_matrix(states, var_ids)
        problems = []
        if e0 != inst.data["e0"]:
            problems.append(f"E0 {e0} != reference {inst.data['e0']}")
        cols = [var_ids.index(net.port_map[f"x{i}"]) for i in range(1, self.N + 1)]
        proj = np.zeros(len(states), dtype=np.int64)
        for j, c in enumerate(cols):
            proj |= bits[:, c].astype(np.int64) << j
        if not np.array_equal(np.sort(proj), inst.data["masks"]):
            problems.append("ground-state inputs differ from the reference satisfying set")
        energies, denom = R.state_energies(
            var_ids, [(t.vars, t.table) for t in net.model.terms], bits
        )
        if len(states) and not np.all(energies == e0 * denom):
            problems.append("a returned ground state does not have energy E0")
        canon = f"E0={e0} deg={len(states)}\n" + "\n".join(
            "".join(map(str, row)) for row in bits.tolist()
        )
        return canon, problems, {}

    def corrupt(self, inst, out):
        net, e0, states = out
        flipped = dict(states[0])
        x1 = net.port_map["x1"]
        flipped[x1] ^= 1
        return net, e0, [flipped] + states[1:]


# --- dtm-verify -------------------------------------------------------------------

MACHINES = {
    # name: (states, start, halts, delta)
    "flipper": (("q",), "q", (), {("q", 0): ("q", 1, "U"), ("q", 1): ("q", 0, "U")}),
    "two-state": (
        ("a", "b"), "a", (),
        {("a", 0): ("b", 1, "U"), ("a", 1): ("a", 0, "U"),
         ("b", 0): ("a", 1, "D"), ("b", 1): ("b", 0, "D")},
    ),
    # little-endian binary increment; halts once the carry is absorbed
    "increment": (
        ("carry", "done"), "carry", ("done",),
        {("carry", 1): ("carry", 0, "U"), ("carry", 0): ("done", 1, "U")},
    ),
}
# (machine, op kind, p).  p is chosen per op so that the ops cost about the
# same (0.2-0.3 s), which keeps the latency percentiles off the gaps between
# op sizes and gives every instance a dozen passes in a run.
# "cli" runs `groundlogic dtm --verify --out` (penalty policy).
DTM_OPS = (
    ("flipper", "penalty", 6), ("flipper", "edc-symmetrized", 4), ("flipper", "cli", 6),
    ("two-state", "penalty", 4), ("two-state", "edc-symmetrized", 2), ("two-state", "cli", 4),
    ("increment", "penalty", 4), ("increment", "edc-symmetrized", 2), ("increment", "cli", 4),
)


class DtmVerify(Workload):
    """Machine lattices with a free input row: build, verify, dump round trip."""

    name = "dtm-verify"

    def prepare(self):
        heads = {}
        for mname, (states, start, halts, delta) in MACHINES.items():
            _write(self.path(f"{mname}.dtm"), R.format_dtm(states, start, halts, delta))
        for mname, kind, p in DTM_OPS:
            head = heads.setdefault((mname, p), self.rng.randint(1, p))
            states, start, halts, delta = MACHINES[mname]
            data = {"machine": mname, "text": R.format_dtm(states, start, halts, delta),
                    "p": p, "head": head, "spec": self.path(f"{mname}.dtm"),
                    "out": self.path(f"{mname}-p{p}.dump")}
            policy = "penalty" if kind == "cli" else kind
            self.instances.append(Instance(
                len(self.instances), "cli" if kind == "cli" else "lib", f"{mname}/p{p}/{kind}",
                {"p": p, "policy": policy, "head_start": head}, dict(data, policy=policy)))

    def reference(self):
        gl = self.gl
        problems = []
        for key in sorted({(i.data["machine"], i.data["p"], i.data["head"])
                           for i in self.instances}):
            mname, p, head = key
            states, start, halts, delta = MACHINES[mname]
            spec = gl.DtmSpec(states, start, frozenset(halts), delta)
            histories = set()
            for x in range(1 << p):
                tape = tuple((x >> j) & 1 for j in range(p))
                rows = R.dtm_history(start, set(halts), delta, tape, head, p)
                histories.add(rows)
                if gl.simulate_dtm_oracle(spec, tape, head, p).rows != rows:
                    problems.append(f"{mname} p={p}: program oracle disagrees on tape {tape}")
            if len(histories) != 1 << p:
                problems.append(f"{mname} p={p}: histories are not one per input tape")
        return problems

    def run(self, inst):
        gl, d = self.gl, inst.data
        if inst.kind == "cli":
            return run_cli(gl, ["dtm", d["spec"], "--p", d["p"], "--head-start", d["head"],
                                "--verify", "--out", d["out"]])
        dtm = gl.parse_dtm(d["text"])
        text = gl.format_dtm(dtm)
        lattice = gl.build_lattice(dtm, d["p"], d["head"], policy=d["policy"])
        ok = gl.verify_ground_histories(lattice)
        dump = gl.format_model(lattice.network.model)
        again = gl.format_model(gl.parse_model(dump))
        return text, lattice.complexity, ok, dump, again

    def _check_dump(self, dump, p, problems):
        labels, clamps = R.dump_labels(dump)
        present = set(labels.values())
        missing = [f"t{i}_{j}" for i in range(1, p + 2) for j in range(1, p + 1)
                   if f"t{i}_{j}" not in present]
        if missing:
            problems.append(f"dump lacks register variables {missing[:3]}")
        return len(labels) - clamps

    def check(self, inst, out):
        d, p, problems = inst.data, inst.data["p"], []
        if inst.kind == "cli":
            code, stdout = out
            dump = _read(d["out"])
            report = _kv_lines(stdout)
            expect = {"p": str(p), "registers": str(p * (p + 1)),
                      "within_bound": "true", "verify": "ok"}
            if code != 0:
                problems.append(f"exit code {code}")
            for k, v in expect.items():
                if report.get(k) != v:
                    problems.append(f"{k}={report.get(k)} expected {v}")
            inst.sizes["free_vars"] = self._check_dump(dump, p, problems)
            return stdout + dump, problems, {}
        text, c, ok, dump, again = out
        if text != d["text"]:
            problems.append("format_dtm(parse_dtm(text)) differs from the input text")
        if ok is not True:
            problems.append("verify_ground_histories is not True")
        if again != dump:
            problems.append("dump re-format is not byte-identical")
        if c.p != p or c.registers != p * (p + 1) or not c.within_bound:
            problems.append(f"element accounting off: {c}")
        inst.sizes["free_vars"] = self._check_dump(dump, p, problems)
        inst.sizes["dump_bytes"] = len(dump.encode())
        canon = f"{text}verify={ok}\n{c}\n{dump}"
        return canon, problems, {}


# --- anneal-readout ---------------------------------------------------------------


class AnnealReadout(Workload):
    """CLI compile then seeded Metropolis read-out of random 3-CNF."""

    name = "anneal-readout"
    # one formula size keeps the op costs alike, so the percentiles are steady
    N, M, COUNT = 14, 59, 6
    SWEEPS, RESTARTS = 50, 4

    def prepare(self):
        n, m = self.N, self.M
        for i in range(self.COUNT):
            clauses = R.random_3cnf(self.rng, n, m)
            cnf = self.path(f"f{i}.cnf")
            _write(cnf, R.format_dimacs(n, clauses))
            self.instances.append(Instance(
                i, "cnf", f"cnf{i}/n{n}", {"n": n, "m": m},
                {"clauses": clauses, "cnf": cnf, "dump": self.path(f"f{i}.dump"),
                 "csv": self.path(f"f{i}.csv"), "seed": self.rng.randrange(1 << 30)}))

    def reference(self):
        for inst in self.instances:
            masks = R.satisfying_masks(inst.sizes["n"], inst.data["clauses"])
            inst.data["e0"] = 0 if len(masks) else 1
            inst.sizes["sat"] = bool(len(masks))
        # same seed twice must give the same result, field for field
        gl, inst = self.gl, self.instances[0]
        net = gl.compile_netlist(gl.encode_cnf(gl.parse_dimacs(_read(inst.data["cnf"]))), penalty=2)
        _, net = gl.assemble_usqc(net, dedlu_ports=net.outputs, delta=1)
        sched = gl.AnnealSchedule(t_start=2.0, t_end=0.05, sweeps=50, restarts=self.RESTARTS,
                                  seed=inst.data["seed"])
        runs = [repr(gl.metropolis_anneal(net.model, sched, target=inst.data["e0"]))
                for _ in range(2)]
        return [] if runs[0] == runs[1] else ["same-seed anneal runs differ"]

    def run(self, inst):
        d = inst.data
        compiled = run_cli(self.gl, ["compile", d["cnf"], "--penalty", "2", "--delta", "1",
                                     "--out", d["dump"]])
        solved = run_cli(self.gl, ["solve", d["dump"], "--method", "anneal",
                                   "--sweeps", self.SWEEPS, "--restarts", self.RESTARTS,
                                   "--seed", d["seed"], "--target", d["e0"], "--out", d["csv"]])
        return compiled, solved

    def check(self, inst, out):
        (code1, out1), (code2, out2) = out
        d, problems = inst.data, []
        if code1 or code2:
            return out1 + out2, [f"exit codes {code1}, {code2}"], {}
        dump, csv = _read(d["dump"]), _read(d["csv"])
        model = R.DumpModel(dump)
        inst.sizes["free_vars"] = len(model.var_ids) - len(model.clamps)
        e0 = d["e0"]
        kv = _kv_lines(out2)
        best = Fraction(kv["best_energy"])
        bits = kv["best_assignment"]
        if kv["seed"] != str(d["seed"]):
            problems.append("seed not echoed")
        if model.energy_of_bits(bits) != best:
            problems.append("best_assignment does not have best_energy")
        if best < e0:
            problems.append(f"best energy {best} below the reference ground energy {e0}")
        if (kv["success"] == "true") != (best == e0):
            problems.append("success flag disagrees with best energy")
        rows = [r.split(",") for r in csv.splitlines()[1:]]
        if len(rows) != self.RESTARTS or min(Fraction(r[1]) for r in rows) != best:
            problems.append("per-restart CSV disagrees with the merged result")
        successes = 0
        for r in rows:
            hit = (r[3] == "true")
            successes += hit
            if hit != (Fraction(r[1]) == e0):
                problems.append(f"restart {r[0]} success flag is wrong")
        hits = [int(r[2]) for r in rows if r[2]]
        if kv["first_hit_sweep"] != (str(min(hits)) if hits else "-"):
            problems.append("first_hit_sweep is not the earliest restart hit")
        if best == 0:
            n = inst.sizes["n"]
            col = {v: i for i, v in enumerate(model.var_ids)}
            xbits = [int(bits[col[model.var_by_label(f"x{i}")]]) for i in range(1, n + 1)]
            if not R.cnf_satisfied(d["clauses"], xbits):
                problems.append("a zero-energy read-out does not satisfy the formula")
        return out1 + dump + out2 + csv, problems, {"restarts": len(rows), "successes": successes}


# --- blind-oracle -----------------------------------------------------------------


class BlindOracle(Workload):
    """Blind per-state scans: random dumps through cli exact + spectrum, gadget checks."""

    name = "blind-oracle"
    PENALTY = 2
    MODELS, FREE = 3, 13
    BATCH = (3, 4)  # truth-function arities checked in one gadget op

    def _model_text(self, n_free):
        rng = self.rng
        n = n_free + 1
        clamp = (rng.randrange(n), rng.randint(0, 1))
        terms = []
        # two 3-local terms per variable make a model op cost about what a
        # gadget batch costs, so the median does not fall between the two
        for k, count in ((3, 2 * n_free), (2, n_free // 3), (1, n_free // 3)):
            for _ in range(count):
                vids = tuple(rng.sample(range(n), k))
                table = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                              for _ in range(1 << k))
                terms.append((vids, table))
        lines = [f"VAR {v} wire" for v in range(n)]
        lines.append(f"CLAMP {clamp[0]} {clamp[1]}")
        for vids, table in terms:
            lines.append(f"TERM {len(vids)} {' '.join(map(str, vids))} : "
                         f"{' '.join(map(str, table))}")
        return "\n".join(lines) + "\n", n, clamp, terms

    def prepare(self):
        # models and gadget batches alternate; both kinds cost about the same
        for i in range(2 * self.MODELS):
            if i % 2 == 0:
                text, n, clamp, terms = self._model_text(self.FREE)
                path = self.path(f"m{i}.dump")
                _write(path, text)
                self.instances.append(Instance(
                    i, "model", f"model{i}/free{self.FREE}",
                    {"free_vars": self.FREE, "terms": len(terms)},
                    {"text": text, "path": path, "n": n, "clamp": clamp, "terms": terms}))
            else:
                functions = [tuple(self.rng.randint(0, 1) for _ in range(1 << k))
                             for k in self.BATCH]
                self.instances.append(Instance(
                    i, "gadget", f"gadgets{i}/arity" + "".join(map(str, self.BATCH)),
                    {"arities": list(self.BATCH)}, {"functions": functions}))

    def reference(self):
        for inst in self.instances:
            if inst.kind == "model":
                d = inst.data
                e0, bits, e1 = R.brute_force_spectrum(
                    list(range(d["n"])), dict([d["clamp"]]), d["terms"])
                d.update(e0=e0, bits=bits, e1=e1)
        return []

    def run(self, inst):
        gl, d = self.gl, inst.data
        if inst.kind == "model":
            solved = run_cli(gl, ["solve", d["path"], "--method", "exact"])
            return solved, gl.spectrum(gl.parse_model(d["text"]))
        checks = []
        for k, outputs in zip(self.BATCH, d["functions"]):
            fn = gl.TruthFunction(k, outputs)
            base = gl.synthesize_gadget(fn, self.PENALTY)
            sym = gl.symmetrize(base)
            checks.append(("base", gl.check_implements(base, fn), gl.check_edc(base)))
            # the 4-input composite (24 variables) is past the scan cap: its
            # EDC check uses the forcing plan, implements is checked on the base
            impl = gl.check_implements(sym, fn) if k == 3 else None
            checks.append(("sym", impl, gl.check_edc(sym)))
        return checks

    def check(self, inst, out):
        d, problems = inst.data, []
        if inst.kind == "model":
            (code, stdout), rep = out
            lines = stdout.splitlines()
            if code != 0:
                problems.append(f"exit code {code}")
            if lines[:1] != [f"E0={d['e0']} deg={len(d['bits'])}"] or lines[1:] != d["bits"]:
                problems.append("cli exact solve differs from the brute-force reference")
            gap = d["e1"] - d["e0"] if d["e1"] is not None else None
            if (rep.ground_energy, rep.ground_degeneracy, rep.first_excited_energy, rep.gap) != (
                d["e0"], len(d["bits"]), d["e1"], gap
            ):
                problems.append(f"spectrum {rep} differs from the reference")
            canon = (f"{stdout}ground={rep.ground_energy} deg={rep.ground_degeneracy} "
                     f"first={rep.first_excited_energy} gap={rep.gap}\n")
            return canon, problems, {}
        lines = []
        for which, impl, edc in out:
            grounds = [edc.per_input_ground[k] for k in sorted(edc.per_input_ground)]
            if not edc.is_edc or any(g != 0 for g in grounds):
                problems.append(f"{which} gadget is not EDC at ground 0")
            if impl is not None and not impl.implements:
                problems.append(f"{which} gadget does not implement the function")
            if which == "base" and impl.logical_gap != self.PENALTY:
                problems.append(f"base logical gap {impl.logical_gap} != penalty")
            gap = impl.logical_gap if impl is not None else "-"
            lines.append(f"{which} implements={impl is not None and impl.implements} "
                         f"gap={gap} edc={edc.is_edc} grounds={' '.join(map(str, grounds))}")
        return "\n".join(lines) + "\n", problems, {}

    def corrupt(self, inst, out):
        (code, stdout), rep = out  # instance 0, the one corrupted, is a model
        lines = stdout.splitlines(keepends=True)
        lines[1] = ("1" if lines[1][0] == "0" else "0") + lines[1][1:]
        return (code, "".join(lines)), rep


WORKLOADS = {w.name: w for w in (SatSearch, DtmVerify, AnnealReadout, BlindOracle)}
