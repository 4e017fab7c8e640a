"""In-memory spans around the public calls of groundlogic, for the traced pass.

`Tracer.install` rebinds each traced public function, wherever a
groundlogic module namespace holds it, to a wrapper that records a span
(name, start, end, parent span, op id) plus unit counts taken from the
call's public arguments and result.  Because the rebinding reaches the
namespaces the program itself calls through (`cli` calling `compile_netlist`,
`build_lattice` calling `compile_netlist`, `verify_ground_histories` calling
`Network.ground_states`), nested calls become child spans and self time can
be computed.  `Tracer.uninstall` restores the original bindings.  No file
under src/ is edited.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter


def _gates(a, r):
    return {"gates": len(a["nl"].gates)}


def _cells(a, r):
    return {"cells": a["p"] * a["p"]}


def _roots(a, r):
    net = a["self"]
    forced = {f.var for f in net.plan}
    roots = sum(1 for v in net.model.free_vars if v not in forced)
    return {"roots": 1 << roots, "ground": len(r[1])}


def _states(a, r):
    return {"states": 1 << len(a["model"].free_vars)}


def _dump_in(a, r):
    return {"dump_bytes": len(a["text"].encode())}


def _scanned(a, r):
    # states the exhaustive scan visits; 0 when the check fell back to the
    # gadget's forcing plan because the scan exceeds the cap
    g = a["g"]
    n = g.arity + len(g.internal_vars)
    return {"scanned": (1 << n) if (1 << n) <= a["cap"] else 0}


def _anneal(a, r):
    sched = a["sched"]
    return {
        "proposals": sched.sweeps * sched.restarts * len(a["model"].free_vars),
        "uphill_attempts": r.uphill_attempts,
        "uphill_accepts": r.uphill_accepts,
        "restarts": len(r.restarts),
        "successes": sum(1 for x in r.restarts if x.success),
    }


def traced_functions(gl):
    """(owner, attribute, span name, counter) for every traced public call."""
    return [
        (gl.netlist, "parse_dimacs", "netlist.parse_dimacs", None),
        (gl.netlist, "encode_cnf", "netlist.encode_cnf", None),
        (gl.netbuilder, "compile_netlist", "netbuilder.compile_netlist", _gates),
        (gl.netbuilder.Network, "ground_states", "netbuilder.ground_states", _roots),
        (gl.gadgets, "synthesize_gadget", "gadgets.synthesize_gadget", None),
        (gl.gadgets, "symmetrize", "gadgets.symmetrize", None),
        (gl.gadgets, "check_implements", "gadgets.check_implements", _scanned),
        (gl.gadgets, "check_edc", "gadgets.check_edc", _scanned),
        (gl.bias, "attach_dedlu", "bias.attach_dedlu", None),
        (gl.bias, "assemble_usqc", "bias.assemble_usqc", None),
        (gl.turing, "parse_dtm", "turing.parse_dtm", None),
        (gl.turing, "format_dtm", "turing.format_dtm", None),
        (gl.turing, "build_lattice", "turing.build_lattice", _cells),
        (gl.turing, "verify_ground_histories", "turing.verify_ground_histories", None),
        (gl.model, "parse_model", "model.parse_model", _dump_in),
        (gl.model, "parse_statements", "model.parse_statements", _dump_in),
        (gl.model, "format_model", "model.format_model", None),
        (gl.model, "enumerate_ground_states", "model.enumerate_ground_states", _states),
        (gl.model, "spectrum", "model.spectrum", _states),
        (gl.anneal, "metropolis_anneal", "anneal.metropolis_anneal", _anneal),
        (gl.cli, "main", "cli.main", None),
    ]


class Tracer:
    def __init__(self, gl):
        self.gl = gl
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            {"id": sid, "name": name, "start": perf_counter(), "end": None,
             "parent": parent, "op": self.op, "counts": {}}
        )
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid]["end"] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        return self._open("op")

    def end_op(self, sid):
        self._close(sid)
        self.op = None

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[sid]["counts"] = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- rebinding --

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "groundlogic"]
        for owner, attr, name, counter in traced_functions(self.gl):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()


# --- per-layer metrics --------------------------------------------------------

# metric prefix -> span names whose busy time it sums.  A span nested inside
# another span of the same group is not counted twice.
GROUPS = {
    "netlist.parse_dimacs": ("netlist.parse_dimacs",),
    "netlist.encode_cnf": ("netlist.encode_cnf",),
    "netbuilder.compile_netlist": ("netbuilder.compile_netlist",),
    "netbuilder.ground_states": ("netbuilder.ground_states",),
    "gadgets.synthesize_gadget": ("gadgets.synthesize_gadget",),
    "gadgets.symmetrize": ("gadgets.symmetrize",),
    "gadgets.check": ("gadgets.check_implements", "gadgets.check_edc"),
    "bias.attach": ("bias.attach_dedlu", "bias.assemble_usqc"),
    "turing.dtm_text": ("turing.parse_dtm", "turing.format_dtm"),
    "turing.build_lattice": ("turing.build_lattice",),
    "turing.verify": ("turing.verify_ground_histories",),
    "model.parse_model": ("model.parse_model", "model.parse_statements"),
    "model.format_model": ("model.format_model",),
    "model.enumerate_ground_states": ("model.enumerate_ground_states",),
    "model.spectrum": ("model.spectrum",),
    "anneal.metropolis_anneal": ("anneal.metropolis_anneal",),
    "cli.main": ("cli.main",),
}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    return [
        ("netbuilder.ground_states_s", "s"),
        ("netbuilder.roots", "count"),
        ("netbuilder.us_per_root", "us"),
        ("netbuilder.ground_per_root", "ratio"),
        ("netbuilder.compile_netlist_s", "s"),
        ("netbuilder.gates", "count"),
        ("netbuilder.us_per_gate", "us"),
        ("gadgets.symmetrize_s", "s"),
        ("gadgets.synthesize_gadget_s", "s"),
        ("gadgets.check_s", "s"),
        ("gadgets.scanned_states", "count"),
        ("gadgets.us_per_scanned_state", "us"),
        ("turing.build_lattice_s", "s"),
        ("turing.cells", "count"),
        ("turing.us_per_cell", "us"),
        ("turing.verify_s", "s"),
        ("turing.verify_self_s", "s"),
        ("turing.dtm_text_s", "s"),
        ("model.parse_model_s", "s"),
        ("model.dump_bytes", "count"),
        ("model.parse_mb_per_s", "MB/s"),
        ("model.format_model_s", "s"),
        ("model.enumerate_ground_states_s", "s"),
        ("model.spectrum_s", "s"),
        ("model.states", "count"),
        ("model.us_per_state", "us"),
        ("anneal.metropolis_anneal_s", "s"),
        ("anneal.proposals", "count"),
        ("anneal.us_per_proposal", "us"),
        ("anneal.uphill_accept_ratio", "ratio"),
        ("anneal.restarts", "count"),
        ("anneal.success_rate", "ratio"),
        ("netlist.parse_dimacs_s", "s"),
        ("netlist.encode_cnf_s", "s"),
        ("bias.attach_s", "s"),
        ("cli.main_s", "s"),
        ("cli.self_s", "s"),
        ("trace.op_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]


COUNT_METRICS = [name for name, unit in per_layer_metrics() if unit == "count"]


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(spans):
    """Busy time, self time and counts per group over one traced pass."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    group_of = {name: g for g, names in GROUPS.items() for name in names}
    busy = {g: 0.0 for g in GROUPS}
    self_time = {g: 0.0 for g in GROUPS}
    counts: dict[str, int] = {}
    op_s = unattributed = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - children.get(s["id"], 0.0)
        if s["name"] == "op":
            op_s += dur
            unattributed += own
            continue
        g = group_of[s["name"]]
        parent = s["parent"]
        nested = False
        while parent is not None:
            if group_of.get(by_id[parent]["name"]) == g:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if nested:
            self_time[g] += own
            continue
        busy[g] += dur
        self_time[g] += own
        for k, v in s["counts"].items():
            key = f"{g}.{k}"
            counts[key] = counts.get(key, 0) + v
    return busy, self_time, counts, op_s, unattributed


def layer_metrics(passes, overhead_s):
    """Per-pass per-layer metrics, averaged over the traced passes.

    Counts are the first pass's; `counts_repeat` says whether every pass
    produced the same counts.
    """
    aggs = [aggregate(spans) for spans in passes]
    k = len(aggs)

    def mean_busy(g):
        return sum(a[0][g] for a in aggs) / k

    def mean_self(g):
        return sum(a[1][g] for a in aggs) / k

    counts = aggs[0][2]
    counts_repeat = all(a[2] == counts for a in aggs)

    def c(key):
        return counts.get(key, 0)

    gs = mean_busy("netbuilder.ground_states")
    compile_s = mean_busy("netbuilder.compile_netlist")
    lattice_s = mean_busy("turing.build_lattice")
    parse_s = mean_busy("model.parse_model")
    enum_s = mean_busy("model.enumerate_ground_states")
    spec_s = mean_busy("model.spectrum")
    check_s = mean_busy("gadgets.check")
    anneal_s = mean_busy("anneal.metropolis_anneal")
    m = {
        "netbuilder.ground_states_s": gs,
        "netbuilder.roots": c("netbuilder.ground_states.roots"),
        "netbuilder.us_per_root": _ratio(gs * 1e6, c("netbuilder.ground_states.roots")),
        "netbuilder.ground_per_root": _ratio(
            c("netbuilder.ground_states.ground"), c("netbuilder.ground_states.roots")
        ),
        "netbuilder.compile_netlist_s": compile_s,
        "netbuilder.gates": c("netbuilder.compile_netlist.gates"),
        "netbuilder.us_per_gate": _ratio(compile_s * 1e6, c("netbuilder.compile_netlist.gates")),
        "gadgets.symmetrize_s": mean_busy("gadgets.symmetrize"),
        "gadgets.synthesize_gadget_s": mean_busy("gadgets.synthesize_gadget"),
        "gadgets.check_s": check_s,
        "gadgets.scanned_states": c("gadgets.check.scanned"),
        "gadgets.us_per_scanned_state": _ratio(check_s * 1e6, c("gadgets.check.scanned")),
        "turing.build_lattice_s": lattice_s,
        "turing.cells": c("turing.build_lattice.cells"),
        "turing.us_per_cell": _ratio(lattice_s * 1e6, c("turing.build_lattice.cells")),
        "turing.verify_s": mean_busy("turing.verify"),
        "turing.verify_self_s": mean_self("turing.verify"),
        "turing.dtm_text_s": mean_busy("turing.dtm_text"),
        "model.parse_model_s": parse_s,
        "model.dump_bytes": c("model.parse_model.dump_bytes"),
        "model.parse_mb_per_s": _ratio(c("model.parse_model.dump_bytes") / 1e6, parse_s),
        "model.format_model_s": mean_busy("model.format_model"),
        "model.enumerate_ground_states_s": enum_s,
        "model.spectrum_s": spec_s,
        "model.states": c("model.enumerate_ground_states.states") + c("model.spectrum.states"),
        "model.us_per_state": _ratio(
            (enum_s + spec_s) * 1e6,
            c("model.enumerate_ground_states.states") + c("model.spectrum.states"),
        ),
        "anneal.metropolis_anneal_s": anneal_s,
        "anneal.proposals": c("anneal.metropolis_anneal.proposals"),
        "anneal.us_per_proposal": _ratio(anneal_s * 1e6, c("anneal.metropolis_anneal.proposals")),
        "anneal.uphill_accept_ratio": _ratio(
            c("anneal.metropolis_anneal.uphill_accepts"),
            c("anneal.metropolis_anneal.uphill_attempts"),
        ),
        "anneal.restarts": c("anneal.metropolis_anneal.restarts"),
        "anneal.success_rate": _ratio(
            c("anneal.metropolis_anneal.successes"), c("anneal.metropolis_anneal.restarts")
        ),
        "netlist.parse_dimacs_s": mean_busy("netlist.parse_dimacs"),
        "netlist.encode_cnf_s": mean_busy("netlist.encode_cnf"),
        "bias.attach_s": mean_busy("bias.attach"),
        "cli.main_s": mean_busy("cli.main"),
        "cli.self_s": mean_self("cli.main"),
        "trace.op_s": sum(a[3] for a in aggs) / k,
        "trace.unattributed_s": sum(a[4] for a in aggs) / k,
        "trace.overhead_s": overhead_s,
    }
    shares = {g: mean_busy(g) for g in GROUPS}
    return m, counts, counts_repeat, shares
