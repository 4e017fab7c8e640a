"""Compile netlists into energy-model networks.

Connection is variable identification: every net becomes one shared
variable, each gate becomes a gadget instance over the net variables plus
fresh ancillae.  Explicit equal-coupling wire chains can be requested per
net for studying transmission-line fidelity; by default they are not
materialized (they only inflate the state space).

Networks record a deterministic extension plan: given values for the input
nets, every other variable's minimum-energy value is forced, gate by gate in
topological order.  `Network.ground_states` conditions on the input nets and
scores only those forced extensions.  That is exact -- not a heuristic --
whenever every gate's ground energy is input-independent and the penalty
floor strictly dominates the total attached bias: any state deviating from a
forced extension pays at least the floor, and can recover at most the bias
budget.  Both conditions are checked before solving.  The scan itself is
`model`'s block kernel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .gadgets import Gadget, make_physical_and, make_wire_chain, symmetrize, synthesize_gadget
from .logic import NOT, TruthFunction, and_n, fold_repeated_inputs, or_n
from .model import (
    _ROLE_CODE,
    Assignment,
    DEFAULT_CAP,
    EnergyModel,
    EnergyTerm,
    Forcing,
    ModelError,
    Plan,
    _as_dicts,
    _build,
    _ground_matrix,
    _map_array,
    _slot_blocks,
    _stamp,
    as_energy,
)

POLICIES = ("penalty", "edc-symmetrized")


class NoConsistentStateError(ModelError):
    """No input assignment extends to a gate-consistent state under the clamps."""


@dataclass(frozen=True)
class ComplexityReport:
    """Counts of basic static elements; total is their plain sum."""

    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merged(self, other: dict[str, int]) -> "ComplexityReport":
        out = dict(self.counts)
        for k, v in other.items():
            out[k] = out.get(k, 0) + v
        return ComplexityReport(out)


@dataclass(frozen=True)
class Network:
    """A compiled netlist: energy model, port map, and solve/accounting data.

    `forcings` is the extension plan in columns; `plan` gives it back as a
    tuple of `Forcing`s.
    """

    model: EnergyModel
    port_map: dict[str, int]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    elements: ComplexityReport
    forcings: Plan
    penalty_floor: Fraction
    base_ground: Fraction = Fraction(0)
    bias_budget: Fraction = Fraction(0)
    edc: bool = True
    dedlus: tuple = ()
    medlu: object = None

    @property
    def plan(self) -> tuple[Forcing, ...]:
        return tuple(self.forcings)

    def var_of(self, net: str) -> int:
        if net not in self.port_map:
            raise ModelError(f"unknown net {net!r}")
        return self.port_map[net]

    def with_net_clamps(self, bindings: dict[str, int]) -> "Network":
        """Clamp any named nets (outputs included; `clamp_inputs` is the
        inputs-only contract surface)."""
        clamps = {self.var_of(net): bit & 1 for net, bit in bindings.items()}
        return replace(self, model=self.model.with_clamps(clamps))

    def with_bias_term(self, term: EnergyTerm, budget: Fraction, **records) -> "Network":
        if min(term.table) != 0 or budget != max(term.table):
            raise ModelError("bias terms must have minimum 0")
        return replace(
            self,
            model=self.model.with_terms((term,)),
            bias_budget=self.bias_budget + budget,
            **records,
        )

    def ground_states(self, cap: int = DEFAULT_CAP) -> tuple[Fraction, list[Assignment]]:
        """Exact ground set by conditioning on the unforced free variables."""
        report, keys, states = self._ground_matrix(cap)
        return report.ground_energy, _as_dicts(self.model, keys, states)

    def _ground_matrix(self, cap: int):
        """`ground_states` as `model._ground_matrix` gives it: (report,
        keys, states), the report of the two lowest levels over the
        consistent states, and one ground state per column."""
        if not self.edc:
            raise ModelError(
                "conditioned solve needs input-independent gate ground energies; "
                "use enumerate_ground_states"
            )
        if not self.penalty_floor > self.bias_budget:
            raise ModelError(
                f"penalty floor {self.penalty_floor} does not dominate bias budget "
                f"{self.bias_budget}; conditioned solve would not be exact"
            )
        ground = _ground_matrix(self.model, self.forcings, cap)
        if ground is None:
            raise NoConsistentStateError(
                "no input assignment is consistent with the clamps; "
                "fall back to enumerate_ground_states or the annealer"
            )
        return ground


def _gate_function(gate) -> TruthFunction:
    if gate.kind == "AND":
        return and_n(len(gate.inputs))
    if gate.kind == "OR":
        return or_n(len(gate.inputs))
    if gate.kind == "NOT":
        return NOT
    return gate.func


def _gate_gadget(gate, fn: TruthFunction, policy: str, penalty, and_profile) -> Gadget:
    name = gate.kind if gate.kind in ("AND", "OR") else (
        "inverter" if gate.kind == "NOT" else gate.kind
    )
    if policy == "penalty" or gate.kind == "NOT":
        # the plain inverter is already energy-degeneracy conserving
        return synthesize_gadget(fn, penalty, name=name)
    if gate.kind == "AND" and fn.arity == 2 and and_profile is not None:
        return symmetrize(make_physical_and(*and_profile, penalty))
    return symmetrize(synthesize_gadget(fn, penalty, name=name))


class _GateGadgets:
    """Gate to gadget, and placed gadget copies to a Network; shared by
    `compile_netlist` and `build_lattice`.

    Everything that depends only on the gadget is derived once per distinct
    (kind, function after folding repeated inputs), or wire-chain length:
    the gadget, its block in `blocks()` and its ancilla label suffixes, in
    `resolve` and `chain`.  These gadgets number their variables 0..m-1, so
    a variable's slot in `blocks()` is its id.  `network` stamps a list of
    placed copies and tallies their elements off the same list.
    """

    def __init__(self, policy: str, penalty: Fraction, and_profile, coupling=1):
        self.policy = policy
        self.penalty = penalty
        self.and_profile = and_profile
        self.coupling = coupling
        self.functions: dict = {}
        self.block_of: dict = {}  # (kind, outputs) or ("wire", length) -> block
        self.gadgets: list = []  # by block: (gadget, ancilla (id, label suffix) pairs)

    def _entry(self, key, make):
        block = self.block_of.get(key)
        if block is None:
            g = make()
            block = self.block_of[key] = len(self.gadgets)
            self.gadgets.append((g, [(a, g.fragment.variable(a).label or a) for a in g.ancillae]))
        return (*self.gadgets[block], block)

    def resolve(self, gate):
        """(gadget, ancilla (id, label suffix) pairs, block, unique input nets)."""
        fn_key = (gate.kind, len(gate.inputs), gate.func)
        fn = self.functions.get(fn_key)
        if fn is None:
            fn = self.functions[fn_key] = _gate_function(gate)
        fn, unique_ins = fold_repeated_inputs(fn, gate.inputs)
        entry = self._entry((gate.kind, fn.outputs), lambda: _gate_gadget(
            gate, fn, self.policy, self.penalty, self.and_profile))
        return (*entry, unique_ins)

    def chain(self, length: int):
        """(gadget, block) of the wire chain of `length` variables."""
        g, _, block = self._entry(("wire", length), lambda: make_wire_chain(length, self.coupling))
        return g, block

    def blocks(self):
        return _slot_blocks([(g.fragment, g.forcings) for g, _ in self.gadgets])

    def network(self, which, maps: np.ndarray, roles, labels, **ports) -> Network:
        """The Network of the placed copies over variables 0..n-1: copy i is
        block which[i] renamed through map row maps[i] (see `_stamp`).  The
        element counts, penalty floor, base ground energy and `edc` are read
        off the same copies, element kinds in order of first placement;
        `ports` are the port map, inputs and outputs."""
        uses = [(self.gadgets[b][0], n) for b, n in Counter(np.asarray(which).tolist()).items()]
        counts, base_ground, edc = Counter(), Fraction(0), True
        for g, n in uses:
            counts.update({k: n * v for k, v in g.counts.items()})
            if g.ground_table is None or len(set(g.ground_table)) != 1:
                edc = False
            else:
                base_ground += n * g.ground_table[0]
        rows, forcings = _stamp(self.blocks(), which, maps)
        return Network(
            model=_build(np.arange(len(labels), dtype=np.int64), roles, labels, rows),
            elements=ComplexityReport(dict(counts)),
            forcings=forcings,
            penalty_floor=min((g.penalty_floor for g, _ in uses), default=self.penalty),
            base_ground=base_ground,
            edc=edc,
            **ports,
        )


def compile_netlist(
    nl,
    policy: str = "penalty",
    penalty=1,
    and_profile=None,
    wire_chains: dict[str, int] | None = None,
    wire_coupling=1,
) -> Network:
    """Compile a validated netlist into a Network.

    policy "penalty" instantiates every gate as a single 0/P penalty term;
    "edc-symmetrized" instantiates AND/OR gates as input-symmetrized
    composites (inverters stay plain).  `and_profile`, when given under the
    symmetrized policy, supplies the (e00, e01, e10, e11) physical profile
    for 2-input AND gates.  `wire_chains` maps net names to explicit chain
    lengths (L >= 2), each a `make_wire_chain` gadget of coupling
    `wire_coupling` inserted between the net's driver and its consumers.

    Every gate and chain is one placed gadget copy, a block and a row of
    slot-to-id maps; `_GateGadgets.network` stamps them all at once and
    tallies the elements off the same list.
    """
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    wire_chains = dict(wire_chains or {})
    order = nl.validate()
    known_nets = set(nl.nets())
    for net, length in wire_chains.items():
        if net not in known_nets:
            raise ModelError(f"wire chain on unknown net {net!r}")
        if length < 2:
            raise ModelError(f"wire chain on {net!r} needs length >= 2")

    gadgets = _GateGadgets(policy, as_energy(penalty), and_profile, as_energy(wire_coupling))
    roles: list[int] = []
    labels: list[str] = []

    def new(role: str, label: str) -> int:
        roles.append(_ROLE_CODE[role])
        labels.append(label)
        return len(labels) - 1

    driver_var: dict[str, int] = {}
    consumer_var: dict[str, int] = {}
    blocks: list[int] = []
    maps: list[list[int]] = []

    def place_chain(net: str):
        """A chain from the net's driver (its id 0) to a new consumer end."""
        g, block = gadgets.chain(wire_chains[net])
        row = [driver_var[net]] + [new("wire", f"{net}~{a}") for a in g.ancillae]
        consumer_var[net] = new("wire", f"{net}~end")
        blocks.append(block)
        maps.append(row + [consumer_var[net]])

    for net in nl.nets():
        role = "input" if net in nl.inputs else "output" if net in nl.outputs else "wire"
        driver_var[net] = consumer_var[net] = new(role, net)
    for net in nl.inputs:
        if net in wire_chains:
            place_chain(net)

    for gate in order:
        g, ancillae, block, unique_ins = gadgets.resolve(gate)
        row = [0] * (len(g.inputs) + 1 + len(g.ancillae))
        for gv, net in zip(g.inputs, unique_ins):
            row[gv] = consumer_var[net]
        row[g.output] = driver_var[gate.output]
        for a, suffix in ancillae:
            row[a] = new("ancilla", f"{gate.output}.{suffix}")
        blocks.append(block)
        maps.append(row)
        if gate.output in wire_chains:
            place_chain(gate.output)

    return gadgets.network(
        blocks, _map_array(maps), np.array(roles, dtype=np.int8), labels,
        port_map=dict(driver_var), inputs=tuple(nl.inputs), outputs=tuple(nl.outputs),
    )


def clamp_inputs(net: Network, bindings: dict[str, int]) -> Network:
    """Clamp declared input nets to fixed bits."""
    for name in bindings:
        if name not in net.inputs:
            raise ModelError(f"net {name!r} is not a declared input")
    return net.with_net_clamps(bindings)
