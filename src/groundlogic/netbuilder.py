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

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .gadgets import Forcing, Gadget, instantiate, make_physical_and, symmetrize, synthesize_gadget
from .logic import NOT, TruthFunction, and_n, fold_repeated_inputs, or_n
from .model import (
    Assignment,
    DEFAULT_CAP,
    EnergyModel,
    EnergyTerm,
    ModelError,
    Variable,
    _ground_set,
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
    """A compiled netlist: energy model, port map, and solve/accounting data."""

    model: EnergyModel
    port_map: dict[str, int]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    elements: ComplexityReport
    plan: tuple[Forcing, ...]
    penalty_floor: Fraction
    base_ground: Fraction = Fraction(0)
    bias_budget: Fraction = Fraction(0)
    edc: bool = True
    dedlus: tuple = ()
    medlu: object = None

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
        ground = _ground_set(self.model, self.plan, cap)
        if ground is None:
            raise NoConsistentStateError(
                "no input assignment is consistent with the clamps; "
                "fall back to enumerate_ground_states or the annealer"
            )
        return ground


class _VarAlloc:
    def __init__(self):
        self.variables: list[Variable] = []

    def new(self, role: str, label: str | None = None) -> int:
        vid = len(self.variables)
        self.variables.append(Variable(vid, role, label))
        return vid


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
    """Gate to gadget, shared by `compile_netlist` and the lattice stamp.

    Everything that depends only on the gadget is derived once per distinct
    (kind, function after folding repeated inputs): the gadget and its
    ancilla label suffixes in `resolve`, its counts, floor and ground energy
    from its use count in `totals`.
    """

    def __init__(self, policy: str, penalty: Fraction, and_profile):
        self.policy = policy
        self.penalty = penalty
        self.and_profile = and_profile
        self.functions: dict = {}
        self.gadgets: dict = {}
        self.uses: dict = {}  # key -> placed copies, in order of first use

    def resolve(self, gate):
        """(key, gadget, ancilla (id, label suffix) pairs, unique input nets)."""
        fn_key = (gate.kind, len(gate.inputs), gate.func)
        fn = self.functions.get(fn_key)
        if fn is None:
            fn = self.functions[fn_key] = _gate_function(gate)
        fn, unique_ins = fold_repeated_inputs(fn, gate.inputs)
        key = (gate.kind, fn.outputs)
        entry = self.gadgets.get(key)
        if entry is None:
            g = _gate_gadget(gate, fn, self.policy, self.penalty, self.and_profile)
            labels = {v.id: v.label for v in g.fragment.variables}
            entry = self.gadgets[key] = (g, [(a, labels[a] or a) for a in g.ancillae])
        return key, entry[0], entry[1], unique_ins

    def use(self, key, counts: dict[str, int]):
        """Count one placed copy; a gadget's element kinds enter `counts` at
        its first use."""
        if key in self.uses:
            self.uses[key] += 1
        else:
            self.uses[key] = 1
            for k in self.gadgets[key][0].counts:
                counts.setdefault(k, 0)

    def totals(self, counts: dict[str, int], floor):
        """Add the used gadgets' element counts into `counts` and return
        (floor, base ground, edc)."""
        base_ground = Fraction(0)
        edc = True
        for key, n in self.uses.items():
            g = self.gadgets[key][0]
            for k, v in g.counts.items():
                counts[k] += n * v
            floor = g.penalty_floor if floor is None else min(floor, g.penalty_floor)
            if g.ground_table is None or len(set(g.ground_table)) != 1:
                edc = False
            else:
                base_ground += n * g.ground_table[0]
        return (floor if floor is not None else self.penalty), base_ground, edc


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
    lengths (L >= 2) inserted between the net's driver and its consumers.
    """
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    p = as_energy(penalty)
    j_c = as_energy(wire_coupling)
    wire_chains = dict(wire_chains or {})
    order = nl.validate()
    known_nets = set(nl.nets())
    for net, length in wire_chains.items():
        if net not in known_nets:
            raise ModelError(f"wire chain on unknown net {net!r}")
        if length < 2:
            raise ModelError(f"wire chain on {net!r} needs length >= 2")

    alloc = _VarAlloc()
    driver_var: dict[str, int] = {}
    consumer_var: dict[str, int] = {}
    terms: list[EnergyTerm] = []
    plan: list[Forcing] = []
    counts: dict[str, int] = {}
    floor = None

    def role_of(net: str) -> str:
        if net in nl.inputs:
            return "input"
        if net in nl.outputs:
            return "output"
        return "wire"

    def add_chain(net: str):
        """Explicit equal-coupling chain from the net's driver end to a
        separate consumer end; interior plus consumer are forced copies."""
        nonlocal floor
        length = wire_chains[net]
        chain = [driver_var[net]]
        for k in range(length - 2):
            chain.append(alloc.new("wire", f"{net}~{k + 1}"))
        chain.append(alloc.new("wire", f"{net}~end"))
        for u, v in zip(chain, chain[1:]):
            terms.append(EnergyTerm((u, v), (Fraction(0), j_c, j_c, Fraction(0))))
            plan.append(Forcing(v, (u,), (0, 1)))
        consumer_var[net] = chain[-1]
        counts["register"] = counts.get("register", 0) + 1
        floor = j_c if floor is None else min(floor, j_c)

    for net in nl.nets():
        driver_var[net] = alloc.new(role_of(net), net)
        consumer_var[net] = driver_var[net]
    for net in nl.inputs:
        if net in wire_chains:
            add_chain(net)

    gadgets = _GateGadgets(policy, p, and_profile)
    for gate in order:
        key, g, ancillae, unique_ins = gadgets.resolve(gate)
        gadgets.use(key, counts)
        var_map = {gv: consumer_var[net] for gv, net in zip(g.inputs, unique_ins)}
        var_map[g.output] = driver_var[gate.output]
        for a, suffix in ancillae:
            var_map[a] = alloc.new("ancilla", f"{gate.output}.{suffix}")
        g_terms, g_forcings = instantiate(g, var_map)
        terms += g_terms
        plan += g_forcings
        if gate.output in wire_chains:
            add_chain(gate.output)

    floor, base_ground, edc = gadgets.totals(counts, floor)
    model = EnergyModel(tuple(alloc.variables), tuple(terms))
    return Network(
        model=model,
        port_map=dict(driver_var),
        inputs=tuple(nl.inputs),
        outputs=tuple(nl.outputs),
        elements=ComplexityReport(counts),
        plan=tuple(plan),
        penalty_floor=floor,
        base_ground=base_ground,
        edc=edc,
    )


def clamp_inputs(net: Network, bindings: dict[str, int]) -> Network:
    """Clamp declared input nets to fixed bits."""
    for name in bindings:
        if name not in net.inputs:
            raise ModelError(f"net {name!r} is not a declared input")
    return net.with_net_clamps(bindings)


def make_wire_chain(length: int, coupling=1) -> Gadget:
    """A chain of `length` variables with equal agreement couplings.

    Neighbors that agree cost 0, disagreeing neighbors cost the coupling, so
    the chain has exactly two ground configurations (all-0 and all-1): one
    stored bit, readable at either end.
    """
    if length < 2:
        raise ModelError("wire chain needs length >= 2")
    j_c = as_energy(coupling)
    if j_c <= 0:
        raise ModelError("coupling must be positive")
    variables = [Variable(0, "input", "w0")]
    variables += [Variable(i, "wire", f"w{i}") for i in range(1, length - 1)]
    variables.append(Variable(length - 1, "output", f"w{length - 1}"))
    terms = [
        EnergyTerm((i, i + 1), (Fraction(0), j_c, j_c, Fraction(0)))
        for i in range(length - 1)
    ]
    plan = tuple(Forcing(i + 1, (i,), (0, 1)) for i in range(length - 1))
    return Gadget(
        name=f"wire{length}",
        inputs=(0,),
        output=length - 1,
        ancillae=tuple(range(1, length - 1)),
        fragment=EnergyModel(tuple(variables), tuple(terms)),
        forcings=plan,
        counts={"register": 1},
        penalty_floor=j_c,
        ground_table=(Fraction(0), Fraction(0)),
        exact_extension=True,
    )
