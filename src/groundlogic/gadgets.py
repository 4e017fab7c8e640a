"""Logic gates as energy fragments.

A gadget is an energy model over input ports, one output port, and internal
ancillae, built so that minimum-energy configurations realize a boolean
function on the ports.  A gate term over inputs x and output y costs
ground[x] when y is the function's value on x and ground[x] + P otherwise;
synthesized gates, symmetrization's inverters and wire-chain links take
ground 0, which makes the per-input ground energy identically zero.
"Physical" gate profiles with input-dependent ground energies model gates
whose two identical outputs can still sit at different energies; the
input-symmetrization construction repairs that by driving one gate copy per
input pattern so the total ground energy becomes input-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .logic import AND2, NOT, OR2, TruthFunction
from .model import (
    _ROLE_CODE,
    CapacityError,
    DumpFormatError,
    EnergyModel,
    EnergyTerm,
    Forcing,
    K_MAX,
    ModelError,
    Plan,
    Variable,
    _assemble,
    _concat,
    _rows_of,
    _scan,
    _slot_blocks,
    _stamp,
    _unpacked,
    as_energy,
    format_model,
    parse_statements,
)

SCAN_CAP = 2 ** 22
_WIRE = TruthFunction(1, (0, 1))  # a wire-chain link: the next variable copies this one


class LogicDominanceError(ModelError):
    """A gate's penalty is too small relative to its energy profile."""


@dataclass(frozen=True)
class Gadget:
    """A boolean gate packaged as an energy fragment with ports.

    `forcings` (any iterable of `Forcing`s, kept as a `Plan`), when
    complete, give the unique minimum-energy extension of any input
    pattern; `ground_table` caches the per-input ground energies claimed by
    the constructor; `penalty_floor` is a lower bound on the extra
    energy of any configuration that deviates from the minimizing extension
    while the inputs stay fixed.  `exact_extension` marks gadgets whose
    forcings are guaranteed-exact by construction.
    """

    name: str
    inputs: tuple[int, ...]
    output: int
    ancillae: tuple[int, ...]
    fragment: EnergyModel
    forcings: Plan = ()
    counts: dict[str, int] = field(default_factory=dict)
    penalty_floor: Fraction = Fraction(0)
    ground_table: tuple[Fraction, ...] | None = None
    exact_extension: bool = False

    def __post_init__(self):
        if type(self.forcings) is not Plan:
            object.__setattr__(self, "forcings", Plan(self.forcings))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "ancillae", tuple(self.ancillae))
        ports = [*self.inputs, self.output, *self.ancillae]
        if len(set(ports)) != len(ports):
            raise ModelError("gadget ports must be pairwise disjoint")
        if set(ports) != set(self.fragment.var_ids):
            raise ModelError("gadget ports must cover the fragment's variables exactly")
        if self.fragment.clamps:
            raise ModelError("gadget fragments carry no clamps")

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def internal_vars(self) -> tuple[int, ...]:
        return (self.output,) + self.ancillae

    def forcings_complete(self) -> bool:
        return set(self.forcings.var.tolist()) == set(self.internal_vars)


@dataclass(frozen=True)
class EdcReport:
    """Per-input ground energies and whether they are all exactly equal."""

    per_input_ground: dict[tuple[int, ...], Fraction]
    is_edc: bool


@dataclass(frozen=True)
class ImplementsReport:
    implements: bool
    logical_gap: Fraction


def _input_pattern(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> j) & 1 for j in range(n))


def _scan_minima(g: Gadget, fn: TruthFunction | None = None, cap: int = SCAN_CAP, plan=None):
    """Exhaustive per-input minimization over the gadget's internal variables,
    or over the extensions by `plan` when it forces all of them.

    Returns, per input pattern, (ground energy, ground energy among
    wrong-output configurations) -- the second entry only when `fn` is given.
    """
    denom, _, blocks = _scan(g.fragment, plan, cap)
    want = np.array(fn.outputs, dtype=np.uint8) if fn is not None else None
    ports = g.fragment._rows(g.inputs + (g.output,)).tolist()
    best = wrong = None
    # gadget fragments carry no clamps, so every state is alive
    for rows, _, energy in blocks:
        state = _unpacked([rows[r] for r in ports], len(energy))
        x = np.zeros(len(energy), dtype=np.intp)
        for j in range(g.arity):
            x |= state[j].astype(np.intp) << j
        if best is None:
            top = np.iinfo(np.int64).max if energy.dtype == np.int64 else math.inf
            best = np.full(1 << g.arity, top, dtype=energy.dtype)
            wrong = best.copy()
        np.minimum.at(best, x, energy)
        if want is not None:
            bad = state[-1] != want[x]
            np.minimum.at(wrong, x[bad], energy[bad])
    return [
        (Fraction(int(e), denom), Fraction(int(w), denom) if want is not None else None)
        for e, w in zip(best, wrong)
    ]


def per_input_grounds(g: Gadget, cap: int = SCAN_CAP) -> list[Fraction]:
    """Ground energy for each input pattern, minimized over output+ancillae.

    Uses the exhaustive scan whenever it fits the cap; otherwise scores the
    extension by the gadget's guaranteed-exact plan, whose roots are then
    exactly the inputs.
    """
    try:
        return [e for e, _ in _scan_minima(g, cap=cap)]
    except CapacityError:
        if not g.forcings_complete() or not g.exact_extension:
            raise CapacityError(
                f"gadget {g.name!r} is too large for exhaustive scanning and has no "
                "exact extension plan"
            ) from None
    return [e for e, _ in _scan_minima(g, cap=cap, plan=g.forcings)]


def check_edc(g: Gadget, cap: int = SCAN_CAP) -> EdcReport:
    """Is the per-input ground energy the same for every input?"""
    if g.arity > 16:
        raise CapacityError(f"EDC check limited to 16 inputs, gadget has {g.arity}")
    grounds = per_input_grounds(g, cap=cap)
    table = {_input_pattern(x, g.arity): e for x, e in enumerate(grounds)}
    return EdcReport(table, len(set(grounds)) <= 1)


def check_implements(g: Gadget, fn: TruthFunction, cap: int = SCAN_CAP) -> ImplementsReport:
    """Exhaustively check that every minimizing configuration computes fn."""
    if fn.arity != g.arity:
        raise ModelError(f"arity mismatch: gadget {g.arity}, function {fn.arity}")
    minima = _scan_minima(g, fn=fn, cap=cap)
    gap = None
    for ground, wrong in minima:
        d = wrong - ground
        if gap is None or d < gap:
            gap = d
    assert gap is not None
    return ImplementsReport(gap > 0, gap)


def _default_name(fn: TruthFunction) -> str:
    if fn == AND2:
        return "AND"
    if fn == OR2:
        return "OR"
    if fn == NOT:
        return "inverter"
    return f"F{fn.arity}"


def _gate_table(fn: TruthFunction, penalty: Fraction, ground) -> tuple[Fraction, ...]:
    """A gate term's energies, indexed x | y << arity: ground[x] when the
    output y is fn(x), ground[x] + penalty otherwise."""
    return tuple(e if y == want else e + penalty
                 for y in (0, 1) for e, want in zip(ground, fn.outputs))


def _one_term_gadget(name: str, fn: TruthFunction, penalty: Fraction, ground, labels,
                     counts: dict[str, int]) -> Gadget:
    """The gate term over inputs 0..n-1 and output n, forced by fn."""
    n = fn.arity
    return Gadget(
        name=name,
        inputs=tuple(range(n)),
        output=n,
        ancillae=(),
        fragment=EnergyModel(
            tuple(Variable(j, "input" if j < n else "output", label)
                  for j, label in enumerate(labels)),
            (EnergyTerm(tuple(range(n + 1)), _gate_table(fn, penalty, ground)),),
        ),
        forcings=(Forcing(n, tuple(range(n)), fn.outputs),),
        counts=counts,
        penalty_floor=penalty,
        ground_table=tuple(ground),
        exact_extension=True,
    )


def synthesize_gadget(fn: TruthFunction, penalty=1, name: str | None = None) -> Gadget:
    """One (n+1)-ary term: energy 0 iff output = fn(inputs), else `penalty`."""
    p = as_energy(penalty)
    if p <= 0:
        raise ModelError("penalty must be positive")
    n = fn.arity
    if n > K_MAX - 1:
        raise ModelError(f"arity {n} exceeds {K_MAX - 1}; decompose first")
    name = name or _default_name(fn)
    labels = [f"x{j}" for j in range(n)] + ["y"]
    return _one_term_gadget(name, fn, p, (Fraction(0),) * (1 << n), labels, {name: 1})


def make_physical_and(e00, e01, e10, e11, penalty) -> Gadget:
    """AND gate whose correct-output rows carry input-dependent energies.

    Row (a,b) with the correct output costs e_ab; the wrong output costs
    e_ab + penalty.  Requires penalty > max pairwise difference of the four
    profile energies so that logic still dominates.
    """
    p = as_energy(penalty)
    e = [as_energy(v) for v in (e00, e01, e10, e11)]
    ground = (e[0], e[2], e[1], e[3])  # indexed a | b << 1, as the term's inputs are
    spread = max(ground) - min(ground)
    if p <= spread:
        raise LogicDominanceError(
            f"penalty {p} must exceed the profile spread {spread}"
        )
    return _one_term_gadget("physical-AND", AND2, p, ground, "abc", {"AND": 1})


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
    zeros = (Fraction(0),) * 2
    link = _gate_table(_WIRE, j_c, zeros)
    return Gadget(
        name=f"wire{length}",
        inputs=(0,),
        output=length - 1,
        ancillae=tuple(range(1, length - 1)),
        fragment=EnergyModel(tuple(variables),
                             tuple(EnergyTerm((i, i + 1), link) for i in range(length - 1))),
        forcings=tuple(Forcing(i + 1, (i,), _WIRE.outputs) for i in range(length - 1)),
        counts={"register": 1},
        penalty_floor=j_c,
        ground_table=zeros,
        exact_extension=True,
    )


def symmetrize(g: Gadget, inverter_penalty=None) -> Gadget:
    """Input-symmetrized composite: 2^n copies of g exhaust all input patterns.

    Copy s receives the pattern x XOR s through one shared inverter per
    input, so for any actual input x the copies jointly see every pattern
    and the total ground energy is the (input-independent) sum of g's
    per-pattern ground energies.  Copy 0's output is the designated output;
    the other copies' outputs stay dangling as ancillae.

    The inverter penalty defaults to 1 + 2^n * spread(g); anything at or
    below 2^n * spread(g) could let inverter violations re-route copies
    profitably and break the energy bookkeeping.
    """
    n = g.arity
    if n < 1:
        raise ModelError("cannot symmetrize a gadget with no inputs")
    if n > 8:
        raise ModelError(f"symmetrization of {n} inputs needs {1 << n} copies; refusing")
    grounds = per_input_grounds(g)
    spread = max(grounds) - min(grounds)
    gain_bound = (1 << n) * spread
    p_inv = as_energy(inverter_penalty) if inverter_penalty is not None else 1 + gain_bound
    if p_inv <= gain_bound:
        raise LogicDominanceError(
            f"inverter penalty {p_inv} must exceed {gain_bound} for this profile"
        )

    # Copy s maps g's inputs to x_j or nx_j by the bits of s, its output and
    # ancillae to fresh ids: 2n + s * (1 + A) onwards.
    ids = g.fragment.var_ids
    slot = {v: i for i, v in enumerate(ids)}
    A = len(g.ancillae)
    copy = np.arange(1 << n)[:, None]
    maps = np.full((1 << n, len(ids) + 1), -1, dtype=np.int64)
    maps[:, [slot[v] for v in g.inputs]] = np.arange(n) + n * (copy >> np.arange(n) & 1)
    maps[:, [slot[g.output]]] = 2 * n + copy * (1 + A)
    maps[:, [slot[a] for a in g.ancillae]] = 2 * n + copy * (1 + A) + 1 + np.arange(A)
    block = _slot_blocks([(g.fragment, g.forcings)])
    rows, forcings = _stamp(block, np.zeros(1 << n, dtype=int), maps)
    inverter = _gate_table(NOT, p_inv, (Fraction(0),) * 2)
    inverters = _rows_of([(j, n + j) for j in range(n)], [inverter] * n)
    plan = Plan([Forcing(n + j, (j,), NOT.outputs) for j in range(n)])

    labels = [f"x{j}" for j in range(n)] + [f"nx{j}" for j in range(n)]
    roles = ["input"] * n + ["ancilla"] * n
    ancillae = list(range(n, 2 * n))
    for s, row in enumerate(maps[:, [slot[g.output]] + [slot[a] for a in g.ancillae]].tolist()):
        labels += [f"c{s}.y"] + [f"c{s}.{a}" for a in g.ancillae]
        roles += ["output" if s == 0 else "ancilla"] + ["ancilla"] * A
        ancillae += row if s else row[1:]
    fragment = _assemble(
        np.arange(len(labels), dtype=np.int64),
        np.array([_ROLE_CODE[r] for r in roles], dtype=np.int8),
        labels,
        _concat([inverters, rows]),
        {},
    )
    counts = {k: v << n for k, v in g.counts.items()}
    counts["inverter"] = counts.get("inverter", 0) + n
    total_ground = sum(grounds, Fraction(0))
    return Gadget(
        name=f"sym:{g.name}",
        inputs=tuple(range(n)),
        output=2 * n,
        ancillae=tuple(ancillae),
        fragment=fragment,
        forcings=Plan._of(np.concatenate([plan.var, forcings.var]),
                          _concat([plan.args, forcings.args])),
        counts=counts,
        penalty_floor=min(g.penalty_floor, p_inv - gain_bound),
        ground_table=tuple(total_ground for _ in range(1 << n)),
        exact_extension=g.exact_extension,
    )


# --- gadget dumps ----------------------------------------------------------


def format_gadget(g: Gadget) -> str:
    ports = [("in", v) for v in g.inputs]
    ports.append(("out", g.output))
    ports += [("anc", v) for v in g.ancillae]
    return format_model(g.fragment, ports=ports)


def parse_gadget(text: str, name: str = "parsed") -> Gadget:
    """Parse a dump with PORT lines.  Forcing plans are not serialized, so
    parsed gadgets support exhaustive checks only."""
    fragment, ports = parse_statements(text, allow_ports=True)
    ins = tuple(v for kind, v in ports if kind == "in")
    outs = [v for kind, v in ports if kind == "out"]
    anc = tuple(v for kind, v in ports if kind == "anc")
    # what is missing from a whole dump is reported at its last line
    last = max(1, len(text.splitlines()))
    if not outs:
        raise DumpFormatError(last, "gadget dump needs an out port")
    if fragment.clamps:
        raise DumpFormatError(last, f"variable {min(fragment.clamps)} is clamped in a gadget dump")
    unlisted = sorted(set(fragment.var_ids) - {v for _, v in ports})
    if unlisted:
        raise DumpFormatError(last, f"variable {unlisted[0]} is not listed by a PORT line")
    return Gadget(name=name, inputs=ins, output=outs[0], ancillae=anc, fragment=fragment)
