"""Energy models over binary variables, with exact rational energies.

A model declares a set of binary variables and a list of k-local energy
terms.  Each term names k distinct variables (1 <= k <= K_MAX) and carries a
table of 2**k energies; table index i encodes the assignment in which bit j
of i is the value of vars[j] (little-endian on the listed variable order).
The energy of a total assignment is the sum of all table lookups.  Variables
may be clamped to a fixed bit, which removes them from free enumeration.

Energies are `fractions.Fraction` throughout.  Degeneracy counts and the
energy-uniformity checks built on top of this module require exact equality,
so floats are rejected at the boundary.  All numeric scales (penalties,
biases, couplings) are conventions chosen by callers, not physical
constants.

The line-oriented dump format::

    VAR <id> <role> [label]
    CLAMP <id> <0|1>
    TERM <k> <id_1> ... <id_k> : <e_0> ... <e_{2^k-1}>
    # comment

round-trips exactly: parsing a formatted model and formatting it again
reproduces the same text.  A VAR line declares an id before any CLAMP or
TERM line names it.

Clamps are folded out once, in integers, by `_integer_terms`, for every
solver: it scales each distinct table by the common denominator of all
entries, folds the clamped variables out of every term once per distinct
(table, clamp bits) pair, and sums the terms the clamps fix entirely into
an integer offset.  The exact solvers and the annealer read its output.

Every exact solver (`enumerate_ground_states`, `spectrum`, the gadget
scans, `Network.ground_states`) reduces one levelized, bit-parallel scan,
`_scan`, over the masks of the roots, the free variables no forcing
assigns.  Masks are scanned in aligned blocks of 2**b, b sized from
`_BLOCK_BYTES`: the low b roots vary within a block, the high roots are
fixed by its number, and each solver carries its running result from block
to block.  A folded term whose variables are all roots is blind: its table
is an array with one axis per root, added by broadcasting over the block's
(2,)*b energy array, which starts at the offset, after slicing it at the
block's high roots.  Without a plan every term is blind and no value
matrix is built; the solvers take the state bits they need from the masks.
A term that touches a forced variable is gathered: a uint8 value matrix
holds one row per variable and one column per mask (clamp rows serve the
forcings and the reported states), the forcings are stacked by
topological level and arity, so each stack costs one gather from its
tables, and the gathered terms, stacked by arity, each add one
gather-and-sum to the energy vector.  Energies are summed in int64 when
the largest possible sum stays below 2**62, as Python ints otherwise.

Compiled networks repeat a few gadget tables on thousands of terms, and
terms built from one table share its tuple: the parser reuses the table of
a TERM line whose energy text it has already read, and integerizing,
folding, stacking and formatting handle each distinct table object once
per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm

import numpy as np

Energy = Fraction
Assignment = dict[int, int]

K_MAX = 8
DEFAULT_CAP = 2 ** 24

ROLES = ("input", "output", "ancilla", "wire", "constant")


class ModelError(Exception):
    """Base class for energy-model errors."""


class IncompleteAssignmentError(ModelError):
    """An assignment is missing a declared variable."""


class CapacityError(ModelError):
    """An exact operation would exceed its state-space budget."""


class DumpFormatError(ModelError):
    """A dump file could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def as_energy(value) -> Fraction:
    """Coerce an exact number (int, Fraction, or rational string) to Fraction.

    Floats are rejected: ground-state degeneracy and energy-uniformity
    checks rely on exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"energies must be exact rationals, got {type(value).__name__}")


@dataclass(frozen=True)
class Variable:
    """A declared binary variable.  Roles are metadata only."""

    id: int
    role: str = "wire"
    label: str | None = None

    def __post_init__(self):
        if self.id < 0:
            raise ModelError(f"variable id must be non-negative, got {self.id}")
        if self.role not in ROLES:
            raise ModelError(f"unknown role {self.role!r}")


_FRACTION_ONLY = {Fraction}


@dataclass(frozen=True)
class EnergyTerm:
    """A k-local energy table over an ordered tuple of distinct variables."""

    vars: tuple[int, ...]
    table: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        # A tuple of plain Fractions is kept as is, so terms built from one
        # table (gadget copies, repeated dump lines) share a single object.
        if type(self.table) is not tuple or set(map(type, self.table)) != _FRACTION_ONLY:
            object.__setattr__(self, "table", tuple(as_energy(e) for e in self.table))
        k = len(self.vars)
        if not 1 <= k <= K_MAX:
            raise ModelError(f"term arity {k} outside 1..{K_MAX}; decompose first")
        if len(set(self.vars)) != k:
            raise ModelError(f"term variables must be distinct: {self.vars}")
        if len(self.table) != 1 << k:
            raise ModelError(
                f"table for arity {k} needs {1 << k} entries, got {len(self.table)}"
            )

    @property
    def arity(self) -> int:
        return len(self.vars)

    def index(self, assignment: Assignment) -> int:
        idx = 0
        for j, v in enumerate(self.vars):
            idx |= (assignment[v] & 1) << j
        return idx

    def energy(self, assignment: Assignment) -> Fraction:
        return self.table[self.index(assignment)]


def _renamed_terms(terms, mapping) -> list[EnergyTerm]:
    """Copies of validated terms with every variable v renamed to mapping[v].

    The mapping must be injective over the terms' variables; that is checked
    once per call.  Each copy then has distinct variables, the same arity and
    the same (already checked) table object as its original, so the copies
    skip `EnergyTerm.__post_init__`.
    """
    renamed = [tuple([mapping[v] for v in t.vars]) for t in terms]
    if len(set().union(*renamed)) != len(set().union(*(t.vars for t in terms))):
        raise ModelError("renaming maps two term variables to one")
    new, set_field = object.__new__, object.__setattr__
    copies = []
    for t, vars_ in zip(terms, renamed):
        copy = new(EnergyTerm)
        set_field(copy, "vars", vars_)
        set_field(copy, "table", t.table)
        copies.append(copy)
    return copies


@dataclass(frozen=True)
class EnergyModel:
    """Declared variables, k-local terms, and clamped bits.

    Treat instances as immutable; `with_terms` / `with_clamps` build
    modified copies.
    """

    variables: tuple[Variable, ...]
    terms: tuple[EnergyTerm, ...] = ()
    clamps: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "clamps", dict(self.clamps))
        ids = [v.id for v in self.variables]
        declared = set(ids)
        if len(ids) != len(declared):
            raise ModelError("duplicate variable ids")
        self._check_terms(self.terms, declared)
        self._check_clamps(self.clamps, declared)

    @staticmethod
    def _check_terms(terms, declared):
        for t in terms:
            undecl = set(t.vars) - declared
            if undecl:
                raise ModelError(f"term references undeclared variables {sorted(undecl)}")

    @staticmethod
    def _check_clamps(clamps, declared):
        for v, b in clamps.items():
            if v not in declared:
                raise ModelError(f"clamp on undeclared variable {v}")
            if b not in (0, 1):
                raise ModelError(f"clamp value must be 0 or 1, got {b}")

    def _copy(self, terms, clamps) -> "EnergyModel":
        """A model over the same variables, skipping `__post_init__`: the
        caller has checked whatever it changed."""
        copy = object.__new__(EnergyModel)
        object.__setattr__(copy, "variables", self.variables)
        object.__setattr__(copy, "terms", terms)
        object.__setattr__(copy, "clamps", clamps)
        return copy

    @property
    def var_ids(self) -> tuple[int, ...]:
        return tuple(sorted(v.id for v in self.variables))

    @property
    def free_vars(self) -> tuple[int, ...]:
        return tuple(v for v in self.var_ids if v not in self.clamps)

    def variable(self, var_id: int) -> Variable:
        for v in self.variables:
            if v.id == var_id:
                return v
        raise ModelError(f"unknown variable {var_id}")

    def with_terms(self, extra) -> "EnergyModel":
        """A copy with `extra` terms appended; only those are checked."""
        extra = tuple(extra)
        self._check_terms(extra, {v.id for v in self.variables})
        return self._copy(self.terms + extra, dict(self.clamps))

    def with_clamps(self, extra: dict[int, int]) -> "EnergyModel":
        """A copy with `extra` clamps (masked to a bit) merged in; only those
        are checked."""
        clamps = {v: b & 1 for v, b in extra.items()}
        self._check_clamps(clamps, {v.id for v in self.variables})
        merged = dict(self.clamps)
        for v, b in clamps.items():
            if merged.setdefault(v, b) != b:
                raise ModelError(f"conflicting clamp on variable {v}")
        return self._copy(self.terms, merged)


@dataclass(frozen=True)
class SpectrumReport:
    """Ground level, degeneracy, and gap to the first excited level."""

    ground_energy: Fraction
    ground_degeneracy: int
    first_excited_energy: Fraction | None
    gap: Fraction | None


def total_energy(model: EnergyModel, assignment: Assignment) -> Fraction:
    """Sum of all term-table lookups under a total assignment."""
    missing = [v for v in model.var_ids if v not in assignment]
    if missing:
        raise IncompleteAssignmentError(f"assignment missing variables {missing[:8]}")
    for v, b in model.clamps.items():
        if assignment[v] != b:
            raise ModelError(f"assignment violates clamp {v}={b}")
    e = Fraction(0)
    for t in model.terms:
        e += t.table[t.index(assignment)]
    return e


def _integer_terms(model: EnergyModel):
    """The model's terms over a common denominator with the clamps folded
    out: (denom, offset, [(vars, integer table)]).

    `denom` is the least common denominator of every table entry; each
    distinct table object is scaled once.  A term touching a clamp keeps
    its free variables and the entries its clamped bits select (folded once
    per distinct table and clamp pattern); a term the clamps fix entirely
    adds its one entry to the integer `offset` instead.
    """
    distinct = {id(t.table): t.table for t in model.terms}
    denoms = set()
    for table in distinct.values():
        denoms.update(e.denominator for e in table)
    denom = lcm(*denoms)
    scale = {d: denom // d for d in denoms}
    scaled = {
        key: tuple(e.numerator * scale[e.denominator] for e in table)
        for key, table in distinct.items()
    }
    clamps = model.clamps
    clamped = clamps.keys()
    offset = 0
    terms = []
    # (table id, clamped positions, clamped bits) -> folded table; `scaled`
    # keeps every table alive, so no id is reused during the call
    folds: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for t in model.terms:
        table = scaled[id(t.table)]
        if clamped.isdisjoint(t.vars):
            terms.append((t.vars, table))
            continue
        mask = bits = 0
        for j, v in enumerate(t.vars):
            if v in clamps:
                mask |= 1 << j
                bits |= clamps[v] << j
        key = (id(table), mask, bits)
        folded = folds.get(key)
        if folded is None:
            keep = [j for j in range(len(t.vars)) if not mask >> j & 1]
            folded = folds[key] = tuple(
                table[bits | sum((i >> a & 1) << j for a, j in enumerate(keep))]
                for i in range(1 << len(keep))
            )
        free = tuple([v for v in t.vars if v not in clamps])
        if free:
            terms.append((free, folded))
        else:
            offset += folded[0]
    return denom, offset, terms


# Bytes of working arrays per block of scanned masks.
_BLOCK_BYTES = 1 << 20
# Energies are summed in int64 only below this bound on any sum of entries.
_INT64_BOUND = 1 << 62


def _scan(model: EnergyModel, plan, cap: int):
    """Score every root mask, extending it by `plan`'s forcings (var, args,
    table), given in topological order.

    Returns (denom, roots, blocks); root i is bit i of a mask.  `blocks`
    yields (bits, alive, energy) per block with at least one alive mask:
    `energy` holds the integer energies over denom of the block's masks in
    increasing order, `alive` is False where a forced value contradicts a
    clamp, and `bits(vars, cols)` gives the listed variables' values (one
    uint8 row each; every variable in id order when vars is None) at the
    block columns `cols`, a boolean mask or a slice.
    """
    forced = {f.var for f in plan}
    roots = [v for v in model.free_vars if v not in forced]
    if roots and (1 << len(roots)) > cap:
        raise CapacityError(
            f"{len(roots)} free variables require {1 << len(roots)} states, cap is {cap}; "
            "shrink the model, clamp inputs, or use the annealer"
        )
    clamps = model.clamps
    row = {v: i for i, v in enumerate(model.var_ids)}
    forcings = _forcing_groups(plan, roots, clamps, row)
    denom, offset, terms = _integer_terms(model)
    energy_dtype, groups = _term_groups(terms, row, offset)
    root_rows = [row[v] for v in roots]
    clamp_rows = [row[v] for v in clamps]
    gathered, blind = _blind_terms(groups, len(row), root_rows)

    # Blocks are aligned runs of 2**b masks: the low b roots vary within a
    # block and the high roots are fixed by its number.  A scan with
    # forcings keeps a value matrix per block; a blind scan only an energy
    # vector and its consumers' temporaries.
    per_mask = 32 + 2 * energy_dtype.itemsize
    if forcings:
        widest = max([3 * len(g[1]) for g in forcings] + [0])
        widest = max([(2 + energy_dtype.itemsize) * len(g[1]) for g in gathered] + [widest])
        per_mask = len(row) + 16 * len(roots) + widest + 32
    b = min(len(roots), max(1, _BLOCK_BYTES // per_mask).bit_length() - 1)
    size = 1 << b
    addends = [_block_addend(key, table, b) for key, table in blind.items()]
    shifts = np.arange(len(roots), dtype=np.int64)[:, None]
    clamp_vals = np.array(list(clamps.values()), dtype=np.uint8)[:, None]
    root_bit = {v: i for i, v in enumerate(roots)}

    def blocks():
        for number in range(1 << (len(roots) - b)):
            start = number << b
            alive = np.ones(size, dtype=bool)
            if forcings:
                masks = np.arange(start, start + size, dtype=np.int64)
                vals = np.empty((len(row), size), dtype=np.uint8)
                vals[clamp_rows] = clamp_vals
                vals[root_rows] = (masks >> shifts) & 1
                for arg_cols, tables, out_rows, clamp_col in forcings:
                    got = _gather(tables, vals, arg_cols)
                    if clamp_col is None:
                        vals[out_rows] = got
                    else:
                        alive &= (got == clamp_col).all(axis=0)
                if not alive.any():
                    continue
                bits = partial(_matrix_bits, vals, row)
            else:
                bits = partial(_mask_bits, start, size, root_bit, clamps, row)
            energy = np.full((2,) * b, offset, dtype=energy_dtype)
            for tables, high in addends:
                hi = 0
                for shift in high:
                    hi = hi << 1 | (number >> shift) & 1
                energy += tables[hi]
            energy = energy.reshape(-1)
            for arg_cols, tables in gathered:
                energy += _gather(tables, vals, arg_cols).sum(axis=0)
            yield bits, alive, energy

    return denom, roots, blocks()


def _block_addend(key, table, b):
    """A blind table over the roots `key` (highest first), prepared for
    blocks of 2**b masks as (slices, shifts).

    `slices[hi]` is the table with its high roots (those at or above b, its
    leading axes) fixed to the bits of hi, most significant first, and
    shaped to broadcast over a block's (2,)*b energy array, whose axis
    b-1-r is root r.  A block's number holds root r >= b at bit r - b;
    `shifts` lists those bits in key order.
    """
    high = [r - b for r in key if r >= b]
    shape = [1] * b
    for r in key[len(high):]:
        shape[b - 1 - r] = 2
    return table.reshape((1 << len(high), *shape)), high


def _matrix_bits(vals, row, vars_, cols):
    """`bits` of a block with a value matrix: the listed variables' rows."""
    picked = vals[:, cols]
    return picked if vars_ is None else picked[[row[v] for v in vars_]]


def _mask_bits(start, size, root_bit, clamps, row, vars_, cols):
    """`bits` of a blind block: root bits read from the masks, clamps
    repeated."""
    vars_ = list(row) if vars_ is None else vars_
    masks = np.arange(start, start + size, dtype=np.int64)[cols]
    out = np.empty((len(vars_), len(masks)), dtype=np.uint8)
    for i, v in enumerate(vars_):
        out[i] = clamps[v] if v in clamps else (masks >> root_bit[v]) & 1
    return out


def _gather(tables, vals, arg_cols):
    """Look up each stacked table at its args' little-endian index, per mask.

    `arg_cols[j]` holds the value-matrix row of argument j of every table;
    the result has one row per table and one column per mask.
    """
    idx = np.zeros((len(tables), vals.shape[1]), dtype=np.uint8)
    for j, cols in enumerate(arg_cols):
        idx |= vals[cols] << j
    return np.take_along_axis(tables, idx, axis=1)


def _forcing_groups(plan, roots, clamps, row):
    """Stack the plan's forcings by (topological level, arity, clamped).

    A forcing's level is one more than the highest level among its args;
    roots and clamped variables sit at level 0.  Forcings of one level read
    only lower levels, so each group is one gather from its stacked tables.
    Each group is (arg rows per position, tables, rows to write, clamp
    column); a group of clamped variables is checked against the clamps
    instead of written.
    """
    level = dict.fromkeys(roots, 0)
    level.update(dict.fromkeys(clamps, 0))
    groups: dict[tuple, list] = {}
    for f in plan:
        if f.var in level and f.var not in clamps:
            raise ModelError(f"forcing plan assigns variable {f.var} twice")
        lvl = 1 + max((level[a] for a in f.args), default=0)
        if f.var not in clamps:
            level[f.var] = lvl
        groups.setdefault((lvl, len(f.args), f.var in clamps), []).append(f)
    out = []
    for (_, _, clamped), fs in sorted(groups.items()):
        tables = np.array([f.table for f in fs], dtype=np.uint8)
        out_rows = np.array([row[f.var] for f in fs], dtype=np.intp)
        clamp_col = None
        if clamped:
            clamp_col = np.array([clamps[f.var] for f in fs], dtype=np.uint8)[:, None]
        out.append((_arg_cols([f.args for f in fs], row), tables, out_rows, clamp_col))
    return out


def _term_groups(terms, row, offset):
    """The integer terms of `_integer_terms` stacked by arity: (dtype,
    groups).

    Energies are summed in int64 when no sum of the offset and one entry
    per term can reach 2**62, and as Python ints (dtype object) otherwise.
    """
    # each arity's distinct tables are converted to an array once; every
    # term picks its table's row of that stack
    stacks: dict[int, list] = {}
    stack_row: dict[int, int] = {}
    peak: dict[int, int] = {}
    by_arity: dict[int, list] = {}
    bound = abs(offset)
    for vars_, table in terms:
        key = id(table)
        if key not in stack_row:
            stack = stacks.setdefault(len(vars_), [])
            stack_row[key] = len(stack)
            stack.append(table)
            peak[key] = max(max(table), -min(table))
        bound += peak[key]
        by_arity.setdefault(len(vars_), []).append((vars_, stack_row[key]))
    dtype = np.dtype(np.int64 if bound < _INT64_BOUND else object)
    groups = []
    for arity, ts in sorted(by_arity.items()):
        picks = np.array([r for _, r in ts], dtype=np.intp)
        tables = np.array(stacks[arity], dtype=dtype)[picks]
        groups.append((_arg_cols([vars_ for vars_, _ in ts], row), tables))
    return dtype, groups


def _blind_terms(groups, n_rows, root_rows):
    """Split the stacked terms of `_term_groups`: (gathered, blind).

    A term whose variables are all roots is blind: it becomes an array over
    its roots (`_root_table`), and the blind terms over one set of roots
    are summed into one array, keyed by those roots in descending order.
    The other terms stay stacked by arity for `_gather`.  The test is one
    vectorized pass per arity, so a scan whose every term touches a forced
    variable pays no Python work per term.
    """
    # per value-matrix row: the root's index, else -1
    root_at = np.full(n_rows, -1, dtype=np.intp)
    root_at[root_rows] = np.arange(len(root_rows))
    blind_row = root_at >= 0
    gathered = []
    blind: dict[tuple, np.ndarray] = {}
    for arg_cols, tables in groups:
        is_blind = blind_row[arg_cols[0]]
        for c in arg_cols[1:]:
            is_blind = is_blind & blind_row[c]
        if is_blind.any():
            picked = np.flatnonzero(is_blind)
            cols = np.array([c[picked] for c in arg_cols]).T
            for table, roots in zip(tables[picked], root_at[cols].tolist()):
                key, table = _root_table(table, roots)
                if key in blind:
                    blind[key] += table
                else:
                    blind[key] = table.copy()
            arg_cols, tables = [c[~is_blind] for c in arg_cols], tables[~is_blind]
        if len(tables):
            gathered.append((arg_cols, tables))
    return gathered, blind


def _root_table(table, roots):
    """A blind term's table as (its roots in descending order, array with
    one axis per root in that order); argument j is root roots[j]."""
    # reshaped to (2,)*k, the table's axis a holds argument k-1-a
    axes = roots[::-1]
    order = sorted(range(len(axes)), key=axes.__getitem__, reverse=True)
    return tuple(axes[a] for a in order), table.reshape((2,) * len(roots)).transpose(order)


def _arg_cols(arg_lists, row):
    """Per argument position, the value-matrix rows of every stacked table."""
    return [
        np.array([row[args[j]] for args in arg_lists], dtype=np.intp)
        for j in range(len(arg_lists[0]))
    ]


def _ground_set(model: EnergyModel, plan, cap: int):
    """Minimum energy over the alive states of `_scan` and every state
    reaching it, or None when no state is alive.

    States come back sorted lexicographically by variable id; each dict
    lists the clamps, then the roots, then the forced variables in plan
    order.
    """
    denom, roots, blocks = _scan(model, plan, cap)
    best = None
    found = []
    for bits, alive, energy in blocks:
        low = int(energy[alive].min())
        if best is None or low < best:
            best, found = low, []
        if low == best:
            found.append(bits(None, alive & (energy == best)))
    if best is None:
        return None
    states = np.concatenate(found, axis=1)
    if states.shape[1] > 1:
        # Rows are in variable-id order, so comparing the bit-packed columns
        # bytewise is the lexicographic order.  (np.lexsort with one key per
        # variable costs kilobytes per key.)
        packed = np.packbits(states, axis=0).T.copy()
        order = np.argsort(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
        states = states[:, order]
    clamps = model.clamps
    keys = list(clamps) + roots + [f.var for f in plan if f.var not in clamps]
    row = {v: i for i, v in enumerate(model.var_ids)}
    # one state at a time: a nested list of every state would outgrow the dicts
    per_state = states[[row[v] for v in keys]].T.copy()
    return Fraction(best, denom), [dict(zip(keys, s.tolist())) for s in per_state]


def enumerate_ground_states(
    model: EnergyModel, cap: int = DEFAULT_CAP
) -> tuple[Fraction, list[Assignment]]:
    """Exact minimum energy and the complete set of minimizing assignments.

    Exhaustive over all free (unclamped) variables; clamped bits are included
    in each returned assignment.  Assignments come back sorted
    lexicographically by variable id.
    """
    return _ground_set(model, (), cap)


def spectrum(model: EnergyModel, cap: int = DEFAULT_CAP) -> SpectrumReport:
    """Ground energy, exact degeneracy, and the first excited level if any."""
    denom, _, blocks = _scan(model, (), cap)
    e0 = e1 = None
    count0 = 0
    # without a plan every state is alive
    for _, _, energy in blocks:
        low = int(energy.min())
        is_low = energy == low
        n_low = int(is_low.sum())
        above = int(energy[~is_low].min()) if n_low < len(energy) else None
        levels = sorted({e0, e1, low, above} - {None})
        count0 = (count0 if e0 == levels[0] else 0) + (n_low if low == levels[0] else 0)
        e0, e1 = levels[0], (levels[1] if len(levels) > 1 else None)
    ground = Fraction(e0, denom)
    first = Fraction(e1, denom) if e1 is not None else None
    gap = first - ground if first is not None else None
    return SpectrumReport(ground, count0, first, gap)


# --- dump format -----------------------------------------------------------


def format_model(model: EnergyModel, ports=None) -> str:
    """Render the dump format.  `ports` is an optional list of
    ("in"|"out"|"anc", var_id) pairs appended as PORT lines (gadget dumps)."""
    lines = []
    for v in sorted(model.variables, key=lambda v: v.id):
        line = f"VAR {v.id} {v.role}"
        if v.label:
            line += f" {v.label}"
        lines.append(line)
    for vid in sorted(model.clamps):
        lines.append(f"CLAMP {vid} {model.clamps[vid]}")
    table_text: dict[int, str] = {}  # each distinct table is formatted once
    for t in model.terms:
        energies = table_text.get(id(t.table))
        if energies is None:
            energies = table_text[id(t.table)] = " ".join(map(str, t.table))
        lines.append(f"TERM {t.arity} {' '.join(map(str, t.vars))} : {energies}")
    for kind, vid in ports or ():
        lines.append(f"PORT {kind} {vid}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DumpFormatError(lineno, f"bad {what} {token!r}") from None


def _parse_ref(token: str, lineno: int, declared: set[int]) -> int:
    vid = _parse_int(token, lineno, "variable id")
    if vid not in declared:
        raise DumpFormatError(lineno, f"variable {vid} is not declared by an earlier VAR")
    return vid


def _parse_energy(token: str, lineno: int, parsed: dict[str, Fraction]) -> Fraction:
    """`token` as a Fraction; `parsed` keeps the tokens already converted."""
    value = parsed.get(token)
    if value is None:
        try:
            value = parsed[token] = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise DumpFormatError(lineno, f"bad energy {token!r}") from None
    return value


def parse_statements(text: str, allow_ports: bool = False):
    """Parse dump statements into (variables, clamps, terms, ports).

    Shared by the model and gadget parsers; `#` starts a comment anywhere on
    a line.  A variable id must be declared by a VAR line before a CLAMP,
    TERM or PORT line names it; it may be clamped once and be one port.
    Raises DumpFormatError with a line number on any defect.
    """
    declared: set[int] = set()
    variables: list[Variable] = []
    clamps: dict[int, int] = {}
    terms: list[EnergyTerm] = []
    ports: list[tuple[str, int]] = []
    # energy tokens already parsed -> their table, shared by every term
    # line that repeats them
    tables: dict[tuple[str, ...], tuple[Fraction, ...]] = {}
    # energy token -> its value, so each distinct token is converted once
    energies_parsed: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "VAR":
            if len(tokens) < 3:
                raise DumpFormatError(lineno, "VAR needs <id> <role> [label]")
            vid = _parse_int(tokens[1], lineno, "variable id")
            if vid in declared:
                raise DumpFormatError(lineno, f"duplicate variable id {vid}")
            try:
                variables.append(Variable(vid, tokens[2], " ".join(tokens[3:]) or None))
            except ModelError as exc:
                raise DumpFormatError(lineno, str(exc)) from None
            declared.add(vid)
        elif kind == "CLAMP":
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                raise DumpFormatError(lineno, "CLAMP needs <id> <0|1>")
            vid = _parse_ref(tokens[1], lineno, declared)
            if vid in clamps:
                raise DumpFormatError(lineno, f"variable {vid} is already clamped")
            clamps[vid] = int(tokens[2])
        elif kind == "TERM":
            if len(tokens) < 2:
                raise DumpFormatError(lineno, "TERM needs an arity")
            k = _parse_int(tokens[1], lineno, "arity")
            if not 1 <= k <= K_MAX:
                raise DumpFormatError(lineno, f"arity {k} outside 1..{K_MAX}")
            expected = 2 + k + 1 + (1 << k)
            if len(tokens) != expected or tokens[2 + k] != ":":
                raise DumpFormatError(
                    lineno, f"TERM {k} needs {k} ids, ':', then {1 << k} energies"
                )
            vids = tuple(_parse_ref(t, lineno, declared) for t in tokens[2 : 2 + k])
            energies = tuple(tokens[3 + k :])
            table = tables.get(energies)
            if table is None:
                table = tables[energies] = tuple(
                    _parse_energy(t, lineno, energies_parsed) for t in energies
                )
            try:
                terms.append(EnergyTerm(vids, table))
            except ModelError as exc:
                raise DumpFormatError(lineno, str(exc)) from None
        elif kind == "PORT" and allow_ports:
            if len(tokens) != 3 or tokens[1] not in ("in", "out", "anc"):
                raise DumpFormatError(lineno, "PORT needs <in|out|anc> <id>")
            vid = _parse_ref(tokens[2], lineno, declared)
            if any(v == vid for _, v in ports):
                raise DumpFormatError(lineno, f"variable {vid} is already a port")
            if tokens[1] == "out" and any(role == "out" for role, _ in ports):
                raise DumpFormatError(lineno, "a gadget has exactly one out port")
            ports.append((tokens[1], vid))
        else:
            raise DumpFormatError(lineno, f"unknown statement {kind!r}")
    return variables, clamps, terms, ports


def parse_model(text: str, allow_ports: bool = False) -> EnergyModel:
    """Parse the dump format into an EnergyModel.

    PORT lines are rejected unless `allow_ports`, in which case they are
    skipped (gadget dumps then parse as their fragment model).
    """
    variables, clamps, terms, _ = parse_statements(text, allow_ports=allow_ports)
    return EnergyModel(tuple(variables), tuple(terms), clamps)
