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
TERM line names it.  Variable ids are below 2**63.

Models are kept in columns.  Terms are `_Rows`, in term order: an int64
array of their ids padded with -1 to K_MAX, an arity vector, and an index
into a tuple of the distinct Fraction tables.  Variables are an id array,
role codes into ROLES and a label list; a forcing plan (`Plan`) is an array
of forced variables beside `_Rows` of their arguments and 0/1 tables.
`.variables`, `.terms` and iterating a `Plan` build the objects on demand;
the library reads only the columns.  The checking constructor, `_build`,
checks its columns in bulk (`_check`): declared ids by a sorted search,
distinct ids per row by sorting along the rows, and table lengths; then it
assembles the model (`_assemble`).  `with_terms` and `with_clamps` check
only what they add.  The dump reader (`parse_statements`) is one pass that
checks each line against the lines before it, raises at the first defect,
and writes the rows straight into the columns; by then it has made every
check of `_check`, so it assembles the model without them.  Gadget
copies, in netlists, lattices and the symmetrizer alike, are placed by
`_stamp`: one fancy index of the gadgets' columns, over slots, through one
slot-to-id map row per copy.

Clamps are folded out once, in integers, by `_integer_terms`, for every
solver: it scales each distinct table by the common denominator of all
entries, folds the clamped variables out of the terms once per distinct
(table, clamp pattern), and sums the terms the clamps fix entirely into an
integer offset.  The exact solvers and the annealer read its output.

Every exact solver (`enumerate_ground_states`, `spectrum`, the gadget
scans, `Network.ground_states`) reduces one bit-sliced scan, `_scan`, over
the masks of the roots, the free variables no forcing assigns.  Masks are
scanned in aligned blocks of 2**b, b sized from `_BLOCK_BYTES`: the low b
roots vary within a block, the high roots are fixed by its number, and each
solver carries its running result from block to block.  Every block is
built the same way: each variable's values over the block are one Python
int, bit m its value under mask m.  Roots are fixed bit patterns, clamps 0
or all ones, and each forcing of a plan is a few bitwise operations on its
arguments' ints, derived once per distinct table; without a plan there are
no forcings.  A folded term whose variables are all roots is blind: its
table is an array with one axis per root, added by broadcasting over the
block's (2,)*b energy array, which starts at the offset, after slicing it
at the block's high roots.  A term that touches a forced variable is
gathered, and summed from the same ints: its table's minimum joins the
offset, and each higher entry e of a table is one bitwise step run
elementwise, over an array of the block's ints, for all the terms with
that table; each term's result is the int of the masks that select e,
and only the nonzero ones are unpacked and added, times e minus the
minimum, to the energy vector.  Energies are summed in int64 when the
largest possible sum stays below 2**62, as Python ints otherwise.  The
solvers unpack only the rows they read (`_unpacked`), and the ground-state
readout only in blocks that reach the lowest energy so far.  One reducer,
`_ground_matrix`, keeps the two lowest levels, the ground degeneracy and,
on request, the ground columns; `spectrum` is its report, and the ground
states come back as one dict each, built by difference from the sorted
state before it (`_as_dicts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import lcm
from typing import NamedTuple

import numpy as np

Energy = Fraction
Assignment = dict[int, int]

K_MAX = 8
DEFAULT_CAP = 2 ** 24

ROLES = ("input", "output", "ancilla", "wire", "constant")
_ROLE_CODE = {role: code for code, role in enumerate(ROLES)}


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
        # table share a single object.
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


class Forcing(NamedTuple):
    """var = table[index(args)]: the unique minimizing value of a driven
    variable given already-determined arguments (little-endian index)."""

    var: int
    args: tuple[int, ...]
    table: tuple[int, ...]


def _ids(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        raise ModelError("variable ids must be integers below 2**63") from None


_NO_IDS = _ids([])


class _Rows(NamedTuple):
    """Rows of ids padded with -1 to K_MAX, their arities, and the index of
    each row's table in `tables`."""

    vars: np.ndarray
    arity: np.ndarray
    tidx: np.ndarray
    tables: tuple


def _padded(flat, lengths, width: int = K_MAX) -> np.ndarray:
    """Rows of lengths[i] ids, read in order from `flat`, padded with -1."""
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.full((len(lengths), width), -1, dtype=np.int64)
    out[np.arange(width) < lengths[:, None]] = flat
    return out


def _rows_of(id_lists, tables) -> _Rows:
    """Rows of id sequences and their tables; rows share a table object's index."""
    index: dict[int, tuple] = {}
    for table in tables:
        index.setdefault(id(table), (len(index), table))
    arity = [len(ids) for ids in id_lists]
    if max(arity, default=0) > K_MAX:
        raise ModelError(f"arity {max(arity)} exceeds {K_MAX}")
    return _Rows(
        _padded(_ids([v for ids in id_lists for v in ids]), arity),
        np.array(arity, dtype=np.int64),
        np.array([index[id(t)][0] for t in tables], dtype=np.intp),
        tuple(t for _, t in index.values()),
    )


def _concat(parts) -> _Rows:
    """The parts' rows in order, their table tuples joined."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return _rows_of([], [])
    tidx, tables = [], ()
    for p in parts:
        tidx.append(p.tidx + len(tables))
        tables += p.tables
    return _Rows(np.concatenate([p.vars for p in parts]), np.concatenate([p.arity for p in parts]),
                 np.concatenate(tidx), tables)


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Per row: does a non-negative entry repeat?"""
    srt = np.sort(rows, axis=1)
    return ((srt[:, 1:] == srt[:, :-1]) & (srt[:, 1:] >= 0)).any(axis=1)


class Plan:
    """A forcing plan in columns, in topological order: row i sets `var[i]`
    to its table at the little-endian index of its `args` row.  Built from
    `Forcing`s; iterating yields them back."""

    __slots__ = ("var", "args")
    __hash__ = None

    def __init__(self, forcings=()):
        forcings = tuple(forcings)
        self.var = _ids([f[0] for f in forcings])
        self.args = a = _rows_of([f[1] for f in forcings], [f[2] for f in forcings])
        # each distinct table once: bits only, 2**arity of them for every row
        for table in a.tables:
            if not set(table) <= {0, 1}:
                raise ModelError(f"forcing table entries must be 0 or 1, got {table}")
        sizes = np.array([len(table) for table in a.tables], dtype=np.int64)
        bad = sizes[a.tidx] != 1 << a.arity
        if bad.any():
            r = np.argmax(bad)
            k = int(a.arity[r])
            raise ModelError(f"forcing table for arity {k} needs {1 << k} entries, "
                             f"got {sizes[a.tidx[r]]}")

    @classmethod
    def _of(cls, var, args: _Rows) -> "Plan":
        plan = object.__new__(cls)
        plan.var, plan.args = var, args
        return plan

    def __len__(self):
        return len(self.var)

    def __iter__(self):
        a = self.args
        rows = zip(self.var.tolist(), a.vars.tolist(), a.arity.tolist(), a.tidx.tolist())
        for var, args, k, t in rows:
            yield Forcing(var, tuple(args[:k]), a.tables[t])

    def __eq__(self, other):
        return tuple(self) == tuple(other) if type(other) is Plan else NotImplemented

    def __repr__(self):
        return f"Plan({tuple(self)!r})"


class _Blocks(NamedTuple):
    """Term rows and forcings over slots, cut into blocks placed whole:
    block b is rows row_cut[b]:row_cut[b+1] and forcings
    forcing_cut[b]:forcing_cut[b+1]."""

    rows: _Rows
    forcings: Plan
    row_cut: np.ndarray
    forcing_cut: np.ndarray


def _check_maps(maps: np.ndarray) -> None:
    """Raise ModelError unless each map row is injective on its ids."""
    if _repeats(maps).any():
        raise ModelError("placement maps two variables to one")


def _stamp(blocks: _Blocks, which, maps: np.ndarray) -> tuple[_Rows, Plan]:
    """The (term rows, forcings) of copy i of block which[i] renamed
    through map row maps[i], copy after copy.

    A map row lists the id of each slot and ends in -1, which the -1 pads
    index; each map row must be injective.  All copies' terms are one fancy
    index of the blocks' columns through the maps, and so are their
    forcings.  A lattice gives each gate copy its own row, the gate's slot
    row composed with its cell's map.
    """
    _check_maps(maps)
    which = np.asarray(which, dtype=np.intp)

    def copies(rows: _Rows, cut):
        sizes = (cut[1:] - cut[:-1])[which]
        ends = sizes.cumsum()
        copy = np.repeat(np.arange(len(which)), sizes)
        picks = np.arange(len(copy)) + (cut[which] + sizes - ends)[copy]
        placed = _Rows(maps[copy[:, None], rows.vars[picks]], rows.arity[picks], rows.tidx[picks],
                       rows.tables)
        return placed, picks, copy

    rows = copies(blocks.rows, blocks.row_cut)[0]
    args, picks, copy = copies(blocks.forcings.args, blocks.forcing_cut)
    return rows, Plan._of(maps[copy, blocks.forcings.var[picks]], args)


def _slot_blocks(parts) -> _Blocks:
    """The terms and plans of (model, plan) pairs over slots, one block per
    pair; a variable's slot is its index among its model's sorted ids."""
    terms, plans = [], []
    for model, plan in parts:
        ids = np.sort(model._ids)
        terms.append(model._terms._replace(vars=_row_of(ids, model._terms.vars)))
        args = plan.args._replace(vars=_row_of(ids, plan.args.vars))
        plans.append(Plan._of(_row_of(ids, plan.var), args))
    return _Blocks(
        _concat(terms),
        Plan._of(np.concatenate([_NO_IDS, *(p.var for p in plans)]),
                 _concat([p.args for p in plans])),
        np.array([0, *accumulate(len(t.arity) for t in terms)]),
        np.array([0, *accumulate(len(p) for p in plans)]),
    )


def _map_array(rows) -> np.ndarray:
    """Slot-to-id map rows of any lengths as one array for `_stamp`."""
    lengths = [len(r) for r in rows]
    return _padded(_ids([v for r in rows for v in r]), lengths, max(lengths, default=0) + 1)


def _undeclared(known, vals) -> np.ndarray:
    """Per entry of `vals`: is it missing from the sorted, distinct `known`?"""
    if not len(known):
        return np.ones(vals.shape, dtype=bool)
    if known[-1] - known[0] == len(known) - 1:  # every id in a range
        return (vals < known[0]) | (vals > known[-1])
    p = np.minimum(np.searchsorted(known, vals), len(known) - 1)
    return known[p] != vals


def _check(ids, terms=None, clamp_ids=_NO_IDS, clamp_bits=()):
    """The bulk checks of `_build`: raise ModelError for the first fault, in
    the order of the object constructors -- duplicate or negative ids, then
    the terms, then the clamps."""
    known = ids
    if not (ids[1:] > ids[:-1]).all():  # else: no duplicates, already sorted
        known = np.unique(ids)
        if len(known) < len(ids):
            raise ModelError("duplicate variable ids")
    if len(ids) and known[0] < 0:
        raise ModelError(f"variable id must be non-negative, got {ids[np.argmax(ids < 0)]}")

    if terms is not None and len(terms.arity):
        t = terms
        missing = _undeclared(known, t.vars) & (np.arange(K_MAX) < t.arity[:, None])
        repeated = _repeats(t.vars)
        # each table's arity by its size (a power of two), else -1
        arity_of = [n.bit_length() - 1 if n > 1 and n & (n - 1) == 0 else -1
                    for n in map(len, t.tables)]
        fits = np.array(arity_of, dtype=np.int64)[t.tidx] == t.arity
        bad = missing.any(axis=1) | repeated | ~fits
        if bad.any():
            r = np.argmax(bad)
            k = int(t.arity[r])
            absent = sorted(set(t.vars[r][missing[r]].tolist()))
            raise ModelError(
                f"term references undeclared variables {absent}" if absent else
                f"term variables must be distinct: {tuple(t.vars[r, :k].tolist())}"
                if repeated[r] else
                f"term arity {k} outside 1..{K_MAX}; decompose first" if k < 1 else
                f"table for arity {k} needs {1 << k} entries, got {len(t.tables[t.tidx[r]])}")
    if len(clamp_ids):
        missing = _undeclared(known, clamp_ids)
        off = np.array([b not in (0, 1) for b in clamp_bits], dtype=bool)
        srt = np.argsort(clamp_ids, kind="stable")
        again = np.zeros(len(clamp_ids), dtype=bool)
        again[srt[1:][clamp_ids[srt][1:] == clamp_ids[srt][:-1]]] = True
        bad = missing | off | again
        if bad.any():
            r = np.argmax(bad)
            raise ModelError(f"clamp on undeclared variable {clamp_ids[r]}" if missing[r]
                             else f"clamp value must be 0 or 1, got {clamp_bits[r]}" if off[r]
                             else f"variable {clamp_ids[r]} is already clamped")


def _build(ids, roles, labels, terms: _Rows, clamp_ids=_NO_IDS, clamp_bits=(),
           model=None) -> "EnergyModel":
    """The one checking constructor: a model from columns (`roles` are codes
    into ROLES), checked by `_check`."""
    _check(ids, terms, clamp_ids, clamp_bits)
    return _assemble(ids, roles, labels, terms, dict(zip(clamp_ids.tolist(), clamp_bits)), model)


def _assemble(ids, roles, labels, terms: _Rows, clamps: dict, model=None) -> "EnergyModel":
    """A model from columns its caller has checked; `clamps` maps ids to bits."""
    model = object.__new__(EnergyModel) if model is None else model
    model._ids, model._roles, model._labels, model._terms = ids, roles, labels, terms
    model.clamps = clamps
    return model


class EnergyModel:
    """Declared variables, k-local terms, and clamped bits, in columns (see
    the module docstring); `.variables` and `.terms` give back equal
    objects.  Treat instances as immutable; `with_terms` / `with_clamps`
    build modified copies.
    """

    __slots__ = ("_ids", "_roles", "_labels", "_terms", "clamps")
    __hash__ = None

    def __init__(self, variables, terms=(), clamps=None):
        variables, terms, clamps = tuple(variables), tuple(terms), dict(clamps or {})
        _build(
            _ids([v.id for v in variables]),
            np.array([_ROLE_CODE[v.role] for v in variables], dtype=np.int8),
            [v.label for v in variables],
            _rows_of([t.vars for t in terms], [t.table for t in terms]),
            _ids(list(clamps)), list(clamps.values()), model=self,
        )

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(
            Variable(v, ROLES[code], label)
            for v, code, label in zip(self._ids.tolist(), self._roles.tolist(), self._labels)
        )

    @property
    def terms(self) -> tuple[EnergyTerm, ...]:
        t = self._terms
        return tuple(
            EnergyTerm(tuple(ids[:k]), t.tables[i])
            for ids, k, i in zip(t.vars.tolist(), t.arity.tolist(), t.tidx.tolist())
        )

    def __eq__(self, other):
        if type(other) is not EnergyModel:
            return NotImplemented
        a, b = self._terms, other._terms
        return (
            np.array_equal(self._ids, other._ids)
            and np.array_equal(self._roles, other._roles)
            and self._labels == other._labels
            and self.clamps == other.clamps
            and np.array_equal(a.vars, b.vars)
            and [a.tables[i] for i in a.tidx.tolist()] == [b.tables[i] for i in b.tidx.tolist()]
        )

    def __repr__(self):
        return (f"EnergyModel(variables={self.variables!r}, terms={self.terms!r}, "
                f"clamps={self.clamps!r})")

    def _copy(self, terms: _Rows, clamps) -> "EnergyModel":
        """A model over the same variables, unchecked: the caller has
        checked whatever it changed."""
        return _assemble(self._ids, self._roles, self._labels, terms, clamps)

    def _rows(self, ids) -> np.ndarray:
        """The value-matrix rows (id order) of declared ids."""
        return _row_of(np.sort(self._ids), np.asarray(ids, dtype=np.int64))

    @property
    def var_ids(self) -> tuple[int, ...]:
        return tuple(np.sort(self._ids).tolist())

    @property
    def free_vars(self) -> tuple[int, ...]:
        return tuple(v for v in self.var_ids if v not in self.clamps)

    def variable(self, var_id: int) -> Variable:
        if var_id not in self._ids.tolist():
            raise ModelError(f"unknown variable {var_id}")
        i = self._ids.tolist().index(var_id)
        return Variable(var_id, ROLES[self._roles[i]], self._labels[i])

    def with_terms(self, extra) -> "EnergyModel":
        """A copy with `extra` terms appended; only those are checked."""
        extra = tuple(extra)
        rows = _rows_of([t.vars for t in extra], [t.table for t in extra])
        _check(self._ids, rows)
        return self._copy(_concat([self._terms, rows]), dict(self.clamps))

    def with_clamps(self, extra: dict[int, int]) -> "EnergyModel":
        """A copy with `extra` clamps (masked to a bit) merged in; only those
        are checked."""
        clamps = {v: b & 1 for v, b in extra.items()}
        _check(self._ids, clamp_ids=_ids(list(clamps)), clamp_bits=list(clamps.values()))
        merged = dict(self.clamps)
        for v, b in clamps.items():
            if merged.setdefault(v, b) != b:
                raise ModelError(f"conflicting clamp on variable {v}")
        return self._copy(self._terms, merged)


@dataclass(frozen=True)
class SpectrumReport:
    """Ground level, degeneracy, and gap to the first excited level."""

    ground_energy: Fraction
    ground_degeneracy: int
    first_excited_energy: Fraction | None
    gap: Fraction | None


def total_energy(model: EnergyModel, assignment: Assignment) -> Fraction:
    """Sum of all term-table lookups under a total assignment."""
    ids = model.var_ids
    missing = [v for v in ids if v not in assignment]
    if missing:
        raise IncompleteAssignmentError(f"assignment missing variables {missing[:8]}")
    for v, b in model.clamps.items():
        if assignment[v] != b:
            raise ModelError(f"assignment violates clamp {v}={b}")
    t = model._terms
    # every variable's bit in id order, then a 0 that the pads (-1) read
    bits = np.array([assignment[v] & 1 for v in ids] + [0], dtype=np.int64)
    index = (bits[model._rows(t.vars)] << np.arange(K_MAX)).sum(axis=1)
    return sum((t.tables[i][x] for i, x in zip(t.tidx.tolist(), index.tolist())), Fraction(0))


def _integer_terms(model: EnergyModel):
    """The model's terms over a common denominator with the clamps folded
    out: (denom, offset, `_Rows` with integer tables).

    `denom` is the least common denominator of every table entry; each
    distinct table is scaled once.  A term touching a clamp keeps its free
    variables, in order, and the entries its clamped bits select (folded
    once per distinct table and clamp pattern, in order of first use); a
    term the clamps fix entirely adds its one entry to the integer `offset`
    instead.  The clamp patterns, the free variables and the offset are
    computed for all terms at once; a dict numbers the distinct (table,
    clamp pattern) keys, and only those are folded one by one.
    """
    terms = model._terms
    denoms = {e.denominator for table in terms.tables for e in table}
    denom = lcm(*denoms)
    scale = {d: denom // d for d in denoms}
    scaled = [tuple([e.numerator * scale[e.denominator] for e in table]) for table in terms.tables]
    tables = tuple(scaled)
    clamps = model.clamps
    if not clamps or not len(terms.arity):
        return denom, 0, terms._replace(tables=tables)
    ids = np.sort(model._ids)
    # each row's clamp bit, -1 when free, and a last -1 that the pads read
    bit = np.full(len(ids) + 1, -1, dtype=np.int64)
    bit[_row_of(ids, np.array(list(clamps), dtype=np.int64))] = list(clamps.values())
    at = bit[_row_of(ids, terms.vars)]
    touched = np.flatnonzero((at >= 0).any(axis=1))
    if not len(touched):
        return denom, 0, terms._replace(tables=tables)
    # each touched term's key: its table, clamped positions and clamped bits
    at = at[touched]
    on = at >= 0
    weights = 1 << np.arange(K_MAX)
    mask, bits = on @ weights, (at == 1) @ weights
    # each distinct key is folded once, appended in order of first use
    fold: dict[tuple[int, int, int], int] = {}
    index = [fold.setdefault(key, len(fold))
             for key in zip(*(c.tolist() for c in (terms.tidx[touched], mask, bits)))]
    for t, m, b in fold:
        keep = [j for j in range(len(scaled[t]).bit_length() - 1) if not m >> j & 1]
        tables += (tuple(
            scaled[t][b | sum((x >> a & 1) << j for a, j in enumerate(keep))]
            for x in range(1 << len(keep))
        ),)
    index = len(scaled) + np.array(index, dtype=np.intp)
    # the free variables, in order, moved to the front of each row
    free = (terms.vars[touched] >= 0) & ~on
    left = free.sum(axis=1)
    moved = _padded(terms.vars[touched][free], left)
    # a term the clamps fix entirely adds its one entry to the offset
    fixed = np.bincount(index[left == 0], minlength=len(tables)).tolist()
    offset = sum(n * table[0] for n, table in zip(fixed, tables) if n)
    vars_, arity, tidx = terms.vars.copy(), terms.arity.copy(), terms.tidx.copy()
    vars_[touched], arity[touched], tidx[touched] = moved, left, index
    kept = arity > 0
    return denom, offset, _Rows(vars_[kept], arity[kept], tidx[kept], tables)


# Bytes of working arrays per block of scanned masks.
_BLOCK_BYTES = 1 << 20
# Energies are summed in int64 only below this bound on any sum of entries.
_INT64_BOUND = 1 << 62


def _scan(model: EnergyModel, plan: Plan | None, cap: int):
    """Score every root mask, extending it by `plan`'s forcings, given in
    topological order.

    Returns (denom, keys, blocks); root i is bit i of a mask.  `keys` lists
    the clamped variables, then the roots, then the forced variables in
    plan order.  `blocks` yields (rows, alive, energy) per block with at
    least one alive mask: `energy` holds the integer energies over denom of
    the block's masks in increasing order, `alive` is False where a forced
    value contradicts a clamp, and `rows` holds one int per value-matrix row
    (the variables in id order), whose bit m is the variable's value under
    the block's mask m; `_unpacked` reads them as uint8 rows.

    Every block is bit-sliced the same way: roots are fixed bit patterns,
    clamps 0 or all ones, and each forcing, if there is a plan, is a few
    bitwise operations on its arguments' ints (`_forcing_steps`).  Gathered
    terms are summed from the same ints: the block's ints become one array
    of words (uint64 for blocks of up to 64 masks, Python ints otherwise),
    each group of `_term_groups` runs its step elementwise over all of its
    terms, and only the nonzero hits are unpacked and counted per mask.
    """
    ids = np.sort(model._ids)
    n = len(ids)
    clamps = model.clamps
    clamp_rows = _row_of(ids, np.array(list(clamps), dtype=np.int64))
    clamp_at = np.zeros(n, dtype=np.uint8)
    clamp_at[clamp_rows] = list(clamps.values())
    clamped = np.zeros(n, dtype=bool)
    clamped[clamp_rows] = True
    root = ~clamped
    forced = []
    if plan:
        if _undeclared(ids, plan.var).any():
            raise ModelError("forcing plan assigns an undeclared variable")
        args = plan.args
        if (_undeclared(ids, args.vars) & (np.arange(K_MAX) < args.arity[:, None])).any():
            raise ModelError("forcing plan reads an undeclared variable")
        var_rows = _row_of(ids, plan.var)
        root[var_rows] = False
        forced = plan.var[~clamped[var_rows]].tolist()
    root_rows = np.flatnonzero(root)
    roots = ids[root_rows].tolist()
    if roots and (1 << len(roots)) > cap:
        raise CapacityError(
            f"{len(roots)} free variables require {1 << len(roots)} states, cap is {cap}; "
            "shrink the model, clamp inputs, or use the annealer"
        )
    steps, checks = _forcing_steps(plan, ids, root_rows, clamped, clamp_at) if plan else ((), [])
    denom, offset, terms = _integer_terms(model)
    energy_dtype, offset, gathered, blind = _term_groups(terms, ids, offset, root_rows)

    # Blocks are aligned runs of 2**b masks: the low b roots vary within a
    # block and the high roots are fixed by its number.  Besides its energy
    # vector and its consumers' temporaries, a block unpacks n rows for the
    # readout, or the hits of a group's terms, whichever is wider.
    widest = max((len(args[0]) for _, _, args in gathered), default=0)
    per_mask = 32 + 2 * energy_dtype.itemsize + max(n, widest)
    b = min(len(roots), max(1, _BLOCK_BYTES // per_mask).bit_length() - 1)
    size = 1 << b
    word = np.uint64 if size <= 64 else object
    addends = [_block_addend(key, table, b) for key, table in blind.items()]
    # A block holds one int per value-matrix row, one per clamped forcing
    # (`checks`) and last `full`, with every mask's bit set.  Clamps are 0
    # or full, low roots the fixed patterns of `_root_patterns`, high roots
    # 0 or full by the block's number.
    full = (1 << size) - 1
    base = [full * bit for bit in clamp_at.tolist()] + [0] * len(checks) + [full]
    for r, pattern in zip(root_rows.tolist(), _root_patterns(b)):
        base[r] = pattern
    high = list(zip(root_rows[b:].tolist(), range(len(roots) - b)))
    checks = [full * bit for bit in checks]

    def blocks():
        for number in range(1 << (len(roots) - b)):
            v = base.copy()
            for r, shift in high:
                v[r] = full * (number >> shift & 1)
            for step, out, args in steps:
                v[out] = step(v, args)
            alive = np.ones(size, dtype=bool)
            if checks:
                agree = full
                for got, bit in zip(v[n:], checks):
                    agree &= ~(got ^ bit)
                if not agree:
                    continue
                alive = _unpacked([agree], size)[0].view(bool)
            energy = np.full((2,) * b, offset, dtype=energy_dtype)
            for tables, hi_shifts in addends:
                hi = 0
                for shift in hi_shifts:
                    hi = hi << 1 | (number >> shift) & 1
                energy += tables[hi]
            energy = energy.reshape(-1)
            words = np.array(v, dtype=word) if gathered else None
            for weight, step, args in gathered:
                hits = step(words, args)
                hits = hits[hits != 0]
                if len(hits):
                    energy += weight * _unpacked(hits, size).sum(axis=0, dtype=energy_dtype)
            yield v[:n], alive, energy

    return denom, list(clamps) + roots + forced, blocks()


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


def _unpacked(ints, size):
    """Bits 0..size-1 of each int as one uint8 row: bit m at column m."""
    nbytes = (size + 7) // 8
    if size <= 64:  # numpy converts ints of one word 3x faster than to_bytes
        packed = np.array(ints, dtype="<u8").view(np.uint8).reshape(len(ints), 8)[:, :nbytes]
    else:
        raw = b"".join([x.to_bytes(nbytes, "little") for x in ints])
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), nbytes)
    return np.unpackbits(packed, axis=1, count=size, bitorder="little")


@lru_cache(maxsize=32)
def _root_patterns(b):
    """The ints of the low roots 0..b-1 over a block of 2**b masks: root
    i's has bit m set where m has bit i.  Each pattern doubles with the
    block, so they are built by shift and OR."""
    low = []
    for i in range(b):
        w = 1 << i
        low = [p | p << w for p in low] + [((1 << w) - 1) << w]
    return tuple(low)


@lru_cache(maxsize=1024)
def _bitsliced(table: tuple):
    """`step(v, a)`: the 0/1 `table` applied bitwise to the ints v[a[0]],
    v[a[1]], ... (argument j is bit j of the table index); v[-1] is the
    int with every mask's bit set.  Over an array v of words and arrays
    a[j] of rows, the same step runs elementwise, one result per row.

    The expression is an OR of the minterms of the table's ones or, when
    its zeros are fewer, an AND of the clauses that rule out each zero.
    A result that could carry bits past v[-1] is ANDed with it.
    """
    k = len(table).bit_length() - 1
    ones = [x for x in range(len(table)) if table[x]]
    zeros = [x for x in range(len(table)) if not table[x]]

    def literals(x, positive, join):
        return join.join(f"x{j}" if (x >> j & 1) == positive else f"~x{j}" for j in range(k))

    if not ones or not zeros:
        expr, unbounded = ("v[-1]" if ones else "0"), False
    elif len(ones) <= len(zeros):
        expr = " | ".join(literals(x, 1, " & ") for x in ones)
        unbounded = 0 in ones  # the minterm of all zeros has no positive literal
    else:
        clauses = [literals(x, 0, " | ") for x in zeros]
        expr = " & ".join(c if k == 1 else f"({c})" for c in clauses)
        unbounded = 0 not in zeros  # else one clause has no negated literal
    if unbounded:
        expr = f"v[-1] & ({expr})"
    binds = "".join(f"    x{j} = v[a[{j}]]\n" for j in range(k))
    namespace: dict = {}
    exec(f"def step(v, a):\n{binds}    return {expr}\n", namespace)
    return namespace["step"]


def _forcing_steps(plan: Plan, ids, root_rows, clamped, clamp_at):
    """The plan as (steps, checks) for a bit-sliced block.

    `steps` lists one triple per forcing, in plan order: its table as
    bitwise operations (`_bitsliced`, made once per distinct table), the
    slot it writes, which is its variable's value-matrix row, and its
    argument rows.  A forcing of a clamped variable instead writes slot n + i, its
    index i among those forcings, and `checks[i]` is that variable's clamp
    bit.  Raises ModelError when a free variable is forced twice or read
    before its forcing.
    """
    n, args, count = len(ids), plan.args, len(plan)
    width = max(1, int(args.arity.max(initial=0)))
    # value-matrix rows; the pads name row n, which the order check counts as set
    out = _row_of(ids, plan.var)
    arg_rows = np.where(args.vars[:, :width] >= 0, _row_of(ids, args.vars[:, :width]), n)
    on_clamp = clamped[out]
    free = np.flatnonzero(~on_clamp)
    srt = np.sort(out[free])
    if (srt[1:] == srt[:-1]).any():
        seen = set()
        for i in free.tolist():
            if out[i] in seen:
                raise ModelError(f"forcing plan assigns variable {int(plan.var[i])} twice")
            seen.add(out[i])
    set_at = np.full(n + 1, count)
    set_at[root_rows] = set_at[np.flatnonzero(clamped)] = set_at[n] = -1
    set_at[out[free]] = free
    if (set_at[arg_rows] >= np.arange(count)[:, None]).any():
        raise ModelError("forcing plan reads a variable before a forcing sets it")
    slots = out.copy()
    slots[on_clamp] = n + np.arange(count - len(free))
    fns = [_bitsliced(tuple(table)) for table in args.tables]
    steps = list(zip([fns[t] for t in args.tidx.tolist()], slots.tolist(), arg_rows.tolist()))
    return steps, clamp_at[out[on_clamp]].tolist()


def _row_of(ids, vals):
    """The positions in the sorted `ids` (value-matrix rows) of declared ids,
    with the -1 pads kept; compiled models number their variables 0..n-1,
    so there rows are ids."""
    if len(ids) and ids[-1] == len(ids) - 1:
        return vals
    return np.where(vals >= 0, np.searchsorted(ids, vals), -1)


def _term_groups(terms: _Rows, ids, offset, root_rows):
    """Split the integer terms of `_integer_terms`: (dtype, offset,
    gathered, blind).

    A term whose variables are all roots is blind: it becomes an array over
    its roots (`_root_table`), and the blind terms over one set of roots
    are summed into one array, keyed by those roots in descending order.
    The other terms are gathered, grouped by table: each term adds its
    table's minimum to the returned offset, and each entry e above the
    minimum becomes one group (e - minimum, step, args).  `step` is the 0/1
    table [entry == e] as bitwise operations (`_bitsliced`) and `args[j]`
    holds the value-matrix row of argument j of every term with the table,
    so one step over a block's words gives each term's hits on e as one
    int.  `ids` are the model's ids in value-matrix (id) order and
    `root_rows` the roots' rows.  The split is one vectorized test, so a
    scan pays Python work per distinct table entry, not per term.

    Energies are summed in int64 when no sum of the offset and one entry
    per term can reach 2**62, and as Python ints (dtype object) otherwise.
    Every partial sum of a scan is such a sum: the blind entries and the
    minima come first, then the weights, all positive, up to the energy.
    """
    tables, tidx, arity = terms.tables, terms.tidx, terms.arity
    uses = np.bincount(tidx, minlength=len(tables)).tolist()
    bound = abs(offset) + sum(
        n * max(max(table), -min(table)) for table, n in zip(tables, uses) if n
    )
    dtype = np.dtype(np.int64 if bound < _INT64_BOUND else object)
    rows = _row_of(ids, terms.vars)
    # per value-matrix row its root's index, else -1; the pads read the last entry
    root_at = np.full(len(ids) + 1, -1, dtype=np.intp)
    root_at[root_rows] = np.arange(len(root_rows))
    at = root_at[rows]
    is_blind = ((at >= 0) | (rows < 0)).all(axis=1)
    blind: dict[tuple, np.ndarray] = {}
    for roots, k, t in zip(*(col[is_blind].tolist() for col in (at, arity, tidx))):
        key, table = _root_table(np.array(tables[t], dtype=dtype), roots[:k])
        if key in blind:
            blind[key] += table
        else:
            blind[key] = table
    gathered = []
    sel = np.flatnonzero(~is_blind)
    if not len(sel):
        return dtype, offset, gathered, blind
    sel = sel[np.argsort(tidx[sel], kind="stable")]
    used, counts = np.unique(tidx[sel], return_counts=True)
    for t, members in zip(used.tolist(), np.split(sel, np.cumsum(counts)[:-1])):
        table = tables[t]
        low = min(table)
        offset += low * len(members)
        args = [rows[members, j] for j in range(len(table).bit_length() - 1)]
        for e in sorted(set(table) - {low}):
            gathered.append((e - low, _bitsliced(tuple(int(x == e) for x in table)), args))
    return dtype, offset, gathered, blind


def _root_table(table, roots):
    """A blind term's table as (its roots in descending order, array with
    one axis per root in that order); argument j is root roots[j]."""
    # reshaped to (2,)*k, the table's axis a holds argument k-1-a
    axes = roots[::-1]
    order = sorted(range(len(axes)), key=axes.__getitem__, reverse=True)
    return tuple(axes[a] for a in order), table.reshape((2,) * len(roots)).transpose(order)


def _ground_matrix(model: EnergyModel, plan: Plan | None, cap: int, states: bool = True):
    """The two lowest levels over the alive states of `_scan`, as
    (SpectrumReport, keys, states), or None when no state is alive.

    The report counts the alive states at E0.  `states` has one uint8 row
    per variable in id order and one column per ground state, the columns
    sorted lexicographically by variable id; it is None when not asked for,
    so that a highly degenerate ground level holds no columns.  `keys` is
    `_scan`'s order of the variables.
    """
    denom, keys, blocks = _scan(model, plan, cap)
    e0 = e1 = None
    count, found = 0, []
    for rows, alive, energy in blocks:
        live = energy[alive]
        low = int(live.min())
        if e1 is not None and low >= e1:
            continue  # the block changes neither level
        rest = live[live != low]
        above = int(rest.min()) if len(rest) else None
        levels = sorted({e0, e1, low, above} - {None})
        count = ((count if e0 == levels[0] else 0)
                 + (len(live) - len(rest) if low == levels[0] else 0))
        if states and low == levels[0]:
            if low != e0:
                found = []
            found.append(_unpacked(rows, len(energy))[:, np.flatnonzero(alive & (energy == low))])
        e0, e1 = levels[0], (levels[1] if len(levels) > 1 else None)
    if e0 is None:
        return None
    ground = Fraction(e0, denom)
    first = Fraction(e1, denom) if e1 is not None else None
    report = SpectrumReport(ground, count, first, first - ground if first is not None else None)
    if not states:
        return report, keys, None
    states = np.concatenate(found, axis=1)
    if states.shape[1] > 1:
        # Rows are in variable-id order, so comparing the bit-packed columns
        # bytewise is the lexicographic order.  (np.lexsort with one key per
        # variable costs kilobytes per key.)
        packed = np.packbits(states, axis=0).T.copy()
        order = np.argsort(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
        states = states[:, order]
    return report, keys, states


def _as_dicts(model: EnergyModel, keys, states) -> list[Assignment]:
    """The states of `_ground_matrix` as dicts listing `keys` in order.

    Sorted states share most of their bits with the state before them, so
    each dict after the first is a copy of the one before, updated at the
    keys whose bits differ.
    """
    per_state = states[model._rows(keys)].T.copy()
    prev = dict(zip(keys, per_state[0].tolist()))
    out = [prev]
    # every differing (state, key) position, state by state
    flips = np.flatnonzero(per_state[1:] ^ per_state[:-1])
    at, col = np.divmod(flips, len(keys))
    changes = zip(np.array(keys, dtype=np.int64)[col].tolist(),
                  per_state[1:].ravel()[flips].tolist())
    for count in np.bincount(at, minlength=len(per_state) - 1).tolist():
        prev = prev.copy()
        prev.update(islice(changes, count))
        out.append(prev)
    return out


def enumerate_ground_states(
    model: EnergyModel, cap: int = DEFAULT_CAP
) -> tuple[Fraction, list[Assignment]]:
    """Exact minimum energy and the complete set of minimizing assignments.

    Exhaustive over all free (unclamped) variables; clamped bits are included
    in each returned assignment.  Assignments come back sorted
    lexicographically by variable id.
    """
    report, keys, states = _ground_matrix(model, None, cap)
    return report.ground_energy, _as_dicts(model, keys, states)


def spectrum(model: EnergyModel, cap: int = DEFAULT_CAP) -> SpectrumReport:
    """Ground energy, exact degeneracy, and the first excited level if any."""
    return _ground_matrix(model, None, cap, states=False)[0]


# --- dump format -----------------------------------------------------------


def _check_labels(labels) -> None:
    """Raise ModelError unless every label reads back from its VAR line:
    words without '#', one space apart.  The labels are checked together,
    one per line of their joined text."""
    named = len(labels) - labels.count(None)
    text = "\n".join(filter(None, labels))
    if named and ("" in labels or "#" in text or text.count("\n") != named - 1
                  or " ".join(text.split()) != text.replace("\n", " ")):
        bad = next(label for label in labels if label is not None and (
            not label or "#" in label or " ".join(label.split()) != label))
        raise ModelError(f"label {bad!r} does not read back from a dump: "
                         "use words without '#', one space apart")


def format_model(model: EnergyModel, ports=None) -> str:
    """Render the dump format.  `ports` is an optional list of
    ("in"|"out"|"anc", var_id) pairs appended as PORT lines (gadget dumps).
    Raises ModelError for a label that would not read back."""
    ids, roles, labels = model._ids.tolist(), model._roles.tolist(), model._labels
    _check_labels(labels)
    lines = [
        f"VAR {ids[i]} {ROLES[roles[i]]}" + (f" {labels[i]}" if labels[i] else "")
        for i in np.argsort(model._ids, kind="stable").tolist()
    ]
    lines += [f"CLAMP {vid} {model.clamps[vid]}" for vid in sorted(model.clamps)]
    # each distinct table is formatted once, then the rows arity by arity
    t = model._terms
    energies = [" ".join(map(str, table)) for table in t.tables]
    rows = np.empty(len(t.arity), dtype=object)
    for k in np.unique(t.arity).tolist():
        at = np.flatnonzero(t.arity == k)
        line = f"TERM {k} " + " ".join(["{}"] * k) + " : {}"
        rows[at] = [line.format(*v, energies[i])
                    for v, i in zip(t.vars[at, :k].tolist(), t.tidx[at].tolist())]
    lines += rows.tolist()
    lines += [f"PORT {kind} {vid}" for kind, vid in ports or ()]
    return "\n".join(lines) + "\n"


_ARITY = {str(k): k for k in range(1, K_MAX + 1)}


def parse_statements(text: str, allow_ports: bool = False):
    """Parse dump statements into (model, ports).

    Shared by the model and gadget parsers; `#` starts a comment anywhere on
    a line.  A variable id must be declared by a VAR line before a CLAMP,
    TERM or PORT line names it; it may be clamped once and be one port.
    Raises DumpFormatError at the first line with a defect.

    One pass reads the lines in order, checks each against the lines before
    it, and writes its row straight into the model's columns; having made
    every check of `_check` line by line, it skips `_build`'s bulk pass.
    An id token is looked up by the spelling its VAR line used and read with
    `int` only when that misses; each distinct energy-token list is read
    once, and each distinct token converted once.
    """
    ids, roles, labels = [], [], []
    declared: set[int] = set()
    spelled: dict[str, int] = {}  # each id as its VAR line spelled it
    spelled_id = spelled.__getitem__
    clamps: dict[int, int] = {}
    flat, arity, tidx = [], [], []  # term ids, one row after another
    tables: dict[tuple[str, ...], int] = {}  # energy tokens -> index into `distinct`
    distinct: list[tuple[Fraction, ...]] = []
    parsed: dict[str, Fraction] = {}
    ports: list[tuple[str, int]] = []
    lineno = 0

    def fail(message):
        raise DumpFormatError(lineno, message) from None

    def number(token, what="variable id"):
        try:
            value = int(token)
        except ValueError:
            fail(f"bad {what} {token!r}")
        if what == "variable id" and not -(1 << 63) <= value < 1 << 63:
            fail(f"bad {what} {token!r}")
        return value

    def ref(token):
        vid = spelled.get(token)
        if vid is None:
            vid = number(token)
            if vid not in declared:
                fail(f"variable {vid} is not declared by an earlier VAR")
        return vid

    def energy(token):
        value = parsed.get(token)
        if value is None:
            try:
                value = parsed[token] = Fraction(token)
            except (ValueError, ZeroDivisionError):
                fail(f"bad energy {token!r}")
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "TERM":
            if len(tokens) < 2:
                fail("TERM needs an arity")
            k = _ARITY.get(tokens[1])
            if k is None:
                k = number(tokens[1], "arity")
                if not 1 <= k <= K_MAX:
                    fail(f"arity {k} outside 1..{K_MAX}")
            if len(tokens) != 3 + k + (1 << k) or tokens[2 + k] != ":":
                fail(f"TERM {k} needs {k} ids, ':', then {1 << k} energies")
            try:
                row = list(map(spelled_id, tokens[2 : 2 + k]))
            except KeyError:
                row = list(map(ref, tokens[2 : 2 + k]))
            energies = tuple(tokens[3 + k :])
            t = tables.get(energies)
            if t is None:
                distinct.append(tuple([energy(token) for token in energies]))
                t = tables[energies] = len(distinct) - 1
            if k > 1 and len({*row}) < k:
                fail(f"term variables must be distinct: {tuple(row)}")
            flat += row
            arity.append(k)
            tidx.append(t)
        elif kind == "VAR":
            if len(tokens) < 3:
                fail("VAR needs <id> <role> [label]")
            vid = number(tokens[1])
            if vid in declared:
                fail(f"duplicate variable id {vid}")
            if vid < 0:
                fail(f"variable id must be non-negative, got {vid}")
            role = _ROLE_CODE.get(tokens[2])
            if role is None:
                fail(f"unknown role {tokens[2]!r}")
            declared.add(vid)
            spelled[tokens[1]] = vid
            ids.append(vid)
            roles.append(role)
            labels.append(" ".join(tokens[3:]) or None)
        elif kind == "CLAMP":
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                fail("CLAMP needs <id> <0|1>")
            vid = ref(tokens[1])
            if vid in clamps:
                fail(f"variable {vid} is already clamped")
            clamps[vid] = int(tokens[2])
        elif kind == "PORT" and allow_ports:
            if len(tokens) != 3 or tokens[1] not in ("in", "out", "anc"):
                fail("PORT needs <in|out|anc> <id>")
            vid = ref(tokens[2])
            if any(v == vid for _, v in ports):
                fail(f"variable {vid} is already a port")
            if tokens[1] == "out" and any(p == "out" for p, _ in ports):
                fail("a gadget has exactly one out port")
            ports.append((tokens[1], vid))
        else:
            fail(f"unknown statement {kind!r}")
    terms = _Rows(_padded(_ids(flat), arity), np.array(arity, dtype=np.int64),
                  np.array(tidx, dtype=np.intp), tuple(distinct))
    model = _assemble(_ids(ids), np.array(roles, dtype=np.int8), labels, terms, clamps)
    return model, ports


def parse_model(text: str, allow_ports: bool = False) -> EnergyModel:
    """Parse the dump format into an EnergyModel.

    PORT lines are rejected unless `allow_ports`, in which case they are
    skipped (gadget dumps then parse as their fragment model).
    """
    return parse_statements(text, allow_ports=allow_ports)[0]
