"""Seeded single-flip Metropolis annealing and relaxation-time scans.

This is the probe for reading answers out of an energy model when exact
enumeration is out of reach: how fast (or whether) the usual relaxation
dynamics actually finds the ground level.  Proposals flip one uniformly
chosen free variable; downhill moves are always accepted, uphill moves with
probability exp(-dE/T); the temperature is multiplied by the cooling ratio
after every sweep.  Restarts run on independent counter-split RNG streams
derived from the master seed, so results are reproducible and merge
deterministically by (energy, restart index).

Energy bookkeeping stays exact: the annealer reads the same integer terms
as the exact solvers (`model._integer_terms`: one common denominator, the
clamps folded out, the fully clamped terms summed into an offset) and only
maps their variables to free positions.  Floats enter only through the
acceptance probability; a dE too large for a float raises `ModelError`.

A proposal costs one lookup for dE.  The annealer keeps every folded
term's current table index and every free variable's local field, the exact
integer energy change of flipping it; only an accepted flip walks the terms
touching the variable, XORing its bit into each term's index and moving
every member's field by the difference of two entries of that member's flip
table.  Acceptance probabilities are cached by dE within a sweep.  The
random values are numpy's own: `_decode_block` turns a block of the Philox
generator's raw 64-bit words into plain lists (Lemire's position from each
low and each high 32-bit half, -1 where it rejects, and the uniform double),
and the loop reads them with one word pointer and a kept high half, exactly
as `Generator.integers(n)` and `Generator.random()` consume the words.  So
trajectories do not depend on how the values are fetched.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Assignment, EnergyModel, ModelError, _integer_terms


class NothingToDoError(ModelError):
    """The model has no free variables to anneal."""


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule.

    `cooling` defaults to the ratio that lands t_start on t_end over the
    given sweeps; the temperature never drops below t_end either way.
    """

    t_start: float
    t_end: float
    sweeps: int
    cooling: float | None = None
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.t_start >= self.t_end > 0:
            raise ModelError("need t_start >= t_end > 0")
        if self.sweeps < 1:
            raise ModelError("need at least one sweep")
        if self.restarts < 1:
            raise ModelError("need at least one restart")
        if self.cooling is not None and not 0 < self.cooling <= 1:
            raise ModelError("cooling ratio must be in (0, 1]")
        if self.seed < 0:
            raise ModelError("seed must be non-negative")

    def ratio(self) -> float:
        if self.cooling is not None:
            return self.cooling
        if self.sweeps == 1 or self.t_start == self.t_end:
            return 1.0
        return (self.t_end / self.t_start) ** (1.0 / (self.sweeps - 1))

    def temperature(self, sweep: int) -> float:
        return max(self.t_start * self.ratio() ** sweep, self.t_end)


@dataclass(frozen=True)
class RestartResult:
    best_energy: Fraction
    first_hit_sweep: int | None
    success: bool


@dataclass(frozen=True)
class AnnealResult:
    """Merged outcome; `first_hit_sweep` is the earliest sweep at which any
    restart reached the target (0 = already at the initial state)."""

    best_energy: Fraction
    best_assignment: Assignment
    first_hit_sweep: int | None
    success: bool
    restarts: tuple[RestartResult, ...] = ()
    uphill_attempts: int = 0
    uphill_accepts: int = 0


# Raw 64-bit words decoded per block: one bounded buffer, whatever the
# number of free variables.
_RAW_BLOCK = 1024
_UNIT = 2.0**-53
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
_MANTISSA_SHIFT = np.uint64(11)


def _positions(halves, n: int) -> list[int]:
    """Lemire's draw below n from each 32-bit value in `halves` (uint64),
    or -1 where it rejects the value."""
    m = halves * np.uint64(n)
    positions = (m >> _HALF).astype(np.int64)
    positions[(m & _LOW) < np.uint64(((1 << 32) - n) % n)] = -1
    return positions.tolist()


def _decode_block(bitgen, n: int):
    """The next `_RAW_BLOCK` raw words of `bitgen`, decoded into the values
    numpy would make of them: (positions below n from each word's low
    32-bit half, the same from its high half, uniform doubles).

    numpy draws an integer below n <= 2**32 from 32-bit halves of the raw
    64-bit words, low half first with the high half kept for the next such
    draw, by Lemire's multiply-and-reject ("Fast random integer generation
    in an interval", ACM TOMACS 2019); a rejected half reads -1 here and
    the draw takes the next half; n == 1 draws nothing, so no position is
    read then.  A uniform double is the top 53 bits of a fresh word and
    leaves a kept half in place.  Words decoded ahead are lost to the
    generator, so it must not be drawn from afterwards.
    """
    if n > 1 << 32:
        raise ModelError(f"cannot draw positions below {n} > 2**32")
    words = bitgen.random_raw(_RAW_BLOCK)
    return (
        _positions(words & _LOW, n),
        _positions(words >> _HALF, n),
        ((words >> _MANTISSA_SHIFT) * _UNIT).tolist(),
    )


def _kept_position(bitgen, n: int) -> int | None:
    """The position below n (or -1) from the 32-bit half `bitgen` kept from
    its last 32-bit draw, or None when it kept none."""
    state = bitgen.state
    if not state["has_uint32"]:
        return None
    return _positions(np.array([state["uinteger"]], dtype=np.uint64), n)[0]


def metropolis_anneal(
    model: EnergyModel,
    sched: AnnealSchedule,
    target=None,
) -> AnnealResult:
    """Anneal with single-bit-flip Metropolis dynamics.

    Deterministic given (model, schedule, seed).  `target` (usually a known
    exact ground energy) drives first-hit tracking and the success flag.
    """
    free = model.free_vars
    if not free:
        raise NothingToDoError("model has no free variables")
    denom, offset, int_terms = _integer_terms(model)
    # each term's free positions (variables and positions both in id order)
    rows = np.searchsorted(np.array(free, dtype=np.int64), int_terms.vars).tolist()
    terms = [
        (positions[:k], int_terms.tables[t])
        for positions, k, t in zip(rows, int_terms.arity.tolist(), int_terms.tidx.tolist())
    ]
    target_int = None
    if target is not None:
        t = Fraction(target) * denom
        # best-energy integers are exact; a non-integer target falls between levels
        target_int = math.floor(t)
    nfree = len(free)
    # members[k]: (p, the energy change of flipping p's bit of term k, by the
    # term's current index) for every free variable p of term k;
    # incident[p]: (term number, p's bit in that term's index, its members).
    # Terms that share an integer table share its flip tables.
    flip_tables: dict[tuple[int, int], tuple[int, ...]] = {}
    members: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
    incident: list[list[tuple[int, int, tuple]]] = [[] for _ in range(nfree)]
    for k, ((positions, table), t) in enumerate(zip(terms, int_terms.tidx.tolist())):
        flips = []
        for j, p in enumerate(positions):
            bit = 1 << j
            flip = flip_tables.get((t, bit))
            if flip is None:
                flip = flip_tables[t, bit] = tuple(
                    table[i ^ bit] - table[i] for i in range(len(table))
                )
            flips.append((p, flip))
        members.append(tuple(flips))
        for j, p in enumerate(positions):
            incident[p].append((k, 1 << j, members[k]))

    exp = math.exp
    streams = np.random.SeedSequence(sched.seed).spawn(sched.restarts)
    results: list[RestartResult] = []
    best_energy_int = None
    best_state = None
    uphill_attempts = 0
    uphill_accepts = 0
    for child in streams:
        rng = np.random.Generator(np.random.Philox(child))
        state = [int(b) for b in rng.integers(0, 2, size=nfree)]
        bitgen = rng.bit_generator
        kept = _kept_position(bitgen, nfree)
        lows, highs, uniforms = _decode_block(bitgen, nfree)
        word = 0
        index = [sum(state[p] << j for j, p in enumerate(positions)) for positions, _ in terms]
        # field[p]: the exact energy change of flipping p
        field = [0] * nfree
        for term, i in zip(members, index):
            for p, flip in term:
                field[p] += flip[i]
        energy = offset + sum(table[i] for (_, table), i in zip(terms, index))
        local_best = energy
        local_best_state = list(state)
        first_hit = 0 if target_int is not None and energy <= target_int else None
        for sweep in range(1, sched.sweeps + 1):
            temp = sched.temperature(sweep - 1)
            # acceptance probability by dE at this sweep's temperature
            accept_at: dict[int, float] = {}
            for _ in range(nfree):
                if nfree == 1:
                    # numpy draws nothing for a position below 1
                    pos = 0
                else:
                    while True:
                        if kept is None:
                            if word == _RAW_BLOCK:
                                lows, highs, uniforms = _decode_block(bitgen, nfree)
                                word = 0
                            pos = lows[word]
                            kept = highs[word]
                            word += 1
                        else:
                            pos = kept
                            kept = None
                        if pos >= 0:
                            break
                delta = field[pos]
                if delta <= 0:
                    accept = True
                else:
                    uphill_attempts += 1
                    if word == _RAW_BLOCK:
                        lows, highs, uniforms = _decode_block(bitgen, nfree)
                        word = 0
                    uniform = uniforms[word]
                    word += 1
                    p = accept_at.get(delta)
                    if p is None:
                        try:
                            p = accept_at[delta] = exp(-(delta / denom) / temp)
                        except OverflowError:
                            raise ModelError(
                                f"energy change {Fraction(delta, denom)} is too large for a float"
                            ) from None
                    accept = uniform < p
                    if accept:
                        uphill_accepts += 1
                if accept:
                    state[pos] ^= 1
                    for k, bit, term in incident[pos]:
                        i = index[k]
                        j = index[k] = i ^ bit
                        for q, flip in term:
                            field[q] += flip[j] - flip[i]
                    energy += delta
                    if energy < local_best:
                        local_best = energy
                        local_best_state = list(state)
            if (
                target_int is not None
                and first_hit is None
                and local_best <= target_int
            ):
                first_hit = sweep
        success = target_int is not None and local_best <= target_int
        results.append(RestartResult(Fraction(local_best, denom), first_hit, success))
        if best_energy_int is None or local_best < best_energy_int:
            best_energy_int = local_best
            best_state = local_best_state
    assert best_state is not None
    assignment = dict(model.clamps)
    for i, v in enumerate(free):
        assignment[v] = best_state[i]
    hits = [r.first_hit_sweep for r in results if r.first_hit_sweep is not None]
    return AnnealResult(
        best_energy=Fraction(best_energy_int, denom),
        best_assignment=assignment,
        first_hit_sweep=min(hits) if hits else None,
        success=target_int is not None and best_energy_int <= target_int,
        restarts=tuple(results),
        uphill_attempts=uphill_attempts,
        uphill_accepts=uphill_accepts,
    )


@dataclass(frozen=True)
class RelaxRow:
    instance: str
    n: int
    restarts: int
    successes: int
    success_rate: float
    median_first_hit_sweep: float | None


@dataclass(frozen=True)
class RelaxationStats:
    rows: tuple[RelaxRow, ...]


CSV_HEADER = "instance,n,restarts,successes,success_rate,median_first_hit_sweep"


def relaxation_scan(instances, sched: AnnealSchedule, ids=None) -> RelaxationStats:
    """Anneal a family of (model, exact ground energy) instances.

    Success means a restart reached the known ground energy; the median
    first-hit sweep is taken over successful restarts only.
    """
    rows = []
    for k, (model, e0) in enumerate(instances):
        name = str(ids[k]) if ids is not None else str(k)
        result = metropolis_anneal(model, sched, target=e0)
        hits = [r.first_hit_sweep for r in result.restarts if r.success]
        successes = sum(1 for r in result.restarts if r.success)
        rows.append(
            RelaxRow(
                instance=name,
                n=len(model.free_vars),
                restarts=len(result.restarts),
                successes=successes,
                success_rate=successes / len(result.restarts),
                median_first_hit_sweep=float(statistics.median(hits)) if hits else None,
            )
        )
    return RelaxationStats(tuple(rows))


def stats_to_csv(stats: RelaxationStats) -> str:
    lines = [CSV_HEADER]
    for row in stats.rows:
        median = "" if row.median_first_hit_sweep is None else f"{row.median_first_hit_sweep:g}"
        lines.append(
            f"{row.instance},{row.n},{row.restarts},{row.successes},"
            f"{row.success_rate:g},{median}"
        )
    return "\n".join(lines) + "\n"
