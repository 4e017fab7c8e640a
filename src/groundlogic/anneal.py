"""Seeded single-flip Metropolis annealing and relaxation-time scans.

This is the probe for reading answers out of an energy model when exact
enumeration is out of reach: how fast (or whether) the usual relaxation
dynamics actually finds the ground level.  Proposals flip one uniformly
chosen free variable; downhill moves are always accepted, uphill moves with
probability exp(-dE/T); the temperature is multiplied by the cooling ratio
after every sweep.  Restarts run on independent counter-split RNG streams
derived from the master seed, so results are reproducible and merge
deterministically by (energy, restart index).

Energy bookkeeping stays exact (common-denominator integers); floats enter
only through the acceptance probability.

A proposal costs a few list lookups and no numpy call.  Each folded term's
current table index is kept in a list; dE is one lookup per incident term,
into a table of that term's flip deltas for the proposed bit, and an
accepted flip XORs the bit into each incident term's index.  The random
values are numpy's own: `_draws` reads the Philox generator's raw 64-bit
words in blocks and reproduces, bit for bit, what `Generator.integers(n)`
(Lemire's bounded draw on 32-bit halves) and `Generator.random()` would
return, so trajectories do not depend on how the values are fetched.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Assignment, EnergyModel, ModelError, _folded, _integerized


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


# Raw 64-bit words read from the bit generator per call: one bounded buffer,
# whatever the number of free variables.
_RAW_BLOCK = 1024
_UNIT = 2.0**-53


def _raw_words(bitgen):
    while True:
        yield from bitgen.random_raw(_RAW_BLOCK).tolist()


def _below(words, n: int, half):
    threshold = ((1 << 32) - n) % n
    while True:
        if half is None:
            w = next(words)
            x, half = w & 0xFFFFFFFF, w >> 32
        else:
            x, half = half, None
        m = x * n
        if m & 0xFFFFFFFF >= threshold:
            yield m >> 32


def _draws(rng: np.random.Generator, n: int):
    """Iterators over the values `rng.integers(n)` and `rng.random()` would
    return, in whatever order the caller draws from them.

    numpy draws an integer below n <= 2**32 from 32-bit halves of the raw
    64-bit words, low half first with the high half kept for the next such
    draw, by Lemire's multiply-and-reject ("Fast random integer generation
    in an interval", ACM TOMACS 2019); n == 1 draws nothing.  A uniform
    double is the top 53 bits of a fresh word.  Both iterators read one
    shared word stream, which starts from the half `rng` has kept from its
    last 32-bit draw, in blocks of `_RAW_BLOCK` words; the words read ahead
    are lost to `rng`, so it must not be drawn from afterwards.
    """
    if n > 1 << 32:
        raise ModelError(f"cannot draw positions below {n} > 2**32")
    bitgen = rng.bit_generator
    state = bitgen.state
    words = _raw_words(bitgen)
    half = state["uinteger"] if state["has_uint32"] else None
    positions = itertools.repeat(0) if n == 1 else _below(words, n, half)
    return positions, ((w >> 11) * _UNIT for w in words)


def metropolis_anneal(
    model: EnergyModel,
    sched: AnnealSchedule,
    target=None,
    debug: bool = False,
) -> AnnealResult:
    """Anneal with single-bit-flip Metropolis dynamics.

    Deterministic given (model, schedule, seed).  `target` (usually a known
    exact ground energy) drives first-hit tracking and the success flag.
    With `debug` the incrementally maintained term indices and energy are
    checked against a full recomputation every 1000 proposals.
    """
    free, offset, folded = _folded(model)
    if not free:
        raise NothingToDoError("model has no free variables")
    denom, off, terms = _integerized(offset, folded)
    target_int = None
    if target is not None:
        t = Fraction(target) * denom
        # best-energy integers are exact; a non-integer target falls between levels
        target_int = math.floor(t)
    nfree = len(free)
    # incident[p]: (term number, p's bit in that term's table index, the
    # energy change of flipping that bit, by the term's current index)
    incident: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in range(nfree)]
    for k, (positions, table) in enumerate(terms):
        for j, p in enumerate(positions):
            bit = 1 << j
            flip = tuple(table[i ^ bit] - table[i] for i in range(len(table)))
            incident[p].append((k, bit, flip))

    def term_indices(state) -> list[int]:
        return [
            sum(state[p] << j for j, p in enumerate(positions))
            for positions, _ in terms
        ]

    def energy_at(indices) -> int:
        return off + sum(table[i] for (_, table), i in zip(terms, indices))

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
        positions, uniforms = _draws(rng, nfree)
        next_pos = positions.__next__
        next_uniform = uniforms.__next__
        index = term_indices(state)
        energy = energy_at(index)
        local_best = energy
        local_best_state = list(state)
        first_hit = 0 if target_int is not None and energy <= target_int else None
        proposals = 0
        for sweep in range(1, sched.sweeps + 1):
            temp = sched.temperature(sweep - 1)
            for _ in range(nfree):
                pos = next_pos()
                inc = incident[pos]
                delta = 0
                for k, _, flip in inc:
                    delta += flip[index[k]]
                if delta <= 0:
                    accept = True
                else:
                    uphill_attempts += 1
                    accept = next_uniform() < exp(-(delta / denom) / temp)
                    if accept:
                        uphill_accepts += 1
                if accept:
                    state[pos] ^= 1
                    for k, bit, _ in inc:
                        index[k] ^= bit
                    energy += delta
                    if energy < local_best:
                        local_best = energy
                        local_best_state = list(state)
                proposals += 1
                if debug and proposals % 1000 == 0:
                    recomputed = term_indices(state)
                    if recomputed != index:
                        raise ModelError("incremental term indices drifted")
                    full = energy_at(recomputed)
                    if full != energy:
                        raise ModelError(f"incremental energy drifted: {energy} != {full}")
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
