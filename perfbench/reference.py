"""Independent references for the benchmark's output checks.

Nothing here calls into ``groundlogic``: CNF satisfying sets come from
vectorised clause evaluation, DTM register histories from a step simulator,
random-model spectra from an exact integer brute force, and dump files are
read by a small parser of the documented dump format.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

INT64_SAFE = 1 << 62


# --- CNF --------------------------------------------------------------------


def format_dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def random_3cnf(rng, n: int, m: int):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def satisfying_masks(n: int, clauses) -> np.ndarray:
    """Sorted input masks (bit i-1 = variable i) that satisfy every clause."""
    masks = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(1 << n, dtype=bool)
    for clause in clauses:
        sat = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            bit = (masks >> (abs(lit) - 1)) & 1
            sat |= bit == (1 if lit > 0 else 0)
        ok &= sat
    return masks[ok]


def cnf_satisfied(clauses, bits) -> bool:
    """bits[i-1] is the value of variable i."""
    return all(any((bits[abs(l) - 1] == 1) == (l > 0) for l in c) for c in clauses)


# --- DTM ----------------------------------------------------------------------


def format_dtm(states, start, halts, delta, decision=1) -> str:
    """Machine text in the canonical order the program's formatter uses."""
    lines = [f"STATE {q}" for q in states]
    lines.append(f"START {start}")
    lines += [f"HALT {q}" for q in sorted(halts)]
    lines.append(f"DECISION {decision}")
    for (q, bit), (q2, b2, move) in sorted(delta.items()):
        lines.append(f"DELTA {q} {bit} -> {q2} {b2} {move}")
    return "\n".join(lines) + "\n"


def dtm_history(start, halts, delta, tape, head_start: int, p: int):
    """Register rows of a p-step run on p cells.

    A head that moves off cells 1..p is gone; a head that has just entered
    a halt state is absorbed at the next step; rows then copy forward.
    """
    rows = [tuple(tape)]
    pos, state = head_start, start
    for _ in range(p):
        row = list(rows[-1])
        if pos is not None and state not in halts:
            state, row[pos - 1], move = delta[(state, row[pos - 1])]
            pos = pos + 1 if move == "U" else pos - 1
            if not 1 <= pos <= p:
                pos = None
        else:
            pos = None
        rows.append(tuple(row))
    return tuple(rows)


# --- energy models ------------------------------------------------------------


class DumpModel:
    """An energy-model dump read by the benchmark's own parser."""

    def __init__(self, text: str):
        self.labels: dict[int, str | None] = {}
        self.roles: dict[int, str] = {}
        self.clamps: dict[int, int] = {}
        self.terms: list[tuple[tuple[int, ...], tuple[Fraction, ...]]] = []
        for raw in text.splitlines():
            tok = raw.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] == "VAR":
                vid = int(tok[1])
                self.roles[vid] = tok[2]
                self.labels[vid] = " ".join(tok[3:]) or None
            elif tok[0] == "CLAMP":
                self.clamps[int(tok[1])] = int(tok[2])
            elif tok[0] == "TERM":
                k = int(tok[1])
                if tok[2 + k] != ":" or len(tok) != 3 + k + (1 << k):
                    raise ValueError(f"malformed TERM line {raw!r}")
                vids = tuple(int(t) for t in tok[2 : 2 + k])
                self.terms.append((vids, tuple(Fraction(t) for t in tok[3 + k :])))
            else:
                raise ValueError(f"unknown dump statement {tok[0]!r}")
        self.var_ids = sorted(self.roles)

    def energy_of_bits(self, bits: str) -> Fraction:
        """Energy of an assignment given as one character per sorted var id."""
        value = dict(zip(self.var_ids, (int(c) for c in bits)))
        e = Fraction(0)
        for vids, table in self.terms:
            idx = 0
            for j, v in enumerate(vids):
                idx |= value[v] << j
            e += table[idx]
        return e

    def var_by_label(self, label: str) -> int:
        for vid, lab in self.labels.items():
            if lab == label:
                return vid
        raise KeyError(label)


def dump_labels(text: str) -> tuple[dict[int, str | None], int]:
    """VAR labels and the CLAMP count of a dump, without reading the tables."""
    labels, clamps = {}, 0
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if tok and tok[0] == "VAR":
            labels[int(tok[1])] = " ".join(tok[3:]) or None
        elif tok and tok[0] == "CLAMP":
            clamps += 1
    return labels, clamps


def _integer_tables(terms):
    denom = 1
    for _, table in terms:
        for e in table:
            denom = lcm(denom, e.denominator)
    ints = [(vids, [int(e * denom) for e in table]) for vids, table in terms]
    bound = sum(max(abs(x) for x in t) for _, t in ints)
    return denom, ints, bound


def state_energies(var_ids, terms, states: np.ndarray):
    """Exact energies of a block of assignments (rows of 0/1 over var_ids).

    Returns (integer energies, denominator).  int64 is used only while the
    sum of the largest table entries stays below 2**62; past that bound the
    sums are taken over Python integers.
    """
    col = {v: i for i, v in enumerate(var_ids)}
    denom, ints, bound = _integer_tables(terms)
    dtype = np.int64 if bound < INT64_SAFE else object
    total = np.zeros(states.shape[0], dtype=dtype)
    for vids, table in ints:
        idx = np.zeros(states.shape[0], dtype=np.int64)
        for j, v in enumerate(vids):
            idx |= states[:, col[v]].astype(np.int64) << j
        total = total + np.asarray(table, dtype=dtype)[idx]
    return total, denom


def brute_force_spectrum(var_ids, clamps, terms):
    """E0, sorted ground bitstrings and first excited level by full enumeration."""
    free = [v for v in var_ids if v not in clamps]
    n = len(free)
    masks = np.arange(1 << n, dtype=np.int64)
    states = np.zeros((1 << n, len(var_ids)), dtype=np.int8)
    for i, v in enumerate(var_ids):
        if v in clamps:
            states[:, i] = clamps[v]
        else:
            states[:, i] = (masks >> free.index(v)) & 1
    energies, denom = state_energies(var_ids, terms, states)
    e0 = energies.min()
    ground = states[energies == e0]
    above = energies[energies != e0]
    e1 = Fraction(int(above.min()), denom) if len(above) else None
    bits = sorted("".join(map(str, row)) for row in ground.tolist())
    return Fraction(int(e0), denom), bits, e1


def states_matrix(assignments, var_ids) -> np.ndarray:
    return np.array([[a[v] for v in var_ids] for a in assignments], dtype=np.int8)
