"""Deterministic Turing machines as ground-state verification lattices.

A machine run of p steps over p tape cells becomes a (p+1) x p grid of tape
registers plus a p x p grid of identical cell controls.  The control at
(i, j) reads register (i, j) on its R end and writes register (i+1, j) on
its W end; the head travels on s-bit move buses (s = bit length of the
state count, code 0 = no head): the down-move input of (i, j) is the
down-move output of (i-1, j+1) and the up-move input is the up-move output
of (i-1, j-1).  Boundary in-buses are clamped to 0 except at row 1, where
the up-move bus of the start column injects the start state.  Out-buses at
the boundary dangle with zero bias, so a head that walks off the tape
simply vanishes; a head in a halt state is passed through as if absent,
which freezes the tape from that row on.

Ground states of the compiled lattice are exactly the valid computation
histories: with the first register row clamped to a tape there is a unique
ground state, with the row left free there is one ground state per possible
input tape.  `simulate_dtm_oracle` is the independent step-by-step reference
simulator those ground states are checked against.

`build_lattice` resolves the cell control's gates once and places them
p^2 times.  Each of the cell's G gates is resolved to its gadget by the
gate-to-gadget step `compile_netlist` uses, and written down as a row of
cell slots: the inputs r, id*, iu*, then the cell's K other nets, then
each gate's own ancillae.  Each cell's placement map lists the variable id
of every slot, built by integer offsets with no per-cell gates or net
names.  The ids are those a flat compile of the p^2 renamed cell netlists
would give: register row 1; the boundary bus bits, in cell order; then net
k of cell c (row-major) at base + c*K + k, where k orders the nets by first
appearance in the cell's gate list.  The wiring is written down once, in
those maps (`_wire_cells`): a cell's R and in-bus slots hold the ids of the
neighbours' W and out-bus nets.  The p^2 G gate copies are placed in
`netlist.kahn_order`, the netlists' own order, run in cell-major order on
the ids each copy reads and drives, as its cell's map gives them.  That
order gives the ancilla ids, and copy by copy the gadget's terms and
forcings are renamed through the gate row composed with the cell's map;
`compile_netlist` and the lattice hand their lists of gadget copies to the
same placement step, which stamps them and tallies the element counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .logic import TruthFunction
from .model import (
    _ROLE_CODE, Assignment, DEFAULT_CAP, ModelError, _check_maps, _map_array, as_energy,
)
from .netbuilder import POLICIES, Network, _GateGadgets, clamp_inputs
from .netlist import Netlist, kahn_order, netlist_from_bit_functions

MOVE_UP = "U"
MOVE_DOWN = "D"


class DtmError(ModelError):
    pass


class DtmFormatError(DtmError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_bit(b) -> bool:
    """A tape symbol as the text format writes it: 0 or 1, not a bool."""
    return b in (0, 1) and not isinstance(b, bool)


@dataclass(frozen=True)
class DtmSpec:
    """A deterministic one-tape machine over the alphabet {0, 1}.

    `delta` must be total on (non-halt state, bit) pairs; `decision_cell` is
    the tape index carrying the answer bit when the machine halts.
    """

    states: tuple[str, ...]
    start: str
    halts: frozenset[str]
    delta: dict[tuple[str, int], tuple[str, int, str]]
    decision_cell: int = 1

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "halts", frozenset(self.halts))
        object.__setattr__(self, "delta", dict(self.delta))
        if len(set(self.states)) != len(self.states):
            raise DtmError("duplicate state names")
        if self.start not in self.states:
            raise DtmError(f"start state {self.start!r} not declared")
        if not self.halts <= set(self.states):
            raise DtmError("halt states must be declared states")
        for q in self.states:
            if q in self.halts:
                continue
            for bit in (0, 1):
                if (q, bit) not in self.delta:
                    raise DtmError(f"delta not total: missing ({q!r}, {bit})")
        for (q, bit), (q2, b2, move) in self.delta.items():
            if q not in self.states or q2 not in self.states:
                raise DtmError(f"delta uses undeclared state in ({q!r},{bit})")
            if not _is_bit(bit):
                raise DtmError(f"bad delta read bit {bit!r} for {q!r}: tape symbols are 0 or 1")
            if not _is_bit(b2) or move not in (MOVE_UP, MOVE_DOWN):
                raise DtmError(f"bad delta target for ({q!r},{bit})")
        if not isinstance(self.decision_cell, int) or isinstance(self.decision_cell, bool):
            raise DtmError(f"decision cell must be an int, not {self.decision_cell!r}")

    @property
    def bus_width(self) -> int:
        return len(self.states).bit_length()

    def code(self, state: str) -> int:
        return self.states.index(state) + 1


@dataclass(frozen=True)
class SfscFunction:
    """Truth map of one cell control: (R, in-down, in-up) -> (W, out-down, out-up).

    Bus codes are state indices + 1, with 0 meaning "no head here".  Inputs
    are indexed little-endian as R | ID << 1 | IU << (1 + s).
    """

    bus_width: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.entries) != 1 << (1 + 2 * self.bus_width):
            raise DtmError("entry count must be 2^(1 + 2s)")

    def index(self, r: int, id_code: int, iu_code: int) -> int:
        s = self.bus_width
        return (r & 1) | (id_code << 1) | (iu_code << (1 + s))

    def value(self, r: int, id_code: int, iu_code: int) -> tuple[int, int, int]:
        return self.entries[self.index(r, id_code, iu_code)]

    def with_entry(self, r, id_code, iu_code, entry) -> "SfscFunction":
        idx = self.index(r, id_code, iu_code)
        entries = list(self.entries)
        entries[idx] = tuple(entry)
        return SfscFunction(self.bus_width, tuple(entries))

    @property
    def arity(self) -> int:
        return 1 + 2 * self.bus_width

    def _bit_fn(self, extract) -> TruthFunction:
        return TruthFunction(self.arity, tuple(extract(e) for e in self.entries))

    def w_bit(self) -> TruthFunction:
        return self._bit_fn(lambda e: e[0])

    def od_bit(self, b: int) -> TruthFunction:
        return self._bit_fn(lambda e: (e[1] >> b) & 1)

    def ou_bit(self, b: int) -> TruthFunction:
        return self._bit_fn(lambda e: (e[2] >> b) & 1)


def build_sfsc_function(dtm: DtmSpec) -> SfscFunction:
    """Total cell-control map for a machine.

    No head (both buses 0), two heads (both nonzero; unreachable in valid
    histories), an unused code, or a halt-state head all pass the tape bit
    through with empty out-buses.  A live head applies delta and routes the
    successor state onto the bus matching its move direction.
    """
    s = dtm.bus_width
    entries = []
    for idx in range(1 << (1 + 2 * s)):
        r = idx & 1
        id_code = (idx >> 1) & ((1 << s) - 1)
        iu_code = (idx >> (1 + s)) & ((1 << s) - 1)
        entries.append(_sfsc_rule(dtm, r, id_code, iu_code))
    return SfscFunction(s, tuple(entries))


def _sfsc_rule(dtm: DtmSpec, r: int, id_code: int, iu_code: int):
    passthrough = (r, 0, 0)
    if (id_code and iu_code) or (not id_code and not iu_code):
        return passthrough
    code = id_code or iu_code
    if code > len(dtm.states):
        return passthrough
    state = dtm.states[code - 1]
    if state in dtm.halts:
        return passthrough
    q2, b2, move = dtm.delta[(state, r)]
    c2 = dtm.code(q2)
    if move == MOVE_UP:
        return (b2, 0, c2)
    return (b2, c2, 0)


def sfsc_input_nets(s: int) -> list[str]:
    return ["r"] + [f"id{b}" for b in range(s)] + [f"iu{b}" for b in range(s)]


def build_sfsc_netlist(f: SfscFunction) -> Netlist:
    """Per-output-bit sum-of-products decomposition of the cell control."""
    s = f.bus_width
    bits: dict[str, TruthFunction] = {"w": f.w_bit()}
    for b in range(s):
        bits[f"od{b}"] = f.od_bit(b)
    for b in range(s):
        bits[f"ou{b}"] = f.ou_bit(b)
    return netlist_from_bit_functions(sfsc_input_nets(s), bits)


@dataclass(frozen=True)
class LatticePlan:
    """Directory from lattice coordinates to model variables."""

    p: int
    bus_width: int
    head_start: int
    register_var: dict[tuple[int, int], int]
    inbus_down: dict[tuple[int, int], tuple[int, ...]]
    inbus_up: dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class SqdtmComplexity:
    """Element accounting for a compiled lattice.

    `bound` is (M+1) * p^2; the honest total carries (p+1) * p registers
    because row p of controls writes into register row p+1, so the check is
    against bound + p.
    """

    m_per_sfsc: int
    p: int
    sfsc_elements: int
    registers: int
    total: int
    bound: int
    bound_plus_p: int
    within_bound: bool


@dataclass(frozen=True)
class Lattice:
    dtm: DtmSpec
    p: int
    head_start: int
    tape_in: tuple[int, ...] | None
    function: SfscFunction
    network: Network
    plan: LatticePlan
    complexity: SqdtmComplexity

    def register_assignment(self, history) -> Assignment:
        """Embed an oracle history into the lattice's register variables."""
        out = {}
        for (i, j), var in self.plan.register_var.items():
            out[var] = history.rows[i - 1][j - 1]
        return out


def _reg(i: int, j: int) -> str:
    return f"t{i}_{j}"


class _CellGate(NamedTuple):
    """One gate of the cell control, compiled over cell slots."""

    block: int  # its gadget's block in `_GateGadgets.blocks()`
    reads: tuple[int, ...]  # the slots of its inputs, repeats kept
    out_slot: int
    ancillae: range  # its ancilla slots
    suffixes: tuple[str, ...]  # their label suffixes


def _compile_cell(f: SfscFunction, gadgets: _GateGadgets):
    """The cell control's gates resolved once, over cell slots.

    Slots 0 .. 2s are the cell inputs r, id*, iu*; the next K slots are the
    cell's other nets, in order of first appearance in its gate list; then
    come each gate's own ancillae, in gate order.  Returns (the K net names,
    one `_CellGate` per gate in gate order, and the gates' slot rows as one
    `_map_array`: row g gives the cell slot of each of gate g's gadget
    variables).
    """
    sub = build_sfsc_netlist(f)
    slot = {n: k for k, n in enumerate(sfsc_input_nets(f.bus_width))}
    n_in = len(slot)
    for gate in sub.gates:
        for n in (*gate.inputs, gate.output):
            slot.setdefault(n, len(slot))
    n_slots = len(slot)
    cell, rows = [], []
    for gate in sub.gates:
        g, ancillae, block, unique_ins = gadgets.resolve(gate)
        row = [0] * (len(g.inputs) + 1 + len(ancillae))
        for gv, n in zip(g.inputs, unique_ins):
            row[gv] = slot[n]
        row[g.output] = slot[gate.output]
        for k, (a, _) in enumerate(ancillae):
            row[a] = n_slots + k
        rows.append(row)
        cell.append(_CellGate(
            block, tuple(slot[n] for n in gate.inputs), slot[gate.output],
            range(n_slots, n_slots + len(ancillae)), tuple(sfx for _, sfx in ancillae),
        ))
        n_slots += len(ancillae)
    return list(slot)[n_in:], cell, _map_array(rows)


def _wire_cells(p: int, s: int, head_start: int, start_code: int, nets: list[str]):
    """Net ids and labels of the lattice, and each cell's slot-to-id map.

    Ids are register row 1, then the boundary bus bits in cell order, then
    K = len(nets) per cell in row-major order.  Returns (labels by id, the
    number of input nets, the boundary clamp bits, maps), where maps[c]
    lists the ids of cell c's input and net slots.
    """
    labels = [_reg(1, j) for j in range(1, p + 1)]
    clamp_bits: dict[str, int] = {}
    buses = []
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            down, up = [], []
            for b in range(s):
                if i == 1 or j == p:
                    down.append(len(labels))
                    labels.append(f"bid{i}_{j}_{b}")
                    clamp_bits[labels[-1]] = 0  # the down bus never carries the injection
                else:
                    down.append(None)
                if i == 1 or j == 1:
                    up.append(len(labels))
                    labels.append(f"biu{i}_{j}_{b}")
                    injected = (start_code >> b) & 1 if (i, j) == (1, head_start) else 0
                    clamp_bits[labels[-1]] = injected
                else:
                    up.append(None)
            buses.append((i, j, down, up))
    n_inputs = len(labels)
    K = len(nets)
    k_w = nets.index("w")
    k_od = [nets.index(f"od{b}") for b in range(s)]
    k_ou = [nets.index(f"ou{b}") for b in range(s)]
    maps = []
    for c, (i, j, down, up) in enumerate(buses):
        at = n_inputs + c * K
        # in-buses and R come from the outputs of the cells one row up
        r = j - 1 if i == 1 else at - p * K + k_w
        down = [d if d is not None else at - (p - 1) * K + k for d, k in zip(down, k_od)]
        up = [u if u is not None else at - (p + 1) * K + k for u, k in zip(up, k_ou)]
        maps.append([r, *down, *up, *range(at, at + K)])
        named = {"w": _reg(i + 1, j)}
        for b in range(s):
            named[f"od{b}"] = f"od{i}_{j}_{b}"
            named[f"ou{b}"] = f"ou{i}_{j}_{b}"
        labels += [named.get(n) or f"s{i}_{j}.{n}" for n in nets]
    return labels, n_inputs, clamp_bits, maps


def build_lattice(
    dtm: DtmSpec,
    p: int,
    head_start: int,
    tape_in=None,
    policy: str = "penalty",
    penalty=1,
    function: SfscFunction | None = None,
) -> Lattice:
    """Wire p x p cell controls between (p+1) x p tape registers and compile.

    With `tape_in` the first register row is clamped and the ground state is
    the unique run on that tape; without it the row stays free and every
    input tape contributes one ground state.  `function` overrides the
    machine-derived cell-control map (used by mutation tests).  The cell is
    compiled once and placed p^2 times (see the module docstring).
    """
    if not 1 <= head_start <= p:
        raise DtmError(f"head start {head_start} outside 1..{p}")
    if tape_in is not None:
        tape_in = tuple(b & 1 for b in tape_in)
        if len(tape_in) != p:
            raise DtmError(f"tape length {len(tape_in)} != p = {p}")
    f = function if function is not None else build_sfsc_function(dtm)
    s = f.bus_width
    if s > 3:
        raise DtmError(f"bus width {s} exceeds the desk-scale limit 3")
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    gadgets = _GateGadgets(policy, as_energy(penalty), None)
    nets, cell, gate_rows = _compile_cell(f, gadgets)
    labels, n_inputs, clamp_bits, rows = _wire_cells(p, s, head_start, dtm.code(dtm.start), nets)
    n_nets = len(labels)
    w_slot = 1 + 2 * s + nets.index("w")
    register_var = {
        (i, j): j - 1 if i == 1 else rows[(i - 2) * p + j - 1][w_slot]
        for i in range(1, p + 2)
        for j in range(1, p + 1)
    }
    cells = [(i, j) for i in range(1, p + 1) for j in range(1, p + 1)]
    inbus_down = {key: tuple(m[1 : 1 + s]) for key, m in zip(cells, rows)}
    inbus_up = {key: tuple(m[1 + s : 1 + 2 * s]) for key, m in zip(cells, rows)}

    # Cell c's map row: the ids of its input and net slots, its ancilla
    # slots (-1 until placed), and a last -1 that pads a gate's reads and
    # its slot row.
    G = len(cell)
    n_anc = np.array([len(t.suffixes) for t in cell], dtype=np.int64)
    anc_at = np.array([t.ancillae.start for t in cell], dtype=np.int64)
    maps = np.hstack([np.array(rows, dtype=np.int64),
                      np.full((p * p, int(n_anc.sum()) + 1), -1, dtype=np.int64)])
    _check_maps(maps)
    # Gate copy x = c*G + g is gate g of cell c; it reads and drives the ids
    # its cell's map gives its slots.  Kahn's order over the copies is the
    # placement order: it gives the ancilla ids, and the copies' terms,
    # forcings and element counts follow it.
    width = max(len(t.reads) for t in cell)
    reads = maps[:, [t.reads + (-1,) * (width - len(t.reads)) for t in cell]]
    drives = maps[:, [t.out_slot for t in cell]]
    order = kahn_order(reads.reshape(-1, width).tolist(), drives.ravel().tolist())
    if len(order) != p * p * G:
        raise DtmError("internal error: lattice wiring has a cycle")
    c_of, g_of = np.divmod(np.array(order, dtype=np.intp), G)
    sizes = n_anc[g_of]
    first = n_nets + np.cumsum(sizes) - sizes
    x = np.repeat(np.arange(len(g_of)), sizes)
    k = np.arange(len(x)) + n_nets - first[x]
    maps[c_of[x], anc_at[g_of[x]] + k] = first[x] + k
    has = np.flatnonzero(sizes)
    outs = drives[c_of[has], g_of[has]]
    names = list(labels)  # the nets, then every ancilla
    for out, g in zip(outs.tolist(), g_of[has].tolist()):
        names += [f"{labels[out]}.{sfx}" for sfx in cell[g].suffixes]
    roles = np.full(len(names), _ROLE_CODE["wire"], dtype=np.int8)
    roles[:n_inputs] = _ROLE_CODE["input"]
    roles[[register_var[(p + 1, j)] for j in range(1, p + 1)]] = _ROLE_CODE["output"]
    roles[n_nets:] = _ROLE_CODE["ancilla"]
    # copy i places its gate's gadget through its gate row, then its cell's map
    network = gadgets.network(
        np.array([t.block for t in cell])[g_of], maps[c_of[:, None], gate_rows[g_of]],
        roles, names,
        port_map=dict(zip(labels, range(len(labels)))),
        inputs=tuple(labels[:n_inputs]),
        outputs=tuple(_reg(p + 1, j) for j in range(1, p + 1)),
    )
    bindings = dict(clamp_bits)
    if tape_in is not None:
        for j in range(1, p + 1):
            bindings[_reg(1, j)] = tape_in[j - 1]
    network = clamp_inputs(network, bindings)

    registers = (p + 1) * p
    gate_total = network.elements.total
    if gate_total % (p * p) != 0:
        raise DtmError("internal error: lattice gate count not divisible by p^2")
    m = gate_total // (p * p)
    network = replace(
        network, elements=network.elements.merged({"register": registers})
    )
    total = gate_total + registers
    bound = (m + 1) * p * p
    complexity = SqdtmComplexity(
        m_per_sfsc=m,
        p=p,
        sfsc_elements=gate_total,
        registers=registers,
        total=total,
        bound=bound,
        bound_plus_p=bound + p,
        within_bound=total <= bound + p,
    )
    plan = LatticePlan(p, s, head_start, register_var, inbus_down, inbus_up)
    return Lattice(dtm, p, head_start, tape_in, f, network, plan, complexity)


@dataclass(frozen=True)
class DtmHistory:
    """Reference run: p+1 register rows plus the head trace.

    heads[i] is (position, state, arrival direction) right before step i+1,
    or None once the head has left the tape or been absorbed after a halt.
    """

    rows: tuple[tuple[int, ...], ...]
    heads: tuple[tuple[int, str, str] | None, ...]


def simulate_dtm_oracle(dtm: DtmSpec, tape, head_start: int, p: int) -> DtmHistory:
    """Direct step-by-step simulation with the lattice boundary conventions:
    a head that moves off cells 1..p vanishes; a halt-state head survives one
    row (it was just written) and is absorbed at the next step; remaining
    rows copy forward unchanged."""
    tape = tuple(b & 1 for b in tape)
    if len(tape) != p:
        raise DtmError(f"tape length {len(tape)} != p = {p}")
    if not 1 <= head_start <= p:
        raise DtmError(f"head start {head_start} outside 1..{p}")
    rows = [tape]
    heads: list[tuple[int, str, str] | None] = [(head_start, dtm.start, MOVE_UP)]
    for _ in range(p):
        row = rows[-1]
        head = heads[-1]
        if head is None or head[1] in dtm.halts:
            rows.append(row)
            heads.append(None)
            continue
        pos, state, _ = head
        q2, b2, move = dtm.delta[(state, row[pos - 1])]
        new_row = list(row)
        new_row[pos - 1] = b2
        rows.append(tuple(new_row))
        new_pos = pos + 1 if move == MOVE_UP else pos - 1
        heads.append((new_pos, q2, move) if 1 <= new_pos <= p else None)
    return DtmHistory(tuple(rows), tuple(heads))


def admissible_tapes(lattice: Lattice):
    if lattice.tape_in is not None:
        return [lattice.tape_in]
    return [
        tuple((x >> j) & 1 for j in range(lattice.p)) for x in range(1 << lattice.p)
    ]


def verify_ground_histories(lattice: Lattice, cap: int = DEFAULT_CAP) -> bool:
    """True iff the ground-state set corresponds one-to-one with the oracle
    histories over all admissible input tapes."""
    reg_order = sorted(lattice.plan.register_var.values())
    expected = set()
    for tape in admissible_tapes(lattice):
        history = simulate_dtm_oracle(lattice.dtm, tape, lattice.head_start, lattice.p)
        embedded = lattice.register_assignment(history)
        expected.add(tuple(embedded[v] for v in reg_order))
    network = lattice.network
    _, _, states = network._ground_matrix(cap)
    if states.shape[1] != len(expected):
        return False
    # the register rows of the ground-state matrix, one state per column
    registers = states[network.model._rows(reg_order)]
    return set(map(tuple, registers.T.tolist())) == expected


# --- machine text format ----------------------------------------------------


def format_dtm(dtm: DtmSpec) -> str:
    """Render the machine text format.  Raises DtmError for a state name
    that would not read back: one token, free of '#' and whitespace."""
    for q in dtm.states:
        if q.split() != [q] or "#" in q:
            raise DtmError(f"state name {q!r} does not read back: "
                           "use one token without '#' or whitespace")
    lines = [f"STATE {q}" for q in dtm.states]
    lines.append(f"START {dtm.start}")
    lines += [f"HALT {q}" for q in sorted(dtm.halts)]
    lines.append(f"DECISION {dtm.decision_cell}")
    for (q, bit), (q2, b2, move) in sorted(dtm.delta.items()):
        lines.append(f"DELTA {q} {bit} -> {q2} {b2} {move}")
    return "\n".join(lines) + "\n"


def parse_dtm(text: str) -> DtmSpec:
    states: list[str] = []
    start = None
    halts: set[str] = set()
    delta: dict[tuple[str, int], tuple[str, int, str]] = {}
    decision = 1
    start_line = decision_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "STATE" and len(tokens) == 2:
            states.append(tokens[1])
        elif kind == "START" and len(tokens) == 2:
            if start_line:
                raise DtmFormatError(lineno, f"START repeats line {start_line}")
            start, start_line = tokens[1], lineno
        elif kind == "HALT" and len(tokens) == 2:
            halts.add(tokens[1])
        elif kind == "DECISION" and len(tokens) == 2:
            if decision_line:
                raise DtmFormatError(lineno, f"DECISION repeats line {decision_line}")
            decision_line = lineno
            try:
                decision = int(tokens[1])
            except ValueError:
                raise DtmFormatError(lineno, f"bad decision cell {tokens[1]!r}") from None
        elif kind == "DELTA":
            if len(tokens) != 7 or tokens[3] != "->":
                raise DtmFormatError(lineno, "DELTA needs <q> <0|1> -> <q'> <0|1> <U|D>")
            if tokens[2] not in ("0", "1") or tokens[5] not in ("0", "1"):
                raise DtmFormatError(lineno, "tape symbols must be 0 or 1")
            if tokens[6] not in (MOVE_UP, MOVE_DOWN):
                raise DtmFormatError(lineno, "move must be U or D")
            key = (tokens[1], int(tokens[2]))
            if key in delta:
                raise DtmFormatError(lineno, f"duplicate DELTA for {key}")
            delta[key] = (tokens[4], int(tokens[5]), tokens[6])
        else:
            raise DtmFormatError(lineno, f"unknown statement {kind!r}")
    # what is wrong with the whole spec is reported at its last line
    last = max(1, len(text.splitlines()))
    if start is None:
        raise DtmFormatError(last, "missing START")
    if start not in states:
        raise DtmFormatError(start_line, f"start state {start!r} not declared")
    try:
        return DtmSpec(tuple(states), start, frozenset(halts), delta, decision)
    except DtmError as exc:
        raise DtmFormatError(last, str(exc)) from None
