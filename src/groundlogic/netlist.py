"""Gate-level netlists: parsing, validation, and direct evaluation.

Netlists are purely combinational descriptions over named nets with a
single driver per net.  Direct evaluation here is the reference oracle the
energy-compilation path is checked against.  The module also owns the two
text input formats (netlist statements and DIMACS CNF) and the translation
of truth tables and CNF formulas into AND/OR/NOT netlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logic import TruthFunction

BASIC_KINDS = ("AND", "OR", "NOT")


class NetlistError(Exception):
    pass


class CycleError(NetlistError):
    pass


class NetlistFormatError(NetlistError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DimacsFormatError(NetlistError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Gate:
    kind: str
    inputs: tuple[str, ...]
    output: str
    func: TruthFunction | None = None  # required for custom kinds

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.kind == "NOT" and len(self.inputs) != 1:
            raise NetlistError("NOT takes exactly one input")
        if self.kind in ("AND", "OR") and len(self.inputs) < 2:
            raise NetlistError(f"{self.kind} needs at least two inputs")
        if self.kind not in BASIC_KINDS:
            if self.func is None:
                raise NetlistError(f"custom gate {self.kind!r} needs a truth function")
            if self.func.arity != len(self.inputs):
                raise NetlistError(f"custom gate {self.kind!r} arity mismatch")


@dataclass
class Netlist:
    """Declared inputs/outputs plus gates.  Single driver per net, acyclic."""

    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)

    def nets(self) -> list[str]:
        seen: dict[str, None] = {}
        for n in self.inputs:
            seen.setdefault(n)
        for g in self.gates:
            for n in g.inputs:
                seen.setdefault(n)
            seen.setdefault(g.output)
        for n in self.outputs:
            seen.setdefault(n)
        return list(seen)

    def driver_map(self) -> dict[str, Gate]:
        drivers: dict[str, Gate] = {}
        for g in self.gates:
            if g.output in drivers:
                raise NetlistError(f"net {g.output!r} has more than one driver")
            if g.output in self.inputs:
                raise NetlistError(f"declared input {g.output!r} is gate-driven")
            drivers[g.output] = g
        return drivers

    def validate(self) -> list[Gate]:
        """Check drivers, reads and acyclicity; returns the gates in the
        order `kahn_order` gives them (`topo_gates`)."""
        drivers = self.driver_map()
        for g in self.gates:
            for n in g.inputs:
                if n not in drivers and n not in self.inputs:
                    raise NetlistError(f"net {n!r} is read but never driven or declared")
        for n in self.outputs:
            if n not in drivers and n not in self.inputs:
                raise NetlistError(f"declared output {n!r} is never driven")
        return self._kahn()

    def topo_gates(self) -> list[Gate]:
        """Gates in `kahn_order` over their input and output nets, after
        the driver checks; raises CycleError on feedback."""
        self.driver_map()
        return self._kahn()

    def _kahn(self) -> list[Gate]:
        gates = self.gates
        order = kahn_order([g.inputs for g in gates], [g.output for g in gates])
        if len(order) < len(gates):
            placed = set(order)
            stuck = [g.output for i, g in enumerate(gates) if i not in placed]
            raise CycleError(f"combinational cycle through nets {stuck[:4]}")
        return [gates[i] for i in order]


def kahn_order(reads, drives) -> list[int]:
    """Kahn's FIFO topological order of gates (Kahn, CACM 5, 1962).

    Gate i reads the nets `reads[i]`, a repeated net counted each time, and
    drives the net `drives[i]`, which no other gate drives; nets are any
    hashable values, and a net no gate drives is an input.  The queue is
    seeded with every gate that reads no driven net, in gate order, and a
    dequeued gate releases the readers of its net in gate order.  Returns
    gate indices, fewer than the gates when they form a cycle.  Netlists
    and machine lattices are both ordered here.
    """
    readers = {n: [] for n in drives}  # the gates reading each driven net
    in_deg = []
    for i, nets in enumerate(reads):
        deg = 0
        for n in nets:
            if n in readers:
                readers[n].append(i)
                deg += 1
        in_deg.append(deg)
    order = [i for i, d in enumerate(in_deg) if not d]
    for i in order:  # the loop reads the gates appended while it runs
        for r in readers[drives[i]]:
            in_deg[r] -= 1
            if not in_deg[r]:
                order.append(r)
    return order


def gate_value(gate: Gate, bits: tuple[int, ...]) -> int:
    if gate.kind == "AND":
        return int(all(bits))
    if gate.kind == "OR":
        return int(any(bits))
    if gate.kind == "NOT":
        return 1 - bits[0]
    return gate.func.value(bits)


def evaluate(nl: Netlist, inputs: dict[str, int]) -> dict[str, int]:
    """Evaluate every net from the declared inputs.  The reference oracle."""
    values = {}
    for n in nl.inputs:
        if n not in inputs:
            raise NetlistError(f"missing value for input {n!r}")
        values[n] = inputs[n] & 1
    for g in nl.topo_gates():
        values[g.output] = gate_value(g, tuple(values[n] for n in g.inputs))
    return values


def netlist_truth_table(nl: Netlist, output: str | None = None) -> TruthFunction:
    """Exhaustive truth table of one declared output over the declared inputs."""
    out = output if output is not None else nl.outputs[0]
    n = len(nl.inputs)
    rows = []
    for x in range(1 << n):
        values = evaluate(nl, {net: (x >> j) & 1 for j, net in enumerate(nl.inputs)})
        rows.append(values[out])
    return TruthFunction(n, tuple(rows))


# --- netlist text format ---------------------------------------------------


def format_netlist(nl: Netlist) -> str:
    lines = [f"INPUT {n}" for n in nl.inputs]
    lines += [f"OUTPUT {n}" for n in nl.outputs]
    for g in nl.gates:
        lines.append(f"GATE {g.kind} {' '.join(g.inputs)} -> {g.output}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Netlist:
    nl = Netlist()
    output_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "INPUT" and len(tokens) == 2:
            nl.inputs.append(tokens[1])
        elif tokens[0] == "OUTPUT" and len(tokens) == 2:
            nl.outputs.append(tokens[1])
            output_lines.setdefault(tokens[1], lineno)
        elif tokens[0] == "GATE":
            if "->" not in tokens or tokens.index("->") != len(tokens) - 2:
                raise NetlistFormatError(lineno, "GATE needs <kind> <in...> -> <out>")
            kind = tokens[1]
            ins = tokens[2 : tokens.index("->")]
            if kind not in BASIC_KINDS:
                raise NetlistFormatError(lineno, f"unknown gate kind {kind!r}")
            if not ins:
                raise NetlistFormatError(lineno, "GATE needs at least one input net")
            try:
                nl.gates.append(Gate(kind, tuple(ins), tokens[-1]))
            except NetlistError as exc:
                raise NetlistFormatError(lineno, str(exc)) from None
        else:
            raise NetlistFormatError(lineno, f"unknown statement {tokens[0]!r}")
    driven = {g.output for g in nl.gates} | set(nl.inputs)
    for net, lineno in output_lines.items():
        if net not in driven:
            raise NetlistFormatError(lineno, f"declared output {net!r} is never driven")
    try:
        nl.validate()
    except NetlistError as exc:
        # what is wrong with the whole netlist is reported at its last line
        raise NetlistFormatError(max(1, len(text.splitlines())), str(exc)) from None
    return nl


# --- DIMACS CNF ------------------------------------------------------------


@dataclass(frozen=True)
class Cnf:
    """A CNF formula in DIMACS literal convention (1-based, negative = NOT)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @property
    def has_empty_clause(self) -> bool:
        return any(len(c) == 0 for c in self.clauses)

    def clause_satisfied(self, clause, bits) -> bool:
        return any(
            (bits[abs(lit) - 1] == 1) == (lit > 0) for lit in clause
        )

    def satisfied(self, bits) -> bool:
        return all(self.clause_satisfied(c, bits) for c in self.clauses)


def parse_dimacs(text: str) -> Cnf:
    num_vars = None
    num_clauses = None
    header_line = 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsFormatError(lineno, f"bad problem line {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsFormatError(lineno, f"bad problem line {line!r}") from None
            header_line = lineno
            continue
        if num_vars is None:
            raise DimacsFormatError(lineno, "clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsFormatError(lineno, f"bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsFormatError(
                        lineno, f"literal {lit} exceeds declared variable count {num_vars}"
                    )
                pending.append(lit)
    if pending:
        raise DimacsFormatError(lineno, "last clause not terminated by 0")
    if num_vars is None:
        raise DimacsFormatError(max(1, len(text.splitlines())), "missing 'p cnf' header")
    if len(clauses) != num_clauses:
        raise DimacsFormatError(
            header_line, f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return Cnf(num_vars, tuple(clauses))


def format_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def brute_force_satisfying_set(cnf: Cnf) -> list[tuple[int, ...]]:
    """All satisfying assignments by direct clause evaluation over 2^n inputs.

    Independent of the energy-compilation path; used as the SAT oracle.
    """
    out = []
    n = cnf.num_vars
    for x in range(1 << n):
        bits = tuple((x >> j) & 1 for j in range(n))
        if cnf.satisfied(bits):
            out.append(bits)
    return out


# --- synthesis into AND/OR/NOT netlists -------------------------------------


class _NetNamer:
    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.counter = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{self.prefix}{stem}{self.counter}"


def _chain(nl: Netlist, kind: str, nets: list[str], namer: _NetNamer) -> str:
    """Left-to-right 2-input chain; returns the net carrying the result."""
    acc = nets[0]
    for net in nets[1:]:
        out = namer.fresh(kind.lower())
        nl.gates.append(Gate(kind, (acc, net), out))
        acc = out
    return acc


def _not_net(nl: Netlist, net: str, cache: dict[str, str], namer: _NetNamer) -> str:
    if net not in cache:
        out = namer.fresh("n")
        nl.gates.append(Gate("NOT", (net,), out))
        cache[net] = out
    return cache[net]


def decompose_to_basis(
    fn: TruthFunction,
    inputs: list[str] | None = None,
    output: str = "y",
    prefix: str = "",
) -> Netlist:
    """Two-level sum-of-products netlist over {AND, OR, NOT} computing fn.

    Multi-literal products and the final sum are built as 2-input chains so
    every emitted gate is a basic element.  Constant functions compile to
    x AND NOT x / x OR NOT x over the first input.
    """
    if fn.arity < 1:
        raise NetlistError("decomposition needs at least one input")
    ins = list(inputs) if inputs is not None else [f"x{j}" for j in range(fn.arity)]
    if len(ins) != fn.arity:
        raise NetlistError("input name count must match arity")
    nl = Netlist(inputs=list(ins), outputs=[output])
    namer = _NetNamer(prefix)
    not_cache: dict[str, str] = {}

    minterms = fn.minterms()
    if fn.is_constant:
        nx = _not_net(nl, ins[0], not_cache, namer)
        nl.gates.append(Gate("OR" if minterms else "AND", (ins[0], nx), output))
        return nl

    single_product = len(minterms) == 1
    sum_nets: list[str] = []
    for m in minterms:
        literals = []
        for j in range(fn.arity):
            if (m >> j) & 1:
                literals.append(ins[j])
            else:
                literals.append(_not_net(nl, ins[j], not_cache, namer))
        if len(literals) == 1:
            sum_nets.append(literals[0])
        else:
            acc = literals[0]
            for idx, net in enumerate(literals[1:]):
                last = single_product and idx == len(literals) - 2
                out = output if last else namer.fresh(f"m{m}_")
                nl.gates.append(Gate("AND", (acc, net), out))
                acc = out
            sum_nets.append(acc)

    if len(sum_nets) == 1:
        if sum_nets[0] != output:
            # single bare literal (arity 1): materialize via a double inverter
            mid = _not_net(nl, sum_nets[0], not_cache, namer)
            nl.gates.append(Gate("NOT", (mid,), output))
        return nl
    acc = sum_nets[0]
    for idx, net in enumerate(sum_nets[1:]):
        out = output if idx == len(sum_nets) - 2 else namer.fresh("or")
        nl.gates.append(Gate("OR", (acc, net), out))
        acc = out
    return nl


def netlist_from_bit_functions(
    inputs: list[str], bits: dict[str, TruthFunction]
) -> Netlist:
    """Merge per-output-bit decompositions into one multi-output netlist."""
    merged = Netlist(inputs=list(inputs), outputs=list(bits))
    for out, fn in bits.items():
        sub = decompose_to_basis(fn, inputs=list(inputs), output=out, prefix=f"{out}.")
        merged.gates.extend(sub.gates)
    merged.validate()
    return merged


def encode_cnf(cnf: Cnf, output: str = "sat") -> Netlist:
    """Netlist computing a CNF formula: OR chains per clause, one AND chain.

    Variable i lives on net x<i>; negative literals go through one shared
    NOT per variable.  Empty clauses make the formula false by construction
    (encoded as x AND NOT x); `cnf.has_empty_clause` flags that case.
    """
    if cnf.num_vars < 1:
        raise NetlistError("CNF encoding needs at least one variable")
    ins = [f"x{i}" for i in range(1, cnf.num_vars + 1)]
    nl = Netlist(inputs=list(ins), outputs=[output])
    namer = _NetNamer()
    not_cache: dict[str, str] = {}

    def literal_net(lit: int) -> str:
        net = f"x{abs(lit)}"
        return net if lit > 0 else _not_net(nl, net, not_cache, namer)

    clause_nets = []
    for clause in cnf.clauses:
        lits = list(dict.fromkeys(clause))  # drop repeated literals
        if not lits:
            nx = _not_net(nl, ins[0], not_cache, namer)
            false_net = namer.fresh("false")
            nl.gates.append(Gate("AND", (ins[0], nx), false_net))
            clause_nets.append(false_net)
        elif len(lits) == 1:
            clause_nets.append(literal_net(lits[0]))
        else:
            clause_nets.append(_chain(nl, "OR", [literal_net(l) for l in lits], namer))

    if not clause_nets:
        # empty formula is identically true
        nx = _not_net(nl, ins[0], not_cache, namer)
        nl.gates.append(Gate("OR", (ins[0], nx), output))
        nl.validate()
        return nl

    if len(clause_nets) == 1:
        net = clause_nets[0]
        if any(g.output == net for g in nl.gates):
            # rename the driving gate's output onto the declared output net
            for i, g in enumerate(nl.gates):
                if g.output == net:
                    nl.gates[i] = Gate(g.kind, g.inputs, output)
        else:
            mid = _not_net(nl, net, not_cache, namer)
            nl.gates.append(Gate("NOT", (mid,), output))
    else:
        acc = clause_nets[0]
        for idx, net in enumerate(clause_nets[1:]):
            out = output if idx == len(clause_nets) - 2 else namer.fresh("and")
            nl.gates.append(Gate("AND", (acc, net), out))
            acc = out
    nl.validate()
    return nl
