"""Gate-level netlists: parsing, validation, and direct evaluation.

Netlists are purely combinational descriptions over named nets with a
single driver per net.  Direct evaluation here is the reference oracle the
energy-compilation path is checked against.  The module also owns the two
text input formats (netlist statements and DIMACS CNF) and the translation
of truth tables and CNF formulas into AND/OR/NOT netlists, where `_chain`
builds every multi-input gate of both syntheses.
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
        """Check declarations, drivers, reads and acyclicity; returns the
        gates in the order `kahn_order` gives them (`topo_gates`)."""
        for kind, nets in (("input", self.inputs), ("output", self.outputs)):
            if len(set(nets)) < len(nets):
                twice = next(n for i, n in enumerate(nets) if n in nets[:i])
                raise NetlistError(f"{kind} {twice!r} is declared more than once")
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
    return _evaluate(nl, nl.validate(), inputs)


def _evaluate(nl: Netlist, order: list[Gate], inputs: dict[str, int]) -> dict[str, int]:
    """`evaluate` over gates in `order`, the result of `nl.validate()`."""
    values = {}
    for n in nl.inputs:
        if n not in inputs:
            raise NetlistError(f"missing value for input {n!r}")
        values[n] = inputs[n] & 1
    for g in order:
        values[g.output] = gate_value(g, tuple(values[n] for n in g.inputs))
    return values


def netlist_truth_table(nl: Netlist, output: str | None = None) -> TruthFunction:
    """Exhaustive truth table of one declared output over the declared
    inputs; the netlist is validated once, not once per row."""
    out = output if output is not None else nl.outputs[0]
    order = nl.validate()
    n = len(nl.inputs)
    rows = []
    for x in range(1 << n):
        values = _evaluate(nl, order, {net: (x >> j) & 1 for j, net in enumerate(nl.inputs)})
        rows.append(values[out])
    return TruthFunction(n, tuple(rows))


# --- netlist text format ---------------------------------------------------


def format_netlist(nl: Netlist) -> str:
    """Render the netlist text format.  Raises NetlistError for what would
    not read back: a gate of a custom kind, or a net name that is not one
    token free of '#', or is '->'."""
    for g in nl.gates:
        if g.kind not in BASIC_KINDS:
            raise NetlistError(f"gate kind {g.kind!r} does not read back: use AND, OR or NOT")
    for n in (*nl.inputs, *nl.outputs, *(n for g in nl.gates for n in (*g.inputs, g.output))):
        if n.split() != [n] or "#" in n or n == "->":
            raise NetlistError(f"net name {n!r} does not read back: "
                               "use one token without '#' or whitespace, other than '->'")
    lines = [f"INPUT {n}" for n in nl.inputs]
    lines += [f"OUTPUT {n}" for n in nl.outputs]
    for g in nl.gates:
        lines.append(f"GATE {g.kind} {' '.join(g.inputs)} -> {g.output}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Netlist:
    nl = Netlist()
    declared: dict[tuple[str, str], int] = {}  # (INPUT or OUTPUT, net) -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in ("INPUT", "OUTPUT") and len(tokens) == 2:
            key = (tokens[0], tokens[1])
            if key in declared:
                raise NetlistFormatError(lineno, f"{' '.join(key)} repeats line {declared[key]}")
            declared[key] = lineno
            (nl.inputs if key[0] == "INPUT" else nl.outputs).append(tokens[1])
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
    for (statement, net), lineno in declared.items():
        if statement == "OUTPUT" and net not in driven:
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
        if line.startswith("%"):  # SATLIB's end marker; a stray 0 may follow it
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header_line:
                raise DimacsFormatError(lineno, f"problem line repeats line {header_line}")
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


def _chain(nl: Netlist, kind: str, nets: list[str], namer: _NetNamer, output=None, stem=None):
    """Left-to-right 2-input chain of `kind` gates over `nets`; returns the
    net carrying the result.  Every multi-input gate of SOP and CNF
    synthesis is built here.  The last gate drives `output` when it is
    given; every other gate drives a fresh net named from `stem` (by default
    the kind, lower-cased).  A single net comes back as is, with no gate.
    """
    acc = nets[0]
    if len(nets) == 1:
        return acc
    stem = kind.lower() if stem is None else stem
    gates = nl.gates
    for net in nets[1:-1]:
        out = namer.fresh(stem)
        gates.append(Gate(kind, (acc, net), out))
        acc = out
    out = namer.fresh(stem) if output is None else output
    gates.append(Gate(kind, (acc, nets[-1]), out))
    return out


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

    Multi-literal products and the final sum are `_chain`s of 2-input gates,
    so every emitted gate is a basic element.  Constant functions compile to
    x AND NOT x / x OR NOT x over the first input, and a bare literal (arity
    1) reaches the output through a double inverter.
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
        _chain(nl, "OR" if minterms else "AND", [ins[0], nx], namer, output)
        return nl

    last = output if len(minterms) == 1 else None  # a lone product drives the output
    products = []
    for m in minterms:
        lits = [ins[j] if m >> j & 1 else _not_net(nl, ins[j], not_cache, namer)
                for j in range(fn.arity)]
        products.append(_chain(nl, "AND", lits, namer, last, f"m{m}_"))
    if _chain(nl, "OR", products, namer, output) != output:
        # single bare literal (arity 1): materialize via a double inverter
        mid = _not_net(nl, products[0], not_cache, namer)
        nl.gates.append(Gate("NOT", (mid,), output))
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
        if clause:  # an OR chain over the distinct literals
            lits = [literal_net(lit) for lit in dict.fromkeys(clause)]
            clause_nets.append(_chain(nl, "OR", lits, namer))
        else:  # the empty clause is false: x1 AND NOT x1
            clause_nets.append(_chain(nl, "AND", [ins[0], literal_net(-1)], namer, stem="false"))
    if not clause_nets:  # the empty formula is true: x1 OR NOT x1
        clause_nets.append(_chain(nl, "OR", [ins[0], literal_net(-1)], namer, output))

    if _chain(nl, "AND", clause_nets, namer, output) != output:
        # a lone clause: its driving gate, the last one, is renamed onto the
        # output; a bare input is materialized via a double inverter
        if nl.gates:
            g = nl.gates[-1]
            nl.gates[-1] = Gate(g.kind, g.inputs, output)
        else:
            mid = _not_net(nl, clause_nets[0], not_cache, namer)
            nl.gates.append(Gate("NOT", (mid,), output))
    nl.validate()
    return nl
