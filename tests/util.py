"""Shared builders for the test suite."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

import groundlogic as gl


def random_model(rng: random.Random, n_vars=6, n_terms=5, max_arity=3) -> gl.EnergyModel:
    variables = tuple(gl.Variable(i) for i in range(n_vars))
    terms = []
    for _ in range(n_terms):
        k = rng.randint(1, max_arity)
        vars_ = tuple(rng.sample(range(n_vars), k))
        table = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(1 << k))
        terms.append(gl.EnergyTerm(vars_, table))
    return gl.EnergyModel(variables, tuple(terms))


def reference_parse_statements(text: str, allow_ports: bool = False):
    """Oracle for `model.parse_statements`: the line-by-line reading, which
    checks every line against the lines before it and raises at the first
    defect.  Returns (variables, clamps, terms, ports)."""

    def number(token, lineno, what):
        try:
            value = int(token)
        except ValueError:
            raise gl.DumpFormatError(lineno, f"bad {what} {token!r}") from None
        if what == "variable id" and not -(1 << 63) <= value < 1 << 63:
            raise gl.DumpFormatError(lineno, f"bad {what} {token!r}")
        return value

    def ref(token, lineno):
        vid = number(token, lineno, "variable id")
        if vid not in declared:
            raise gl.DumpFormatError(lineno, f"variable {vid} is not declared by an earlier VAR")
        return vid

    declared, variables, clamps, terms, ports = set(), [], {}, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "VAR":
            if len(tokens) < 3:
                raise gl.DumpFormatError(lineno, "VAR needs <id> <role> [label]")
            vid = number(tokens[1], lineno, "variable id")
            if vid in declared:
                raise gl.DumpFormatError(lineno, f"duplicate variable id {vid}")
            try:
                variables.append(gl.Variable(vid, tokens[2], " ".join(tokens[3:]) or None))
            except gl.ModelError as exc:
                raise gl.DumpFormatError(lineno, str(exc)) from None
            declared.add(vid)
        elif kind == "CLAMP":
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                raise gl.DumpFormatError(lineno, "CLAMP needs <id> <0|1>")
            vid = ref(tokens[1], lineno)
            if vid in clamps:
                raise gl.DumpFormatError(lineno, f"variable {vid} is already clamped")
            clamps[vid] = int(tokens[2])
        elif kind == "TERM":
            if len(tokens) < 2:
                raise gl.DumpFormatError(lineno, "TERM needs an arity")
            k = number(tokens[1], lineno, "arity")
            if not 1 <= k <= gl.K_MAX:
                raise gl.DumpFormatError(lineno, f"arity {k} outside 1..{gl.K_MAX}")
            if len(tokens) != 3 + k + (1 << k) or tokens[2 + k] != ":":
                raise gl.DumpFormatError(
                    lineno, f"TERM {k} needs {k} ids, ':', then {1 << k} energies"
                )
            vids = tuple(ref(t, lineno) for t in tokens[2 : 2 + k])
            table = []
            for t in tokens[3 + k :]:
                try:
                    table.append(Fraction(t))
                except (ValueError, ZeroDivisionError):
                    raise gl.DumpFormatError(lineno, f"bad energy {t!r}") from None
            try:
                terms.append(gl.EnergyTerm(vids, tuple(table)))
            except gl.ModelError as exc:
                raise gl.DumpFormatError(lineno, str(exc)) from None
        elif kind == "PORT" and allow_ports:
            if len(tokens) != 3 or tokens[1] not in ("in", "out", "anc"):
                raise gl.DumpFormatError(lineno, "PORT needs <in|out|anc> <id>")
            vid = ref(tokens[2], lineno)
            if any(v == vid for _, v in ports):
                raise gl.DumpFormatError(lineno, f"variable {vid} is already a port")
            if tokens[1] == "out" and any(role == "out" for role, _ in ports):
                raise gl.DumpFormatError(lineno, "a gadget has exactly one out port")
            ports.append((tokens[1], vid))
        else:
            raise gl.DumpFormatError(lineno, f"unknown statement {kind!r}")
    return variables, clamps, terms, ports


def terms_of(rows) -> tuple:
    """`EnergyTerm`s of term rows in columns (`model._Rows`)."""
    return tuple(
        gl.EnergyTerm(tuple(ids[:k]), rows.tables[i])
        for ids, k, i in zip(rows.vars.tolist(), rows.arity.tolist(), rows.tidx.tolist())
    )


def reference_integer_terms(model: gl.EnergyModel):
    """Oracle for `model._integer_terms`: the clamps folded term by term,
    each distinct (table, clamped positions, clamped bits) once, in order
    of first use.  Returns (denom, offset, term rows)."""
    terms = model._terms
    denoms = {e.denominator for table in terms.tables for e in table}
    denom = math.lcm(*denoms)
    scaled = [tuple(e.numerator * (denom // e.denominator) for e in table)
              for table in terms.tables]
    tables = tuple(scaled)
    clamps = model.clamps
    folds = {}
    offset, vars_, arity, tidx = 0, [], [], []
    for row, k, t in zip(terms.vars.tolist(), terms.arity.tolist(), terms.tidx.tolist()):
        mask = bits = 0
        for j, v in enumerate(row[:k]):
            if v in clamps:
                mask |= 1 << j
                bits |= clamps[v] << j
        if not mask:
            vars_.append(row)
            arity.append(k)
            tidx.append(t)
            continue
        i = folds.get((t, mask, bits))
        if i is None:
            keep = [j for j in range(k) if not mask >> j & 1]
            i = folds[t, mask, bits] = len(tables)
            tables += (tuple(
                scaled[t][bits | sum((x >> a & 1) << j for a, j in enumerate(keep))]
                for x in range(1 << len(keep))
            ),)
        free = [v for v in row[:k] if v not in clamps]
        if free:
            vars_.append(free + [-1] * (gl.K_MAX - len(free)))
            arity.append(len(free))
            tidx.append(i)
        else:
            offset += tables[i][0]
    rows = gl.model._Rows(np.array(vars_, dtype=np.int64).reshape(-1, gl.K_MAX),
                          np.array(arity, dtype=np.int64), np.array(tidx, dtype=np.intp), tables)
    return denom, offset, rows


def extend_by_forcings(inputs_assignment: dict[int, int], forcings) -> dict[int, int]:
    """Oracle: apply forcing rules one at a time, in order, to a dict."""
    a = dict(inputs_assignment)
    for var, args, table in forcings:
        idx = 0
        for j, arg in enumerate(args):
            idx |= (a[arg] & 1) << j
        a[var] = table[idx]
    return a


def head_bus_codes(lattice: gl.Lattice, assignment: dict[int, int], i: int, j: int):
    """Oracle decoder: the incoming bus values of control (i, j) in a ground state."""
    down = up = 0
    for b, v in enumerate(lattice.plan.inbus_down[(i, j)]):
        down |= (assignment[v] & 1) << b
    for b, v in enumerate(lattice.plan.inbus_up[(i, j)]):
        up |= (assignment[v] & 1) << b
    return down, up


def reference_anneal(model: gl.EnergyModel, sched: gl.AnnealSchedule, target=None) -> gl.AnnealResult:
    """Oracle for `metropolis_anneal`: the same dynamics, drawing each
    position with `rng.integers(nfree)` and one `coins.random()` per
    proposal from a generator spawned from the restart's seed, read only
    when dE > 0, and recomputing dE in exact Fractions from the tables of
    the terms that touch the flipped variable."""
    free = model.free_vars
    touching = {v: [t for t in model.terms if v in t.vars] for v in free}
    target = None if target is None else Fraction(target)
    results = []
    best = best_state = None
    attempts = accepts = 0
    for child in np.random.SeedSequence(sched.seed).spawn(sched.restarts):
        rng = np.random.Generator(np.random.Philox(child))
        coins = np.random.Generator(np.random.Philox(child.spawn(1)[0]))
        state = dict(model.clamps)
        state.update(zip(free, (int(b) for b in rng.integers(0, 2, size=len(free)))))
        energy = local_best = gl.total_energy(model, state)
        local_state = dict(state)
        first_hit = 0 if target is not None and energy <= target else None
        for sweep in range(1, sched.sweeps + 1):
            temp = sched.temperature(sweep - 1)
            for _ in range(len(free)):
                v = free[int(rng.integers(len(free)))]
                uniform = coins.random()
                before = sum(t.energy(state) for t in touching[v])
                state[v] ^= 1
                delta = sum(t.energy(state) for t in touching[v]) - before
                if delta > 0:
                    attempts += 1
                    if uniform < math.exp(-float(delta) / temp):
                        accepts += 1
                    else:
                        state[v] ^= 1
                        continue
                energy += delta
                if energy < local_best:
                    local_best, local_state = energy, dict(state)
            if target is not None and first_hit is None and local_best <= target:
                first_hit = sweep
        results.append(gl.RestartResult(local_best, first_hit, target is not None and local_best <= target))
        if best is None or local_best < best:
            best, best_state = local_best, local_state
    hits = [r.first_hit_sweep for r in results if r.first_hit_sweep is not None]
    return gl.AnnealResult(
        best_energy=best,
        best_assignment=best_state,
        first_hit_sweep=min(hits) if hits else None,
        success=target is not None and best <= target,
        restarts=tuple(results),
        uphill_attempts=attempts,
        uphill_accepts=accepts,
    )


def random_cnf(rng: random.Random, n: int, m: int, k: int = 3) -> gl.Cnf:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return gl.Cnf(n, tuple(clauses))


def random_netlist(rng: random.Random, n_inputs=4, n_gates=8) -> gl.Netlist:
    nl = gl.Netlist(inputs=[f"i{j}" for j in range(n_inputs)], outputs=[])
    nets = list(nl.inputs)
    for g in range(n_gates):
        kind = rng.choice(("AND", "OR", "NOT"))
        out = f"g{g}"
        if kind == "NOT":
            ins = (rng.choice(nets),)
        else:
            ins = tuple(rng.sample(nets, 2))
        nl.gates.append(gl.Gate(kind, ins, out))
        nets.append(out)
    nl.outputs.append(nets[-1])
    nl.validate()
    return nl


def cnf_inputs_projection(network: gl.Network, states, n: int):
    vars_ = [network.port_map[f"x{i}"] for i in range(1, n + 1)]
    return {tuple(a[v] for v in vars_) for a in states}


FLIPPER = gl.DtmSpec(
    ("q",), "q", frozenset(),
    {("q", 0): ("q", 1, "U"), ("q", 1): ("q", 0, "U")},
)

TWO_STATE = gl.DtmSpec(
    ("a", "b"), "a", frozenset(),
    {
        ("a", 0): ("b", 1, "U"),
        ("a", 1): ("a", 0, "U"),
        ("b", 0): ("a", 1, "D"),
        ("b", 1): ("b", 0, "D"),
    },
)

WRITE1_HALT = gl.DtmSpec(
    ("go", "stop"), "go", frozenset({"stop"}),
    {("go", 0): ("stop", 1, "U"), ("go", 1): ("stop", 1, "U")},
)

THREE_STATE = gl.DtmSpec(
    ("a", "b", "h"), "a", frozenset({"h"}),
    {
        ("a", 0): ("b", 1, "U"),
        ("a", 1): ("a", 0, "D"),
        ("b", 0): ("h", 1, "D"),
        ("b", 1): ("a", 1, "U"),
    },
)


def flat_lattice(dtm, p, head_start, tape_in=None, policy="penalty", penalty=1, function=None):
    """Reference lattice: p x p renamed copies of the cell-control netlist
    flattened into one netlist and compiled gate by gate by `compile_netlist`.

    `gl.build_lattice` stamps one compiled cell instead and must agree with
    this byte for byte.
    """
    if not 1 <= head_start <= p:
        raise gl.DtmError(f"head start {head_start} outside 1..{p}")
    if tape_in is not None:
        tape_in = tuple(b & 1 for b in tape_in)
        if len(tape_in) != p:
            raise gl.DtmError(f"tape length {len(tape_in)} != p = {p}")
    f = function if function is not None else gl.build_sfsc_function(dtm)
    s = f.bus_width
    sub = gl.build_sfsc_netlist(f)

    def reg(i, j):
        return f"t{i}_{j}"

    big = gl.Netlist()
    clamp_bits = {}
    inbus_down = {}
    inbus_up = {}

    def boundary(name, bits):
        big.inputs.append(name)
        clamp_bits[name] = bits
        return name

    for i in range(1, p + 2):
        for j in range(1, p + 1):
            if i == 1:
                big.inputs.append(reg(i, j))
            elif i == p + 1:
                big.outputs.append(reg(i, j))

    start_code = dtm.code(dtm.start)
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            down_nets = []
            up_nets = []
            for b in range(s):
                if i >= 2 and j + 1 <= p:
                    down_nets.append(f"od{i - 1}_{j + 1}_{b}")
                else:
                    down_nets.append(boundary(f"bid{i}_{j}_{b}", 0))
                if i >= 2 and j - 1 >= 1:
                    up_nets.append(f"ou{i - 1}_{j - 1}_{b}")
                else:
                    injected = (start_code >> b) & 1 if (i, j) == (1, head_start) else 0
                    up_nets.append(boundary(f"biu{i}_{j}_{b}", injected))
            inbus_down[(i, j)] = tuple(down_nets)
            inbus_up[(i, j)] = tuple(up_nets)

            rename = {"r": reg(i, j), "w": reg(i + 1, j)}
            for b in range(s):
                rename[f"id{b}"] = down_nets[b]
                rename[f"iu{b}"] = up_nets[b]
                rename[f"od{b}"] = f"od{i}_{j}_{b}"
                rename[f"ou{b}"] = f"ou{i}_{j}_{b}"

            def net_of(name):
                return rename.get(name) or f"s{i}_{j}.{name}"

            for g in sub.gates:
                big.gates.append(
                    gl.Gate(g.kind, tuple(net_of(n) for n in g.inputs), net_of(g.output), g.func)
                )

    network = gl.compile_netlist(big, policy=policy, penalty=penalty)
    bindings = dict(clamp_bits)
    if tape_in is not None:
        for j in range(1, p + 1):
            bindings[reg(1, j)] = tape_in[j - 1]
    network = gl.clamp_inputs(network, bindings)

    registers = (p + 1) * p
    gate_total = network.elements.total
    assert gate_total % (p * p) == 0
    m = gate_total // (p * p)
    network = replace(network, elements=network.elements.merged({"register": registers}))
    total = gate_total + registers
    bound = (m + 1) * p * p
    complexity = gl.SqdtmComplexity(
        m_per_sfsc=m, p=p, sfsc_elements=gate_total, registers=registers, total=total,
        bound=bound, bound_plus_p=bound + p, within_bound=total <= bound + p,
    )
    plan = gl.LatticePlan(
        p=p,
        bus_width=s,
        head_start=head_start,
        register_var={
            (i, j): network.port_map[reg(i, j)] for i in range(1, p + 2) for j in range(1, p + 1)
        },
        inbus_down={k: tuple(network.port_map[n] for n in v) for k, v in inbus_down.items()},
        inbus_up={k: tuple(network.port_map[n] for n in v) for k, v in inbus_up.items()},
    )
    return gl.Lattice(dtm, p, head_start, tape_in, f, network, plan, complexity)


def sfsc_cell(f, policy="edc-symmetrized", penalty=1):
    """One cell control compiled on its own, and viewed as a single gadget
    whose designated output is W (bus outputs and internals are ancillae)."""
    net = gl.compile_netlist(gl.build_sfsc_netlist(f), policy=policy, penalty=penalty)
    inputs = tuple(net.port_map[n] for n in gl.turing.sfsc_input_nets(f.bus_width))
    output = net.port_map["w"]
    gadget = gl.Gadget(
        name="sfsc",
        inputs=inputs,
        output=output,
        ancillae=tuple(v.id for v in net.model.variables if v.id not in inputs and v.id != output),
        fragment=net.model,
        forcings=net.plan,
        counts=dict(net.elements.counts),
        penalty_floor=net.penalty_floor,
        ground_table=tuple(net.base_ground for _ in range(1 << len(inputs))),
        exact_extension=net.edc,
    )
    return net, gadget
