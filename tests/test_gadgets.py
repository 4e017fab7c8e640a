import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

from unittest import mock

import pytest

import groundlogic as gl

ALL_TWO_INPUT = [gl.TruthFunction(2, bits) for bits in itertools.product((0, 1), repeat=4)]


def test_synthesized_not_table():
    g = gl.synthesize_gadget(gl.NOT, 1)
    term = g.fragment.terms[0]
    # rows keyed (x, y): correct pairs cost 0, wrong pairs cost 1
    rows = {((i >> 0) & 1, (i >> 1) & 1): term.table[i] for i in range(4)}
    assert rows[(0, 1)] == 0 and rows[(1, 0)] == 0
    assert rows[(0, 0)] == 1 and rows[(1, 1)] == 1


def test_synthesized_and_rows():
    g = gl.synthesize_gadget(gl.AND2, 1)
    term = g.fragment.terms[0]
    zeros = [i for i in range(8) if term.table[i] == 0]
    assert len(zeros) == 4
    for i in zeros:
        a, b, c = i & 1, (i >> 1) & 1, (i >> 2) & 1
        assert c == (a & b)


def test_synthesized_or_violation_cost():
    g = gl.synthesize_gadget(gl.OR2, 2)
    assert set(g.fragment.terms[0].table) == {0, 2}


def test_penalty_must_be_positive():
    with pytest.raises(gl.ModelError):
        gl.synthesize_gadget(gl.AND2, 0)


def test_arity_overflow_refused():
    wide = gl.and_n(gl.K_MAX)
    with pytest.raises(gl.ModelError):
        gl.synthesize_gadget(wide, 1)


@pytest.mark.parametrize("penalty", [1, Fraction(3, 2)])
def test_all_sixteen_two_input_functions(penalty):
    for fn in ALL_TWO_INPUT:
        g = gl.synthesize_gadget(fn, penalty)
        rep = gl.check_implements(g, fn)
        assert rep.implements
        assert rep.logical_gap == penalty
        # synthesized gadgets conserve degeneracy: ground 0 on every input
        edc = gl.check_edc(g)
        assert edc.is_edc
        assert set(edc.per_input_ground.values()) == {0}


def test_check_implements_wrong_function():
    g = gl.synthesize_gadget(gl.AND2, 1)
    assert not gl.check_implements(g, gl.OR2).implements


def test_physical_and_zero_profile_is_plain_and():
    g = gl.make_physical_and(0, 0, 0, 0, 1)
    assert gl.check_edc(g).is_edc
    assert gl.check_implements(g, gl.AND2).implements


def test_physical_and_profile_breaks_edc():
    g = gl.make_physical_and(0, 0, 0, -1, 2)
    rep = gl.check_edc(g)
    assert not rep.is_edc
    assert rep.per_input_ground[(1, 1)] == -1
    assert rep.per_input_ground[(0, 0)] == 0


def test_physical_and_clamped_inputs_ground():
    e = {"e00": 0, "e01": Fraction(1, 2), "e10": Fraction(-1, 3), "e11": 1}
    g = gl.make_physical_and(e["e00"], e["e01"], e["e10"], e["e11"], 3)
    clamped = g.fragment.with_clamps({0: 1, 1: 0})
    energy, states = gl.enumerate_ground_states(clamped)
    assert energy == e["e10"]
    assert states == [{0: 1, 1: 0, 2: 0}]


def test_physical_and_logic_dominance_guard():
    with pytest.raises(gl.LogicDominanceError):
        gl.make_physical_and(0, 0, 0, -3, 2)


def test_symmetrized_physical_and():
    g = gl.symmetrize(gl.make_physical_and(0, 0, 0, -1, 2))
    rep = gl.check_edc(g)
    assert rep.is_edc
    # ground energy is the sum of the four per-pattern values for every input
    assert set(rep.per_input_ground.values()) == {Fraction(-1)}
    assert gl.check_implements(g, gl.AND2).implements


def test_symmetrize_element_count():
    g = gl.symmetrize(gl.synthesize_gadget(gl.AND2, 1))
    assert g.counts == {"AND": 4, "inverter": 2}
    # 4 copies with one output each, plus 2 shared inverter nets
    assert len(g.ancillae) == 3 + 2


def test_symmetrize_inverter_stays_edc():
    g = gl.symmetrize(gl.synthesize_gadget(gl.NOT, 1))
    assert gl.check_edc(g).is_edc
    assert gl.check_implements(g, gl.NOT).implements


def test_symmetrize_refuses_size_explosion():
    sym_inputs = 9
    frag_vars = tuple(gl.Variable(i) for i in range(sym_inputs + 1))
    term = gl.EnergyTerm(tuple(range(8)), tuple([0] * 256))
    big = gl.Gadget("wide", tuple(range(sym_inputs)), sym_inputs, (),
                    gl.EnergyModel(frag_vars, (term,)))
    with pytest.raises(gl.ModelError):
        gl.symmetrize(big)


def test_symmetrize_rejects_weak_inverter_penalty():
    base = gl.make_physical_and(0, 0, 0, -1, 2)
    with pytest.raises(gl.LogicDominanceError):
        gl.symmetrize(base, inverter_penalty=2)  # needs > 4 for spread 1


def test_symmetrization_theorem_family():
    """Symmetrizing preserves the computed function and always restores
    input-independent ground energy, for 2- and 3-input gadgets."""
    rng = random.Random(21)
    family = []
    for fn in ALL_TWO_INPUT:
        family.append((gl.synthesize_gadget(fn, 1), fn))
    for _ in range(4):
        profile = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(4)]
        spread = max(profile) - min(profile)
        family.append((gl.make_physical_and(*profile, spread + 1), gl.AND2))
    for _ in range(4):
        fn = gl.TruthFunction(3, tuple(rng.randint(0, 1) for _ in range(8)))
        family.append((gl.synthesize_gadget(fn, 1), fn))

    for g, fn in family:
        grounds = gl.per_input_grounds(g)
        sym = gl.symmetrize(g)
        rep = gl.check_edc(sym)
        assert rep.is_edc
        assert set(rep.per_input_ground.values()) == {sum(grounds)}
        if gl.check_implements(g, fn).implements:
            assert gl.check_implements(sym, fn).implements


def test_decompose_xor():
    nl = gl.decompose_to_basis(gl.XOR2)
    assert gl.netlist_truth_table(nl) == gl.XOR2
    kinds = {g.kind for g in nl.gates}
    assert kinds <= {"AND", "OR", "NOT"}


def test_decompose_constants():
    one = gl.TruthFunction(2, (1, 1, 1, 1))
    nl = gl.decompose_to_basis(one)
    assert gl.netlist_truth_table(nl) == one
    net = gl.compile_netlist(nl)
    _, states = net.ground_states()
    y = net.port_map["y"]
    assert all(a[y] == 1 for a in states)

    zero = gl.TruthFunction(1, (0, 0))
    assert gl.netlist_truth_table(gl.decompose_to_basis(zero)) == zero


def test_decompose_single_literals():
    ident = gl.TruthFunction(1, (0, 1))
    assert gl.netlist_truth_table(gl.decompose_to_basis(ident)) == ident
    neg = gl.TruthFunction(1, (1, 0))
    assert gl.netlist_truth_table(gl.decompose_to_basis(neg)) == neg


def test_decompose_random_four_ary():
    rng = random.Random(22)
    for _ in range(10):
        fn = gl.TruthFunction(4, tuple(rng.randint(0, 1) for _ in range(16)))
        nl = gl.decompose_to_basis(fn)
        assert gl.netlist_truth_table(nl) == fn


def test_gadget_dump_round_trip():
    g = gl.symmetrize(gl.make_physical_and(0, 0, 0, -1, 2))
    text = gl.format_gadget(g)
    parsed = gl.parse_gadget(text)
    assert parsed.inputs == g.inputs
    assert parsed.output == g.output
    assert parsed.ancillae == g.ancillae
    assert parsed.fragment == g.fragment
    rep = gl.check_edc(parsed)
    assert rep.is_edc and set(rep.per_input_ground.values()) == {Fraction(-1)}


def test_gadget_port_validation():
    frag = gl.EnergyModel((gl.Variable(0), gl.Variable(1)), (gl.EnergyTerm((0, 1), (0, 1, 1, 0)),))
    with pytest.raises(gl.ModelError):
        gl.Gadget("bad", (0,), 0, (), frag)  # output collides with input
    with pytest.raises(gl.ModelError):
        gl.Gadget("bad", (0,), 1, (1,), frag)  # ancilla collides with output


def _scan_reference(g, fn):
    """Per input pattern, (ground energy, best wrong-output energy) by a
    plain loop over the internal variables."""
    out = []
    for x in range(1 << g.arity):
        energies = {0: [], 1: []}
        for bits in itertools.product((0, 1), repeat=len(g.internal_vars)):
            a = {v: (x >> j) & 1 for j, v in enumerate(g.inputs)}
            a.update(zip(g.internal_vars, bits))
            energies[a[g.output]].append(gl.total_energy(g.fragment, a))
        want = fn.outputs[x]
        out.append((min(energies[0] + energies[1]), min(energies[1 - want])))
    return out


@pytest.mark.parametrize("which", ["synthesized", "physical", "symmetrized"])
def test_checks_on_parsed_gadget_with_ports_not_inputs_first(which):
    fn = gl.AND2
    if which == "synthesized":
        fn = gl.TruthFunction(3, (1, 0, 0, 1, 1, 1, 0, 0))
        g = gl.synthesize_gadget(fn, Fraction(3, 2))
    elif which == "physical":
        g = gl.make_physical_and(0, Fraction(1, 2), -1, 2, 5)
    else:
        g = gl.symmetrize(gl.make_physical_and(0, Fraction(1, 2), -1, 2, 5))
    # reversed ids put the inputs last and the output among the ancillae
    top = max(g.fragment.var_ids)
    lines = gl.format_gadget(g).splitlines()
    renamed = []
    for line in lines:
        head, *rest = line.split(" : ")
        tokens = head.split()
        if tokens[0] == "VAR":
            tokens[1] = str(top - int(tokens[1]))
        elif tokens[0] == "TERM":
            tokens[2:] = [str(top - int(t)) for t in tokens[2:]]
        elif tokens[0] == "PORT":
            tokens[2] = str(top - int(tokens[2]))
        renamed.append(" : ".join([" ".join(tokens), *rest]))
    parsed = gl.parse_gadget("\n".join(renamed) + "\n")
    assert parsed.inputs == tuple(top - v for v in g.inputs)
    assert max(parsed.inputs) == top
    reference = _scan_reference(parsed, fn)
    edc = gl.check_edc(parsed)
    assert list(edc.per_input_ground.values()) == [e for e, _ in reference]
    assert edc == gl.check_edc(g)
    gap = min(wrong - e for e, wrong in reference)
    assert gl.check_implements(parsed, fn) == gl.ImplementsReport(gap > 0, gap)
    assert gl.check_implements(g, fn) == gl.ImplementsReport(gap > 0, gap)


def _random_gadget(rng, n_inputs=3, n_ancillae=3):
    """A gadget over random 1- to 3-local rational terms, with its port ids
    shuffled so that inputs sit among the low and the high roots."""
    n = n_inputs + 1 + n_ancillae
    ids = list(range(n))
    rng.shuffle(ids)
    terms = []
    for _ in range(2 * n):
        vars_ = tuple(rng.sample(range(n), rng.randint(1, 3)))
        table = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(1 << len(vars_)))
        terms.append(gl.EnergyTerm(vars_, table))
    fragment = gl.EnergyModel(tuple(gl.Variable(i) for i in range(n)), tuple(terms))
    return gl.Gadget("random", tuple(ids[:n_inputs]), ids[n_inputs], tuple(ids[n_inputs + 1:]), fragment)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_gadget_scans_across_blocks(seed):
    rng = random.Random(seed)
    g = _random_gadget(rng)
    fn = gl.TruthFunction(3, tuple(rng.randint(0, 1) for _ in range(8)))
    reference = _scan_reference(g, fn)
    grounds = [e for e, _ in reference]
    gap = min(wrong - e for e, wrong in reference)
    # one state per block, a few states per block (inputs among the roots
    # fixed per block), and the default
    for budget in (1, 5000, gl.model._BLOCK_BYTES):
        with mock.patch.object(gl.model, "_BLOCK_BYTES", budget):
            assert gl.per_input_grounds(g) == grounds
            edc = gl.check_edc(g)
            assert list(edc.per_input_ground.values()) == grounds
            assert edc.is_edc == (len(set(grounds)) == 1)
            assert gl.check_implements(g, fn) == gl.ImplementsReport(gap > 0, gap)


@pytest.mark.parametrize("which", ["physical", "symmetrized"])
def test_plan_fallback_across_blocks(which):
    g = gl.make_physical_and(0, Fraction(1, 2), -1, 2, 5)
    if which == "symmetrized":
        g = gl.symmetrize(g)
    grounds = [e for e, _ in _scan_reference(g, gl.AND2)]
    for budget in (1, 5000, gl.model._BLOCK_BYTES):
        with mock.patch.object(gl.model, "_BLOCK_BYTES", budget):
            # a cap of one state per input pattern forces the plan fallback
            assert gl.per_input_grounds(g, cap=1 << g.arity) == grounds
            assert gl.check_edc(g, cap=1 << g.arity).is_edc == (which == "symmetrized")


def test_plan_fallback_needs_an_exact_complete_plan():
    g = gl.make_physical_and(0, Fraction(1, 2), -1, 2, 5)
    parsed = gl.parse_gadget(gl.format_gadget(g))
    for gadget in (parsed, dataclasses.replace(g, exact_extension=False)):
        with pytest.raises(gl.CapacityError, match="has no exact extension plan"):
            gl.per_input_grounds(gadget, cap=4)


def test_parse_gadget_port_on_undeclared_variable():
    text = "VAR 0 input\nVAR 1 output\nTERM 2 0 1 : 0 1 1 0\nPORT in 0\nPORT out 2\n"
    with pytest.raises(gl.DumpFormatError) as info:
        gl.parse_gadget(text)
    assert info.value.line == 5


AND_FRAGMENT = "VAR 0 input\nVAR 1 input\nVAR 2 output\nTERM 3 0 1 2 : 0 0 0 1 1 1 1 0\n"


@pytest.mark.parametrize(
    "ports, lineno",
    [
        ("PORT in 0\nPORT in 1\nPORT in 0\nPORT out 2", 7),
        ("PORT in 0\nPORT anc 0\nPORT out 2", 6),
        ("PORT in 0\nPORT in 1\nPORT out 2\nPORT in 2", 8),
        ("PORT out 2\nPORT in 0\nPORT out 1", 7),
        ("PORT in 0\nPORT in 1\n# no out port\n", 7),
        ("PORT in 0\nPORT out 2", 6),
        ("CLAMP 1 0\nPORT in 0\nPORT in 1\nPORT out 2\n", 8),
    ],
)
def test_parse_gadget_port_errors_carry_line_numbers(ports, lineno):
    with pytest.raises(gl.DumpFormatError) as info:
        gl.parse_gadget(AND_FRAGMENT + ports)
    assert info.value.line == lineno


def test_parse_gadget_names_unlisted_and_clamped_variables():
    with pytest.raises(gl.DumpFormatError, match="variable 1 is not listed"):
        gl.parse_gadget(AND_FRAGMENT + "PORT in 0\nPORT out 2\n")
    with pytest.raises(gl.DumpFormatError, match="variable 1 is clamped"):
        gl.parse_gadget(AND_FRAGMENT + "CLAMP 1 0\nPORT in 0\nPORT in 1\nPORT out 2\n")
    with pytest.raises(gl.DumpFormatError) as info:
        gl.parse_gadget("")
    assert info.value.line == 1


def test_gadget_builders_are_pinned():
    # every gate term's table, variables, forcings, floor and ground table,
    # byte for byte: synthesized gates of arity 1-3, their symmetrizations,
    # physical ANDs and wire chains, then one netlist through both policies
    # with a physical AND profile and two wire chains
    gadgets = []
    for k in (1, 2, 3):
        for outs in itertools.product((0, 1), repeat=1 << k):
            for p in (1, Fraction(3, 2)):
                g = gl.synthesize_gadget(gl.TruthFunction(k, outs), p)
                gadgets += [g, gl.symmetrize(g)] if k < 3 else [g]
    for args in ((0, 0, 0, 0, 1), (0, 0, 0, -1, 2), (0, Fraction(1, 2), -1, 2, 5),
                 (3, -1, Fraction(2, 3), 0, 7)):
        g = gl.make_physical_and(*args)
        gadgets += [g, gl.symmetrize(g), gl.symmetrize(g, inverter_penalty=100)]
    gadgets += [gl.make_wire_chain(n, c) for n in (2, 3, 5) for c in (1, Fraction(2, 3))]
    assert len(gadgets) == 610
    text = "".join(
        gl.format_gadget(g) + repr((g.name, tuple(g.forcings), g.counts, g.penalty_floor,
                                    g.ground_table, g.exact_extension)) + "\n"
        for g in gadgets)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7590262e359a01955b82310ae778a6a3d3d49c3e7aec6d89495934b3d9d5e807")

    nl = gl.parse_netlist("INPUT a\nINPUT b\nINPUT c\nOUTPUT y\n"
                          "GATE AND a b -> t\nGATE OR t c -> u\nGATE NOT u -> y\n")
    nets = [gl.compile_netlist(nl, policy, penalty=3, and_profile=(0, 0, 0, -1),
                               wire_chains={"a": 3, "u": 2}, wire_coupling=Fraction(1, 2))
            for policy in ("penalty", "edc-symmetrized")]
    text = "".join(
        gl.format_model(n.model) + repr((n.plan, n.elements, n.penalty_floor, n.base_ground)) + "\n"
        for n in nets)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6c017674f9e4151f2ec3698f8210f0028da9a5a02d4e1e143f59e5f2d4ad913c")
