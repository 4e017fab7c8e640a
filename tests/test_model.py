import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import groundlogic as gl
from util import FLIPPER, TWO_STATE, random_model, reference_anneal, reference_integer_terms

WIRE = gl.EnergyTerm((0, 1), (0, 1, 1, 0))


def and_penalty_model(clamps=None):
    g = gl.synthesize_gadget(gl.AND2, 1)
    model = g.fragment
    return model.with_clamps(clamps) if clamps else model


def test_total_energy_empty_sum():
    m = gl.EnergyModel((gl.Variable(0), gl.Variable(1)))
    assert gl.total_energy(m, {0: 1, 1: 0}) == 0


def test_total_energy_and_rows():
    m = and_penalty_model()
    assert gl.total_energy(m, {0: 1, 1: 1, 2: 1}) == 0
    assert gl.total_energy(m, {0: 1, 1: 1, 2: 0}) == 1


def test_total_energy_missing_variable():
    m = and_penalty_model()
    with pytest.raises(gl.IncompleteAssignmentError):
        gl.total_energy(m, {0: 1, 1: 1})


def test_wire_term_ground_set():
    m = gl.EnergyModel((gl.Variable(0), gl.Variable(1)), (WIRE,))
    e, states = gl.enumerate_ground_states(m)
    assert e == 0
    assert states == [{0: 0, 1: 0}, {0: 1, 1: 1}]


def test_and_with_clamped_inputs():
    m = and_penalty_model({0: 1, 1: 1})
    e, states = gl.enumerate_ground_states(m)
    assert e == 0
    assert states == [{0: 1, 1: 1, 2: 1}]


def test_enumeration_capacity_error():
    m = gl.EnergyModel(tuple(gl.Variable(i) for i in range(5)))
    with pytest.raises(gl.CapacityError):
        gl.enumerate_ground_states(m, cap=8)


def test_with_terms_and_with_clamps_match_a_rebuilt_model():
    m = random_model(random.Random(5), n_vars=5, n_terms=4)
    extra = (WIRE, gl.EnergyTerm((4,), (1, 0)))
    assert m.with_terms(extra) == gl.EnergyModel(m.variables, m.terms + extra)
    clamped = m.with_clamps({1: 0}).with_clamps({1: 0, 3: 3})
    assert clamped == gl.EnergyModel(m.variables, m.terms, {1: 0, 3: 1})
    assert m.clamps == {}


def test_with_terms_checks_the_added_terms():
    m = gl.EnergyModel((gl.Variable(0), gl.Variable(1)), (WIRE,))
    with pytest.raises(gl.ModelError, match=r"undeclared variables \[2\]"):
        m.with_terms([gl.EnergyTerm((1, 2), (0, 1, 1, 0))])


def test_with_clamps_checks_the_merged_clamps():
    m = gl.EnergyModel((gl.Variable(0), gl.Variable(1)), (WIRE,), {0: 1})
    with pytest.raises(gl.ModelError, match="clamp on undeclared variable 5"):
        m.with_clamps({5: 1})
    with pytest.raises(gl.ModelError, match="conflicting clamp on variable 0"):
        m.with_clamps({0: 0})
    with pytest.raises(gl.ModelError, match="conflicting clamp on variable 1"):
        m.with_clamps({1: 1}).with_clamps({1: 0})
    # the constructor still checks every clamp's value
    with pytest.raises(gl.ModelError, match="clamp value must be 0 or 1, got 2"):
        gl.EnergyModel(m.variables, m.terms, {1: 2})


def test_spectrum_wire():
    m = gl.EnergyModel((gl.Variable(0), gl.Variable(1)), (WIRE,))
    rep = gl.spectrum(m)
    assert rep.ground_energy == 0
    assert rep.ground_degeneracy == 2
    assert rep.first_excited_energy == 1
    assert rep.gap == 1


def test_spectrum_single_level():
    m = gl.EnergyModel((gl.Variable(0),), clamps={0: 1})
    rep = gl.spectrum(m)
    assert rep.ground_energy == 0
    assert rep.ground_degeneracy == 1
    assert rep.first_excited_energy is None
    assert rep.gap is None


def test_spectrum_and_degeneracy_four():
    rep = gl.spectrum(and_penalty_model())
    assert rep.ground_degeneracy == 4
    assert rep.gap == 1


def test_energy_additivity():
    rng = random.Random(11)
    m = random_model(rng, n_vars=6, n_terms=6)
    left = gl.EnergyModel(m.variables, m.terms[:3])
    right = gl.EnergyModel(m.variables, m.terms[3:])
    for _ in range(50):
        a = {i: rng.randint(0, 1) for i in range(6)}
        assert gl.total_energy(m, a) == gl.total_energy(left, a) + gl.total_energy(right, a)


def test_term_order_and_relabel_invariance():
    rng = random.Random(12)
    m = random_model(rng, n_vars=6, n_terms=6)
    rep = gl.spectrum(m)

    shuffled = list(m.terms)
    rng.shuffle(shuffled)
    rep2 = gl.spectrum(gl.EnergyModel(m.variables, tuple(shuffled)))
    assert (rep.ground_energy, rep.ground_degeneracy, rep.gap) == (
        rep2.ground_energy, rep2.ground_degeneracy, rep2.gap)

    perm = list(range(6))
    rng.shuffle(perm)
    relabeled = gl.EnergyModel(
        tuple(gl.Variable(perm[v.id]) for v in m.variables),
        tuple(gl.EnergyTerm(tuple(perm[v] for v in t.vars), t.table) for t in m.terms),
    )
    rep3 = gl.spectrum(relabeled)
    assert (rep.ground_energy, rep.ground_degeneracy, rep.gap) == (
        rep3.ground_energy, rep3.ground_degeneracy, rep3.gap)


def test_clamp_consistency():
    rng = random.Random(13)
    for seed in range(5):
        m = random_model(random.Random(seed), n_vars=5, n_terms=5)
        e_clamped, clamped = gl.enumerate_ground_states(m.with_clamps({2: 1}))
        e_free, free = gl.enumerate_ground_states(m)
        filtered = [a for a in free if a[2] == 1]
        if filtered and e_free == e_clamped:
            assert clamped == filtered
        else:
            # clamping can lift the minimum; re-minimize by filtering all states
            best = min(
                (gl.total_energy(m, {**a, 2: 1})
                 for a in _all_assignments(m, fixed={2: 1})),
            )
            assert e_clamped == best


def _all_assignments(m, fixed):
    free = [v for v in m.var_ids if v not in fixed]
    for mask in range(1 << len(free)):
        a = dict(fixed)
        for i, v in enumerate(free):
            a[v] = (mask >> i) & 1
        yield a


def test_enumeration_is_exhaustive():
    rng = random.Random(14)
    m = random_model(rng, n_vars=8, n_terms=7)
    e0, states = gl.enumerate_ground_states(m)
    ground_keys = {tuple(sorted(a.items())) for a in states}
    for a in states:
        assert gl.total_energy(m, a) == e0
    for _ in range(1000):
        a = {i: rng.randint(0, 1) for i in range(8)}
        if tuple(sorted(a.items())) in ground_keys:
            continue
        assert gl.total_energy(m, a) > e0


def test_term_validation():
    with pytest.raises(gl.ModelError):
        gl.EnergyTerm((0, 0), (0, 0, 0, 0))
    with pytest.raises(gl.ModelError):
        gl.EnergyTerm((0, 1), (0, 0))
    with pytest.raises(gl.ModelError):
        gl.EnergyTerm(tuple(range(gl.K_MAX + 1)), tuple([0] * (1 << (gl.K_MAX + 1))))
    with pytest.raises(TypeError):
        gl.EnergyTerm((0,), (0.5, 0))  # floats are rejected


def test_model_validation():
    with pytest.raises(gl.ModelError):
        gl.EnergyModel((gl.Variable(0), gl.Variable(0)))
    with pytest.raises(gl.ModelError):
        gl.EnergyModel((gl.Variable(0),), (gl.EnergyTerm((1,), (0, 1)),))
    with pytest.raises(gl.ModelError):
        gl.EnergyModel((gl.Variable(0),), clamps={3: 1})


def test_dump_round_trip():
    rng = random.Random(15)
    m = random_model(rng, n_vars=5, n_terms=4).with_clamps({1: 0})
    m = gl.EnergyModel(
        tuple(gl.Variable(v.id, "input" if v.id == 0 else "wire", f"n{v.id}") for v in m.variables),
        m.terms,
        m.clamps,
    )
    text = gl.format_model(m)
    parsed = gl.parse_model(text)
    assert parsed == m
    assert gl.format_model(parsed) == text


def test_dump_fractional_energies_round_trip():
    t = gl.EnergyTerm((0,), (Fraction(-1, 3), Fraction(5, 2)))
    m = gl.EnergyModel((gl.Variable(0),), (t,))
    text = gl.format_model(m)
    assert "-1/3" in text and "5/2" in text
    assert gl.parse_model(text) == m


@pytest.mark.parametrize(
    "bad, lineno",
    [
        ("VAR 0 gremlin", 1),
        ("VAR 0 wire\nTERM 1 0 : 1", 2),
        ("VAR 0 wire\nTERM 2 0 0 : 0 0 0 0", 2),
        ("FOO 1 2", 1),
        ("CLAMP 0 2", 1),
        ("VAR 0 wire\nTERM 1 0 : 1 abc", 2),
        ("VAR 0 wire\nVAR 1 wire\nVAR 0 wire", 3),
        ("VAR -1 wire", 1),
        ("VAR 0 wire\n\nCLAMP 1 0", 3),
        ("VAR 0 wire\nTERM 2 0 1 : 0 0 0 0", 2),
        ("TERM 1 0 : 0 1\nVAR 0 wire", 1),
        ("VAR 0 wire\nCLAMP 0 0\nCLAMP 0 1", 3),
        # a table already parsed on an earlier line, on a line that is wrong
        ("VAR 0 wire\nTERM 1 0 : 1/2 3\nTERM 1 5 : 1/2 3", 3),
        ("VAR 0 wire\nVAR 1 wire\nTERM 1 0 : 1/2 3\nTERM 2 0 1 : 1/2 3", 4),
        ("VAR 0 wire\nTERM 1 0 : 1/2 3\nTERM 1 0 : 1/2 3 1/2", 3),
        ("VAR 0 wire\nVAR 1 wire\nTERM 2 0 1 : 1 2 3 4\nTERM 2 1 1 : 1 2 3 4", 4),
        # a bad token in the second of two near-identical tables
        ("VAR 0 wire\nTERM 1 0 : 1/2 3\nTERM 1 0 : 1/2 3x", 3),
        ("VAR 0 wire\nTERM 1 0 : 1/2 3\n# note\nTERM 1 0 : 1/0 3", 4),
        # a bad token after lines that reuse the same good tokens
        ("VAR 0 wire\nVAR 1 wire\nTERM 1 0 : 1/2 3\nTERM 2 0 1 : 3 1/2 1/2 3\nTERM 1 1 : 3 1/2x", 5),
        ("VAR 0 wire\nTERM 1 0 : -1 -1\nTERM 1 0 : -1 --1", 3),
    ],
)
def test_dump_parse_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(gl.DumpFormatError) as info:
        gl.parse_model(bad)
    assert info.value.line == lineno


def test_dump_comments_and_blanks_ignored():
    text = "# header\n\nVAR 0 wire  # trailing\nTERM 1 0 : 0 1\n"
    m = gl.parse_model(text)
    assert len(m.variables) == 1 and len(m.terms) == 1


def test_dump_port_lines_only_when_allowed():
    text = "VAR 0 input\nVAR 1 output\nTERM 2 0 1 : 1 0 0 1\nPORT in 0\nPORT out 1\n"
    with pytest.raises(gl.DumpFormatError) as info:
        gl.parse_model(text)
    assert info.value.line == 4
    m = gl.parse_model(text, allow_ports=True)
    assert gl.format_model(m) == text.split("PORT")[0]


@pytest.mark.parametrize("label", ["a#b", "#", "", "a  b", " a", "a ", "a\tb", "a\nCLAMP 0 1"])
def test_format_refuses_a_label_that_would_not_read_back(label):
    m = gl.EnergyModel([gl.Variable(0, "wire", "a b"), gl.Variable(1, "wire", label)])
    with pytest.raises(gl.ModelError, match="does not read back"):
        gl.format_model(m)


def test_format_refuses_a_net_name_that_would_not_read_back():
    nl = gl.Netlist(inputs=["a"], outputs=["y#1"])
    nl.gates.append(gl.Gate("NOT", ("a",), "y#1"))
    net = gl.compile_netlist(nl)
    with pytest.raises(gl.ModelError, match="'y#1' does not read back"):
        gl.format_model(net.model)
    fine = gl.EnergyModel([gl.Variable(0, "wire", "x_1 y"), gl.Variable(1, "wire", None)])
    assert gl.parse_model(gl.format_model(fine)) == fine


@st.composite
def scan_models(draw):
    """Small models with fractional tables, optionally scaled to 2**62 (the
    Python-int sums), and clamps that may leave no free variable."""
    n = draw(st.integers(0, 7))
    scale = draw(st.sampled_from((1, 1 << 62)))
    energies = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    terms = []
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        vars_ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        table = draw(st.lists(energies, min_size=1 << len(vars_), max_size=1 << len(vars_)))
        terms.append(gl.EnergyTerm(tuple(vars_), tuple(e * scale for e in table)))
    clamps = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1))) if n else {}
    return gl.EnergyModel(tuple(gl.Variable(i) for i in range(n)), tuple(terms), clamps)


def _levels(m):
    """Every energy level with its states, by a plain loop over all states."""
    levels: dict[Fraction, list] = {}
    for bits in itertools.product((0, 1), repeat=len(m.free_vars)):
        a = dict(m.clamps)
        a.update(zip(m.free_vars, bits))
        levels.setdefault(gl.total_energy(m, a), []).append(a)
    return levels


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_models())
def test_enumerate_and_spectrum_match_plain_loop(m):
    levels = _levels(m)
    e0, *rest = sorted(levels)
    e1 = rest[0] if rest else None
    states = sorted(levels[e0], key=lambda a: [a[v] for v in sorted(a)])
    report = gl.SpectrumReport(e0, len(states), e1, e1 - e0 if rest else None)
    # one state per block, a few states per block, and the default
    for budget in (1, 5000, gl.model._BLOCK_BYTES):
        with mock.patch.object(gl.model, "_BLOCK_BYTES", budget):
            result = gl.enumerate_ground_states(m)
            assert repr(result) == repr((e0, states))
            assert gl.spectrum(m) == report


def test_shared_table_counts_once_per_term_in_overflow_bound():
    # one table object on five terms: any single entry fits int64, the sum
    # of five does not
    table = (Fraction(1 << 61), Fraction(0))
    m = gl.EnergyModel(
        tuple(gl.Variable(i) for i in range(5)),
        tuple(gl.EnergyTerm((i,), table) for i in range(5)),
    )
    assert len({id(t.table) for t in m.terms}) == 1
    levels = _levels(m)
    e0 = min(levels)
    assert gl.enumerate_ground_states(m) == (e0, levels[e0])
    assert gl.spectrum(m).first_excited_energy == 1 << 61


@pytest.mark.parametrize("seed", [1, 2])
def test_clamps_inside_terms_spanning_high_roots(seed):
    # 10 variables, two clamped: 8 roots, of which a 5000-byte block keeps
    # the low ones; every term mixes a clamp with low and high roots, and
    # the same root set recurs so blind tables are summed
    rng = random.Random(seed)
    terms = []
    for _ in range(12):
        vars_ = (rng.choice((2, 7)), rng.choice((0, 1, 3)), rng.choice((6, 8, 9)))
        table = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(8))
        terms.append(gl.EnergyTerm(vars_, table))
    terms.append(gl.EnergyTerm((2, 7), tuple(Fraction(e) for e in (5, -1, 2, 3))))
    m = gl.EnergyModel(tuple(gl.Variable(i) for i in range(10)), tuple(terms), {2: 1, 7: 0})
    levels = _levels(m)
    e0, e1 = sorted(levels)[:2]
    states = sorted(levels[e0], key=lambda a: [a[v] for v in sorted(a)])
    for budget in (1, 5000, gl.model._BLOCK_BYTES):
        with mock.patch.object(gl.model, "_BLOCK_BYTES", budget):
            assert repr(gl.enumerate_ground_states(m)) == repr((e0, states))
            assert gl.spectrum(m) == gl.SpectrumReport(e0, len(states), e1, e1 - e0)


def test_one_table_under_different_clamp_patterns():
    # one table object on seven terms, clamped seven ways: not at all, one
    # argument to 0 or to 1 at each end and in the middle, and fully (twice,
    # into the offset); every entry differs, so a fold read at the wrong
    # bits, or shared between clamp patterns, changes some energy
    shared = tuple(Fraction(e, 3) for e in (2, -5, 7, 1, -4, 11, 3, -8))
    clamps = {3: 0, 4: 1, 5: 1}
    patterns = [(0, 1, 2), (3, 0, 1), (4, 1, 2), (0, 5, 2), (0, 1, 3), (3, 4, 5), (5, 4, 3)]
    terms = [gl.EnergyTerm(vars_, shared) for vars_ in patterns]
    terms.append(gl.EnergyTerm((6, 2), tuple(map(Fraction, (0, 3, -2, 5)))))
    m = gl.EnergyModel(tuple(gl.Variable(i) for i in range(7)), tuple(terms), clamps)
    assert len({id(t.table) for t in m.terms[:7]}) == 1
    levels = _levels(m)
    e0, e1 = sorted(levels)[:2]
    states = sorted(levels[e0], key=lambda a: [a[v] for v in sorted(a)])
    assert repr(gl.enumerate_ground_states(m)) == repr((e0, states))
    assert gl.spectrum(m) == gl.SpectrumReport(e0, len(states), e1, e1 - e0)
    sched = gl.AnnealSchedule(t_start=3.0, t_end=0.2, sweeps=60, restarts=3, seed=4)
    assert repr(gl.metropolis_anneal(m, sched, target=e0)) == repr(
        reference_anneal(m, sched, target=e0)
    )

    # a compiled netlist whose AND gadget table is shared by three gates:
    # clamping an input and the output folds the gathered terms
    nl = gl.parse_netlist(
        "INPUT a\nINPUT b\nOUTPUT y\n"
        "GATE AND a b -> c\nGATE AND c a -> d\nGATE AND b d -> y\n"
    )
    net = gl.compile_netlist(nl, penalty=2)
    # (a, y) = (0, 1) has no consistent state
    for a, y in ((0, 0), (1, 0), (1, 1)):
        clamped = gl.clamp_inputs(net, {"a": a}).with_net_clamps({"y": y})
        assert clamped.ground_states() == gl.enumerate_ground_states(clamped.model)


def _same_integer_terms(m):
    got = gl.model._integer_terms(m)
    want = reference_integer_terms(m)
    assert got[:2] == want[:2]
    assert got[2].tables == want[2].tables
    for column, expected in zip(got[2][:3], want[2][:3]):
        assert np.array_equal(column, expected)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_models())
def test_integer_terms_match_term_by_term_fold(m):
    _same_integer_terms(m)


# a little-endian binary increment that halts once the carry is absorbed
INCREMENT = gl.DtmSpec(
    ("carry", "done"), "carry", frozenset({"done"}),
    {("carry", 1): ("carry", 0, "U"), ("carry", 0): ("done", 1, "U")},
)


@pytest.mark.parametrize("machine, p, policy", [
    ("flipper", 6, "penalty"), ("flipper", 4, "edc-symmetrized"),
    ("two-state", 4, "penalty"), ("two-state", 2, "edc-symmetrized"),
    ("increment", 4, "penalty"), ("increment", 2, "edc-symmetrized"),
])
def test_integer_terms_of_free_row_lattices_match_term_by_term_fold(machine, p, policy):
    # the lattices that perfbench's dtm-verify checks: thousands of terms
    # folded under a few clamp patterns of the boundary buses
    dtm = {"flipper": FLIPPER, "two-state": TWO_STATE, "increment": INCREMENT}[machine]
    for head in sorted({1, p}):
        _same_integer_terms(gl.build_lattice(dtm, p, head, policy=policy).network.model)


def _forcing_plan(rng):
    """A small model with a random topological plan: 0/1 tables of arity
    1-4 (constants and XOR among them) and one of arity 8, each reading
    earlier variables; some forced variables are clamped, so some plans
    leave no mask alive.  Ids are spaced out on some draws.  Seven roots
    give 128 masks, past one 64-bit word.  Energy tables are random, or
    one low entry under a repeated higher one, so that a table's minimum
    is not its most common entry; some draws scale them by 2**62, which
    sums in Python ints."""
    stride = rng.choice((1, 3))
    n_roots = rng.choice((0, 1, 2, 3, 4, 7))
    clamps = {}
    known = []  # roots, clamps and forced variables, in the order they are set
    for v in range(n_roots + rng.randint(0 if n_roots else 1, 2)):
        known.append(v * stride)
        if v >= n_roots:
            clamps[v * stride] = rng.randint(0, 1)
    forcings = []
    # at least 8 variables are known when the arity-8 table comes
    for k in [rng.randint(1, 4) for _ in range(rng.randint(7, 9))] + [8]:
        k = min(k, len(known))
        xor = tuple(bin(x).count("1") & 1 for x in range(1 << k))
        table = rng.choice([(0,) * (1 << k), (1,) * (1 << k), xor] + [None] * 3)
        table = table or tuple(rng.randint(0, 1) for _ in range(1 << k))
        var = len(known) * stride
        if rng.random() < 0.2:
            clamps[var] = rng.randint(0, 1)
        forcings.append(gl.Forcing(var, tuple(rng.sample(known, k)), table))
        known.append(var)
    scale = rng.choice((1, 1 << 62))
    terms = []
    for _ in range(rng.randint(1, 6)):
        vars_ = rng.sample(known, rng.randint(1, 3))
        table = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(1 << len(vars_))]
        if rng.random() < 0.5:
            low, high = sorted(rng.sample(range(-3, 4), 2))
            table = [Fraction(high)] * len(table)
            table[rng.randrange(len(table))] = Fraction(low)
        terms.append(gl.EnergyTerm(tuple(vars_), tuple(e * scale for e in table)))
    model = gl.EnergyModel(tuple(gl.Variable(v) for v in known), tuple(terms), clamps)
    return model, gl.model.Plan(forcings)


def _plain_ground_matrix(m, plan):
    """`_ground_matrix` by a loop over the root masks that applies the
    forcings one by one, in plan order: the report of the two lowest levels
    over the alive masks, the keys and the ground states."""
    forced = [f.var for f in plan if f.var not in m.clamps]
    roots = [v for v in m.var_ids if v not in m.clamps and v not in forced]
    levels: dict[Fraction, list] = {}
    for mask in range(1 << len(roots)):
        a = dict(m.clamps)
        a.update((v, mask >> i & 1) for i, v in enumerate(roots))
        alive = True
        for f in plan:
            got = f.table[sum(a[x] << j for j, x in enumerate(f.args))]
            if f.var in m.clamps:
                alive = alive and got == m.clamps[f.var]
            else:
                a[f.var] = got
        if alive:
            levels.setdefault(gl.total_energy(m, a), []).append([a[v] for v in m.var_ids])
    if not levels:
        return None
    e0, *rest = sorted(levels)
    e1 = rest[0] if rest else None
    report = gl.SpectrumReport(e0, len(levels[e0]), e1, e1 - e0 if rest else None)
    states = np.array(sorted(levels[e0]), dtype=np.uint8).T
    return report, list(m.clamps) + roots + forced, states


@pytest.mark.parametrize("size", [1, 8, 63, 64, 65, 512])
def test_unpacked_rows_match_a_bit_loop(size):
    # blocks of up to 64 masks convert their ints through uint64, larger
    # ones through bytes; both give bit m of each int at column m
    rng = random.Random(size)
    ints = [rng.getrandbits(size) for _ in range(5)] + [(1 << size) - 1, 0]
    expected = [[x >> m & 1 for m in range(size)] for x in ints]
    assert gl.model._unpacked(ints, size).tolist() == expected
    assert gl.model._unpacked([], size).shape == (0, size)


# The plan is built from one seeded generator: a failing case then shrinks
# in seconds, where a strategy of a few hundred draws took minutes.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_ground_matrix_of_arbitrary_forcing_tables_matches_plain_loop(rng):
    m, plan = _forcing_plan(rng)
    expected = _plain_ground_matrix(m, plan)
    # one mask per block; up to 64 masks per block, one uint64 word each;
    # and the default, which holds 128 masks, Python ints, on seven roots
    for budget in (1, 5000, gl.model._BLOCK_BYTES):
        with mock.patch.object(gl.model, "_BLOCK_BYTES", budget):
            got = gl.model._ground_matrix(m, plan, gl.model.DEFAULT_CAP)
            levels_only = gl.model._ground_matrix(m, plan, gl.model.DEFAULT_CAP, states=False)
        if expected is None:
            assert got is None and levels_only is None
            continue
        assert got[:2] == expected[:2]
        assert np.array_equal(got[2], expected[2])
        assert levels_only == (expected[0], expected[1], None)


# Spellings of a few values, several per value, so equal tables can be
# written with different text.
SPELLINGS = ("1/2", "2/4", "0.5", "-3", "-6/2", "0", "-0", "00", "1", "7/3", "14/6")


@st.composite
def pooled_dumps(draw):
    """Dump text whose TERM lines draw their energies from a small pool of
    token lists, so tables repeat verbatim and in other spellings."""
    n = draw(st.integers(1, 5))
    lines = [f"VAR {i} wire" for i in range(n)]
    if draw(st.booleans()):
        lines.append(f"CLAMP {draw(st.integers(0, n - 1))} {draw(st.integers(0, 1))}")
    pools = {
        k: draw(st.lists(st.lists(st.sampled_from(SPELLINGS), min_size=1 << k, max_size=1 << k),
                         min_size=1, max_size=3))
        for k in (1, 2, 3)
    }
    for _ in range(draw(st.integers(0, 12))):
        vars_ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 3), unique=True))
        energies = draw(st.sampled_from(pools[len(vars_)]))
        lines.append(f"TERM {len(vars_)} {' '.join(map(str, vars_))} : {' '.join(energies)}")
    return "\n".join(lines) + "\n"


def _reference_parse(text):
    """Every energy token through Fraction on its own; no sharing."""
    variables, clamps, terms = [], {}, []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "VAR":
            variables.append(gl.Variable(int(tokens[1]), tokens[2]))
        elif tokens[0] == "CLAMP":
            clamps[int(tokens[1])] = int(tokens[2])
        else:
            k = int(tokens[1])
            vids = tuple(int(t) for t in tokens[2 : 2 + k])
            terms.append(gl.EnergyTerm(vids, tuple(Fraction(t) for t in tokens[3 + k :])))
    return gl.EnergyModel(tuple(variables), tuple(terms), clamps)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pooled_dumps())
def test_parse_with_repeated_tables_matches_per_token_parse(text):
    parsed = gl.parse_model(text)
    assert parsed == _reference_parse(text)
    canonical = gl.format_model(parsed)
    assert gl.format_model(gl.parse_model(canonical)) == canonical
    # a fresh parse of the formatted text reads as the same model
    assert gl.parse_model(canonical) == parsed


def test_repeated_term_lines_share_one_table():
    text = "VAR 0 wire\nVAR 1 wire\nTERM 1 0 : 1/2 3\nTERM 1 1 : 1/2 3\nTERM 1 1 : 2/4 3\n"
    first, second, respelled = gl.parse_model(text).terms
    assert first.table is second.table
    assert respelled.table == first.table
    # compiled copies of a gadget keep the gadget's table objects
    g = gl.symmetrize(gl.synthesize_gadget(gl.AND2, 1))
    net = gl.compile_netlist(gl.parse_netlist(
        "INPUT a\nINPUT b\nINPUT c\nOUTPUT y\nGATE AND a b -> t\nGATE AND t c -> y\n"
    ), policy="edc-symmetrized")
    distinct = {id(t.table) for t in net.model.terms}
    assert len(distinct) == len({id(t.table) for t in g.fragment.terms})


DUMP_WORDS = ("VAR", "CLAMP", "TERM", "PORT", "in", "out", "anc", "wire", "input", "gremlin",
              ":", "#", "0", "1", "2", "3", "-1", "1/2", "1/0", "x", "8", "9", "0.5")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.lists(st.sampled_from(DUMP_WORDS), max_size=8), max_size=8).map(
        lambda lines: "\n".join(" ".join(words) for words in lines)),
    st.text(alphabet="VARTEMCLPOin 0123456789-/:#.\n\t"),
    st.text(max_size=40),
))
def test_arbitrary_text_raises_only_dump_format_errors(text):
    for parse in (gl.parse_model, lambda t: gl.parse_model(t, allow_ports=True), gl.parse_gadget):
        try:
            parse(text)
        except gl.DumpFormatError as exc:
            assert exc.line >= 1


def test_energy_term_coerces_entries_as_before():
    term = gl.EnergyTerm([0], [1, "-3/6"])
    assert type(term.vars) is tuple and type(term.table) is tuple
    assert term.table == (Fraction(1), Fraction(-1, 2))
    assert all(type(e) is Fraction for e in term.table)

    class Half(Fraction):
        pass

    term = gl.EnergyTerm((0,), (Half(1, 2), Fraction(3)))
    assert type(term.table) is tuple and term.table == (Fraction(1, 2), Fraction(3))

    class Table(tuple):
        pass

    shared = (Fraction(1), Fraction(2))
    assert type(gl.EnergyTerm((0,), Table(shared)).table) is tuple
    assert gl.EnergyTerm((0,), shared).table is shared
    with pytest.raises(TypeError):
        gl.EnergyTerm((0,), (Fraction(1), 0.5))
    with pytest.raises(TypeError):
        gl.EnergyTerm((0,), [0.25, 1])

