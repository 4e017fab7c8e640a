"""Models, plans and dumps in columns: the column parser against the
line-by-line oracle, object round trips, and placement that is not
injective."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import groundlogic as gl
from util import FLIPPER, random_model, random_netlist, reference_parse_statements, terms_of

ENERGIES = ("0", "1", "-2", "1/2", "3/4", "-5/3", "0.25")
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _spelled(draw, v):
    """Id v as written on a dump line: mostly plain, sometimes in another
    spelling that `int` reads as v."""
    return draw(st.sampled_from((str(v), str(v), str(v), f"0{v}", f"+{v}", f"0_{v}",
                                 str(v).translate(ARABIC_INDIC))))


@st.composite
def valid_dump_lines(draw, ports=False):
    """Lines of a valid dump: VARs, then CLAMP and TERM lines (with comments
    and blanks), and, for gadget dumps, one PORT line per variable.  Id
    tokens are sometimes respelled (`_spelled`)."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    roles = st.sampled_from(gl.model.ROLES)
    lines = [f"VAR {_spelled(draw, v)} {draw(roles)}"
             + draw(st.sampled_from(("", " a label", "  # note"))) for v in ids]
    pool = [draw(st.lists(st.sampled_from(ENERGIES), min_size=1 << k, max_size=1 << k))
            for k in (1, 2, 3)]
    clamped = set()
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            vars_ = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=min(3, n), unique=True))
            energies = pool[len(vars_) - 1] if draw(st.booleans()) else draw(
                st.lists(st.sampled_from(ENERGIES), min_size=1 << len(vars_), max_size=1 << len(vars_)))
            spelled = " ".join(_spelled(draw, v) for v in vars_)
            lines.append(f"TERM {len(vars_)} {spelled} : {' '.join(energies)}")
        elif len(clamped) < n:
            v = draw(st.sampled_from([v for v in ids if v not in clamped]))
            clamped.add(v)
            lines.append(f"CLAMP {_spelled(draw, v)} {draw(st.integers(0, 1))}")
        else:
            lines.append(draw(st.sampled_from(("", "# comment", "   "))))
    if ports:
        kinds = ["out"] + ["in"] * (n - 1)
        lines += [f"PORT {kind} {_spelled(draw, v)}"
                  for kind, v in zip(kinds, draw(st.permutations(ids)))]
    return lines, ids


def _defect(draw, lines, ids):
    """One line with a defect: an undeclared id, a use before its VAR, a
    repeated id, a bad arity, a wrong token count, a bad energy or id token,
    a duplicate VAR or CLAMP, a bad role or statement, or a bad PORT."""
    v, w = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
    later = max(ids) + draw(st.integers(1, 3))
    return draw(st.sampled_from((
        f"TERM 1 {later} : 0 1",
        f"CLAMP {later} 1",
        f"TERM 2 {v} {v} : 0 1 2 3",
        f"TERM 2 {v} {later} : 0 1 2 3",
        f"TERM 2 {later} {v} : 0 1 2 x",
        f"TERM {draw(st.sampled_from(('0', '9', 'x', '-1', '')))} {v} : 0 1",
        f"TERM 1 {v} : 0",
        f"TERM 1 {v} 0 1",
        f"TERM 2 {v} {w} : 0 1 1/0 2",
        f"TERM 1 {v} : 0 {draw(st.sampled_from(('abc', '1/0', '--1', '2x')))}",
        f"TERM 1 x{v} : 0 1",
        f"TERM 03 {v} {w} {later} : 0 1 2 3 4 5 6 7",
        f"VAR {v} wire",
        f"VAR {later} wire",
        f"VAR {later}",
        f"VAR -{later} wire",
        f"VAR {later} gremlin",
        f"VAR {v} gremlin",
        f"VAR 99999999999999999999 wire",
        f"CLAMP {v} {draw(st.integers(0, 1))}",
        f"CLAMP {v} 2",
        "CLAMP x 0",
        "FOO 1 2",
        f"PORT in {v}",
        f"PORT out {w}",
        f"PORT anc {later}",
        f"PORT sideways {v}",
    )))


@st.composite
def defective_dumps(draw):
    allow_ports = draw(st.booleans())
    lines, ids = draw(valid_dump_lines(ports=allow_ports))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), _defect(draw, lines, ids))
    if draw(st.booleans()) and len(lines) > 1:
        # move one line to another place: a VAR may land after a use
        line = lines.pop(draw(st.integers(0, len(lines) - 1)))
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(("\n", ""))), allow_ports


@settings(max_examples=600, deadline=None, derandomize=True)
@given(defective_dumps())
def test_column_parser_matches_line_by_line_oracle(case):
    text, allow_ports = case
    try:
        variables, clamps, terms, ports = reference_parse_statements(text, allow_ports)
    except gl.DumpFormatError as exc:
        with pytest.raises(gl.DumpFormatError) as info:
            gl.model.parse_statements(text, allow_ports)
        assert (info.value.line, str(info.value)) == (exc.line, str(exc))
        return
    model, got_ports = gl.model.parse_statements(text, allow_ports)
    assert model == gl.EnergyModel(variables, terms, clamps)
    assert got_ports == ports
    assert gl.format_model(model) == gl.format_model(gl.EnergyModel(variables, terms, clamps))


@pytest.mark.parametrize("text, line, message", [
    # the first failing line wins, whatever kind of check fails later
    ("VAR 0 wire\nTERM 1 1 : 0 1\nTERM 1 0 : 0 x", 2, "variable 1 is not declared by an earlier VAR"),
    ("VAR 0 wire\nTERM 1 0 : 0 x\nTERM 1 1 : 0 1", 2, "bad energy 'x'"),
    ("VAR 0 wire\nTERM 1 5 : 0 x", 2, "variable 5 is not declared by an earlier VAR"),
    ("VAR 0 wire\nTERM 2 0 x : 0 1 2 y", 2, "bad variable id 'x'"),
    ("VAR 0 wire\nTERM 2 0 0 : 0 1 2 y", 2, "bad energy 'y'"),
    ("VAR 0 wire\nVAR 0 gremlin", 2, "duplicate variable id 0"),
    ("VAR -1 gremlin", 1, "variable id must be non-negative, got -1"),
    ("VAR x gremlin", 1, "bad variable id 'x'"),
    ("VAR 0 wire\nCLAMP 0 1\nVAR 1 wire\nCLAMP 0 1\nTERM 1 1 : 0 x", 4, "variable 0 is already clamped"),
    ("TERM 03 0 1 2 : 0 1 2 3 4 5 6 7\nVAR 0 wire", 1, "variable 0 is not declared by an earlier VAR"),
])
def test_first_failing_line_and_message(text, line, message):
    with pytest.raises(gl.DumpFormatError) as info:
        gl.parse_model(text)
    assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")


@st.composite
def object_models(draw):
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n, unique=True))
    variables = tuple(
        gl.Variable(v, draw(st.sampled_from(gl.model.ROLES)), draw(st.sampled_from((None, "x", "a b"))))
        for v in ids
    )
    tables = [tuple(Fraction(e) for e in draw(st.lists(st.sampled_from(ENERGIES),
                                                       min_size=1 << k, max_size=1 << k)))
              for k in (1, 2, 3)]
    terms = []
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        vars_ = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=min(3, n), unique=True))
        shared = draw(st.booleans())
        table = tables[len(vars_) - 1] if shared else tuple(
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(1 << len(vars_)))
        terms.append(gl.EnergyTerm(tuple(vars_), table))
    clamps = draw(st.dictionaries(st.sampled_from(ids), st.integers(0, 1))) if n else {}
    return variables, tuple(terms), clamps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(object_models())
def test_model_gives_back_its_objects(case):
    variables, terms, clamps = case
    m = gl.EnergyModel(variables, terms, clamps)
    assert m.variables == variables and repr(m.variables) == repr(variables)
    assert m.terms == terms and repr(m.terms) == repr(terms)
    assert all(a.table is b.table for a, b in zip(m.terms, terms))
    assert m.clamps == clamps
    assert m == gl.EnergyModel(m.variables, m.terms, m.clamps)
    assert repr(m) == (f"EnergyModel(variables={variables!r}, terms={terms!r}, "
                       f"clamps={clamps!r})")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.sampled_from(gl.netbuilder.POLICIES))
def test_network_plan_gives_back_its_forcings(seed, policy):
    nl = random_netlist(random.Random(seed), n_inputs=3, n_gates=5)
    net = gl.compile_netlist(nl, policy=policy, wire_chains={nl.outputs[0]: 3})
    plan = net.plan
    assert type(plan) is tuple and all(type(f) is gl.Forcing for f in plan)
    again = gl.model.Plan(plan)
    assert tuple(again) == plan and repr(tuple(again)) == repr(plan)
    assert again == net.forcings and len(again) == len(plan)
    g = gl.Gadget("net", (), 0, tuple(net.model.var_ids[1:]), net.model, forcings=plan)
    assert g.forcings == net.forcings and tuple(g.forcings) == plan


def test_stamp_rejects_non_injective_cell_map(monkeypatch):
    wire_cells = gl.turing._wire_cells

    def merged(*args):
        labels, n_inputs, clamp_bits, maps = wire_cells(*args)
        maps[-1][-1] = maps[-1][-2]  # two slots of the last cell on one id
        return labels, n_inputs, clamp_bits, maps

    monkeypatch.setattr(gl.turing, "_wire_cells", merged)
    with pytest.raises(gl.ModelError, match="maps two variables to one"):
        gl.build_lattice(FLIPPER, 2, 1)


def test_stamp_renames_terms_and_forcings_and_shares_tables():
    model = random_model(random.Random(5), n_vars=6, n_terms=8, max_arity=4)
    g = gl.synthesize_gadget(gl.AND2, 1)
    chain = gl.make_wire_chain(3)
    blocks = gl.model._slot_blocks([(model, gl.model.Plan()), (g.fragment, g.forcings),
                                    (chain.fragment, chain.forcings)])
    maps = gl.model._map_array([[100 + 7 * v for v in range(6)], [3, 4, 5]])
    rows, forcings = gl.model._stamp(blocks, [0, 1], maps)
    built = [gl.EnergyTerm(tuple(100 + 7 * v for v in t.vars), t.table) for t in model.terms]
    built.append(gl.EnergyTerm((3, 4, 5), g.fragment.terms[0].table))
    copies = terms_of(rows)
    assert list(copies) == built
    assert [hash(c) for c in copies] == [hash(b) for b in built]
    for copy, t in zip(copies, model.terms + g.fragment.terms):
        assert type(copy.vars) is tuple and copy.table is t.table
    assert tuple(forcings) == (gl.Forcing(5, (3, 4), gl.AND2.outputs),)
    assert type(next(iter(forcings))) is gl.Forcing
    # two slots on one id, within one term and across the chain's two terms
    for which, row in ((1, [3, 3, 4]), (2, [5, 6, 5])):
        with pytest.raises(gl.ModelError, match="maps two variables to one"):
            gl.model._stamp(blocks, [which], gl.model._map_array([row]))


@pytest.mark.parametrize("coupling", [-1, 0])
def test_wire_chain_coupling_is_checked_at_compile_time(coupling):
    nl = gl.parse_netlist("INPUT a\nOUTPUT y\nGATE NOT a -> y\n")
    with pytest.raises(gl.ModelError, match="coupling must be positive"):
        gl.compile_netlist(nl, wire_chains={"y": 3}, wire_coupling=coupling)
    assert gl.compile_netlist(nl, wire_coupling=coupling).edc  # no chain, nothing to check


NOT_NET = "INPUT a\nOUTPUT y\nGATE NOT a -> y\n"


def test_plan_reading_an_undeclared_variable_is_refused():
    net = gl.compile_netlist(gl.parse_netlist(NOT_NET))  # ids 0..n-1
    assert net.model.var_ids == (0, 1)
    for arg in (5, 7):
        bad = replace(net, forcings=gl.model.Plan([gl.Forcing(1, (arg,), (1, 0))]))
        with pytest.raises(gl.ModelError, match="reads an undeclared variable"):
            bad.ground_states()
    sparse = gl.EnergyModel([gl.Variable(0), gl.Variable(5)], [gl.EnergyTerm((0, 5), (1, 0, 0, 1))])
    plan = gl.model.Plan([gl.Forcing(5, (9,), (1, 0))])
    with pytest.raises(gl.ModelError, match="reads an undeclared variable"):
        gl.model._ground_matrix(sparse, plan, 1 << 10)
    ok = gl.model.Plan([gl.Forcing(5, (0,), (1, 0))])
    report, keys, states = gl.model._ground_matrix(sparse, ok, 1 << 10)
    assert report == gl.SpectrumReport(0, 2, None, None)
    assert gl.model._as_dicts(sparse, keys, states) == [{0: 0, 5: 1}, {0: 1, 5: 0}]


NOT_NOT = "INPUT a\nOUTPUT y\nGATE NOT a -> t\nGATE NOT t -> y\n"


def test_plan_assigning_a_variable_twice_is_refused():
    net = gl.compile_netlist(gl.parse_netlist(NOT_NOT))
    bad = replace(net, forcings=gl.model.Plan(net.plan + net.plan[:1]))
    with pytest.raises(gl.ModelError, match=r"forcing plan assigns variable \d+ twice"):
        bad.ground_states()


def test_plan_reading_a_variable_before_it_is_set_is_refused():
    net = gl.compile_netlist(gl.parse_netlist(NOT_NOT))
    bad = replace(net, forcings=gl.model.Plan(net.plan[::-1]))
    with pytest.raises(gl.ModelError, match="forcing plan reads a variable before a forcing sets it"):
        bad.ground_states()


def test_plan_on_a_model_without_variables_is_refused():
    plan = gl.model.Plan([gl.Forcing(0, (1,), (1, 0))])
    with pytest.raises(gl.ModelError, match="assigns an undeclared variable"):
        gl.model._ground_matrix(gl.EnergyModel(()), plan, 1 << 10)


def test_plan_table_of_the_wrong_length_is_refused():
    with pytest.raises(gl.ModelError, match="arity 1 needs 2 entries, got 1"):
        gl.model.Plan([gl.Forcing(1, (0,), (1,))])
    with pytest.raises(gl.ModelError, match="arity 1 needs 2 entries, got 4"):
        gl.model.Plan([gl.Forcing(2, (0, 1), (0, 0, 0, 1)), gl.Forcing(3, (2,), (0, 0, 0, 1))])


def test_plan_table_entries_must_be_bits():
    with pytest.raises(gl.ModelError, match="entries must be 0 or 1"):
        gl.model.Plan([gl.Forcing(1, (0,), (2, 0))])
