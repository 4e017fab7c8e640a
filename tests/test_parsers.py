"""Netlist, DIMACS and machine-spec parsers: errors carry a line number of
at least 1, arbitrary text raises only the format's own error, and
formatting then parsing gives back what was formatted."""

import string

import pytest
from hypothesis import given, settings, strategies as st

import groundlogic as gl
from groundlogic.turing import DtmFormatError

PARSERS = {
    "netlist": (gl.parse_netlist, gl.NetlistFormatError),
    "dimacs": (gl.parse_dimacs, gl.DimacsFormatError),
    "dtm": (gl.parse_dtm, DtmFormatError),
}

FLIPPER_TEXT = "STATE q\nSTART q\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n"


@pytest.mark.parametrize(
    "fmt, text, line",
    [
        # whole-text defects with no culprit line go to the last line
        ("dtm", "STATE q\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n", 3),
        ("dtm", "", 1),
        ("dtm", "STATE q\nSTART q\nDELTA q 0 -> q 1 U\n\n# end\n", 5),  # delta not total
        ("dtm", "STATE q\nSTATE q\nSTART q\n", 3),  # duplicate state names
        ("dtm", FLIPPER_TEXT + "HALT h\n", 5),  # undeclared halt state
        # the START line names an undeclared state
        ("dtm", "STATE q\nSTART z\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n", 2),
        # the OUTPUT line names a net nothing drives
        ("netlist", "INPUT a\nOUTPUT y\nOUTPUT z\nGATE NOT a -> y\n", 3),
        ("netlist", "INPUT a\nOUTPUT y\nGATE AND a ghost -> y\n", 3),  # read, never driven
        ("netlist", "INPUT a\nOUTPUT y\nGATE NOT t -> y\nGATE NOT y -> t\n\n", 5),  # cycle
        ("dimacs", "c nothing but comments\n\n", 2),
        ("dimacs", "", 1),
        # the header declares the wrong clause count
        ("dimacs", "c x\np cnf 2 2\n1 0\n", 2),
    ],
)
def test_whole_text_errors_carry_a_line(fmt, text, line):
    parse, error = PARSERS[fmt]
    with pytest.raises(error) as info:
        parse(text)
    assert info.value.line == line


@pytest.mark.parametrize(
    "fmt, text, line",
    [
        # a second problem line would replace the first: literal 2 then
        # exceeds the new variable count, or the formula gains free variables
        ("dimacs", "p cnf 2 2\n1 2 0\np cnf 1 2\n-1 0\n", 3),
        ("dimacs", "p cnf 2 1\n1 2 0\np cnf 5 1\n", 3),
        ("dtm", "STATE a\nSTATE b\nSTART a\nSTART b\n", 4),
        ("dtm", FLIPPER_TEXT + "DECISION 2\n# two\nDECISION 1\n", 7),
        # a repeated declaration would double a truth-table input or an
        # output's decision bias
        ("netlist", "INPUT a\nOUTPUT y\nGATE NOT a -> y\nINPUT a\n", 4),
        ("netlist", "INPUT a\nOUTPUT y\nOUTPUT y\nGATE NOT a -> y\n", 3),
    ],
)
def test_repeated_declarations_refused_at_their_line(fmt, text, line):
    parse, error = PARSERS[fmt]
    with pytest.raises(error, match=f"^line {line}: .* repeats line ") as info:
        parse(text)
    assert info.value.line == line


WORDS = {
    "netlist": ("INPUT", "OUTPUT", "GATE", "AND", "OR", "NOT", "XOR", "->", "a", "b", "y",
                "t", "#", "a#"),
    "dimacs": ("p", "cnf", "c", "%", "0", "1", "-1", "2", "-2", "3", "-3", "x", "1.5", "p cnf"),
    "dtm": ("STATE", "START", "HALT", "DECISION", "DELTA", "q", "r", "0", "1", "2", "->",
            "U", "D", "X", "#"),
}


# whole statements, so that texts often get past the line checks and reach
# the checks on the whole text
STATEMENTS = {
    "netlist": ("INPUT a", "INPUT b", "OUTPUT y", "OUTPUT t", "GATE AND a b -> y",
                "GATE NOT a -> t", "GATE NOT t -> y", "GATE OR y b -> t", "# note", ""),
    "dimacs": ("p cnf 2 1", "p cnf 3 0", "1 -2 0", "2 0", "0", "c note", "1 2", ""),
    "dtm": ("STATE q", "STATE r", "START q", "START r", "HALT r", "DECISION 2",
            "DELTA q 0 -> q 1 U", "DELTA q 1 -> r 0 D", "DELTA r 0 -> q 0 U", "# note", ""),
}


def _texts(fmt):
    alphabet = "".join(sorted(set("".join(WORDS[fmt])))) + " \n\t"
    return st.one_of(
        st.lists(st.sampled_from(STATEMENTS[fmt]), max_size=8).map("\n".join),
        st.lists(st.lists(st.sampled_from(WORDS[fmt]), max_size=8), max_size=8).map(
            lambda lines: "\n".join(" ".join(words) for words in lines)),
        st.text(alphabet=alphabet),
        st.text(max_size=40),
    )


@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_arbitrary_text_raises_only_format_errors(fmt):
    parse, error = PARSERS[fmt]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_texts(fmt))
    def check(text):
        try:
            parse(text)
        except error as exc:
            assert exc.line >= 1

    check()


NAMES = st.text(alphabet=string.ascii_letters + string.digits + "_.", min_size=1, max_size=4)


@st.composite
def netlists(draw):
    inputs = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    nl = gl.Netlist(inputs=list(inputs))
    nets = list(inputs)
    for k in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(gl.netlist.BASIC_KINDS))
        width = 1 if kind == "NOT" else draw(st.integers(2, 3))
        ins = tuple(draw(st.lists(st.sampled_from(nets), min_size=width, max_size=width)))
        out = f"g{k}"
        if out in nets:
            continue
        nl.gates.append(gl.Gate(kind, ins, out))
        nets.append(out)
    nl.outputs = draw(st.lists(st.sampled_from(nets), max_size=3, unique=True))
    return nl


@settings(max_examples=100, deadline=None, derandomize=True)
@given(netlists())
def test_netlist_format_parse_round_trip(nl):
    text = gl.format_netlist(nl)
    parsed = gl.parse_netlist(text)
    assert parsed == nl
    assert gl.format_netlist(parsed) == text


@st.composite
def cnfs(draw):
    n = draw(st.integers(0, 6))
    literal = st.integers(1, max(n, 1)).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, max_size=4 if n else 0).map(tuple)
    clauses = draw(st.lists(clause, max_size=6))
    return gl.Cnf(n, tuple(clauses))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cnfs())
def test_dimacs_format_parse_round_trip(cnf):
    text = gl.format_dimacs(cnf)
    parsed = gl.parse_dimacs(text)
    assert parsed == cnf
    assert gl.format_dimacs(parsed) == text


@st.composite
def machines(draw):
    states = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    halts = draw(st.frozensets(st.sampled_from(states)))
    delta = {}
    for q in states:
        if q in halts:
            continue
        for bit in (0, 1):
            delta[(q, bit)] = (draw(st.sampled_from(states)), draw(st.integers(0, 1)),
                               draw(st.sampled_from((gl.turing.MOVE_UP, gl.turing.MOVE_DOWN))))
    return gl.DtmSpec(tuple(states), draw(st.sampled_from(states)), halts, delta,
                      draw(st.integers(-2, 9)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(machines())
def test_dtm_format_parse_round_trip(dtm):
    text = gl.format_dtm(dtm)
    parsed = gl.parse_dtm(text)
    assert parsed == dtm
    assert gl.format_dtm(parsed) == text
