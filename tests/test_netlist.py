import hashlib
import itertools
import random
import re

import pytest

import groundlogic as gl
from util import random_cnf, random_netlist


def test_parse_format_round_trip():
    text = "INPUT a\nINPUT b\nOUTPUT y\nGATE AND a b -> t\nGATE NOT t -> y\n"
    nl = gl.parse_netlist(text)
    assert gl.format_netlist(nl) == text


def test_parse_errors():
    with pytest.raises(gl.NetlistFormatError) as info:
        gl.parse_netlist("INPUT a\nGATE XNOR a a -> y\n")
    assert info.value.line == 2
    with pytest.raises(gl.NetlistFormatError):
        gl.parse_netlist("GATE AND a b y\n")
    with pytest.raises(gl.NetlistFormatError):
        gl.parse_netlist("WHAT a\n")


@pytest.mark.parametrize("nl, message", [
    (gl.Netlist(["a", "b"], ["y"], [gl.Gate("XOR", ("a", "b"), "y", func=gl.XOR2)]),
     "gate kind 'XOR'"),
    (gl.Netlist(["a#1"], ["y"], [gl.Gate("NOT", ("a#1",), "y")]), "net name 'a#1'"),
    (gl.Netlist(["a"], ["y z"], [gl.Gate("NOT", ("a",), "y z")]), "net name 'y z'"),
    (gl.Netlist(["a"], ["y"], [gl.Gate("NOT", ("a",), "->"), gl.Gate("NOT", ("->",), "y")]),
     "net name '->'"),
    (gl.Netlist(["a"], ["y"], [gl.Gate("AND", ("a", ""), "y")]), "net name ''"),
], ids=["custom-kind", "hash", "space", "arrow", "empty"])
def test_format_refuses_what_does_not_read_back(nl, message):
    with pytest.raises(gl.NetlistError, match=f"^{re.escape(message)} does not read back"):
        gl.format_netlist(nl)


def test_single_driver_enforced():
    nl = gl.Netlist(inputs=["a"], outputs=["y"])
    nl.gates.append(gl.Gate("NOT", ("a",), "y"))
    nl.gates.append(gl.Gate("NOT", ("a",), "y"))
    with pytest.raises(gl.NetlistError):
        nl.validate()


def test_undriven_net_rejected():
    nl = gl.Netlist(inputs=["a"], outputs=["y"])
    nl.gates.append(gl.Gate("AND", ("a", "ghost"), "y"))
    with pytest.raises(gl.NetlistError):
        nl.validate()
    # the oracle validates first, so the read is refused, not a KeyError
    with pytest.raises(gl.NetlistError, match="'ghost' is read but never driven"):
        gl.evaluate(nl, {"a": 1})
    with pytest.raises(gl.NetlistError, match="'ghost' is read but never driven"):
        gl.netlist_truth_table(nl)


@pytest.mark.parametrize("nl, message", [
    (gl.decompose_to_basis(gl.TruthFunction(2, (0, 1, 1, 0)), inputs=["a", "a"]),
     "input 'a' is declared more than once"),
    (gl.Netlist(["a"], ["y", "y"], [gl.Gate("NOT", ("a",), "y")]),
     "output 'y' is declared more than once"),
], ids=["input", "output"])
def test_repeated_port_rejected(nl, message):
    # what the parser refuses at its line, validation refuses in an object
    for refused in (nl.validate, lambda: gl.evaluate(nl, dict.fromkeys(nl.inputs, 0)),
                    lambda: gl.compile_netlist(nl)):
        with pytest.raises(gl.NetlistError, match=f"^{message}$"):
            refused()


def test_cycle_detected():
    nl = gl.Netlist(inputs=["a"], outputs=["y"])
    nl.gates.append(gl.Gate("AND", ("a", "y"), "t"))
    nl.gates.append(gl.Gate("NOT", ("t",), "y"))
    with pytest.raises(gl.CycleError):
        nl.validate()
    # the stuck nets, in gate order and at most four; b's gate ran
    nl = gl.Netlist(inputs=["a"], outputs=["y"], gates=[
        gl.Gate("NOT", ("a",), "b"), gl.Gate("AND", ("b", "y"), "c"), gl.Gate("NOT", ("c",), "d"),
        gl.Gate("NOT", ("d",), "e"), gl.Gate("NOT", ("e",), "f"), gl.Gate("NOT", ("f",), "y"),
    ])
    message = "combinational cycle through nets ['c', 'd', 'e', 'f']"
    with pytest.raises(gl.CycleError, match=f"^{re.escape(message)}$"):
        nl.validate()
    with pytest.raises(gl.NetlistFormatError, match=f"^line 8: {re.escape(message)}$"):
        gl.parse_netlist(gl.format_netlist(nl))


def test_validate_builds_the_driver_map_once(monkeypatch):
    nl = random_netlist(random.Random(4))
    calls = []
    original = gl.Netlist.driver_map

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(gl.Netlist, "driver_map", counted)
    assert nl.validate() == nl.topo_gates()
    assert len(calls) == 2  # one for validate, one for topo_gates


def test_evaluate_and_truth_table():
    nl = gl.parse_netlist(
        "INPUT a\nINPUT b\nOUTPUT y\nGATE NOT b -> nb\nGATE AND a nb -> y\n"
    )
    assert gl.evaluate(nl, {"a": 1, "b": 0})["y"] == 1
    assert gl.evaluate(nl, {"a": 1, "b": 1})["y"] == 0
    tt = gl.netlist_truth_table(nl)
    assert tt == gl.TruthFunction(2, (0, 1, 0, 0))
    # a net may be both an input and an output
    both = gl.Netlist(["a"], ["a", "y"], [gl.Gate("NOT", ("a",), "y")])
    assert gl.evaluate(both, {"a": 1}) == {"a": 1, "y": 0}


def test_truth_table_validates_once(monkeypatch):
    xor3 = gl.TruthFunction(3, (0, 1, 1, 0, 1, 0, 0, 1))
    nl = gl.decompose_to_basis(xor3)
    calls = []
    original = gl.Netlist.validate

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(gl.Netlist, "validate", counted)
    assert gl.netlist_truth_table(nl) == xor3
    assert len(calls) == 1
    gl.evaluate(nl, dict.fromkeys(nl.inputs, 0))
    assert len(calls) == 2  # evaluate still validates on every call


def test_evaluate_random_netlists_are_deterministic():
    rng = random.Random(31)
    for _ in range(5):
        nl = random_netlist(rng)
        x = {n: rng.randint(0, 1) for n in nl.inputs}
        assert gl.evaluate(nl, x) == gl.evaluate(nl, x)


def test_dimacs_parse_and_round_trip():
    text = "c comment\np cnf 3 2\n1 -2 0\n-1 2 3 0\n"
    cnf = gl.parse_dimacs(text)
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, -2), (-1, 2, 3))
    again = gl.parse_dimacs(gl.format_dimacs(cnf))
    assert again == cnf


def test_dimacs_percent_line_ends_the_clauses():
    text = "c uf-style\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n"
    # SATLIB's uf* files end in "%" and a lone 0, which is no empty clause
    assert gl.parse_dimacs(text + "%\n0\n\n") == gl.parse_dimacs(text)
    assert gl.parse_dimacs(text + "%\n0\n").clauses == ((1, -2, 3), (-1, 2))


def test_dimacs_multiline_clause():
    cnf = gl.parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert cnf.clauses == ((1, 2, 3),)


@pytest.mark.parametrize(
    "bad, lineno",
    [
        ("1 2 0\n", 1),
        ("p cnf x 1\n1 0\n", 1),
        ("p cnf 2 1\n1 -2\n", 2),
        ("p cnf 2 1\n5 0\n", 2),
        ("p cnf 2 1\n1 zork 0\n", 2),
    ],
)
def test_dimacs_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(gl.DimacsFormatError) as info:
        gl.parse_dimacs(bad)
    assert info.value.line == lineno


def test_dimacs_clause_count_mismatch():
    with pytest.raises(gl.DimacsFormatError):
        gl.parse_dimacs("p cnf 2 2\n1 0\n")


def test_brute_force_sat_known_formulas():
    cnf = gl.Cnf(2, ((1, -2),))
    assert gl.brute_force_satisfying_set(cnf) == [(0, 0), (1, 0), (1, 1)]
    contradiction = gl.Cnf(1, ((1,), (-1,)))
    assert gl.brute_force_satisfying_set(contradiction) == []


def test_encode_single_clause():
    nl = gl.encode_cnf(gl.Cnf(2, ((1, -2),)))
    tt = gl.netlist_truth_table(nl, "sat")
    assert sum(tt.outputs) == 3


def test_encode_contradiction_forces_zero():
    nl = gl.encode_cnf(gl.Cnf(1, ((1,), (-1,))))
    assert gl.netlist_truth_table(nl, "sat") == gl.TruthFunction(1, (0, 0))


def test_encode_empty_clause_flagged_and_false():
    cnf = gl.Cnf(2, ((1, 2), ()))
    assert cnf.has_empty_clause
    nl = gl.encode_cnf(cnf)
    assert gl.netlist_truth_table(nl, "sat") == gl.TruthFunction(2, (0, 0, 0, 0))


def test_encode_empty_formula_is_true():
    nl = gl.encode_cnf(gl.Cnf(1, ()))
    assert gl.netlist_truth_table(nl, "sat") == gl.TruthFunction(1, (1, 1))


def test_encode_unit_clauses():
    nl = gl.encode_cnf(gl.Cnf(1, ((1,),)))
    assert gl.netlist_truth_table(nl, "sat") == gl.TruthFunction(1, (0, 1))
    nl = gl.encode_cnf(gl.Cnf(1, ((-1,),)))
    assert gl.netlist_truth_table(nl, "sat") == gl.TruthFunction(1, (1, 0))


def test_encode_repeated_and_tautological_literals():
    nl = gl.encode_cnf(gl.Cnf(1, ((1, 1),)))
    assert gl.netlist_truth_table(nl, "sat") == gl.TruthFunction(1, (0, 1))
    nl = gl.encode_cnf(gl.Cnf(1, ((1, -1),)))
    assert gl.netlist_truth_table(nl, "sat") == gl.TruthFunction(1, (1, 1))


def test_encode_cnf_matches_clause_evaluation():
    """Netlist evaluation agrees with direct clause checking on all inputs."""
    rng = random.Random(32)
    cnf = random_cnf(rng, n=10, m=25)
    nl = gl.encode_cnf(cnf)
    for x in range(1 << 10):
        bits = tuple((x >> j) & 1 for j in range(10))
        values = gl.evaluate(nl, {f"x{i}": bits[i - 1] for i in range(1, 11)})
        assert values["sat"] == int(cnf.satisfied(bits))


def test_fold_repeated_inputs():
    folded, names = gl.logic.fold_repeated_inputs(gl.AND2, ["a", "a"])
    assert names == ["a"]
    assert folded == gl.TruthFunction(1, (0, 1))
    folded, names = gl.logic.fold_repeated_inputs(gl.XOR2, ["a", "a"])
    assert folded == gl.TruthFunction(1, (0, 0))


SYNTH_CNFS = (
    gl.Cnf(1, ()), gl.Cnf(1, ((1,),)), gl.Cnf(1, ((-1,),)), gl.Cnf(1, ((1, 1),)),
    gl.Cnf(1, ((1, -1),)), gl.Cnf(2, ((),)), gl.Cnf(2, ((), ())), gl.Cnf(2, ((-2,), ())),
    gl.Cnf(1, ((1,), (-1,))), gl.Cnf(3, ((-1, -1),)),
    gl.Cnf(3, ((1, -2, 3), (-1, 2), (3,), (-3, -3, 1))),
)


def test_synthesis_gates_are_pinned():
    """The exact gates, order and net names of both syntheses on their edge
    cases (constants, bare literals, lone products; empty, unit and
    repeated-literal clauses, the empty formula).  Net names become the
    labels of compiled dumps, so any change to them shows here first."""
    sop = "".join(
        gl.format_netlist(gl.decompose_to_basis(gl.TruthFunction(k, outs), output="q", prefix="w."))
        for k in (1, 2, 3)
        for outs in itertools.product((0, 1), repeat=1 << k)
    )
    cnf = "".join(gl.format_netlist(gl.encode_cnf(c)) for c in SYNTH_CNFS)
    assert (len(sop), len(cnf)) == (108163, 952)
    assert hashlib.sha256(sop.encode()).hexdigest() == (
        "a0bcf78e084c8fd4668a62c7fb00a723a85b7195baf0cabe954c180eb03bf60a"
    )
    assert hashlib.sha256(cnf.encode()).hexdigest() == (
        "eb2a5792c68ae3dd20503ee381a6f98220878cff924a3eae8f89f14003fdbc8d"
    )
