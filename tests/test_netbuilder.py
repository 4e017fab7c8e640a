import dataclasses
import hashlib
import random
import re
from fractions import Fraction

import pytest

import groundlogic as gl
from util import FLIPPER, TWO_STATE, random_cnf, random_netlist

NOT_NL = "INPUT x\nOUTPUT y\nGATE NOT x -> y\n"
AND_NL = "INPUT a\nINPUT b\nOUTPUT y\nGATE AND a b -> y\n"


def test_compile_not_with_clamp():
    net = gl.clamp_inputs(gl.compile_netlist(gl.parse_netlist(NOT_NL)), {"x": 1})
    e, states = net.ground_states()
    assert e == 0
    assert len(states) == 1
    assert states[0][net.port_map["y"]] == 0


def test_compile_and_unclamped_graph():
    net = gl.compile_netlist(gl.parse_netlist(AND_NL))
    e, states = net.ground_states()
    assert e == 0 and len(states) == 4
    a, b, y = (net.port_map[n] for n in ("a", "b", "y"))
    assert {(s[a], s[b], s[y]) for s in states} == {(x, z, x & z) for x in (0, 1) for z in (0, 1)}


def test_clamp_unknown_net_rejected():
    net = gl.compile_netlist(gl.parse_netlist(AND_NL))
    with pytest.raises(gl.ModelError):
        gl.clamp_inputs(net, {"nope": 1})
    with pytest.raises(gl.ModelError):
        gl.clamp_inputs(net, {"y": 1})  # y is an output, not an input


def test_parallelism_property():
    """With nothing clamped, the ground set projected onto (inputs, output)
    is the whole graph of the compiled function: all inputs at once."""
    rng = random.Random(41)
    nl = random_netlist(rng, n_inputs=4, n_gates=8)
    net = gl.compile_netlist(nl)
    e, states = net.ground_states()
    assert e == 0
    in_vars = [net.port_map[n] for n in nl.inputs]
    out_var = net.port_map[nl.outputs[0]]
    got = {tuple(s[v] for v in in_vars) + (s[out_var],) for s in states}
    expected = set()
    for x in range(1 << 4):
        bits = {n: (x >> j) & 1 for j, n in enumerate(nl.inputs)}
        values = gl.evaluate(nl, bits)
        expected.add(tuple(bits[n] for n in nl.inputs) + (values[nl.outputs[0]],))
    assert got == expected
    assert len(states) == 1 << 4


@pytest.mark.parametrize("policy,n_gates", [("penalty", 4), ("edc-symmetrized", 2)])
def test_conditioned_solve_matches_blind_enumeration(policy, n_gates):
    # symmetrized gates cost 6 variables each, so keep that case small
    rng = random.Random(42)
    for _ in range(4):
        nl = random_netlist(rng, n_inputs=3, n_gates=n_gates)
        net = gl.compile_netlist(nl, policy=policy)
        assert net.ground_states() == gl.enumerate_ground_states(net.model)


def test_conditioned_solve_with_output_clamp():
    nl = gl.parse_netlist(AND_NL)
    net = gl.compile_netlist(nl)
    clamped = net.with_net_clamps({"y": 1})
    assert clamped.ground_states() == gl.enumerate_ground_states(clamped.model)
    e, states = clamped.ground_states()
    assert len(states) == 1  # only a=b=1 drives y to 1


def test_conditioned_solve_no_consistent_state():
    # x AND NOT x == 0; clamping the output to 1 leaves no consistent root
    nl = gl.parse_netlist("INPUT x\nOUTPUT y\nGATE NOT x -> nx\nGATE AND x nx -> y\n")
    net = gl.compile_netlist(nl)
    clamped = net.with_net_clamps({"y": 1})
    with pytest.raises(gl.NoConsistentStateError):
        clamped.ground_states()
    # blind enumeration still works and pays the penalty
    e, _ = gl.enumerate_ground_states(clamped.model)
    assert e == 1


def test_conditioned_solve_guards_hierarchy():
    net = gl.compile_netlist(gl.parse_netlist(AND_NL), penalty=1)
    biased = gl.attach_dedlu(net, "y", 1)  # bias equals the gate penalty
    with pytest.raises(gl.ModelError):
        biased.ground_states()


def test_small_cnf_blind_enumeration_projection():
    """A compiled CNF network small enough for blind enumeration: with the
    output clamped to 1, the ground projection onto the inputs is the
    brute-force satisfying set."""
    cnf = gl.Cnf(3, ((1, -2, 3), (-1, 2, 3)))
    net = gl.compile_netlist(gl.encode_cnf(cnf))
    assert len(net.model.variables) <= 12
    clamped = net.model.with_clamps({net.port_map["sat"]: 1})
    e, states = gl.enumerate_ground_states(clamped)
    assert e == 0
    got = {tuple(a[net.port_map[f"x{i}"]] for i in (1, 2, 3)) for a in states}
    assert got == set(gl.brute_force_satisfying_set(cnf))


def test_cnf_n10_output_clamped_matches_oracle():
    rng = random.Random(44)
    cnf = None
    while cnf is None or not gl.brute_force_satisfying_set(cnf):
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 11), 3))
            for _ in range(25)
        )
        cnf = gl.Cnf(10, clauses)
    net = gl.compile_netlist(gl.encode_cnf(cnf))
    clamped = net.with_net_clamps({"sat": 1})
    e, states = clamped.ground_states()
    assert e == 0
    got = {tuple(a[net.port_map[f"x{i}"]] for i in range(1, 11)) for a in states}
    assert got == set(gl.brute_force_satisfying_set(cnf))


def test_wire_chain_l2():
    chain = gl.make_wire_chain(2, 1)
    e, states = gl.enumerate_ground_states(chain.fragment)
    assert e == 0
    assert states == [{0: 0, 1: 0}, {0: 1, 1: 1}]


def test_wire_chain_l5_gap_equals_coupling():
    j = Fraction(3, 2)
    chain = gl.make_wire_chain(5, j)
    rep = gl.spectrum(chain.fragment)
    assert rep.ground_degeneracy == 2
    assert rep.gap == j


def test_wire_chain_clamped_end():
    chain = gl.make_wire_chain(3, 1)
    e, states = gl.enumerate_ground_states(chain.fragment.with_clamps({0: 1}))
    assert e == 0
    assert states == [{0: 1, 1: 1, 2: 1}]


def _and_net(**options):
    return gl.compile_netlist(gl.parse_netlist(AND_NL), **options)


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: _and_net(wire_chains={"nope": 3}), "wire chain on unknown net 'nope'"),
        (lambda: _and_net(wire_chains={"y": 1}), "wire chain on 'y' needs length >= 2"),
        # the conditioned solve is exact only when every gate's ground
        # energy is the same for all of its inputs
        (lambda: dataclasses.replace(_and_net(), edc=False).ground_states(),
         "conditioned solve needs input-independent gate ground energies; "),
        (lambda: gl.attach_medlu(_and_net(), ["y"], 0), "scale must be positive"),
        (lambda: gl.attach_medlu(_and_net(), ["y"], -1), "scale must be positive"),
        (lambda: gl.attach_medlu(gl.attach_medlu(_and_net(penalty=4), ["y"]), ["a"]),
         "network already carries a minimization unit"),
        (lambda: gl.attach_medlu(_and_net(), []), "minimization unit needs at least one port"),
        (lambda: gl.attach_medlu(_and_net(), ["y", "nope"]), "unknown port 'nope'"),
    ],
)
def test_network_refusals(refused, message):
    with pytest.raises(gl.ModelError, match="^" + re.escape(message)):
        refused()


def test_wire_chain_validation():
    with pytest.raises(gl.ModelError):
        gl.make_wire_chain(1)
    with pytest.raises(gl.ModelError):
        gl.make_wire_chain(3, 0)


def test_explicit_wire_chain_is_transparent():
    """Routing a net through an explicit chain leaves the projected ground
    set unchanged."""
    text = "INPUT a\nINPUT b\nOUTPUT y\nGATE AND a b -> mid\nGATE NOT mid -> y\n"
    nl = gl.parse_netlist(text)
    plain = gl.compile_netlist(nl)
    chained = gl.compile_netlist(nl, wire_chains={"mid": 4})
    ports = ["a", "b", "y"]

    def projected(net):
        _, states = net.ground_states()
        vars_ = [net.port_map[p] for p in ports]
        return {tuple(s[v] for v in vars_) for s in states}

    assert projected(plain) == projected(chained)
    assert chained.elements.counts.get("register") == 1
    assert chained.ground_states() == gl.enumerate_ground_states(chained.model)


def test_count_single_and():
    net = gl.compile_netlist(gl.parse_netlist(AND_NL))
    assert net.elements.counts == {"AND": 1}
    assert net.elements.total == 1


def test_count_sand_policy():
    net = gl.compile_netlist(gl.parse_netlist(AND_NL), policy="edc-symmetrized")
    assert net.elements.counts == {"AND": 4, "inverter": 2}
    assert net.elements.total == 6


def test_count_additivity():
    a = gl.compile_netlist(gl.parse_netlist(AND_NL))
    b = gl.compile_netlist(gl.parse_netlist(NOT_NL))
    combined = gl.parse_netlist(
        "INPUT a\nINPUT b\nINPUT x\nOUTPUT y\nOUTPUT z\n"
        "GATE AND a b -> y\nGATE NOT x -> z\n"
    )
    c = gl.compile_netlist(combined)
    assert c.elements.total == a.elements.total + b.elements.total


def test_count_invariant_under_renaming():
    rng = random.Random(43)
    nl = random_netlist(rng, n_inputs=3, n_gates=6)
    renamed = gl.Netlist(
        inputs=[f"R_{n}" for n in nl.inputs],
        outputs=[f"R_{n}" for n in nl.outputs],
        gates=[gl.Gate(g.kind, tuple(f"R_{n}" for n in g.inputs), f"R_{g.output}") for g in nl.gates],
    )
    assert gl.compile_netlist(nl).elements.counts == gl.compile_netlist(renamed).elements.counts


def test_edc_symmetrized_policy_every_gate_is_edc():
    """Under the symmetrized policy the whole network's ground energy is the
    same for every input (here: zero profile, so zero)."""
    nl = gl.parse_netlist(
        "INPUT a\nINPUT b\nINPUT c\nOUTPUT y\nGATE AND a b -> t\nGATE OR t c -> y\n"
    )
    net = gl.compile_netlist(nl, policy="edc-symmetrized")
    assert net.edc
    e, states = net.ground_states()
    assert e == net.base_ground == 0
    assert len(states) == 8  # every input pattern sits in the ground level


def test_edc_symmetrized_with_physical_profile():
    nl = gl.parse_netlist(AND_NL)
    net = gl.compile_netlist(nl, policy="edc-symmetrized", penalty=2, and_profile=(0, 0, 0, -1))
    e, states = net.ground_states()
    assert e == Fraction(-1)
    assert len(states) == 4
    assert net.ground_states() == gl.enumerate_ground_states(net.model)


def test_unknown_policy_and_kind():
    nl = gl.parse_netlist(AND_NL)
    with pytest.raises(gl.ModelError):
        gl.compile_netlist(nl, policy="magic")
    bad = gl.Netlist(inputs=["a"], outputs=["y"])
    with pytest.raises(gl.NetlistError):
        bad.gates.append(gl.Gate("XNOR", ("a",), "y"))


def test_compile_cyclic_netlist_rejected():
    nl = gl.Netlist(inputs=["a"], outputs=["y"])
    nl.gates.append(gl.Gate("AND", ("a", "y"), "t"))
    nl.gates.append(gl.Gate("NOT", ("t",), "y"))
    with pytest.raises(gl.CycleError):
        gl.compile_netlist(nl)


def test_custom_function_gate_compiles():
    maj = gl.TruthFunction.from_callable(3, lambda a, b, c: int(a + b + c >= 2))
    nl = gl.Netlist(inputs=["a", "b", "c"], outputs=["y"])
    nl.gates.append(gl.Gate("MAJ3", ("a", "b", "c"), "y", func=maj))
    net = gl.compile_netlist(nl)
    assert net.elements.counts == {"MAJ3": 1}
    _, states = net.ground_states()
    vars_ = [net.port_map[n] for n in ("a", "b", "c", "y")]
    got = {tuple(s[v] for v in vars_) for s in states}
    assert got == {(a, b, c, maj(a, b, c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def test_gate_with_tied_inputs_compiles():
    nl = gl.Netlist(inputs=["a"], outputs=["y"])
    nl.gates.append(gl.Gate("AND", ("a", "a"), "y"))
    net = gl.compile_netlist(nl)
    _, states = net.ground_states()
    a, y = net.port_map["a"], net.port_map["y"]
    assert {(s[a], s[y]) for s in states} == {(0, 0), (1, 1)}


# sha256 of the compiled dump, element counts, plan and solve preconditions:
# pins variable ids, labels, term order and every table of compile_netlist.
COMPILE_GOLDEN = {
    "cnf301/penalty": "bd97e8716f6fcf6594f4b5349efdb4d82f51edfaca3f84bc83ab84dc320702af",
    "cnf301/edc-symmetrized": "c09da6f090f42eab03b6d486270bd01a7cbd6bf05ffdacfe362f99c141f749c3",
    "cnf801/penalty": "a80bc1aaeed3f5638b74175f58b7c15b45256630c4ae5f13367a4a8a30baef24",
    "cnf801/edc-symmetrized": "6a89e1a534ae48cee7d7bc68ceaadfd47b7bc6af417433a07cc098dcbccf7f08",
    "flipper/penalty": "904cca2a69cebb791a6ce56eae09ce24ee1732747f1e014e55554c6ce87b46d5",
    "flipper/edc-symmetrized": "55f3d6e625c0b73f7211765198a821de2fea4004a3e69ba98fd80656173fae25",
    "two-state/penalty": "fbe00fc472767cdfaa586792eb5f09dd7af65f8c6a05b2ce5b9f9a2d528433bf",
    "two-state/edc-symmetrized": "68280e539e20c7b1e7c6490cf052a1a196bd2b893234b1d71e04e21da647664b",
    "mixed/penalty": "bc766fdd90e61075546c6946ea34a6446a8bd1758f20f7af8222dac8fbfed613",
    "mixed/edc-symmetrized": "a4b60d67acff9758e2548f2eef7b293ebc80de32da9e54cc30958eb1a2452fd6",
}


def _mixed_netlist():
    """Tied gate inputs, a custom gate, chained nets and a 2-input AND that
    takes the physical profile under the symmetrized policy."""
    maj = gl.TruthFunction.from_callable(3, lambda a, b, c: int(a + b + c >= 2))
    nl = gl.Netlist(inputs=["a", "b", "c"], outputs=["y", "z"])
    nl.gates += [
        gl.Gate("AND", ("a", "a", "b"), "t"),
        gl.Gate("OR", ("c", "c"), "u"),
        gl.Gate("AND", ("t", "u"), "v"),
        gl.Gate("MAJ3", ("v", "a", "v"), "w", func=maj),
        gl.Gate("OR", ("w", "b", "t"), "y"),
        gl.Gate("NOT", ("v",), "z"),
    ]
    return nl


def _compiled(name):
    instance, policy = name.split("/")
    if instance.startswith("cnf"):
        cnf = random_cnf(random.Random(int(instance[3:])), 10, 42)
        return gl.compile_netlist(gl.encode_cnf(cnf), policy=policy, penalty=2)
    if instance == "flipper":
        return gl.build_lattice(FLIPPER, 4, 1, policy=policy).network
    if instance == "two-state":
        return gl.build_lattice(TWO_STATE, 3, 1, policy=policy).network
    return gl.compile_netlist(
        _mixed_netlist(), policy=policy, penalty=4, and_profile=(1, 0, 2, -1),
        wire_chains={"a": 3, "v": 2, "y": 4}, wire_coupling=Fraction(5, 2),
    )


@pytest.mark.parametrize("name", sorted(COMPILE_GOLDEN))
def test_golden_compile(name):
    net = _compiled(name)
    text = gl.format_model(net.model) + repr(net.elements.counts) + repr(net.plan)
    text += repr((net.penalty_floor, net.base_ground, net.edc))
    assert hashlib.sha256(text.encode()).hexdigest() == COMPILE_GOLDEN[name]
