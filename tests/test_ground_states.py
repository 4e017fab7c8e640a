"""`Network.ground_states`: pinned outputs and cross-checks against the
blind enumerator."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import groundlogic as gl
from util import FLIPPER, TWO_STATE, random_cnf

AND_NL = "INPUT a\nINPUT b\nOUTPUT y\nGATE AND a b -> y\n"
OR3_NL = "INPUT a\nINPUT b\nINPUT c\nOUTPUT y\nGATE OR a b c -> y\n"


# sha256 of repr(net.ground_states()): pins E0, the order of the list and the
# key order of every assignment dict.
GOLDEN = {
    "cnf301": "2b981f5bf23994cbb5d8a99f1001618ff8e1e8f891098aefc7f8bf1e52e7590f",
    "cnf801": "9f191eb33666b4946cddeee249b28edb0aeccc7700fd7eb2b8822e938919c6ab",
    "flipper/penalty": "0b871a2b52e6e826d3375580444ae385ed16f3a4d57dfb5927820cb254825e63",
    "flipper/edc-symmetrized": "0c616be91cbf3ea3a20e71c902e7f1fc9c96a6d7d4364f5d3493f31497c0826c",
    "two-state/penalty": "cb826d7e798629c63eeb4bbdba508ab321c0ba20b816eded72461664d986c061",
    "two-state/edc-symmetrized": "8bcf50956a036fa967bc33a9a435bad35362f7b398c0802c0f6569b53501f3c6",
}


def _golden_network(name):
    if name.startswith("cnf"):
        cnf = random_cnf(random.Random(int(name[3:])), 10, 42)
        net = gl.compile_netlist(gl.encode_cnf(cnf), penalty=2)
        return gl.attach_dedlu(net, "sat", 1)
    machine, policy = name.split("/")
    if machine == "flipper":
        return gl.build_lattice(FLIPPER, 4, 1, policy=policy).network
    return gl.build_lattice(TWO_STATE, 3, 1, policy=policy).network


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_ground_states(name):
    result = _golden_network(name).ground_states()
    assert hashlib.sha256(repr(result).encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("budget", [1, 5000])
@pytest.mark.parametrize("name", ["cnf301", "cnf801"])
def test_golden_across_blocks(monkeypatch, name, budget):
    # a budget of 1 byte scans one root mask per block; 5000 bytes a few
    # masks, with a shorter last block
    net = _golden_network(name)
    monkeypatch.setattr(gl.model, "_BLOCK_BYTES", budget)
    result = net.ground_states()
    assert hashlib.sha256(repr(result).encode()).hexdigest() == GOLDEN[name]


def test_ground_state_dicts_are_independent():
    # each dict is built from a copy of the one before it: writing into one
    # must leave its neighbour as it was
    net = _golden_network("cnf801")
    _, states = net.ground_states()
    assert len(states) == 1024
    clamps = net.model.clamps
    forced = [f.var for f in net.plan if f.var not in clamps]
    roots = [v for v in net.model.var_ids if v not in clamps and v not in forced]
    keys = list(clamps) + roots + forced
    assert all(list(state) == keys for state in states)
    second = dict(states[1])
    for v in keys:
        states[0][v] ^= 1
    assert states[1] == second


def test_blocks_without_consistent_masks(monkeypatch):
    # with the output clamped most blocks hold no consistent mask; the best
    # is carried across them
    net = _golden_network("cnf301").with_net_clamps({"sat": 1})
    whole = net.ground_states()
    monkeypatch.setattr(gl.model, "_BLOCK_BYTES", 1)
    assert net.ground_states() == whole
    assert whole[0] == 0 and len(whole[1]) == 1


def test_fractional_energies():
    net = gl.compile_netlist(gl.parse_netlist(AND_NL), penalty=Fraction(3, 2))
    net = gl.attach_dedlu(net, "y", Fraction(1, 3))
    clamped = gl.clamp_inputs(net, {"a": 1, "b": 0})
    e, states = clamped.ground_states()
    assert e == Fraction(1, 3) and len(states) == 1
    assert (e, states) == gl.enumerate_ground_states(clamped.model)
    assert net.ground_states() == gl.enumerate_ground_states(net.model)


def test_huge_medlu_scale_sums_python_ints():
    net = gl.compile_netlist(gl.parse_netlist(OR3_NL), penalty=1 << 65)
    _, net = gl.assemble_usqc(net, medlu_ports=("a", "b", "y"), scale=1 << 62)
    ids = np.array(net.model.var_ids)
    _, offset, terms = gl.model._integer_terms(net.model)
    assert gl.model._term_groups(terms, ids, offset, [])[0] == object
    e, states = net.ground_states()
    assert e == 0 and len(states) == 1
    assert (e, states) == gl.enumerate_ground_states(net.model)
    clamped = gl.clamp_inputs(net, {"a": 1, "b": 1})
    assert clamped.ground_states() == gl.enumerate_ground_states(clamped.model)
    assert clamped.ground_states()[0] == 7 << 62


def test_unsatisfiable_output_clamp_raises():
    net = gl.compile_netlist(gl.parse_netlist(AND_NL))
    clamped = gl.clamp_inputs(net, {"a": 0}).with_net_clamps({"y": 1})
    with pytest.raises(gl.NoConsistentStateError):
        clamped.ground_states()
    e, _ = gl.enumerate_ground_states(clamped.model)
    assert e >= clamped.base_ground + clamped.penalty_floor


@st.composite
def networks(draw):
    """Small compiled netlists with random biases and clamps."""
    policy = draw(st.sampled_from(gl.netbuilder.POLICIES))
    symmetrized = policy == "edc-symmetrized"
    n_inputs = draw(st.integers(1, 3 if symmetrized else 8))
    n_gates = draw(st.integers(1, 2 if symmetrized else 4))
    nl = gl.Netlist(inputs=[f"i{j}" for j in range(n_inputs)], outputs=[])
    nets = list(nl.inputs)
    for g in range(n_gates):
        kind = draw(st.sampled_from(("AND", "OR", "NOT")))
        if kind == "NOT" or len(nets) < 2:
            gate = gl.Gate("NOT", (draw(st.sampled_from(nets)),), f"g{g}")
        else:
            width = 2 if symmetrized else 3
            ins = draw(st.lists(st.sampled_from(nets), min_size=2, max_size=width, unique=True))
            gate = gl.Gate(kind, tuple(ins), f"g{g}")
        nl.gates.append(gate)
        nets.append(gate.output)
    nl.outputs.append(nets[-1])
    penalty = draw(st.sampled_from((1, 2, Fraction(3, 2), Fraction(5, 3))))
    net = gl.compile_netlist(nl, policy=policy, penalty=penalty)
    floor = net.penalty_floor
    bias = draw(st.sampled_from(("none", "dedlu", "medlu")))
    if bias == "dedlu":
        net = gl.attach_dedlu(net, nl.outputs[0], floor / draw(st.sampled_from((2, 3))))
    elif bias == "medlu":
        ports = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3, unique=True))
        net = gl.attach_medlu(net, ports, floor / (1 << (len(ports) + 1)))
    clamped = draw(st.dictionaries(st.sampled_from(nl.inputs), st.integers(0, 1)))
    net = gl.clamp_inputs(net, clamped)
    if draw(st.booleans()):
        net = net.with_net_clamps({nl.outputs[0]: draw(st.integers(0, 1))})
    return net


@settings(max_examples=60, deadline=None, derandomize=True)
@given(networks())
def test_conditioned_solve_matches_blind_oracle(net):
    oracle = gl.enumerate_ground_states(net.model)
    try:
        result = net.ground_states()
    except gl.NoConsistentStateError:
        # only an output clamp can rule out every root, and then every
        # state pays at least the penalty floor
        assert oracle[0] >= net.base_ground + net.penalty_floor
        return
    assert result == oracle
