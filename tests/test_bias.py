import random
from fractions import Fraction

import pytest

import groundlogic as gl
from util import cnf_inputs_projection, random_cnf


def sat_network(cnf, penalty=2):
    return gl.compile_netlist(gl.encode_cnf(cnf), penalty=penalty)


def test_attach_dedlu_requires_declared_output():
    net = sat_network(gl.Cnf(2, ((1, -2),)))
    with pytest.raises(gl.ModelError):
        gl.attach_dedlu(net, "x1", 1)
    with pytest.raises(gl.ModelError):
        gl.attach_dedlu(net, "sat", 0)


def test_bias_term_needs_minimum_0_and_its_maximum_as_budget():
    net = sat_network(gl.Cnf(1, ((1,),)))
    var = net.port_map["sat"]
    with pytest.raises(gl.ModelError, match="minimum 0"):
        net.with_bias_term(gl.EnergyTerm((var,), (Fraction(1), Fraction(2))), Fraction(2))
    with pytest.raises(gl.ModelError, match="bias budget 1 is not the term's maximum 2"):
        net.with_bias_term(gl.EnergyTerm((var,), (Fraction(0), Fraction(2))), Fraction(1))
    biased = net.with_bias_term(gl.EnergyTerm((var,), (Fraction(2), Fraction(0))), Fraction(2))
    assert biased.bias_budget == net.bias_budget + 2
    assert len(biased.model.terms) == len(net.model.terms) + 1


def test_dedlu_selects_satisfying_assignments():
    rng = random.Random(51)
    for _ in range(5):
        cnf = random_cnf(rng, n=6, m=14)
        net = gl.attach_dedlu(sat_network(cnf), "sat", 1)
        e, states = net.ground_states()
        oracle = set(gl.brute_force_satisfying_set(cnf))
        if oracle:
            assert e == 0
            assert cnf_inputs_projection(net, states, 6) == oracle
        else:
            assert e == 1
            assert len(states) == 1 << 6


def test_dedlu_unsatisfiable_lifts_everything():
    cnf = gl.Cnf(2, ((1,), (-1,), (2, -2)))
    net = gl.attach_dedlu(sat_network(cnf), "sat", 1)
    e, states = net.ground_states()
    assert e == 1  # base ground plus one decision penalty
    assert len(states) == 4
    assert cnf_inputs_projection(net, states, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_dedlu_clamped_port_contributes_nothing():
    cnf = gl.Cnf(2, ((1, -2),))
    plain = sat_network(cnf)
    lifted = gl.attach_dedlu(plain, "sat", 1)
    sat_var = plain.port_map["sat"]
    a = {**dict.fromkeys(plain.model.var_ids, 0)}
    values = gl.evaluate(gl.encode_cnf(cnf), {"x1": 1, "x2": 0})
    full = {plain.port_map[n]: v for n, v in values.items()}
    assert gl.total_energy(lifted.model, full) == gl.total_energy(plain.model, full)
    assert full[sat_var] == 1


def test_medlu_term_weights():
    nl = gl.parse_netlist(
        "INPUT z0\nINPUT z1\nINPUT z2\nOUTPUT y\nGATE NOT z0 -> n\nGATE NOT n -> y\n"
    )
    net = gl.compile_netlist(nl, penalty=8)
    biased = gl.attach_medlu(net, ["z0", "z1", "z2"], 1)
    tables = [t.table for t in biased.model.terms[-3:]]
    assert tables == [(0, 1), (0, 2), (0, 4)]  # c * 2^i on z_i = 1
    # bit pattern 101 carries energy 1 + 4 = 5
    clamped = gl.clamp_inputs(biased, {"z0": 1, "z1": 0, "z2": 1})
    e, _ = clamped.ground_states()
    assert e == 5
    clamped0 = gl.clamp_inputs(biased, {"z0": 0, "z1": 0, "z2": 0})
    assert clamped0.ground_states()[0] == 0


def test_medlu_scaled_weights():
    assert gl.Medlu((0, 1, 2), Fraction(1, 8)).energy_of((1, 0, 1)) == Fraction(5, 8)


def objective_network(scale=1):
    """3 input bits, 4-bit objective value out: cost(x) = (x0 + 2*x1 + 4*x2 - 3)^2 mod 11."""
    def cost(x0, x1, x2):
        return ((x0 + 2 * x1 + 4 * x2 - 3) ** 2) % 11

    bits = {
        f"z{i}": gl.TruthFunction.from_callable(3, lambda a, b, c, i=i: (cost(a, b, c) >> i) & 1)
        for i in range(4)
    }
    nl = gl.netlist_from_bit_functions(["x0", "x1", "x2"], bits)
    net = gl.compile_netlist(nl, penalty=16 * scale)  # keep the hierarchy strict
    return gl.attach_medlu(net, [f"z{i}" for i in range(4)], scale), cost


def test_medlu_minimization_matches_brute_force():
    net, cost = objective_network()
    e, states = net.ground_states()
    costs = {x: cost((x >> 0) & 1, (x >> 1) & 1, (x >> 2) & 1) for x in range(8)}
    best = min(costs.values())
    argmin = {x for x, c in costs.items() if c == best}
    got = set()
    for a in states:
        got.add(sum(a[net.port_map[f"x{i}"]] << i for i in range(3)))
    assert e == best
    assert got == argmin


def test_medlu_monotonicity_in_scale():
    net1, _ = objective_network(1)
    net2, _ = objective_network(2)
    _, s1 = net1.ground_states()
    _, s2 = net2.ground_states()
    proj = lambda net, states: {
        tuple(a[net.port_map[f"x{i}"]] for i in range(3)) for a in states
    }
    assert proj(net1, s1) == proj(net2, s2)


def test_usqc_identity_without_units():
    net = sat_network(gl.Cnf(2, ((1, 2),)))
    plan, out = gl.assemble_usqc(net)
    assert out.model == net.model
    assert plan.hierarchy_ok
    assert plan.dedlus == () and plan.medlu is None


def test_usqc_hierarchy_violation():
    net = sat_network(gl.Cnf(2, ((1, 2),)), penalty=1)
    with pytest.raises(gl.HierarchyError):
        gl.assemble_usqc(net, dedlu_ports=["sat"], delta=1)


def test_usqc_sat_witnesses():
    rng = random.Random(52)
    cnf = random_cnf(rng, n=7, m=16)
    plan, net = gl.assemble_usqc(sat_network(cnf), dedlu_ports=["sat"])
    assert plan.hierarchy_ok
    _, states = net.ground_states()
    assert cnf_inputs_projection(net, states, 7) == set(gl.brute_force_satisfying_set(cnf))


def test_usqc_decision_then_minimization():
    """With both unit kinds the ground states are the all-YES instances of
    minimal encoded integer."""
    cnf = gl.Cnf(3, ((1, 2, 3),))  # exclude only 000
    base = sat_network(cnf, penalty=2)
    plan, net = gl.assemble_usqc(
        base, dedlu_ports=["sat"], medlu_ports=["x1", "x2", "x3"], delta=1
    )
    assert plan.hierarchy_ok
    assert net.bias_budget < base.penalty_floor
    e, states = net.ground_states()
    assert cnf_inputs_projection(net, states, 3) == {(1, 0, 0)}  # smallest satisfying Z
    assert e == plan.medlu.scale  # delta contributes 0, Z = 1 costs c


def test_usqc_default_scale_keeps_objective_below_delta():
    cnf = gl.Cnf(3, ((1, 2, 3),))
    plan, _ = gl.assemble_usqc(
        sat_network(cnf, penalty=2), dedlu_ports=["sat"], medlu_ports=["x1", "x2", "x3"]
    )
    m_plus_1 = len(plan.medlu.mports)
    assert plan.medlu.scale * ((1 << m_plus_1) - 1) < plan.dedlus[0].delta


def test_degeneracy_lifting_exactness():
    """On an energy-degeneracy-conserving base, every logic-consistent state
    costs base + delta * (#NO answers) + c * Z, exactly."""
    cnf = gl.Cnf(3, ((1, -2), (2, 3)))
    nl = gl.encode_cnf(cnf)
    base = gl.compile_netlist(nl, penalty=4)
    plan, net = gl.assemble_usqc(
        base, dedlu_ports=["sat"], medlu_ports=["x1", "x2"], delta=1, scale=Fraction(1, 8)
    )
    for x in range(8):
        bits = {f"x{i}": (x >> (i - 1)) & 1 for i in range(1, 4)}
        values = gl.evaluate(nl, bits)
        a = {net.port_map[n]: v for n, v in values.items()}
        z = bits["x1"] + 2 * bits["x2"]
        expected = base.base_ground + (1 - values["sat"]) * 1 + Fraction(1, 8) * z
        assert gl.total_energy(net.model, a) == expected


def test_hierarchy_safety_by_enumeration():
    """No logic-violating state is a ground state: every enumerated ground
    state agrees with the netlist evaluation of its own inputs."""
    cnf = gl.Cnf(3, ((1, 2), (-1, 3)))
    nl = gl.encode_cnf(cnf)
    _, net = gl.assemble_usqc(gl.compile_netlist(nl, penalty=2), dedlu_ports=["sat"])
    _, states = gl.enumerate_ground_states(net.model)
    for a in states:
        bits = {n: a[net.port_map[n]] for n in net.inputs}
        values = gl.evaluate(nl, bits)
        for n, var in net.port_map.items():
            assert a[var] == values[n]


def test_dedlu_on_lattice_decision_cell():
    """End-to-end search: keep only input tapes whose answer bit is 1."""
    neg_head = gl.DtmSpec(
        ("go", "stop"), "go", frozenset({"stop"}),
        {("go", 0): ("stop", 1, "U"), ("go", 1): ("stop", 0, "U")},
        decision_cell=1,
    )
    lat = gl.build_lattice(neg_head, 2, 1, policy="penalty", penalty=2)
    answer_port = f"t{lat.p + 1}_{neg_head.decision_cell}"
    net = gl.attach_dedlu(lat.network, answer_port, 1)
    e, states = net.ground_states()
    assert e == 0
    tapes = {
        tuple(a[lat.plan.register_var[(1, j)]] for j in (1, 2)) for a in states
    }
    expected = set()
    for tape in ((0, 0), (0, 1), (1, 0), (1, 1)):
        h = gl.simulate_dtm_oracle(neg_head, tape, 1, 2)
        if h.rows[-1][neg_head.decision_cell - 1] == 1:
            expected.add(tape)
    assert tapes == expected
