import pytest
from hypothesis import given, settings, strategies as st

import groundlogic as gl
from util import (
    FLIPPER, THREE_STATE, TWO_STATE, WRITE1_HALT, extend_by_forcings, flat_lattice, head_bus_codes,
    sfsc_cell,
)


def test_dtm_validation():
    with pytest.raises(gl.DtmError):
        gl.DtmSpec(("q",), "missing", frozenset(), {("q", 0): ("q", 0, "U"), ("q", 1): ("q", 0, "U")})
    with pytest.raises(gl.DtmError):
        gl.DtmSpec(("q",), "q", frozenset(), {("q", 0): ("q", 0, "U")})  # delta not total
    with pytest.raises(gl.DtmError):
        gl.DtmSpec(("q",), "q", frozenset(), {("q", 0): ("q", 0, "X"), ("q", 1): ("q", 0, "U")})
    total = {("q", 0): ("q", 0, "U"), ("q", 1): ("q", 1, "U")}
    # bits that `format_dtm` would write and `parse_dtm` refuse
    with pytest.raises(gl.DtmError, match="read bit 2"):
        gl.DtmSpec(("q",), "q", frozenset(), {**total, ("q", 2): ("q", 0, "U")})
    with pytest.raises(gl.DtmError, match="read bit True"):
        gl.DtmSpec(("q", "h"), "q", frozenset({"h"}), {("q", 0): ("h", 0, "U"), ("q", True): ("h", 0, "U")})
    with pytest.raises(gl.DtmError, match="bad delta target"):
        gl.DtmSpec(("q",), "q", frozenset(), {**total, ("q", 1): ("q", True, "U")})
    for cell in (True, 1.5):
        with pytest.raises(gl.DtmError, match="decision cell"):
            gl.DtmSpec(("q",), "q", frozenset(), total, decision_cell=cell)


@pytest.mark.parametrize("n_states,width", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_bus_width(n_states, width):
    states = tuple(f"s{i}" for i in range(n_states))
    delta = {(q, b): (states[0], b, "U") for q in states for b in (0, 1)}
    dtm = gl.DtmSpec(states, states[0], frozenset(), delta)
    assert dtm.bus_width == width


def test_sfsc_rule_passthrough():
    f = gl.build_sfsc_function(FLIPPER)
    assert f.value(1, 0, 0) == (1, 0, 0)
    assert f.value(0, 0, 0) == (0, 0, 0)


def test_sfsc_rule_flipper_head():
    f = gl.build_sfsc_function(FLIPPER)
    code = FLIPPER.code("q")
    assert f.value(0, 0, code) == (1, 0, code)  # write the flipped bit, move up
    assert f.value(1, code, 0) == (0, 0, code)


def test_sfsc_rule_both_buses_nonzero():
    f = gl.build_sfsc_function(TWO_STATE)
    assert f.value(1, 1, 2) == (1, 0, 0)


def test_sfsc_rule_unused_code_passthrough():
    f = gl.build_sfsc_function(TWO_STATE)
    assert f.value(0, 3, 0) == (0, 0, 0)  # code 3 encodes no state


def test_sfsc_rule_halt_state_absorbs():
    f = gl.build_sfsc_function(WRITE1_HALT)
    halt_code = WRITE1_HALT.code("stop")
    assert f.value(1, 0, halt_code) == (1, 0, 0)
    assert f.value(0, halt_code, 0) == (0, 0, 0)


def test_sfsc_rule_down_mover():
    f = gl.build_sfsc_function(TWO_STATE)
    code_b = TWO_STATE.code("b")
    w, od, ou = f.value(0, code_b, 0)
    assert (w, od, ou) == (1, TWO_STATE.code("a"), 0)  # delta(b,0) writes 1, moves down


def test_oracle_flipper_hand_checked_rows():
    h = gl.simulate_dtm_oracle(FLIPPER, (0, 1, 0), 1, 3)
    assert h.rows == ((0, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 1))
    assert h.heads[0] == (1, "q", "U")
    assert h.heads[3] is None  # walked off the top


def test_oracle_halting_machine_freezes_tape():
    h = gl.simulate_dtm_oracle(WRITE1_HALT, (0, 0, 0), 1, 3)
    assert h.rows == ((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0))
    assert h.heads[1] == (2, "stop", "U")
    assert h.heads[2] is None


def test_oracle_head_exits_bottom():
    h = gl.simulate_dtm_oracle(TWO_STATE, (1, 0), 1, 2)
    # delta(a,1) keeps state a moving up; delta at (2) -> b writes 1 up, exits
    assert h.heads[-1] is None


@pytest.mark.parametrize("dtm", [FLIPPER, TWO_STATE, WRITE1_HALT])
def test_sfsc_netlist_matches_truth_map(dtm):
    f = gl.build_sfsc_function(dtm)
    nl = gl.build_sfsc_netlist(f)
    s = f.bus_width
    for x in range(1 << f.arity):
        bits = {n: (x >> j) & 1 for j, n in enumerate(gl.turing.sfsc_input_nets(s))}
        values = gl.evaluate(nl, bits)
        r = bits["r"]
        idc = sum(bits[f"id{b}"] << b for b in range(s))
        iuc = sum(bits[f"iu{b}"] << b for b in range(s))
        got = (
            values["w"],
            sum(values[f"od{b}"] << b for b in range(s)),
            sum(values[f"ou{b}"] << b for b in range(s)),
        )
        assert got == f.value(r, idc, iuc)


@pytest.mark.parametrize("policy", ["penalty", "edc-symmetrized"])
def test_sfsc_gadget_edc_and_extension(policy):
    f = gl.build_sfsc_function(FLIPPER)
    net, g = sfsc_cell(f, policy=policy)
    # the lattice stamps exactly this cell: M is its element count
    assert gl.build_lattice(FLIPPER, 2, 1, policy=policy).complexity.m_per_sfsc == net.elements.total
    rep = gl.check_edc(g)
    assert rep.is_edc
    # forced extension reproduces the truth map on every port
    s = f.bus_width
    for x in range(1 << f.arity):
        a = {v: (x >> j) & 1 for j, v in enumerate(g.inputs)}
        full = extend_by_forcings(a, g.forcings)
        w, od, ou = f.value(a[g.inputs[0]],
                            sum(a[g.inputs[1 + b]] << b for b in range(s)),
                            sum(a[g.inputs[1 + s + b]] << b for b in range(s)))
        assert full[net.port_map["w"]] == w
        assert sum(full[net.port_map[f"od{b}"]] << b for b in range(s)) == od
        assert sum(full[net.port_map[f"ou{b}"]] << b for b in range(s)) == ou


def test_sfsc_gadget_width_limit():
    states = tuple(f"s{i}" for i in range(8))  # needs a 4-bit bus
    delta = {(q, b): (states[0], b, "U") for q in states for b in (0, 1)}
    dtm = gl.DtmSpec(states, states[0], frozenset(), delta)
    with pytest.raises(gl.DtmError, match="desk-scale"):
        gl.build_lattice(dtm, 2, 1)


def _lattice_record(lat):
    net = lat.network
    return {
        "dump": gl.format_model(net.model),
        "counts": repr(net.elements.counts),
        "forcings": repr(net.plan),
        "port_map": list(net.port_map.items()),
        "clamps": list(net.model.clamps.items()),
        "plan": lat.plan,
        "complexity": lat.complexity,
        "inputs": net.inputs,
        "outputs": net.outputs,
        "solve": (net.penalty_floor, net.base_ground, net.edc),
    }


def _differential_cases():
    machines = {"flipper": FLIPPER, "two-state": TWO_STATE, "write1-halt": WRITE1_HALT,
                "three-state": THREE_STATE}
    for name, dtm in machines.items():
        for policy, top in (("penalty", 4), ("edc-symmetrized", 3)):
            for p in range(1, top + 1):
                for head in range(1, p + 1):
                    for tape in (None, tuple((j + head) % 2 for j in range(p))):
                        yield pytest.param(dtm, p, head, tape, policy,
                                           id=f"{name}-{policy}-p{p}-h{head}-{'free' if tape is None else 'clamped'}")


@pytest.mark.parametrize("dtm,p,head,tape,policy", _differential_cases())
def test_stamped_lattice_matches_flat_reference(dtm, p, head, tape, policy):
    stamped = gl.build_lattice(dtm, p, head, tape_in=tape, policy=policy)
    flat = flat_lattice(dtm, p, head, tape_in=tape, policy=policy)
    assert _lattice_record(stamped) == _lattice_record(flat)


def test_stamped_lattice_matches_flat_reference_with_function_override():
    f = gl.build_sfsc_function(THREE_STATE)
    bad = f.with_entry(1, THREE_STATE.code("a"), 0, (1, 0, THREE_STATE.code("b")))
    for policy in ("penalty", "edc-symmetrized"):
        stamped = gl.build_lattice(THREE_STATE, 3, 2, policy=policy, function=bad)
        flat = flat_lattice(THREE_STATE, 3, 2, policy=policy, function=bad)
        assert _lattice_record(stamped) == _lattice_record(flat)
    assert not gl.verify_ground_histories(gl.build_lattice(THREE_STATE, 3, 2, function=bad))


@st.composite
def random_machines(draw):
    """(machine, p, head start, tape or None, policy): 1-4 states with
    random halt states and a random total delta, p = 1-4; at most 3 states
    and p <= 3 under the symmetrized policy."""
    policy = draw(st.sampled_from(gl.netbuilder.POLICIES))
    top = 3 if policy == "edc-symmetrized" else 4
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, top))))
    halts = frozenset(q for q in states if draw(st.booleans()))
    target = st.tuples(st.sampled_from(states), st.integers(0, 1), st.sampled_from("UD"))
    delta = {(q, b): draw(target) for q in states if q not in halts for b in (0, 1)}
    p = draw(st.integers(1, top))
    head = draw(st.integers(1, p))
    tape = draw(st.none() | st.tuples(*[st.integers(0, 1)] * p))
    return gl.DtmSpec(states, states[0], halts, delta), p, head, tape, policy


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_machines())
def test_random_machine_lattices_verify_and_match_flat_reference(case):
    dtm, p, head, tape, policy = case
    lat = gl.build_lattice(dtm, p, head, tape_in=tape, policy=policy)
    assert gl.verify_ground_histories(lat)
    assert lat.complexity.within_bound
    flat = flat_lattice(dtm, p, head, tape_in=tape, policy=policy)
    assert _lattice_record(lat) == _lattice_record(flat)


def test_three_state_machine_lattice():
    assert THREE_STATE.bus_width == 2
    for head in (1, 2, 3):
        assert gl.verify_ground_histories(gl.build_lattice(THREE_STATE, 3, head))


def test_lattice_clamped_tape_unique_history():
    lat = gl.build_lattice(FLIPPER, 3, 1, tape_in=(0, 1, 0))
    e, states = lat.network.ground_states()
    assert e == 0 and len(states) == 1
    rows = [
        tuple(states[0][lat.plan.register_var[(i, j)]] for j in range(1, 4))
        for i in range(1, 5)
    ]
    assert rows == [(0, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 1)]
    assert gl.verify_ground_histories(lat)


def test_lattice_free_tape_parallel_histories():
    lat = gl.build_lattice(FLIPPER, 3, 1)
    e, states = lat.network.ground_states()
    assert e == 0
    assert len(states) == 8
    assert gl.verify_ground_histories(lat)


def test_lattice_p1_degenerate():
    lat = gl.build_lattice(FLIPPER, 1, 1, tape_in=(1,))
    assert gl.verify_ground_histories(lat)


def test_lattice_two_state_machine():
    lat = gl.build_lattice(TWO_STATE, 3, 2)
    e, states = lat.network.ground_states()
    assert len(states) == 8
    assert gl.verify_ground_histories(lat)


def test_lattice_halting_machine():
    lat = gl.build_lattice(WRITE1_HALT, 3, 1)
    assert gl.verify_ground_histories(lat)


def test_lattice_head_start_range():
    with pytest.raises(gl.DtmError):
        gl.build_lattice(FLIPPER, 3, 4)
    with pytest.raises(gl.DtmError):
        gl.build_lattice(FLIPPER, 3, 1, tape_in=(0, 1))


def test_corrupted_sfsc_row_breaks_bijection():
    f = gl.build_sfsc_function(FLIPPER)
    bad = f.with_entry(0, 0, FLIPPER.code("q"), (0, 0, FLIPPER.code("q")))
    lat = gl.build_lattice(FLIPPER, 3, 1, function=bad)
    assert not gl.verify_ground_histories(lat)


def test_single_head_invariant():
    """Every ground state has at most one nonzero incoming bus per row, and
    the bus codes match the oracle head trace."""
    for dtm, p, start in ((FLIPPER, 3, 1), (TWO_STATE, 3, 2), (WRITE1_HALT, 3, 1)):
        lat = gl.build_lattice(dtm, p, start)
        _, states = lat.network.ground_states()
        for a in states:
            tape = tuple(a[lat.plan.register_var[(1, j)]] for j in range(1, p + 1))
            h = gl.simulate_dtm_oracle(dtm, tape, start, p)
            for i in range(1, p + 1):
                live = []
                for j in range(1, p + 1):
                    down, up = head_bus_codes(lat, a, i, j)
                    assert not (down and up)
                    if down or up:
                        live.append((j, down or up, "D" if down else "U"))
                assert len(live) <= 1
                head = h.heads[i - 1]
                if head is None:
                    assert live == []
                else:
                    pos, state, via = head
                    assert live == [(pos, dtm.code(state), via)]


def test_whole_lattice_energy_is_input_independent():
    # per-input ground energy is constant: a single degenerate ground level
    for policy in ("penalty", "edc-symmetrized"):
        lat = gl.build_lattice(FLIPPER, 2, 1, policy=policy)
        e, states = lat.network.ground_states()
        assert len(states) == 4
        assert e == lat.network.base_ground
        for a in states:
            assert gl.total_energy(lat.network.model, a) == e


def test_complexity_accounting():
    lat = gl.build_lattice(FLIPPER, 3, 1)
    c = lat.complexity
    assert c.sfsc_elements == c.m_per_sfsc * 9
    assert c.registers == 4 * 3
    assert c.total == c.sfsc_elements + c.registers
    assert c.bound == (c.m_per_sfsc + 1) * 9
    assert c.total == c.bound + 3  # the extra register row, exactly
    assert c.within_bound


def test_dtm_text_format_round_trip():
    text = gl.format_dtm(TWO_STATE)
    parsed = gl.parse_dtm(text)
    assert parsed == TWO_STATE
    assert gl.format_dtm(parsed) == text


@pytest.mark.parametrize("name", ["a#b", "a b", "", "q\nSTART x"])
def test_dtm_state_names_that_do_not_read_back_are_refused(name):
    dtm = gl.DtmSpec((name,), name, frozenset({name}), {})
    with pytest.raises(gl.turing.DtmError, match="does not read back"):
        gl.format_dtm(dtm)


def test_dtm_text_format_errors():
    with pytest.raises(gl.turing.DtmFormatError) as info:
        gl.parse_dtm("STATE q\nSTART q\nDELTA q 0 -> q 1 X\n")
    assert info.value.line == 3
    with pytest.raises(gl.turing.DtmFormatError):
        gl.parse_dtm("STATE q\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n")  # no START
