import hashlib
import math
import random

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import groundlogic as gl
from util import random_cnf, random_model, reference_anneal

GENEROUS = gl.AnnealSchedule(t_start=2.0, t_end=0.05, sweeps=150, restarts=4, seed=7)


def wire_model():
    return gl.EnergyModel(
        (gl.Variable(0), gl.Variable(1)),
        (gl.EnergyTerm((0, 1), (0, 1, 1, 0)),),
    )


def test_schedule_validation():
    with pytest.raises(gl.ModelError):
        gl.AnnealSchedule(t_start=0.1, t_end=1.0, sweeps=10)
    with pytest.raises(gl.ModelError):
        gl.AnnealSchedule(t_start=1.0, t_end=0.1, sweeps=0)
    with pytest.raises(gl.ModelError):
        gl.AnnealSchedule(t_start=1.0, t_end=0.1, sweeps=10, cooling=1.5)
    with pytest.raises(gl.ModelError, match="seed must be non-negative"):
        gl.AnnealSchedule(2.0, 0.05, 10, seed=-1)
    with pytest.raises(gl.ModelError, match="finite"):
        gl.AnnealSchedule(t_start=math.inf, t_end=0.1, sweeps=10)


def test_schedule_geometric_cooling():
    sched = gl.AnnealSchedule(t_start=4.0, t_end=1.0, sweeps=3)
    assert math.isclose(sched.temperature(0), 4.0)
    assert math.isclose(sched.temperature(1), 2.0)
    assert math.isclose(sched.temperature(2), 1.0)
    # never cools below t_end
    fixed = gl.AnnealSchedule(t_start=2.0, t_end=1.0, sweeps=5, cooling=0.1)
    assert fixed.temperature(4) == 1.0


def test_trivial_landscape_reaches_ground():
    res = gl.metropolis_anneal(wire_model(), GENEROUS, target=0)
    assert res.best_energy == 0
    assert res.success
    assert res.first_hit_sweep is not None


def test_same_seed_is_identical():
    m = wire_model()
    a = gl.metropolis_anneal(m, GENEROUS, target=0)
    b = gl.metropolis_anneal(m, GENEROUS, target=0)
    assert a == b


def test_different_seeds_may_differ_but_stay_sound():
    rng = random.Random(61)
    m = random_model(rng, n_vars=7, n_terms=8)
    e0, _ = gl.enumerate_ground_states(m)
    for seed in range(100):
        sched = gl.AnnealSchedule(t_start=2.0, t_end=0.1, sweeps=30, restarts=1, seed=seed)
        res = gl.metropolis_anneal(m, sched, target=e0)
        assert res.best_energy >= e0


def test_incremental_energy_matches_full_recompute():
    # the reference recomputes every dE in Fractions from the model's own
    # terms, so a flip XORed into the wrong bit or the wrong term, or a
    # field left stale, changes the trajectory
    rng = random.Random(62)
    models = [random_model(rng, n_vars=8, n_terms=10) for _ in range(3)]
    models.append(random_model(rng, n_vars=9, n_terms=12).with_clamps({2: 1}))
    cnf = random_cnf(rng, n=5, m=12)
    models.append(gl.attach_dedlu(gl.compile_netlist(gl.encode_cnf(cnf), penalty=2), "sat", 1).model)
    for trial, m in enumerate(models):
        sched = gl.AnnealSchedule(t_start=3.0, t_end=0.2, sweeps=400, restarts=2, seed=trial)
        assert repr(gl.metropolis_anneal(m, sched)) == repr(reference_anneal(m, sched))


def test_clamped_variables_never_flip():
    m = wire_model().with_clamps({0: 1})
    res = gl.metropolis_anneal(m, GENEROUS, target=0)
    assert res.best_assignment[0] == 1
    assert res.best_energy == 0
    assert res.best_assignment[1] == 1


def test_nothing_to_do():
    m = gl.EnergyModel((gl.Variable(0),), clamps={0: 1})
    with pytest.raises(gl.NothingToDoError):
        gl.metropolis_anneal(m, GENEROUS)


def test_energy_change_too_large_for_a_float_raises():
    def model(scale):
        table = tuple(Fraction(e) * scale for e in (0, 1, 1, 0))
        return gl.EnergyModel((gl.Variable(0), gl.Variable(1)), (gl.EnergyTerm((0, 1), table),))

    sched = gl.AnnealSchedule(t_start=2.0, t_end=0.05, sweeps=5)
    with pytest.raises(gl.ModelError, match="energy change"):
        gl.metropolis_anneal(model(10**400), sched)
    assert gl.metropolis_anneal(model(10**300), sched).best_energy == 0


def test_detailed_balance_at_fixed_temperature():
    """Acceptance rate of a dE=1 uphill move at T=1 sits within 3 sigma of
    1/e over at least 1e5 attempts."""
    m = gl.EnergyModel((gl.Variable(0),), (gl.EnergyTerm((0,), (0, 1)),))
    sched = gl.AnnealSchedule(t_start=1.0, t_end=1.0, sweeps=250_000, restarts=1, seed=3)
    res = gl.metropolis_anneal(m, sched)
    assert res.uphill_attempts >= 100_000
    p = math.exp(-1)
    rate = res.uphill_accepts / res.uphill_attempts
    sigma = math.sqrt(p * (1 - p) / res.uphill_attempts)
    assert abs(rate - p) < 3 * sigma


def test_relaxation_scan_wire_chains():
    instances = []
    ids = []
    for length in range(2, 11):
        chain = gl.make_wire_chain(length)
        instances.append((chain.fragment, 0))
        ids.append(f"chain{length}")
    sched = gl.AnnealSchedule(t_start=2.0, t_end=0.05, sweeps=120, restarts=5, seed=11)
    stats = gl.relaxation_scan(instances, sched, ids=ids)
    assert [row.success_rate for row in stats.rows] == [1.0] * 9
    assert all(row.median_first_hit_sweep is not None for row in stats.rows)


def test_relaxation_scan_empty():
    stats = gl.relaxation_scan([], GENEROUS)
    assert stats.rows == ()
    assert gl.stats_to_csv(stats) == gl.anneal.CSV_HEADER + "\n"


def test_relaxation_scan_csv_well_formed():
    rng = random.Random(63)
    instances = []
    ids = []
    for n in (4, 5, 6):
        cnf = random_cnf(rng, n=n, m=int(2.5 * n))
        net = gl.attach_dedlu(gl.compile_netlist(gl.encode_cnf(cnf), penalty=2), "sat", 1)
        e0, _ = net.ground_states()
        instances.append((net.model, e0))
        ids.append(f"cnf{n}")
    sched = gl.AnnealSchedule(t_start=2.0, t_end=0.1, sweeps=60, restarts=3, seed=12)
    stats = gl.relaxation_scan(instances, sched, ids=ids)
    csv_text = gl.stats_to_csv(stats)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "instance,n,restarts,successes,success_rate,median_first_hit_sweep"
    assert len(lines) == 4
    for line, row in zip(lines[1:], stats.rows):
        fields = line.split(",")
        assert fields[0] == row.instance
        assert int(fields[1]) == row.n
        assert 0.0 <= float(fields[4]) <= 1.0


def test_merge_prefers_lowest_energy_then_first_restart():
    rng = random.Random(64)
    m = random_model(rng, n_vars=6, n_terms=8)
    sched = gl.AnnealSchedule(t_start=2.0, t_end=0.05, sweeps=80, restarts=6, seed=9)
    res = gl.metropolis_anneal(m, sched)
    assert res.best_energy == min(r.best_energy for r in res.restarts)
    assert gl.total_energy(m, res.best_assignment) == res.best_energy


# sha256 of repr(metropolis_anneal(...)): pins every restart's best energy,
# first-hit sweep and uphill counts, so same-seed trajectories stay fixed.
ANNEAL_GOLDEN = {
    "cnf14x59": "290767f340a9774cea4642a30f42e48758298354d579db6bd9298889317fd178",
    "cnf301": "ae57e149fe5f83a9c54ffeb46f8a5b661d19866e9fa732528dfe3dd04e34d028",
    "rational802": "d8b9f2a00a319d3eadf1c270db6f7248d0ee700bea61d578ddba6cbad7465017",
}


def _golden_instance(name):
    if name == "cnf14x59":
        # the benchmark's anneal-readout size, on a shorter schedule
        cnf = random_cnf(random.Random(301), 14, 59)
        net = gl.attach_dedlu(gl.compile_netlist(gl.encode_cnf(cnf), penalty=2), "sat", 1)
        sched = gl.AnnealSchedule(t_start=2.0, t_end=0.05, sweeps=20, restarts=2, seed=301)
        return net.model, sched, net.ground_states()[0]
    if name == "cnf301":
        cnf = random_cnf(random.Random(301), 6, 20)
        net = gl.attach_dedlu(gl.compile_netlist(gl.encode_cnf(cnf), penalty=2), "sat", 1)
        sched = gl.AnnealSchedule(t_start=3.0, t_end=0.05, sweeps=120, restarts=3, seed=301)
        return net.model, sched, net.ground_states()[0]
    m = random_model(random.Random(802), n_vars=9, n_terms=14).with_clamps({4: 1})
    sched = gl.AnnealSchedule(t_start=2.0, t_end=0.1, sweeps=30, restarts=4, seed=802)
    return m, sched, gl.enumerate_ground_states(m)[0]


@pytest.mark.parametrize("name", sorted(ANNEAL_GOLDEN))
def test_golden_anneal(name):
    m, sched, e0 = _golden_instance(name)
    result = gl.metropolis_anneal(m, sched, target=e0)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == ANNEAL_GOLDEN[name]


@st.composite
def anneal_cases(draw):
    """Small rational models with clamps (one free variable, odd and even
    counts of them), a schedule and an optional target."""
    nfree = draw(st.integers(1, 7))
    n = nfree + draw(st.integers(0, 2))
    energies = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        vars_ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        table = draw(st.lists(energies, min_size=1 << len(vars_), max_size=1 << len(vars_)))
        terms.append(gl.EnergyTerm(tuple(vars_), tuple(table)))
    clamped = draw(st.permutations(range(n)))[: n - nfree]
    clamps = {v: draw(st.integers(0, 1)) for v in clamped}
    model = gl.EnergyModel(tuple(gl.Variable(i) for i in range(n)), tuple(terms), clamps)
    t_end = draw(st.sampled_from((0.05, 0.3, 1.0)))
    sched = gl.AnnealSchedule(
        t_start=t_end * draw(st.sampled_from((1, 4, 40))),
        t_end=t_end,
        sweeps=draw(st.integers(1, 40)),
        restarts=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
    )
    target = draw(st.one_of(st.none(), energies))
    return model, sched, target


# one free variable beside a clamp, where numpy draws nothing for a position
_ONE_FREE = (
    gl.EnergyModel(
        (gl.Variable(0), gl.Variable(1)),
        (gl.EnergyTerm((0, 1), tuple(map(Fraction, (0, 1, 2, -1)))),),
        {1: 1},
    ),
    gl.AnnealSchedule(t_start=4.0, t_end=1.0, sweeps=40, restarts=2, seed=5),
    Fraction(-1),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(anneal_cases())
@example(_ONE_FREE)
def test_anneal_matches_reference(case):
    # one sweep per numpy call, a few with a shorter last call, the default,
    # and every sweep in one call: a trajectory that depends on how the
    # draws are split fails at one of them
    model, sched, target = case
    expected = repr(reference_anneal(model, sched, target=target))
    for draws in (1, 8, gl.anneal._DRAWS, 2**20):
        with mock.patch.object(gl.anneal, "_DRAWS", draws):
            assert repr(gl.metropolis_anneal(model, sched, target=target)) == expected
