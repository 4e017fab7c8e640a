import random

import pytest

import groundlogic as gl
from groundlogic.cli import main
from util import random_cnf

AND_NET = "INPUT a\nINPUT b\nOUTPUT y\nGATE AND a b -> y\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_and_netlist(tmp_path, capsys):
    src = tmp_path / "and.net"
    src.write_text(AND_NET)
    out = tmp_path / "and.dump"
    code, stdout, _ = run(capsys, "compile", str(src), "--out", str(out))
    assert code == 0
    dump = out.read_text()
    assert dump.count("TERM") == 1
    assert "element counts:" in stdout and "  AND 1" in stdout and "  total 1" in stdout


def test_compile_round_trip_is_byte_identical(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text(gl.format_dimacs(random_cnf(random.Random(71), 5, 12)))
    out = tmp_path / "f.dump"
    code, _, _ = run(capsys, "compile", str(src), "--penalty", "2", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert gl.format_model(gl.parse_model(text)) == text


def test_compile_dimacs_counts_match_library(tmp_path, capsys):
    cnf = random_cnf(random.Random(72), 5, 12)
    src = tmp_path / "f.cnf"
    src.write_text(gl.format_dimacs(cnf))
    # without --out the dump goes to stdout and the report to stderr
    code, stdout, stderr = run(capsys, "compile", str(src))
    assert code == 0
    assert stdout == gl.format_model(gl.compile_netlist(gl.encode_cnf(cnf)).model)
    expected = gl.compile_netlist(gl.encode_cnf(cnf)).elements
    for key, value in expected.counts.items():
        assert f"  {key} {value}" in stderr
    assert f"  total {expected.total}" in stderr


def test_compile_malformed_dimacs_line_number(tmp_path, capsys):
    src = tmp_path / "bad.cnf"
    src.write_text("p cnf 2 1\n1 -2\n")
    code, _, stderr = run(capsys, "compile", str(src))
    assert code == 1
    assert "line 2" in stderr


def test_solve_exact_wire_chain(tmp_path, capsys):
    chain = gl.make_wire_chain(5, 1)
    dump = tmp_path / "chain.dump"
    dump.write_text(gl.format_model(chain.fragment))
    code, stdout, _ = run(capsys, "solve", str(dump))
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "E0=0 deg=2"
    assert lines[1:] == ["00000", "11111"]


def test_solve_exact_sat_dump_matches_oracle(tmp_path, capsys):
    # small enough for the CLI's blind exhaustive solver
    cnf = random_cnf(random.Random(73), 3, 4)
    net = gl.attach_dedlu(gl.compile_netlist(gl.encode_cnf(cnf), penalty=2), "sat", 1)
    dump = tmp_path / "sat.dump"
    dump.write_text(gl.format_model(net.model))
    code, stdout, _ = run(capsys, "solve", str(dump))
    assert code == 0
    lines = stdout.strip().split("\n")
    oracle = set(gl.brute_force_satisfying_set(cnf))
    assert oracle  # seed chosen satisfiable
    assert lines[0] == f"E0=0 deg={len(oracle)}"
    # inputs are the first allocated variables, in x1..xn order
    got = {tuple(int(c) for c in line[:3]) for line in lines[1:]}
    assert got == oracle


def test_solve_exact_capacity_refusal(tmp_path, capsys):
    model = gl.EnergyModel(tuple(gl.Variable(i) for i in range(30)))
    dump = tmp_path / "big.dump"
    dump.write_text(gl.format_model(model))
    code, _, stderr = run(capsys, "solve", str(dump))
    assert code == 2
    assert "30 free variables" in stderr


def test_solve_anneal_byte_identical(tmp_path, capsys):
    src = tmp_path / "and.net"
    src.write_text(AND_NET)
    dump = tmp_path / "and.dump"
    run(capsys, "compile", str(src), "--out", str(dump))
    argv = ["solve", str(dump), "--method", "anneal", "--seed", "5",
            "--sweeps", "40", "--target", "0"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed=5" in out1
    assert "success=true" in out1


@pytest.mark.parametrize("energy, code", [("1e400", 1), ("1e300", 0)])
def test_solve_anneal_float_overflow_is_an_error(tmp_path, capsys, energy, code):
    dump = tmp_path / "huge.dump"
    dump.write_text(f"VAR 0 wire\nVAR 1 wire\nTERM 2 0 1 : 0 {energy} {energy} 0\n")
    got, out, stderr = run(capsys, "solve", str(dump), "--method", "anneal", "--sweeps", "5")
    assert got == code
    if code:
        assert stderr.startswith("error: ") and "energy change" in stderr
    else:
        assert "best_energy=0" in out


def test_consecutive_calls_share_no_options(tmp_path, capsys):
    # the parser is built once per process, so one call's options must not
    # reach the next call
    assert gl.cli.build_parser() is gl.cli.build_parser()
    dump = tmp_path / "chain.dump"
    dump.write_text(gl.format_model(gl.make_wire_chain(3, 1).fragment))
    code, out, _ = run(capsys, "solve", str(dump), "--method", "anneal", "--seed", "3")
    assert code == 0 and out.splitlines()[0] == "seed=3"
    code, out, _ = run(capsys, "solve", str(dump), "--method", "anneal")
    assert code == 0 and out.splitlines()[0] == "seed=0"
    code, _, stderr = run(capsys, "solve", str(dump), "--seed", "three")
    assert code == 1 and stderr.startswith("error: ")


def test_solve_anneal_restart_csv(tmp_path, capsys):
    chain = gl.make_wire_chain(4, 1)
    dump = tmp_path / "chain.dump"
    dump.write_text(gl.format_model(chain.fragment))
    csv_path = tmp_path / "r.csv"
    code, _, _ = run(capsys, "solve", str(dump), "--method", "anneal",
                     "--restarts", "3", "--target", "0", "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "restart,best_energy,first_hit_sweep,success"
    assert len(lines) == 4


def test_check_edc_verdicts(tmp_path, capsys):
    cases = [
        (gl.synthesize_gadget(gl.NOT, 1), "verdict: EDC"),
        (gl.make_physical_and(0, 0, 0, -1, 2), "verdict: non-EDC"),
        (gl.symmetrize(gl.make_physical_and(0, 0, 0, -1, 2)), "verdict: EDC"),
    ]
    for i, (gadget, verdict) in enumerate(cases):
        path = tmp_path / f"g{i}.dump"
        path.write_text(gl.format_gadget(gadget))
        code, stdout, _ = run(capsys, "check-edc", str(path))
        assert code == 0
        assert verdict in stdout
        assert "input" in stdout and "ground" in stdout


def test_check_edc_missing_ports(tmp_path, capsys):
    path = tmp_path / "plain.dump"
    path.write_text("VAR 0 wire\nTERM 1 0 : 0 1\n")
    code, _, stderr = run(capsys, "check-edc", str(path))
    assert code == 1
    assert "out port" in stderr


def test_dtm_report_and_verify(tmp_path, capsys):
    path = tmp_path / "flip.dtm"
    path.write_text(
        "STATE q\nSTART q\nDECISION 1\n"
        "DELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n"
    )
    code, stdout, _ = run(capsys, "dtm", str(path), "--p", "3",
                          "--head-start", "1", "--tape", "010", "--verify")
    assert code == 0
    assert "M=" in stdout and "p=3" in stdout
    assert "within_bound=true" in stdout
    assert "verify=ok" in stdout


def test_dtm_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "flip.dtm"
    path.write_text(
        "STATE q\nSTART q\nDECISION 1\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n"
    )
    monkeypatch.setattr("groundlogic.cli.verify_ground_histories", lambda lat: False)
    code, stdout, _ = run(capsys, "dtm", str(path), "--p", "2", "--verify")
    assert code == 3
    assert "verify=FAIL" in stdout


def test_dtm_writes_dump(tmp_path, capsys):
    path = tmp_path / "flip.dtm"
    path.write_text(
        "STATE q\nSTART q\nDECISION 1\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n"
    )
    out = tmp_path / "lattice.dump"
    code, _, _ = run(capsys, "dtm", str(path), "--p", "2", "--out", str(out))
    assert code == 0
    model = gl.parse_model(out.read_text())
    assert len(model.clamps) > 0


def test_usage_errors(tmp_path, capsys):
    code, _, stderr = run(capsys, "frobnicate")
    assert code == 1
    code, _, stderr = run(capsys, "solve", str(tmp_path / "missing.dump"))
    assert code == 1
    assert "cannot read" in stderr


@pytest.mark.parametrize("command", [
    ["compile"], ["dtm", "--p", "2"], ["solve"], ["check-edc"],
])
def test_non_utf8_input_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfeVAR 0 wire\n")
    code, _, stderr = run(capsys, command[0], str(path), *command[1:])
    assert code == 1
    lines = stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot read {path}: ")


def test_compile_with_dedlu_flag(tmp_path, capsys):
    cnf = gl.Cnf(2, ((1, -2),))
    src = tmp_path / "f.cnf"
    src.write_text(gl.format_dimacs(cnf))
    out = tmp_path / "f.dump"
    code, _, _ = run(capsys, "compile", str(src), "--penalty", "2",
                     "--delta", "1", "--out", str(out))
    assert code == 0
    model = gl.parse_model(out.read_text())
    e, states = gl.enumerate_ground_states(model)
    assert e == 0
    inputs = {tuple(a[v] for v in (0, 1)) for a in states}
    assert inputs == set(gl.brute_force_satisfying_set(cnf))


def test_compile_hierarchy_violation_fails_cleanly(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf 2 1\n1 2 0\n")
    code, _, stderr = run(capsys, "compile", str(src), "--delta", "1")
    assert code == 1
    assert "penalty" in stderr


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "t.cnf"
    src.write_text("p cnf 2 1\n1 -2 0\n")
    code, _, stderr = run(capsys, "compile", str(src), "--out", str(tmp_path))
    assert code == 1
    assert "cannot write" in stderr
    spec = tmp_path / "flip.dtm"
    spec.write_text("STATE q\nSTART q\nDECISION 1\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n")
    code, _, stderr = run(capsys, "dtm", str(spec), "--p", "2", "--out", str(tmp_path))
    assert code == 1
    assert "cannot write" in stderr


def test_solve_gadget_dump_with_ports(tmp_path, capsys):
    gadget = gl.synthesize_gadget(gl.NOT, 1)
    path = tmp_path / "not.dump"
    path.write_text(gl.format_gadget(gadget))
    code, stdout, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert stdout.splitlines() == ["E0=0 deg=2", "01", "10"]
    path.write_text(gl.format_gadget(gadget) + "PORT sideways 0\n")
    code, _, stderr = run(capsys, "solve", str(path))
    assert code == 1
    assert "PORT" in stderr
    path.write_text("VAR 0 wire\nVAR 0 wire\n")
    code, _, stderr = run(capsys, "solve", str(path))
    assert code == 1
    assert "line 2: duplicate" in stderr
    path.write_text("VAR 0 wire\nTERM 1 0 : 0 1\nCLAMP 3 1\n")
    code, _, stderr = run(capsys, "solve", str(path))
    assert code == 1
    assert "line 3: variable 3 is not declared" in stderr
    path.write_text("VAR 0 wire\nTERM 1 1 : 0 1\nVAR 1 wire\n")  # a use before its VAR
    code, stdout, stderr = run(capsys, "solve", str(path))
    assert (code, stdout) == (1, "")
    assert stderr == "error: line 2: variable 1 is not declared by an earlier VAR\n"


FLIPPER_SPEC = "STATE q\nSTART q\nDELTA q 0 -> q 1 U\nDELTA q 1 -> q 0 U\n"


@pytest.mark.parametrize("case", ["dtm-out", "anneal-overflow", "anneal-all-clamped",
                                  "anneal-negative-seed", "anneal-infinite-start",
                                  "compile-gateless-zero-penalty"])
def test_failing_command_leaves_stdout_empty(tmp_path, capsys, case):
    # on exit 1 no partial report reaches stdout, and stderr holds one error line
    if case == "dtm-out":
        spec = tmp_path / "flipper.dtm"
        spec.write_text(FLIPPER_SPEC)
        argv = ["dtm", str(spec), "--p", "2", "--verify", "--out", str(tmp_path / "missing" / "x.dump")]
    elif case == "compile-gateless-zero-penalty":
        bare = tmp_path / "bare.net"
        bare.write_text("INPUT a\nOUTPUT a\n")
        argv = ["compile", str(bare), "--penalty", "0", "--out", str(tmp_path / "bare.dump")]
    else:
        dump = tmp_path / "case.dump"
        dump.write_text({
            "anneal-overflow": "VAR 0 wire\nVAR 1 wire\nTERM 2 0 1 : 0 1e400 1e400 0\n",
            "anneal-all-clamped": "VAR 0 wire\nCLAMP 0 1\nTERM 1 0 : 0 1\n",
            "anneal-negative-seed": "VAR 0 wire\nTERM 1 0 : 0 1\n",
            "anneal-infinite-start": "VAR 0 wire\nTERM 1 0 : 0 1\n",
        }[case])
        argv = ["solve", str(dump), "--method", "anneal", "--sweeps", "5", "--out", str(tmp_path / "r.csv")]
        if case == "anneal-negative-seed":
            argv += ["--seed", "-1"]
        if case == "anneal-infinite-start":
            argv += ["--t-start", "inf"]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")


def test_solve_exact_prints_the_enumerated_states(tmp_path, capsys):
    # bitstrings in variable-id order, states in the order of enumerate_ground_states
    model = gl.EnergyModel(
        tuple(gl.Variable(v) for v in (7, 2, 5)),
        (gl.EnergyTerm((7, 2), (0, 1, 1, 0)), gl.EnergyTerm((5,), (1, 1))),
        {5: 1},
    )
    path = tmp_path / "m.dump"
    path.write_text(gl.format_model(model))
    code, stdout, _ = run(capsys, "solve", str(path))
    e0, states = gl.enumerate_ground_states(model)
    expected = [f"E0={e0} deg={len(states)}"]
    expected += ["".join(str(a[v]) for v in sorted(a)) for a in states]
    assert code == 0 and stdout == "\n".join(expected) + "\n"


@pytest.mark.parametrize("nl", [
    gl.parse_netlist("INPUT a\n"),
    gl.parse_netlist("INPUT a\nOUTPUT a\n"),
    gl.parse_netlist(""),
    gl.encode_cnf(gl.Cnf(1, ((1,),)), output="x1"),
    gl.decompose_to_basis(gl.TruthFunction(1, (0, 1)), output="x0"),
], ids=["input", "input-is-output", "empty", "cnf-literal", "basis-literal"])
def test_gateless_netlist_compiles_to_its_ports(tmp_path, capsys, nl):
    assert not nl.gates
    net = gl.compile_netlist(nl)
    assert net.model.var_ids == tuple(range(len(nl.inputs))) and not net.model.terms
    assert net.ground_states() == gl.enumerate_ground_states(net.model)
    src, out = tmp_path / "n.net", tmp_path / "n.dump"
    src.write_text(gl.format_netlist(nl))
    code, stdout, _ = run(capsys, "compile", str(src), "--out", str(out))
    assert code == 0 and stdout == "element counts:\n  total 0\n"
    assert out.read_text() == gl.format_model(net.model)
    code, stdout, _ = run(capsys, "solve", str(out))
    assert code == 0 and stdout.splitlines()[0] == f"E0=0 deg={2 ** len(nl.inputs)}"
