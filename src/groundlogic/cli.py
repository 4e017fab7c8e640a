"""Command-line surface: compile, dtm, solve, check-edc.

Exit codes are a stable contract: 0 success, 1 usage or parse error,
2 capacity refusal, 3 verification failure.  Every randomized command echoes
the effective seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

import numpy as np

from .anneal import AnnealSchedule, metropolis_anneal
from .bias import assemble_usqc
from .gadgets import check_edc, parse_gadget
from .model import (
    DEFAULT_CAP,
    CapacityError,
    ModelError,
    _ground_matrix,
    format_model,
    parse_model,
)
from .netbuilder import compile_netlist
from .netlist import (
    NetlistError,
    encode_cnf,
    parse_dimacs,
    parse_netlist,
)
from .turing import build_lattice, parse_dtm, verify_ground_histories

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_out(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _bits(text: str) -> tuple[int, ...]:
    if not text or set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"not a bit string: {text!r}")
    return tuple(int(c) for c in text)


def _bitstring(assignment) -> str:
    return "".join(str(assignment[v]) for v in sorted(assignment))


def _print_counts(elements, stream):
    print("element counts:", file=stream)
    for key in sorted(elements.counts):
        print(f"  {key} {elements.counts[key]}", file=stream)
    print(f"  total {elements.total}", file=stream)


def _looks_like_dimacs(path: str, text: str) -> bool:
    if path.endswith(".cnf"):
        return True
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        return line.startswith("p ") or line.startswith("p\t")
    return False


def cmd_compile(args) -> int:
    text = _read(args.path)
    if _looks_like_dimacs(args.path, text):
        nl = encode_cnf(parse_dimacs(text))
    else:
        nl = parse_netlist(text)
    network = compile_netlist(nl, policy=args.policy, penalty=args.penalty)
    if args.delta is not None or args.scale is not None:
        _, network = assemble_usqc(
            network,
            dedlu_ports=network.outputs if args.delta is not None else (),
            medlu_ports=network.outputs if args.scale is not None else (),
            delta=args.delta if args.delta is not None else 1,
            scale=args.scale,
        )
    _write_out(format_model(network.model), args.out)
    _print_counts(network.elements, sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def cmd_dtm(args) -> int:
    dtm = parse_dtm(_read(args.path))
    tape = args.tape
    lattice = build_lattice(
        dtm,
        args.p,
        args.head_start,
        tape_in=tape,
        policy=args.policy,
        penalty=args.penalty,
    )
    c = lattice.complexity
    report = [
        f"M={c.m_per_sfsc}",
        f"p={c.p}",
        f"sfsc_elements={c.sfsc_elements}",
        f"registers={c.registers}",
        f"total={c.total}",
        f"bound={c.bound}",
        f"bound_plus_p={c.bound_plus_p}",
        f"within_bound={'true' if c.within_bound else 'false'}",
    ]
    # the report is written only once nothing else can fail
    if args.out:
        _write_out(format_model(lattice.network.model), args.out)
    ok = verify_ground_histories(lattice) if args.verify else True
    if args.verify:
        report.append(f"verify={'ok' if ok else 'FAIL'}")
    print("\n".join(report))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_solve(args) -> int:
    model = parse_model(_read(args.path), allow_ports=True)
    if args.method == "exact":
        report, _, states = _ground_matrix(model, None, DEFAULT_CAP)
        # one bitstring per ground state, its bits in variable-id order
        rows = np.vstack([states | ord("0"), np.full(states.shape[1], ord("\n"), dtype=np.uint8)])
        sys.stdout.write(f"E0={report.ground_energy} deg={report.ground_degeneracy}\n"
                         + rows.T.tobytes().decode())
        return EXIT_OK
    sched = AnnealSchedule(
        t_start=args.t_start,
        t_end=args.t_end,
        sweeps=args.sweeps,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = metropolis_anneal(model, sched, target=args.target)
    hit = result.first_hit_sweep if result.first_hit_sweep is not None else "-"
    report = [
        f"seed={args.seed}",
        f"best_energy={result.best_energy}",
        f"best_assignment={_bitstring(result.best_assignment)}",
        f"first_hit_sweep={hit}",
        f"success={'true' if result.success else 'false'}",
    ]
    if args.out:
        lines = ["restart,best_energy,first_hit_sweep,success"]
        for i, r in enumerate(result.restarts):
            hit = r.first_hit_sweep if r.first_hit_sweep is not None else ""
            lines.append(
                f"{i},{r.best_energy},{hit},{'true' if r.success else 'false'}"
            )
        _write_out("\n".join(lines) + "\n", args.out)
    print("\n".join(report))
    return EXIT_OK


def cmd_check_edc(args) -> int:
    gadget = parse_gadget(_read(args.path))
    report = check_edc(gadget)
    for pattern in sorted(report.per_input_ground):
        bits = "".join(str(b) for b in pattern)
        print(f"input {bits} : ground {report.per_input_ground[pattern]}")
    print(f"verdict: {'EDC' if report.is_edc else 'non-EDC'}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: `parse_args` leaves
    it unchanged, and building it costs several times a parse."""
    parser = _Parser(prog="groundlogic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a netlist or DIMACS file")
    p_compile.add_argument("path")
    p_compile.add_argument("--policy", choices=("penalty", "edc-symmetrized"), default="penalty")
    p_compile.add_argument("--penalty", type=_fraction, default=Fraction(1))
    p_compile.add_argument("--delta", type=_fraction, default=None,
                           help="attach a decision bias to each declared output")
    p_compile.add_argument("--scale", type=_fraction, default=None,
                           help="attach minimization weights over the declared outputs")
    p_compile.add_argument("--out", default=None)
    p_compile.set_defaults(func=cmd_compile)

    p_dtm = sub.add_parser("dtm", help="compile a Turing machine lattice")
    p_dtm.add_argument("path")
    p_dtm.add_argument("--p", type=int, required=True)
    p_dtm.add_argument("--head-start", type=int, default=1)
    p_dtm.add_argument("--tape", type=_bits, default=None)
    p_dtm.add_argument("--policy", choices=("penalty", "edc-symmetrized"), default="penalty")
    p_dtm.add_argument("--penalty", type=_fraction, default=Fraction(1))
    p_dtm.add_argument("--verify", action="store_true")
    p_dtm.add_argument("--out", default=None)
    p_dtm.set_defaults(func=cmd_dtm)

    p_solve = sub.add_parser("solve", help="find ground states of a dump")
    p_solve.add_argument("path")
    p_solve.add_argument("--method", choices=("exact", "anneal"), default="exact")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--sweeps", type=int, default=200)
    p_solve.add_argument("--t-start", type=float, default=2.0)
    p_solve.add_argument("--t-end", type=float, default=0.05)
    p_solve.add_argument("--restarts", type=int, default=1)
    p_solve.add_argument("--target", type=_fraction, default=None)
    p_solve.add_argument("--out", default=None, help="per-restart CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_edc = sub.add_parser("check-edc", help="per-input ground-energy report")
    p_edc.add_argument("path")
    p_edc.set_defaults(func=cmd_check_edc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (UsageError, ModelError, NetlistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
