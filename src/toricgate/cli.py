"""Command-line front end.

Subcommands: gate (Berry phases and gate angles), apply (run the gate on a
state), concurrence, partition (phase classes, optionally checked against
the hypercube), fan (charts, rays, cones, moment polytope), render (SVG or
DOT figure, its `--out` rewritten in place). A handler raises its input errors,
then returns its stdout as `str` blocks, and `main` alone writes them. Exit
codes: 0 success, 1 usage error, 2 domain error (also when memory runs out or
the reader of stdout goes away). Floats are printed with 17 significant digits.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys
from collections.abc import Iterable, Iterator

from .phase_partition import (_class_arrays, _hypercube_failure, _partition_blocks,
                              intersection_summary, partition_vertices)
from .render import _check_dot_qubits, _dot_blocks, _svg_projection, render_partition_svg
from .spin_model import (BerryPhaseResult, DiagonalTwoQubitGate, PhysicalParams, berry_phases,
                         cphase_gate)
from .statevec import (GatePlacement, _check_qubit_count, _read_state_file, _state_blocks,
                       apply_cphase, concurrence, uniform_superposition)
from .toric_geometry import _product_p1_blocks

USAGE_EXIT = 1
DOMAIN_EXIT = 2

_GATE_FLAGS = ("omega_i", "omega_j", "j", "omega", "omega1")


class UsageError(Exception):
    """Well-formed parse, but the flag combination makes no sense."""


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on bad flags; usage errors are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _add_gate_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    for name in _GATE_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, required=required)


def _phases_from_args(args: argparse.Namespace) -> BerryPhaseResult:
    params = PhysicalParams(args.omega_i, args.omega_j, args.j,
                            args.omega, args.omega1)
    return berry_phases(params)


def _named(flag: str, value, call):
    """`call(value)`, with a ValueError it raises prefixed by `<flag> <value>: `."""
    try:
        return call(value)
    except ValueError as exc:
        raise ValueError(f"{flag} {value!r}: {exc}") from None


def _gate_from_args(args: argparse.Namespace) -> DiagonalTwoQubitGate:
    given = [getattr(args, name) is not None for name in _GATE_FLAGS]
    if args.phi1 is not None:
        if any(given):
            raise UsageError("pass either --phi1 or the spin drive flags, not both")
        return _named("--phi1", args.phi1, DiagonalTwoQubitGate.from_phi1)
    if all(given):
        return cphase_gate(_phases_from_args(args))
    if any(given):
        missing = [f"--{name.replace('_', '-')}"
                   for name, got in zip(_GATE_FLAGS, given) if not got]
        raise UsageError("spin drive flags are all-or-none; missing "
                         + " ".join(missing))
    raise UsageError("a gate is required: pass --phi1 or all of "
                     "--omega-i --omega-j --j --omega --omega1")


def _cmd_gate(args: argparse.Namespace) -> list[str]:
    result = _phases_from_args(args)
    pairs = [
        ("cos_theta_plus", result.cos_theta_plus),
        ("cos_theta_minus", result.cos_theta_minus),
        ("theta_plus", result.theta_plus),
        ("theta_minus", result.theta_minus),
        ("gamma_plus", result.gamma_plus),
        ("gamma_minus", result.gamma_minus),
        ("shift", result.shift),
        ("phi1", result.phi_1),
        ("phi2", result.phi_2),
    ]
    if args.json:
        return ["{" + ", ".join(f'"{name}": {_fmt(value)}' for name, value in pairs) + "}\n"]
    return [f"{name} = {_fmt(value)}\n" for name, value in pairs]


def _cmd_apply(args: argparse.Namespace) -> Iterable[str]:
    if args.input is not None:
        state = _read_state_file(args.input)
        if args.n is not None and args.n != state.n_qubits:
            raise UsageError(
                f"--n {args.n} conflicts with the {state.n_qubits}-qubit input file")
    else:
        if args.n is None:
            raise UsageError("--n is required unless --input provides a state")
        state = _named("--n", args.n, uniform_superposition)
    gate = _gate_from_args(args)
    return _state_blocks(apply_cphase(state, gate, GatePlacement(args.control, args.target)))


def _cmd_concurrence(args: argparse.Namespace) -> list[str]:
    if args.input is not None:
        state = _read_state_file(args.input)
    else:
        gate = _named("--phi1", args.phi1, DiagonalTwoQubitGate.from_phi1)
        state = apply_cphase(uniform_superposition(2), gate, GatePlacement(1, 2))
    return [_fmt(concurrence(state)) + "\n"]


def _cmd_partition(args: argparse.Namespace) -> Iterable[str]:
    placement = GatePlacement(args.control, args.target)
    _named("--n", args.n, _check_qubit_count)
    partition = partition_vertices(args.n, placement)

    def verdicts() -> Iterator[str]:  # each computed once the lines before it are written
        for which in ("phi1", "phi2"):
            # the class graph's check, one move direction at a time, with no
            # edge, edge tuple or witness built: each move's edges are counted
            failure = _hypercube_failure(args.n, placement.target,
                                         *_class_arrays(partition, which))
            verdict = "yes" if failure is None else f"no ({failure})"
            yield f"{which} isomorphic to Q{args.n - 1}: {verdict}\n"
        yield f"crossing edges: {intersection_summary(partition).crossing_edges}\n"
    return itertools.chain(_partition_blocks(partition),
                           verdicts() if args.check_hypercube else ())


def _cmd_fan(args: argparse.Namespace) -> Iterable[str]:
    return _named("--n", args.n, _product_p1_blocks)


def _cmd_render(args: argparse.Namespace) -> list[str]:
    placement = GatePlacement(args.control, args.target)
    # each format refuses its qubit count before the partition is built or --out opened
    if args.format == "svg":
        _named("--n", args.n, _svg_projection)
        blocks = [render_partition_svg(partition_vertices(args.n, placement)).encode()]
    else:
        _check_dot_qubits(args.n)
        _named("--n", args.n, _check_qubit_count)
        blocks = _dot_blocks(partition_vertices(args.n, placement))
    try:
        # in place: a truncating open of a large file can cost more than its write
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
            try:
                out.writelines(blocks)
            finally:  # a regular file ends at the bytes written, even when a write fails
                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                    out.truncate()
    except BrokenPipeError as exc:  # the reader of --out left, not that of stdout
        raise OSError(f"--out {args.out}: {exc.strerror}") from None
    return [f"wrote {args.out}\n"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toricgate",
                     description="holonomic controlled-phase gates and the "
                                 "cube/toric structure of their phase classes")
    sub = parser.add_subparsers(dest="command", required=True)

    gate = sub.add_parser("gate", help="Berry phases and gate angles")
    _add_gate_flags(gate, required=True)
    gate.add_argument("--json", action="store_true")
    gate.set_defaults(handler=_cmd_gate)

    apply_p = sub.add_parser("apply", help="apply the gate to a state")
    apply_p.add_argument("--n", type=int)
    apply_p.add_argument("--control", type=int, required=True)
    apply_p.add_argument("--target", type=int, required=True)
    apply_p.add_argument("--phi1", type=float)
    _add_gate_flags(apply_p, required=False)
    apply_p.add_argument("--input", type=str,
                         help="state file (defaults to the uniform superposition)")
    apply_p.set_defaults(handler=_cmd_apply)

    conc = sub.add_parser("concurrence", help="two-qubit concurrence")
    group = conc.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=str)
    group.add_argument("--phi1", type=float,
                       help="gate angle applied to the uniform two-qubit state")
    conc.set_defaults(handler=_cmd_concurrence)

    part = sub.add_parser("partition", help="phase classes of the n-cube")
    part.add_argument("--n", type=int, required=True)
    part.add_argument("--control", type=int, required=True)
    part.add_argument("--target", type=int, required=True)
    part.add_argument("--check-hypercube", action="store_true",
                      dest="check_hypercube")
    part.set_defaults(handler=_cmd_partition)

    fan = sub.add_parser("fan", help="charts, fan, and moment polytope of (P^1)^n")
    fan.add_argument("--n", type=int, required=True)
    fan.set_defaults(handler=_cmd_fan)

    render = sub.add_parser("render", help="draw a partition as SVG or DOT")
    render.add_argument("--n", type=int, required=True)
    render.add_argument("--control", type=int, required=True)
    render.add_argument("--target", type=int, required=True)
    render.add_argument("--format", choices=("svg", "dot"), required=True)
    render.add_argument("--out", type=str, required=True)
    render.set_defaults(handler=_cmd_render)

    return parser


_main_parser = functools.cache(build_parser)  # built by the first `main` call, not at import


def main(argv: list[str] | None = None) -> int:
    parser = _main_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        sys.stdout.writelines(args.handler(args))
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return 0
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        # the reader left: what is still buffered, and the flush at exit, go to
        # devnull (the SIGPIPE note of Python's signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"{parser.prog}: error: stdout closed", file=sys.stderr)
        return DOMAIN_EXIT
    except MemoryError:
        n = "" if getattr(args, "n", None) is None else f" --n {args.n}"
        print(f"{parser.prog}: error: out of memory in {args.command}{n}", file=sys.stderr)
        return DOMAIN_EXIT
    except (ValueError, OSError) as exc:  # the package's own errors are ValueErrors
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


def run() -> None:
    sys.exit(main())
