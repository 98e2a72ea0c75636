"""Benchmark worker: one fresh single-threaded process per run.

    python3 bench/worker.py <job.json> [--setup-only]

`run.py` starts it with the checkout's `src` on PYTHONPATH. The worker
imports toricgate, does the workload's own set-up, prints `ready`, then
repeats the workload's round of operations, a closed loop with one client,
until the job's seconds have passed, and prints one JSON result line. CLI
operations go through `toricgate.cli.main(argv)` with stdout sent to a file,
as a shell redirect would; library operations call the public functions.
Each output is checked right after its operation, outside the timed interval.
"""
from __future__ import annotations

import contextlib
import functools
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

import toricgate
from toricgate import cli, spin_model, statevec, toric_geometry

import checks
from tracing import Tracer, span_stats

ROOT = Path(__file__).resolve().parents[1]


def _same(raw):
    return raw


@dataclass
class Op:
    """One timed call, the check of its output, and a wrong output that the
    check must reject (used by the self-test)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    corrupt: Callable[[object], object]
    collect: Callable[[object], object] = _same


class CliOutput(NamedTuple):
    rc: int
    stdout_path: Path
    file: bytes | None

    @property
    def stdout(self) -> str:
        return self.stdout_path.read_text()

    def with_stdout(self, text: str) -> "CliOutput":
        """A copy whose stdout is `text`, kept in a file of its own."""
        path = self.stdout_path.with_suffix(".corrupt")
        path.write_text(text)
        return self._replace(stdout_path=path)


def cli_op(name: str, argv: list[str], workdir: Path, check, corrupt,
           out_file: Path | None = None) -> Op:
    stdout_path, stderr_path = workdir / f"{name}.out", workdir / f"{name}.err"

    def run():
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv)

    def collect(rc):
        return CliOutput(rc, stdout_path, out_file.read_bytes() if out_file else None)

    return Op(name, run, check, corrupt, collect)


def _ok_then(check):
    """A CLI check that first requires exit code 0."""
    def checked(out: CliOutput) -> str | None:
        return f"exit code {out.rc}" if out.rc != 0 else check(out)
    return checked


def _exits_2(out: CliOutput) -> str | None:
    if out.rc != 2:
        return f"malformed input gave exit code {out.rc}, expected 2"
    return "malformed input wrote to stdout" if out.stdout_path.stat().st_size else None


def _wrong_rc(out: CliOutput) -> CliOutput:
    return out._replace(rc=0)


def _flip_last_char(text: str) -> str:
    return text[:-2] + ("1" if text[-2] != "1" else "0") + text[-1:]


def _flip_file(out: CliOutput) -> CliOutput:
    return out._replace(file=_flip_last_char(out.file.decode()).encode())


def _flip_stdout(out: CliOutput) -> CliOutput:
    return out.with_stdout(_flip_last_char(out.stdout))


def _gate_flags(gate: dict) -> list[str]:
    if "phi1" in gate:
        return ["--phi1", repr(gate["phi1"])]
    return _drive_flags(gate["drive"])


def _drive_flags(drive: dict) -> list[str]:
    return ["--omega-i", repr(drive["omega_i"]), "--omega-j", repr(drive["omega_j"]),
            "--j", repr(drive["j"]), "--omega", repr(drive["omega"]),
            "--omega1", repr(drive["omega1"])]


class Circuit:
    """circuit-24: chained apply_cphase calls on a 2^24-amplitude state."""

    def __init__(self, inputs: dict, workdir: Path) -> None:
        self.inputs = inputs
        self.initial = statevec.uniform_superposition(inputs["n"])

    def prepare_checks(self) -> None:
        self.oracle = checks.SampledCircuit(self.inputs["n"], self.inputs["gates"],
                                            self.inputs["samples"])

    def round_ops(self) -> list[Op]:
        chain = [self.initial]
        gates = self.inputs["gates"]
        return [Op(f"apply_cphase.{k}", functools.partial(self._apply, chain, gate),
                   functools.partial(self._check, k, k == len(gates) - 1),
                   self._corrupt)
                for k, gate in enumerate(gates)]

    @staticmethod
    def _apply(chain: list, gate: dict):
        if "phi1" in gate:
            unitary = spin_model.DiagonalTwoQubitGate.from_phi1(gate["phi1"])
        else:
            d = gate["drive"]
            params = spin_model.PhysicalParams(d["omega_i"], d["omega_j"], d["j"],
                                               d["omega"], d["omega1"])
            unitary = spin_model.cphase_gate(spin_model.berry_phases(params))
        placement = statevec.GatePlacement(gate["control"], gate["target"])
        chain[0] = statevec.apply_cphase(chain[0], unitary, placement)
        return chain[0]

    def _check(self, k: int, final: bool, state) -> str | None:
        return self.oracle.check(k, state.amplitudes, final)

    def _corrupt(self, state):
        amps = state.amplitudes.copy()
        amps[self.oracle.samples[0]] *= -1
        return SimpleNamespace(amplitudes=amps)


class CliStates:
    """cli-states: file-to-file CLI calls on an n=17 state; text I/O dominates."""

    def __init__(self, inputs: dict, workdir: Path) -> None:
        self.inputs, self.workdir = inputs, workdir

    def prepare_checks(self) -> None:
        with open(self.workdir / "state.txt") as lines:
            self.start = checks.parse_state(lines, self.inputs["n"])
        with open(self.workdir / "pair.txt") as lines:
            self.pair = checks.parse_state(lines, 2)
        self._expected = (-1, self.start)

    def expected(self, k: int) -> np.ndarray:
        """The oracle state after apply k, advanced from the last one asked for."""
        have, amps = self._expected
        if have > k:
            have, amps = -1, self.start
        for j in range(have + 1, k + 1):
            amps = checks.apply_gate(amps, self.inputs["gates"][j])
        self._expected = (k, amps)
        return amps

    def round_ops(self) -> list[Op]:
        w = self.workdir
        ops, source = [], w / "state.txt"
        for k, gate in enumerate(self.inputs["gates"]):
            argv = ["apply", "--input", str(source), "--control", str(gate["control"]),
                    "--target", str(gate["target"]), *_gate_flags(gate)]
            check = _ok_then(functools.partial(self._check_apply, k))
            ops.append(cli_op(f"apply.{k}", argv, w, check, _negate_first_real))
            source = w / f"apply.{k}.out"
        drive = self.inputs["drive"]
        ops += [
            cli_op("concurrence", ["concurrence", "--input", str(w / "pair.txt")], w,
                   _ok_then(lambda out: checks.check_concurrence(out.stdout, self.pair)),
                   _bump_number),
            cli_op("gate", ["gate", *_drive_flags(drive), "--json"], w,
                   _ok_then(lambda out: checks.check_gate_json(out.stdout, drive)),
                   _shift_phi1),
            cli_op("bad-duplicate", ["apply", "--input", str(w / "bad-duplicate.txt"),
                                     "--control", "1", "--target", "2", "--phi1", "0.5"],
                   w, _exits_2, _wrong_rc),
            cli_op("bad-short", ["concurrence", "--input", str(w / "bad-short.txt")],
                   w, _exits_2, _wrong_rc),
        ]
        return ops

    def _check_apply(self, k: int, out: CliOutput) -> str | None:
        with open(out.stdout_path) as lines:
            return checks.check_state(lines, self.expected(k))


def _negate_first_real(out: CliOutput) -> CliOutput:
    header, first, rest = out.stdout.split("\n", 2)
    bits, re_part, im_part = first.split()
    return out.with_stdout(f"{header}\n{bits} {-float(re_part)!r} {im_part}\n{rest}")


def _bump_number(out: CliOutput) -> CliOutput:
    return out.with_stdout(f"{float(out.stdout) + 1e-6!r}\n")


def _shift_phi1(out: CliOutput) -> CliOutput:
    data = json.loads(out.stdout)
    data["phi1"] += 1e-6
    return out.with_stdout(json.dumps(data))


class CubeFan:
    """cube-fan: partition, render and fan through the CLI, plus exact cone
    duality and membership through the library; pure-Python integer work."""

    def __init__(self, inputs: dict, workdir: Path) -> None:
        self.inputs, self.workdir = inputs, workdir

    def prepare_checks(self) -> None:
        p = self.inputs["partition"]
        self.partition = checks.partition_text(p["n"], p["control"], p["target"])
        self.golden = {n: (ROOT / "tests" / "golden" / f"partition_n{n}.svg").read_bytes()
                       for n in self.inputs["svg_ns"]}

    def round_ops(self) -> list[Op]:
        w, inputs = self.workdir, self.inputs
        p = inputs["partition"]
        ops = [cli_op("partition",
                      ["partition", "--n", str(p["n"]), "--control", str(p["control"]),
                       "--target", str(p["target"]), "--check-hypercube"], w,
                      _ok_then(lambda out: checks.check_text(out.stdout, self.partition)),
                      _says_no)]
        renders = [("dot", inputs["dot_n"])] + [("svg", n) for n in inputs["svg_ns"]]
        for kind, n in renders:
            path = w / f"render-n{n}.{kind}"
            argv = ["render", "--format", kind, "--n", str(n), "--control", "1",
                    "--target", "2", "--out", str(path)]
            check = _ok_then(functools.partial(self._check_render, kind, n, path))
            ops.append(cli_op(f"render-{kind}-{n}", argv, w, check, _flip_file, path))
        fan_n = inputs["fan_n"]
        ops.append(cli_op("fan", ["fan", "--n", str(fan_n)], w,
                          _ok_then(lambda out: checks.check_digest(
                              out.stdout.encode(), "fan", fan_n)),
                          _flip_stdout))
        for k, cone in enumerate(inputs["cones"]):
            ops.append(Op(f"cone.{k}", functools.partial(self._cone, cone),
                          functools.partial(self._check_cone, cone), _flip_membership))
        return ops

    def _check_render(self, kind: str, n: int, path: Path, out: CliOutput) -> str | None:
        if out.stdout != f"wrote {path}\n":
            return f"render printed {out.stdout[:60]!r}"
        if kind == "dot":
            return checks.check_digest(out.file, "dot", n)
        return None if out.file == self.golden[n] else f"svg n={n} differs from the golden"

    @staticmethod
    def _cone(cone: dict):
        gens = tuple(tuple(g) for g in cone["generators"])
        c = toric_geometry.Cone(len(gens), gens)
        dual_dual = toric_geometry.dual_cone(toric_geometry.dual_cone(c))
        return (dual_dual.generators,
                [toric_geometry.cone_contains(c, tuple(pt)) for pt in cone["points"]])

    @staticmethod
    def _check_cone(cone: dict, out) -> str | None:
        return checks.check_cone(cone["generators"], out[0], out[1], cone["contains"])


def _says_no(out: CliOutput) -> CliOutput:
    return out.with_stdout(out.stdout.replace(": yes", ": no", 1))


def _flip_membership(out):
    dual_dual, contains = out
    return dual_dual, [not contains[0], *contains[1:]]


WORKLOADS = {"circuit-24": Circuit, "cli-states": CliStates, "cube-fan": CubeFan}


def run_op(op: Op) -> tuple[float, float, str | None]:
    """Time one operation, then check its output. Any exception is a failure."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        raw, err = op.run(), None
    except Exception:
        raw, err = None, "raised " + traceback.format_exc(limit=-1).strip()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if err is None:
        try:
            err = op.check(op.collect(raw))
        except Exception:
            err = "check raised " + traceback.format_exc(limit=-1).strip()
    return wall, cpu, err


def run_round(ops: list[Op], failures: list[str]) -> dict:
    """Wall and CPU seconds of each operation in one round."""
    op_wall, op_cpu = [], []
    for op in ops:
        wall, cpu, err = run_op(op)
        op_wall.append(wall)
        op_cpu.append(cpu)
        if err is not None:
            failures.append(f"{op.name}: {err}")
    return {"op_wall": op_wall, "op_cpu": op_cpu}


def copy_gbps(l3_bytes: int) -> float:
    """Bytes read plus written per second by a numpy copy of an array at
    least four times the last-level cache."""
    src = np.ones(max(4 * l3_bytes, 1 << 28) // 8)
    dst = np.zeros_like(src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    setup_only = "--setup-only" in argv[1:]
    src = (ROOT / "src").resolve()
    if src not in Path(toricgate.__file__).resolve().parents:
        print(f"worker: toricgate was imported from {toricgate.__file__}, not {src}",
              file=sys.stderr)
        return 1
    tracer = Tracer() if job["trace"] and not setup_only else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[job["workload"]](job["inputs"], Path(job["workdir"]))
    setup_spans = []
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()
    print("ready", flush=True)
    if setup_only:
        return 0

    workload.prepare_checks()
    rounds, failures, traced_spans = [], [], []
    # Whole rounds only, as many as fit in the job's seconds: at least one,
    # and in a traced run at least one untraced and one traced.
    start, longest = time.perf_counter(), 0.0
    while True:
        round_start = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        result = run_round(workload.round_ops(), failures)
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            traced_spans.append(spans)
            result["layers"], top_s = span_stats(spans)
            result["top_frac"] = top_s / sum(result["op_wall"])
        result["traced"] = traced
        rounds.append(result)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        full = now - start + longest > job["seconds"]
        if full and len(rounds) >= (1 if tracer is None else 2):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del workload
    report = {"rounds": rounds, "attempted": sum(len(r["op_wall"]) for r in rounds),
              "failed": len(failures), "failures": failures[:20],
              "peak_rss_mib": peak_rss_mib}
    if tracer:
        report["setup_layers"] = span_stats(setup_spans)[0]
        report["copy_gbps"] = copy_gbps(job["l3_bytes"])
        Path(job["spans_path"]).write_text(json.dumps(
            {"workload": job["workload"], "seed": job["seed"],
             "fields": ["name", "start", "end", "parent", "bytes"],
             "setup": setup_spans, "rounds": traced_spans}))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
