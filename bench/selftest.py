"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py
    python3 -m pytest bench/selftest.py

Every operation of every workload runs once at its tiny size. Its real output
must pass its check, and a deliberately corrupted copy must fail it. The
tracer must nest spans, subtract child time and restore what it wrapped.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from toricgate import cli, spin_model, statevec  # noqa: E402

import worker  # noqa: E402
from inputs import make_inputs  # noqa: E402
from tracing import Tracer, span_stats  # noqa: E402

WORK_ROOT = HERE.parent / ".bench_work"


def check_workload(name: str, seed: int = 3) -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        workdir = Path(tmp)
        workload = worker.WORKLOADS[name](make_inputs(name, seed, "tiny", workdir), workdir)
        workload.prepare_checks()
        ops = workload.round_ops()
        for op in ops:
            out = op.collect(op.run())
            err = op.check(out)
            assert err is None, f"{name} {op.name}: real output rejected: {err}"
            assert op.check(op.corrupt(out)) is not None, \
                f"{name} {op.name}: corrupted output accepted"
        return len(ops)


def test_circuit_checks():
    assert check_workload("circuit-24") == 4


def test_cli_states_checks():
    assert check_workload("cli-states") == 8


def test_cube_fan_checks():
    assert check_workload("cube-fan") == 11


def test_failing_op_is_counted_not_raised():
    def boom():
        raise ValueError("boom")
    ops = [worker.Op("boom", boom, lambda out: None, lambda out: out),
           worker.Op("fine", lambda: 1, lambda out: None if out == 1 else "wrong",
                     lambda out: out)]
    failures: list[str] = []
    result = worker.run_round(ops, failures)
    assert len(result["op_wall"]) == 2
    assert len(failures) == 1 and failures[0].startswith("boom")


def test_tracer_nests_and_restores():
    original = statevec.apply_cphase
    gate = spin_model.DiagonalTwoQubitGate.from_phi1(0.25)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.apply_cphase is statevec.apply_cphase is not original
        statevec.apply_cphase(statevec.uniform_superposition(3), gate,
                              statevec.GatePlacement(1, 3))
    finally:
        tracer.uninstall()
    assert cli.apply_cphase is statevec.apply_cphase is original
    spans = tracer.take()
    stats, top = span_stats(spans)
    assert stats["statevec.apply_cphase"]["calls"] == 1
    assert stats["statevec.StateVector"]["calls"] == 2
    assert stats["statevec.apply_cphase"]["bytes"] == 32 * 2 ** 3
    apply = stats["statevec.apply_cphase"]
    assert 0 < apply["self_s"] < apply["busy_s"]
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == ["statevec.uniform_superposition",
                                     "statevec.apply_cphase"]
    assert abs(top - sum(s[2] - s[1] for s in roots)) < 1e-12
    assert not tracer.take()


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failed else 0)
