import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cube_match_oracle, reference_fan_stdout
from toricgate import cli
from toricgate.cli import main
from toricgate.phase_partition import (class_graph, is_hypercube_isomorphic, partition_to_text,
                                       partition_vertices)
from toricgate.render import MAX_DOT_QUBITS, render_partition_dot, render_partition_svg
from toricgate.spin_model import DiagonalTwoQubitGate
from toricgate.statevec import (GatePlacement, apply_cphase, state_from_text, state_to_text,
                                uniform_superposition)
from toricgate.toric_geometry import (MAX_FACTORS, fan_to_text, moment_polytope,
                                      polytope_to_text, product_p1_charts, product_p1_fan)


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


GATE_ARGS = ["--omega-i", "10", "--omega-j", "1", "--j", "1",
             "--omega", "10", "--omega1", str(math.pi)]


def test_gate_text_output():
    code, out, _ = invoke(["gate", *GATE_ARGS])
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["shift"]) == pytest.approx(math.pi * math.sqrt(2), abs=1e-12)
    assert float(values["phi1"]) == pytest.approx(2 * math.pi * math.sqrt(2), abs=1e-12)
    assert float(values["phi2"]) == -float(values["phi1"])
    assert set(values) == {"cos_theta_plus", "cos_theta_minus", "theta_plus",
                           "theta_minus", "gamma_plus", "gamma_minus",
                           "shift", "phi1", "phi2"}


def test_gate_json_output():
    code, out, _ = invoke(["gate", *GATE_ARGS, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["shift"] == pytest.approx(math.pi * math.sqrt(2), abs=1e-12)
    # 17 significant digits means full-precision round trips
    assert "4.4428829381583661" in out


def test_gate_missing_flag_is_usage_error():
    code, _, err = invoke(["gate", "--omega-i", "1"])
    assert code == 1
    assert "error" in err


def test_gate_degenerate_drive_is_domain_error():
    code, _, err = invoke(["gate", "--omega-i", "2", "--omega-j", "1",
                           "--j", "0", "--omega", "2", "--omega1", "0"])
    assert code == 2
    assert "cos(theta)" in err


def test_gate_overflow_is_domain_error():
    code, out, err = invoke(["gate", "--omega-i", "1e308", "--omega-j", "0",
                             "--j", "1e308", "--omega", "0", "--omega1", "1"])
    assert code == 2
    assert out == ""
    assert "not finite" in err


_NAN_PHI1 = "toricgate: error: --phi1 nan: gate entries must have unit modulus\n"


def test_concurrence_nan_phi1_is_domain_error():
    code, out, err = invoke(["concurrence", "--phi1", "nan"])
    assert code == 2
    assert out == ""
    assert err == _NAN_PHI1


def test_apply_nan_phi1_is_domain_error():
    code, out, err = invoke(["apply", "--n", "3", "--control", "1", "--target", "2",
                             "--phi1", "nan"])
    assert (code, out, err) == (2, "", _NAN_PHI1)


def test_gate_bad_ordering_is_domain_error():
    code, _, _ = invoke(["gate", "--omega-i", "1", "--omega-j", "2",
                         "--j", "0", "--omega", "1", "--omega1", "1"])
    assert code == 2


def test_apply_phi1_uniform():
    code, out, _ = invoke(["apply", "--n", "2", "--control", "1",
                           "--target", "2", "--phi1", "0.7"])
    assert code == 0
    state = state_from_text(out)
    a = 0.5 * np.exp(1j * 0.7)
    b = 0.5 * np.exp(-1j * 0.7)
    assert np.allclose(state.amplitudes, [a, b, b, a], atol=1e-15)


def test_apply_flag_paths_agree():
    code1, out1, _ = invoke(["apply", "--n", "3", "--control", "1",
                             "--target", "3", *GATE_ARGS])
    _, gate_out, _ = invoke(["gate", *GATE_ARGS])
    phi1 = dict(line.split(" = ") for line in gate_out.strip().splitlines())["phi1"]
    code2, out2, _ = invoke(["apply", "--n", "3", "--control", "1",
                             "--target", "3", "--phi1", phi1])
    assert code1 == code2 == 0
    assert out1 == out2


def test_apply_input_file(tmp_path):
    state = uniform_superposition(2)
    path = tmp_path / "state.txt"
    path.write_text(state_to_text(state))
    code, out, _ = invoke(["apply", "--control", "1", "--target", "2",
                           "--phi1", "0.5", "--input", str(path)])
    assert code == 0
    parsed = state_from_text(out)
    assert parsed.n_qubits == 2
    # consistent --n is allowed, inconsistent is a usage error
    code_ok, _, _ = invoke(["apply", "--n", "2", "--control", "1", "--target", "2",
                            "--phi1", "0.5", "--input", str(path)])
    assert code_ok == 0
    code_bad, _, err = invoke(["apply", "--n", "3", "--control", "1", "--target", "2",
                               "--phi1", "0.5", "--input", str(path)])
    assert code_bad == 1
    assert "conflicts" in err


def test_apply_gate_source_usage_errors():
    base = ["apply", "--n", "2", "--control", "1", "--target", "2"]
    assert invoke(base)[0] == 1  # no gate at all
    assert invoke([*base, "--phi1", "0.1", "--omega-i", "1"])[0] == 1  # both
    assert invoke([*base, "--omega-i", "1", "--omega-j", "0.5"])[0] == 1  # partial


def test_apply_missing_input_file_is_domain_error():
    code, _, _ = invoke(["apply", "--control", "1", "--target", "2",
                         "--phi1", "0.1", "--input", "/nonexistent/state.txt"])
    assert code == 2


def test_apply_control_equals_target_is_domain_error():
    code, _, _ = invoke(["apply", "--n", "2", "--control", "2", "--target", "2",
                         "--phi1", "0.1"])
    assert code == 2


def test_concurrence_phi1():
    code, out, _ = invoke(["concurrence", "--phi1", "0.3"])
    assert code == 0
    assert float(out) == pytest.approx(abs(math.sin(0.6)), abs=1e-12)


def test_concurrence_input(tmp_path):
    path = tmp_path / "bell.txt"
    amp = 1 / math.sqrt(2)
    path.write_text(f"n=2\n00 {amp:.17g} 0\n01 0 0\n10 0 0\n11 {amp:.17g} 0\n")
    code, out, _ = invoke(["concurrence", "--input", str(path)])
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_flag_exclusivity():
    assert invoke(["concurrence"])[0] == 1
    assert invoke(["concurrence", "--phi1", "0.1", "--input", "x"])[0] == 1


def test_concurrence_three_qubit_input_is_domain_error(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text(state_to_text(uniform_superposition(3)))
    assert invoke(["concurrence", "--input", str(path)])[0] == 2


def test_partition_output():
    code, out, _ = invoke(["partition", "--n", "3", "--control", "1", "--target", "2"])
    assert code == 0
    assert out == partition_to_text(partition_vertices(3, GatePlacement(1, 2)))


@pytest.mark.parametrize("n", range(2, 11))
def test_streamed_stdout_is_the_library_text(n):
    placement = GatePlacement(n, 1 + n // 3)
    slots = ["--control", str(placement.control), "--target", str(placement.target)]
    code, out, _ = invoke(["partition", "--n", str(n), *slots])
    assert (code, out) == (0, partition_to_text(partition_vertices(n, placement)))
    code, out, _ = invoke(["apply", "--n", str(n), *slots, "--phi1", "0.7"])
    state = apply_cphase(uniform_superposition(n), DiagonalTwoQubitGate.from_phi1(0.7),
                         placement)
    assert (code, out) == (0, state_to_text(state))


def test_partition_check_hypercube():
    code, out, _ = invoke(["partition", "--n", "4", "--control", "2",
                           "--target", "3", "--check-hypercube"])
    assert code == 0
    assert "phi1 isomorphic to Q3: yes" in out
    assert "phi2 isomorphic to Q3: yes" in out
    assert "crossing edges: 16" in out


# SHA-256 of `partition --check-hypercube` stdout above the goldens' sizes,
# recorded before the partition layer moved onto `bits`
PARTITION_DIGESTS = {
    (8, 1, 8): "8fa3d555d37f4bc881415143ca05fc5a5fb48c76fe3079bb37ebd9c7c24965f2",
    (8, 5, 3): "1cbcea9631da7b550b0a6801e3c36bd6a0a4f11bdd9732921cf46412d52d2995",
    (12, 2, 11): "f1a3990b5ffb183ef618fcab2eb906ec9b6356fb7e22ee757d5b4cff0ca18716",
    (12, 9, 4): "c2413ce912cca7f104e337bb748d1a120f6f1ced3ea3ffb031ba900bf53b9ee9",
}


@pytest.mark.parametrize("n,control,target", sorted(PARTITION_DIGESTS))
def test_partition_check_hypercube_digest(n, control, target):
    code, out, _ = invoke(["partition", "--n", str(n), "--control", str(control),
                           "--target", str(target), "--check-hypercube"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PARTITION_DIGESTS[n, control, target]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(2, 9))
def test_check_hypercube_verdicts_match_the_graph_check_and_the_oracle(n):
    for control in range(1, n + 1):
        for target in range(1, n + 1):
            if control == target:
                continue
            code, out, _ = invoke(["partition", "--n", str(n), "--control", str(control),
                                   "--target", str(target), "--check-hypercube"])
            assert code == 0
            partition = partition_vertices(n, GatePlacement(control, target))
            want = []
            for which in ("phi1", "phi2"):
                graph = class_graph(partition, which)
                match = is_hypercube_isomorphic(graph)
                oracle = cube_match_oracle(n, target, graph.vertices, graph.edges)
                assert (match.is_isomorphic, match.failure) == oracle == (True, None)
                want.append(f"{which} isomorphic to Q{n - 1}: yes\n")
            assert out.splitlines(keepends=True)[3:] == [*want, f"crossing edges: {2 ** n}\n"]


def test_check_hypercube_streams_its_output(tmp_path):
    path = tmp_path / "out.txt"
    argv = ["partition", "--n", "16", "--control", "3", "--target", "11", "--check-hypercube"]
    with open(path, "w") as out, redirect_stdout(out):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert code == 0
    assert path.read_text().endswith("phi2 isomorphic to Q15: yes\ncrossing edges: 65536\n")
    # the text is 1.1 MB; each class is 256 KiB of int64 indices
    assert peak < path.stat().st_size


def test_fan_output():
    code, out, _ = invoke(["fan", "--n", "2"])
    assert code == 0
    assert out == (
        "dim=2\n"
        "chart z1 z2\nchart z1^-1 z2\nchart z1 z2^-1\nchart z1^-1 z2^-1\n"
        "ray 1 0\nray 0 1\nray -1 0\nray 0 -1\n"
        "cone 0 1\ncone 2 1\ncone 0 3\ncone 2 3\n"
        "vertex 0 0\nvertex 0 1\nvertex 1 0\nvertex 1 1\n")


# SHA-256 of `fan --n MAX_FACTORS` stdout (11 273 367 bytes), recorded before
# the fan was validated once
FAN_16_DIGEST = "6dbe34b0d2c45c9d0b18cbed713f0714bd6e4c423edec9f783ffc646ef0b0a4e"


def test_fan_max_factors_digest():
    code, out, _ = invoke(["fan", "--n", str(MAX_FACTORS)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FAN_16_DIGEST


@pytest.mark.parametrize("n", range(1, 11))
def test_fan_output_is_charts_fan_and_polytope_text(n):
    code, out, _ = invoke(["fan", "--n", str(n)])
    assert code == 0
    charts = "".join("chart " + " ".join(c.tokens()) + "\n" for c in product_p1_charts(n))
    fan_body = fan_to_text(product_p1_fan(n)).split("\n", 1)[1]
    polytope_body = polytope_to_text(moment_polytope(n)).split("\n", 1)[1]
    assert out == f"dim={n}\n" + charts + fan_body + polytope_body


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 12))
def test_fan_output_matches_a_line_by_line_writer(n):
    # cone indices reach two digits from n = 6, slot tokens from n = 10
    code, out, _ = invoke(["fan", "--n", str(n)])
    assert code == 0
    assert out == reference_fan_stdout(n)


def test_fan_range_is_domain_error():
    assert invoke(["fan", "--n", "0"])[0] == 2


def test_render_svg(tmp_path):
    out_path = tmp_path / "fig.svg"
    code, out, _ = invoke(["render", "--n", "3", "--control", "1", "--target", "2",
                           "--format", "svg", "--out", str(out_path)])
    assert code == 0
    assert str(out_path) in out
    p = partition_vertices(3, GatePlacement(1, 2))
    assert out_path.read_text() == render_partition_svg(p)


def test_render_dot(tmp_path):
    out_path = tmp_path / "fig.dot"
    code, _, _ = invoke(["render", "--n", "5", "--control", "1", "--target", "2",
                         "--format", "dot", "--out", str(out_path)])
    assert code == 0
    p = partition_vertices(5, GatePlacement(1, 2))
    assert out_path.read_text() == render_partition_dot(p)


@pytest.mark.parametrize("kind, n, renderer", [("svg", 3, render_partition_svg),
                                               ("dot", 5, render_partition_dot)])
def test_render_rewrites_a_longer_out_file_to_its_own_length(tmp_path, kind, n, renderer):
    # --out is written in place, then cut: nothing of the old file's tail is left
    out_path, made = tmp_path / f"fig.{kind}", tmp_path / "made"
    out_path.write_bytes(b"x" * (1 << 20))
    argv = ["render", "--n", str(n), *_PLACED, "--format", kind, "--out"]
    assert invoke([*argv, str(out_path)]) == (0, f"wrote {out_path}\n", "")
    assert out_path.read_bytes() == renderer(partition_vertices(n, GatePlacement(1, 2))).encode()
    # a missing --out is made with the mode a truncating open gives (0o666 less the umask)
    assert invoke([*argv, str(made)])[0] == 0
    with open(tmp_path / "reference", "w"):
        pass
    assert made.stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_render_failing_mid_file_leaves_the_bytes_written(tmp_path, monkeypatch):
    # the cut runs when a block fails too: the file ends where writing stopped
    real = cli._dot_blocks

    def first_block_then_fail(partition):
        blocks = real(partition)
        yield next(blocks)
        raise OSError("device gone")

    monkeypatch.setattr("toricgate.cli._dot_blocks", first_block_then_fail)
    out_path = tmp_path / "fig.dot"
    out_path.write_bytes(b"x" * (1 << 20))
    code, out, err = invoke(["render", "--n", "5", *_PLACED, "--format", "dot",
                             "--out", str(out_path)])
    assert (code, out, err) == (2, "", "toricgate: error: device gone\n")
    first = next(real(partition_vertices(5, GatePlacement(1, 2))))
    assert out_path.read_bytes() == first


def test_render_to_a_device_is_written_not_truncated():
    # /dev/null is not a regular file: it takes the bytes and is never cut
    argv = ["render", "--n", "12", *_PLACED, "--format", "dot", "--out", os.devnull]
    assert invoke(argv) == (0, f"wrote {os.devnull}\n", "")


def test_render_dot_above_cap_is_domain_error(tmp_path, monkeypatch):
    # refused before the partition is built or --out is created
    def refuse(*args):
        raise AssertionError("partition built above the DOT cap")
    monkeypatch.setattr("toricgate.cli.partition_vertices", refuse)
    out_path = tmp_path / "big.dot"
    n = MAX_DOT_QUBITS + 1
    code, out, err = invoke(["render", "--n", str(n), "--control", "1", "--target", "2",
                             "--format", "dot", "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == f"toricgate: error: --n {n}: DOT output is capped at {MAX_DOT_QUBITS} qubits\n"
    assert not out_path.exists()


@pytest.mark.parametrize("n", [1, 5, 22, 25])
def test_render_svg_refuses_its_qubit_count_first(tmp_path, monkeypatch, n):
    # refused before the partition is built or --out is created
    def refuse(*args):
        raise AssertionError("partition built for a qubit count with no SVG projection")
    monkeypatch.setattr("toricgate.cli.partition_vertices", refuse)
    out_path = tmp_path / "big.svg"
    code, out, err = invoke(["render", "--n", str(n), "--control", "1", "--target", "2",
                             "--format", "svg", "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == (f"toricgate: error: --n {n}: no SVG projection for {n} qubits "
                   "(supported: 2, 3, 4)\n")
    assert not out_path.exists()


_PLACED = ["--control", "1", "--target", "2"]
_CAPPED = {  # each command that takes --n, with its largest n
    "apply": (["apply", *_PLACED, "--phi1", "0.3"], 24),
    "partition": (["partition", *_PLACED], 24),
    "render dot": (["render", *_PLACED, "--format", "dot"], MAX_DOT_QUBITS),
    "render svg": (["render", *_PLACED, "--format", "svg"], 4),
    "fan": (["fan"], MAX_FACTORS),
}


@pytest.mark.parametrize("command", sorted(_CAPPED))
@pytest.mark.parametrize("where", ["zero", "cap + 1", "20 digits"])
def test_n_out_of_range_names_the_flag(command, where, tmp_path):
    argv, cap = _CAPPED[command]
    n = {"zero": 0, "cap + 1": cap + 1, "20 digits": 10 ** 19 + 7}[where]
    if command.startswith("render"):
        argv = [*argv, "--out", str(tmp_path / "figure")]
    code, out, err = invoke([*argv, "--n", str(n)])
    assert (code, out) == (2, "")
    assert err.startswith(f"toricgate: error: --n {n}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "figure").exists()


@pytest.mark.parametrize("argv", [
    ["apply", "--n", "18", *_PLACED, "--phi1", "0.3"],
    ["partition", "--n", "18", *_PLACED],
    ["fan", "--n", "14"],
])
def test_closed_stdout_is_reported_once(argv):
    proc = subprocess.Popen([sys.executable, "-m", "toricgate", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(4096)) == 4096  # the first block has come
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    # one line, and nothing from the flush at interpreter exit
    assert err == b"toricgate: error: stdout closed\n"


def test_closed_out_file_is_not_a_closed_stdout(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = subprocess.Popen([sys.executable, "-m", "toricgate", "render", "--n", "14",
                             *_PLACED, "--format", "dot", "--out", str(fifo)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with open(fifo, "rb") as reader:
        assert len(reader.read(4096)) == 4096
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, b"")
    assert err == f"toricgate: error: --out {fifo}: Broken pipe\n".encode()


@pytest.mark.parametrize("argv, where", [
    (["apply", "--n", "24", *_PLACED, "--phi1", "0.3"], "apply --n 24"),
    (["partition", "--n", "23", *_PLACED], "partition --n 23"),
])
def test_out_of_memory_is_a_domain_error(argv, where, monkeypatch):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr("toricgate.cli.uniform_superposition", exhausted)
    monkeypatch.setattr("toricgate.cli.partition_vertices", exhausted)
    assert invoke(argv) == (2, "", f"toricgate: error: out of memory in {where}\n")


class _UnwritableStdout:
    def write(self, text):
        raise AssertionError("a handler wrote to stdout")

    writelines = write


@pytest.mark.parametrize("argv", [
    ["gate", *GATE_ARGS],
    ["apply", "--n", "3", *_PLACED, "--phi1", "0.3"],
    ["concurrence", "--phi1", "0.3"],
    ["partition", "--n", "4", "--control", "3", "--target", "1", "--check-hypercube"],
    ["fan", "--n", "3"],
    ["render", "--n", "4", *_PLACED, "--format", "dot", "--out"],
], ids=lambda argv: argv[0])
def test_handlers_return_their_stdout_and_main_writes_it(argv, tmp_path):
    if argv[0] == "render":
        argv = [*argv, str(tmp_path / "fig.dot")]
    args = cli.build_parser().parse_args(argv)
    with redirect_stdout(_UnwritableStdout()):
        returned = "".join(args.handler(args))
    assert invoke(argv) == (0, returned, "")


def test_render_bad_format_is_usage_error(tmp_path):
    code, _, _ = invoke(["render", "--n", "2", "--control", "1", "--target", "2",
                         "--format", "png", "--out", str(tmp_path / "x.png")])
    assert code == 1


def test_render_svg_unsupported_n_is_domain_error(tmp_path):
    code, _, _ = invoke(["render", "--n", "5", "--control", "1", "--target", "2",
                         "--format", "svg", "--out", str(tmp_path / "x.svg")])
    assert code == 2


def test_no_subcommand_is_usage_error():
    assert invoke([])[0] == 1


def test_help_exits_zero():
    assert invoke(["--help"])[0] == 0


def test_one_process_answers_as_separate_runs(tmp_path, monkeypatch):
    # main builds its parser on its first call and keeps it: after a usage error,
    # --help or a domain error, each call still answers as a fresh process would
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps its text to the same width
    argvs = [["gate", "--omega-i", "1"], ["--help"], ["partition", "--help"],
             ["partition", "--n", "25", "--control", "1", "--target", "2"],
             ["gate", *GATE_ARGS, "--json"],
             ["partition", "--n", "4", "--control", "3", "--target", "1", "--check-hypercube"],
             ["render", "--format", "dot", "--n", "3", "--control", "1", "--target", "2",
              "--out", str(tmp_path / "x.dot")],
             ["concurrence", "--phi1", "0.3", "--input", "x"]]

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "toricgate", *argv],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    with ThreadPoolExecutor(2) as pool:  # two processes at a time
        separate = list(pool.map(run, argvs))
    assert {code for code, _, _ in separate} == {0, 1, 2}
    assert [invoke(argv) for argv in argvs * 2] == separate * 2
    assert cli._main_parser.cache_info().misses == 1


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "toricgate", "gate", *GATE_ARGS],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "shift = " in proc.stdout


def test_console_script():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the same parser as a package
        import tomli as tomllib

    # run the declared [project.scripts] target as its installed wrapper would
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, func = scripts["toricgate"].split(":")
    code = (f"import sys, {module}; sys.argv[0] = 'toricgate'; "
            f"sys.exit({module}.{func}())")
    proc = subprocess.run([sys.executable, "-c", code, "partition", "--n", "2",
                           "--control", "1", "--target", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n=2")


# The argv property: every subcommand, with flags drawn absent or set to ints
# that are huge, negative or 0, floats that are nan, ±inf or 1e308, and paths
# that are missing, a directory, non-UTF-8 or a truncated state file. Valid
# values stay at n <= 12, so that each run is small.
_INTS = [str(2 ** 63), "99999999999999999999", "-99999999999999999999", "-7", "-1",
         *map(str, range(6)), "12"]
_FLOATS = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-2.5", "1e-300", "0.3", "1",
           "2.5", "4", "10", "12.5"]
_PATHS = ["state", "truncated", "non-utf8", "directory", "missing", "empty"]
_DRIVE = ("--omega-i", "--omega-j", "--j", "--omega", "--omega1")
_ARGV_FLAGS = {  # each subcommand's flags (the drive flags as one group) and their values
    "gate": {_DRIVE: _FLOATS, ("--json",): None},
    "apply": {("--n",): _INTS, ("--control",): _INTS, ("--target",): _INTS,
              ("--phi1",): _FLOATS, _DRIVE: _FLOATS, ("--input",): _PATHS},
    "concurrence": {("--input",): _PATHS, ("--phi1",): _FLOATS},
    "partition": {("--n",): _INTS, ("--control",): _INTS, ("--target",): _INTS,
                  ("--check-hypercube",): None},
    "fan": {("--n",): _INTS},
    "render": {("--n",): _INTS, ("--control",): _INTS, ("--target",): _INTS,
               ("--format",): ["svg", "dot", "png"],
               ("--out",): ["out", "directory", "no-dir/out"]},
}


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    state = state_to_text(uniform_superposition(3))
    files = {"state": state, "truncated": state[:len(state) // 2], "empty": ""}
    for name, text in files.items():
        (root / name).write_text(text)
    (root / "non-utf8").write_bytes(b"n=1\n0 \xff\xfe 0\n1 0 0\n")
    (root / "directory").mkdir()
    return {name: str(root / name) for name in [*_PATHS, "out", "no-dir/out"]}


def _drawn_argv(command, argv_paths, data):
    argv = [command]
    for flags, values in _ARGV_FLAGS[command].items():
        if not data.draw(st.integers(0, 7), label=f"{flags[0]} given"):
            continue  # one flag (or group) in eight is left out
        for flag in flags:
            if values is None:
                argv.append(flag)
            else:  # `--flag=value`, so that argparse reads "-inf" as a value
                value = data.draw(st.sampled_from(values), label=flag)
                argv.append(f"{flag}={argv_paths.get(value, value)}")
    return argv


def _check_exit(command, code, out, err):
    """Exit 0, 1 or 2; a nonzero exit writes nothing to stdout and one error
    line, after the usage message on a parse error."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        return
    lines = err.splitlines()
    assert out == ""
    assert [line for line in lines if ": error: " in line] == lines[-1:]
    assert lines[-1].startswith(("toricgate: error: ", f"toricgate {command}: error: "))
    assert all(line.startswith(("usage: ", " ")) for line in lines[:-1])


@pytest.mark.parametrize("command", sorted(_ARGV_FLAGS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2_with_one_error_line(command, argv_paths, data):
    argv = _drawn_argv(command, argv_paths, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(argv)
    assert not caught, [str(w.message) for w in caught]
    _check_exit(command, code, out, err)


@pytest.mark.parametrize("command", sorted(_ARGV_FLAGS))
def test_any_argv_exits_0_1_or_2_with_one_error_line_as_a_process(command, argv_paths):
    # a derandomized slice of the property above, each run as `python -m
    # toricgate` with every warning shown: what the interpreter prints as it
    # exits (a flush of a closed stream, an exception in a finalizer) shows here
    drawn = []

    @settings(derandomize=True, max_examples=10, deadline=None, database=None)
    @given(data=st.data())
    def draw(data):
        drawn.append(_drawn_argv(command, argv_paths, data))

    draw()

    def run(argv):
        return subprocess.run([sys.executable, "-W", "always", "-m", "toricgate", *argv],
                              capture_output=True, text=True, timeout=120)

    with ThreadPoolExecutor(2) as pool:  # two processes at a time
        for argv, proc in zip(drawn, pool.map(run, drawn)):
            assert "Exception ignored" not in proc.stderr, argv
            _check_exit(command, proc.returncode, proc.stdout, proc.stderr)
