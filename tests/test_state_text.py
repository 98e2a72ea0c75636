"""The state file format: writer bytes, exact round trips, accepted layouts,
rejected inputs (library, CLI and process), agreement with the line list
reader it replaced, and the memory the two text functions use."""
import io
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state, reference_state_from_text, reference_state_text
from toricgate import statevec
from toricgate.bits import _decimal_digits, _decimal_values, _tokens
from toricgate.cli import main
from toricgate.statevec import StateVector, state_from_text, state_to_text

# zeros of both signs, the smallest subnormal, and values printed in exponent
# form; all small enough to leave the norm within StateVector's tolerance
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.5e-8, -7.25e-9,
            1.5e-17, -3e-12)


@st.composite
def _states(draw, max_n=10):
    """A normalized state whose parts span many decades, with specials planted."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=2 << n) * 10.0 ** rng.integers(-12, 1, size=2 << n)
    planted = dict(draw(st.lists(st.tuples(st.integers(1, (2 << n) - 1),
                                           st.sampled_from(_SPECIAL)), max_size=40)))
    bulk = np.ones(parts.size, dtype=bool)
    bulk[list(planted)] = False
    parts[bulk] /= np.linalg.norm(parts[bulk])
    parts[list(planted)] = list(planted.values())
    return StateVector(_complex(parts))


def _complex(parts):
    """Pair consecutive reals as (re, im), keeping each part's bits exactly."""
    amps = np.empty(parts.size // 2, dtype=complex)
    amps.real, amps.imag = parts[0::2], parts[1::2]
    return amps


def _same_bits(a, b):
    return a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_states())
def test_writer_matches_the_line_by_line_oracle(state):
    assert state_to_text(state) == reference_state_text(state.amplitudes)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_states())
def test_round_trip_is_exact_to_the_sign_bit(state):
    back = state_from_text(state_to_text(state))
    assert np.array_equal(back.amplitudes, state.amplitudes)
    assert _same_bits(back.amplitudes, state.amplitudes)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_states(), st.integers(0, 2**32 - 1),
       st.sampled_from([" ", "\t", "\xa0", "  \t ", "\u3000"]),
       st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(), st.booleans())
def test_parser_accepts_every_documented_layout(state, seed, sep, eol, shuffle, blanks):
    rng = np.random.default_rng(seed)
    header, *rows = reference_state_text(state.amplitudes).splitlines()
    if shuffle:
        rows = [rows[k] for k in rng.permutation(len(rows))]
    rows = [sep.join(row.split(" ")) + rng.choice(["", sep]) for row in rows]
    lines = [header, *rows]
    if blanks:
        for _ in range(rng.integers(1, 6)):
            lines.insert(int(rng.integers(0, len(lines) + 1)), rng.choice(["", " ", "\t \xa0"]))
    back = state_from_text(eol.join(lines) + eol)
    assert _same_bits(back.amplitudes, state.amplitudes)


_GOOD = "n=2\n00 0.6 0\n01 0.8 0\n10 0 0\n11 0 0\n"  # every case below breaks one thing
_REJECTED = {  # name: (text, pinned message, or None where only the ValueError is pinned)
    "4 then 2 tokens": ("n=2\n00 0.6 0 01\n0.8 0\n10 0 0\n11 0 0\n",
                        "malformed amplitude line '00 0.6 0 01'$"),
    "trailing comment": (_GOOD.replace("0.8 0", "0.8 0 # note"),
                         "malformed amplitude line '01 0.8 0 # note'$"),
    "comment line": (_GOOD + "# note\n", "expected 4 amplitude lines, got 5$"),
    "comment as number": (_GOOD.replace("0.8 0", "0.8 #0"),
                          "malformed amplitude line '01 0.8 #0'$"),
    "quoted number": (_GOOD.replace("0.8", '"0.8"'), """malformed amplitude line '01 "0.8" 0'$"""),
    "bits n+1": (_GOOD.replace("01 ", "010 "), "malformed bit string '010'$"),
    "bits n-1": (_GOOD.replace("01 ", "1 "), "malformed bit string '1'$"),
    "bits far too long": (_GOOD.replace("01 ", "0100000 "), "malformed bit string '0100000'$"),
    "bits with plus": (_GOOD.replace("01 ", "+1 "), r"malformed bit string '\+1'$"),
    "bits with 2": (_GOOD.replace("01 ", "02 "), "malformed bit string '02'$"),
    "bits with superscript one": (_GOOD.replace("01 ", "0¹ "), "malformed bit string '0¹'$"),
    "bits with NUL": (_GOOD.replace("01 ", "0\x00 "), r"malformed bit string '0\\x00'$"),
    "bits with Arabic-Indic one": (_GOOD.replace("01 ", "0\u0661 "), None),
    "bits with bold one": (_GOOD.replace("01 ", "0\U0001d7cf "), None),
    "duplicate index": (_GOOD.replace("11 ", "01 "), "duplicate basis index '01'$"),
    "missing line": (_GOOD.replace("11 0 0\n", ""), "expected 4 amplitude lines, got 3$"),
    "extra line": (_GOOD + "11 0 0\n", "expected 4 amplitude lines, got 5$"),
    "bad header": (_GOOD.replace("n=2", "qubits=2"),
                   "expected 'n=<int>' header, got 'qubits=2'$"),
    "Arabic-Indic qubit count": (_GOOD.replace("n=2", "n=\u0662"),
                                 "expected 'n=<int>' header, got 'n=\u0662'$"),
    "header after a line": (_GOOD.replace("n=2\n00 0.6 0", "00 0.6 0\nn=2"),
                            "expected 'n=<int>' header, got '00 0.6 0'$"),
    "qubit count 0": ("n=0\n0 1 0\n", r"qubit count must lie in 1\.\.24$"),
    "empty": ("", "empty state text$"),
    "whitespace only": (" \n\t\r\n\xa0\n", "empty state text$"),
    "NaN": (_GOOD.replace("0.6", "nan"), "not normalized"),
    "infinity": (_GOOD.replace("0.6", "inf"), "not normalized"),
    # float() reads these two; the state format does not
    "underscore separator": (_GOOD.replace("0.6", "0.6_0"),
                             "malformed amplitude line '00 0.6_0 0'$"),
    "Arabic-Indic digit": (_GOOD.replace("0.6 0\n01 0.8", "\u0661 0\n01 0"),
                           "malformed amplitude line '00 \u0661 0'$"),
}


def _apply(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["apply", "--input", str(path), "--control", "1", "--target", "2",
                     "--phi1", "0.3"])
    return code, out.getvalue(), err.getvalue()


def test_the_unbroken_file_is_accepted(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text(_GOOD)
    assert _apply(path)[0] == 0
    assert np.array_equal(state_from_text(_GOOD).amplitudes, [0.6, 0.8, 0, 0])


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_parser_rejects(name):
    text, message = _REJECTED[name]
    with pytest.raises(ValueError, match=message):
        state_from_text(text)


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_apply_rejects_the_same_files(name, tmp_path):
    path = tmp_path / "state.txt"
    path.write_text(_REJECTED[name][0], encoding="utf-8")
    code, out, err = _apply(path)
    assert (code, out) == (2, "")
    assert err.startswith("toricgate: error: ")


def test_bit_string_errors_show_the_text_as_written():
    with pytest.raises(ValueError) as info:
        state_from_text(_GOOD.replace("01 ", "  \t0+1\t"))
    assert str(info.value) == "malformed bit string '0+1'"


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


def test_apply_streams_its_output(tmp_path):
    path = tmp_path / "out.txt"
    with open(path, "w") as out, redirect_stdout(out):
        code, peak = _traced_peak(main, ["apply", "--n", "16", "--control", "3",
                                         "--target", "11", "--phi1", "0.3"])
    assert code == 0
    # the input and output states alone take 2 MiB; the text is 3.8 MiB
    assert peak < path.stat().st_size


def test_text_functions_stay_within_four_times_the_text():
    state = StateVector(random_state(np.random.default_rng(8), 16))
    text, write_peak = _traced_peak(state_to_text, state)
    back, read_peak = _traced_peak(state_from_text, text)
    assert write_peak <= 4 * len(text)
    # blocks of whole lines: the 1 MiB state, its index counts, and one block
    assert read_peak < len(text)
    assert np.array_equal(back.amplitudes, state.amplitudes)


def _floats_of(text):
    """The number tokens of a state text's amplitude lines, as the reader sees them."""
    buffer, starts, ends, _ = _tokens(text, len(text))
    parts = np.arange(1, starts.size).reshape(-1, 3)[:, 1:].ravel()
    return buffer, starts[parts], ends[parts]


@pytest.mark.parametrize("writer", [state_to_text, lambda state: reference_state_text(
    state.amplitudes)])
def test_random_states_need_no_float_fallback(writer):
    # the states of the benchmark: normal parts, normalized, written '%.17g'
    state = StateVector(random_state(np.random.default_rng(17), 14))
    assert _decimal_values(*_floats_of(writer(state)))[1].all()
    # and the writer takes every part's digits from its kernel, none from '%.17g'
    assert _decimal_digits(np.abs(state.amplitudes.view(np.float64)).view(np.uint64))[2].all()


def _mutated(draw, token):
    """A token in another spelling, most of them of the same value."""
    try:
        value = float(token)
    except ValueError:  # respelled before
        token, value = "0.5", 0.5
    spelled = draw(st.sampled_from([
        f"{value:.17E}", "+" + token, re.sub(r"^(-?)0\.", r"\1.", token), f"{value:.0f}.",
        f"{value:.{draw(st.integers(19, 29))}e}", re.sub(r"e.*", "", token) + "e-400",
        "1e+400", "nan", "-inf", "infinity", token + "_0", token + "\u0661"]))
    return spelled


_CHANGES = ("spelling",) * 6 + ("drop", "repeat", "extra", "bits")


@st.composite
def _state_texts(draw):
    """A state text with respelled numbers, dropped, repeated or extra tokens,
    repeated bit strings, blank lines, and any whitespace and line breaks."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    header, *lines = reference_state_text(random_state(rng, n)).splitlines()
    rows = [line.split(" ") for line in lines]
    for kind in draw(st.lists(st.sampled_from(_CHANGES), max_size=3)):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row) - 1))
        if kind == "spelling" and len(row) > 1:
            at = draw(st.integers(1, len(row) - 1))
            row[at] = _mutated(draw, row[at])
        elif kind == "drop":
            del row[at]
        elif kind == "repeat":
            row.insert(at, row[at])
        elif kind == "extra":
            row.append(draw(st.sampled_from(["0", "1e-5", "x", "0" * n])))
        elif kind == "bits":
            row[0] = draw(st.sampled_from(rows))[0]
    lines = [draw(st.sampled_from([" ", "\t", "\xa0", "\u3000", "\x1f", " \t "])).join(row)
             for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\xa0"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1e", "\x85",
                                "\u2028", "\u2029"]))
    return eol.join([header, *lines]) + draw(st.sampled_from([eol, ""]))


def _read_with(reader, text):
    try:
        return reader(text)
    except ValueError:
        return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_state_texts(), st.sampled_from([1, 2, 3, 5, 16, 1 << 18]))
def test_reader_agrees_with_the_line_list_reader(text, block):
    # lines straddle blocks of a few characters as well as one block of all
    want = _read_with(reference_state_from_text, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevec, "_READ_BLOCK", block)
        got = _read_with(state_from_text, text)
    assert (got is None) == (want is None)
    if want is not None:
        assert _same_bits(got.amplitudes, want)


def _apply_process(path, env=None):
    return subprocess.run([sys.executable, "-m", "toricgate", "apply", "--input", str(path),
                           "--control", "1", "--target", "2", "--phi1", "0.3"],
                          capture_output=True, timeout=120, env=env)


@pytest.mark.parametrize("damage", ["invalid UTF-8", "truncated mid-line"])
def test_apply_process_rejects_a_file_damaged_after_the_first_block(damage, tmp_path):
    text = state_to_text(StateVector(random_state(np.random.default_rng(3), 13))).encode()
    at = statevec._READ_BLOCK + 1000  # past the first block
    assert len(text) > at + 1000 and text[at:at + 1] not in b" \n"
    path = tmp_path / "state.txt"
    path.write_bytes(text[:at] + b"\xff" + text[at + 1:] if damage == "invalid UTF-8"
                     else text[:at])
    proc = _apply_process(path)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"toricgate: error: ") and proc.stderr.count(b"\n") == 1
    if damage == "invalid UTF-8":  # the byte is named by its offset in the file
        assert f"--input {path}: byte 0xff at offset {at} ".encode() in proc.stderr


def test_apply_process_reads_utf8_under_an_ascii_locale(tmp_path):
    # the C locale, neither coerced to UTF-8 nor in UTF-8 mode: a text-mode
    # open() would decode the file as ASCII and refuse the U+2028 breaks
    text = state_to_text(StateVector(random_state(np.random.default_rng(5), 4)))
    plain, wide = tmp_path / "plain.txt", tmp_path / "wide.txt"
    plain.write_text(text)
    wide.write_bytes(text.replace("\n", "\u2028").encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc, want = _apply_process(wide, env), _apply_process(plain)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == want.stdout and want.stdout.startswith(b"n=4\n")
