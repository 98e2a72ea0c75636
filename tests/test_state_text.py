"""The state file format: writer bytes, exact round trips, accepted layouts,
rejected inputs (library and CLI), and the memory the two text functions use."""
import io
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state, reference_state_text
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
    "trailing comment": (_GOOD.replace("0.8 0", "0.8 0 # note"), "malformed amplitude line"),
    "comment line": (_GOOD + "# note\n", "expected 4 amplitude lines, got 5$"),
    "comment as number": (_GOOD.replace("0.8 0", "0.8 #0"), "malformed amplitude line"),
    "quoted number": (_GOOD.replace("0.8", '"0.8"'), "malformed amplitude line"),
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
    "underscore separator": (_GOOD.replace("0.6", "0.6_0"), "malformed amplitude line"),
    "Arabic-Indic digit": (_GOOD.replace("0.6 0\n01 0.8", "\u0661 0\n01 0"),
                           "malformed amplitude line"),
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
    assert read_peak <= 4 * len(text)
    assert np.array_equal(back.amplitudes, state.amplitudes)
