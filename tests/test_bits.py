import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decade_row, hypercube_edges, power_of_ten_row
from integer_sites import REFUSED, SITES, accepts, refuses
from toricgate import bits
from toricgate.bits import (_TEXT_BLOCK, _decimal_digits, _decimal_values, _float_values,
                            bit_at, bitstring, cube_edge_moves, float_tokens, index_of, indices_of,
                            label_fields, qubit_mask, row_blocks, table_text)
from toricgate.phase_partition import drop_target_bit


@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 13, 14])
def test_cube_edge_blocks_are_the_edge_table_in_full_blocks(n):
    # the rows of `cube_edge_moves`: each block's low ends are the next up to
    # _TEXT_BLOCK indices, and its (row, bit) pairs are the cube's edges in
    # ascending (low, high) order; the point has one low end and no edge
    edges, lows_seen = [], []
    for lows, row, bit in cube_edge_moves(n):
        assert 0 < len(lows) <= _TEXT_BLOCK and len(row) == len(bit)
        lows_seen += lows.tolist()
        edges += zip(lows[row].tolist(), (lows[row] | 1 << bit).tolist())
    assert lows_seen == list(range(2 ** n))
    assert edges == sorted(hypercube_edges(n))


def test_qubit_mask_and_bit_at_follow_the_string_order():
    for n in range(1, 7):
        index = np.arange(2 ** n)
        for q in range(1, n + 1):
            assert qubit_mask(q, n) == int("0" * (q - 1) + "1" + "0" * (n - q), 2)
            want = [int(bitstring(x, n)[q - 1]) for x in range(2 ** n)]
            assert bit_at(index, q, n).tolist() == want
            assert [bit_at(x, q, n) for x in range(2 ** n)] == want


@pytest.mark.parametrize("index, n", [(5, 2), (-1, 3), (8, 3), (np.int64(4), 2)], ids=repr)
def test_bitstring_takes_indices_of_n_bits_only(index, n):
    # an index past 2^n - 1 used to print more than n characters, and a negative one
    # a '-'; a bool or a non-integer is a row of the integer-site table
    with pytest.raises(ValueError) as info:
        bitstring(index, n)
    assert str(info.value) == f"basis index {index!r} is out of range for {n} qubits"
    assert [bitstring(x, 3) for x in (0, 7, 5)] == ["000", "111", "101"]


@pytest.mark.parametrize("n", [0, -1, np.int64(0)], ids=repr)
def test_bit_helpers_take_at_least_one_qubit(n):
    # n = 0 printed '0' for index 0, and a negative n was a negative shift; the
    # count is checked before the index or slot it bounds
    for call in (lambda: bitstring(0, n), lambda: bit_at(1, 1, n),
                 lambda: bit_at(np.arange(2), 1, n), lambda: drop_target_bit(5, n, 1)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"n_qubits must be at least 1, got {n!r}"


@pytest.mark.parametrize("slot", [0, 4, -1, np.int64(5)], ids=repr)
def test_bit_at_takes_slots_1_to_n_only(slot):
    # slot 0 read a bit above the top as 0, and slot n + 1 was a negative shift
    for index in (5, np.arange(8)):
        with pytest.raises(ValueError) as info:
            bit_at(index, slot, 3)
        assert str(info.value) == f"qubit slot must lie in 1..3, got {slot!r}"


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_bitstrings_and_indices_of_follow_the_index_order(n, seed):
    names = table_text([*label_fields(np.arange(2 ** n), n), "\n"]).splitlines()
    assert names == [format(x, f"0{n}b") for x in range(2 ** n)]
    order = np.random.default_rng(seed).permutation(2 ** n)
    column = np.array([names[x] for x in order], dtype=f"S{n + 1}")
    assert indices_of(column, n).tolist() == order.tolist()


def test_indices_of_marks_entries_that_are_not_n_bits():
    column = np.array(["01", "0", "011", "0111", "2", "+1", "0 ", "0\x00", "10",
                       "0\xb9".encode("latin-1"), b""], dtype="S3")
    assert indices_of(column, 2).tolist() == [1, -1, -1, -1, -1, -1, -1, -1, 2, -1, -1]


def test_index_of_inverts_bitstring():
    for n in range(1, 13):
        assert [index_of(bitstring(x, n)) for x in range(2 ** n)] == list(range(2 ** n))
    assert index_of("1" * 63) == 2 ** 63 - 1


@pytest.mark.parametrize("text", ["-1", "0b11", " 1_0 ", "\u0661", "", "01 ", "2",
                                  "0\x00", "1" * 64])
def test_index_of_rejects_what_bitstring_never_writes(text):
    with pytest.raises(ValueError, match="not a bit string"):
        index_of(text)


# empty, one line, one short of a block, a full block, one over, and a
# partial third block
_ROW_COUNTS = (0, 1, 4095, 4096, 4097, 8193)


def _decoded(tokens):
    """The rows of a NUL-padded token array as strings."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in tokens]


@pytest.mark.parametrize("rows", _ROW_COUNTS)
@pytest.mark.parametrize("width", (1, 2, 3))
def test_text_blocks_match_a_line_by_line_writer(rows, width):
    # a label and width - 1 float columns per line, a block of table_text at a
    # time, as the state text is written
    values = np.arange(rows)[:, None] / 7 - np.arange(1, width)
    blocks = []
    for start, block in zip(range(0, rows, _TEXT_BLOCK), row_blocks(values)):
        tokens, at = float_tokens(block.ravel()), np.arange(block.size).reshape(block.shape)
        floats = [piece for column in at.T for piece in (" ", (tokens, column))]
        blocks.append(table_text(["row ", *label_fields(np.arange(start, start + len(block)), 14),
                                  *floats, ";\n"]))
    want = "".join(f"row {i:014b}" + "".join(" %.17g" % v for v in values[i].tolist()) + ";\n"
                   for i in range(rows))
    assert "".join(blocks) == want
    full, rest = divmod(rows, _TEXT_BLOCK)
    assert [b.count("\n") for b in blocks] == [_TEXT_BLOCK] * full + [rest] * (rest > 0)


@pytest.mark.parametrize("size", _ROW_COUNTS)
def test_scalars_are_the_whole_tolist(size):
    # the float tokens of an array are the '%.17g' of its tolist(), whatever its dtype
    amps = np.arange(size) / 3 + 1j * np.arange(size)
    for array in (amps.real, amps.imag, np.arange(size) % 3 == 0, np.arange(size)):
        assert _decoded(float_tokens(array)) == ["%.17g" % v for v in array.tolist()]


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


def _planted():
    """Doubles at the edges of the %.17g layout and of the exact digits."""
    values = [0.0, 5e-324, 2.2250738585072009e-308, 1.5e-310, 2.2250738585072014e-308,
              1.7976931348623157e308, 1.0, 1.5, 10.0, 100.0, 123456789.0, 2.0 ** 53 + 2,
              1e16, 12345678901234567.0, 99999999999999984.0, 1e17, 1e-4, 1e-5]
    for k in range(-310, 309):  # 10^k and its neighbours; 10^-310 is subnormal
        ten = float(f"1e{k}")
        values += [ten, _below(ten), _above(ten)]
    for k in range(0, 1075):  # among them the exact ties 2^-25 and 3 * 2^-24
        values += [2.0 ** -k, 3 * 2.0 ** -k]
    for e in range(-1022, 1024):  # both ends of every normal binade
        values += [math.ldexp(1.0, e), math.ldexp(2.0 - 2.0 ** -52, e)]
    return values + [-x for x in values]


_PLANTED = _planted()


def test_float_tokens_of_planted_values():
    assert _decoded(float_tokens(np.array(_PLANTED))) == ["%.17g" % x for x in _PLANTED]
    # among them, doubles just below a power of ten whose 17 digits round up
    # to it (D = 10^17): 10^-305 and 10^-14 are two
    carried = [k for k in range(-307, 309) if _below_power_of_ten(float(f"1e{k}"), k)
               and ("%.17g" % float(f"1e{k}")).split("e")[0].strip("0.") == "1"]
    assert {-305, -14} <= set(carried)


def test_importing_toricgate_builds_no_float_table():
    # the tables are built whole on first use: reading back one token builds
    # the powers of ten alone, writing one builds the binades from them
    code = "\n".join([
        "import numpy as np, toricgate, toricgate.cli",
        "from toricgate import bits",
        "def built():",
        "    return [bits._ten_table.cache_info().currsize, bits._decade_table.cache_info().currsize]",
        "before = built()",
        "bits._float_values(np.frombuffer(b' ' * 24 + b'1  ', np.uint8), *np.array([[24], [25]]))",
        "read = built()",
        "bits.float_tokens(np.array([1.0]))",
        "print([before, read, built()])"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[[0, 0], [1, 0], [1, 1]]\n", "")


def test_float_tables_match_a_fraction_oracle():
    # every row of both tables, the binade of the subnormals (never read) included
    tens, decades = bits._ten_table(), bits._decade_table()
    assert not any(table.flags.writeable for table in tens + decades)
    hi, lo, exp = (column.tolist() for column in tens)
    assert list(zip(hi, lo, exp)) == [power_of_ten_row(q) for q in range(-326, 325)]
    k, end, scales = decades
    rows = zip(k.tolist(), end.tolist(), scales.reshape(2, -1, 2).transpose(1, 0, 2).tolist())
    for e, (k_e, end_e, ((hi_k, hi_k1), (lo_k, lo_k1))) in zip(range(-1023, 1024), rows):
        assert (k_e, end_e, hi_k, lo_k, hi_k1, lo_k1) == decade_row(e), e


def test_decades_match_an_exact_oracle():
    # every normal binade 2^e: its decade k, 10^k <= 2^e < 10^(k+1), from the
    # digit count of 2^e or of 5^-e, and the least double >= 10^(k+1)
    decade, end, _ = bits._decade_table()
    rows = zip(range(-1022, 1024), decade[1:].tolist(), end[1:].tolist())
    for e, k, above in rows:
        want = len(str(2 ** e)) - 1 if e >= 0 else len(str(5 ** -e)) - 1 + e
        ten = Fraction(10) ** (want + 1)
        least = float(ten)  # the double nearest 10^(k+1)
        least = least if Fraction(least) >= ten else _above(least)
        assert (k, above) == (want, int(np.float64(least).view(np.uint64))), e


def _below_power_of_ten(x, k):
    p, q = x.as_integer_ratio()
    return p * 10 ** max(-k, 0) < q * 10 ** max(k, 0)


def _finite(bits64):
    return (bits64 >> 52) & 0x7FF != 0x7FF


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1).filter(_finite),
                          st.sampled_from(_PLANTED).map(
                              lambda x: int(np.float64(x).view(np.uint64)))),
                min_size=1, max_size=300))
def test_float_tokens_match_percent_17g(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _decoded(float_tokens(values)) == ["%.17g" % x for x in values.tolist()]


def test_fallback_rows_inside_one_block(monkeypatch):
    rng = np.random.default_rng(11)
    values = rng.normal(size=_TEXT_BLOCK) * 10.0 ** rng.integers(-12, 3, size=_TEXT_BLOCK)
    planted = [0.0, -0.0, 5e-324, -1.5e-310, 2.0 ** -25, 3 * 2.0 ** -24, -3 * 2.0 ** -24,
               math.inf, -math.inf, math.nan]
    values[rng.choice(_TEXT_BLOCK, len(planted), replace=False)] = planted
    want = ["%.17g" % x for x in values.tolist()]
    assert _decoded(float_tokens(values)) == want
    # the rows left to '%.17g' are what keeps a tie right: with no near-tie
    # window, 3 * 2^-24 is rounded half up, not half to even
    monkeypatch.setattr(bits, "_TIE", -1.0)
    assert _decoded(float_tokens(np.array([3 * 2.0 ** -24]))) == ["1.7881393432617187e-07"]
    # and with every row but the zeros sent there, the block is the same
    monkeypatch.setattr(bits, "_TIE", 1.0)
    assert _decoded(float_tokens(values)) == want


def test_zeros_are_laid_out_from_the_tables():
    # +0 and -0 need no '%.17g' call: 17 digits 0 at exponent 0 are laid out as "0"
    zeros = np.array([0.0, -0.0])
    digits, exponent, exact = _decimal_digits(zeros.view(np.uint64) & np.uint64(2 ** 63 - 1))
    assert exact.all() and not digits.any() and not exponent.any()
    assert _decoded(float_tokens(zeros)) == ["0", "-0"]


def _read_floats(tokens):
    """`_float_values` of ASCII tokens, one to a line between the 24 bytes it
    may read back and the 2 it may read on, and whether the word kernel read each."""
    text = " " * 24 + "\n".join(tokens) + "\n "  # one byte a character, as the reader lays out
    buffer = np.frombuffer(text.encode("latin-1", "replace"), np.uint8)
    widths = np.array([len(token) for token in tokens], dtype=np.int64)
    ends = 24 + np.cumsum(widths + 1) - 1
    starts = ends - widths
    return (*_float_values(buffer, starts, ends), _decimal_values(buffer, starts, ends)[1])


def _midpoint(x):
    """The exact decimal of the midpoint between a finite double and the next one up."""
    mid = (Fraction(x) + Fraction(_above(x))) / 2
    scale = mid.denominator.bit_length() - 1  # the denominator is a power of two
    return f"{mid.numerator * 5 ** scale}e-{scale}"


def _same_as_float(tokens):
    values, parsed, _ = _read_floats(tokens)
    assert parsed.all()
    want = np.array([float(token) for token in tokens])
    assert values.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1).filter(_finite),
                          st.sampled_from(_PLANTED).map(
                              lambda x: int(np.float64(x).view(np.uint64)))),
                min_size=1, max_size=100))
def test_float_values_read_every_double_as_float_does(patterns):
    # subnormals, the edges of the exponent range and the exact midpoints
    # between neighbours among them
    values = np.array(patterns, dtype=np.uint64).view(np.float64).tolist()
    _same_as_float(["%.17g" % x for x in values] + [repr(x) for x in values]
                   + [_midpoint(x) for x in values if math.isfinite(_above(x))])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2 ** 53, 10 ** 19 - 1))
def test_float_values_leave_ties_to_float(integer):
    # the midpoints above 2^53 are integers of at most 19 digits, in the word
    # kernel's grammar; it must see each tie and leave it to float()
    mid = _midpoint(float(integer)).removesuffix("e-0")
    tokens = [mid, f"{mid[0]}.{mid[1:]}e+{len(mid) - 1:02d}"]
    _same_as_float(tokens)
    assert not _read_floats(tokens)[2].any()


@pytest.mark.parametrize("token", [
    "0", "-0", "+0", "1", "5.", ".5", "-.5", "+0.5", "1E5", "1e5", "1e+5", "1e-05", "1e+308",
    "1e-400", "1e400", "00.5", "0.5e0", "0.50000000000000000000000001", "nan", "-NaN", "inf",
    "-Infinity", "1_0", "0.5_0", "0x10", "1e", "1e+", "e5", "-", ".", "-.", "1..5", "1.5.",
    "1e5.", "--1", "+-1", "1 ", "١", "1\x7f", "?"])
def test_float_values_take_floats_grammar_without_underscores(token):
    token = token.strip()
    values, parsed, _ = _read_floats([token])
    try:
        want = float(token) if "_" not in token and token.isascii() else None
    except ValueError:
        want = None
    assert bool(parsed[0]) == (want is not None)
    if want is not None:
        assert np.float64(want).view(np.uint64) == values.view(np.uint64)[0] or (
            math.isnan(want) and math.isnan(values[0]))


@pytest.mark.parametrize("site, value", [(site, value) for site, (_, _, taken) in SITES.items()
                                         for value in (*REFUSED, *taken)], ids=repr)
def test_every_integer_site_shares_one_check(site, value):
    # `bits._integer` behind every count, slot, sign, dimension and coordinate:
    # a bool or a non-integer is refused with the site's message, and a numpy
    # integer is read as the int it equals
    if isinstance(value, np.integer):
        accepts(site, value)
    else:
        refuses(site, value)
