import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hypercube_edges
from toricgate.bits import (_TEXT_BLOCK, bit_at, bitstring, bitstrings, cube_edges,
                            index_of, indices_of, pair_view, qubit_mask, scalars, text_blocks)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 12))
def test_cube_edges_match_oracle(n):
    edges = cube_edges(n)
    assert edges.shape == (n * 2 ** (n - 1), 2)
    assert [tuple(e) for e in edges.tolist()] == sorted(hypercube_edges(n))


def test_cube_edges_of_the_point():
    assert cube_edges(0).shape == (0, 2)


def test_qubit_mask_and_bit_at_follow_the_string_order():
    for n in range(1, 7):
        index = np.arange(2 ** n)
        for q in range(1, n + 1):
            assert qubit_mask(q, n) == int("0" * (q - 1) + "1" + "0" * (n - q), 2)
            want = [int(bitstring(x, n)[q - 1]) for x in range(2 ** n)]
            assert bit_at(index, q, n).tolist() == want
            assert [bit_at(x, q, n) for x in range(2 ** n)] == want


def test_pair_view_slices_by_the_two_bits():
    for n in range(2, 8):
        index = np.arange(2 ** n)
        for a, b in itertools.permutations(range(1, n + 1), 2):
            view = pair_view(index, a, b)
            assert np.shares_memory(view, index)
            for i, j in itertools.product((0, 1), repeat=2):
                # i is the bit of the lower-numbered qubit, j of the higher
                lo, hi = sorted((a, b))
                want = [x for x in range(2 ** n)
                        if bitstring(x, n)[lo - 1] == str(i)
                        and bitstring(x, n)[hi - 1] == str(j)]
                assert view[:, i, :, j, :].ravel().tolist() == want


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_bitstrings_and_indices_of_follow_the_index_order(n, seed):
    names = list(bitstrings(n))
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


@pytest.mark.parametrize("rows", _ROW_COUNTS)
@pytest.mark.parametrize("width", (1, 2, 3))
def test_text_blocks_match_a_line_by_line_writer(rows, width):
    line = "row %s" + " %.17g" * (width - 1) + ";\n"
    fields = [f"r{i}" if j == 0 else i / 7 - j for i in range(rows) for j in range(width)]
    blocks = list(text_blocks(line, width, iter(fields)))
    want = "".join(line % tuple(fields[i * width:(i + 1) * width]) for i in range(rows))
    assert "".join(blocks) == want
    full, rest = divmod(rows, _TEXT_BLOCK)
    assert [b.count("\n") for b in blocks] == [_TEXT_BLOCK] * full + [rest] * (rest > 0)


@pytest.mark.parametrize("size", _ROW_COUNTS)
def test_scalars_are_the_whole_tolist(size):
    amps = np.arange(size) / 3 + 1j * np.arange(size)
    for array in (amps.real, amps.imag, np.arange(size) % 3 == 0, np.arange(size)):
        values = list(scalars(array))
        assert values == array.tolist()
        assert {type(v) for v in values} <= {float, bool, int}
