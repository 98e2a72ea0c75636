"""Bit layout of basis indices: the one place a qubit becomes a bit position.

A basis index x encodes the string x1 x2 ... xn with qubit 1 as the most
significant bit, so |x1 x2 ... xn> sits at index sum_k x_k * 2^(n-k). The
simulator, the partitions, the renderers and the moment polytope read it only
through `qubit_mask`, `bit_at`, `pair_view`, `cube_edges` and the bit-string
codecs (`bitstring`/`bitstrings`/`label_fields` and `index_of`/`indices_of`). The partitions
count crossings on an agreement mask written through `pair_view`, with no
edge list; only the renderers walk `cube_edges`.

Texts are written in blocks of up to `_TEXT_BLOCK` lines, which the CLI
writes as they come. The lines of tokens (the partition, DOT and fan texts)
are formatted by `table_text`: integer tables looked up in byte vocabularies
and laid out as one uint8 array per block, with the bit string of an index
looked up a byte at a time (`label_fields`). The floats of the state text
are formatted by `text_blocks`, whose `%.17g` a table cannot replace.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

MAX_QUBITS = 24
_TEXT_BLOCK = 4096  # lines per block: bounds each field tuple, table, block and tolist()


def qubit_mask(qubit: int, n_qubits: int) -> int:
    """Single-bit mask of `qubit` (1-based, most significant first)."""
    return 1 << (n_qubits - qubit)


def bit_at(index: int | np.ndarray, qubit: int, n_qubits: int) -> int | np.ndarray:
    """Bit of `qubit` in an n-qubit basis index, or elementwise in an index array."""
    return (index >> (n_qubits - qubit)) & 1


def pair_view(array: np.ndarray, qubit_a: int, qubit_b: int) -> np.ndarray:
    """A length-2^n array seen as (2^(a-1), 2, 2^(b-a-1), 2, 2^(n-b)), a < b the sorted pair.

    `view[:, i, :, j, :]` holds the indices whose bits of qubits a and b read
    i and j; a 2x2 table reshaped to (1, 2, 1, 2, 1) broadcasts against it.
    """
    a, b = sorted((qubit_a, qubit_b))
    n = array.size.bit_length() - 1
    return array.reshape(1 << (a - 1), 2, 1 << (b - a - 1), 2, 1 << (n - b))


def cube_edges(n: int) -> np.ndarray:
    """Edges of the n-cube as an (E, 2) array of (low, high) rows in ascending order."""
    low = np.arange(1 << n)[:, None]
    flips = 1 << np.arange(n)
    keep = (low & flips) == 0  # row-major: low ascending, then the flipped bit
    return np.stack((np.broadcast_to(low, keep.shape)[keep], (low | flips)[keep]), axis=1)


def bitstring(index: int, n_qubits: int) -> str:
    """Basis index rendered as its n-character bit string."""
    return format(index, f"0{n_qubits}b")


def bitstrings(n_qubits: int) -> Iterator[str]:
    """Every n-character bit string, lazily, in basis-index order."""
    return map("".join, itertools.product("01", repeat=n_qubits))


def vocabulary(tokens: Iterable[str]) -> np.ndarray:
    """ASCII tokens as the rows of a (V, w) uint8 array, NUL-padded to the widest."""
    words = np.array([token.encode("ascii") for token in tokens], dtype=bytes)
    return words.view(np.uint8).reshape(words.size, words.itemsize)


_BYTE_BITS = vocabulary(format(byte, "08b") for byte in range(256))


def label_fields(indices: np.ndarray, n_qubits: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The `bitstring` of each index as `table_text` fields, 8 bits per token:
    its leading 1 to 8 bits, then each of its lower bytes (n_qubits up to 32)."""
    low = (n_qubits - 1) // 8  # whole bytes after the leading bits
    lead = n_qubits - 8 * low
    big = np.ascontiguousarray(indices, dtype=">u4")
    big = big.view(np.uint8).reshape(*big.shape, 4)
    fields = [(_BYTE_BITS[:1 << lead, 8 - lead:], big[..., 3 - low])]
    return fields + [(_BYTE_BITS, big[..., 4 - low:])] if low else fields


def row_blocks(table: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of an array, `_TEXT_BLOCK` at a time, in order."""
    return (table[start:start + _TEXT_BLOCK] for start in range(0, len(table), _TEXT_BLOCK))


def table_text(pieces: Sequence[str | tuple[np.ndarray, np.ndarray]]) -> str:
    """One line per table row, the pieces side by side.

    A `str` piece is written as it is on every line. A field is a
    `vocabulary` and an integer table of up to `_TEXT_BLOCK` rows, whose row
    writes the tokens of its entries (a 1-d table is one column). The block
    is laid out as one (rows, width) uint8 array; when a vocabulary's tokens
    differ in width, the NUL padding goes in one mask.
    """
    fields = [piece for piece in pieces if not isinstance(piece, str)]
    rows = len(fields[0][1])
    columns = [_opaque(piece, rows) for piece in pieces if piece]
    lines = np.empty(rows, [("", column.dtype) for column in columns])
    for name, column in zip(lines.dtype.names, columns):
        lines[name] = column
    lines = lines.view(np.uint8)
    if not all(tokens.all() for tokens, _ in fields):
        lines = lines[lines != 0]
    return lines.tobytes().decode("ascii")


def _opaque(piece: str | tuple[np.ndarray, np.ndarray], rows: int) -> np.ndarray:
    """A piece of every line as one opaque item per row (a `str`: one for all
    rows), so that laying out a line copies whole pieces, not single bytes."""
    if isinstance(piece, str):
        return np.frombuffer(piece.encode("ascii"), f"V{len(piece)}")[0]
    tokens = np.take(*piece, axis=0).reshape(rows, -1)
    return tokens.view(f"V{tokens.shape[1]}")[:, 0]


def text_blocks(line: str, width: int, fields: Iterable) -> Iterator[str]:
    """`line`, a `%` format of `width` conversions, filled from one flat run of
    fields: `_TEXT_BLOCK` lines per block, one `%` call per block."""
    fields = iter(fields)
    while block := tuple(itertools.islice(fields, _TEXT_BLOCK * width)):
        yield line * (len(block) // width) % block


def scalars(array: np.ndarray) -> Iterator:
    """The Python scalars of a 1-d array in order, one `_TEXT_BLOCK` slice's
    `tolist()` at a time, so the array is never one list."""
    return itertools.chain.from_iterable(
        array[start:start + _TEXT_BLOCK].tolist() for start in range(0, array.size, _TEXT_BLOCK))


def index_of(bits: str) -> int:
    """Inverse of `bitstring`: the index of 1 to 63 ASCII '0'/'1' characters.

    Anything else is a ValueError: signs, `0b` prefixes, `_` separators,
    spaces, other digits and the empty string.
    """
    n = len(bits)
    column = np.array([bits.encode("ascii", "replace")], dtype=f"S{n + 1}")
    index = int(indices_of(column, n)[0]) if 0 < n < 64 else -1
    if index < 0:
        raise ValueError(f"not a bit string of 1 to 63 characters: {bits!r}")
    return index


def indices_of(bits: np.ndarray, n_qubits: int) -> np.ndarray:
    """Basis index of each entry of a byte-string array, -1 where it is not n bits.

    An entry is well formed when it is exactly `n_qubits` ASCII '0'/'1'
    characters; give the array a width above n so that a longer one shows.
    The index is built one bit column at a time, with no (rows, n) temporary.
    """
    raw = np.ascontiguousarray(bits).view(np.uint8).reshape(bits.size, bits.itemsize)
    valid = ~raw[:, n_qubits:].any(axis=1)
    index = np.zeros(bits.size, dtype=np.int64)
    for column in raw[:, :n_qubits].T:
        valid &= (column | 1) == ord("1")
        index <<= 1
        index += column & 1
    index[~valid] = -1
    return index
