"""Bit layout of basis indices: the one place a qubit becomes a bit position.

A basis index x encodes the string x1 x2 ... xn with qubit 1 as the most
significant bit, so |x1 x2 ... xn> sits at index sum_k x_k * 2^(n-k). The
simulator, the partitions, the renderers and the moment polytope read it only
through `qubit_mask`, `bit_at`, `pair_view`, `cube_edges` and the bit-string
codecs (`bitstring`/`label_fields` and `index_of`/`indices_of`). The partitions
count crossings on an agreement mask written through `pair_view`, with no
edge list; only the renderers walk `cube_edges`, the DOT text a block of
rows at a time (`cube_edge_blocks`).

Texts are written in blocks of up to `_TEXT_BLOCK` lines, which the CLI
writes as they come. Every text is formatted by `table_text`: integer tables
looked up in byte vocabularies and laid out as one uint8 array per block,
with the bit string of an index looked up a byte at a time (`label_fields`).
The floats of the state text are a vocabulary too: `float_tokens` writes
each double as `'%.17g' % x` does, byte for byte. Its 17 digits come exactly
from the double's bits through a double-double decimal scale per binade,
filled on first use; a row whose rounding that scale cannot decide (a
near-tie), and any zero, subnormal, inf or nan, is written by `'%.17g'`
itself.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

import numpy as np

MAX_QUBITS = 24
_TEXT_BLOCK = 4096  # lines per block: bounds each table, token array and block


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
    return np.concatenate([np.empty((0, 2), np.int64), *cube_edge_blocks(n)])


def cube_edge_blocks(n: int) -> Iterator[np.ndarray]:
    """The rows of `cube_edges(n)`, `_TEXT_BLOCK` at a time, in order, built
    from `_TEXT_BLOCK` low ends at a time and never all at once."""
    flips = 1 << np.arange(n)
    carry = np.empty((0, 2), np.int64)
    for start in range(0, 1 << n, _TEXT_BLOCK):
        low = np.arange(start, min(start + _TEXT_BLOCK, 1 << n))[:, None]
        keep = (low & flips) == 0  # row-major: low ascending, then the flipped bit
        edges = np.stack((np.broadcast_to(low, keep.shape)[keep], (low | flips)[keep]), axis=1)
        edges = np.concatenate((carry, edges))
        whole = len(edges) - len(edges) % _TEXT_BLOCK
        yield from row_blocks(edges[:whole])
        carry = edges[whole:]
    if len(carry):
        yield carry


def bitstring(index: int, n_qubits: int) -> str:
    """Basis index rendered as its n-character bit string."""
    return format(index, f"0{n_qubits}b")


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
    lines = _laid_out(pieces, len(fields[0][1]))
    if not all(tokens.all() for tokens, _ in fields):
        lines = lines[lines != 0]
    return str(lines, "ascii")


def _laid_out(pieces: Sequence[str | tuple[np.ndarray, np.ndarray]], rows: int) -> np.ndarray:
    """The lines of `table_text` as one flat uint8 array, NUL padding and all
    (apart, so that the looked-up columns are freed before the NUL mask)."""
    columns = [_opaque(piece, rows) for piece in pieces if piece]
    lines = np.empty(rows, [("", column.dtype) for column in columns])
    for name, column in zip(lines.dtype.names, columns):
        lines[name] = column
    return lines.view(np.uint8)


def _opaque(piece: str | tuple[np.ndarray, np.ndarray], rows: int) -> np.ndarray:
    """A piece of every line as one opaque item per row (a `str`: one for all
    rows), so that laying out a line copies whole pieces, not single bytes."""
    if isinstance(piece, str):
        return np.frombuffer(piece.encode("ascii"), f"V{len(piece)}")[0]
    tokens = np.take(*piece, axis=0).reshape(rows, -1)
    return tokens.view(f"V{tokens.shape[1]}")[:, 0]


# The decimal scale of each binade [2^e, 2^(e+1)) of normal doubles, by biased
# exponent, filled the first time one of its values is formatted and never
# changed after, so every caller reads the same table: the decimal
# exponent k of 2^e, the bits of the smallest double >= 10^(k+1), and
# C = 2^(e-52) * 10^(16-X) as an unevaluated sum hi + lo of doubles, for X = k
# (even entry) and X = k + 1 (odd entry).
_DECADE = np.zeros(2047, np.int64)
_NEXT_DECADE = np.zeros(2047, np.uint64)
_SCALE_HI, _SCALE_LO = np.zeros(2 * 2047), np.zeros(2 * 2047)
_FILLED = np.zeros(2047, bool)
_TIE = 2.0 ** -30  # a computed fraction this close to 1/2 is left to '%.17g'
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's constant: halves a double into 26-bit parts


def _fill_scales(biased: np.ndarray) -> None:
    """Fill the scale of every binade among the biased exponents 1..2046 given."""
    for code in set(biased[~_FILLED[biased]].tolist()):
        e = code - 1023
        k = len(str(2 ** e)) - 1 if e >= 0 else -len(str(2 ** -e))
        ten = Fraction(10) ** (k + 1)
        bound = float(ten)  # correctly rounded, so at most one step below 10^(k+1)
        bound = bound if Fraction(bound) >= ten else math.nextafter(bound, math.inf)
        _DECADE[code], _NEXT_DECADE[code] = k, np.float64(bound).view(np.uint64)
        for at, x in enumerate((k, k + 1), start=2 * code):
            scale = Fraction(2) ** (e - 52) * Fraction(10) ** (16 - x)
            _SCALE_HI[at] = float(scale)
            _SCALE_LO[at] = float(scale - Fraction(_SCALE_HI[at]))
        _FILLED[code] = True


def _split(value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into high and low halves of 26 bits each."""
    big = _SPLIT * value
    high = big - (big - value)
    return high, value - high


# A `%g` token is laid out from its row's alphabet: its 17 digits, then NUL,
# ".", "0" and "-". Its layout, 23 alphabet positions, depends only on its
# sign, its form and how many digits it shows; the exponent is looked up apart.
_ALPHABET = 21
_FORMS = 22  # fixed notation for X = -4..16 (form X + 4), then exponent form


@functools.cache
def _float_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of `float_tokens`: the four-digit groups 0000..9999 as uint32
    words of ASCII digits, and their counts of trailing zeros (4 for 0000);
    the layouts, in row (sign * _FORMS + form) * 17 + shown - 1; and the
    exponent suffixes as 5-byte items, in row X + 309 (0: none)."""
    group = np.arange(10 ** 4, dtype=np.int16)
    digits = (group[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    zeros = sum((group % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))
    layouts = np.full((2 * _FORMS * 17, 23), 17, np.int32)
    patterns = itertools.product((0, 1), range(_FORMS), range(1, 18))
    for layout, (sign, form, shown) in zip(layouts, patterns):
        before = form - 3 if form < _FORMS - 1 else 1  # X + 1 digits before the point
        if before <= 0:  # below 1: "0.", -X - 1 zeros, the digits
            slots = [19, 18, *[19] * -before, *range(shown)]
        else:  # trailing zeros are dropped after the point only
            slots = [*range(before), *[18][:shown > before], *range(before, shown)]
        slots = [20] * sign + slots
        layout[:len(slots)] = slots
    exponents = vocabulary(["", *(f"e{x:+03d}" for x in range(-308, 309))])
    return digits.view(np.uint32)[:, 0], zeros, layouts, exponents.view("V5")[:, 0]


def float_tokens(values: np.ndarray) -> np.ndarray:
    """`'%.17g' % x` of each double of a 1-d array, as the rows of a uint8
    array NUL-padded to 28 bytes (the NULs may sit anywhere in a row), for use
    as a `table_text` vocabulary.

    A normal |x| = m * 2^(e-52), 2^52 <= m < 2^53, has the decimal exponent X
    of its binade's 10^k, plus one where |x| reaches the smallest double
    >= 10^(k+1); so 10^X <= |x| < 10^(X+1) exactly. Its 17 digits are
    D = m * C rounded half to even, C = 2^(e-52) * 10^(16-X) held as hi + lo
    with |lo| <= ulp(hi)/2. Dekker's exact product gives m * hi = p + err; p
    is an integer since p >= 10^16 > 2^53, and err + m * lo is then within
    about 2^-47 of m * C - p. So unless the computed fraction lies within
    `_TIE` of 1/2, it sits on the same side of 1/2 as the true one, and
    D = p + floor + (fraction > 1/2) is exact (10^17 becomes 10^16, X + 1).
    Those near-ties (the exact ties 2^-25 and 3 * 2^-24 among them), zeros,
    subnormals, inf and nan are written by `'%.17g' % x`, one row at a time.
    The rest are laid out by the `%g` rules: fixed notation when
    -4 <= X < 17, else `d.ddde+XX`, with trailing zeros and a bare point
    dropped.
    """
    floats = np.ascontiguousarray(values, dtype=np.float64)
    bits = floats.view(np.uint64)
    digits, exponent, exact = _decimal_digits(bits & np.uint64(2 ** 63 - 1))
    quads, zeros, layouts, exponents = _float_tables()
    alphabet, shown = _alphabet(digits, quads, zeros)
    fixed = (exponent >= -4) & (exponent < 17)
    form = np.where(fixed, exponent + 4, _FORMS - 1)
    negative = (bits >> np.uint64(63)).astype(np.intp)
    layout = layouts[(negative * _FORMS + form) * 17 + shown - 1]
    layout += np.arange(0, alphabet.size, _ALPHABET, dtype=np.int32)[:, None]
    out = np.empty((len(bits), 28), np.uint8)
    out[:, :23] = alphabet.ravel()[layout]
    out[:, 23:] = exponents[np.where(fixed, 0, exponent + 309)].view(np.uint8).reshape(-1, 5)
    for row in np.flatnonzero(~exact).tolist():
        text = b"%.17g" % floats[row]
        out[row] = 0
        out[row, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _decimal_digits(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and the decimal exponent X of each |x|, given as its
    bits, and whether they are exact (see `float_tokens`)."""
    biased = (magnitude >> np.uint64(52)).astype(np.intp)
    normal = (biased > 0) & (biased < 2047)
    biased[~normal] = 1  # any binade: these rows are written by '%.17g'
    if not _FILLED[biased].all():
        _fill_scales(biased)
    up = magnitude >= _NEXT_DECADE[biased]
    exponent = _DECADE[biased] + up
    hi, lo = _SCALE_HI[2 * biased + up], _SCALE_LO[2 * biased + up]
    mantissa = ((magnitude & np.uint64(2 ** 52 - 1)) | np.uint64(2 ** 52)).astype(float)
    product = mantissa * hi
    (m1, m2), (h1, h2) = _split(mantissa), _split(hi)
    rest = ((m1 * h1 - product) + m1 * h2 + m2 * h1) + m2 * h2 + mantissa * lo
    whole = np.floor(rest)
    fraction = rest - whole
    digits = product.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    exponent += carry
    return digits, exponent, normal & (np.abs(fraction - 0.5) > _TIE)


def _alphabet(digits: np.ndarray, quads: np.ndarray,
              zeros: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alphabet of each row of 17 digits, and how many of them precede its
    trailing zeros."""
    first, tail = np.divmod(digits, 10 ** 16)
    groups = np.stack(np.divmod(np.stack(np.divmod(tail, 10 ** 8), axis=1), 10 ** 4), axis=2)
    groups = groups.reshape(-1, 4)
    trailing = zeros[groups[:, 3]]
    for column in (2, 1, 0):
        trailing += (trailing == 4 * (3 - column)) * zeros[groups[:, column]]
    alphabet = np.empty((len(digits), _ALPHABET), np.uint8)
    alphabet[:, 0] = first + ord("0")
    alphabet[:, 1:17] = quads[groups].view(np.uint8)
    alphabet[:, 17:] = np.frombuffer(b"\0.0-", np.uint8)
    return alphabet, 17 - trailing


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
