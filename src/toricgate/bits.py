"""Bit layout of basis indices: the one place a qubit becomes a bit position.

A basis index x encodes the string x1 x2 ... xn with qubit 1 as the most
significant bit, so |x1 x2 ... xn> sits at index sum_k x_k * 2^(n-k). The
simulator, the partitions, the renderers and the moment polytope read it only
through `qubit_mask`, `bit_at`, `cube_edge_moves` and the bit-string codecs
(`bitstring`/`label_fields` and `index_of`/`indices_of`). The gate and the
partitions test bit agreement with one kernel, `statevec._agreement`; only the
renderers walk the cube's edges, each a low end and the bit it sets, through
the one enumerator `cube_edge_moves`. `_integer` checks every integer input.

Texts are written in blocks of up to `_TEXT_BLOCK` lines, which the CLI
writes as they come. Every text is formatted by `table_text`: integer tables
looked up in byte vocabularies and laid out as one uint8 array per block,
with the bit string of an index looked up a byte at a time (`label_fields`).
The floats of the state text are a vocabulary too: `float_tokens` writes
each double as `'%.17g' % x` does, byte for byte, and `_float_values` reads
a token back as `float()` does, bit for bit. Both scale exactly through one
table of double-double powers of ten (`_powers_of_ten`); the writer reads it
through a table of the binades of the doubles (`_decades`). Each table is
built whole, exactly and read-only, the first time it is read. What that
scale cannot round for certain (a near-tie) is left to `'%.17g'` or
`float()` itself, as are subnormals, inf and nan on the way out and tokens
outside the word kernel's grammar on the way in.

Texts are read the other way in blocks of whole lines (`_line_blocks`), each
laid out as one uint8 array whose whitespace is a space or a line break
(`_tokens`). A token is read from the little-endian uint64 words that end or
start where it does (`_words_at`): a bit string 8 characters to a word
(`indices_of`), and the digits of a float token 8 to a word (`_float_values`).
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

MAX_QUBITS = 24
_TEXT_BLOCK = 4096  # lines per block: bounds each table, token array and block


def _adopt(cls, **fields):
    """An instance of one of the package's frozen classes over values its
    module has built and checked itself, taken as they are: `__post_init__`
    does not run, so nothing is checked twice."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _integer(x, message: str, low: float = -math.inf, high: float = math.inf) -> int:
    """A count, slot, sign, dimension or coordinate `x` as an `int`: any integer but a bool,
    numpy integers included, from `low` to `high`. Anything else raises `ValueError(message)`."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or not low <= x <= high:
        raise ValueError(message)
    return operator.index(x)


def qubit_mask(qubit: int, n_qubits: int) -> int:
    """Single-bit mask of `qubit` (1-based, most significant first)."""
    return 1 << (n_qubits - qubit)


def bit_at(index: int | np.ndarray, qubit: int, n_qubits: int) -> int | np.ndarray:
    """Bit of slot `qubit` (1..n) in an n-qubit basis index, or elementwise in an index array."""
    n_qubits = _integer(n_qubits, f"n_qubits must be at least 1, got {n_qubits!r}", 1)
    slot = _integer(qubit, f"qubit slot must lie in 1..{n_qubits}, got {qubit!r}", 1, n_qubits)
    return (index >> (n_qubits - slot)) & 1


def cube_edge_moves(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The n-cube's edges, (low, high) ascending, `_TEXT_BLOCK` low ends at a
    time: the low ends, and the (row, bit) pairs of their clear bits (bit 0 the
    least significant), each the edge from `lows[row]` to `lows[row] | 1 << bit`."""
    for start in range(0, 1 << n, _TEXT_BLOCK):
        lows = np.arange(start, min(start + _TEXT_BLOCK, 1 << n))
        clear = np.flatnonzero((lows[:, None] >> np.arange(n) & 1) == 0)
        yield lows, clear // n, clear % n  # np.nonzero's pairs, at a fraction of its cost


def bitstring(index: int, n_qubits: int) -> str:
    """Basis index, an integer (not a bool) from 0 to 2^n - 1, as its n-character bit string."""
    n_qubits = _integer(n_qubits, f"n_qubits must be at least 1, got {n_qubits!r}", 1)
    return format(_integer(index, f"basis index {index!r} is out of range for {n_qubits} qubits",
                           0, (1 << n_qubits) - 1), f"0{n_qubits}b")


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


def table_text(pieces: Sequence[str | tuple[np.ndarray, np.ndarray | None]]) -> str:
    """One line per table row, the pieces side by side.

    A `str` piece is written as it is on every line. A field is a
    `vocabulary` and an integer table of up to `_TEXT_BLOCK` rows, whose row
    writes the tokens of its entries (a 1-d table is one column; `None`: the
    vocabulary's rows are the lines' tokens). The block is laid out as one
    (rows, width) uint8 array; when a vocabulary's tokens differ in width,
    the NUL padding goes in one mask.
    """
    fields = [piece for piece in pieces if not isinstance(piece, str)]
    lines = _laid_out(pieces, len(fields[0][1]))
    if not all(tokens.all() for tokens, _ in fields):
        lines = lines[lines != 0]
    return str(lines, "ascii")


def _laid_out(pieces: Sequence[str | tuple[np.ndarray, np.ndarray | None]],
              rows: int) -> np.ndarray:
    """The lines of `table_text` as one flat uint8 array, NUL padding and all
    (apart, so that the looked-up columns are freed before the NUL mask)."""
    columns = [_opaque(piece, rows) for piece in pieces if piece]
    lines = np.empty(rows, [("", column.dtype) for column in columns])
    for name, column in zip(lines.dtype.names, columns):
        lines[name] = column
    return lines.view(np.uint8)


def _opaque(piece: str | tuple[np.ndarray, np.ndarray | None], rows: int) -> np.ndarray:
    """A piece of every line as one opaque item per row (a `str`: one for all
    rows), so that laying out a line copies whole pieces, not single bytes."""
    if isinstance(piece, str):
        return np.frombuffer(piece.encode("ascii"), f"V{len(piece)}")[0]
    tokens = piece[0] if piece[1] is None else np.take(*piece, axis=0).reshape(rows, -1)
    return tokens.view(f"V{tokens.shape[1]}")[:, 0]


# 10^q = (hi + lo) * 2^exp, 1 <= hi < 2, for q from _Q_LOW (where the reader's
# D * 10^q, D < 10^19, stops being normal) to _Q_HIGH (the writer's largest
# 10^(16 - X)), in row q - _Q_LOW.
_Q_LOW, _Q_HIGH = -326, 324
_TIE = 2.0 ** -30  # a computed fraction this close to 1/2 is left to '%.17g' or float()
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's constant: halves a double into 26-bit parts


@functools.cache
def _ten_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hi, lo and exp columns of the powers of ten, read-only, each row
    exact: a true division of Python ints is correctly rounded."""
    rows = []
    for q in range(_Q_LOW, _Q_HIGH + 1):
        exp = q + ((q * 1217359) >> 19)  # floor(q * log2(10)) (Adams's Ryu, for log2(5))
        num, den = 10 ** max(q, 0) << max(-exp, 0), 10 ** max(-q, 0) << max(exp, 0)
        hi = num / den  # num / den = 10^q / 2^exp, in [1, 2)
        rows.append((hi, ((num << 52) - int(hi * 2 ** 52) * den) / (den << 52), exp))
    hi, lo, exp = zip(*rows)
    tables = np.array(hi), np.array(lo), np.array(exp, np.int64)
    for table in tables:
        table.flags.writeable = False
    return tables


def _powers_of_ten(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hi, lo and exp of 10^q for each q in _Q_LOW.._Q_HIGH."""
    return tuple(np.take(column, q - _Q_LOW) for column in _ten_table())


@functools.cache
def _decade_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per binade 2^e of the doubles, in row e + 1023: k, the bits of the least
    double >= 10^(k+1), and in columns 2 * (e + 1023) + X - k, C for X = k, k + 1
    (see `float_tokens`); read-only."""
    rows = np.arange(2047)
    k = ((rows - 1023) * 78913) >> 18  # floor(e * log10(2)) (Adams's Ryu)
    hi, lo, exp = _powers_of_ten(np.stack([16 - k, 15 - k, k + 1]))
    scale = ((exp[:2] + rows - 52) << 52).view(np.float64)  # 2^(exp + e - 52), normal
    scales = np.stack([hi[:2] * scale, lo[:2] * scale]).swapaxes(1, 2).reshape(2, -1)
    end = (hi[2].view(np.int64) + (exp[2] << 52) + (lo[2] > 0)).view(np.uint64)
    for table in (k, end, scales):
        table.flags.writeable = False
    return k, end, scales


def _decades(magnitude: np.ndarray, biased: np.ndarray) -> tuple[np.ndarray, ...]:
    """X and C = hi + lo (see `float_tokens`) of each normal |x|, given as its bits and binade."""
    decade, end, scales = _decade_table()
    up = magnitude >= end[biased]
    return decade[biased] + up, *np.take(scales, 2 * biased + up, axis=1)


def _split(value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into high and low halves of 26 bits each."""
    big = _SPLIT * value
    high = big - (big - value)
    return high, value - high


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact product: a * b rounded, and what the rounding left off."""
    product = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return product, ((a1 * b1 - product) + a1 * b2 + a2 * b1) + a2 * b2


# A `%g` token is laid out from its row's alphabet, 7 uint32 words: "-0." and
# its 17 digits, then its exponent suffix, NUL-padded to 8 bytes. Its layout, 28
# alphabet bytes, depends only on its sign, its form and how many digits it shows.
_FORMS = 22  # fixed notation for X = -4..16 (form X + 4), then exponent form


@functools.cache
def _float_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of `float_tokens`: the alphabet words (ASCII groups 0000..9999,
    "-0." and each digit, the suffixes' first words, their second words), the
    groups' counts of trailing zeros (4 for 0000), the layouts, in row (sign *
    _FORMS + form) * 17 + shown - 1, and form * 17 + 16 in row X + 308."""
    group = np.arange(10 ** 4, dtype=np.int16)
    digits = (group[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    zeros = sum((group % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))
    suffixes = vocabulary(f"e{x:+03d}".ljust(8, "\0") for x in range(-308, 309))
    words = np.concatenate([digits, vocabulary(f"-0.{digit}" for digit in range(10)),
                            *np.hsplit(suffixes, 2)])
    layouts = np.full((2 * _FORMS * 17, 28), 27, np.int32)  # byte 27 is always NUL
    patterns = itertools.product((0, 1), range(_FORMS), range(1, 18))
    for layout, (sign, form, shown) in zip(layouts, patterns):
        before = form - 3 if form < _FORMS - 1 else 1  # X + 1 digits before the point
        if before <= 0:  # below 1: "0.", -X - 1 zeros, the digits
            slots = [1, 2, *[1] * -before, *range(3, 3 + shown)]
        else:  # trailing zeros are dropped after the point only
            slots = [*range(3, 3 + before), *[2][:shown > before], *range(3 + before, 3 + shown)]
        slots = [0] * sign + slots + [*range(20, 25)] * (form == _FORMS - 1)
        layout[:len(slots)] = slots
    forms = [x + 4 if -4 <= x < 17 else _FORMS - 1 for x in range(-308, 309)]
    return words.view(np.uint32)[:, 0], zeros, layouts, np.array(forms) * 17 + 16


def float_tokens(values: np.ndarray) -> np.ndarray:
    """`'%.17g' % x` of each double of a 1-d array, as the rows of a uint8
    array NUL-padded to 28 bytes (the NULs may sit anywhere in a row), for use
    as a `table_text` vocabulary.

    A normal |x| = m * 2^(e-52), 2^52 <= m < 2^53, lies in [10^X, 10^(X+1)):
    X is k = (e * 78913) >> 18, 10^k <= 2^e < 10^(k+1) (Adams's Ryu), plus one
    where |x| reaches 10^(k+1) = (hi + lo) * 2^exp, at hi * 2^exp or, where
    lo > 0, the double above. Its 17 digits are D = m * C rounded half to even,
    C = 2^(e-52) * 10^(16-X), the hi + lo of 10^(16-X) times 2^(exp + e - 52)
    with |lo| <= ulp(hi)/2; k, that double and C are read from a table of the
    binades (`_decades`). Dekker's exact product gives m * hi = p + err; p
    is an integer since p >= 10^16 > 2^53, and err + m * lo is then within
    about 2^-47 of m * C - p. So unless the computed fraction lies within
    `_TIE` of 1/2, it sits on the same side of 1/2 as the true one, and
    D = p + floor + (fraction > 1/2) is exact (10^17 becomes 10^16, X + 1).
    Those near-ties (the exact ties 2^-25 and 3 * 2^-24 among them),
    subnormals, inf and nan are written by `'%.17g' % x`, one row at a time.
    The rest are laid out by the `%g` rules: fixed notation when
    -4 <= X < 17, else `d.ddde+XX`, with trailing zeros and a bare point
    dropped; a zero, D = 0 and X = 0, is laid out as `0` or `-0`.
    """
    floats = np.ascontiguousarray(values, dtype=np.float64)
    bits = floats.view(np.uint64)
    digits, exponent, exact = _decimal_digits(bits & np.uint64(2 ** 63 - 1))
    words, zeros, layouts, forms = _float_tables()
    alphabet, trailing = _alphabet(digits, exponent, words, zeros)
    row = np.take(forms, exponent + 308) - trailing
    row += (bits >> np.uint64(63)).astype(np.intp) * (_FORMS * 17)
    layout = np.take(layouts, row, axis=0)
    layout += np.arange(0, alphabet.size, 28, dtype=np.int32)[:, None]
    out = np.take(alphabet, layout)
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
    exponent, hi, lo = _decades(magnitude, biased)
    mantissa = ((magnitude & np.uint64(2 ** 52 - 1)) | np.uint64(2 ** 52)).astype(float)
    product, rest = _product(mantissa, hi)
    rest += mantissa * lo
    whole = np.floor(rest)
    fraction = rest - whole
    digits = product.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    exponent += carry
    zero = magnitude == 0
    digits[zero] = exponent[zero] = 0
    return digits, exponent, (normal & (np.abs(fraction - 0.5) > _TIE)) | zero


def _alphabet(digits: np.ndarray, exponent: np.ndarray, words: np.ndarray,
              zeros: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alphabets of rows of 17 digits at exponent X, 28 bytes a row in one
    flat array, and how many trailing zeros each row's last 16 digits end in."""
    word = np.empty((len(digits), 7), np.intp)  # each alphabet word's row in `words`
    for column, unit in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(digits, unit, out=word[:, column])
        digits = digits - word[:, column] * unit
    word[:, 4] = digits
    trailing = zeros[digits]
    for column in (3, 2, 1):
        trailing += (trailing == 4 * (4 - column)) * zeros[word[:, column]]
    word[:, 0] += 10 ** 4
    np.add(exponent[:, None], [10 ** 4 + 10 + 308, 10 ** 4 + 10 + 308 + 617], out=word[:, 5:])
    return np.take(words, word).view(np.uint8).ravel(), trailing


# Reading a text: blocks of whole lines, laid out as byte tables.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks
_PAD = 24  # spaces around a block's bytes: a float token is read 24 bytes back


def _line_blocks(chunks: Iterable[str]) -> Iterator[tuple[str, int]]:
    """Each chunk with the partial line the chunks before it left, and where
    its last line break ends: the text before that is whole lines. A chunk
    with no line break waits for the next, so a line may span chunks."""
    pending: list[str] = []
    for chunk in chunks:
        pending.append(chunk)
        newline = max(chunk.rfind("\n"), 0)  # the other breaks are looked for after it
        cut = max(chunk.rfind(mark, newline) for mark in _LINE_BREAKS) + 1
        if cut:
            text = "".join(pending)
            stop = len(text) - len(chunk) + cut
            del chunk  # with pending, so that the text is the block's one copy
            pending = []
            yield text, stop
            pending = [text[stop:]]
    text = "".join(pending)
    yield text, len(text)


@functools.cache
def _character_classes() -> tuple[dict[int, str], bytes]:
    """What every whitespace character acts as: the non-ASCII ones as a str
    translation to " " or "\\n", and each byte of a block as a `bytes.translate`
    table that also turns the other control bytes into DEL, which no token
    grammar takes."""
    def acts_as(char: str) -> str:
        return "\n" if char in _LINE_BREAKS else " " if char.isspace() else char

    wide = {code: acts_as(chr(code)) for code in range(128, 0x3001) if chr(code).isspace()}
    table = bytes(ord(acts_as(chr(code))) if code > 32 or chr(code).isspace() else 127
                  for code in range(256))
    return wide, table


def _tokens(text: str, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bytes of `text[:stop]` (`_block_bytes`), the start and end of each
    token in them, and the number of tokens on each of its lines.

    A token lies between two whitespace bytes that are not next to each
    other, and the tokens before a line break are counted over the
    whitespace bytes before it."""
    buffer, spaces = _block_bytes(text, stop)
    apart = np.diff(spaces) > 1
    token = np.flatnonzero(apart)
    starts, ends = spaces[token] + 1, spaces[token + 1]
    before = np.cumsum(apart)[np.flatnonzero(buffer[spaces] == 10) - 1]
    per_line = np.diff(before, prepend=0, append=starts.size)
    return buffer, starts, ends, per_line


def _block_bytes(text: str, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """`text[:stop]` as one byte per character, `_PAD` spaces around, with
    every whitespace character a space or a line break (b"\\n"), and where
    its whitespace bytes are.

    A non-ASCII character that is not whitespace becomes a byte no token
    grammar takes ("?" or a Latin-1 byte); errors quote `text` itself.
    """
    plain = text.isascii()
    raw = text.encode("ascii") if plain else text.translate(
        _character_classes()[0]).encode("latin-1", "replace")
    buffer = np.empty(stop + 2 * _PAD, np.uint8)
    buffer[:_PAD] = buffer[stop + _PAD:] = ord(" ")
    buffer[_PAD:stop + _PAD] = np.frombuffer(raw, np.uint8, stop)
    spaces = np.flatnonzero(buffer <= 32)
    marks = buffer[spaces]
    if not plain or np.count_nonzero(marks == 32) + np.count_nonzero(marks == 10) < spaces.size:
        raw = raw.translate(_character_classes()[1])  # tabs, CRs, NULs, ...
        buffer[_PAD:stop + _PAD] = np.frombuffer(raw, np.uint8, stop)
        spaces = np.flatnonzero(buffer <= 32)
    return buffer, spaces


def _words_at(buffer: np.ndarray, offsets: np.ndarray, count: int) -> np.ndarray:
    """The `count` little-endian uint64 words that start at each offset of a
    uint8 array, as a (len(offsets), count) array. Each window of 8 * count
    bytes is gathered as one opaque item, which copies it whole."""
    windows = np.ndarray((buffer.size - 8 * count + 1,), f"V{8 * count}", buffer, 0, (1,))
    return windows[offsets].view("<u8").reshape(len(offsets), count)


_LOW_BYTES = np.array([2 ** (8 * k) - 1 for k in range(9)], np.uint64)  # the k low bytes set


def _bit_strings(buffer: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 n: int) -> np.ndarray:
    """The basis index each bit-string token spells, -1 where it is not n
    bits: its words, NUL after its first n bytes, go to `indices_of`."""
    words = -(-n // 8)
    bits = _words_at(buffer, starts, words)
    bits &= _LOW_BYTES[np.clip(n - 8 * np.arange(words), 0, 8)]
    index = indices_of(bits.view(f"S{8 * words}")[:, 0], n)
    index[ends - starts != n] = -1
    return index


def _lanes(byte: int) -> np.uint64:
    """A uint64 word with `byte` in each of its 8 bytes."""
    return np.uint64(0x0101010101010101 * byte)


_SKIPS = ~_LOW_BYTES[np.clip(np.arange(25)[:, None] - [0, 8, 16], 0, 8)]  # row s: 24 bytes, s off
_POWERS = np.array([10 ** k for k in range(19)], np.uint64)
_EIGHT_DIGITS = (np.uint64(0x000000FF000000FF), np.uint64(100 + (1000000 << 32)),
                 np.uint64(1 + (10000 << 32)))  # Lemire's constants: pairs, then fours, then 8


def _float_values(buffer: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double each token `buffer[start:end]` of a uint8 array spells, as
    `float()` reads it, and whether it is a float at all (NaN where not).

    The grammar is `float()`'s over ASCII bytes, without `_`; `buffer` holds
    at least 24 bytes before each token and 2 after it. The word kernel
    (`_decimal_values`) reads the tokens `[sign] digit.digits [e sign 2-3
    digits]` and `[sign] digits [e sign 2-3 digits]` of up to 19 significant
    digits, as `'%.17g'` and `repr` write any double below 10; the rest, and
    the near-ties, are read by `float()` one token at a time.
    """
    values, exact = _decimal_values(buffer, starts, ends)
    parsed = exact.copy()
    for row in np.flatnonzero(~exact).tolist():
        token = buffer[starts[row]:ends[row]].tobytes()
        try:
            if b"_" in token:  # float() takes PEP 515 separators
                raise ValueError(token)
            values[row], parsed[row] = float(token), True
        except ValueError:
            values[row] = math.nan
    return values, parsed


def _decimal_values(buffer: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double of each token, and whether the word kernel read it exactly:
    its sign, then D * 10^q from `_decimal_parts`, rounded by `_scaled`."""
    lead = buffer[starts]
    minus = lead == ord("-")
    digits, q, exact = _decimal_parts(buffer, starts + (minus | (lead == ord("+"))), ends)
    values, exact = _scaled(digits, q, exact)
    values *= 1 - 2.0 * minus
    return values, exact


def _decimal_parts(buffer: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D and q of each unsigned token D * 10^q, and whether it is in the
    kernel's grammar with D < 10^19.

    A token whose last 8 bytes (a little-endian uint64 word) hold an `e` at
    the fourth or fifth byte from the end has its exponent read from them
    (`_exponents`). If the mantissa's second byte is '.', its first is the
    integer part I; the digits after the dot, or else the whole mantissa, are
    F, read from the 24 bytes that end where the mantissa does, as three
    words: XOR with '0' turns digits into their values, the bytes before F
    are masked off, a carry test finds any byte that was not a digit, and
    each word gives its 8 digits in 3 multiplies (Lemire). So D = I * 10^f +
    F and q is the exponent less f, f the digits after the dot.
    """
    window = _words_at(buffer, ends - 24, 3)
    end, exponent, some = _exponents(window[:, 2], ends)
    window[some] = _words_at(buffer, end[some] - 24, 3)  # the mantissa's, before the exponent
    whole = (buffer[starts] ^ np.uint8(ord("0"))).astype(np.uint64)  # I, if a dot follows
    dotted = buffer[starts + 1] == ord(".")
    fraction = (end - starts - 2) * dotted  # f
    skip = 24 - (end - starts) + 2 * dotted  # bytes of the window before F
    window ^= _lanes(ord("0"))  # a digit's byte is now its value
    window &= np.take(_SKIPS, skip, axis=0, mode="clip")
    scratch = window + _lanes(0x76)
    scratch |= window
    scratch &= _lanes(0x80)  # the high bit of each byte that was not a digit
    exact = (scratch[:, 0] | scratch[:, 1] | scratch[:, 2]) == 0
    pairs_mask, pairs, fours = _EIGHT_DIGITS
    np.multiply(window, np.uint64(10), out=scratch)
    window >>= np.uint64(8)
    window += scratch
    np.right_shift(window, np.uint64(16), out=scratch)
    scratch &= pairs_mask
    scratch *= fours
    window &= pairs_mask
    window *= pairs
    window += scratch
    window >>= np.uint64(32)  # the 8 digits of each word
    q = exponent - fraction
    exact &= (window[:, 0] < 1000) & (skip >= 0) & (end > starts)
    exact &= ~dotted | ((whole < 10) & (fraction > 0))
    exact &= ((fraction <= 18) | (whole == 0)) & (q >= _Q_LOW) & (q <= _Q_HIGH)
    digits = window[:, 0] * np.uint64(10 ** 16)
    digits += window[:, 1] * np.uint64(10 ** 8)
    digits += window[:, 2]
    digits += whole * dotted * np.take(_POWERS, fraction, mode="clip")
    digits *= exact
    return digits, q, exact


def _scaled(digits: np.ndarray, q: np.ndarray,
            exact: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D * 10^q rounded to the nearest double where `exact`, and whether that
    rounding is certain: not within `_TIE` ulp of a midpoint, and normal.

    10^q = (hi + lo) * 2^exp is read from `_powers_of_ten`. D is the
    double nearest it plus an integer below 2^10; Dekker's product of that
    double with hi is exact, and the three terms left are summed with an
    error below 2^-90 of the product, against the 2^-53 of one ulp. So unless
    the sum lies within `_TIE` ulp of a midpoint between two doubles, its
    rounding is the correctly rounded D * 10^q, and scaling it by 2^exp is
    exact unless that leaves the normal range.
    """
    hi, lo, exp = _powers_of_ten(q * exact)
    nearest = digits.astype(np.float64)
    part = (digits - nearest.astype(np.uint64)).view(np.int64).astype(np.float64)
    product, rest = _product(nearest, hi)
    rest += nearest * lo + part * hi
    near = product + rest
    off = rest - (near - product)  # near + off is product + rest exactly
    # the doubles on off's side of near are 2^(e - 52) apart, 2^e the binade
    # of near, or of the double below it when off < 0
    side = near.view(np.uint64) - (off < 0)
    half = (side & np.uint64(0x7FF << 52)).view(np.float64) * 2.0 ** -53
    exact &= np.abs(np.abs(off) - half) > 2 * _TIE * half
    with np.errstate(over="ignore"):
        values = np.ldexp(near, exp.astype(np.intc))  # numpy's int64-exponent loop is slow
    exact &= ((values >= 2.0 ** -1022) & (values < math.inf)) | (digits == 0)
    return values, exact


def _exponents(tail: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each token's mantissa ends and its exponent, given the token's
    last 8 bytes as a word: read from a token that ends in `e+dd` or `e-ddd`,
    0 (and the token's end) for the rest; and the tokens looked at closely,
    those with an `e` where one could start such an ending."""
    end, exponent = ends.copy(), np.zeros(len(ends), np.int64)
    marks = (tail >> np.uint64(24)) ^ np.uint64(0x6565)  # 0 where an 'e' is, in bytes 0 and 1
    some = np.flatnonzero(((marks & np.uint64(0xFF)) == 0) | ((marks & np.uint64(0xFF00)) == 0))
    tail = tail[some]
    x5, x4, x3, x2, x1 = ((tail >> np.uint64(8 * k)) & np.uint64(255) for k in range(3, 8))
    d3, d2, d1 = (x - np.uint64(48) for x in (x3, x2, x1))  # below 10 for a digit
    two = (x4 == ord("e")) & ((x3 == ord("+")) | (x3 == ord("-"))) & (d2 < 10) & (d1 < 10)
    three = ((x5 == ord("e")) & ((x4 == ord("+")) | (x4 == ord("-")))
             & (d3 < 10) & (d2 < 10) & (d1 < 10))
    power = (d3 * np.uint64(100) * three + d2 * np.uint64(10) + d1).astype(np.int64)
    power[np.where(three, x4, x3) == ord("-")] *= -1
    end[some] -= 4 * two + 5 * three
    exponent[some] = power * (two | three)
    return end, exponent, some


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
    Entries are read 8 bytes at a time, as little-endian words (padded with
    NULs to a whole word): lanes below n must be '0' or '1' and lanes above
    NUL, and a multiply packs the low bits of a word's 8 lanes into a byte.
    """
    raw = np.ascontiguousarray(bits).view(np.uint8).reshape(bits.size, bits.itemsize)
    width = -(-max(bits.itemsize, n_qubits) // 8) * 8
    if width != bits.itemsize:
        raw = np.concatenate([raw, np.zeros((bits.size, width - bits.itemsize), np.uint8)], 1)
    ones = _LOW_BYTES[np.clip(n_qubits - np.arange(0, width, 8), 0, 8)] & _lanes(1)
    index, wrong = np.zeros(bits.size, np.uint64), np.zeros(bits.size, np.uint64)
    for word, one in zip(raw.view("<u8").T, ones):
        wrong |= (word | one) ^ (one * np.uint64(ord("1")))
        index <<= np.uint64(8)
        index |= ((word & _lanes(1)) * np.uint64(0x8040201008040201)) >> np.uint64(56)
    index = (index >> np.uint64(width - n_qubits)).astype(np.int64)
    index[wrong != 0] = -1
    return index
