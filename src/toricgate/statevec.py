"""Dense multi-qubit state vectors and the diagonal controlled-phase action.

States are read-only numpy amplitude arrays of length 2^n with the bit
convention of `bits` (qubit 1 is the most significant bit). The uniform
superposition is one amplitude broadcast with stride 0, so a gate on it reads
one cached value and writes only its output. A diagonal (a, b, b, a) gate
placed on any control/target pair multiplies each amplitude by `a` where the
two bits agree and by `b` where they differ, which is why the placement is
symmetric under swapping control and target. The phase classes of
`phase_partition` read that test from the same kernel as the gate, `_agreement`.

`apply_cphase` reads the state once, `_BLOCK` amplitudes at a time, and only multiplies.
|psi|^2 is summed in one place, the `StateVector` constructor, one `np.vdot` per block of the
gate's. Besides its output the gate allocates two one-block factor vectors, at most 1/8 of
the state. From `_SPARE_MIN` amplitudes (32 MiB) up, it writes into the buffer of one of its
last two outputs that nothing refers to any more, so a chain of gates does not fault in fresh
zeroed pages. Below that, malloc reuses freed memory itself, and buffers held back would keep
glibc from raising its mmap threshold.
"""
from __future__ import annotations

import codecs
import itertools
import math
import re
import sys
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .bits import (_PAD, _TEXT_BLOCK, MAX_QUBITS, _bit_strings, _float_values, _integer,
                   _line_blocks, _tokens, bit_at, bitstring, float_tokens, label_fields,
                   row_blocks, table_text)
from .spin_model import DiagonalTwoQubitGate

_NORM_TOL = 1e-9
_GATE_SLACK = 2.0 ** -49  # a gate's rounding of |amp|^2 and of its bounds' own products
_HEADER = re.compile(r"n=([0-9]+)$")  # \d would take non-ASCII digits
_READ_BLOCK = 1 << 18  # characters or bytes per read: bounds each block's byte tables
_BLOCK = 1 << 14  # amplitudes per block of apply_cphase: 256 KiB, within L2
_SPARE_MIN = 1 << 21  # amplitudes of the smallest output whose buffer is kept as a spare
_spares: list[np.ndarray] = []  # the buffers of the last two such outputs, oldest first
_SPARES_LOCK = threading.Lock()  # held while a spare is looked for: no two threads take one
# the reference count of a spare that nothing else refers to, read the way `_spare` reads it
_ALONE = next(map(sys.getrefcount, [np.empty(0)]))


@dataclass(frozen=True)
class GatePlacement:
    """Control/target qubit slots (1-based) a two-qubit gate occupies, kept as ints."""

    control: int
    target: int

    def __post_init__(self) -> None:
        for name in ("control", "target"):
            value = getattr(self, name)
            object.__setattr__(self, name, _integer(
                value, f"qubit slots must be integers, got {name}={value!r}"))
        if self.control < 1 or self.target < 1:
            raise ValueError("qubit slots are 1-based")
        if self.control == self.target:
            raise ValueError("control and target must be distinct")


class StateVector:
    """Normalized n-qubit amplitude vector, immutable after construction: the private
    bounds it keeps on its exact |psi|^2 hold because its amplitudes are a read-only view
    of a read-only array, which numpy refuses to make writeable."""

    __slots__ = ("amplitudes", "n_qubits", "_norm_range")

    def __init__(self, amplitudes, *, _owned: bool = False, _norm_sq: float | None = None,
                 _norm_range: tuple[float, float] = (0.0, math.inf)) -> None:
        # _owned: a complex array just built here, adopted uncopied; _norm_sq: a |psi|^2 known
        # without a sum, or a bound within _NORM_TOL / 2 of 1; _norm_range: its proved bounds
        amps = amplitudes if _owned else np.array(amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError("amplitudes must form a one-dimensional array")
        size = amps.size
        n = size.bit_length() - 1
        if size < 2 or size != 1 << n:
            raise ValueError("amplitude count must be a power of two, at least 2")
        if n > MAX_QUBITS:
            raise ValueError(f"dense representation is capped at {MAX_QUBITS} qubits")
        if _norm_sq is None:  # summed in apply_cphase's blocks, in order: one bound for both
            block, _norm_sq = min(_BLOCK, max(size >> 4, 1)), 0.0
            for start in range(0, size, block):  # `sum` would compensate on Python 3.12
                _norm_sq += np.vdot(amps[start:start + block], amps[start:start + block]).real
            _norm_range = _bounds(_norm_sq, block + size // block)
        if not abs(_norm_sq - 1.0) <= _NORM_TOL:  # fails closed on NaN
            raise ValueError(f"state is not normalized: |psi|^2 = {float(_norm_sq)!r}")
        amps.flags.writeable = False  # kept as a view: numpy lets no view of it be made writeable
        self.amplitudes, self.n_qubits, self._norm_range = amps.view(), n, _norm_range

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def _bounds(norm_sq: float, terms: int) -> tuple[float, float]:
    """Bounds on a float sum's exact value, given its error is at most (terms - 1) * 2^-52."""
    return norm_sq * (1 - terms * 2.0 ** -52), norm_sq * (1 + terms * 2.0 ** -52)


def _check_qubit_count(n_qubits: int, least: int = 2) -> int:
    """An integer, not a bool, from `least` (2 for a gate, 1 for a state) to MAX_QUBITS."""
    return _integer(n_qubits, f"n_qubits must lie in {least}..{MAX_QUBITS}", least, MAX_QUBITS)


def uniform_superposition(n_qubits: int) -> StateVector:
    """Hadamard-on-every-qubit state: all 2^n amplitudes equal to 2^(-n/2), held as one
    read-only amplitude broadcast with stride 0: O(1) memory, and not C-contiguous."""
    n_qubits = _check_qubit_count(n_qubits, 1)
    amp = 1.0 / math.sqrt(2 ** n_qubits)
    norm_sq = 2.0 ** n_qubits * amp * amp  # rounded once, by at most 2^-53 of it
    base = np.array([amp], dtype=complex)
    base.flags.writeable = False  # numpy lets a view be made writeable if its base is
    return StateVector(np.broadcast_to(base, 1 << n_qubits), _owned=True,
                       _norm_sq=norm_sq, _norm_range=_bounds(norm_sq, 2))


def _check_placement(placement: GatePlacement, n_qubits: int) -> None:
    if not isinstance(placement, GatePlacement):
        raise ValueError(f"placement must be a GatePlacement, got {placement!r}")
    if placement.control > n_qubits or placement.target > n_qubits:
        raise ValueError(
            f"placement {placement} is out of range for {n_qubits} qubits")


def _agreement(placement: GatePlacement, n_qubits: int, block: int) -> tuple[np.ndarray, ...]:
    """The one test of the gate and the phase classes: whether the placed bits agree at each
    offset of a block of `block` indices (a power of two up to 2^n), and at each block's
    first index. The two share no bit, so index s + o agrees where the answers are equal."""
    _check_placement(placement, n_qubits)
    n, c, t = n_qubits, placement.control, placement.target
    return tuple(bit_at(at, c, n) == bit_at(at, t, n)
                 for at in (np.arange(block), np.arange(0, 1 << n, block)))


def apply_cphase(state: StateVector, gate: DiagonalTwoQubitGate,
                 placement: GatePlacement) -> StateVector:
    """Apply a diagonal (a, b, b, a) gate on the given control/target pair.

    Amplitudes whose control and target bits agree are scaled by the gate's equal-bits factor,
    the rest by the unequal-bits factor. Norm is preserved and gates on disjoint placements
    commute. The gate only multiplies: its output's constructor sums |amp|^2 when the bounds
    carried through the factors leave _NORM_TOL / 2 of 1. As that sum errs by under 4e-12, a
    skipped sum would have accepted too: each outcome is that of a sum after every gate.
    """
    amps = state.amplitudes
    block = min(_BLOCK, max(amps.size >> 4, 1))  # the factors stay within 1/8 of the state
    within, firsts = _agreement(placement, state.n_qubits, block)
    eq, ne = gate.equal_bits_factor, gate.unequal_bits_factor
    factors = np.where(within, eq, ne), np.where(within, ne, eq)  # a block's first bits agree, differ
    (lo, hi), scales = state._norm_range, (abs(eq) ** 2, abs(ne) ** 2)
    lo, hi = lo * min(scales) * (1 - _GATE_SLACK), hi * max(scales) * (1 + _GATE_SLACK)
    out = np.empty_like(amps) if amps.size < _SPARE_MIN else _spare(amps)
    for start, same in zip(range(0, amps.size, block), firsts.tolist()):
        part = out[start:start + block]  # amplitudes first: with FMA the order sets the last bit
        np.multiply(amps[start:start + block], factors[not same], out=part)
    kept = 1 - _NORM_TOL / 2 <= lo <= hi <= 1 + _NORM_TOL / 2  # fails closed on NaN
    return StateVector(out, _owned=True, _norm_sq=hi if kept else None, _norm_range=(lo, hi))


def _spare(amps: np.ndarray) -> np.ndarray:
    """A writeable buffer for a gate's output on `amps`: the oldest spare of
    that size that nothing else refers to, or else a new one; either way it
    becomes the newest spare."""
    with _SPARES_LOCK:
        free = [at for at, refs in enumerate(map(sys.getrefcount, _spares))
                if refs == _ALONE and _spares[at].size == amps.size]
        out = _spares.pop(free[0]) if free else np.empty_like(amps)
        _spares.append(out)
        del _spares[:-2]
    out.flags.writeable = True
    return out


def concurrence(state: StateVector) -> float:
    """Pure-state concurrence 2*|a00*a11 - a01*a10| of a two-qubit state."""
    if state.n_qubits != 2:
        raise ValueError("concurrence requires exactly two qubits")
    a = state.amplitudes
    value = 2.0 * abs(a[0] * a[3] - a[1] * a[2])
    # unit-norm states bound this by 1 up to roundoff
    return min(value, 1.0)


def extract_phase_classes(state: StateVector,
                          tolerance: float = 1e-9) -> list[frozenset[int]]:
    """Group basis indices whose amplitudes coincide within `tolerance`, by peeling.

    Indices with amplitude within `tolerance` of zero are left out. Each class is every
    remaining index within `tolerance` of the first remaining one's amplitude, found in one
    array pass before its indices leave: k classes cost O(k 2^n). These are the classes of a
    greedy scan in ascending index order against each class's first member, ordered by their
    smallest member, and unambiguous when distinct amplitudes lie over 2 * tolerance apart.
    Distances are `np.hypot` of the parts: C `hypot`, as Python's `abs(complex)` is.
    """
    if isinstance(tolerance, bool) or not 0 < tolerance < math.inf:  # NaN compares false
        raise ValueError("tolerance must be positive")
    amps, classes = state.amplitudes, []
    left = np.flatnonzero(np.hypot(amps.real, amps.imag) > tolerance)
    while left.size:
        gaps = amps[left] - amps[left[0]]
        near = np.hypot(gaps.real, gaps.imag) <= tolerance
        classes.append(frozenset(left[near].tolist()))
        left = left[~near]
    return classes


def _state_blocks(state: StateVector) -> Iterator[str]:
    """The text of `state_to_text`, header first, in blocks."""
    n = state.n_qubits
    yield f"n={n}\n"
    amps = state.amplitudes
    for start, block in zip(range(0, amps.size, _TEXT_BLOCK), row_blocks(amps)):
        yield table_text([*label_fields(np.arange(start, start + len(block)), n), " ",
                          (float_tokens(block.real), None), " ", (float_tokens(block.imag), None),
                          "\n"])


def state_to_text(state: StateVector) -> str:
    """Serialize as `n=<int>` then one `<bits> <re> <im>` line per basis index.

    Lines end in a bare newline, come in index order, and print both parts
    as `'%.17g' % x` does, so `state_from_text` reads back the same bits.
    The parts are laid out as byte tables (`bits.float_tokens`): 17 digits
    taken exactly from each double's bits, or from `'%.17g'` itself for the
    rows whose last digit that cannot settle (within 2^-30 of a rounding
    tie) and for zeros and subnormals.
    """
    return "".join(_state_blocks(state))


def state_from_text(text: str) -> StateVector:
    """Parse the `state_to_text` format; every basis index must appear exactly once.

    Lines may come in any order, blank lines are skipped, and any whitespace
    separates the three fields. Lines break where `str.splitlines` breaks
    them, and the parts are read in `float()`'s grammar without `_` or
    non-ASCII digits. Each part is stored as parsed, so a `-0` keeps its sign.
    The text is read `_READ_BLOCK` characters at a time (`_read_state`).
    """
    return _read_state(text[at:at + _READ_BLOCK] for at in range(0, len(text), _READ_BLOCK))


def _read_state_file(path: str) -> StateVector:
    """`state_from_text` of a file's UTF-8 text, read `_READ_BLOCK` bytes at a time."""
    with open(path, "rb") as file:
        return _read_state(_utf8_text(path, iter(lambda: file.read(_READ_BLOCK), b"")))


def _utf8_text(path: str, reads: Iterable[bytes]) -> Iterator[str]:
    """The reads of `--input <path>` decoded as UTF-8; a refused byte names its file offset."""
    decoder, read = codecs.getincrementaldecoder("utf-8")(), 0
    for data in itertools.chain(reads, [b""]):  # b"": the end, where no byte may be held
        read += len(data)
        try:
            text = decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:  # its object: the bytes held back, then data
            at = read - len(exc.object) + exc.start
            raise ValueError(f"--input {path}: byte 0x{exc.object[exc.start]:02x} at offset "
                             f"{at} is not UTF-8 ({exc.reason})") from None
        yield text


def _read_state(chunks: Iterable[str]) -> StateVector:
    """The state that the text of `chunks` spells, one block of whole lines at a time.

    Each block is laid out as a uint8 array, cut into tokens and counted
    line by line from where its whitespace bytes are (`bits._tokens`). The
    first nonblank line is the header; the others must hold three tokens
    each, whose bit strings go to `bits.indices_of` and whose numbers go to
    `bits._float_values`. The first fault of each kind is kept and raised
    once the text is read, in the order header, line count, malformed line
    (a field count, then a number), malformed bit string, duplicate index,
    normalization.
    """
    reader = _StateReader()
    for text, stop in _line_blocks(chunks):
        reader.read(text, stop)
    return reader.state()


class _StateReader:
    """The state of `_read_state` between blocks: the header's n, the
    amplitudes and index counts so far, the amplitude line count, and the
    first fault of each kind (field count, number, bit string)."""

    def __init__(self) -> None:
        self.n = 0
        self.lines = 0
        self.faults: list[str | None] = [None, None, None]

    def read(self, text: str, stop: int) -> None:
        """Read the lines of `text[:stop]`."""
        buffer, starts, ends, per_line = _tokens(text, stop)

        def written(first: int, last: int) -> str:  # tokens first..last, as in the text
            return text[starts[first] - _PAD:ends[last] - _PAD]

        first = 0  # tokens of the header line, which this block may begin with
        if not self.n and starts.size:
            line = int(np.flatnonzero(per_line)[0])
            first, per_line[line] = int(per_line[line]), 0
            self._header(written(0, first - 1))
        lines = per_line != 0
        self.lines += int(np.count_nonzero(lines))
        wrong = np.flatnonzero(lines & (per_line != 3))
        if wrong.size:
            at = first + int(per_line[:wrong[0]].sum())
            line = written(at, at + int(per_line[wrong[0]]) - 1)
            self._fault(0, f"malformed amplitude line {line!r}")
        if wrong.size or self.faults[0] or starts.size == first:
            return
        fields = starts[first:].reshape(-1, 3), ends[first:].reshape(-1, 3)
        index = _bit_strings(buffer, fields[0][:, 0], fields[1][:, 0], self.n)
        values, parsed = _float_values(buffer, fields[0][:, 1:].ravel(), fields[1][:, 1:].ravel())
        if not parsed.all():
            at = first + np.flatnonzero(~parsed)[0] // 2 * 3
            self._fault(1, f"malformed amplitude line {written(at, at + 2)!r}")
        valid = index >= 0
        if not valid.all():
            at = first + np.flatnonzero(~valid)[0] * 3
            self._fault(2, f"malformed bit string {written(at, at)!r}")
            index, values = index[valid], values.reshape(-1, 2)[valid].ravel()
        self.amps.real[index] = values[0::2]
        self.amps.imag[index] = values[1::2]
        np.add.at(self.counts, index, np.uint32(1))

    def _header(self, first: str) -> None:
        header = _HEADER.match(first)
        if header is None:
            raise ValueError(f"expected 'n=<int>' header, got {first!r}")
        n = self.n = _integer(int(header.group(1)), f"qubit count must lie in 1..{MAX_QUBITS}",
                              1, MAX_QUBITS)
        self.amps = np.empty(1 << n, dtype=complex)
        self.counts = np.zeros(1 << n, dtype=np.uint32)

    def _fault(self, kind: int, message: str) -> None:
        self.faults[kind] = self.faults[kind] or message

    def state(self) -> StateVector:
        if not self.n:
            raise ValueError("empty state text")
        size = 1 << self.n
        if self.lines != size:
            raise ValueError(f"expected {size} amplitude lines, got {self.lines}")
        fault = next(filter(None, self.faults), None)
        if fault is not None:
            raise ValueError(fault)
        repeated = int(self.counts.argmax())
        if self.counts[repeated] > 1:
            raise ValueError(f"duplicate basis index {bitstring(repeated, self.n)!r}")
        return StateVector(self.amps, _owned=True)
