"""Output oracles for the benchmark, independent of the toricgate code.

Each checker returns None when the output is right and a short reason when
it is not. Nothing here imports toricgate: the phases, bit tests, parsers
and expected texts are written out again from the package's documented
formats and formulas.
"""
from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import math
from typing import Iterable

import numpy as np

TOL = 1e-12
_CHUNK = 16384

# SHA-256 of outputs recorded at the commit that introduced the benchmark.
# DOT renders use control 1, target 2.
DIGESTS = {
    ("dot", 3): "d2ccb954180410db1b660a9cc6458ccce0d07507139b0aaabae0e184d7714725",
    ("dot", 15): "cd6c66a670c13c08460ccfc99c1c1c1590a4913f9ef4e2663a176d94479ad190",
    ("fan", 3): "9b5af343f84c70524a81e0f80048698d5fa739dab1462fd86895a64c70e35361",
    ("fan", 13): "2518beb17c364708b7aea6a4a0886d4fb1bf6e60a702aec2161b1e8b3b4579b8",
}


def drive_phases(drive: dict) -> dict[str, float]:
    """Berry phases of one drive loop: cos(theta+-) = d+- / sqrt(d+-^2 + omega1^2)
    with d+- = omega_i +- pi*J - omega, gamma+- = -+pi*(1 - cos(theta+-)),
    shift = gamma+ + gamma-, phi1 = 2*shift = -phi2."""
    pi_j = math.pi * drive["j"]
    out = {}
    for sign, name in ((1.0, "plus"), (-1.0, "minus")):
        detuning = drive["omega_i"] + sign * pi_j - drive["omega"]
        out[f"cos_theta_{name}"] = detuning / math.sqrt(detuning ** 2
                                                        + drive["omega1"] ** 2)
    out["gamma_plus"] = -math.pi * (1.0 - out["cos_theta_plus"])
    out["gamma_minus"] = math.pi * (1.0 - out["cos_theta_minus"])
    out["shift"] = out["gamma_plus"] + out["gamma_minus"]
    out["phi1"] = 2.0 * out["shift"]
    out["phi2"] = -out["phi1"]
    return out


def gate_factors(gate: dict) -> tuple[complex, complex]:
    """(factor where control and target bits agree, factor where they differ)."""
    if "phi1" in gate:
        phi1, phi2 = gate["phi1"], -gate["phi1"]
    else:
        phases = drive_phases(gate["drive"])
        phi1, phi2 = phases["phi1"], phases["phi2"]
    return cmath.exp(1j * phi1), cmath.exp(1j * phi2)


def _agree(x: int, n: int, control: int, target: int) -> bool:
    return (x >> (n - control)) & 1 == (x >> (n - target)) & 1


class SampledCircuit:
    """Amplitudes at seeded indices after each gate, by a pure-Python phase
    product over the gates applied so far."""

    def __init__(self, n: int, gates: list[dict], samples: list[int]) -> None:
        self.n = n
        self.samples = np.array(samples, dtype=np.int64)
        amp = 2.0 ** (-n / 2)
        expected, current = [], [complex(amp)] * len(samples)
        for gate in gates:
            equal, unequal = gate_factors(gate)
            current = [a * (equal if _agree(x, n, gate["control"], gate["target"])
                            else unequal)
                       for a, x in zip(current, samples)]
            expected.append(np.array(current))
        self.expected = expected

    def check(self, k: int, amplitudes: np.ndarray, final: bool) -> str | None:
        if amplitudes.shape != (1 << self.n,):
            return f"state has shape {amplitudes.shape}"
        err = float(np.max(np.abs(amplitudes[self.samples] - self.expected[k])))
        if not err <= TOL:
            return f"sampled amplitudes off by {err:.3g} after gate {k}"
        if final:
            norm = float(np.vdot(amplitudes, amplitudes).real)
            if not abs(norm - 1.0) <= TOL:
                return f"final norm^2 is {norm!r}"
        return None


def parse_state(lines: Iterable[str], n: int) -> np.ndarray:
    """Amplitudes of a state file given as lines (an open file), read in
    chunks so that the check adds little to the worker's memory.

    Raises ValueError naming the first defect: header, line count, basis
    order or a line that is not `<bits> <re> <im>`.
    """
    stream = iter(lines)
    header = next(stream, "")
    if header != f"n={n}\n":
        raise ValueError(f"header {header!r}, expected 'n={n}'")
    size = 1 << n
    amps = np.empty(size, dtype=complex)
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        block = list(itertools.islice(stream, stop - start))
        if len(block) != stop - start or not block[-1].endswith("\n"):
            raise ValueError(f"{1 + start + len(block)} lines, expected {1 + size}")
        tokens = "".join(block).split()
        if len(tokens) != 3 * (stop - start):
            raise ValueError(f"lines {start + 2}..{stop + 1} are not '<bits> <re> <im>'")
        if tokens[0::3] != [format(x, f"0{n}b") for x in range(start, stop)]:
            raise ValueError(f"basis strings out of order in lines {start + 2}..{stop + 1}")
        amps.real[start:stop] = np.array(tokens[1::3], dtype=float)
        amps.imag[start:stop] = np.array(tokens[2::3], dtype=float)
    if next(stream, ""):
        raise ValueError(f"more than {1 + size} lines")
    return amps


def apply_gate(amps: np.ndarray, gate: dict) -> np.ndarray:
    """numpy oracle for one gate: scale by the agree/differ factor per index."""
    n = amps.size.bit_length() - 1
    idx = np.arange(amps.size)
    agree = ((idx >> (n - gate["control"])) & 1) == ((idx >> (n - gate["target"])) & 1)
    equal, unequal = gate_factors(gate)
    return amps * np.where(agree, equal, unequal)


def check_state(lines: Iterable[str], expected: np.ndarray) -> str | None:
    n = expected.size.bit_length() - 1
    try:
        amps = parse_state(lines, n)
    except ValueError as exc:
        return str(exc)
    err = float(np.max(np.abs(amps - expected)))
    return None if err <= TOL else f"amplitudes off by {err:.3g}"


def check_concurrence(stdout: str, pair: np.ndarray) -> str | None:
    a = pair
    expected = min(2.0 * abs(a[0] * a[3] - a[1] * a[2]), 1.0)
    try:
        value = float(stdout)
    except ValueError:
        return f"concurrence output {stdout[:40]!r} is not a number"
    return None if abs(value - expected) <= TOL else f"concurrence {value!r} != {expected!r}"


_GATE_KEYS = {"cos_theta_plus", "cos_theta_minus", "theta_plus", "theta_minus",
              "gamma_plus", "gamma_minus", "shift", "phi1", "phi2"}


def check_gate_json(stdout: str, drive: dict) -> str | None:
    try:
        data = json.loads(stdout)
    except ValueError:
        return "gate --json output is not JSON"
    if set(data) != _GATE_KEYS:
        return f"gate --json keys {sorted(data)}"
    for key, value in drive_phases(drive).items():
        if not abs(data[key] - value) <= TOL:
            return f"gate {key} = {data[key]!r}, expected {value!r}"
    return None


def partition_text(n: int, control: int, target: int) -> str:
    """Expected `partition --check-hypercube` output from the bit-agreement
    rule; each class is a Q_(n-1) and 2^n ambient edges cross between them."""
    classes = {True: [], False: []}
    for x in range(1 << n):
        classes[_agree(x, n, control, target)].append(format(x, f"0{n}b"))
    return (f"n={n} control={control} target={target}\n"
            f"phi1: {' '.join(classes[True])}\n"
            f"phi2: {' '.join(classes[False])}\n"
            f"phi1 isomorphic to Q{n - 1}: yes\n"
            f"phi2 isomorphic to Q{n - 1}: yes\n"
            f"crossing edges: {1 << n}\n")


def check_text(got: str, expected: str) -> str | None:
    if got == expected:
        return None
    got_lines, want_lines = got.splitlines(), expected.splitlines()
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {k + 1} differs: {a[:60]!r} != {b[:60]!r}"
    return f"{len(got_lines)} lines, expected {len(want_lines)}"


def check_digest(data: bytes, kind: str, n: int) -> str | None:
    digest = hashlib.sha256(data).hexdigest()
    want = DIGESTS[(kind, n)]
    return None if digest == want else f"{kind} n={n} sha256 {digest[:12]} != {want[:12]}"


def primitive(vec) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(v // g for v in vec)


def check_cone(generators: list[list[int]], dual_dual_generators, contains: list[bool],
               expected_contains: list[bool]) -> str | None:
    """Biduality (the dual of the dual has the original primitive rays) and
    the known membership answers."""
    got = {primitive(g) for g in dual_dual_generators}
    want = {primitive(g) for g in generators}
    if got != want:
        return "dual of the dual differs from the cone"
    if list(contains) != list(expected_contains):
        return f"membership {list(contains)}, expected {list(expected_contains)}"
    return None
