"""Seeded inputs for the three workloads.

Everything a run feeds the program comes from here and depends only on the
workload name, the seed and the size table, so the same seed gives the same
inputs. The cli-states state files are written by the benchmark itself, with
its own formatter, before any worker starts.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("circuit-24", "cli-states", "cube-fan")

# Full sizes are the measured workloads; tiny sizes drive the self-test.
SIZES = {
    "full": {
        "circuit-24": {"n": 24, "gates": 16, "samples": 4096},
        "cli-states": {"n": 17, "applies": 8},
        "cube-fan": {"partition_n": 16, "dot_n": 15, "svg_ns": (2, 3, 4),
                     "fan_n": 13, "cones": 200, "cone_dim": 8},
    },
    "tiny": {
        "circuit-24": {"n": 6, "gates": 4, "samples": 64},
        "cli-states": {"n": 4, "applies": 4},
        "cube-fan": {"partition_n": 4, "dot_n": 3, "svg_ns": (2, 3, 4),
                     "fan_n": 3, "cones": 5, "cone_dim": 3},
    },
}


def _drive(rng: random.Random) -> dict[str, float]:
    """Valid, non-degenerate drive: omega_i > omega_j and omega1 > 0."""
    return {"omega_i": rng.uniform(2.0, 4.0), "omega_j": rng.uniform(0.5, 1.5),
            "j": rng.uniform(-0.3, 0.3), "omega": rng.uniform(1.0, 5.0),
            "omega1": rng.uniform(0.1, 1.0)}


def _gates(rng: random.Random, n: int, count: int) -> list[dict]:
    """Even slots use --phi1, odd slots the five drive parameters."""
    gates = []
    for k in range(count):
        control, target = rng.sample(range(1, n + 1), 2)
        gate = {"control": control, "target": target}
        if k % 2 == 0:
            gate["phi1"] = rng.uniform(-math.pi, math.pi)
        else:
            gate["drive"] = _drive(rng)
        gates.append(gate)
    return gates


def _state_text(amps: np.ndarray) -> str:
    """The state file format: `n=<int>` then `<bits> <re> <im>` per index."""
    n = amps.size.bit_length() - 1
    lines = [f"n={n}"]
    lines += [f"{x:0{n}b} {a.real:.17g} {a.imag:.17g}"
              for x, a in enumerate(amps.tolist())]
    return "\n".join(lines) + "\n"


def _random_state(gen: np.random.Generator, n: int) -> np.ndarray:
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def _rank(rows: list[tuple[int, ...]]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _cones(rng: random.Random, count: int, dim: int) -> list[dict]:
    """Full-dimensional simplicial cones with primitive generators, plus two
    points inside (nonnegative combinations) and two outside (one coefficient
    -1); independence makes the coefficients unique, so the answers are known."""
    cones = []
    while len(cones) < count:
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
        if any(math.gcd(*g) != 1 for g in gens) or _rank(gens) != dim:
            continue
        points = []
        for inside in (True, True, False, False):
            coeffs = [rng.randint(0, 3) for _ in range(dim)]
            if inside:
                coeffs[rng.randrange(dim)] += 1
            else:
                coeffs[rng.randrange(dim)] = -1
            points.append([sum(c * g[i] for c, g in zip(coeffs, gens))
                           for i in range(dim)])
        cones.append({"generators": [list(g) for g in gens], "points": points,
                      "contains": [True, True, False, False]})
    return cones


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """JSON-ready inputs of one workload; input files are written to `workdir`."""
    sizes = SIZES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "circuit-24":
        n = sizes["n"]
        return {"n": n, "gates": _gates(rng, n, sizes["gates"]),
                "samples": [rng.randrange(1 << n) for _ in range(sizes["samples"])]}
    if workload == "cli-states":
        n = sizes["n"]
        gen = np.random.default_rng([seed, 17])
        files = {"state": _random_state(gen, n), "pair": _random_state(gen, 2)}
        for name, amps in files.items():
            (workdir / f"{name}.txt").write_text(_state_text(amps))
        bad = _state_text(_random_state(gen, 3)).splitlines(keepends=True)
        # a repeated basis line, and a file one amplitude line short
        (workdir / "bad-duplicate.txt").write_text("".join(bad[:2] + bad[1:-1]))
        (workdir / "bad-short.txt").write_text("".join(bad[:-1]))
        drive = _drive(rng)
        return {"n": n, "gates": _gates(rng, n, sizes["applies"]), "drive": drive}
    if workload == "cube-fan":
        n = sizes["partition_n"]
        control, target = rng.sample(range(1, n + 1), 2)
        return {"partition": {"n": n, "control": control, "target": target},
                "dot_n": sizes["dot_n"], "svg_ns": list(sizes["svg_ns"]),
                "fan_n": sizes["fan_n"],
                "cones": _cones(rng, sizes["cones"], sizes["cone_dim"])}
    raise ValueError(f"unknown workload {workload!r}")
