"""Shared oracles for the test suite, independent of the library internals."""
import functools
import itertools
import math
import re
from collections import deque
from fractions import Fraction
from math import gcd, lcm

import numpy as np


def dense_cphase_matrix(n, control, target, phi1, phi2):
    """Full 2^n x 2^n operator from a Kronecker product plus an explicit
    qubit permutation; no amplitude-selection shortcuts."""
    gate = np.diag([np.exp(1j * phi1), np.exp(1j * phi2),
                    np.exp(1j * phi2), np.exp(1j * phi1)])
    op = np.kron(gate, np.eye(2 ** (n - 2), dtype=complex))
    order = [control, target] + [q for q in range(1, n + 1)
                                 if q not in (control, target)]
    dim = 2 ** n
    perm = np.zeros((dim, dim))
    for x in range(dim):
        bits = [(x >> (n - q)) & 1 for q in range(1, n + 1)]
        y = 0
        for q in order:
            y = (y << 1) | bits[q - 1]
        perm[y, x] = 1.0
    return perm.T @ op @ perm


def reference_cphase(amps, n, control, target, equal_factor, unequal_factor):
    """Controlled-phase by selecting factors on shifted index bits."""
    idx = np.arange(amps.size)
    control_bits = (idx >> (n - control)) & 1
    target_bits = (idx >> (n - target)) & 1
    # a named temporary: numpy may not elide it and swap the operands of the
    # product, which changes the last bit of complex products on FMA hardware
    factors = np.where(control_bits == target_bits, equal_factor, unequal_factor)
    return amps * factors


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


def reference_phase_classes(state, tolerance=1e-9):
    """The phase classes as a greedy scan finds them: indices in ascending order, each
    joining the first class whose first member's amplitude lies within `tolerance`
    (Python's `abs`), amplitudes within `tolerance` of zero left out."""
    members: list[list[int]] = []
    reps: list[complex] = []
    for index, amp in enumerate(state.amplitudes):
        value = complex(amp)
        if abs(value) <= tolerance:
            continue
        for k, rep in enumerate(reps):
            if abs(value - rep) <= tolerance:
                members[k].append(index)
                break
        else:
            members.append([index])
            reps.append(value)
    return [frozenset(group) for group in members]


def exact_norm_sq(amps):
    """The exact sum of |amp|^2 over complex doubles, as a Fraction: each part
    is p / 2^k, so the squares are summed as integers over the largest 4^k."""
    parts = [x.as_integer_ratio() for z in amps.tolist() for x in (z.real, z.imag)]
    scale = max(q for _, q in parts) ** 2
    return Fraction(sum(p * p * (scale // (q * q)) for p, q in parts), scale)


def reference_state_text(amps):
    """The state file text written one line at a time, index by index."""
    n = len(amps).bit_length() - 1
    lines = [f"n={n}"]
    for x, amp in enumerate(amps):
        re, im = float(amp.real), float(amp.imag)
        lines.append(f"{x:0{n}b} {re:.17g} {im:.17g}")
    return "\n".join(lines) + "\n"


def reference_state_from_text(text):
    """The amplitudes of a state file, read as the line list and `np.loadtxt`
    reader did before the byte-table reader; a ValueError where the text is
    not a state, with that reader's message."""
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise ValueError("empty state text")
    first = lines.pop(0).strip()
    header = re.match(r"n=([0-9]+)$", first)
    if header is None:
        raise ValueError(f"expected 'n=<int>' header, got {first!r}")
    n = int(header.group(1))
    if not 1 <= n <= 24:
        raise ValueError("qubit count must lie in 1..24")
    size = 1 << n
    if len(lines) != size:
        raise ValueError(f"expected {size} amplitude lines, got {len(lines)}")
    try:
        rows = np.loadtxt(lines, comments=None, dtype=[
            ("bits", f"S{n + 1}"), ("re", float), ("im", float)])
    except ValueError as exc:
        wrong = next((line for line in lines if len(line.split()) != 3), None)
        raise ValueError(f"malformed amplitude line {wrong.strip()!r}" if wrong is not None
                         else f"malformed amplitude line: {exc}") from None
    index = []
    for line, bits in zip(lines, rows["bits"].tolist()):  # trailing NULs dropped
        if len(bits) != n or not set(bits) <= set(b"01"):
            raise ValueError(f"malformed bit string {line.split()[0]!r}")
        index.append(int(bits, 2))
    counts = np.bincount(index, minlength=size)
    repeated = int(counts.argmax())
    if counts[repeated] > 1:
        raise ValueError(f"duplicate basis index {format(repeated, f'0{n}b')!r}")
    amps = np.empty(size, dtype=complex)
    amps.real[index] = rows["re"]
    amps.imag[index] = rows["im"]
    norm_sq = float(np.vdot(amps, amps).real)
    if not abs(norm_sq - 1.0) <= 1e-9:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
    return amps


def hypercube_edges(m):
    """Edges of Q_m as (low, high) pairs."""
    return {(v, v | (1 << b)) for v in range(1 << m)
            for b in range(m) if not v & (1 << b)}


@functools.cache
def power_of_ten_row(q):
    """(hi, lo, exp) with 10^q = (hi + lo) * 2^exp and 1 <= hi < 2 as a real
    number, hi the double nearest it and lo the double nearest the rest."""
    ten, exp = Fraction(10) ** q, 0
    while Fraction(2) ** exp > ten:
        exp -= 1
    while Fraction(2) ** (exp + 1) <= ten:
        exp += 1
    mantissa = ten / Fraction(2) ** exp
    hi = float(mantissa)
    return hi, float(mantissa - Fraction(hi)), exp


def decade_row(e):
    """Of the binade 2^e: its decade k, 10^k <= 2^e < 10^(k+1) (from the digit
    count of 2^e or 5^-e), the bits of the least double >= 10^(k+1), and for
    X = k and k + 1 the hi and lo of 10^(16 - X) times 2^(exp + e - 52)."""
    k = len(str(2 ** e)) - 1 if e >= 0 else len(str(5 ** -e)) - 1 + e
    ten = Fraction(10) ** (k + 1)
    least = float(ten)
    least = least if Fraction(least) >= ten else math.nextafter(least, math.inf)
    scaled = []
    for x in (k, k + 1):
        hi, lo, exp = power_of_ten_row(16 - x)
        scaled += [float(Fraction(part) * Fraction(2) ** (exp + e - 52)) for part in (hi, lo)]
    return (k, int(np.float64(least).view(np.uint64)), *scaled)


def cube_match_oracle(n, target, vertices, edges):
    """Expected (is_isomorphic, failure) of matching a class graph on n-bit
    indices against Q_(n-1): relabel each vertex by deleting the target
    character of its bit string, then compare edge sets."""
    m = n - 1

    def relabel(v):
        s = format(v, f"0{n}b")
        return int(s[:target - 1] + s[target:], 2)

    if sorted(relabel(v) for v in set(vertices)) != list(range(2 ** m)):
        return False, "relabeling is not a bijection onto the (n-1)-bit strings"
    mapped = {tuple(sorted((relabel(u), relabel(v)))) for u, v in edges}
    cube = hypercube_edges(m)
    extra, missing = len(mapped - cube), len(cube - mapped)
    if extra or missing:
        return False, f"edge sets differ after relabeling: {extra} extra, {missing} missing"
    return True, None


def bfs_connected(vertices, edges):
    """Whether the edges join every one of the distinct vertices, by
    breadth-first search over a dict of neighbour lists; the graph with no
    vertex is connected."""
    if not vertices:
        return True
    adjacency = {v: [] for v in vertices}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {vertices[0]}
    queue = deque(seen)
    while queue:
        for u in adjacency[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(adjacency)


def xnor_class(n, control, target, agree):
    """String-indexing oracle for the phase classes."""
    out = set()
    for x in range(1 << n):
        s = format(x, f"0{n}b")
        if (s[control - 1] == s[target - 1]) == agree:
            out.add(x)
    return out


def rational_rref(rows):
    """Reduced row echelon form over the rationals, by Gauss-Jordan on
    Fractions: (pivot columns, rows with each pivot scaled to 1)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = next((r for r in range(len(pivots), len(m)) if m[r][col] != 0), None)
        if r is None:
            continue
        top = len(pivots)
        m[top], m[r] = m[r], m[top]
        m[top] = [x / m[top][col] for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(col)
    return pivots, m


def coprime_direction(vec):
    """Positive multiple of a nonzero rational vector with coprime integer entries."""
    den = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = gcd(*ints)
    return tuple(i // g for i in ints)


def cone_oracle(d, gens, point):
    """Expected (is_simplicial, contains, dual) for the cone over the distinct
    nonzero integer generators `gens` in dimension d. `contains` and `dual`
    are exception types where the library must raise: NonSimplicialCone is
    given as "dependent" and NotFullDimensional as "not full"."""
    k = len(gens)
    simplicial = len(rational_rref(gens)[0]) == k
    if not gens:
        contains = all(c == 0 for c in point)
    elif not simplicial:
        contains = "dependent"
    else:
        pivots, m = rational_rref([[g[i] for g in gens] + [point[i]] for i in range(d)])
        # a pivot in the last column means the point is off the span
        contains = k not in pivots and all(m[j][k] >= 0 for j in range(k))
    if not simplicial:
        dual = "dependent"
    elif k != d:
        dual = "not full"
    else:
        _, m = rational_rref([list(g) + [int(i == j) for j in range(d)]
                              for i, g in enumerate(gens)])
        dual = tuple(coprime_direction([m[i][d + c] for i in range(d)])
                     for c in range(d))
    return simplicial, contains, dual


def reference_partition_text(n, control, target):
    """The partition text written one line at a time: each class lists the
    bit strings whose control and target characters agree (or differ)."""
    labels = [format(x, f"0{n}b") for x in range(2 ** n)]
    lines = [f"n={n} control={control} target={target}"]
    for name, agree in (("phi1", True), ("phi2", False)):
        members = [s for s in labels if (s[control - 1] == s[target - 1]) == agree]
        lines.append(name + ":" + "".join(f" {s}" for s in members))
    return "\n".join(lines) + "\n"


def reference_dot_text(n, control, target):
    """The DOT text written one line at a time: a node per bit string in
    ascending order, a cube edge per string and '0' character turned to '1'
    (right to left), then the dashed control-target flips of each class."""
    colors = {True: "#1f77b4", False: "#d62728"}  # by agreement

    def agree(s):
        return s[control - 1] == s[target - 1]

    def flip(s, *positions):
        chars = list(s)
        for p in positions:
            chars[p] = "1" if chars[p] == "0" else "0"
        return "".join(chars)

    labels = [format(x, f"0{n}b") for x in range(2 ** n)]
    lines = [f'graph "partition_n{n}_c{control}_t{target}" {{',
             '  node [shape=circle, style=filled, fontname="monospace"];']
    lines += [f'  "{s}" [fillcolor="{colors[agree(s)]}"];' for s in labels]
    lines += [f'  "{s}" -- "{flip(s, p)}";'
              for s in labels for p in reversed(range(n)) if s[p] == "0"]
    for wanted in (True, False):
        for s in labels:
            other = flip(s, control - 1, target - 1)
            if agree(s) == wanted and s < other:
                lines.append(f'  "{s}" -- "{other}" [style=dashed, color="{colors[wanted]}"];')
    return "\n".join(lines + ["}"]) + "\n"


def reference_fan_text(dimension, rays, cones):
    """`fan_to_text` written line by line from rays and cone generator tuples."""
    lines = [f"dim={dimension}"]
    lines += ["ray" + "".join(f" {c}" for c in ray) for ray in rays]
    lines += ["cone" + "".join(f" {list(rays).index(g)}" for g in gens) for gens in cones]
    return "\n".join(lines) + "\n"


def reference_polytope_text(dimension, vertices):
    """`polytope_to_text` written line by line from distinct vertices."""
    lines = [f"dim={dimension}"] + ["vertex" + "".join(f" {c}" for c in v) for v in vertices]
    return "\n".join(lines) + "\n"


def reference_fan_stdout(n):
    """The stdout of `fan --n <n>`: its charts by number of inverted slots,
    then by the inverted slots in lexicographic order, then the text of the
    orthant fan (rays +e_k, then -e_k) and of the unit cube."""
    inverted = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
    charts = ["chart" + "".join(f" z{k + 1}^-1" if k in inv else f" z{k + 1}" for k in range(n))
              for inv in inverted]
    rays = [tuple(sign * int(i == k) for i in range(n)) for sign in (1, -1) for k in range(n)]
    cones = [tuple(rays[n + k] if k in inv else rays[k] for k in range(n)) for inv in inverted]
    vertices = [tuple(int(ch) for ch in format(x, f"0{n}b")) for x in range(2 ** n)]
    return (f"dim={n}\n" + "".join(line + "\n" for line in charts)
            + reference_fan_text(n, rays, cones).split("\n", 1)[1]
            + reference_polytope_text(n, vertices).split("\n", 1)[1])
