"""Exact lattice cones, their duals, and the chart/fan family of (P^1)^n.

Everything in this module runs on integers and `fractions.Fraction`; no
floating point enters any predicate, and dual cones are computed on
integers alone. One fraction-free integer elimination routine backs the
cone predicates: each cone reduces [G^T | I] with it once, for both its
membership test and its dual. It takes Bareiss steps over the whole
matrix, on int64 where a Hadamard bound of the input keeps every product in
range and on Python ints otherwise. One order-keeping dedup validates the
vectors of `Cone`, `Polytope` and `LaurentSupport`. Membership and duals are
implemented for simplicial cones (linearly independent generator sets),
which covers the signed orthants that make up the fan of an n-fold product
of projective lines together with their images under lattice automorphisms.

Each input is checked once, and what the module builds itself (the charts,
the product fan with its 2n validated ray tuples shared by every cone, the
moment polytope and dual cones) is adopted as built, not checked again.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bits import _adopt, _integer, bit_at, row_blocks, table_text, vocabulary

MAX_FACTORS = 16

IntVector = tuple[int, ...]


class NonSimplicialCone(ValueError):
    """Generator set is linearly dependent where independence is required."""


class NotFullDimensional(ValueError):
    """Cone does not span its ambient lattice."""


def _as_int_vector(vec: Sequence[int], dimension: int) -> IntVector:
    v = tuple(vec)
    if len(v) != dimension:
        raise ValueError(f"expected a vector of length {dimension}, got {v!r}")
    if all(type(c) is int for c in v):  # the common case: `_integer` returns these as they are
        return v
    return tuple(_integer(c, f"lattice coordinates must be exact integers, got {c!r}") for c in v)


def _coprime(ints: Sequence[int]) -> IntVector:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(ints) if g == 1 else tuple(i // g for i in ints)


def primitive_vector(vec: Sequence) -> IntVector:
    """Scale a nonzero rational vector by a positive factor to coprime integers.

    The direction is preserved: no sign normalization is applied. A coordinate
    that is a bool or a string, or no finite rational number, raises `ValueError`.
    """
    if any(isinstance(c, (bool, np.bool_)) for c in vec):
        raise ValueError(f"coordinates must be rational numbers, not bools, got {vec!r}")
    message = f"coordinates must be rational numbers, got {vec!r}"
    if any(isinstance(c, (str, bytes)) for c in vec):  # `Fraction` would parse a string
        raise ValueError(message)
    try:
        fracs = [Fraction(*c.as_integer_ratio()) if isinstance(c, np.floating) else Fraction(c)
                 for c in vec]  # Fraction reads a numpy float only if it is a Python float
    except (TypeError, OverflowError, ValueError):  # None, a complex, an infinity, a NaN
        raise ValueError(message) from None
    if all(f == 0 for f in fracs):
        raise ValueError("the zero vector has no primitive form")
    denom = lcm(*(int(f.denominator) for f in fracs))  # Fraction keeps a numpy integer's type
    return _coprime([int(f.numerator) * (denom // int(f.denominator)) for f in fracs])


def _distinct_vectors(owner, vectors: Iterable[Sequence[int]]) -> tuple[IntVector, ...]:
    """Store `owner.dimension`, an integer of at least 1, as an `int`; validate every
    vector, then drop repeats keeping first occurrences in order."""
    d = _integer(owner.dimension, "dimension must be at least 1", 1)
    object.__setattr__(owner, "dimension", d)
    return tuple(dict.fromkeys(_as_int_vector(v, d) for v in vectors))


@dataclass(frozen=True)
class Cone:
    """Convex cone of nonnegative combinations of integer generators.

    Duplicate generators and zero vectors are pruned at construction; the
    zero cone is the instance whose generator tuple is empty.
    """

    dimension: int
    generators: tuple[IntVector, ...]

    def __post_init__(self) -> None:
        gens = _distinct_vectors(self, self.generators)
        object.__setattr__(self, "generators", tuple(v for v in gens if any(v)))

    @property
    def primitive_generators(self) -> frozenset[IntVector]:
        """Generator directions reduced to coprime integer vectors."""
        return frozenset(primitive_vector(g) for g in self.generators)

    @cached_property
    def _functionals(self) -> tuple[IntVector, ...]:
        """R from one reduction of [G^T | I] to [D | R], D diagonal: row j < k,
        sign-fixed, takes a point of the span to a positive multiple of its
        coefficient on generator j, and the other rows vanish exactly on the span."""
        gens, k, d = self.generators, len(self.generators), self.dimension
        rank, m = _eliminate(([g[i] for g in gens] + [int(i == j) for j in range(d)]
                              for i in range(d)), k)
        if rank < k:
            raise NonSimplicialCone("generators are linearly dependent")
        return tuple(tuple(-x for x in row[k:]) if j < k and row[j] < 0 else tuple(row[k:])
                     for j, row in enumerate(m))


@dataclass(frozen=True)
class Polytope:
    """Lattice polytope given by its vertex list (deduplicated, order kept)."""

    dimension: int
    vertices: tuple[IntVector, ...]

    def __post_init__(self) -> None:
        verts = _distinct_vectors(self, self.vertices)
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        object.__setattr__(self, "vertices", verts)


@dataclass(frozen=True)
class LaurentSupport:
    """Exponent vectors carrying nonzero coefficients of a Laurent polynomial."""

    dimension: int
    exponents: tuple[IntVector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents",
                           _distinct_vectors(self, self.exponents))


@dataclass(frozen=True)
class Chart:
    """Affine coordinate patch on a product of projective lines.

    signs[k] = +1 keeps the k-th coordinate z_{k+1}; -1 swaps in its
    reciprocal.
    """

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        message = "chart signs must be +1 or -1"
        signs = tuple(_integer(s, message, -1, 1) for s in self.signs)
        if not signs:
            raise ValueError("a chart needs at least one factor")
        if 0 in signs:
            raise ValueError(message)
        object.__setattr__(self, "signs", signs)

    def tokens(self) -> tuple[str, ...]:
        """Coordinate tokens, e.g. ('z1', 'z2^-1')."""
        return tuple(f"z{k + 1}" if s == 1 else f"z{k + 1}^-1"
                     for k, s in enumerate(self.signs))

    def label(self) -> str:
        return "(" + ", ".join(self.tokens()) + ")"


@dataclass(frozen=True)
class Fan:
    """Rays plus maximal cones; here always the orthant fan of (P^1)^n."""

    dimension: int
    rays: tuple[IntVector, ...]
    maximal_cones: tuple[Cone, ...]

    def __post_init__(self) -> None:
        given = tuple(self.rays)
        rays = _distinct_vectors(self, given)
        if len(rays) != len(given):
            raise ValueError("rays must be distinct")
        ray_set = set(rays)
        if (0,) * self.dimension in ray_set:
            raise ValueError("rays must be nonzero")
        seen: set[frozenset[IntVector]] = set()
        for cone in self.maximal_cones:
            if not isinstance(cone, Cone):
                raise ValueError(f"maximal cones must be Cones, got {cone!r}")
            if cone.dimension != self.dimension:
                raise ValueError("maximal cone dimension mismatch")
            if len(cone.generators) != self.dimension:
                raise ValueError("maximal cones must have one generator per dimension")
            if not set(cone.generators) <= ray_set:
                raise ValueError("maximal cone generators must be rays of the fan")
            if not is_simplicial(cone):
                # independence also gives strong convexity for these cones
                raise ValueError("maximal cones must be simplicial")
            key = frozenset(cone.generators)
            if key in seen:
                raise ValueError("maximal cones must be pairwise distinct")
            seen.add(key)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "maximal_cones", tuple(self.maximal_cones))


# ---------------------------------------------------------------------------
# exact linear algebra on small integer matrices


def _eliminate(rows: Iterable[Sequence[int]], pivot_cols: int) -> tuple[int, list[list[int]]]:
    """Fraction-free Gauss-Jordan reduction on the first `pivot_cols` columns.

    Returns the rank and the reduced rows. Row j < rank holds the j-th pivot,
    and every other row is zero in that pivot's column; rows from the rank on
    are zero in all of the first `pivot_cols` columns. Each row is a nonzero
    multiple of its row in the rational reduction.

    A pivot with other rows to clear takes a Bareiss step (Bareiss 1968) over
    the whole matrix at once: (lead * m - outer(column, pivot row)) // prev,
    with the pivot row kept. Every entry is then an integer minor of the input
    and each division is exact. A pivot alone in its column does no arithmetic
    and keeps `prev`: by Sylvester's identity the other rows are still minors
    of the input with that row and column struck out. The matrix is int64 when
    the Hadamard bound of the rows keeps every product below 2^62, and Python
    ints otherwise.
    """
    if not (rows := list(rows)):
        return 0, []
    # every minor is at most the product of the row norms
    bound = prod(max(1, sum(map(mul, row, row))) for row in rows)
    m = np.array(rows, dtype=np.int64 if bound < 1 << 61 else object)
    rank, prev = 0, 1
    for col in range(pivot_cols):
        hits = m[:, col].nonzero()[0].tolist()
        i = bisect_left(hits, rank)
        if i == len(hits):
            continue
        pivot = hits[i]
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        if len(hits) > 1:
            top = m[rank].copy()
            lead = top[col]
            m = (lead * m - m[:, col, None] * top) // prev
            m[rank], prev = top, lead
        rank += 1
    return rank, m.tolist()


# ---------------------------------------------------------------------------
# cone predicates


def is_simplicial(cone: Cone) -> bool:
    """True when the generators are linearly independent over the rationals.

    The zero cone (no generators) counts as simplicial.
    """
    return _eliminate(cone.generators, cone.dimension)[0] == len(cone.generators)


def is_strongly_convex(cone: Cone) -> bool:
    """True when the cone contains no line through the origin.

    A line puts the negation of some generator in the cone. By Caratheodory,
    a point of the cone lies in the cone of a linearly independent subset of
    the generators, which extends to a basis of their span; so testing each
    such basis with `cone_contains` decides it exactly.
    """
    gens, d = cone.generators, cone.dimension
    rank = _eliminate(gens, d)[0]
    bases = (Cone(d, basis) for basis in itertools.combinations(gens, rank))
    return rank == len(gens) or not any(
        cone_contains(sub, tuple(-c for c in g))
        for sub in bases if is_simplicial(sub) for g in gens)


def cone_contains(cone: Cone, point: Sequence[int]) -> bool:
    """Exact membership: point is a nonnegative rational combination of the generators.

    Only simplicial cones are supported; dependent generator sets raise
    `NonSimplicialCone`.
    """
    p = _as_int_vector(point, cone.dimension)
    k = len(cone.generators)
    values = [sum(map(int.__mul__, row, p)) for row in cone._functionals]
    # nonnegative coefficients, and no part off the span of the generators
    return all(v >= 0 for v in values[:k]) and not any(values[k:])


def dual_cone(cone: Cone) -> Cone:
    """Dual cone {u : <u, v> >= 0 for all v in the cone}, for full-dimensional simplicial input.

    With generators as the rows of V, the dual is generated by the columns
    of V^-1, which are positive multiples of the cone's functionals, each
    cleared to a primitive integer vector.
    """
    rows, k, d = cone._functionals, len(cone.generators), cone.dimension
    if k != d:
        raise NotFullDimensional(
            f"dual_cone requires {d} generators spanning the space, got {k}")
    # the rows of an invertible matrix: nonzero, and no two parallel. Generator
    # i pairs to 0 with dual generator j != i and positively with dual
    # generator i, so the generators are the dual's functionals as they stand
    return _adopt(Cone, dimension=d, generators=tuple(map(_coprime, rows)),
                  _functionals=cone.generators)


def support_in_cone(support: LaurentSupport, cone: Cone) -> bool:
    """Whether every exponent of the support lies in the cone.

    This is membership of the monomials in the cone's coordinate algebra;
    the empty support passes vacuously.
    """
    if support.dimension != cone.dimension:
        raise ValueError("support and cone dimensions differ")
    return all(cone_contains(cone, e) for e in support.exponents)


# ---------------------------------------------------------------------------
# the (P^1)^n family


def _check_factor_count(n: int) -> int:
    return _integer(n, f"factor count must lie in 1..{MAX_FACTORS}", 1, MAX_FACTORS)


def _sign_patterns(n: int) -> np.ndarray:
    """The (2^n, n) sign table of the charts of (P^1)^n, chart k in row k."""
    # all-positive first, then single inversions in slot order, then pairs in
    # lexicographic slot order, and so on: the product of (-1, 1), stably
    # sorted by the count of -1
    bits = _cube_vertices(n).astype(np.int8)  # a 1 bit is sign +1
    return (2 * bits - 1)[np.argsort(-bits.sum(axis=1), kind="stable")]


def _cube_vertices(n: int) -> np.ndarray:
    """The (2^n, n) 0/1 table of the n-cube's vertices in index order, qubit 1 first."""
    return np.column_stack([bit_at(np.arange(1 << n), q, n) for q in range(1, n + 1)])


def _ray_indices(signs: np.ndarray) -> np.ndarray:
    """Index of each chart's generator per slot among the rays {+e_k}, then {-e_k}."""
    n = signs.shape[1]
    return np.arange(n) + n * (signs < 0)


def _product_rays(n: int) -> tuple[IntVector, ...]:
    return tuple(tuple(s if i == k else 0 for i in range(n)) for s in (1, -1) for k in range(n))


def product_p1_charts(n: int) -> list[Chart]:
    """All 2^n affine charts of the n-fold product of projective lines."""
    n = _check_factor_count(n)
    return [_adopt(Chart, signs=signs) for signs in map(tuple, _sign_patterns(n).tolist())]


def orthant_cone(signs: Sequence[int]) -> Cone:
    """Signed orthant spanned by {signs[k] * e_k}, the signs of a `Chart`."""
    signs = Chart(signs).signs
    d = len(signs)
    gens = tuple(tuple(signs[k] if i == k else 0 for i in range(d))
                 for k in range(d))
    return Cone(d, gens)


def product_p1_fan(n: int) -> Fan:
    """Orthant fan of (P^1)^n: rays {+-e_k}, one maximal cone per chart.

    Maximal cones are listed in the same order as `product_p1_charts`, so
    chart k and cone k share a sign pattern.
    """
    n = _check_factor_count(n)
    rays = _product_rays(n)
    # each cone holds the ray tuples themselves, one per axis; a product of
    # complete simplicial fans is complete and simplicial, so there is nothing
    # for `Cone` or `Fan` to check
    shared = np.empty(2 * n, dtype=object)
    for i, ray in enumerate(rays):
        shared[i] = ray
    cones = tuple(_adopt(Cone, dimension=n, generators=generators) for generators in
                  map(tuple, shared[_ray_indices(_sign_patterns(n))].tolist()))
    return _adopt(Fan, dimension=n, rays=rays, maximal_cones=cones)


def moment_polytope(n: int) -> Polytope:
    """Moment polytope of (P^1)^n: the unit n-cube with vertices {0,1}^n."""
    n = _check_factor_count(n)
    # 2^n distinct 0/1 rows: nothing for `Polytope` to check
    return _adopt(Polytope, dimension=n,
                  vertices=tuple(map(tuple, _cube_vertices(n).tolist())))


# ---------------------------------------------------------------------------
# text serialization


def _lines(head: str, tokens: np.ndarray, table: np.ndarray) -> Iterator[str]:
    """A `<head><tokens of the row>` line per row of an index table, in blocks."""
    return (table_text((head, (tokens, block), "\n")) for block in row_blocks(table))


def _integer_lines(head: str, rows: Sequence[IntVector]) -> Iterator[str]:
    """A `<head> <ints>` line per row: the distinct integers are the
    vocabulary, and the inverse of `np.unique` is the table."""
    try:
        array = np.array(rows, dtype=np.int64)
    except OverflowError:  # beyond int64: Python ints, compared as such
        array = np.array(rows, dtype=object)
    values, table = np.unique(array, return_inverse=True)
    return _lines(head, vocabulary(f" {v}" for v in values.tolist()), table.reshape(array.shape))


def _fan_blocks(fan: Fan) -> Iterator[str]:
    """The `ray` and `cone` lines of `fan_to_text`, in blocks."""
    n = fan.dimension
    index = {ray: i for i, ray in enumerate(fan.rays)}
    cones = np.array([index[g] for cone in fan.maximal_cones for g in cone.generators],
                     dtype=np.int64).reshape(len(fan.maximal_cones), n)
    return itertools.chain(_integer_lines("ray", fan.rays), _lines(
        "cone", vocabulary(f" {i}" for i in range(len(fan.rays))), cones))


def _product_p1_blocks(n: int) -> Iterator[str]:
    """The stdout of the `fan` command, in blocks, from the sign table: `dim=<n>`,
    a `chart <tokens>` line per chart, then the lines of
    `fan_to_text(product_p1_fan(n))` and of `polytope_to_text(moment_polytope(n))`
    after their headers."""
    n = _check_factor_count(n)
    signs = _sign_patterns(n)
    slots = vocabulary(f" z{k + 1}{inverse}" for k in range(n) for inverse in ("", "^-1"))
    return itertools.chain(
        [f"dim={n}\n"],
        _lines("chart", slots, 2 * np.arange(n) + (signs < 0)),
        _integer_lines("ray", _product_rays(n)),
        _lines("cone", vocabulary(f" {i}" for i in range(2 * n)), _ray_indices(signs)),
        _lines("vertex", vocabulary((" 0", " 1")), _cube_vertices(n)))


def fan_to_text(fan: Fan) -> str:
    """`dim=<n>` header, `ray <ints>` lines, then `cone <ray indices>` lines."""
    return f"dim={fan.dimension}\n" + "".join(_fan_blocks(fan))


def polytope_to_text(polytope: Polytope) -> str:
    """`dim=<n>` header followed by `vertex <ints>` lines."""
    return f"dim={polytope.dimension}\n" + "".join(_integer_lines("vertex", polytope.vertices))
