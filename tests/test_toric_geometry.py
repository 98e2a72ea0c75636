import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import cone_oracle, rational_rref, reference_fan_text, reference_polytope_text
from integer_sites import accepts, refuses
from toricgate import bits, toric_geometry
from toricgate.toric_geometry import (MAX_FACTORS, Chart, Cone, Fan, LaurentSupport,
                                      NonSimplicialCone, NotFullDimensional,
                                      Polytope, cone_contains, dual_cone,
                                      fan_to_text, is_simplicial,
                                      is_strongly_convex, moment_polytope,
                                      orthant_cone, polytope_to_text,
                                      primitive_vector, product_p1_charts,
                                      product_p1_fan, support_in_cone)


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _random_full_dim_cone(rng, d, bound):
    while True:
        gens = tuple(tuple(rng.randint(-bound, bound) for _ in range(d))
                     for _ in range(d))
        det = _det2(*gens) if d == 2 else _det3(*gens)
        if det != 0:
            return Cone(d, gens)


# --- construction ---------------------------------------------------------

def test_cone_prunes_zero_and_duplicates():
    c = Cone(2, ((0, 0), (1, 0), (1, 0), (0, 1)))
    assert c.generators == ((1, 0), (0, 1))


@pytest.mark.parametrize("dimension", [True, 2.0, 2.5, "2", None])
@pytest.mark.parametrize("kind", [Cone, Polytope, LaurentSupport])
def test_vector_sets_take_integer_dimensions_only(kind, dimension):
    refuses(f"{kind.__name__} dimension", dimension)
    accepts(f"{kind.__name__} dimension", np.int16(2))


def test_cone_rejects_non_integers():
    refuses("Cone", 1.0)
    with pytest.raises(ValueError):
        Cone(2, ((1, 0, 0),))


def test_zero_cone():
    zero = Cone(3, ())
    assert zero.generators == ()
    assert is_simplicial(zero)
    assert is_strongly_convex(zero)
    assert cone_contains(zero, (0, 0, 0))
    assert not cone_contains(zero, (1, 0, 0))
    with pytest.raises(NotFullDimensional):
        dual_cone(zero)


def test_the_zero_cone_reduces_no_rows_for_its_rank_and_no_columns_for_its_functionals():
    assert toric_geometry._eliminate([], 3) == (0, [])
    assert is_simplicial(Cone(3, ()))
    assert toric_geometry._eliminate([(1, 0), (0, 1)], 0) == (0, [[1, 0], [0, 1]])
    assert cone_contains(Cone(2, ()), (0, 0)) and not cone_contains(Cone(2, ()), (1, 0))


def test_primitive_vector():
    assert primitive_vector((2, -4)) == (1, -2)
    assert primitive_vector((0, 6)) == (0, 1)
    assert primitive_vector((Fraction(1, 2), Fraction(0))) == (1, 0)
    assert primitive_vector((-3,)) == (-1,)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


# --- membership -----------------------------------------------------------

def test_contains_first_orthant():
    c = orthant_cone((1, 1))
    assert cone_contains(c, (3, 5))
    assert cone_contains(c, (0, 0))
    assert not cone_contains(c, (-1, 2))


def test_contains_skew_cone():
    c = Cone(2, ((1, 0), (1, 2)))
    assert not cone_contains(c, (0, -1))
    assert cone_contains(c, (2, 2))  # = 1*(1,0) + 1*(1,2)
    assert cone_contains(c, (1, 1))  # fractional coefficients


def test_contains_lower_dimensional_cone():
    c = Cone(3, ((1, 0, 0), (0, 1, 0)))
    assert cone_contains(c, (2, 3, 0))
    assert not cone_contains(c, (2, 3, 1))  # off the span
    assert not cone_contains(c, (-1, 0, 0))


def test_contains_requires_simplicial():
    c = Cone(2, ((1, 0), (-1, 0)))
    with pytest.raises(NonSimplicialCone):
        cone_contains(c, (1, 0))
    with pytest.raises(NonSimplicialCone):
        cone_contains(Cone(2, ((1, 0), (0, 1), (1, 1))), (1, 1))


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        cone_contains(orthant_cone((1, 1)), (1, 2, 3))


# --- predicates -----------------------------------------------------------

def test_is_simplicial_examples():
    assert is_simplicial(orthant_cone((1, 1, 1)))
    assert not is_simplicial(Cone(2, ((1, 0), (0, 1), (1, 1))))
    assert not is_simplicial(Cone(2, ((2, 4), (1, 2))))  # rank 1, two generators


def test_is_strongly_convex_examples():
    for d in (1, 2, 3, 4):
        assert is_strongly_convex(orthant_cone((1,) * d))
    assert not is_strongly_convex(Cone(2, ((1, 0), (-1, 0))))
    assert is_strongly_convex(Cone(2, ((1, 0), (1, 2))))


def test_strongly_convex_dependent_generators():
    # pointed but not simplicial: a quadrant with a redundant generator, and
    # the cone over a square (a square pyramid)
    assert is_strongly_convex(Cone(2, ((1, 0), (0, 1), (1, 1))))
    assert is_strongly_convex(Cone(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))))
    assert is_strongly_convex(Cone(2, ((1, 1), (2, 2))))  # one ray, two generators
    # the same cones closed up into a line or a half-space
    assert not is_strongly_convex(Cone(2, ((1, 0), (0, 1), (-1, -1))))
    assert not is_strongly_convex(Cone(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1),
                                           (0, -1, 1), (0, 0, -1))))
    assert not is_strongly_convex(Cone(2, ((1, 1), (-2, -2))))


def test_strongly_convex_matches_angular_check_2d():
    # two nonzero 2D generators contain a line exactly when they are
    # opposite rays: parallel (det 0) and pointing apart (dot < 0); parallel
    # generators pointing the same way span a single ray, which is pointed
    rng = random.Random(1)
    for _ in range(40):
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        if a == (0, 0) or b == (0, 0):
            continue
        cone = Cone(2, (a, b))
        if len(cone.generators) < 2:
            continue  # duplicates collapse; skip
        opposite = _det2(a, b) == 0 and a[0] * b[0] + a[1] * b[1] < 0
        assert is_strongly_convex(cone) == (not opposite)


# --- duality --------------------------------------------------------------

def test_dual_of_first_orthant():
    c = orthant_cone((1, 1))
    assert dual_cone(c).primitive_generators == c.primitive_generators


def test_dual_skew_example():
    c = Cone(2, ((1, 0), (1, 2)))
    assert dual_cone(c).primitive_generators == frozenset({(0, 1), (2, -1)})


def test_dual_membership_by_inner_products():
    # box-enumeration oracle: u is in the dual iff <u, v> >= 0 for both generators
    c = Cone(2, ((1, 0), (1, 2)))
    d = dual_cone(c)
    for x in range(-5, 6):
        for y in range(-5, 6):
            by_products = all(x * g[0] + y * g[1] >= 0 for g in c.generators)
            assert cone_contains(d, (x, y)) == by_products


def test_dual_requires_simplicial_and_full_dimensional():
    with pytest.raises(NonSimplicialCone):
        dual_cone(Cone(2, ((1, 0), (0, 1), (1, 1))))
    with pytest.raises(NotFullDimensional):
        dual_cone(Cone(3, ((1, 0, 0), (0, 1, 0))))


def test_biduality_unimodular_orthant_images():
    # images of the first orthant under determinant +-1 integer maps
    mats = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)),
            ((0, 1), (-1, 0)), ((3, 2), (1, 1))]
    for m in mats:
        cone = Cone(2, m)
        assert dual_cone(dual_cone(cone)).primitive_generators \
            == cone.primitive_generators


def test_biduality_and_membership_random():
    rng = random.Random(42)
    for d in (2, 3):
        for _ in range(20):
            cone = _random_full_dim_cone(rng, d, 4)
            dual = dual_cone(cone)
            assert dual_cone(dual).primitive_generators == cone.primitive_generators
            for point in itertools.product(range(-3, 4), repeat=d):
                by_products = all(
                    sum(p * g for p, g in zip(point, gen)) >= 0
                    for gen in cone.generators)
                assert cone_contains(dual, point) == by_products


# --- properties against the Fraction oracle --------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonSimplicialCone:
        return "dependent"
    except NotFullDimensional:
        return "not full"


@st.composite
def _cone_cases(draw, tops=(4,), monomial=False):
    """Integer generator sets in dimension d <= 6, square and k < d, with
    dependent, duplicate and zero generators, and a point that is either a
    combination of the generators or arbitrary (mostly off a lower span).

    Entries are bounded by one of `tops`. With `monomial`, some sets are
    monomial, each generator on its own axis in a drawn order, as a signed
    orthant is: their pivots are alone in their columns and come with row
    swaps. Some of those have dense generators mixed in, so steps with
    arithmetic follow lone pivots."""
    d = draw(st.integers(1, 6))
    top = draw(st.sampled_from(tops))
    entry = st.integers(-top, top)
    vec = st.tuples(*[entry] * d)
    gens = draw(st.lists(vec, max_size=d + 1))
    if monomial and draw(st.booleans()):
        axes = draw(st.permutations(range(d)))[:draw(st.integers(0, d))]
        gens = [tuple(draw(entry.filter(bool)) if i == axis else 0 for i in range(d))
                for axis in axes] + gens[:draw(st.integers(0, d - len(axes)))]
    extra = draw(st.sampled_from(["none", "duplicate", "zero", "dependent"]))
    if extra == "zero":
        gens.append((0,) * d)
    elif gens and extra == "duplicate":
        gens.append(draw(st.sampled_from(gens)))
    elif gens and extra == "dependent":
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        gens.append(tuple(s * x + t * y for x, y in zip(a, b)))
    gens = draw(st.permutations(gens))
    if gens and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 3), min_size=len(gens), max_size=len(gens)))
        point = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(d))
    else:
        point = draw(vec)
    return d, gens, point


def _check_against_oracle(d, gens, point):
    cone = Cone(d, gens)
    distinct = tuple(dict.fromkeys(g for g in gens if any(g)))
    assert cone.generators == distinct
    simplicial, contains, dual = cone_oracle(d, distinct, point)
    assert is_simplicial(cone) == simplicial
    for _ in range(2):  # the second pass reads the reduction the first one kept
        assert _outcome(cone_contains, cone, point) == contains
        assert _outcome(lambda c: dual_cone(c).generators, cone) == dual
        assert ("_functionals" in vars(cone)) == simplicial
    # another point against the kept reduction: the origin, in every cone
    assert _outcome(cone_contains, cone, (0,) * d) == (True if simplicial else "dependent")
    if isinstance(dual, tuple):
        # the dual keeps the cone's generators as its reduction, and answers
        # as a fresh cone over its generators does
        inherited, fresh = dual_cone(cone), Cone(d, dual)
        assert vars(inherited)["_functionals"] == cone.generators
        _, dual_contains, bidual = cone_oracle(d, dual, point)
        for reused in (inherited, fresh):
            assert cone_contains(reused, point) == dual_contains
            assert dual_cone(reused).generators == bidual


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_cone_cases())
def test_cone_operations_match_rational_oracle(case):
    # small dense entries: accidental dependence, zero pivots and points on a face
    _check_against_oracle(*case)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_cone_cases(tops=(4, 1 << 10, 1 << 40, 1 << 70), monomial=True))
def test_cone_operations_match_rational_oracle_across_the_int64_guard(case):
    # the elimination runs on int64 below its Hadamard guard and on Python
    # ints above it, where int64 would overflow (2^40) or cannot hold the
    # input (2^70); monomial sets take lone pivots and row swaps
    _check_against_oracle(*case)


def test_a_lone_pivot_keeps_the_bareiss_divisor():
    # after column 0's step, row 1 is alone in column 1 with lead 6; the step
    # at column 2 still divides by column 0's lead, 2, and every entry left is
    # a minor of the input
    assert toric_geometry._eliminate([[2, 0, 1], [1, 3, 0], [1, 0, 1]], 3) == (
        3, [[1, 0, 0], [0, 3, 0], [0, 0, 1]])


@pytest.mark.parametrize("seed", range(3))
def test_a_permuted_signed_orthant_at_16_matches_rational_oracle(seed):
    # every pivot is alone in its column and most columns take a row swap
    rng = random.Random(seed)
    axes = rng.sample(range(16), 16)
    gens = tuple(tuple(rng.choice((1, -1)) if i == axis else 0 for i in range(16))
                 for axis in axes)
    cone = Cone(16, gens)
    # random points, a point on a ray and the sum of the generators, inside
    points = [tuple(rng.randint(-2, 2) for _ in range(16)) for _ in range(3)]
    for point in points + [tuple(3 * c for c in gens[0]), tuple(map(sum, zip(*gens)))]:
        simplicial, contains, dual = cone_oracle(16, gens, point)
        assert is_simplicial(cone) == simplicial
        assert cone_contains(cone, point) == contains
        assert dual_cone(cone).generators == dual


def test_kept_reduction_leaves_equality_hash_and_repr_alone():
    gens = ((1, 2, 0), (0, 1, 3), (2, 0, 1))
    used = Cone(3, gens)
    assert cone_contains(used, (3, 3, 4)) and dual_cone(used).generators
    assert "_functionals" in vars(used)
    fresh = Cone(3, gens)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert repr(used) == f"Cone(dimension=3, generators={gens!r})"
    # a failed reduction is not kept: a dependent cone raises on every call
    dependent = Cone(2, ((1, 0), (0, 1), (1, 1)))
    for call in (lambda: cone_contains(dependent, (1, 1)), lambda: dual_cone(dependent)) * 2:
        with pytest.raises(NonSimplicialCone, match="^generators are linearly dependent$"):
            call()
        assert "_functionals" not in vars(dependent)
    assert dependent == Cone(2, ((1, 0), (0, 1), (1, 1)))


def test_a_dual_and_its_dual_need_no_elimination_of_their_own(monkeypatch):
    cone = Cone(3, ((1, 2, 0), (0, 1, 3), (2, 0, 1)))
    dual = dual_cone(cone)

    def refuse(*args):
        raise AssertionError("a dual went through elimination")
    monkeypatch.setattr(toric_geometry, "_eliminate", refuse)
    assert dual_cone(dual).generators == cone.generators
    assert cone_contains(dual, (1, 1, 1)) and not cone_contains(dual, (-1, -1, -1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=d, max_size=d)))
def test_biduality_property(gens):
    d = len(gens)
    assume(len(rational_rref(gens)[0]) == d)
    cone = Cone(d, gens)
    assert dual_cone(dual_cone(cone)).primitive_generators == cone.primitive_generators


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.tuples(*[st.integers(-3, 3)] * d),
    st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=d + 3),
    st.lists(st.integers(1, 3), min_size=d + 3, max_size=d + 3))))
def test_strongly_convex_constructions(case):
    # generators strictly inside the open half-space <u, .> > 0 give a
    # pointed cone; adding minus a positive combination of them closes a line
    u, gens, weights = case
    gens = [g for g in gens if sum(a * b for a, b in zip(u, g)) > 0]
    assume(gens)
    d = len(u)
    assert is_strongly_convex(Cone(d, gens))
    negation = tuple(-sum(w * g[i] for w, g in zip(weights, gens)) for i in range(d))
    assert not is_strongly_convex(Cone(d, gens + [negation]))


# --- Laurent supports -----------------------------------------------------

def test_support_in_cone():
    orthant = orthant_cone((1, 1))
    assert support_in_cone(LaurentSupport(2, ((0, 0),)), orthant)
    assert support_in_cone(LaurentSupport(2, ((2, 1), (0, 3))), orthant)
    assert not support_in_cone(LaurentSupport(2, ((1, 0), (-1, 0))), orthant)
    assert support_in_cone(LaurentSupport(2, ()), orthant)  # zero polynomial


def test_support_dimension_mismatch():
    with pytest.raises(ValueError):
        support_in_cone(LaurentSupport(3, ((1, 1, 1),)), orthant_cone((1, 1)))


# --- charts, fan, moment polytope -----------------------------------------

def test_chart_count():
    for n in range(1, 9):
        assert len(product_p1_charts(n)) == 2 ** n


def test_chart_labels_n1():
    assert [c.label() for c in product_p1_charts(1)] == ["(z1)", "(z1^-1)"]


def test_chart_listing_n2():
    labels = [c.label() for c in product_p1_charts(2)]
    assert labels == ["(z1, z2)", "(z1^-1, z2)", "(z1, z2^-1)", "(z1^-1, z2^-1)"]


def test_chart_listing_n3():
    signs = [c.signs for c in product_p1_charts(3)]
    assert signs == [
        (1, 1, 1),
        (-1, 1, 1), (1, -1, 1), (1, 1, -1),
        (-1, -1, 1), (-1, 1, -1), (1, -1, -1),
        (-1, -1, -1),
    ]


def test_orthant_cone_takes_only_unit_signs():
    # a zero sign drops an axis and a sign of 2 makes a non-primitive
    # generator: neither gives a signed orthant
    for signs in ((0, 1), (2, 1), (1, -2), (1, 0, -1)):
        with pytest.raises(ValueError, match="^chart signs must be \\+1 or -1$"):
            orthant_cone(signs)
    assert orthant_cone((1, -1)).generators == ((1, 0), (0, -1))


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(())
    with pytest.raises(ValueError):
        Chart((1, 0))
    with pytest.raises(ValueError):
        product_p1_charts(0)
    with pytest.raises(ValueError):
        product_p1_charts(17)


@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, Fraction(1), np.float64(-1), "1", None],
                         ids=["True", "False", "1.0", "-1.0", "Fraction", "float64", "str", "None"])
def test_chart_signs_are_integers_not_bools(sign):
    refuses("Chart", sign)
    refuses("orthant_cone", sign)


def test_chart_signs_read_numpy_integers_as_ints():
    for signs in ((np.int8(1), -1), (1, np.int64(-1)), (np.uint8(1), np.int16(-1))):
        chart = Chart(signs)
        assert chart == Chart(tuple(map(int, signs)))
        assert all(type(s) is int for s in chart.signs)
        assert orthant_cone(signs) == orthant_cone(tuple(map(int, signs)))


def test_fan_structure():
    for n in (1, 2, 3):
        fan = product_p1_fan(n)
        assert len(fan.rays) == 2 * n
        assert len(fan.maximal_cones) == 2 ** n
        charts = product_p1_charts(n)
        for chart, cone in zip(charts, fan.maximal_cones, strict=True):
            assert cone.generators == orthant_cone(chart.signs).generators


def test_fan_quadrants_n2():
    fan = product_p1_fan(2)
    expected = [
        {(1, 0), (0, 1)}, {(-1, 0), (0, 1)},
        {(1, 0), (0, -1)}, {(-1, 0), (0, -1)},
    ]
    got = [set(c.generators) for c in fan.maximal_cones]
    assert got == expected


def test_fan_cones_pass_predicates():
    for n in (1, 2, 3, 4, 5, 6):
        for cone in product_p1_fan(n).maximal_cones:
            assert is_simplicial(cone)
            assert is_strongly_convex(cone)


def test_orthants_self_dual():
    for n in (1, 2, 3, 4, 5, 6):
        for cone in product_p1_fan(n).maximal_cones:
            assert dual_cone(cone).primitive_generators == cone.primitive_generators


def test_fan_validation():
    ray_pair = ((1, 0), (-1, 0), (0, 1), (0, -1))
    with pytest.raises(ValueError):
        Fan(2, ray_pair, (Cone(2, ((1, 0), (-1, 0))),))  # dependent generators
    with pytest.raises(ValueError):
        Fan(2, ray_pair, (Cone(2, ((1, 0), (1, 1))),))  # (1,1) is not a ray
    with pytest.raises(ValueError):
        Fan(2, ray_pair,
            (Cone(2, ((1, 0), (0, 1))), Cone(2, ((0, 1), (1, 0)))))  # duplicate
    with pytest.raises(ValueError):
        Fan(1, ((0,), (1,)), (Cone(1, ((1,),)),))  # zero ray


def test_moment_polytope():
    square = moment_polytope(2)
    assert square.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    cube = moment_polytope(3)
    assert len(cube.vertices) == 8
    assert all(set(v) <= {0, 1} for v in cube.vertices)
    assert len(moment_polytope(4).vertices) == 16
    # the advertised cap, all 2^16 vertices in bit order
    n = MAX_FACTORS
    assert moment_polytope(n).vertices == tuple(
        tuple(int(b) for b in format(x, f"0{n}b")) for x in range(1 << n))


@pytest.mark.parametrize("n", [True, 2.0, 2.5, "2", None])
def test_factor_counts_are_integers(n):
    for site in ("product_p1_charts", "product_p1_fan", "moment_polytope"):
        refuses(site, n)


@pytest.mark.parametrize("n", [np.int64(2), np.int16(2), np.uint8(9), np.int16(15)], ids=repr)
def test_factor_counts_read_numpy_integers_as_ints(n):
    # numpy integers are integers, kept as ints: 1 << 9 overflows a uint8
    for build in (product_p1_charts, product_p1_fan, moment_polytope):
        assert build(n) == build(int(n))
    assert type(product_p1_fan(n).dimension) is type(moment_polytope(n).dimension) is int
    assert list(toric_geometry._product_p1_blocks(n)) == \
        list(toric_geometry._product_p1_blocks(int(n)))


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope(2, ())
    p = Polytope(2, ((0, 0), (0, 0), (1, 1)))
    assert p.vertices == ((0, 0), (1, 1))
    # first occurrences are kept, in order
    repeats = ((1, 1), (0, 0), (1, 1), (0, 1), (0, 0), (0, 1))
    assert Polytope(2, repeats).vertices == ((1, 1), (0, 0), (0, 1))
    assert LaurentSupport(2, repeats).exponents == ((1, 1), (0, 0), (0, 1))
    # every vector is validated, even one equal to an earlier vertex
    with pytest.raises(ValueError):
        Polytope(2, ((1, 0), (True, 0)))
    with pytest.raises(ValueError):
        LaurentSupport(2, ((1, 0), (1, 0, 0)))


# --- serialization --------------------------------------------------------

def test_fan_to_text_n2():
    assert fan_to_text(product_p1_fan(2)) == (
        "dim=2\n"
        "ray 1 0\nray 0 1\nray -1 0\nray 0 -1\n"
        "cone 0 1\ncone 2 1\ncone 0 3\ncone 2 3\n")


def test_polytope_to_text_n2():
    assert polytope_to_text(moment_polytope(2)) == (
        "dim=2\nvertex 0 0\nvertex 0 1\nvertex 1 0\nvertex 1 1\n")


# coordinates past int64 either way, and small ones of both signs
_COORDINATES = st.one_of(st.integers(-12, 12),
                         st.sampled_from([10**30, -10**30, 2**63, -2**63 - 1, 2**64]))


@st.composite
def _hand_built_fans(draw):
    d = draw(st.integers(1, 4))
    rays = draw(st.lists(st.tuples(*[_COORDINATES] * d).filter(any), max_size=8, unique=True))
    picks = draw(st.lists(st.permutations(range(len(rays))), max_size=6)) if rays else []
    cones, seen = [], set()
    for order in picks:
        gens = tuple(rays[i] for i in order[:d])
        if (len(gens) == d and frozenset(gens) not in seen
                and len(rational_rref(gens)[0]) == d):
            seen.add(frozenset(gens))
            cones.append(gens)
    return d, rays, cones


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_hand_built_fans())
def test_fan_to_text_matches_a_line_by_line_writer(case):
    d, rays, cones = case
    fan = Fan(d, tuple(rays), tuple(Cone(d, gens) for gens in cones))
    assert fan_to_text(fan) == reference_fan_text(d, rays, cones)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.tuples(*[_COORDINATES] * d), min_size=1, max_size=12)))
def test_polytope_to_text_matches_a_line_by_line_writer(vertices):
    d = len(vertices[0])
    distinct = list(dict.fromkeys(vertices))
    assert polytope_to_text(Polytope(d, tuple(vertices))) == reference_polytope_text(d, distinct)


# --- the fan against its public construction, and its text -----------------

def _axis_rays(n):
    """+e_1..+e_n, then -e_1..-e_n."""
    return tuple(tuple(s if i == k else 0 for i in range(n))
                 for s in (1, -1) for k in range(n))


def _sign_order(n):
    """Sign patterns by number of inverted slots, then by the inverted slots
    in lexicographic order."""
    return sorted(itertools.product((1, -1), repeat=n),
                  key=lambda s: (s.count(-1), [k for k in range(n) if s[k] == -1]))


@pytest.mark.parametrize("n", range(1, 9))
def test_product_fan_matches_public_construction(n):
    built = product_p1_fan(n)
    public = Fan(n, _axis_rays(n),
                 tuple(orthant_cone(c.signs) for c in product_p1_charts(n)))
    assert built.dimension == public.dimension == n
    assert built.rays == public.rays == _axis_rays(n)
    assert built == public
    for got, want in zip(built.maximal_cones, public.maximal_cones, strict=True):
        assert type(got) is Cone and type(want) is Cone
        assert got.dimension == n
        assert got.generators == want.generators
        assert Cone(n, got.generators) == got


def test_product_fan_revalidates_as_built():
    fan = product_p1_fan(8)
    assert Fan(fan.dimension, fan.rays, fan.maximal_cones) == fan


def test_fan_refuses_a_maximal_cone_that_is_no_cone():
    # a generator tuple given where a cone belongs used to raise AttributeError
    # and an object with a dimension and generators that is no Cone was taken as one
    for cones in ((((1,),),), (((1,), (-1,)),), ((1,),), (None,),
                  (SimpleNamespace(dimension=1, generators=((1,),)),)):
        with pytest.raises(ValueError) as info:
            Fan(1, ((1,), (-1,)), cones)
        assert str(info.value) == f"maximal cones must be Cones, got {cones[0]!r}"


def test_product_fan_needs_no_elimination(monkeypatch):
    # the product fan is taken as built; a fan built by hand, on the axes
    # or not, still has every cone go through elimination
    def refuse(cone):
        raise AssertionError("a cone went through elimination")
    monkeypatch.setattr(toric_geometry, "is_simplicial", refuse)
    assert len(product_p1_fan(6).maximal_cones) == 64
    for rays in (((1, 1), (1, -1)), ((1, 0), (0, 1))):
        with pytest.raises(AssertionError):
            Fan(2, rays, (Cone(2, rays),))


@pytest.mark.parametrize("n", range(1, 11))
def test_fan_and_polytope_text_bytes(n):
    rays = _axis_rays(n)
    fan_text = "".join([f"dim={n}\n"]
                       + ["ray " + " ".join(map(str, r)) + "\n" for r in rays]
                       + ["cone " + " ".join(str(k if s == 1 else n + k)
                                             for k, s in enumerate(signs)) + "\n"
                          for signs in _sign_order(n)])
    polytope_text = f"dim={n}\n" + "".join(
        "vertex " + " ".join(format(x, f"0{n}b")) + "\n" for x in range(1 << n))
    assert fan_to_text(product_p1_fan(n)) == fan_text
    assert polytope_to_text(moment_polytope(n)) == polytope_text


# --- Fan rejections: (dimension, rays, cone generator tuples, message) ------
# A cone given as an object instead of a generator tuple is passed as it is:
# `Cone` drops repeated generators, a cone made by `bits._adopt` does not.

_SQUARE = ((1, 0), (0, 1), (-1, 0), (0, -1))

FAN_REJECTIONS = {
    "generator is not a ray": (2, _SQUARE, [((1, 0), (1, 1))],
                               "maximal cone generators must be rays of the fan"),
    "not a ray before dependent": (2, _SQUARE, [((1, 0), (2, 0))],
                                   "maximal cone generators must be rays of the fan"),
    "duplicate in another order": (2, _SQUARE, [((1, 0), (0, 1)), ((-1, 0), (0, 1)),
                                                ((0, 1), (1, 0))],
                                   "maximal cones must be pairwise distinct"),
    "one generator": (2, _SQUARE, [((1, 0),)],
                      "maximal cones must have one generator per dimension"),
    "three generators": (2, _SQUARE, [((1, 0), (0, 1), (-1, 0))],
                         "maximal cones must have one generator per dimension"),
    "count before rays": (2, _SQUARE, [((5, 5),)],
                          "maximal cones must have one generator per dimension"),
    "dimension mismatch": (2, _SQUARE, [((1, 0, 0), (0, 1, 0))],
                           "maximal cone dimension mismatch"),
    "dimension before count": (2, _SQUARE, [((1, 0, 0),)],
                               "maximal cone dimension mismatch"),
    "zero ray": (1, ((0,), (1,)), [((1,),)], "rays must be nonzero"),
    "repeated rays": (2, ((1, 0), (0, 1), (1, 0)), [((1, 0), (0, 1))],
                      "rays must be distinct"),
    "repeated zero rays": (2, ((0, 0), (0, 0)), [], "rays must be distinct"),
    "bool coordinate": (2, ((1, 0), (True, 0)), [],
                        "lattice coordinates must be exact integers"),
    "float coordinate": (2, ((1.0, 0), (0, 1)), [],
                         "lattice coordinates must be exact integers"),
    "bool dimension": (True, ((1,), (-1,)), [], "dimension must be at least 1"),
    "float dimension": (2.5, (), [], "dimension must be at least 1"),
    "zero dimension": (0, (), [], "dimension must be at least 1"),
    "negative dimension": (-2, (), [], "dimension must be at least 1"),
    "short ray": (2, ((1, 0), (1,)), [], "expected a vector of length 2"),
    "opposite axis rays": (2, _SQUARE, [((1, 0), (-1, 0))],
                           "maximal cones must be simplicial"),
    "one axis twice": (2, ((1, 0), (2, 0), (0, 1)), [((1, 0), (2, 0))],
                       "maximal cones must be simplicial"),
    "dependent non-axis rays": (2, ((1, 1), (2, 2)), [((1, 1), (2, 2))],
                                "maximal cones must be simplicial"),
    "dependent before duplicate": (2, _SQUARE, [((1, 0), (0, 1)), ((0, 1), (1, 0)),
                                                ((0, 1), (0, -1))],
                                   "maximal cones must be pairwise distinct"),
    "dependent in 3d": (3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
                        [((1, 0, 0), (0, 1, 0), (1, 1, 0))],
                        "maximal cones must be simplicial"),
    "repeated generator": (2, ((0, 1), (1, 0)),
                           [bits._adopt(Cone, dimension=2, generators=((1, 0), (1, 0)))],
                           "maximal cones must be simplicial"),
}


@pytest.mark.parametrize("case", sorted(FAN_REJECTIONS))
def test_fan_rejections(case):
    dimension, rays, cones, message = FAN_REJECTIONS[case]
    built = tuple(Cone(len(gens[0]), gens) if isinstance(gens, tuple) else gens
                  for gens in cones)
    with pytest.raises(ValueError, match=f"^{message}"):
        Fan(dimension, rays, built)


def test_fan_accepts_independent_non_axis_rays():
    fan = Fan(2, ((1, 1), (1, -1)), (Cone(2, ((1, 1), (1, -1))),))
    assert fan.rays == ((1, 1), (1, -1))
    assert fan.maximal_cones[0].generators == ((1, 1), (1, -1))
    mixed = Fan(3, ((1, 0, 0), (1, 1, 0), (0, 0, -1), (0, 1, 0)),
                (Cone(3, ((1, 0, 0), (1, 1, 0), (0, 0, -1))),
                 Cone(3, ((1, 1, 0), (0, 1, 0), (0, 0, -1)))))
    assert len(mixed.maximal_cones) == 2
    # a numpy integer dimension is kept as an int
    assert type(Fan(np.int16(1), ((1,), (-1,)), ()).dimension) is int


def test_dual_cone_matches_rational_oracle_on_biduality_cases():
    rng = random.Random(42)
    cones = [Cone(2, m) for m in (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)),
                                  ((0, 1), (-1, 0)), ((3, 2), (1, 1)), ((1, 0), (1, 2)))]
    cones += [_random_full_dim_cone(rng, d, 4) for d in (2, 3) for _ in range(20)]
    cones += [orthant_cone(c.signs) for c in product_p1_charts(4)]
    for cone in cones:
        d = cone.dimension
        dual = dual_cone(cone)
        assert dual.generators == cone_oracle(d, cone.generators, (0,) * d)[2]
        assert dual_cone(dual).generators == cone_oracle(d, dual.generators, (0,) * d)[2]


def test_primitive_vector_rational_inputs():
    assert primitive_vector((Fraction(-2, 3), Fraction(4, 9))) == (-3, 2)
    assert primitive_vector((Fraction(1, 3), 2, 0)) == (1, 6, 0)
    assert primitive_vector((0.5, 1)) == (1, 2)
    assert primitive_vector((Fraction(6, 4),)) == (1,)
    assert all(type(c) is int for c in primitive_vector((Fraction(3, 7), Fraction(-9, 14))))
    for zero in ((0, 0), (Fraction(0), Fraction(0, 5)), ()):
        with pytest.raises(ValueError, match="^the zero vector has no primitive form$"):
            primitive_vector(zero)


def test_primitive_vector_reads_numpy_coordinates_as_ints_and_refuses_bools():
    # a numpy integer used to come back as a numpy scalar, and True was read as 1;
    # Fraction took no numpy float but float64, a Python float, and each is read exactly
    for vec, want in (((np.int64(2), 4), (1, 2)), ((np.int8(-3), np.uint8(200)), (-3, 200)),
                      ((np.int64(6), Fraction(3, 2)), (4, 1)), ((np.float64(0.5), 1), (1, 2)),
                      ((np.float32(0.5), 1), (1, 2)), ((np.float16(-0.75), 3), (-1, 4)),
                      ((np.float32(0.1), 1), (13421773, 134217728)),
                      ((np.longdouble(0.25), Fraction(1, 3)), (3, 4))):
        got = primitive_vector(vec)
        assert got == want and all(type(c) is int for c in got)
    for vec in ((True, 0), (0, False), (Fraction(1, 2), True), (np.True_, 0), (1, np.False_)):
        with pytest.raises(ValueError) as info:
            primitive_vector(vec)
        assert str(info.value) == f"coordinates must be rational numbers, not bools, got {vec!r}"


def test_primitive_vector_refuses_strings_and_non_rationals_with_one_error():
    # Fraction parsed "1/2" as a half, and None, an infinity or a NaN let a
    # TypeError, an OverflowError or Fraction's own ValueError out
    for vec in (("1/2", 1), (1, "2"), (b"1", 1), (None, 1), (math.inf, 1), (1, -math.inf),
                (math.nan, 0), (Decimal("NaN"), 1), (1j, 1), (np.complex128(1), 1), ([1], 0),
                (np.float32("nan"), 1), (1, np.float32("inf")), (np.float16("-inf"), 0)):
        with pytest.raises(ValueError) as info:
            primitive_vector(vec)
        assert str(info.value) == f"coordinates must be rational numbers, got {vec!r}"
    for vec, want in (((Decimal("0.5"), 1), (1, 2)), ((np.float64(-1.5), 3), (-1, 2)),
                      ((np.uint8(4), Fraction(2, 3)), (6, 1))):
        got = primitive_vector(vec)
        assert got == want and all(type(c) is int for c in got)
