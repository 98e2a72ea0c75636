import dataclasses
import itertools
import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bfs_connected, cube_match_oracle, hypercube_edges, reference_partition_text,
                     xnor_class)
from integer_sites import refuses
from toricgate.bits import bitstring
from toricgate.phase_partition import (MAX_GRAPH_QUBITS, ClassGraph, PhasePartition,
                                       _class_arrays, _hypercube_failure, class_graph,
                                       drop_target_bit, intersection_summary,
                                       is_connected, is_hypercube_isomorphic,
                                       partition_to_text, partition_vertices)
from toricgate.spin_model import DiagonalTwoQubitGate
from toricgate.statevec import (GatePlacement, apply_cphase,
                                extract_phase_classes, uniform_superposition)


def _strings(members, n):
    return sorted(bitstring(v, n) for v in members)


def test_partition_n2():
    p = partition_vertices(2, GatePlacement(1, 2))
    assert _strings(p.class_phi1, 2) == ["00", "11"]
    assert _strings(p.class_phi2, 2) == ["01", "10"]


def test_partition_n3_first_pair():
    p = partition_vertices(3, GatePlacement(1, 2))
    assert _strings(p.class_phi1, 3) == ["000", "001", "110", "111"]
    assert _strings(p.class_phi2, 3) == ["010", "011", "100", "101"]


def test_partition_n3_second_pair():
    p = partition_vertices(3, GatePlacement(2, 3))
    assert _strings(p.class_phi1, 3) == ["000", "011", "100", "111"]
    assert _strings(p.class_phi2, 3) == ["001", "010", "101", "110"]


def test_partition_n4():
    p = partition_vertices(4, GatePlacement(1, 2))
    assert _strings(p.class_phi1, 4) == ["0000", "0001", "0010", "0011",
                                         "1100", "1101", "1110", "1111"]


def test_partition_matches_string_oracle():
    for n in (2, 3, 4, 5):
        for control, target in itertools.permutations(range(1, n + 1), 2):
            p = partition_vertices(n, GatePlacement(control, target))
            assert set(p.class_phi1) == xnor_class(n, control, target, True)
            assert set(p.class_phi2) == xnor_class(n, control, target, False)


def test_partition_law_all_placements():
    for n in range(2, 13):
        for control, target in itertools.combinations(range(1, n + 1), 2):
            p = partition_vertices(n, GatePlacement(control, target))
            assert len(p.class_phi1) == len(p.class_phi2) == 2 ** (n - 1)
            assert p.class_phi1.isdisjoint(p.class_phi2)
            assert p.class_phi1 | p.class_phi2 == set(range(2 ** n))


def test_partition_placement_swap_invariant():
    a = partition_vertices(5, GatePlacement(2, 4))
    b = partition_vertices(5, GatePlacement(4, 2))
    assert a.class_phi1 == b.class_phi1
    assert a.class_phi2 == b.class_phi2


def test_partition_agrees_with_state_phases():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        placements = list(itertools.permutations(range(1, n + 1), 2))
        for control, target in placements[:6]:
            phi1 = float(rng.uniform(0.2, 1.4))
            gate = DiagonalTwoQubitGate.from_phi1(phi1)
            out = apply_cphase(uniform_superposition(n), gate,
                               GatePlacement(control, target))
            classes = extract_phase_classes(out)
            p = partition_vertices(n, GatePlacement(control, target))
            assert set(classes) == {p.class_phi1, p.class_phi2}
            # the class holding index 0 is the agreeing one
            assert 0 in p.class_phi1


def test_partition_input_validation():
    with pytest.raises(ValueError):
        partition_vertices(1, GatePlacement(1, 2))
    with pytest.raises(ValueError):
        partition_vertices(25, GatePlacement(1, 2))
    with pytest.raises(ValueError):
        partition_vertices(3, GatePlacement(1, 4))
    # n is checked before the placement
    with pytest.raises(ValueError, match="^n_qubits must lie in 2..24$"):
        PhasePartition(25, GatePlacement(1, 99))


@pytest.mark.parametrize("n", [True, 3.0, 2.5, "3", None])
def test_partition_takes_integer_counts_only(n):
    refuses("partition_vertices", n)


@pytest.mark.parametrize("enter", [
    lambda placement: partition_vertices(3, placement),
    lambda placement: PhasePartition(3, placement),
    lambda placement: apply_cphase(uniform_superposition(3), DiagonalTwoQubitGate.from_phi1(0.1),
                                   placement),
    lambda placement: ClassGraph(3, placement, "phi1", (0, 1, 6, 7), ())],
    ids=["partition_vertices", "PhasePartition", "apply_cphase", "ClassGraph"])
def test_placements_must_be_gate_placements(enter):
    # the one check of `statevec._agreement` and `ClassGraph`: no AttributeError
    for placement in ((1, 2), [1, 2], "12", None):
        with pytest.raises(ValueError) as info:
            enter(placement)
        assert str(info.value) == f"placement must be a GatePlacement, got {placement!r}"


@pytest.mark.parametrize("n", [np.int64(3), np.uint8(12), np.int16(16)], ids=repr)
def test_partition_reads_numpy_counts_as_ints(n):
    # numpy integers are integers, kept as ints: 1 << 12 overflows a uint8
    partition, want = partition_vertices(n, GatePlacement(1, 2)), partition_vertices(
        int(n), GatePlacement(1, 2))
    assert type(partition.n_qubits) is int
    assert repr(partition) == repr(want) == f"PhasePartition(n_qubits={n}, " \
        "placement=GatePlacement(control=1, target=2))"
    assert partition._agree.tolist() == want._agree.tolist()


def test_class_sets_are_not_inputs():
    # the classes follow from (n, placement): a partition takes no class sets
    with pytest.raises(TypeError):
        PhasePartition(2, GatePlacement(1, 2), frozenset({0, 3}), frozenset({1, 2}))


@pytest.mark.parametrize("n,control,target", [(2, 1, 2), (3, 2, 1), (5, 4, 2), (9, 3, 7)])
def test_library_and_hand_built_partitions_are_one_value(n, control, target):
    placement = GatePlacement(control, target)
    built = partition_vertices(n, placement)
    assert "class_phi1" not in vars(built) and "class_phi2" not in vars(built)
    hand = PhasePartition(n, placement)
    assert built == hand and hand == built
    assert hash(built) == hash(hand)
    assert repr(built) == repr(hand) == f"PhasePartition(n_qubits={n}, placement={placement!r})"
    assert built != partition_vertices(n, GatePlacement(target, control))
    # the sets built on first read are the agreement sets, and built once
    assert built.class_phi2 == xnor_class(n, control, target, False)
    assert built.class_phi1 == xnor_class(n, control, target, True)
    assert built.class_phi1 is built.class_phi1
    assert np.array_equal(built._agree, hand._agree)


def test_a_partition_lacks_other_attributes():
    p = partition_vertices(3, GatePlacement(1, 2))
    with pytest.raises(AttributeError, match="no attribute 'class_phi3'"):
        p.class_phi3
    with pytest.raises(AttributeError):
        object.__new__(PhasePartition).class_phi1


def test_class_graph_n2():
    p = partition_vertices(2, GatePlacement(1, 2))
    g = class_graph(p, "phi1")
    assert g.vertices == (0, 3)
    assert g.edges == ((0, 3),)
    assert g.diagonal_edges() == ((0, 3),)


def test_class_graph_n3_square():
    p = partition_vertices(3, GatePlacement(1, 2))
    g = class_graph(p, "phi1")
    assert g.vertices == (0, 1, 6, 7)
    assert set(g.edges) == {(0, 1), (6, 7), (0, 6), (1, 7)}
    assert set(g.diagonal_edges()) == {(0, 6), (1, 7)}


def test_class_graph_which_validation():
    p = partition_vertices(2, GatePlacement(1, 2))
    with pytest.raises(ValueError):
        class_graph(p, "phi3")


def test_class_graph_regular_and_connected():
    for n in (2, 3, 4, 6, 8):
        for placement in [GatePlacement(1, 2), GatePlacement(1, n),
                          GatePlacement(n - 1, n)]:
            p = partition_vertices(n, placement)
            for which in ("phi1", "phi2"):
                g = class_graph(p, which)
                assert len(g.vertices) == 2 ** (n - 1)
                assert len(g.edges) == (n - 1) * 2 ** (n - 2)
                assert is_connected(g)
                degree = {v: 0 for v in g.vertices}
                for u, v in g.edges:
                    degree[u] += 1
                    degree[v] += 1
                assert set(degree.values()) == {n - 1}


def test_class_graph_edges_come_in_ascending_order():
    for n, control, target in [(5, 4, 2), (7, 1, 7), (8, 6, 3)]:
        p = partition_vertices(n, GatePlacement(control, target))
        for which in ("phi1", "phi2"):
            g = class_graph(p, which)
            assert list(g.edges) == sorted(set(g.edges))


def test_class_graphs_are_capped_before_anything_is_built():
    # at the cap the check passes; one above it, each entry point refuses
    # before the vertex or edge tuples, or the adjacency, are built
    placement = GatePlacement(1, 2)
    above = MAX_GRAPH_QUBITS + 1
    message = f"^n_qubits {above}: class graphs are capped at {MAX_GRAPH_QUBITS} qubits$"
    p = partition_vertices(above, placement)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            class_graph(p, "phi1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    with pytest.raises(ValueError, match=message):
        ClassGraph(above, placement, "phi1", (), ())
    unchecked = object.__new__(ClassGraph)
    unchecked.__dict__.update(n_qubits=above, placement=placement, phase_class="phi1",
                              vertices=(0,), edges=(), _verts=np.array([0]),
                              _ends=np.empty((0, 2), np.int64))
    with pytest.raises(ValueError, match=message):
        is_connected(unchecked)
    # at the cap the refusal does not fire: the next check does
    with pytest.raises(ValueError, match="every vertex must have degree"):
        ClassGraph(MAX_GRAPH_QUBITS, placement, "phi1", (0,), ())
    unchecked.__dict__.update(n_qubits=MAX_GRAPH_QUBITS)
    assert is_connected(unchecked)


def test_hand_built_class_graph_checks_its_count_and_placement():
    # a numpy count is kept as an int, so the diagonal and the Q_(n-1) check
    # read the same graph as the built one; a float count and a placement past
    # n are refused with the library's own messages
    graph = class_graph(partition_vertices(9, GatePlacement(1, 2)), "phi1")
    built = ClassGraph(np.uint8(9), GatePlacement(1, 2), "phi1", graph.vertices, graph.edges)
    assert type(built.n_qubits) is int and built == graph
    assert built.diagonal_mask() == graph.diagonal_mask() == 384
    assert built.diagonal_edges() == graph.diagonal_edges() and len(built.diagonal_edges()) == 128
    assert is_hypercube_isomorphic(built).is_isomorphic
    with pytest.raises(ValueError, match=r"^n_qubits must lie in 2\.\.24$"):
        ClassGraph(3.0, GatePlacement(1, 2), "phi1", (0, 1, 6, 7), ())
    with pytest.raises(ValueError, match="is out of range for 3 qubits$"):
        ClassGraph(3, GatePlacement(1, 5), "phi1", (0, 1, 6, 7), ())


def test_class_graph_is_the_hand_built_graph_of_its_fields():
    # class_graph hands its arrays over without the checks of a hand-built
    # graph: they must be what those checks make of the same fields
    for n in range(2, 11):
        for control, target in itertools.permutations(range(1, n + 1), 2):
            partition = partition_vertices(n, GatePlacement(control, target))
            for which in ("phi1", "phi2"):
                graph = class_graph(partition, which)
                built = ClassGraph(**{field.name: getattr(graph, field.name)
                                      for field in dataclasses.fields(graph)})
                assert graph == built
                assert (hash(graph), repr(graph)) == (hash(built), repr(built))
                for name in ("_verts", "_ends"):
                    adopted, checked = getattr(graph, name), getattr(built, name)
                    assert adopted.dtype == checked.dtype and np.array_equal(adopted, checked)
                    assert not adopted.flags.writeable and not checked.flags.writeable


def _relabelled(rnd, parts):
    """Disjoint copies of graphs on 0..k-1, given as edge lists, under one
    random one-to-one relabelling to signed 62-bit labels, both in random order."""
    vertices, edges = [], []
    for part in parts:
        k = 1 + max(max(edge) for edge in part)
        edges += [(u + len(vertices), v + len(vertices)) for u, v in part]
        vertices += range(len(vertices), len(vertices) + k)
    labels = rnd.sample(range(-2 ** 61, 2 ** 61), len(vertices))
    vertices = [labels[v] for v in vertices]
    edges = [tuple(sorted((labels[u], labels[v]))) for u, v in edges]
    rnd.shuffle(vertices)
    rnd.shuffle(edges)
    return tuple(vertices), tuple(edges)


@st.composite
def _regular_graphs(draw):
    """A hand-built (n-1)-regular graph as (n, vertices, edges), and how many
    components it has: one or two cycles of up to 2^12 vertices (n = 3), K4s
    (n = 4) or cubes Q_m (n = m + 1); or no vertex at all."""
    kind = draw(st.sampled_from(("cycle", "k4", "cube", "empty")))
    if kind == "empty":
        return draw(st.integers(2, 6)), (), (), 0
    copies = draw(st.integers(1, 2))
    if kind == "cycle":
        sizes = [draw(st.integers(3, 2 ** 12)) for _ in range(copies)]
        n, parts = 3, [[(i, (i + 1) % k) for i in range(k)] for k in sizes]
    elif kind == "k4":
        n, parts = 4, [list(itertools.combinations(range(4), 2))] * copies
    else:
        m = draw(st.integers(1, 6))
        n, parts = m + 1, [sorted(hypercube_edges(m))] * copies
    return (n, *_relabelled(draw(st.randoms(use_true_random=False)), parts), copies)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_regular_graphs())
def test_is_connected_agrees_with_breadth_first_search(case):
    n, vertices, edges, components = case
    graph = ClassGraph(n, GatePlacement(1, 2), "phi1", vertices, edges)
    assert is_connected(graph) == bfs_connected(vertices, edges) == (components <= 1)


def test_is_connected_is_no_slower_than_breadth_first_search():
    # taking the least label of the neighbours and jumping once a round needs
    # a round per step of the diameter, 2^15 on this cycle, and about 150
    # times as long as the search; hooking roots and jumping fully needs O(log V)
    vertices, edges = _relabelled(random.Random(16), [[(i, (i + 1) % 2 ** 16)
                                                       for i in range(2 ** 16)]])
    graph = ClassGraph(3, GatePlacement(1, 2), "phi1", vertices, edges)
    times = {}
    for check, args in ((is_connected, (graph,)), (bfs_connected, (vertices, edges))):
        for _ in range(3):
            start = time.perf_counter()
            assert check(*args)
            times[check] = min(times.get(check, math.inf), time.perf_counter() - start)
    assert times[is_connected] <= 4 * times[bfs_connected]


def test_is_connected_on_disjoint_copies_and_repeats():
    placement, k4 = GatePlacement(1, 2), list(itertools.combinations(range(4), 2))
    two_cycles = ClassGraph(3, placement, "phi1", tuple(range(6)),
                            ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    two_k4 = ClassGraph(4, placement, "phi1", tuple(range(8)),
                        tuple(k4 + [(u + 4, v + 4) for u, v in k4]))
    assert not is_connected(two_cycles) and not is_connected(two_k4)
    # a vertex listed twice is one vertex, and a repeated edge one edge
    square = ClassGraph(3, placement, "phi1", (0, 0, 1, 6, 7),
                        ((0, 1), (0, 6), (1, 7), (6, 7)))
    assert is_connected(square)
    assert is_connected(ClassGraph(3, placement, "phi1", (0, 3, 5, 6),
                                   ((0, 3), (0, 3), (5, 6), (5, 6)))) is False
    assert is_connected(ClassGraph(2, placement, "phi1", (), ()))


def test_hypercube_match_counts_a_repeated_edge_once():
    # a repeated edge keeps the degrees the repeat would need: (0, 1) and
    # (6, 7) twice each, against Q2's four edges
    g = ClassGraph(3, GatePlacement(1, 2), "phi1", vertices=(0, 1, 6, 7),
                   edges=((0, 1), (0, 1), (6, 7), (6, 7)))
    match = is_hypercube_isomorphic(g)
    assert (match.is_isomorphic, match.failure) == cube_match_oracle(3, 2, g.vertices, g.edges)
    assert match.failure == "edge sets differ after relabeling: 0 extra, 2 missing"


def test_drop_target_bit():
    # n=4, target=2: 1011 -> 111
    assert drop_target_bit(0b1011, 4, 2) == 0b111
    assert drop_target_bit(0b1111, 4, 1) == 0b111
    assert drop_target_bit(0b1110, 4, 4) == 0b111
    assert drop_target_bit(0b101, 3, 2) == 0b11


@pytest.mark.parametrize("target", [0, 4, -1])
def test_drop_target_bit_takes_slots_1_to_n_only(target):
    # target 0 returned the index unchanged, and target n + 1 was a negative shift
    for vertex in (5, np.arange(8)):
        with pytest.raises(ValueError) as info:
            drop_target_bit(vertex, 3, target)
        assert str(info.value) == f"qubit slot must lie in 1..3, got {target!r}"


def test_hypercube_match_small():
    p = partition_vertices(3, GatePlacement(1, 2))
    for which in ("phi1", "phi2"):
        match = is_hypercube_isomorphic(class_graph(p, which))
        assert match.is_isomorphic
        assert match.dimension == 2
        assert match.failure is None
        mapping = dict(match.vertex_map)
        assert sorted(mapping.values()) == [0, 1, 2, 3]


def test_hypercube_match_against_edge_oracle():
    for n in (3, 4, 5, 6):
        for placement in [GatePlacement(1, 2), GatePlacement(2, n)]:
            p = partition_vertices(n, placement)
            g = class_graph(p, "phi2")
            match = is_hypercube_isomorphic(g)
            assert match.is_isomorphic
            mapping = dict(match.vertex_map)
            mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges}
            assert mapped == hypercube_edges(n - 1)


def test_hypercube_match_detects_tampering():
    # a 2-regular graph on the right vertices that is not the image of Q2
    # under the drop-target relabeling: swap the two diagonals
    g = ClassGraph(3, GatePlacement(1, 2), "phi1",
                   vertices=(0, 1, 6, 7),
                   edges=((0, 1), (0, 7), (1, 6), (6, 7)))
    match = is_hypercube_isomorphic(g)
    assert not match.is_isomorphic
    assert match.failure is not None


def test_hypercube_match_needs_a_bijection_not_a_cover():
    # every n-bit vertex with the flips of the non-target bits: (n-1)-regular,
    # and every image edge is a Q_(n-1) edge, but each image is hit twice
    n, target = 4, 3
    flips = [1 << b for b in range(n) if b != n - target]
    edges = tuple((v, v | f) for v in range(2 ** n) for f in flips if not v & f)
    g = ClassGraph(n, GatePlacement(1, target), "phi1", tuple(range(2 ** n)), edges)
    match = is_hypercube_isomorphic(g)
    assert (match.is_isomorphic, match.failure) == cube_match_oracle(n, target, g.vertices, edges)
    assert match.failure == "relabeling is not a bijection onto the (n-1)-bit strings"


def test_class_graph_degree_validated():
    with pytest.raises(ValueError):
        ClassGraph(3, GatePlacement(1, 2), "phi1",
                   vertices=(0, 1, 6, 7), edges=((0, 1), (6, 7)))


def test_class_graph_takes_labels_past_the_membership_table():
    # a 4-cycle on labels as far apart as int64 allows: one search of the
    # sorted vertices places each end, for its membership and its degree
    wide, top = 1 << 61, (1 << 63) - 1
    vertices = (top, -wide, wide, -top - 1)
    edges = ((-top - 1, -wide), (-wide, wide), (wide, top), (-top - 1, top))
    graph = ClassGraph(3, GatePlacement(1, 2), "phi1", vertices, edges)
    assert graph._verts.tolist() == sorted(vertices)
    assert graph._ends.tolist() == sorted(map(list, edges))
    with pytest.raises(ValueError, match=f"^edge endpoint {top} is not in the class$"):
        ClassGraph(3, GatePlacement(1, 2), "phi1", vertices[1:], edges)
    with pytest.raises(ValueError, match="^every vertex must have degree 2$"):
        ClassGraph(3, GatePlacement(1, 2), "phi1", vertices, edges[:3])


def test_class_graph_foreign_vertex_is_value_error():
    wide = 1 << 61  # labels past numpy's table range for membership tests
    cases = [((0, 3), ((0, 2),), 2),
             ((-wide, 5, wide), ((-wide, 5), (5, wide - 1)), wide - 1),
             ((-wide, wide), ((-wide - 1, wide),), -wide - 1),
             ((-wide, wide), ((-wide, wide + 1),), wide + 1),
             ((), ((4, 7),), 4)]
    for vertices, edges, foreign in cases:
        with pytest.raises(ValueError, match=f"^edge endpoint {foreign} is not in the class$"):
            ClassGraph(2, GatePlacement(1, 2), "phi1", vertices=vertices, edges=edges)
    # the first bad edge decides, and its order is checked before its ends
    for vertices, edges in (((-wide, wide), ((wide + 3, wide),)), ((), ((1, 0), (0, 1)))):
        with pytest.raises(ValueError, match=r"^edges must be \(low, high\) pairs$"):
            ClassGraph(2, GatePlacement(1, 2), "phi1", vertices, edges)


def test_class_graph_refuses_labels_it_would_parse_or_truncate():
    # an int64 array reads "3" as 3 and cuts 0.5 to 0; a label it does not hold
    # exactly is refused, in the vertices or in the edges, with no numpy warning
    # (numpy before 1.25 warns when it compares a str array with an int array)
    for vertices, edges in (((0.5, 3), ((0, 3),)), (("0", "3"), ((0, 3),)),
                            ((0, 3), ((0.5, 3),)), ((0, 3), (("0", "3"),))):
        with warnings.catch_warnings(), pytest.raises(
                ValueError, match="^vertex labels must be integers$"):
            warnings.simplefilter("error")
            ClassGraph(2, GatePlacement(1, 2), "phi1", vertices, edges)
    exact = ClassGraph(2, GatePlacement(1, 2), "phi1", (0.0, np.int8(3)), ((0, 3.0),))
    assert (exact._verts.tolist(), exact._ends.tolist()) == ([0, 3], [[0, 3]])


def test_intersection_summary_examples():
    two = intersection_summary(partition_vertices(2, GatePlacement(1, 2)))
    assert two.shared_vertices == 0
    assert two.crossing_edges == 4
    assert two.ambient_edges == 4
    three = intersection_summary(partition_vertices(3, GatePlacement(1, 2)))
    assert three.shared_vertices == 0
    assert three.crossing_edges == 8
    assert three.ambient_edges == 12


def test_intersection_summary_law():
    for n in (2, 4, 7, 10):
        p = partition_vertices(n, GatePlacement(1, n))
        summary = intersection_summary(p)
        assert summary.shared_vertices == 0
        assert summary.crossing_edges == 2 ** n
        assert summary.ambient_edges == n * 2 ** (n - 1)


def test_crossing_edges_flip_control_or_target():
    n, control, target = 4, 2, 3
    p = partition_vertices(n, GatePlacement(control, target))
    placed = {1 << (n - control), 1 << (n - target)}
    for v in range(2 ** n):
        for b in range(n):
            if v & (1 << b):
                continue
            u = v | (1 << b)
            crosses = (v in p.class_phi1) != (u in p.class_phi1)
            assert crosses == ((1 << b) in placed)


def test_intersection_summary_builds_no_edge_table():
    # the n = 20 cube's (E, 2) edge table alone is 160 MiB
    p = partition_vertices(20, GatePlacement(3, 17))
    tracemalloc.start()
    try:
        summary = intersection_summary(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (summary.crossing_edges, summary.ambient_edges) == (2 ** 20, 20 * 2 ** 19)
    assert peak <= 16 * 2 ** 20


def test_partition_to_text():
    p = partition_vertices(3, GatePlacement(1, 2))
    assert partition_to_text(p) == (
        "n=3 control=1 target=2\n"
        "phi1: 000 001 110 111\n"
        "phi2: 010 011 100 101\n")


# --- PAPER.md laws as properties, n <= 12 and every placement ----------------

_placements = st.integers(2, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(1, n + 1)).map(lambda q: q[:2])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_placements)
def test_classes_are_bit_agreement_sets(case):
    n, (control, target) = case
    p = partition_vertices(n, GatePlacement(control, target))
    assert p.class_phi1 == xnor_class(n, control, target, True)
    assert p.class_phi2 == xnor_class(n, control, target, False)
    swapped = partition_vertices(n, GatePlacement(target, control))
    assert (swapped.class_phi1, swapped.class_phi2) == (p.class_phi1, p.class_phi2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_placements)
def test_each_class_graph_is_a_hypercube(case):
    n, (control, target) = case
    p = partition_vertices(n, GatePlacement(control, target))
    for which in ("phi1", "phi2"):
        g = class_graph(p, which)
        match = is_hypercube_isomorphic(g)
        assert match.is_isomorphic and match.failure is None
        mapping = dict(match.vertex_map)
        assert sorted(mapping) == list(g.vertices)
        assert sorted(mapping.values()) == list(range(2 ** (n - 1)))
        mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges}
        assert len(g.edges) == len(mapped) == len(hypercube_edges(n - 1))
        assert mapped == hypercube_edges(n - 1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_placements)
def test_crossing_edges_are_the_placed_flips(case):
    n, (control, target) = case
    p = partition_vertices(n, GatePlacement(control, target))
    crossing = 0
    for u, v in hypercube_edges(n):
        flipped = [k + 1 for k, (a, b) in enumerate(zip(bitstring(u, n), bitstring(v, n)))
                   if a != b]
        crosses = (u in p.class_phi1) != (v in p.class_phi1)
        assert crosses == (flipped[0] in (control, target))
        crossing += crosses
    summary = intersection_summary(p)
    assert summary.crossing_edges == crossing == 2 ** n
    assert summary.shared_vertices == 0
    assert summary.ambient_edges == len(hypercube_edges(n))


_small_placements = st.integers(2, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(1, n + 1)).map(lambda q: q[:2])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_placements, st.sampled_from(("phi1", "phi2")), st.integers(0, 3),
       st.booleans(), st.randoms(use_true_random=False))
def test_hypercube_match_agrees_with_the_oracle_on_tampered_classes(
        case, which, switches, collide, rnd):
    n, (control, target) = case
    placement = GatePlacement(control, target)
    g = class_graph(partition_vertices(n, placement), which)
    vertices, edges = list(g.vertices), list(g.edges)
    for _ in range(switches if len(edges) > 1 else 0):
        # (a, b), (c, d) -> (a, d), (c, b) keeps every degree
        i, j = rnd.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j][::rnd.choice((1, -1))]
        if a != d and c != b:
            edges[i], edges[j] = (min(a, d), max(a, d)), (min(c, b), max(c, b))
    if collide:
        # put u's twin across the target bit in place of v: same degrees, but
        # two vertices share an image and v's image is left out
        v, u = rnd.sample(vertices, 2)
        w = u ^ (1 << (n - target))
        vertices[vertices.index(v)] = w
        edges = [tuple(sorted(w if x == v else x for x in e)) for e in edges]
    graph = ClassGraph(n, placement, which, tuple(vertices), tuple(edges))
    match = is_hypercube_isomorphic(graph)
    assert match.dimension == n - 1
    assert (match.is_isomorphic, match.failure) == cube_match_oracle(n, target, vertices, edges)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_small_placements, st.sampled_from(("phi1", "phi2")), st.data())
def test_hypercube_check_on_move_counts_agrees_with_the_oracle(case, which, data):
    # the check as `partition --check-hypercube` runs it: one move per run, with its
    # number of edges. Every real class passes, so the failing inputs are made here:
    # moves dropped, moves added (the target or control bit alone, or any bits), and
    # vertices swapped for their twins across the target or control bit
    n, (control, target) = case
    t_bit, c_bit = 1 << (n - target), 1 << (n - control)
    verts, runs = _class_arrays(partition_vertices(n, GatePlacement(control, target)), which)

    def edges(vertices, move):
        kept = set(vertices)
        return [(v, v ^ move) for v in vertices if v < v ^ move and v ^ move in kept]

    own = [move for move, _ in runs]
    assert runs == [(move, len(edges(verts.tolist(), move))) for move in own]
    dropped = data.draw(st.sets(st.sampled_from(own), max_size=2))
    added = data.draw(st.sets(st.one_of(st.sampled_from((t_bit, c_bit)),
                                        st.integers(1, (1 << n) - 1)), max_size=2))
    swapped = data.draw(st.sets(st.sampled_from(verts.tolist()), max_size=2))
    twin = data.draw(st.sampled_from((t_bit, c_bit)))
    vertices = sorted({v ^ twin if v in swapped else v for v in verts.tolist()})
    by_move = {move: edges(vertices, move) for move in (set(own) - dropped) | added}
    failure = _hypercube_failure(n, target, np.array(vertices),
                                 [(move, len(found)) for move, found in by_move.items()])
    oracle = cube_match_oracle(n, target, vertices,
                               [e for found in by_move.values() for e in found])
    assert (failure is None, failure) == oracle


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(2, 9))
def test_partition_text_matches_a_line_by_line_writer_at_every_placement(n):
    for control in range(1, n + 1):
        for target in range(1, n + 1):
            if control != target:
                partition = partition_vertices(n, GatePlacement(control, target))
                assert partition_to_text(partition) == reference_partition_text(n, control, target)
