"""Vertex classes a diagonal controlled-phase gate carves out of the n-cube.

The gate's two phases split the 2^n basis strings by whether the control
and target bits agree. Each class, equipped with single-bit moves on the
free coordinates plus the joint control-target flip, is a copy of the
(n-1)-cube; the two copies meet no vertex and cross through exactly the
ambient cube edges that toggle one of the two distinguished bits.

A partition is its agreement mask, and each class is checked against Q_(n-1)
one move direction at a time: the relabeling is linear over GF(2), so a move's
edges are counted, not built. No class set, edge table or sort is built unless asked for.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import MAX_QUBITS, _adopt, _integer, label_fields, qubit_mask, row_blocks, table_text
from .statevec import _BLOCK, GatePlacement, _agreement, _check_placement, _check_qubit_count

# class graphs hold (n-1)*2^(n-2) edge tuples: `class_graph`, `is_connected` and
# `is_hypercube_isomorphic` of one class peak at 501 MiB at n = 19, 1021 MiB at 20
MAX_GRAPH_QUBITS = 19


@dataclass(frozen=True)
class PhasePartition:
    """The two phase classes induced by one gate placement.

    Vertices are basis indices with qubit 1 as the most significant bit,
    mirroring the state-vector convention. The classes follow from the two
    fields: `class_phi1` holds the indices whose control and target bits agree
    and `class_phi2` the rest. The agreement mask is kept as the read-only
    `_agree`, the one source the counts, texts and drawings are made from;
    each class set is built from it the first time it is read. The mask is
    expanded from `statevec._agreement`, the one kernel the gate reads too.
    """

    n_qubits: int
    placement: GatePlacement

    def __post_init__(self) -> None:
        n = _check_qubit_count(self.n_qubits)
        within, firsts = _agreement(self.placement, n, min(_BLOCK, 1 << n))
        agree = (firsts[:, None] == within).ravel()
        agree.flags.writeable = False
        self.__dict__.update(n_qubits=n, _agree=agree)  # frozen: set as `_adopt` sets fields

    @cached_property
    def class_phi1(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._agree).tolist())

    @cached_property
    def class_phi2(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(~self._agree).tolist())


@dataclass(frozen=True)
class ClassGraph:
    """One phase class with free-bit edges plus the control-target diagonal.

    Edges are (low, high) index pairs; every vertex has degree n-1. Graphs
    of more than `MAX_GRAPH_QUBITS` qubits are refused. The validated arrays
    are kept as the read-only `_verts` and `_ends` (distinct and ascending,
    an edge a row), which `class_graph` hands over as built and
    `is_connected` and `is_hypercube_isomorphic` read.
    """

    n_qubits: int
    placement: GatePlacement
    phase_class: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _check_graph_qubits(self.n_qubits))
        _check_placement(self.placement, self.n_qubits)
        if self.phase_class not in ("phi1", "phi2"):
            raise ValueError("phase_class must be 'phi1' or 'phi2'")
        verts, ends = (np.array(labels, dtype=np.int64) for labels in (self.vertices, self.edges))
        given = (np.array(labels, dtype=object) for labels in (self.vertices, self.edges))
        if not all(map(np.array_equal, (verts, ends), given)):  # numpy < 1.25 warns on str == int
            raise ValueError("vertex labels must be integers")  # not "3" read as 3, 3.5 cut to 3
        verts, ends = np.unique(verts), ends.reshape(-1, 2)
        at = np.searchsorted(verts, ends)  # where each end is, or would go, among the vertices
        foreign = verts.take(at, mode="clip") != ends if verts.size else np.ones(ends.shape, bool)
        unordered = ends[:, 0] >= ends[:, 1]
        # the first bad edge decides the message: its order, then its ends
        for i in np.flatnonzero(unordered | foreign.any(axis=1))[:1]:
            if unordered[i]:
                raise ValueError("edges must be (low, high) pairs")
            raise ValueError(f"edge endpoint {ends[i][foreign[i]][0]} is not in the class")
        want = self.n_qubits - 1
        degree = np.bincount(at.ravel(), minlength=verts.size)
        if (degree != want).any():
            raise ValueError(f"every vertex must have degree {want}")
        ends = ends[np.lexsort(ends.T[::-1])]
        ends = ends[np.diff(ends, axis=0, prepend=ends[:1] - 1).any(axis=1)]
        verts.flags.writeable = ends.flags.writeable = False
        self.__dict__.update(_verts=verts, _ends=ends)  # frozen: set as `_adopt` sets fields

    def diagonal_mask(self) -> int:
        n = self.n_qubits
        return qubit_mask(self.placement.control, n) | qubit_mask(self.placement.target, n)

    def diagonal_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges that flip the control and target bits together."""
        mask = self.diagonal_mask()
        return tuple(e for e in self.edges if e[0] ^ e[1] == mask)


@dataclass(frozen=True)
class HypercubeMatch:
    """Outcome of matching a class graph against the standard hypercube Q_m."""

    is_isomorphic: bool
    dimension: int
    vertex_map: tuple[tuple[int, int], ...]
    failure: str | None = None


@dataclass(frozen=True)
class IntersectionSummary:
    """How the two class structures meet inside the ambient cube."""

    shared_vertices: int
    crossing_edges: int
    ambient_edges: int


def _check_graph_qubits(n_qubits: int) -> int:
    """A class graph's qubit count as an `int`, from 2 to `MAX_GRAPH_QUBITS`."""
    if (n := _integer(n_qubits, f"n_qubits must lie in 2..{MAX_QUBITS}", 2)) > MAX_GRAPH_QUBITS:
        raise ValueError(f"n_qubits {n}: class graphs are capped at {MAX_GRAPH_QUBITS} qubits")
    return n


partition_vertices = PhasePartition  # split the n-bit strings by agreement of the placed bits


def _class_arrays(partition: PhasePartition, which: str
                  ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One class as arrays: its vertices in ascending order, and its moves (each
    free bit, then the diagonal) with their edge counts. Every move keeps the
    placed bits' agreement, so stays in the class; each edge is counted at its low
    end, a member in the low half of a block of indices that the move's top bit splits."""
    if which not in ("phi1", "phi2"):
        raise ValueError("which must be 'phi1' or 'phi2'")
    n, placement = partition.n_qubits, partition.placement
    members = partition._agree if which == "phi1" else ~partition._agree
    diagonal = qubit_mask(placement.control, n) | qubit_mask(placement.target, n)
    moves = [qubit_mask(q, n) for q in range(1, n + 1) if not qubit_mask(q, n) & diagonal]
    runs = [(move, np.count_nonzero(members.reshape(-1, 2, 1 << move.bit_length() - 1)[:, 0]))
            for move in moves + [diagonal]]
    return np.flatnonzero(members), runs


def class_graph(partition: PhasePartition, which: str) -> ClassGraph:
    """Adjacency on one class: flip one bit outside the placement, or flip
    control and target together (the diagonal move). Edges come in ascending
    (low, high) order; at most `MAX_GRAPH_QUBITS` qubits."""
    n = partition.n_qubits
    _check_graph_qubits(n)
    verts, runs = _class_arrays(partition, which)
    edges = ((verts[verts < verts ^ move], move) for move, _ in runs)
    keys = np.sort(np.concatenate([(lows << n) | (lows ^ move) for lows, move in edges]))
    ends = np.stack((keys >> n, keys & ((1 << n) - 1)), axis=1)
    verts.flags.writeable = ends.flags.writeable = False
    return _adopt(ClassGraph, n_qubits=n, placement=partition.placement, phase_class=which,
                  vertices=tuple(verts.tolist()), edges=tuple(zip(*ends.T.tolist())),
                  _verts=verts, _ends=ends)


def drop_target_bit(vertex: int | np.ndarray, n_qubits: int, target: int) -> int | np.ndarray:
    """Delete the target-slot bit from an index (or an index array), closing the gap."""
    n_qubits = _integer(n_qubits, f"n_qubits must be at least 1, got {n_qubits!r}", 1)
    target = _integer(target, f"qubit slot must lie in 1..{n_qubits}, got {target!r}", 1, n_qubits)
    low = qubit_mask(target, n_qubits) - 1
    dropped = vertex >> 1
    dropped &= ~low  # in place on an array: one temporary, not three
    dropped |= vertex & low
    return dropped


def is_hypercube_isomorphic(graph: ClassGraph) -> HypercubeMatch:
    """Match a class graph against Q_{n-1} via the drop-the-target-bit relabeling.

    The relabeling must be a bijection onto {0,1}^(n-1) and must carry the
    edge set exactly onto the pairs at Hamming distance one. The match
    carries the relabeling as its witness, and on failure a short
    certificate as well.
    """
    n, target = graph.n_qubits, graph.placement.target
    verts, (lows, highs) = graph._verts, graph._ends.T
    failure = _hypercube_failure(n, target, verts, [(lows ^ highs, 1)])
    witness = tuple(zip(verts.tolist(), drop_target_bit(verts, n, target).tolist()))
    return HypercubeMatch(failure is None, n - 1, witness, failure)


def _hypercube_failure(n: int, target: int, verts: np.ndarray,
                       runs: Iterable[tuple[np.ndarray | int, int]]) -> str | None:
    """Why `is_hypercube_isomorphic` fails, or None, on arrays: the distinct
    vertices in ascending order, and distinct edges, every end a vertex, in
    runs of the bits each edge flips (an array, or one move) and how many
    edges flip each. No witness is built."""
    m = n - 1
    images = drop_target_bit(verts, n, target)
    if (images.size != 1 << m or images.min() < 0 or images.max() >= 1 << m
            or np.bincount(images, minlength=1 << m).min() != 1):
        return "relabeling is not a bijection onto the (n-1)-bit strings"
    del images
    # the relabeling is one-to-one, so distinct edges have distinct image
    # pairs, and it is linear over GF(2): an edge's image ends differ in the
    # image of the bits it flips, a Q_m edge iff that is one bit
    count = present = 0
    for moves, times in runs:
        flip = drop_target_bit(moves, n, target)
        count += times * np.size(flip)
        present += times * int(np.count_nonzero((flip & (flip - 1)) == 0))
    extra, missing = count - present, (m << (m - 1)) - present
    if extra or missing:
        return f"edge sets differ after relabeling: {extra} extra, {missing} missing"
    return None


def is_connected(graph: ClassGraph) -> bool:
    """Whether the class edges join every vertex (at most `MAX_GRAPH_QUBITS`
    qubits): each round hooks every root to its least smaller neighbouring
    root, then jumps pointers to the roots (Shiloach & Vishkin); O(log V) rounds."""
    _check_graph_qubits(graph.n_qubits)
    parent = np.arange(graph._verts.size)  # by position; a root points at itself
    ends = np.searchsorted(graph._verts, graph._ends)
    while ends.size:  # the edges between two trees
        roots = parent[ends]
        np.minimum.at(parent, roots[:, 0], roots[:, 1])
        np.minimum.at(parent, roots[:, 1], roots[:, 0])
        while not np.array_equal(parent, grand := parent[parent]):
            parent = grand
        ends = ends[parent[ends[:, 0]] != parent[ends[:, 1]]]
    return not parent.any()  # every vertex's root is the first


def intersection_summary(partition: PhasePartition) -> IntersectionSummary:
    """Count shared vertices and the ambient cube edges that change class.

    Crossings are counted on the agreement mask one flip direction at a
    time, with no edge list: the edges flipping qubit q pair the two halves
    of each block of 2^(n-q+1) indices. For every placement the classes
    share no vertex and the crossing edges are exactly those flipping the
    control or the target bit, 2^n of the n * 2^(n-1) edges.
    """
    n, agree = partition.n_qubits, partition._agree
    crossing = 0
    for q in range(1, n + 1):
        halves = agree.reshape(-1, 2, qubit_mask(q, n))
        crossing += int(np.count_nonzero(halves[:, 0] != halves[:, 1]))
    # the classes are the mask and its complement, so they share no vertex
    return IntersectionSummary(0, crossing, n << (n - 1))


def _partition_blocks(partition: PhasePartition) -> Iterator[str]:
    """The text of `partition_to_text`, header first, in blocks."""
    n = partition.n_qubits
    placement = partition.placement
    yield f"n={n} control={placement.control} target={placement.target}\n"
    for name, members in (("phi1", partition._agree), ("phi2", ~partition._agree)):
        yield f"{name}:"
        for block in row_blocks(np.flatnonzero(members)):
            yield table_text([" ", *label_fields(block, n)])
        yield "\n"


def partition_to_text(partition: PhasePartition) -> str:
    """Header `n=<int> control=<int> target=<int>`, then one line per class."""
    return "".join(_partition_blocks(partition))
