"""Vertex classes a diagonal controlled-phase gate carves out of the n-cube.

The gate's two phases split the 2^n basis strings by whether the control
and target bits agree. Each class, equipped with single-bit moves on the
free coordinates plus the joint control-target flip, is a copy of the
(n-1)-cube; the two copies meet no vertex and cross through exactly the
ambient cube edges that toggle one of the two distinguished bits.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bits import MAX_QUBITS, label_fields, pair_view, qubit_mask, row_blocks, table_text
from .statevec import GatePlacement, _check_placement


@dataclass(frozen=True)
class PhasePartition:
    """The two phase classes induced by one gate placement.

    Vertices are basis indices with qubit 1 as the most significant bit,
    mirroring the state-vector convention. `class_phi1` must be the indices
    whose control and target bits agree and `class_phi2` the rest; the
    agreement mask behind that check is kept as the read-only `_agree`, the
    one source the counts, texts and drawings are made from.
    """

    n_qubits: int
    placement: GatePlacement
    class_phi1: frozenset[int]
    class_phi2: frozenset[int]

    def __post_init__(self) -> None:
        n = self.n_qubits
        half = 1 << (n - 1)
        if len(self.class_phi1) != half or len(self.class_phi2) != half:
            raise ValueError("each phase class must hold exactly half the vertices")
        if not self.class_phi1.isdisjoint(self.class_phi2):
            raise ValueError("phase classes must be disjoint")
        if (min(min(self.class_phi1), min(self.class_phi2)) < 0
                or max(max(self.class_phi1), max(self.class_phi2)) >= 1 << n):
            raise ValueError("class members must be n-bit indices")
        agree = _agreement_mask(n, self.placement)
        if not agree[np.fromiter(self.class_phi1, dtype=np.int64, count=half)].all():
            raise ValueError("phase classes must be the agreement sets of the placement")
        object.__setattr__(self, "_agree", agree)


@dataclass(frozen=True)
class ClassGraph:
    """One phase class with free-bit edges plus the control-target diagonal.

    Edges are (low, high) index pairs; every vertex has degree n-1.
    """

    n_qubits: int
    placement: GatePlacement
    phase_class: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.phase_class not in ("phi1", "phi2"):
            raise ValueError("phase_class must be 'phi1' or 'phi2'")
        verts = np.unique(np.array(self.vertices, dtype=np.int64))
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        unordered, foreign = ends[:, 0] >= ends[:, 1], ~np.isin(ends, verts)
        # the first bad edge decides the message: its order, then its ends
        for i in np.flatnonzero(unordered | foreign.any(axis=1))[:1]:
            if unordered[i]:
                raise ValueError("edges must be (low, high) pairs")
            raise ValueError(f"edge endpoint {ends[i][foreign[i]][0]} is not in the class")
        want = self.n_qubits - 1
        degree = np.bincount(np.searchsorted(verts, ends).ravel(), minlength=verts.size)
        if (degree != want).any():
            raise ValueError(f"every vertex must have degree {want}")

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


def _check_qubit_count(n_qubits: int) -> None:
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in 2..{MAX_QUBITS}")


def _agreement_mask(n_qubits: int, placement: GatePlacement) -> np.ndarray:
    """Read-only boolean array over the 2^n indices: control and target bits agree."""
    _check_qubit_count(n_qubits)
    _check_placement(placement, n_qubits)
    agree = np.zeros(1 << n_qubits, dtype=bool)
    view = pair_view(agree, placement.control, placement.target)
    view[:, 0, :, 0, :] = view[:, 1, :, 1, :] = True
    agree.flags.writeable = False
    return agree


def partition_vertices(n_qubits: int, placement: GatePlacement) -> PhasePartition:
    """Split the n-bit strings by agreement of the control and target bits."""
    agree = _agreement_mask(n_qubits, placement)
    phi1, phi2 = np.flatnonzero(agree).tolist(), np.flatnonzero(~agree).tolist()
    return PhasePartition(n_qubits, placement, frozenset(phi1), frozenset(phi2))


def _class_arrays(partition: PhasePartition,
                  which: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One class as arrays: its sorted vertices, and the low and high ends of
    its edges in ascending (low, high) order."""
    if which not in ("phi1", "phi2"):
        raise ValueError("which must be 'phi1' or 'phi2'")
    n, placement = partition.n_qubits, partition.placement
    agree = partition._agree
    verts = np.flatnonzero(agree if which == "phi1" else ~agree)
    diagonal = qubit_mask(placement.control, n) | qubit_mask(placement.target, n)
    moves = [qubit_mask(q, n) for q in range(1, n + 1) if not qubit_mask(q, n) & diagonal]
    # every move keeps the placed bits' agreement, so stays in the class;
    # each edge is kept once, from its low end, and rows come out sorted
    ends = np.sort(verts[:, None] ^ np.array(moves + [diagonal]), axis=1)
    low_end = verts[:, None] < ends
    return verts, np.broadcast_to(verts[:, None], ends.shape)[low_end], ends[low_end]


def class_graph(partition: PhasePartition, which: str) -> ClassGraph:
    """Adjacency on one class: flip one bit outside the placement, or flip
    control and target together (the diagonal move)."""
    verts, lows, highs = _class_arrays(partition, which)
    return ClassGraph(partition.n_qubits, partition.placement, which, tuple(verts.tolist()),
                      tuple(zip(lows.tolist(), highs.tolist())))


def drop_target_bit(vertex: int | np.ndarray, n_qubits: int, target: int) -> int | np.ndarray:
    """Delete the target-slot bit from an index (or an index array), closing the gap."""
    low = qubit_mask(target, n_qubits) - 1
    return (vertex >> 1) & ~low | vertex & low


def is_hypercube_isomorphic(graph: ClassGraph) -> HypercubeMatch:
    """Match a class graph against Q_{n-1} via the drop-the-target-bit relabeling.

    The relabeling must be a bijection onto {0,1}^(n-1) and must carry the
    edge set exactly onto the pairs at Hamming distance one. The match
    carries the relabeling as its witness, and on failure a short
    certificate as well.
    """
    n, target = graph.n_qubits, graph.placement.target
    verts = np.unique(np.array(graph.vertices, dtype=np.int64))
    ends = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    failure = _hypercube_failure(n, target, verts, ends[:, 0], ends[:, 1])
    witness = tuple(zip(verts.tolist(), drop_target_bit(verts, n, target).tolist()))
    return HypercubeMatch(failure is None, n - 1, witness, failure)


def _hypercube_failure(n: int, target: int, verts: np.ndarray, lows: np.ndarray,
                       highs: np.ndarray) -> str | None:
    """Why `is_hypercube_isomorphic` fails, or None, on arrays: the distinct
    vertices in ascending order, and the low and high ends of every edge,
    both of them vertices. No witness is built."""
    m = n - 1
    images = drop_target_bit(verts, n, target)
    if (images.size != 1 << m or images.min() < 0 or images.max() >= 1 << m
            or np.bincount(images, minlength=1 << m).min() != 1):
        return "relabeling is not a bijection onto the (n-1)-bit strings"
    a, b = drop_target_bit(lows, n, target), drop_target_bit(highs, n, target)
    # distinct image pairs as sorted integers (np.unique hashes, ~20x slower); the
    # stable sort (timsort) uses the long ascending runs the relabeling leaves
    keys = np.sort(np.minimum(a, b) << m | np.maximum(a, b), kind="stable")
    keys = keys[np.diff(keys, prepend=-1) != 0]
    # a pair is a Q_m edge iff its ends differ in exactly one bit; they differ
    # in some bit, as an edge joins two vertices and the relabeling is one-to-one
    flip = (keys >> m) ^ (keys & ((1 << m) - 1))
    present = int(np.count_nonzero((flip & (flip - 1)) == 0))
    extra, missing = keys.size - present, (m << (m - 1)) - present
    if extra or missing:
        return f"edge sets differ after relabeling: {extra} extra, {missing} missing"
    return None


def is_connected(graph: ClassGraph) -> bool:
    """Breadth-first reachability over the class edges."""
    if not graph.vertices:
        return True
    adjacency: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {graph.vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(graph.vertices)


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
        halves = agree.reshape(1 << (q - 1), 2, -1)
        crossing += int(np.count_nonzero(halves[:, 0] != halves[:, 1]))
    shared = len(partition.class_phi1 & partition.class_phi2)
    return IntersectionSummary(shared, crossing, n << (n - 1))


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
