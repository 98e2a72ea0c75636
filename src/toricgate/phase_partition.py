"""Vertex classes a diagonal controlled-phase gate carves out of the n-cube.

The gate's two phases split the 2^n basis strings by whether the control
and target bits agree. Each class, equipped with single-bit moves on the
free coordinates plus the joint control-target flip, is a copy of the
(n-1)-cube; the two copies meet no vertex and cross through exactly the
ambient cube edges that toggle one of the two distinguished bits.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .bits import MAX_QUBITS, bitstring, cube_edges, pair_view, qubit_mask
from .statevec import GatePlacement, _check_placement


@dataclass(frozen=True)
class PhasePartition:
    """The two phase classes induced by one gate placement.

    Vertices are basis indices with qubit 1 as the most significant bit,
    mirroring the state-vector convention.
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
        all_members = self.class_phi1 | self.class_phi2
        if min(all_members) < 0 or max(all_members) >= 1 << n:
            raise ValueError("class members must be n-bit indices")


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
        degree = {v: 0 for v in self.vertices}
        try:
            for u, v in self.edges:
                if u >= v:
                    raise ValueError("edges must be (low, high) pairs")
                degree[u] += 1
                degree[v] += 1
        except KeyError as exc:
            raise ValueError(f"edge endpoint {exc} is not in the class") from None
        want = self.n_qubits - 1
        if any(d != want for d in degree.values()):
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


def partition_vertices(n_qubits: int, placement: GatePlacement) -> PhasePartition:
    """Split the n-bit strings by agreement of the control and target bits."""
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in 2..{MAX_QUBITS}")
    _check_placement(placement, n_qubits)
    agree = np.zeros(1 << n_qubits, dtype=bool)
    view = pair_view(agree, placement.control, placement.target)
    view[:, 0, :, 0, :] = view[:, 1, :, 1, :] = True
    phi1, phi2 = np.flatnonzero(agree).tolist(), np.flatnonzero(~agree).tolist()
    return PhasePartition(n_qubits, placement, frozenset(phi1), frozenset(phi2))


def class_graph(partition: PhasePartition, which: str) -> ClassGraph:
    """Adjacency on one class: flip one bit outside the placement, or flip
    control and target together (the diagonal move)."""
    if which not in ("phi1", "phi2"):
        raise ValueError("which must be 'phi1' or 'phi2'")
    members = partition.class_phi1 if which == "phi1" else partition.class_phi2
    n, placement = partition.n_qubits, partition.placement
    diagonal = qubit_mask(placement.control, n) | qubit_mask(placement.target, n)
    moves = [qubit_mask(q, n) for q in range(1, n + 1) if not qubit_mask(q, n) & diagonal]
    verts = np.sort(np.fromiter(members, dtype=np.int64, count=len(members)))
    # every move keeps the placed bits' agreement, so stays in the class;
    # each edge is kept once, from its low end, and rows come out sorted
    ends = np.sort(verts[:, None] ^ np.array(moves + [diagonal]), axis=1)
    low_end = verts[:, None] < ends
    lows = np.broadcast_to(verts[:, None], ends.shape)[low_end]
    return ClassGraph(n, placement, which, tuple(verts.tolist()),
                      tuple(zip(lows.tolist(), ends[low_end].tolist())))


def drop_target_bit(vertex: int | np.ndarray, n_qubits: int, target: int) -> int | np.ndarray:
    """Delete the target-slot bit from an index (or an index array), closing the gap."""
    low = qubit_mask(target, n_qubits) - 1
    return (vertex >> 1) & ~low | vertex & low


def is_hypercube_isomorphic(graph: ClassGraph) -> HypercubeMatch:
    """Match a class graph against Q_{n-1} via the drop-the-target-bit relabeling.

    The relabeling must be a bijection onto {0,1}^(n-1) and must carry the
    edge set exactly onto the pairs at Hamming distance one. On failure the
    returned match carries a short certificate instead of a witness.
    """
    n, target = graph.n_qubits, graph.placement.target
    m = n - 1
    verts = np.array(sorted(set(graph.vertices)), dtype=np.int64)
    images = drop_target_bit(verts, n, target)
    witness = tuple(zip(verts.tolist(), images.tolist()))
    if set(images.tolist()) != set(range(1 << m)):
        return HypercubeMatch(False, m, witness,
                              "relabeling is not a bijection onto the (n-1)-bit strings")
    ends = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    # distinct (low, high) image pairs as sorted integers (np.unique hashes, ~20x slower)
    keys = np.sort(np.sort(drop_target_bit(ends, n, target), axis=1) @ [1 << m, 1])
    mapped_keys = keys[np.diff(keys, prepend=-1) != 0]
    cube_keys = cube_edges(m) @ [1 << m, 1]
    extra = np.setdiff1d(mapped_keys, cube_keys, assume_unique=True).size
    missing = np.setdiff1d(cube_keys, mapped_keys, assume_unique=True).size
    if extra or missing:
        return HypercubeMatch(
            False, m, witness,
            f"edge sets differ after relabeling: {extra} extra, {missing} missing")
    return HypercubeMatch(True, m, witness)


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

    Crossings are counted over every edge of `cube_edges`; for every
    placement the classes share no vertex and the crossing edges are
    exactly those flipping the control or the target bit, 2^n of them.
    """
    phi1, phi2 = partition.class_phi1, partition.class_phi2
    in_phi1 = np.zeros(1 << partition.n_qubits, dtype=bool)
    in_phi1[list(phi1)] = True
    edges = cube_edges(partition.n_qubits)
    crossing = int(np.count_nonzero(in_phi1[edges[:, 0]] != in_phi1[edges[:, 1]]))
    return IntersectionSummary(len(phi1 & phi2), crossing, len(edges))


def partition_to_text(partition: PhasePartition) -> str:
    """Header `n=<int> control=<int> target=<int>`, then one line per class."""
    n = partition.n_qubits
    placement = partition.placement
    lines = [f"n={n} control={placement.control} target={placement.target}"]
    for name, members in (("phi1", partition.class_phi1),
                          ("phi2", partition.class_phi2)):
        lines.append(f"{name}: " + " ".join(bitstring(v, n) for v in sorted(members)))
    return "\n".join(lines) + "\n"
