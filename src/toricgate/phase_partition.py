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

from .bits import MAX_QUBITS, bitstring
from .statevec import GatePlacement


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
        return (1 << (n - self.placement.control)) | (1 << (n - self.placement.target))

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


def _check_inputs(n_qubits: int, placement: GatePlacement) -> None:
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in 2..{MAX_QUBITS}")
    if placement.control > n_qubits or placement.target > n_qubits:
        raise ValueError(f"placement {placement} is out of range for {n_qubits} qubits")


def partition_vertices(n_qubits: int, placement: GatePlacement) -> PhasePartition:
    """Split the n-bit strings by agreement of the control and target bits."""
    _check_inputs(n_qubits, placement)
    shift_c = n_qubits - placement.control
    shift_t = n_qubits - placement.target
    phi1, phi2 = [], []
    for x in range(1 << n_qubits):
        if ((x >> shift_c) ^ (x >> shift_t)) & 1:
            phi2.append(x)
        else:
            phi1.append(x)
    return PhasePartition(n_qubits, placement, frozenset(phi1), frozenset(phi2))


def class_graph(partition: PhasePartition, which: str) -> ClassGraph:
    """Adjacency on one class: flip one bit outside the placement, or flip
    control and target together (the diagonal move)."""
    if which == "phi1":
        members = partition.class_phi1
    elif which == "phi2":
        members = partition.class_phi2
    else:
        raise ValueError("which must be 'phi1' or 'phi2'")
    n = partition.n_qubits
    placement = partition.placement
    mask_c = 1 << (n - placement.control)
    mask_t = 1 << (n - placement.target)
    free_masks = [1 << k for k in range(n) if 1 << k not in (mask_c, mask_t)]
    diagonal = mask_c | mask_t
    edges: set[tuple[int, int]] = set()
    for v in members:
        for mask in free_masks:
            u = v ^ mask  # stays in the class: the flip leaves both placed bits alone
            edges.add((min(u, v), max(u, v)))
        u = v ^ diagonal
        edges.add((min(u, v), max(u, v)))
    return ClassGraph(n, placement, which,
                      tuple(sorted(members)), tuple(sorted(edges)))


def drop_target_bit(vertex: int, n_qubits: int, target: int) -> int:
    """Delete the target-slot bit from an index, closing the gap."""
    width = n_qubits - target
    high = vertex >> (width + 1)
    low = vertex & ((1 << width) - 1)
    return (high << width) | low


def is_hypercube_isomorphic(graph: ClassGraph) -> HypercubeMatch:
    """Match a class graph against Q_{n-1} via the drop-the-target-bit relabeling.

    The relabeling must be a bijection onto {0,1}^(n-1) and must carry the
    edge set exactly onto the pairs at Hamming distance one. On failure the
    returned match carries a short certificate instead of a witness.
    """
    n = graph.n_qubits
    m = n - 1
    mapping = {v: drop_target_bit(v, n, graph.placement.target)
               for v in graph.vertices}
    witness = tuple(sorted(mapping.items()))
    images = set(mapping.values())
    if images != set(range(1 << m)):
        return HypercubeMatch(False, m, witness,
                              "relabeling is not a bijection onto the (n-1)-bit strings")
    mapped_edges = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                    for u, v in graph.edges}
    cube_edges = {(v, v | (1 << b))
                  for v in range(1 << m) for b in range(m) if not v & (1 << b)}
    if mapped_edges != cube_edges:
        extra = len(mapped_edges - cube_edges)
        missing = len(cube_edges - mapped_edges)
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

    Both counts are found by enumeration; for every placement the classes
    share no vertex and the crossing edges are exactly those flipping the
    control or the target bit, 2^n of them.
    """
    n = partition.n_qubits
    phi1 = partition.class_phi1
    shared = len(partition.class_phi1 & partition.class_phi2)
    crossing = 0
    total = 0
    for v in range(1 << n):
        for b in range(n):
            if v & (1 << b):
                continue
            u = v | (1 << b)
            total += 1
            if (v in phi1) != (u in phi1):
                crossing += 1
    return IntersectionSummary(shared, crossing, total)


def partition_to_text(partition: PhasePartition) -> str:
    """Header `n=<int> control=<int> target=<int>`, then one line per class."""
    n = partition.n_qubits
    placement = partition.placement
    lines = [f"n={n} control={placement.control} target={placement.target}"]
    for name, members in (("phi1", partition.class_phi1),
                          ("phi2", partition.class_phi2)):
        lines.append(f"{name}: " + " ".join(bitstring(v, n) for v in sorted(members)))
    return "\n".join(lines) + "\n"
