"""Deterministic SVG and DOT drawings of phase-partitioned cube skeletons.

Output is byte-reproducible: vertices are walked in ascending index order,
edges in sorted order, and every coordinate is printed with a fixed format.
The SVG canvas is an 800x800 viewBox with a 40 px margin; the ambient cube
skeleton is drawn in neutral gray, 1.5 wide, with the two class structures on
top, 3 wide, diagonal (control-target) moves dashed. A DOT edge line is its low
end's line `  "<low>" -- "<low>"` with the bytes of its move's bits flipped,
and its blocks are written to a file as the uint8 arrays they are built in.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .bits import (_laid_out, bitstring, cube_edge_moves, label_fields, qubit_mask, row_blocks,
                   vocabulary)
from .phase_partition import PhasePartition, class_graph

CANVAS = 800.0
MARGIN = 40.0
LABEL_SIZE = 14
PHI1_COLOR = "#1f77b4"
PHI2_COLOR = "#d62728"
AMBIENT_COLOR = "#999999"

PROJECTIONS = {"square": 2, "cube-isometric": 3, "tesseract-nested": 4}
MAX_DOT_QUBITS = 20  # bounds the file, 610 MiB at n = 20; the run peaks at about 40 MiB

_ISO_AXES = ((1.0, 0.0), (0.5, -0.5), (0.0, -1.0))
_ISO_CENTER = (0.75, -0.75)
_INNER_SCALE = 0.5


def _svg_projection(n_qubits: int) -> str:
    """The projection of an n-qubit SVG, or ValueError for none."""
    by_n = {n: name for name, n in PROJECTIONS.items()}
    if n_qubits not in by_n:
        raise ValueError(f"no SVG projection for {n_qubits} qubits (supported: 2, 3, 4)")
    return by_n[n_qubits]


def _isometric(bits3: list[int]) -> tuple[float, float]:
    x = y = 0.0
    for bit, (ax, ay) in zip(bits3, _ISO_AXES):
        x += bit * ax
        y += bit * ay
    return x, y


def project_vertex(bits: str, projection: str) -> tuple[float, float]:
    """Planar position of one cube vertex under the named projection.

    square           : (x, y) = (bit2, 1 - bit1)
    cube-isometric   : bit-weighted sum of the axes (1,0), (0.5,-0.5), (0,-1)
    tesseract-nested : isometric cube of bits 2..4, shrunk about the cube
                       center by 1/2 when bit1 = 0
    """
    if projection not in PROJECTIONS:
        raise ValueError(f"unknown projection {projection!r}")
    if len(bits) != PROJECTIONS[projection] or set(bits) - {"0", "1"}:
        raise ValueError(
            f"projection {projection!r} needs a {PROJECTIONS[projection]}-bit string, "
            f"got {bits!r}")
    b = [int(ch) for ch in bits]
    if projection == "square":
        return float(b[1]), 1.0 - float(b[0])
    if projection == "cube-isometric":
        return _isometric(b)
    x, y = _isometric(b[1:])
    scale = _INNER_SCALE if b[0] == 0 else 1.0
    cx, cy = _ISO_CENTER
    return cx + scale * (x - cx), cy + scale * (y - cy)


def _canvas_points(n: int, projection: str) -> dict[int, tuple[float, float]]:
    raw = {v: project_vertex(bitstring(v, n), projection) for v in range(1 << n)}
    xs = [p[0] for p in raw.values()]
    ys = [p[1] for p in raw.values()]
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    span = max(width, height) or 1.0
    scale = (CANVAS - 2.0 * MARGIN) / span
    off_x = (CANVAS - scale * width) / 2.0 - scale * min(xs)
    off_y = (CANVAS - scale * height) / 2.0 - scale * min(ys)
    return {v: (scale * x + off_x, scale * y + off_y) for v, (x, y) in raw.items()}


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_partition_svg(partition: PhasePartition) -> str:
    """Standalone SVG of the partitioned cube skeleton, for 2, 3 or 4 qubits
    (the square, isometric cube or nested tesseract of `PROJECTIONS`)."""
    n = partition.n_qubits
    points = _canvas_points(n, _svg_projection(n))
    graphs = (class_graph(partition, "phi1"), class_graph(partition, "phi2"))
    colors = (PHI1_COLOR, PHI2_COLOR)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">',
        f'  <title>phase classes of the {n}-cube, control '
        f'{partition.placement.control}, target {partition.placement.target}</title>',
    ]
    out.append(f'  <g stroke="{AMBIENT_COLOR}" stroke-width="1.500">')
    for lows, row, bit in cube_edge_moves(n):
        for u, v in zip(lows[row].tolist(), (lows[row] | 1 << bit).tolist()):
            (x1, y1), (x2, y2) = points[u], points[v]
            out.append(f'    <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                       f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')
    out.append('  </g>')
    for graph, color in zip(graphs, colors):
        mask = graph.diagonal_mask()
        out.append(f'  <g stroke="{color}" stroke-width="3.000">')
        for u, v in graph.edges:
            (x1, y1), (x2, y2) = points[u], points[v]
            dash = ' stroke-dasharray="8 6"' if u ^ v == mask else ''
            out.append(f'    <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                       f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"{dash}/>')
        out.append('  </g>')
    out.append('  <g stroke="none">')
    for v, agree in enumerate(partition._agree.tolist()):
        color = PHI1_COLOR if agree else PHI2_COLOR
        x, y = points[v]
        out.append(f'    <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="10" fill="{color}"/>')
    out.append('  </g>')
    out.append(f'  <g font-family="monospace" font-size="{LABEL_SIZE}" '
               'fill="#000000" text-anchor="middle">')
    for v in range(1 << n):
        x, y = points[v]
        label = f"|{bitstring(v, n)}⟩"
        out.append(f'    <text x="{_fmt(x)}" y="{_fmt(y - 16.0)}">{label}</text>')
    out.append('  </g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _check_dot_qubits(n: int) -> None:
    if n > MAX_DOT_QUBITS:
        raise ValueError(f"--n {n}: DOT output is capped at {MAX_DOT_QUBITS} qubits")


def _edge_templates(lows: np.ndarray, n: int, tail: str) -> np.ndarray:
    """A `  "<low>" -- "<low>"<tail>` line per low end, one opaque item each
    (a gather copies whole lines): its edge's line once the bytes of the high
    end are flipped, the character of qubit q at byte n + 8 + q."""
    fields = label_fields(lows, n)
    lines = _laid_out(['  "', *fields, '" -- "', *fields, '"' + tail], lows.size)
    return lines.view(f"V{lines.size // lows.size}")


def _dot_blocks(partition: PhasePartition) -> Iterator[bytes | np.ndarray]:
    """The text of `render_partition_dot` as ASCII, in blocks: `bytes`, or
    the uint8 arrays the vertex and edge lines are laid out in."""
    n = partition.n_qubits
    placement = partition.placement
    yield (f'graph "partition_n{n}_c{placement.control}_t{placement.target}" {{\n'
           '  node [shape=circle, style=filled, fontname="monospace"];\n').encode()
    agree = partition._agree
    colors = vocabulary((PHI2_COLOR, PHI1_COLOR))  # indexed by agreement; one width, no NUL
    for vertices in row_blocks(np.arange(1 << n)):
        yield _laid_out(['  "', *label_fields(vertices, n), '" [fillcolor="',
                         (colors, agree[vertices]), '"];\n'], vertices.size)
    del vertices  # a view of all 2^n indices, not kept while the edges are written
    for lows, row, bit in cube_edge_moves(n):  # an edge sets one bit of its low end
        templates = _edge_templates(lows, n, ";\n")  # lines 2n + 12 bytes wide
        for rows, bits in zip(row_blocks(row), row_blocks(bit)):
            lines = templates.take(rows).view(np.uint8)
            lines[np.arange(2 * n + 8, lines.size, 2 * n + 12) - bits] = ord("1")
            yield lines
    top = qubit_mask(min(placement.control, placement.target), n)
    columns = [n + 8 + placement.control, n + 8 + placement.target]  # of a high end's placed bits
    for members, color in ((agree, PHI1_COLOR), (~agree, PHI2_COLOR)):
        tail = f' [style=dashed, color="{color}"];\n'
        # a diagonal's low end is a member whose higher placed bit is clear
        for block in row_blocks(np.flatnonzero(members.reshape(-1, 2, top) & [[True], [False]])):
            lines = _edge_templates(block, n, tail).view(np.uint8)
            lines.reshape(block.size, -1)[:, columns] ^= 1  # '0' <-> '1'
            yield lines
    yield b'}\n'


def render_partition_dot(partition: PhasePartition) -> str:
    """Graphviz text: all vertices colored by class, ambient cube edges,
    and the dashed diagonal moves of each class, for up to `MAX_DOT_QUBITS` qubits."""
    _check_dot_qubits(partition.n_qubits)
    return str(b"".join(_dot_blocks(partition)), "ascii")
