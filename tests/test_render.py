import hashlib
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_dot_text
from toricgate.phase_partition import partition_vertices
from toricgate.render import (PROJECTIONS, _dot_blocks, project_vertex, render_partition_dot,
                              render_partition_svg)
from toricgate.statevec import GatePlacement

GOLDEN = Path(__file__).parent / "golden"

SVG_NS = "{http://www.w3.org/2000/svg}"


def _svg(n, control=1, target=2):
    return render_partition_svg(partition_vertices(n, GatePlacement(control, target)))


def _dot(n, control=1, target=2):
    return render_partition_dot(partition_vertices(n, GatePlacement(control, target)))


def test_project_square_corners():
    assert project_vertex("00", "square") == (0.0, 1.0)
    assert project_vertex("11", "square") == (1.0, 0.0)
    assert project_vertex("01", "square") == (1.0, 1.0)
    assert project_vertex("10", "square") == (0.0, 0.0)


def test_project_isometric():
    assert project_vertex("111", "cube-isometric") == (1.5, -1.5)
    assert project_vertex("000", "cube-isometric") == (0.0, 0.0)
    assert project_vertex("100", "cube-isometric") == (1.0, 0.0)
    assert project_vertex("010", "cube-isometric") == (0.5, -0.5)
    assert project_vertex("001", "cube-isometric") == (0.0, -1.0)


def test_project_tesseract_nesting():
    # outer cube (bit1 = 1) is the plain isometric cube
    assert project_vertex("1111", "tesseract-nested") == (1.5, -1.5)
    assert project_vertex("1000", "tesseract-nested") == (0.0, 0.0)
    # inner cube (bit1 = 0) shrinks about the cube center (0.75, -0.75)
    assert project_vertex("0000", "tesseract-nested") == (0.375, -0.375)
    assert project_vertex("0111", "tesseract-nested") == (1.125, -1.125)
    # the 16 projected points are distinct
    points = {project_vertex(format(v, "04b"), "tesseract-nested")
              for v in range(16)}
    assert len(points) == 16


def test_project_validation():
    with pytest.raises(ValueError):
        project_vertex("00", "cube-isometric")
    with pytest.raises(ValueError):
        project_vertex("0x", "square")
    with pytest.raises(ValueError):
        project_vertex("00", "hexagonal")


def test_svg_refuses_a_qubit_count_without_a_projection():
    assert 5 not in PROJECTIONS.values()
    with pytest.raises(ValueError,
                       match=r"^no SVG projection for 5 qubits \(supported: 2, 3, 4\)$"):
        _svg(5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_svg_deterministic(n):
    assert _svg(n) == _svg(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dot_deterministic(n):
    assert _dot(n) == _dot(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_svg_well_formed_and_counts(n):
    root = ET.fromstring(_svg(n))
    lines = list(root.iter(f"{SVG_NS}line"))
    circles = list(root.iter(f"{SVG_NS}circle"))
    texts = list(root.iter(f"{SVG_NS}text"))
    ambient = n * 2 ** (n - 1)
    class_edges = 2 * (n - 1) * 2 ** (n - 2)
    assert len(circles) == 2 ** n
    assert len(texts) == 2 ** n
    assert len(lines) == ambient + class_edges


@pytest.mark.parametrize("n", [2, 3, 4])
def test_svg_ambient_vs_class_split(n):
    text = _svg(n)
    root = ET.fromstring(text)
    by_color = {}
    for group in root.iter(f"{SVG_NS}g"):
        stroke = group.get("stroke")
        if stroke in (None, "none"):
            continue
        by_color[stroke] = by_color.get(stroke, 0) + len(
            group.findall(f"{SVG_NS}line"))
    assert by_color["#999999"] == n * 2 ** (n - 1)
    assert by_color["#1f77b4"] == (n - 1) * 2 ** (n - 2)
    assert by_color["#d62728"] == (n - 1) * 2 ** (n - 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_svg_dashed_diagonals(n):
    dashed = _svg(n).count("stroke-dasharray")
    assert dashed == 2 ** (n - 1)  # 2^(n-2) diagonal edges per class


def test_svg_coordinates_inside_margin():
    root = ET.fromstring(_svg(3))
    for line in root.iter(f"{SVG_NS}line"):
        for attr in ("x1", "y1", "x2", "y2"):
            v = float(line.get(attr))
            assert 40.0 - 1e-9 <= v <= 760.0 + 1e-9


def _dot_counts(text):
    nodes = sum(1 for ln in text.splitlines() if "fillcolor" in ln and "--" not in ln)
    plain_edges = sum(1 for ln in text.splitlines()
                      if "--" in ln and "style" not in ln)
    dashed_edges = sum(1 for ln in text.splitlines()
                       if "--" in ln and "style=dashed" in ln)
    return nodes, plain_edges, dashed_edges


def test_dot_counts_n2():
    assert _dot_counts(_dot(2)) == (4, 4, 2)


def test_dot_counts_n3():
    assert _dot_counts(_dot(3)) == (8, 12, 4)


def test_dot_any_qubit_count():
    nodes, plain, dashed = _dot_counts(_dot(6, 2, 5))
    assert nodes == 64
    assert plain == 6 * 32
    assert dashed == 2 ** 5


def test_dot_refuses_more_qubits_than_its_cap(monkeypatch):
    # the cap is checked before the labels or the cube edges are built
    monkeypatch.setattr("toricgate.render.MAX_DOT_QUBITS", 4)
    assert _dot(4) == (GOLDEN / "partition_n4.dot").read_text()

    def refuse(*args):
        raise AssertionError("built before the cap was checked")
    monkeypatch.setattr("toricgate.render.label_fields", refuse)
    monkeypatch.setattr("toricgate.render.cube_edge_moves", refuse)
    with pytest.raises(ValueError, match=r"^DOT output is capped at 4 qubits$"):
        _dot(5)


def test_dot_builds_its_edges_a_block_at_a_time():
    # the whole (n * 2^(n-1), 2) int64 edge table, 16 bytes an edge, which the
    # text once took in one piece, is larger than the peak of writing the text
    n = 15
    partition = partition_vertices(n, GatePlacement(1, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        size = sum(map(len, _dot_blocks(partition)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert size > 12 * 2 ** 20
    assert peak < 16 * n * 2 ** (n - 1)


def test_dot_node_order_binary_ascending():
    text = _dot(2)
    order = [ln.split('"')[1] for ln in text.splitlines() if "fillcolor" in ln]
    assert order == ["00", "01", "10", "11"]


@pytest.mark.parametrize("kind,n", [("svg", 2), ("svg", 3), ("svg", 4),
                                    ("dot", 2), ("dot", 3), ("dot", 4)])
def test_golden_files(kind, n):
    got = _svg(n) if kind == "svg" else _dot(n)
    golden = (GOLDEN / f"partition_n{n}.{kind}").read_text()
    assert got == golden


# SHA-256 of the DOT text above the goldens' sizes, recorded before the
# renderer took its edges from a shared cube-edge enumerator in `bits`
DOT_DIGESTS = {
    (8, 1, 8): "704f803ff4b307287fa99bb6e131765dc386a2cab415afdc174c3c06d8cc291e",
    (8, 5, 3): "e5bf4beb28b72237a505b3461372df24b62aa0cc4f9ce0bcddeb0badbe527b96",
    (12, 2, 11): "ac852b8877c49e4d61e97127dcf6967e47f1b636b1154734438d1964f16171b6",
    (12, 9, 4): "aafccdba3c3c23044ea7d4c221ced54a9013bedd2254379faceb45e45fc42f8c",
}


@pytest.mark.parametrize("n,control,target", sorted(DOT_DIGESTS))
def test_dot_digest_large_n(n, control, target):
    digest = hashlib.sha256(_dot(n, control, target).encode()).hexdigest()
    assert digest == DOT_DIGESTS[n, control, target]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(2, 9))
def test_dot_matches_a_line_by_line_writer_at_every_placement(n):
    for control in range(1, n + 1):
        for target in range(1, n + 1):
            if control != target:
                assert _dot(n, control, target) == reference_dot_text(n, control, target)
