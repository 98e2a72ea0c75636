"""End-to-end acceptance checks. One PASS/FAIL line prints per criterion
(run with -s to see them on success; failures always surface)."""
import io
import itertools
import math
import random
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

from helpers import dense_cphase_matrix, hypercube_edges, random_state
from toricgate.cli import main
from toricgate.phase_partition import (class_graph, intersection_summary,
                                       is_connected, is_hypercube_isomorphic,
                                       partition_vertices)
from toricgate.render import render_partition_dot, render_partition_svg
from toricgate.spin_model import (DiagonalTwoQubitGate, PhysicalParams,
                                  berry_phases, cphase_gate)
from toricgate.statevec import (GatePlacement, StateVector, apply_cphase,
                                concurrence, state_from_text,
                                uniform_superposition)
from toricgate.toric_geometry import (Cone, cone_contains, dual_cone,
                                      is_simplicial, is_strongly_convex,
                                      product_p1_charts, product_p1_fan)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"[acceptance] FAIL criterion {number}: {text}")
        raise
    print(f"[acceptance] PASS criterion {number}: {text}")


def _run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_criterion_1_cli_apply():
    with criterion(1, "CLI apply on the uniform two-qubit state"):
        start = time.perf_counter()
        code, out = _run_cli(["apply", "--n", "2", "--control", "1",
                              "--target", "2", "--phi1", "0.7"])
        elapsed = time.perf_counter() - start
        assert code == 0
        state = state_from_text(out)
        agree = 0.5 * np.exp(1j * 0.7)
        differ = 0.5 * np.exp(-1j * 0.7)
        for index, want in ((0, agree), (1, differ), (2, differ), (3, agree)):
            assert abs(state.amplitudes[index] - want) <= 1e-12
        assert elapsed < 1.0


def test_criterion_2_concurrence_sweep():
    with criterion(2, "concurrence sweep equals |sin 2*phi1| at 72 points"):
        start = time.perf_counter()
        base = uniform_superposition(2)
        placement = GatePlacement(1, 2)
        for k in range(72):
            phi1 = 2.0 * math.pi * k / 72.0
            out = apply_cphase(base, DiagonalTwoQubitGate.from_phi1(phi1),
                               placement)
            assert abs(concurrence(out) - abs(math.sin(2.0 * phi1))) <= 1e-12
        assert time.perf_counter() - start < 1.0


def _grouped(n, control, target, phi1=0.8):
    out = apply_cphase(uniform_superposition(n),
                       DiagonalTwoQubitGate.from_phi1(phi1),
                       GatePlacement(control, target))
    scale = 1.0 / math.sqrt(2 ** n)
    agree = scale * np.exp(1j * phi1)
    differ = scale * np.exp(-1j * phi1)
    got_agree, got_differ = set(), set()
    for x in range(2 ** n):
        amp = out.amplitudes[x]
        if abs(amp - agree) < 1e-12:
            got_agree.add(format(x, f"0{n}b"))
        else:
            assert abs(amp - differ) < 1e-12
            got_differ.add(format(x, f"0{n}b"))
    return got_agree, got_differ


def test_criterion_3_three_qubit_groupings():
    with criterion(3, "three-qubit phase groupings for placements (1,2) and (2,3)"):
        agree, differ = _grouped(3, 1, 2)
        assert agree == {"000", "001", "110", "111"}
        assert differ == {"010", "011", "100", "101"}
        agree, differ = _grouped(3, 2, 3)
        assert agree == {"000", "011", "100", "111"}
        assert differ == {"001", "010", "101", "110"}


def test_criterion_4_four_qubit_grouping():
    with criterion(4, "four-qubit phase grouping for placement (1,2)"):
        agree, differ = _grouped(4, 1, 2)
        assert agree == {"0000", "0001", "0010", "0011",
                         "1100", "1101", "1110", "1111"}
        assert differ == {"0100", "0101", "0110", "0111",
                          "1000", "1001", "1010", "1011"}


def test_criterion_5_kronecker_oracle():
    with criterion(5, "gate action matches the dense Kronecker oracle"):
        rng = np.random.default_rng(2024)
        draws = 0
        for n in range(2, 6):
            for control, target in itertools.permutations(range(1, n + 1), 2):
                for _ in range(2):
                    phi1 = float(rng.uniform(-2 * math.pi, 2 * math.pi))
                    phi2 = -phi1
                    state = StateVector(random_state(rng, n))
                    expected = dense_cphase_matrix(n, control, target,
                                                   phi1, phi2) @ state.amplitudes
                    out = apply_cphase(state,
                                       DiagonalTwoQubitGate.from_angles(phi1, phi2),
                                       GatePlacement(control, target))
                    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12
                    draws += 1
        assert draws >= 50


def test_criterion_6_hypercube_claim():
    with criterion(6, "each phase class is a hypercube Q_(n-1) for n up to 10"):
        elapsed_n10 = None
        for n in range(2, 11):
            start = time.perf_counter()
            for control, target in itertools.permutations(range(1, n + 1), 2):
                partition = partition_vertices(n, GatePlacement(control, target))
                for which in ("phi1", "phi2"):
                    graph = class_graph(partition, which)
                    degree = {v: 0 for v in graph.vertices}
                    for u, v in graph.edges:
                        degree[u] += 1
                        degree[v] += 1
                    assert set(degree.values()) == {n - 1}
                    assert is_connected(graph)
                    match = is_hypercube_isomorphic(graph)
                    assert match.is_isomorphic
                    mapping = dict(match.vertex_map)
                    mapped = {(min(mapping[u], mapping[v]),
                               max(mapping[u], mapping[v]))
                              for u, v in graph.edges}
                    assert mapped == hypercube_edges(n - 1)
                summary = intersection_summary(partition)
                assert summary.crossing_edges == 2 ** n
                assert summary.shared_vertices == 0
            if n == 10:
                elapsed_n10 = time.perf_counter() - start
        assert elapsed_n10 is not None and elapsed_n10 < 10.0


def test_criterion_7_charts_and_orthants():
    with criterion(7, "chart census and orthant fan of (P^1)^n"):
        for n in range(1, 9):
            assert len(product_p1_charts(n)) == 2 ** n
        assert [c.label() for c in product_p1_charts(2)] == [
            "(z1, z2)", "(z1^-1, z2)", "(z1, z2^-1)", "(z1^-1, z2^-1)"]
        assert [c.signs for c in product_p1_charts(3)] == [
            (1, 1, 1),
            (-1, 1, 1), (1, -1, 1), (1, 1, -1),
            (-1, -1, 1), (-1, 1, -1), (1, -1, -1),
            (-1, -1, -1)]
        for n in range(1, 9):
            fan = product_p1_fan(n)
            assert len(fan.maximal_cones) == 2 ** n
            for cone in fan.maximal_cones:
                assert is_simplicial(cone)
                assert is_strongly_convex(cone)
                assert dual_cone(cone).primitive_generators \
                    == cone.primitive_generators


def test_criterion_8_dual_cone_oracle():
    with criterion(8, "dual cones: biduality and inner-product membership"):
        rng = random.Random(99)

        def det(gens):
            if len(gens) == 2:
                return gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0]
            a, b, c = gens
            return (a[0] * (b[1] * c[2] - b[2] * c[1])
                    - a[1] * (b[0] * c[2] - b[2] * c[0])
                    + a[2] * (b[0] * c[1] - b[1] * c[0]))

        box = {2: list(itertools.product(range(-6, 7), repeat=2)),
               3: list(itertools.product(range(-6, 7), repeat=3))}
        for d in (2, 3):
            checked = 0
            while checked < 100:
                gens = tuple(tuple(rng.randint(-9, 9) for _ in range(d))
                             for _ in range(d))
                if det(gens) == 0:
                    continue
                cone = Cone(d, gens)
                dual = dual_cone(cone)
                assert dual_cone(dual).primitive_generators \
                    == cone.primitive_generators
                for point in box[d]:
                    by_products = all(
                        sum(p * g for p, g in zip(point, gen)) >= 0
                        for gen in cone.generators)
                    assert cone_contains(dual, point) == by_products
                checked += 1


def test_criterion_9_physics_sanity():
    with criterion(9, "zero coupling gives the identity; symmetric resonance "
                      "gives shift pi*sqrt(2)"):
        free = berry_phases(PhysicalParams(10.0, 1.0, 0.0, 9.0, 2.0))
        assert free.shift == 0.0
        gate = cphase_gate(free)
        assert all(abs(p - 1.0) <= 1e-12 for p in gate.phases)
        resonant = berry_phases(PhysicalParams(10.0, 1.0, 1.0, 10.0, math.pi))
        assert abs(resonant.shift - math.pi * math.sqrt(2.0)) <= 1e-9


def test_criterion_10_render_determinism(tmp_path):
    with criterion(10, "renders are byte-stable, match the golden files, "
                       "and obey the count law"):
        for n in (2, 3, 4):
            partition = partition_vertices(n, GatePlacement(1, 2))
            for kind in ("svg", "dot"):
                paths = [tmp_path / f"run{i}_n{n}.{kind}" for i in (1, 2)]
                for path in paths:
                    code, _ = _run_cli(["render", "--n", str(n),
                                        "--control", "1", "--target", "2",
                                        "--format", kind, "--out", str(path)])
                    assert code == 0
                first, second = (p.read_bytes() for p in paths)
                assert first == second
                golden = (GOLDEN / f"partition_n{n}.{kind}").read_bytes()
                assert first == golden
            svg = render_partition_svg(partition)
            root = ET.fromstring(svg)
            ns = "{http://www.w3.org/2000/svg}"
            circles = len(list(root.iter(f"{ns}circle")))
            lines = len(list(root.iter(f"{ns}line")))
            assert circles == 2 ** n
            assert lines == n * 2 ** (n - 1) + 2 * (n - 1) * 2 ** (n - 2)
            dot = render_partition_dot(partition)
            edge_lines = [ln for ln in dot.splitlines() if " -- " in ln]
            assert len(edge_lines) == n * 2 ** (n - 1) + 2 ** (n - 1)
