"""Every site that takes an integer, a row each, for the table-driven tests of the
one check they all share.

A row reads what its site builds from a value as plain tuples. Each site refuses a
bool and every non-integer with one `ValueError`, whose text is the row's message
formatted with the value. Each site takes any other integer in its range, numpy
integers included, and stores it or computes with it as an `int`. The numpy
values of a row are an `np.int8` and an `np.uint8` (and for coordinates an
`np.int64`). Where the site's arithmetic could overflow a kept numpy integer, the
`np.uint8` is one that would: 2^12 amplitudes, 2^9 charts, a sign negated, a
coordinate of 200 squared.
"""
from dataclasses import astuple

import numpy as np
import pytest

from toricgate.bits import bit_at, bitstring
from toricgate.phase_partition import (ClassGraph, class_graph, drop_target_bit,
                                       is_hypercube_isomorphic, partition_vertices)
from toricgate.statevec import GatePlacement, uniform_superposition
from toricgate.toric_geometry import (MAX_FACTORS, Chart, Cone, Fan, LaurentSupport, Polytope,
                                      cone_contains, moment_polytope, orthant_cone,
                                      product_p1_charts, product_p1_fan)

# the values every site is run over: five refused, then each row's numpy integers
REFUSED = (True, 2.0, 2.5, "2", None)

_GRAPH = class_graph(partition_vertices(9, GatePlacement(1, 2)), "phi1")
_CONE = Cone(2, ((1, 0), (1, 1)))


def _class_graph(n):
    graph = ClassGraph(n, GatePlacement(1, 2), "phi1", _GRAPH.vertices, _GRAPH.edges)
    return astuple(graph), graph.diagonal_mask(), is_hypercube_isomorphic(graph).is_isomorphic


def _state(n):
    state = uniform_superposition(n)
    return state.n_qubits, state.amplitudes.tobytes()


def _partition(n):
    partition = partition_vertices(n, GatePlacement(1, 2))
    return astuple(partition), partition.class_phi1


_COUNT = "n_qubits must lie in 2..24"
_FACTORS = f"factor count must lie in 1..{MAX_FACTORS}"
_DIMENSION = "dimension must be at least 1"
_SIGN = "chart signs must be +1 or -1"
_COORDINATE = "lattice coordinates must be exact integers, got {!r}"
_SLOT = "qubit slot must lie in 1..3, got {!r}"
_QUBITS = (np.int8(3), np.uint8(12))
_FACTOR_COUNTS = (np.int8(2), np.uint8(9))
_DIMENSIONS = (np.int8(2), np.uint8(2))
_SIGNS = (np.int8(-1), np.uint8(1))
_COORDINATES = (np.int8(-3), np.uint8(200), np.int64(1))
_SLOTS = (np.int8(1), np.uint8(3))
_WIDTH = "n_qubits must be at least 1, got {!r}"
_WIDTHS = (np.int8(3), np.uint8(12))

# site: (read, message, the numpy integers it takes)
SITES = {
    "uniform_superposition": (_state, "n_qubits must lie in 1..24", _QUBITS),
    "partition_vertices": (_partition, _COUNT, _QUBITS),
    "ClassGraph": (_class_graph, _COUNT, (np.int8(9), np.uint8(9))),
    "GatePlacement control": (lambda slot: astuple(GatePlacement(slot, 1)),
                              "qubit slots must be integers, got control={!r}", _QUBITS),
    "GatePlacement target": (lambda slot: astuple(GatePlacement(1, slot)),
                             "qubit slots must be integers, got target={!r}", _QUBITS),
    "product_p1_charts": (lambda n: [astuple(c) for c in product_p1_charts(n)], _FACTORS,
                          _FACTOR_COUNTS),
    "product_p1_fan": (lambda n: astuple(product_p1_fan(n)), _FACTORS, _FACTOR_COUNTS),
    "moment_polytope": (lambda n: astuple(moment_polytope(n)), _FACTORS, _FACTOR_COUNTS),
    "Cone dimension": (lambda d: astuple(Cone(d, ((1, 0),))), _DIMENSION, _DIMENSIONS),
    "Polytope dimension": (lambda d: astuple(Polytope(d, ((1, 0),))), _DIMENSION, _DIMENSIONS),
    "LaurentSupport dimension": (lambda d: astuple(LaurentSupport(d, ((1, 0),))), _DIMENSION,
                                 _DIMENSIONS),
    "Chart": (lambda s: astuple(Chart((s, -1))), _SIGN, _SIGNS),
    "orthant_cone": (lambda s: astuple(orthant_cone((1, s))), _SIGN, _SIGNS),
    "Cone": (lambda c: astuple(Cone(2, ((c, 0), (0, 1)))), _COORDINATE, _COORDINATES),
    "Polytope": (lambda c: astuple(Polytope(2, ((c, 0), (0, 1)))), _COORDINATE, _COORDINATES),
    "LaurentSupport": (lambda c: astuple(LaurentSupport(2, ((c, 1),))), _COORDINATE,
                       _COORDINATES),
    "Fan": (lambda c: astuple(Fan(2, ((c, 0), (0, 1)), ())), _COORDINATE, _COORDINATES),
    "cone_contains": (lambda c: (cone_contains(_CONE, (c, 0)), cone_contains(_CONE, (0, c))),
                      _COORDINATE, _COORDINATES),
    "bitstring": (lambda x: bitstring(x, 12), "basis index {!r} is out of range for 12 qubits",
                  (np.int8(3), np.uint8(200))),
    "bit_at": (lambda q: (bit_at(5, q, 3), tuple(bit_at(np.arange(8), q, 3).tolist())), _SLOT,
               _SLOTS),
    "drop_target_bit": (lambda t: (drop_target_bit(5, 3, t),
                                   tuple(drop_target_bit(np.arange(8), 3, t).tolist())),
                        _SLOT, _SLOTS),
    "bitstring n_qubits": (lambda n: bitstring(5, n), _WIDTH, _WIDTHS),
    "bit_at n_qubits": (lambda n: (bit_at(5, 1, n), tuple(bit_at(np.arange(8), 1, n).tolist())),
                        _WIDTH, _WIDTHS),
    "drop_target_bit n_qubits": (lambda n: (drop_target_bit(5, n, 1),
                                            tuple(drop_target_bit(np.arange(8), n, 1).tolist())),
                                 _WIDTH, _WIDTHS),
}


def _plain(value):
    """Whether a read holds no numpy scalar, however deep."""
    if isinstance(value, (tuple, list, frozenset)):
        return all(map(_plain, value))
    return not isinstance(value, np.generic)


def refuses(site, value):
    """The site refuses `value` with its message."""
    read, message, _ = SITES[site]
    with pytest.raises(ValueError) as info:
        read(value)
    assert str(info.value) == message.format(value)


def accepts(site, value):
    """The site reads an integer `value` as the `int` it equals, and stores no numpy scalar."""
    got, want = SITES[site][0](value), SITES[site][0](int(value))
    assert got == want and _plain(got)
