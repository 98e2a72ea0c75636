"""Holonomic controlled-phase gates, their action on product states, and the
cube/toric combinatorics of the two phase classes they induce."""

from .bits import MAX_QUBITS, bit_at, bitstring, index_of
from .phase_partition import (ClassGraph, HypercubeMatch, IntersectionSummary,
                              PhasePartition, class_graph, drop_target_bit,
                              intersection_summary, is_connected,
                              is_hypercube_isomorphic, partition_to_text,
                              partition_vertices)
from .render import PROJECTIONS, project_vertex, render_partition_dot, render_partition_svg
from .spin_model import (BerryPhaseResult, DegenerateDrive, DiagonalTwoQubitGate,
                         PhysicalParams, berry_phases, cphase_gate,
                         hamiltonian_diagonal, transition_frequencies)
from .statevec import (GatePlacement, StateVector, apply_cphase, concurrence,
                       extract_phase_classes, state_from_text, state_to_text,
                       uniform_superposition)
from .toric_geometry import (MAX_FACTORS, Chart, Cone, Fan, LaurentSupport,
                             NonSimplicialCone, NotFullDimensional, Polytope,
                             cone_contains, dual_cone, fan_to_text, is_simplicial,
                             is_strongly_convex, moment_polytope, orthant_cone,
                             polytope_to_text, primitive_vector, product_p1_charts,
                             product_p1_fan, support_in_cone)

__version__ = "0.1.0"

__all__ = [
    "MAX_QUBITS", "MAX_FACTORS", "__version__",
    "bit_at", "bitstring", "index_of",
    "DegenerateDrive", "PhysicalParams", "BerryPhaseResult", "DiagonalTwoQubitGate",
    "hamiltonian_diagonal", "transition_frequencies", "berry_phases", "cphase_gate",
    "StateVector", "GatePlacement", "uniform_superposition", "apply_cphase",
    "concurrence", "extract_phase_classes", "state_to_text", "state_from_text",
    "Cone", "Polytope", "LaurentSupport", "Chart", "Fan",
    "NonSimplicialCone", "NotFullDimensional",
    "cone_contains", "dual_cone", "is_simplicial", "is_strongly_convex",
    "support_in_cone", "product_p1_charts", "product_p1_fan", "moment_polytope",
    "orthant_cone", "primitive_vector", "fan_to_text", "polytope_to_text",
    "PhasePartition", "ClassGraph", "HypercubeMatch", "IntersectionSummary",
    "partition_vertices", "class_graph", "is_hypercube_isomorphic", "is_connected",
    "intersection_summary", "drop_target_bit", "partition_to_text",
    "PROJECTIONS", "project_vertex",
    "render_partition_svg", "render_partition_dot",
]
