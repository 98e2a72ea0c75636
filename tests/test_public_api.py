"""The package's public names, pinned: adding or removing one is a reviewed diff here."""
import toricgate

PUBLIC = [
    "BerryPhaseResult", "Chart", "ClassGraph", "Cone", "DegenerateDrive",
    "DiagonalTwoQubitGate", "Fan", "GatePlacement", "HypercubeMatch",
    "IntersectionSummary", "LaurentSupport", "MAX_FACTORS", "MAX_QUBITS",
    "NonSimplicialCone", "NotFullDimensional", "PROJECTIONS", "PhasePartition",
    "PhysicalParams", "Polytope", "StateVector", "__version__", "apply_cphase",
    "berry_phases", "bit_at", "bitstring", "class_graph", "concurrence", "cone_contains",
    "cphase_gate", "drop_target_bit", "dual_cone", "extract_phase_classes", "fan_to_text",
    "hamiltonian_diagonal", "index_of", "intersection_summary", "is_connected",
    "is_hypercube_isomorphic", "is_simplicial", "is_strongly_convex", "moment_polytope",
    "orthant_cone", "partition_to_text", "partition_vertices", "polytope_to_text",
    "primitive_vector", "product_p1_charts", "product_p1_fan", "project_vertex",
    "render_partition_dot", "render_partition_svg", "state_from_text", "state_to_text",
    "support_in_cone", "transition_frequencies", "uniform_superposition",
]


def test_all_is_the_pinned_list_and_every_name_resolves():
    assert sorted(toricgate.__all__) == PUBLIC
    assert len(set(toricgate.__all__)) == len(toricgate.__all__)
    assert [name for name in PUBLIC if not hasattr(toricgate, name)] == []
