"""The package's public surface: the names ``leavitt`` exports."""

import leavitt

EXPORTS = [
    "AlgebraError", "CycleError", "CyclePolynomial", "CyclicGraphError",
    "Edge", "Element", "ExprParseError", "FieldError", "GFElement",
    "Generator", "Graph", "GraphError", "GraphParseError", "HedgehogGraph",
    "LeavittAlgebra", "MixedContextError", "Monomial", "Path", "PrimeField",
    "QQ", "RationalField", "ReductionWitness", "RelationsReport",
    "ScalarVertex", "SinkMatrices", "SocleReport", "SubsetError",
    "UnknownVertexError", "ZeroElementError", "condition_L",
    "cycle_has_exit", "entry_paths", "field_from_selector", "hedgehog_graph",
    "hereditary_saturated_closure", "in_socle", "is_acyclic",
    "is_bifurcation", "is_hereditary", "is_prime", "is_saturated",
    "is_simple", "left_ideal_sum_membership", "line_points", "matrix_rep",
    "nondegeneracy_witness", "outcome_element", "parse_element",
    "parse_graph", "paths_from_by_length", "quotient_graph",
    "quotient_image", "realify", "reduce", "require_cycle",
    "socle_equals_algebra", "socle_generators", "socle_is_nonzero",
    "socle_structure", "special_edges", "to_dot", "tree", "verify_witness",
    "vertex_ideal_minimal", "witness_from_obj", "witness_to_obj",
]


def test_exports_are_pinned_and_resolve():
    assert len(EXPORTS) == 66
    assert sorted(leavitt.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(leavitt, name) is not None
