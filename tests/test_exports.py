"""The package's public surface: the names ``leavitt`` exports, and no
module importing a name it never uses."""

import ast
from pathlib import Path

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


def _unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in imported.items() if name not in read]


def test_modules_use_every_name_they_import():
    package = Path(leavitt.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {
        p.name: names
        for p in modules
        if (names := _unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}
