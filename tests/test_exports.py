"""The package's public surface: the names ``leavitt`` exports, no module
importing a name it never uses, and the one unchecked graph build used only
where the parts were already checked."""

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


def _enclosing_functions(tree: ast.AST, name: str) -> list[str | None]:
    """The innermost function around each read of the attribute or name,
    None at module or class level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Name) and node.id == name):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_three_builders_skip_the_graph_checks():
    """``Graph._built`` trusts its parts. Only parse_graph, quotient_graph
    and hedgehog_graph, which check those parts themselves, may use it."""
    package = Path(leavitt.__file__).parent
    users = {
        (p.name, where)
        for p in sorted(package.glob("*.py"))
        for where in _enclosing_functions(
            ast.parse(p.read_text(encoding="utf-8")), "_built")
    }
    assert users == {
        ("graphs.py", "parse_graph"),
        ("graphs.py", "quotient_graph"),
        ("graphs.py", "hedgehog_graph"),
    }
