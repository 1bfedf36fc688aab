"""The package's public surface: the names ``leavitt`` exports, no module
importing a name it never uses, the one unchecked graph build used only
where the parts were already checked, and the one entry that checks
elements."""

import ast
from pathlib import Path

import leavitt
from leavitt import Edge, Graph, LeavittAlgebra, in_socle, parse_element, parse_graph

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
    qualified by its classes (``Class.method``), None at module or class
    level."""
    found = []

    def visit(node, where, scope=""):
        if isinstance(node, ast.ClassDef):
            scope += node.name + "."
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = scope + node.name
            scope = where + "."
        if (isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Name) and node.id == name):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, scope)

    visit(tree, None)
    return found


def test_only_three_builders_skip_the_graph_checks():
    """``Graph._built`` trusts its parts. Only parse_graph, _quotient_graph
    and hedgehog_graph may use it. parse_graph and hedgehog_graph check
    their parts themselves; _quotient_graph is reached only from
    quotient_graph, which checks the set, and from in_socle, whose set is
    the graph's own kept H."""
    package = Path(leavitt.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}

    def users(name):
        return {
            (module, where)
            for module, tree in trees.items()
            for where in _enclosing_functions(tree, name)
        }

    assert users("_built") == {
        ("graphs.py", "parse_graph"),
        ("graphs.py", "_quotient_graph"),
        ("graphs.py", "hedgehog_graph"),
    }
    assert users("_quotient_graph") == {
        ("graphs.py", "quotient_graph"),
        ("socle.py", "in_socle"),
    }


def test_only_normal_form_steps_checks_elements():
    """Elements are checked once, where they enter: the monomial check is
    read only by LeavittAlgebra.normal_form_steps, and the normalizer it
    feeds has no option to check."""
    package = Path(leavitt.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    users = {
        (name, where)
        for name, tree in trees.items()
        for where in _enclosing_functions(tree, "_check_monomial")
    }
    assert users == {("algebra.py", "LeavittAlgebra.normal_form_steps")}
    normalizers = [
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_normalize"
    ]
    assert len(normalizers) == 1
    args = normalizers[0].args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert params == ["self", "terms", "max_steps"]
    assert args.vararg is None and args.kwarg is None


def test_trusted_elements_walk_no_paths(monkeypatch):
    """Sums, products, the involution, quotient images and the identity
    start from what the library built, so none walks a path or looks up a
    vertex again; a vertex named from outside is still looked up, once."""
    LS = LeavittAlgebra(parse_graph("vertices: u v\nedge c: u -> u\nedge e: u -> v\n"))
    line = LeavittAlgebra(Graph(
        ["v%d" % i for i in range(1000)],
        [Edge("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(999)],
    ))
    calls = {"require_path": 0, "require_vertex": 0}
    for name in calls:
        method = getattr(Graph, name)

        def counted(self, arg, name=name, method=method):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(Graph, name, counted)

    def count(run):
        before = dict(calls)
        value = run()
        return value, {k: calls[k] - before[k] for k in calls}

    none = {"require_path": 0, "require_vertex": 0}
    x, seen = count(lambda: parse_element(LS, "c e e^* c^* + c^*"))
    assert str(x) == "1*c^* + 1*c e e^* c^*" and seen == none
    y, seen = count(x.involution)
    assert str(y) == "1*c + 1*c e e^* c^*" and seen == none
    member, seen = count(lambda: in_socle(x))
    assert member is False and seen == none
    one, seen = count(line.one)
    assert len(one.items()) == 1000 and seen == none
    _, seen = count(lambda: LS.vertex("v"))
    assert seen == {"require_path": 0, "require_vertex": 1}
