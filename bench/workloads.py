"""The four workloads: their inputs, their program set-up, their operations
and the independent check of every answer.

A workload has three parts. ``inputs(seed, short)`` draws everything from
the seed with the generators in ``gen`` and touches no program code.
``setup(inp)`` is the program's own set-up work (parsing graphs and
expressions, building algebras and raw sums) and is what ``setup_s``
times. ``ops(inp, st)`` lists the operations of one round; each carries the
call to time and the check of its answer, which the runner applies outside
the timed region. Program calls go through module attributes
(``L.socle_structure``, not a name bound at import) so that a traced run
sees them.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import gen
import oracle
from oracle import expect

PRIMES = (10007, 32003, 65521, 1000003)


@dataclass
class Op:
    """One timed operation and the check of its answer.

    ``call`` returns the program's answer; ``check`` raises
    ``oracle.CheckError`` when it is wrong; ``failed`` tells whether the
    answer counts as a failed operation (an exception always does).
    ``field`` is "q" or "gf" for operations over one field. ``follows``
    keeps the operation right after the one listed before it when a round
    is shuffled, for an operation that uses that one's answer.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    field: str | None = None
    failed: Callable[[object], bool] = lambda result: False
    argv: list | None = None
    follows: bool = False


def _graph_ops_inputs(rng: random.Random, spec: gen.GraphSpec, simple: bool) -> dict:
    """Query arguments for one graph, drawn from the seed, with the
    oracle's answers."""
    lp = oracle.line_points(spec)
    h = oracle.closure(spec, lp)
    seeds = rng.sample(spec.vertices, min(3, len(spec.vertices)))
    outside = [v for v in spec.vertices if v not in h]
    pool = outside if outside and rng.random() < 0.5 else list(spec.vertices)
    member_vertex = rng.choice(pool)
    expr_in_h = None
    if h:
        v = rng.choice(sorted(h))
        inn = spec.in_map()[v]
        if inn:
            e, f = rng.choice(inn), rng.choice(inn)
            expr_in_h = "%s %s %s^*" % (e[0], v, f[0])
        else:
            expr_in_h = v
    return {
        "spec": spec,
        "lp": lp,
        "h": h,
        "closure_seeds": seeds,
        "closure": oracle.closure(spec, seeds),
        "member_vertex": member_vertex,
        "expr_in_h": expr_in_h,
        "minimal_vertex": rng.choice(spec.vertices),
        "simple": oracle.is_simple(spec) if simple else None,
    }


# ----------------------------------------------------------------------
# socle-graphs
# ----------------------------------------------------------------------

# The queries each family runs: the ones that load the cost the family is
# there for. is_simple is left out on lines, where it is cubic (CHANGES.md).
SOCLE_QUERIES = {
    "line": ("socle_structure", "line_points", "closure", "in_socle", "in_socle_avb",
             "minimal"),
    "out-tree": ("socle_structure",),
    "loop-line": ("socle_structure", "in_socle", "in_socle_avb", "is_simple"),
    "complete-plus-sink": ("socle_structure", "in_socle"),
    "sparse": ("line_points", "closure", "in_socle", "in_socle_avb", "is_simple", "minimal"),
}


class SocleGraphs:
    """Graph-level socle queries on families that each load one cost."""

    def inputs(self, seed: int, short: bool) -> list[dict]:
        rng = random.Random(seed)
        if short:
            sizes = {"line": (30, 60), "tree": (30,), "loop": (20,), "k": (3, 4),
                     "sparse": ((100, 80),)}
        else:
            sizes = {"line": (150, 250, 350), "tree": (100, 150, 250),
                     "loop": (100, 200), "k": (3, 4, 5),
                     "sparse": ((1000, 500), (2000, 1000), (3000, 1500))}
        specs = [gen.line(rng, n) for n in sizes["line"]]
        specs += [gen.out_tree(rng, n) for n in sizes["tree"]]
        specs += [gen.loop_line(rng, n) for n in sizes["loop"]]
        specs += [gen.complete_plus_sink(rng, n) for n in sizes["k"]]
        specs += [gen.sparse(rng, n, m) for n, m in sizes["sparse"]]
        return [_graph_ops_inputs(rng, s, "is_simple" in SOCLE_QUERIES[s.family])
                for s in specs]

    def setup(self, inp: list[dict]) -> list[dict]:
        import leavitt as L

        state = []
        for item in inp:
            g = L.parse_graph(item["spec"].text())
            alg = L.LeavittAlgebra(g)
            st = {"graph": g, "member": L.parse_element(alg, item["member_vertex"])}
            if item["expr_in_h"] is not None:
                st["in_h"] = L.parse_element(alg, item["expr_in_h"])
            state.append(st)
        return state

    def ops(self, inp: list[dict], state: list[dict]) -> list[Op]:
        import leavitt as L

        ops: list[Op] = []
        for item, st in zip(inp, state):
            g, label = st["graph"], item["spec"].label
            table = {
                "socle_structure": (lambda g=g: L.socle_structure(g),
                                    lambda r, item=item: _check_report(item, r)),
                "line_points": (lambda g=g: L.line_points(g),
                                lambda r, item=item, label=label: expect(
                                    r == _ordered(item["spec"], item["lp"]),
                                    "%s: line points" % label)),
                "closure": (lambda g=g, s=item["closure_seeds"]:
                                L.hereditary_saturated_closure(g, s),
                            lambda r, item=item, label=label: expect(
                                set(r) == item["closure"], "%s: closure" % label)),
                "in_socle": (lambda x=st["member"]: L.in_socle(x),
                             lambda r, item=item, label=label: expect(
                                 r == (item["member_vertex"] in item["h"]),
                                 "%s: in_socle(%s)" % (label, item["member_vertex"]))),
                "in_socle_avb": (lambda x=st.get("in_h"): L.in_socle(x),
                                 lambda r, label=label: expect(
                                     r is True, "%s: a.v.b not in the socle" % label)),
                "is_simple": (lambda g=g: L.is_simple(g),
                              lambda r, item=item, label=label: expect(
                                  r == item["simple"], "%s: is_simple" % label)),
                "minimal": (lambda g=g, v=item["minimal_vertex"]:
                                L.vertex_ideal_minimal(g, v),
                            lambda r, item=item, label=label: expect(
                                r == (item["minimal_vertex"] in item["lp"]),
                                "%s: vertex_ideal_minimal" % label)),
            }
            for query in SOCLE_QUERIES[item["spec"].family]:
                if query == "in_socle_avb" and "in_h" not in st:
                    continue
                call, check = table[query]
                ops.append(Op("%s %s" % (query, label), call, check))
        return ops


def _ordered(spec: gen.GraphSpec, vs) -> tuple:
    return tuple(v for v in spec.vertices if v in vs)


def _check_report(item: dict, report) -> None:
    spec, lp, h = item["spec"], item["lp"], item["h"]
    label = spec.label
    expect(report.line_points == _ordered(spec, lp), "%s: report line points" % label)
    expect(report.closure_h == _ordered(spec, h), "%s: report closure" % label)
    expect(report.socle_is_whole == (len(h) == len(spec.vertices)),
           "%s: socle is whole" % label)
    expect(report.summands == oracle.summands(spec, h), "%s: summands" % label)
    if spec.family == "line":
        expect(len(h) == len(spec.vertices) and report.summands == (len(spec.vertices),),
               "%s: line closed form" % label)
    if spec.family == "out-tree":
        depth, parent = spec.facts["depth"], spec.facts["parent"]
        leaves = set(spec.vertices) - set(parent.values())
        expect(len(h) == len(spec.vertices)
               and report.summands == tuple(sorted(depth[v] + 1 for v in leaves)),
               "%s: out-tree closed form" % label)
    if not h:
        expect(report.hedgehog is None, "%s: hedgehog of an empty closure" % label)
        return
    found = oracle.check_hedgehog(spec, h, report.hedgehog)
    nv = len(spec.vertices)
    if spec.family == "complete-plus-sink":
        n = spec.facts["n"]
        expect(found == sum((n - 1) ** m for m in range(nv + 1)),
               "%s: K_n entry paths" % label)
    if spec.family == "loop-line":
        expect(found == nv + 1 and report.hedgehog.blocking_cycle.edges == ("c",),
               "%s: loop-line hedgehog" % label)


# ----------------------------------------------------------------------
# normal-form
# ----------------------------------------------------------------------

class NormalForm:
    """Large normalizations on tiny graphs, over Q and over GF(p)."""

    def inputs(self, seed: int, short: bool) -> dict:
        rng = random.Random(seed)
        p = rng.choice(PRIMES)
        cuntz = []
        # (petals, k): a ladder of six sums of about 6 to 25 ms, then two of
        # about 50 and 80 ms. With the 10 products (about 1 to 2 ms each)
        # that makes 13 pairs of operations (Q and GF(p)) of close cost, so
        # op_p50_ms falls inside the pair of (7, 3) and op_p90_ms inside
        # the pair of (5, 4), not on a step between two pairs. A round takes
        # about half a second, so a run holds some 40 rounds, each in a new
        # order, and every quantile is read off samples from all through
        # the run. The seed does not change any of these costs.
        plan = ((2, 3), (2, 4), (3, 2), (3, 3)) if short else (
            (6, 3), (7, 3), (4, 4), (8, 3), (2, 7), (3, 5), (5, 4), (2, 8))
        for petals, k in plan:
            spec = gen.rose(petals)
            c = rng.choice((1, 2, 3, 5, -1, -2))
            words = _words([e[0] for e in spec.edges], k)
            rng.shuffle(words)
            cuntz.append({"spec": spec, "k": k, "c": c, "words": words})
        products = []
        for i in range(2 if short else 5):
            make = gen.small_acyclic if i % 2 == 0 else gen.random_graph
            spec = make(rng, 8, 12, "small-%d" % i)
            x = gen.random_terms(rng, spec, 20, 3)
            y = gen.random_terms(rng, spec, 20, 3)
            z = gen.random_terms(rng, spec, 3, 2)
            products.append({"spec": spec, "x": x, "y": y, "z": z})
        return {"p": p, "cuntz": cuntz, "products": products}

    def setup(self, inp: dict) -> dict:
        import leavitt as L
        from leavitt.algebra import Monomial

        fields = {"q": L.QQ, "gf": L.PrimeField(inp["p"])}
        cuntz = []
        for item in inp["cuntz"]:
            g = L.parse_graph(item["spec"].text())
            pairs = []
            for w in item["words"]:
                path = g.path("v", w)
                pairs.append((item["c"], Monomial(path, path)))
            cuntz.append({f: (L.LeavittAlgebra(g, F), pairs) for f, F in fields.items()})
        products = []
        for item in inp["products"]:
            g = L.parse_graph(item["spec"].text())
            entry = {}
            for f, F in fields.items():
                alg = L.LeavittAlgebra(g, F)
                entry[f] = tuple(
                    L.parse_element(alg, gen.expression(item[k])) for k in ("x", "y", "z")
                )
            products.append(entry)
        return {"cuntz": cuntz, "products": products}

    def ops(self, inp: dict, st: dict) -> list[Op]:
        p = inp["p"]
        ops: list[Op] = []
        for item, built in zip(inp["cuntz"], st["cuntz"]):
            for f in ("q", "gf"):
                alg, pairs = built[f]
                ops.append(Op(
                    "cuntz %s k=%d %s" % (item["spec"].label, item["k"], f),
                    lambda alg=alg, pairs=pairs: alg.normal_form_steps(pairs),
                    lambda r, item=item, mod=(p if f == "gf" else None):
                        _check_cuntz(item, r, mod),
                    field=f,
                ))
        for item, built in zip(inp["products"], st["products"]):
            for f in ("q", "gf"):
                x, y, z = built[f]
                ops.append(Op(
                    "product %s %s" % (item["spec"].label, f),
                    lambda x=x, y=y: x * y,
                    lambda r, item=item, built=built, f=f: _check_product(item, built, f, r, p),
                    field=f,
                ))
        return ops


def _words(letters: list[str], k: int) -> list[tuple]:
    words = [()]
    for _ in range(k):
        words = [w + (a,) for w in words for a in letters]
    return words


def _check_cuntz(item: dict, result, mod) -> None:
    element, steps = result
    c = item["c"] % mod if mod is not None else item["c"]
    got = oracle.element_terms(element, mod)
    expect(got == [(c, ("v", ()), ("v", ()))],
           "%s k=%d: sum of w w* is not c v" % (item["spec"].label, item["k"]))
    expect(steps > 0, "cuntz: no rewrite steps")


def _check_product(item: dict, built: dict, f: str, result, p: int) -> None:
    spec = item["spec"]
    mod = p if f == "gf" else None
    terms = oracle.element_terms(result, mod)
    oracle.check_normal_form(spec, terms)
    if spec.family == "small-acyclic":
        def m(raw):
            return oracle.matrix(spec, [(c % mod if mod else c, pp, qq)
                                        for c, pp, qq in raw], mod)
        expect(oracle.matrix(spec, terms, mod)
               == oracle.matmul(m(item["x"]), m(item["y"]), mod),
               "%s: product disagrees with the matrix representation" % spec.label)
    else:
        x, y, z = built[f]
        expect(result * z == x * (y * z), "%s: product is not associative" % spec.label)
    if f == "gf":
        q_terms = oracle.element_terms(built["q"][0] * built["q"][1], None)
        reduced = [(c.numerator * pow(c.denominator, -1, p) % p, pp, qq)
                   for c, pp, qq in q_terms]
        expect(terms == [t for t in reduced if t[0]],
               "%s: GF(p) product is not the rational one mod p" % spec.label)


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

class Certify:
    """Reduction certificates: many cheap products on small graphs, and
    elements at the far end of large lines and out-trees."""

    def inputs(self, seed: int, short: bool) -> list[dict]:
        rng = random.Random(seed)
        items = []
        for i in range(2 if short else 4):
            make = gen.small_acyclic if i % 2 == 0 else gen.random_graph
            spec = make(rng, 8, 12, "small-%d" % i)
            for _ in range(2):
                items.append({"spec": spec, "expr": gen.expression(
                    gen.random_terms(rng, spec, 12, 4, normal=True))})
        # Lines and out-trees declared in chain (parent-first) order, with
        # elements on their last three vertices: the vertex scans in reduce
        # run over the whole graph, so the cost follows the size and not the
        # seed. op_p50_ms falls on a dense ladder of 150- and 200-vertex
        # operations and op_p90_ms on one of 600- and 1000-vertex ones
        # (hence only two elements at 3000); without the 200-vertex size
        # op_p50_ms sat next to a step in cost.
        sizes = ((40, 4), (80, 2)) if short else (
            (150, 4), (200, 4), (300, 4), (600, 4), (1000, 4), (3000, 2))
        for n, count in sizes:
            for spec, v, e in (_line_tail(rng, n), _tree_tail(rng, n)):
                c = rng.randint(2, 9)
                exprs = ("%s^* + %s" % (e[2], e[1]),
                         "%d*%s - %s^*" % (c, v[2], e[2]),
                         "%s %s^* + %d*%s" % (e[1], e[1], c, e[2]),
                         "%s %s %s^*" % (e[1], e[2], e[2]))
                items.extend({"spec": spec, "expr": x} for x in exprs[:count])
        return items

    def setup(self, inp: list[dict]) -> list:
        import leavitt as L

        graphs: dict[str, object] = {}
        elements = []
        for item in inp:
            spec = item["spec"]
            if spec.label not in graphs:
                graphs[spec.label] = L.LeavittAlgebra(L.parse_graph(spec.text()))
            elements.append(L.parse_element(graphs[spec.label], item["expr"]))
        return elements

    def ops(self, inp: list[dict], elements: list) -> list[Op]:
        import leavitt as L

        ops: list[Op] = []
        for item, x in zip(inp, elements):
            slot: dict = {}

            def do_reduce(x=x, slot=slot):
                slot["w"] = L.reduce(x)
                return slot["w"]

            tag = "%s %s" % (item["spec"].label, item["expr"][:40])
            ops.append(Op("reduce " + tag, do_reduce,
                          lambda w, item=item, x=x: _check_witness(item, x, w)))
            ops.append(Op("verify_witness " + tag,
                          lambda x=x, slot=slot: L.verify_witness(x, slot["w"]),
                          lambda r: expect(r is True, "verify_witness rejected a witness"),
                          follows=True))
            ops.append(Op("nondegeneracy_witness " + tag,
                          lambda x=x: L.nondegeneracy_witness(x),
                          lambda a, item=item, x=x: _check_nondegen(item, x, a)))
        return ops


def _line_tail(rng, n):
    """A line in chain order with its last three vertices and their edges."""
    spec = gen.line(rng, n, shuffle=False)
    return spec, ["v%d" % i for i in (n - 2, n - 1, n)], ["e%d" % i for i in (n - 3, n - 2, n - 1)]


def _tree_tail(rng, n):
    """An out-tree in parent-first order whose last three vertices form a
    chain, with those vertices and the edges into them."""
    spec = gen.out_tree(rng, n, shuffle=False, tail=3)
    return spec, ["t%d" % i for i in (n - 3, n - 2, n - 1)], ["a%d" % i for i in (n - 3, n - 2, n - 1)]


def _acyclic(spec: gen.GraphSpec) -> bool:
    return spec.family in ("small-acyclic", "line", "out-tree")


def _check_witness(item: dict, x, w) -> None:
    import leavitt as L

    spec = item["spec"]
    expect(L.verify_witness(x, w), "%s: witness rejected" % spec.label)
    if not _acyclic(spec):
        return
    mat = oracle.matrix(spec, oracle.element_terms(x, None), None)
    for gen_ in w.right:
        mat = oracle.matmul(mat, oracle.matrix(
            spec, oracle.generator_terms(spec, gen_.kind, gen_.name), None), None)
    for gen_ in w.left:
        mat = oracle.matmul(oracle.matrix(
            spec, oracle.generator_terms(spec, gen_.kind, gen_.name), None), mat, None)
    o = w.outcome
    expect(isinstance(o, L.ScalarVertex) and o.coeff != 0,
           "%s: acyclic outcome is not a scalar vertex" % spec.label)
    target = oracle.matrix(spec, [(oracle.scalar(o.coeff, None), (o.vertex, ()),
                                   (o.vertex, ()))], None)
    expect(mat == target, "%s: witness replay in matrices" % spec.label)


def _check_nondegen(item: dict, x, a) -> None:
    spec = item["spec"]
    expect(not (x * a * x).is_zero, "%s: x a x is zero" % spec.label)
    if _acyclic(spec):
        mx = oracle.matrix(spec, oracle.element_terms(x, None), None)
        ma = oracle.matrix(spec, oracle.element_terms(a, None), None)
        expect(bool(oracle.matmul(oracle.matmul(mx, ma, None), mx, None)),
               "%s: x a x is zero in matrices" % spec.label)


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

DEEP_NESTING = 3000


class Cli:
    """``python -m leavitt.cli`` as a child process, one at a time."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )

    def inputs(self, seed: int, short: bool) -> dict:
        rng = random.Random(seed)
        p = rng.choice(PRIMES)
        if short:
            specs = {"line": gen.line(rng, 8), "tree": gen.out_tree(rng, 8),
                     "loop": gen.loop_line(rng, 5), "k": gen.complete_plus_sink(rng, 3),
                     "sparse": gen.sparse(rng, 30, 24),
                     "small": gen.random_graph(rng, 5, 7, "small")}
        else:
            # K5 makes the two commands on it (socle_structure with 5,461
            # entry paths) about three times as slow as the others, so that
            # op_p90_ms falls inside that pair rather than on the tail of
            # interpreter start-up.
            specs = {"line": gen.line(rng, 40), "tree": gen.out_tree(rng, 40),
                     "loop": gen.loop_line(rng, 25), "k": gen.complete_plus_sink(rng, 5),
                     "sparse": gen.sparse(rng, 150, 120),
                     "small": gen.random_graph(rng, 8, 12, "small")}
        facts = {k: _graph_ops_inputs(rng, s, False) for k, s in specs.items()}
        small = specs["small"]
        reduce_small = gen.expression(gen.random_terms(rng, small, 3, 3, normal=True))
        reduce_tree = gen.expression(gen.random_terms(rng, specs["tree"], 3, 3, normal=True))
        kv = rng.choice([v for v in specs["k"].vertices if v != "s"])
        cuntz_k = " + ".join("%s %s^*" % (e[0], e[0]) for e in specs["k"].out_map()[kv])
        e = rng.choice(small.edges)
        e1, e2 = rng.sample(specs["line"].edges, 2)
        return {
            "p": p, "specs": specs, "facts": facts,
            "reduce_small": reduce_small, "reduce_tree": reduce_tree,
            "cuntz_k": (kv, cuntz_k), "ghost_edge": e,
            "line_zero": (e1, e2), "deep_vertex": specs["line"].facts["chain"][-1],
        }

    def write_inputs(self, inp: dict) -> dict:
        """Write the graph files into the work directory; not program work."""
        os.makedirs(self.workdir, exist_ok=True)
        paths = {}
        for key, spec in inp["specs"].items():
            path = os.path.join(self.workdir, "%s.graph" % key)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec.text())
            paths[key] = path
        return paths

    def import_seconds(self) -> float:
        """Time of ``import leavitt.cli`` inside a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import leavitt.cli; "
                "print(repr(time.perf_counter() - t))")
        out = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                             capture_output=True, text=True, check=True)
        return float(out.stdout.strip())

    def ops(self, inp: dict, paths: dict) -> list[Op]:
        p = inp["p"]
        gf = "gf:%d" % p
        F = inp["facts"]
        ops: list[Op] = []

        def add(label, argv, check, field=None, failed=None):
            full = [argv[0], paths[argv[1]]] + argv[2:]
            ops.append(Op(label, lambda full=full: self.run_child(full), check,
                          field=field, failed=failed or _child_failed, argv=full))

        add("socle text line", ["socle", "line"],
            lambda r: _check_socle_text(F["line"], r))
        add("socle json k", ["socle", "k", "--format", "json"],
            lambda r: _check_socle_json(F["k"], _json(r)))
        add("structure text loop", ["structure", "loop"],
            lambda r: _check_structure_text(F["loop"], r))
        add("structure json k", ["structure", "k", "--format", "json"],
            lambda r: _check_structure_json(F["k"], _json(r)))
        add("structure dot tree", ["structure", "tree", "--format", "dot"],
            lambda r: _check_dot(F["tree"], r))
        add("member json line q", ["member", "line", "--expr", F["line"]["expr_in_h"],
                                   "--format", "json"],
            lambda r: expect(_json(r)["answer"] is True, "member line"), field="q")
        loop_v = F["loop"]["member_vertex"]
        add("member json loop gf", ["member", "loop", "--expr", loop_v, "--field", gf,
                                    "--format", "json"],
            lambda r: expect(_json(r)["answer"] == (loop_v in F["loop"]["h"]),
                             "member loop"), field="gf")
        sp_v = F["sparse"]["member_vertex"]
        add("member json sparse q", ["member", "sparse", "--expr", sp_v,
                                     "--format", "json"],
            lambda r: expect(_json(r)["answer"] == (sp_v in F["sparse"]["h"]),
                             "member sparse"), field="q")
        for key, expr, sel in (("small", inp["reduce_small"], "q"),
                               ("tree", inp["reduce_tree"], gf),
                               ("loop", "c c^* + 2*f", "q")):
            add("reduce json %s %s" % (key, sel[:2]),
                ["reduce", key, "--expr", expr, "--field", sel, "--format", "json"],
                lambda r, key=key, expr=expr, sel=sel:
                    _check_reduce(inp["specs"][key], expr, sel, _json(r)),
                field="q" if sel == "q" else "gf")
        kv, cuntz_k = inp["cuntz_k"]
        add("eval cuntz k q", ["eval", "k", "--expr", "3*(%s)" % cuntz_k],
            lambda r: _check_eval(r, "3*%s" % kv), field="q")
        e = inp["ghost_edge"]
        add("eval e*e small gf", ["eval", "small", "--expr", "%s^* %s" % (e[0], e[0]),
                                  "--field", gf],
            lambda r: _check_eval(r, "1*%s" % e[2]), field="gf")
        e1, e2 = inp["line_zero"]
        add("eval e*f line q", ["eval", "line", "--expr", "%s^* %s" % (e1[0], e2[0])],
            lambda r: _check_eval(r, "0"), field="q")
        add("check json small q", ["check", "small", "--format", "json"],
            lambda r: _check_check(inp["specs"]["small"], _json(r)), field="q")
        add("check json loop gf", ["check", "loop", "--field", gf, "--format", "json"],
            lambda r: _check_check(inp["specs"]["loop"], _json(r)), field="gf")
        add("linepoints json sparse", ["linepoints", "sparse", "--format", "json"],
            lambda r: expect(_json(r)["line_points"]
                             == list(_ordered(F["sparse"]["spec"], F["sparse"]["lp"])),
                             "linepoints sparse"))
        add("linepoints text tree", ["linepoints", "tree"],
            lambda r: expect(r[1].split() == list(_ordered(F["tree"]["spec"],
                                                            F["tree"]["lp"])),
                             "linepoints tree"))
        seeds = F["sparse"]["closure_seeds"]
        add("closure json sparse", ["closure", "sparse", "--set", ",".join(seeds),
                                    "--format", "json"],
            lambda r: expect(_json(r)["closure"]
                             == list(_ordered(F["sparse"]["spec"], F["sparse"]["closure"])),
                             "closure sparse"))
        deep = "(" * DEEP_NESTING + inp["deep_vertex"] + ")" * DEEP_NESTING
        add("eval deep nesting line", ["eval", "line", "--expr", deep],
            lambda r: _check_eval(r, "1*%s" % inp["deep_vertex"]) if r[0] == 0 else None,
            field="q", failed=_deep_failed)
        return ops

    def run_child(self, argv: list) -> tuple:
        proc = subprocess.run([sys.executable, "-m", "leavitt.cli"] + argv,
                              env=self.env, cwd=self.root, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def run_main(argv: list) -> tuple:
        """``leavitt.cli.main`` in this process, output captured."""
        import leavitt.cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = leavitt.cli.main(argv)
        return code, out.getvalue(), err.getvalue()


def _child_failed(r: tuple) -> bool:
    return r[0] != 0 or "Traceback" in r[2]


def _deep_failed(r: tuple) -> bool:
    """Passes with 1*v and exit 0, or with a one-line error and exit 2."""
    code, out, err = r
    if code == 0:
        return "Traceback" in err
    lines = err.strip().splitlines()
    return not (code == 2 and len(lines) == 1 and lines[0].startswith("error:"))


def _json(r: tuple) -> dict:
    obj = json.loads(r[1])
    expect(obj.get("schema") == 1, "json output without schema 1")
    return obj


def _summand_texts(spec, h) -> list:
    return ["inf" if n is None else n for n in oracle.summands(spec, h)]


def _check_socle_text(item: dict, r: tuple) -> None:
    spec, lp, h = item["spec"], item["lp"], item["h"]
    want = [
        ("line points: " + " ".join(_ordered(spec, lp))).rstrip(),
        ("closure: " + " ".join(_ordered(spec, h))).rstrip(),
        ("summands: " + " ".join(str(n) for n in _summand_texts(spec, h))).rstrip(),
        "socle is whole: " + ("true" if len(h) == len(spec.vertices) else "false"),
    ]
    expect(r[1].splitlines() == want, "%s: socle text" % spec.label)


def _check_socle_json(item: dict, obj: dict) -> None:
    spec, lp, h = item["spec"], item["lp"], item["h"]
    expect(obj["line_points"] == list(_ordered(spec, lp))
           and obj["closure_h"] == list(_ordered(spec, h))
           and obj["summands"] == _summand_texts(spec, h)
           and obj["socle_is_whole"] == (len(h) == len(spec.vertices)),
           "%s: socle json" % spec.label)


@dataclass
class _Hedgehog:
    entry_part: list
    ideal_part: list
    complete: bool
    blocking_cycle: object = None


@dataclass
class _Cycle:
    source: str
    edges: tuple


def _check_structure_json(item: dict, obj: dict) -> None:
    _check_socle_json(item, obj)
    spec = item["spec"]
    hh = obj["hedgehog"]
    cycle = None
    if hh["blocking_cycle"] is not None:
        named = {e[0]: e for e in spec.edges}
        cycle = _Cycle(named[hh["blocking_cycle"][0]][1], tuple(hh["blocking_cycle"]))
    found = oracle.check_hedgehog(spec, item["h"], _Hedgehog(
        hh["entry_part"], hh["ideal_part"], hh["complete"], cycle))
    if spec.family == "complete-plus-sink":
        n = spec.facts["n"]
        expect(found == sum((n - 1) ** m for m in range(len(spec.vertices) + 1)),
               "%s: K_n entry paths" % spec.label)
    expect(len(hh["vertices"]) == len(item["h"]) + found, "%s: hedgehog size" % spec.label)


def _check_structure_text(item: dict, r: tuple) -> None:
    spec, h = item["spec"], item["h"]
    lines = r[1].splitlines()
    _check_socle_text(item, (0, "\n".join(lines[:4]) + "\n", ""))
    found = sum(oracle.entry_counts(spec, h, len(spec.vertices) + 1))
    fields_ = dict(line.split(": ", 1) if ": " in line else (line.rstrip(":"), "")
                   for line in lines[4:])
    expect(len(fields_["hedgehog entry part"].split()) == found,
           "%s: structure text entry part" % spec.label)
    if spec.family == "loop-line":
        expect(fields_["hedgehog complete"] == "false"
               and fields_["hedgehog blocking cycle"] == "c",
               "%s: structure text blocking cycle" % spec.label)


def _check_dot(item: dict, r: tuple) -> None:
    spec, h = item["spec"], item["h"]
    found = sum(oracle.entry_counts(spec, h, len(spec.vertices) + 1))
    body = r[1].splitlines()
    nodes = [b for b in body[1:-1] if "->" not in b]
    arrows = [b for b in body[1:-1] if "->" in b]
    inner = sum(1 for e in spec.edges if e[1] in h)
    expect(body[0].startswith("digraph") and body[-1] == "}"
           and len(nodes) == len(h) + found and len(arrows) == inner + found,
           "%s: structure dot" % spec.label)


def _check_reduce(spec, expr: str, selector: str, obj: dict) -> None:
    import leavitt as L

    expect(obj["verified"] is True, "%s: reduce not verified" % spec.label)
    alg = L.LeavittAlgebra(L.parse_graph(spec.text()), L.field_from_selector(selector))
    x = L.parse_element(alg, expr)
    w = L.witness_from_obj(alg, obj["witness"])
    expect(L.verify_witness(x, w), "%s: replayed witness rejected" % spec.label)


def _check_eval(r: tuple, want: str) -> None:
    expect(r[1] == want + "\n", "eval printed %r, expected %r" % (r[1][:80], want))


def _check_check(spec, obj: dict) -> None:
    nv, ne = len(spec.vertices), len(spec.edges)
    out = spec.out_map()
    want = {"vertex-idempotents": nv * nv, "source-range": ne,
            "ghost-source-range": ne, "ghost-pairing": ne * ne,
            "vertex-expansion": sum(1 for v in spec.vertices if out[v])}
    want = {k: n for k, n in want.items() if n}
    expect(obj["passed"] is True and obj["failures"] == []
           and obj["relations"] == want and obj["reduction_trials"] == 25,
           "%s: check json" % spec.label)


WORKLOADS = ("socle-graphs", "normal-form", "certify", "cli")
