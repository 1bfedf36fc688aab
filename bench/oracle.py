"""Answers the benchmark computes apart from the program.

Everything here works on the generator's ``GraphSpec`` and on plain
tuples, never on the program's objects, and uses different algorithms from
the program's (memoized unique-successor walks instead of per-vertex trees,
a worklist closure, Tarjan's components, path-count dynamic programs, and a
sparse block-matrix representation for acyclic graphs). The workloads
compare the program's answers with these.
"""

from __future__ import annotations

from fractions import Fraction

from gen import GraphSpec


class CheckError(AssertionError):
    """A program answer disagrees with the independent computation."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ----------------------------------------------------------------------
# graph combinatorics
# ----------------------------------------------------------------------

def line_points(spec: GraphSpec) -> set[str]:
    """Vertices whose tree has no bifurcation and meets no cycle.

    Such a tree is a single path: follow the unique out-edge until a sink
    (a line point), a bifurcation, a revisit (a cycle) or a vertex already
    decided, then label the walked stretch with that answer.
    """
    out = spec.out_map()
    status: dict[str, bool] = {}
    for start in spec.vertices:
        trail: list[str] = []
        on_trail: set[str] = set()
        at = start
        while at not in status:
            if len(out[at]) == 0:
                status[at] = True
                break
            if len(out[at]) >= 2 or at in on_trail:
                status[at] = False
                break
            trail.append(at)
            on_trail.add(at)
            at = out[at][0][2]
        verdict = status[at]
        for v in trail:
            status[v] = verdict
    return {v for v, ok in status.items() if ok}


def closure(spec: GraphSpec, seeds) -> set[str]:
    """Least hereditary saturated superset, by a worklist that counts, per
    vertex, the out-edges still leaving the set."""
    out, inn = spec.out_map(), spec.in_map()
    leaving = {v: len(out[v]) for v in spec.vertices}
    h: set[str] = set()
    work = list(seeds)
    while work:
        v = work.pop()
        if v in h:
            continue
        h.add(v)
        work.extend(e[2] for e in out[v])
        for e in inn[v]:
            u = e[1]
            leaving[u] -= 1
            if leaving[u] == 0 and u not in h:
                work.append(u)
    return h


def components(spec: GraphSpec, within=None) -> list[list[str]]:
    """Strongly connected components (iterative Tarjan), optionally of the
    subgraph induced by ``within``."""
    out = spec.out_map()
    verts = [v for v in spec.vertices if within is None or v in within]
    keep = set(verts)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    result = []
    counter = 0
    for root in verts:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            succ = [e[2] for e in out[v] if e[2] in keep]
            if i < len(succ):
                work.append((v, i + 1))
                w = succ[i]
                if w not in index:
                    work.append((w, 0))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                result.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return result


def cyclic_vertices(spec: GraphSpec, within=None) -> set[str]:
    """Vertices on a closed path (inside ``within`` when given)."""
    out = spec.out_map()
    on: set[str] = set()
    for comp in components(spec, within):
        if len(comp) > 1:
            on.update(comp)
        elif any(e[2] == comp[0] for e in out[comp[0]]):
            on.add(comp[0])
    return on


def condition_l(spec: GraphSpec) -> bool:
    """Every cycle has an exit: no component is a bare cycle whose vertices
    all have out-degree one."""
    out = spec.out_map()
    for comp in components(spec):
        cyclic = len(comp) > 1 or any(e[2] == comp[0] for e in out[comp[0]])
        if cyclic and all(len(out[v]) == 1 for v in comp):
            return False
    return True


def is_simple(spec: GraphSpec) -> bool:
    full = len(spec.vertices)
    return condition_l(spec) and all(
        len(closure(spec, [v])) == full for v in spec.vertices
    )


def paths_ending_at(spec: GraphSpec, sink: str, cyclic: set[str]) -> int | None:
    """Number of paths with range ``sink`` (None when a cycle reaches it)."""
    out, inn = spec.out_map(), spec.in_map()
    reach = {sink}
    work = [sink]
    while work:
        v = work.pop()
        for e in inn[v]:
            if e[1] not in reach:
                reach.add(e[1])
                work.append(e[1])
    if reach & cyclic:
        return None
    count: dict[str, int] = {}
    for root in reach:
        work2 = [(root, False)]
        while work2:
            v, done = work2.pop()
            if v in count:
                continue
            succ = [e[2] for e in out[v] if e[2] in reach]
            if done:
                count[v] = (1 if v == sink else 0) + sum(count[w] for w in succ)
                continue
            work2.append((v, True))
            work2.extend((w, False) for w in succ if w not in count)
    return sum(count.values())


def summands(spec: GraphSpec, h: set[str]) -> tuple:
    """Matrix sizes, one per sink in H: finite ascending, then None."""
    cyc = cyclic_vertices(spec)
    out = spec.out_map()
    sizes = [paths_ending_at(spec, w, cyc) for w in spec.vertices if w in h and not out[w]]
    return tuple(sorted(n for n in sizes if n is not None)) + tuple(
        n for n in sizes if n is None
    )


def entry_counts(spec: GraphSpec, h: set[str], max_len: int) -> list[int]:
    """counts[l-1] = number of paths of length l that end in H with every
    earlier vertex outside H, for l = 1..max_len."""
    out = spec.out_map()
    outside = [v for v in spec.vertices if v not in h]
    cur = {v: sum(1 for e in out[v] if e[2] in h) for v in outside}
    counts = []
    for _ in range(max_len):
        counts.append(sum(cur.values()))
        cur = {
            v: sum(cur[e[2]] for e in out[v] if e[2] not in h) for v in outside
        }
    return counts


def reaches_set(spec: GraphSpec, h: set[str]) -> set[str]:
    """Vertices outside H with a path into H."""
    inn = spec.in_map()
    seen: set[str] = set()
    work = list(h)
    while work:
        v = work.pop()
        for e in inn[v]:
            u = e[1]
            if u not in h and u not in seen:
                seen.add(u)
                work.append(u)
    return seen


def check_hedgehog(spec: GraphSpec, h: set[str], hh) -> int:
    """Check a hedgehog built with the default depth bound against the
    entry-path counts; returns the number of entry paths of length at most
    the bound."""
    bound = len(spec.vertices) + 1
    counts = entry_counts(spec, h, bound + 1)
    expect(
        len(hh.entry_part) == sum(counts[:bound]),
        "%s: hedgehog entry part %d, expected %d"
        % (spec.label, len(hh.entry_part), sum(counts[:bound])),
    )
    expect(set(hh.ideal_part) == h, "%s: hedgehog ideal part" % spec.label)
    reaching = reaches_set(spec, h)
    blocked = bool(cyclic_vertices(spec, reaching))
    expect(
        (hh.blocking_cycle is not None) == blocked,
        "%s: blocking cycle presence" % spec.label,
    )
    if hh.blocking_cycle is not None:
        check_closed_path(spec, hh.blocking_cycle.source, hh.blocking_cycle.edges, reaching)
    expect(
        hh.complete == (not blocked and counts[bound] == 0),
        "%s: hedgehog completeness" % spec.label,
    )
    return sum(counts[:bound])


def check_closed_path(spec: GraphSpec, source: str, edges, inside: set[str]) -> None:
    named = {e[0]: e for e in spec.edges}
    at = source
    for name in edges:
        e = named.get(name)
        expect(e is not None and e[1] == at and at in inside, "%s: bad cycle" % spec.label)
        at = e[2]
    expect(bool(edges) and at == source, "%s: cycle not closed" % spec.label)


# ----------------------------------------------------------------------
# elements: normal-form shape and a matrix representation
# ----------------------------------------------------------------------

def scalar(c, mod: int | None):
    """A program coefficient (Fraction or GF element) as a plain number."""
    if mod is None:
        return Fraction(c)
    return int(c.value) % mod


def element_terms(x, mod: int | None) -> list[tuple]:
    """An element's terms as (coeff, (p src, p edges), (q src, q edges))."""
    return [
        (scalar(c, mod), (m.real.source, m.real.edges), (m.ghost.source, m.ghost.edges))
        for m, c in x.items()
    ]


def path_range(spec: GraphSpec, path: tuple) -> str:
    named = spec.facts.setdefault("_named", {e[0]: e for e in spec.edges})
    at = path[0]
    for name in path[1]:
        e = named[name]
        expect(e[1] == at, "%s: path %r does not chain" % (spec.label, path))
        at = e[2]
    return at


def check_normal_form(spec: GraphSpec, terms: list[tuple]) -> None:
    """Every term is a valid monomial p q* with no vertex-expansion redex
    (p and q ending in the same first-declared out-edge), each monomial
    occurs once, and no coefficient is zero."""
    out = spec.out_map()
    special = {v: out[v][0][0] for v in spec.vertices if out[v]}
    named = spec.facts.setdefault("_named", {e[0]: e for e in spec.edges})
    seen = set()
    for c, p, q in terms:
        expect(c != 0, "%s: zero coefficient in a normal form" % spec.label)
        expect(path_range(spec, p) == path_range(spec, q), "%s: ranges differ" % spec.label)
        if p[1] and q[1] and p[1][-1] == q[1][-1]:
            last = p[1][-1]
            expect(special[named[last][1]] != last, "%s: redex left in normal form" % spec.label)
        expect((p, q) not in seen, "%s: repeated monomial" % spec.label)
        seen.add((p, q))


def _sink_tails(spec: GraphSpec, start: str) -> list[tuple]:
    """For an acyclic graph: every path from ``start`` to a sink, as
    (edge names, sink). Memoized per vertex and computed only for the
    vertices reachable from the ones asked about."""
    tails = spec.facts.setdefault("_tails", {})
    out = spec.out_map()
    work = [(start, False)]
    while work:
        v, ready = work.pop()
        if v in tails:
            continue
        if not out[v]:
            tails[v] = [((), v)]
        elif ready:
            tails[v] = [((e[0],) + t, w) for e in out[v] for t, w in tails[e[2]]]
        else:
            work.append((v, True))
            work.extend((e[2], False) for e in out[v] if e[2] not in tails)
    return tails[start]


def matrix(spec: GraphSpec, terms, mod: int | None) -> dict:
    """Sparse block matrix of a combination of monomials on an acyclic graph.

    p q* contributes its coefficient at (sink, p.tau, q.tau) for every path
    tau from the common range to a sink. This is the isomorphism onto a
    product of matrix algebras, so it decides equality in the algebra.
    """
    mat: dict = {}
    for c, p, q in terms:
        for tau, w in _sink_tails(spec, path_range(spec, p)):
            key = (w, (p[0], p[1] + tau), (q[0], q[1] + tau))
            mat[key] = _norm(mat.get(key, 0) + c, mod)
    return {k: v for k, v in mat.items() if v}


def _norm(v, mod):
    return v % mod if mod is not None else v


def matmul(a: dict, b: dict, mod: int | None) -> dict:
    rows: dict = {}
    for (w, k, j), v in b.items():
        rows.setdefault((w, k), []).append((j, v))
    out: dict = {}
    for (w, i, k), u in a.items():
        for j, v in rows.get((w, k), ()):
            key = (w, i, j)
            out[key] = _norm(out.get(key, 0) + u * v, mod)
    return {k: v for k, v in out.items() if v}


def generator_terms(spec: GraphSpec, kind: str, name: str) -> list[tuple]:
    """The monomial of a vertex, an edge or a ghost edge."""
    if kind == "vertex":
        return [(1, (name, ()), (name, ()))]
    e = spec.facts.setdefault("_named", {e[0]: e for e in spec.edges})[name]
    if kind == "edge":
        return [(1, (e[1], (name,)), (e[2], ()))]
    return [(1, (e[2], ()), (e[1], (name,)))]
