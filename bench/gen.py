"""Seeded input generators for the benchmark.

Every input the benchmark hands to the program is made here from an
explicit ``random.Random``, so a seed fixes the whole workload. Nothing in
this module imports the program: a change to ``leavitt`` (its sampling
helpers included) cannot change what a workload contains. The program only
ever sees the graph text, the expression strings and the paths built from
the names these specs carry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class GraphSpec:
    """A generated graph: names in declaration order plus family facts.

    ``facts`` holds what the family fixes by construction (chain order of a
    line, parent and depth of a tree vertex, n of K_n), which the oracle
    uses for closed-form checks, and caches of derived tables.
    """

    label: str
    family: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    facts: dict = field(default_factory=dict, compare=False)

    def text(self) -> str:
        lines = ["# %s" % self.label, "vertices: " + " ".join(self.vertices)]
        lines.extend("edge %s: %s -> %s" % e for e in self.edges)
        return "\n".join(lines) + "\n"

    def out_map(self) -> dict[str, list[tuple[str, str, str]]]:
        """Out-edges per vertex, in declaration order (cached)."""
        if "_out" not in self.facts:
            out = {v: [] for v in self.vertices}
            for e in self.edges:
                out[e[1]].append(e)
            self.facts["_out"] = out
        return self.facts["_out"]

    def in_map(self) -> dict[str, list[tuple[str, str, str]]]:
        """In-edges per vertex, in declaration order (cached)."""
        if "_in" not in self.facts:
            inn = {v: [] for v in self.vertices}
            for e in self.edges:
                inn[e[2]].append(e)
            self.facts["_in"] = inn
        return self.facts["_in"]


def _shuffled(rng: random.Random, items) -> tuple:
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def line(rng: random.Random, n: int, shuffle: bool = True) -> GraphSpec:
    """v1 -> v2 -> ... -> vn, declared in a seeded order (or in chain order)."""
    chain = ["v%d" % i for i in range(1, n + 1)]
    edges = [("e%d" % i, chain[i - 1], chain[i]) for i in range(1, n)]
    if shuffle:
        chain_decl, edges = _shuffled(rng, chain), _shuffled(rng, edges)
    else:
        chain_decl, edges = tuple(chain), tuple(edges)
    return GraphSpec("line-%d" % n, "line", chain_decl, edges, {"chain": tuple(chain)})


def out_tree(rng: random.Random, n: int, shuffle: bool = True, tail: int = 0) -> GraphSpec:
    """A random recursive tree: vertex i hangs under a uniform earlier one,
    except that the last ``tail`` vertices form a chain.

    Declared in a seeded order, or parents before children."""
    names = ["t%d" % i for i in range(n)]
    parent: dict[str, str] = {}
    depth = {names[0]: 0}
    edges = []
    for i in range(1, n):
        p = names[i - 1] if i > n - tail else names[rng.randrange(i)]
        parent[names[i]] = p
        depth[names[i]] = depth[p] + 1
        edges.append(("a%d" % i, p, names[i]))
    if shuffle:
        names, edges = _shuffled(rng, names), _shuffled(rng, edges)
    return GraphSpec(
        "out-tree-%d" % n, "out-tree", tuple(names), tuple(edges),
        {"parent": parent, "depth": depth},
    )


def loop_line(rng: random.Random, n: int) -> GraphSpec:
    """A vertex u with a loop c and an edge f into the line w1 -> ... -> wn.

    The loop blocks the hedgehog: entry paths c^m f exist for every m.
    """
    chain = ["w%d" % i for i in range(1, n + 1)]
    edges = [("c", "u", "u"), ("f", "u", chain[0])]
    edges.extend(("g%d" % i, chain[i - 1], chain[i]) for i in range(1, n))
    return GraphSpec(
        "loop-line-%d" % n, "loop-line", _shuffled(rng, ["u"] + chain),
        _shuffled(rng, edges), {"chain": tuple(chain)},
    )


def complete_plus_sink(rng: random.Random, n: int) -> GraphSpec:
    """K_n without loops (every ordered pair once) plus one edge into a sink."""
    ks = ["k%d" % i for i in range(1, n + 1)]
    edges = [
        ("x%d_%d" % (i, j), ks[i - 1], ks[j - 1])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    edges.append(("z", ks[0], "s"))
    return GraphSpec(
        "k%d-plus-sink" % n, "complete-plus-sink", _shuffled(rng, ks + ["s"]),
        _shuffled(rng, edges), {"n": n, "sink": "s"},
    )


def random_graph(rng: random.Random, nv: int, ne: int, label: str,
                 family: str = "small", vertex: str = "p", edge: str = "h") -> GraphSpec:
    """nv vertices and ne edges with uniform endpoints (loops and repeats
    allowed), named with the given vertex and edge prefixes."""
    names = ["%s%d" % (vertex, i) for i in range(1, nv + 1)]
    edges = tuple(
        ("%s%d" % (edge, j), rng.choice(names), rng.choice(names)) for j in range(1, ne + 1)
    )
    return GraphSpec(label, family, tuple(names), edges)


def sparse(rng: random.Random, n: int, m: int) -> GraphSpec:
    """The sparse family: random_graph with its own names and label."""
    return random_graph(rng, n, m, "sparse-%d-%d" % (n, m), "sparse", "s", "b")


def small_acyclic(rng: random.Random, nv: int, ne: int, label: str) -> GraphSpec:
    """A small random DAG: every edge runs from a lower to a higher index."""
    names = ["p%d" % i for i in range(1, nv + 1)]
    edges = []
    for j in range(1, ne + 1):
        a, b = sorted(rng.sample(range(nv), 2))
        edges.append(("h%d" % j, names[a], names[b]))
    return GraphSpec(label, "small-acyclic", tuple(names), tuple(edges))


def rose(petals: int) -> GraphSpec:
    """petals loops r1..rn at the single vertex v."""
    edges = tuple(("r%d" % i, "v", "v") for i in range(1, petals + 1))
    return GraphSpec("rose-%d" % petals, "rose", ("v",), edges)


# ----------------------------------------------------------------------
# paths and expressions
# ----------------------------------------------------------------------

def walk_backward(rng: random.Random, spec: GraphSpec, end: str, length: int) -> tuple:
    """A random path of at most the given length ending at ``end``:
    (source, edge names in forward order)."""
    inn = spec.in_map()
    names = []
    at = end
    for _ in range(length):
        if not inn[at]:
            break
        e = rng.choice(inn[at])
        names.append(e[0])
        at = e[1]
    return at, tuple(reversed(names))


def random_terms(
    rng: random.Random, spec: GraphSpec, nterms: int, max_len: int, normal: bool = False
) -> list[tuple[int, tuple, tuple]]:
    """Raw terms c p q* as (coeff, (p source, p edges), (q source, q edges)).

    p is a random path into a random vertex r and q another random path
    into r, so every term is a nonzero monomial of the algebra. Half of the
    terms get the first declared out-edge of r appended to both parts,
    which makes them reducible by the vertex expansion relation. With
    ``normal`` no term is pushed, and terms that are reducible or repeat an
    earlier monomial are dropped: the sum is then a combination of distinct
    normal-form monomials, so it is nonzero (draws repeat until there are
    ``nterms`` terms, within a bounded number of tries).
    """
    out = spec.out_map()
    named = {e[0]: e for e in spec.edges}
    terms = []
    seen = set()
    for _ in range(20 * nterms):
        if len(terms) == nterms:
            break
        r = rng.choice(spec.vertices)
        p = walk_backward(rng, spec, r, rng.randint(0, max_len))
        q = walk_backward(rng, spec, r, rng.randint(0, max_len))
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        if not normal:
            if out[r] and rng.random() < 0.5:
                e = out[r][0][0]
                p = (p[0], p[1] + (e,))
                q = (q[0], q[1] + (e,))
        elif (p, q) in seen or (
            p[1] and q[1] and p[1][-1] == q[1][-1]
            and out[named[p[1][-1]][1]][0][0] == p[1][-1]
        ):
            continue
        seen.add((p, q))
        terms.append((c, p, q))
    return terms


def term_text(c: int, p: tuple, q: tuple) -> str:
    """One term c p q^* in the program's expression grammar, c >= 0."""
    factors = list(p[1]) + [name + "^*" for name in reversed(q[1])]
    return "%d*%s" % (c, " ".join(factors or [p[0]]))


def expression(terms) -> str:
    """A sum of terms; negative scalars are written as a subtraction."""
    parts = []
    for c, p, q in terms:
        t = term_text(abs(c), p, q)
        if not parts:
            parts.append(("-" if c < 0 else "") + t)
        else:
            parts.append((" - " if c < 0 else " + ") + t)
    return "".join(parts)
