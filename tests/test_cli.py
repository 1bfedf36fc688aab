import json
import os
import subprocess
import sys

import pytest

import leavitt
import leavitt.graphs as graphs_module
from leavitt.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# ----------------------------------------------------------------------
# query commands
# ----------------------------------------------------------------------

def test_linepoints_text(capsys, write_graph):
    rc, out, err = run(capsys, "linepoints", write_graph("W"))
    assert (rc, out, err) == (0, "v w\n", "")


def test_linepoints_json(capsys, write_graph):
    rc, out, _ = run(capsys, "linepoints", write_graph("W"), "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"schema": 1, "line_points": ["v", "w"]}


def test_closure(capsys, write_graph):
    path = write_graph("W")
    assert run(capsys, "closure", path, "--set", "v,")[:2] == (0, "v\n")
    assert run(capsys, "closure", path, "--set", "")[:2] == (0, "\n")
    assert run(capsys, "closure", path, "--set", "v,w")[:2] == (0, "v z w\n")


def test_socle_text(capsys, write_graph):
    rc, out, _ = run(capsys, "socle", write_graph("W"))
    assert rc == 0
    assert out == (
        "line points: v w\n"
        "closure: v z w\n"
        "summands: 2 2\n"
        "socle is whole: true\n"
    )


def test_socle_json(capsys, write_graph):
    rc, out, _ = run(capsys, "socle", write_graph("W"), "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "schema": 1,
        "line_points": ["v", "w"],
        "closure_h": ["v", "z", "w"],
        "summands": [2, 2],
        "socle_is_whole": True,
    }


def test_structure_text_with_truncated_hedgehog(capsys, write_graph):
    rc, out, _ = run(capsys, "structure", write_graph("LS"))
    assert rc == 0
    assert out == (
        "line points: v\n"
        "closure: v\n"
        "summands: inf\n"
        "socle is whole: false\n"
        "hedgehog complete: false\n"
        "hedgehog blocking cycle: c\n"
        "hedgehog ideal part: v\n"
        "hedgehog entry part: e c.e c.c.e\n"
    )


def test_structure_json(capsys, write_graph):
    rc, out, _ = run(capsys, "structure", write_graph("LS"), "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "schema": 1,
        "line_points": ["v"],
        "closure_h": ["v"],
        "summands": ["inf"],
        "socle_is_whole": False,
        "hedgehog": {
            "complete": False,
            "blocking_cycle": ["c"],
            "ideal_part": ["v"],
            "entry_part": ["e", "c.e", "c.c.e"],
            "vertices": ["v", "e", "c.e", "c.c.e"],
            "edges": [
                ["@e", "e", "v"],
                ["@c.e", "c.e", "v"],
                ["@c.c.e", "c.c.e", "v"],
            ],
        },
    }


def test_structure_dot(capsys, write_graph):
    rc, out, _ = run(capsys, "structure", write_graph("LS"), "--format", "dot")
    assert rc == 0
    assert out == (
        "digraph {\n"
        "  v;\n"
        "  e;\n"
        '  "c.e";\n'
        '  "c.c.e";\n'
        '  e -> v [label="@e"];\n'
        '  "c.e" -> v [label="@c.e"];\n'
        '  "c.c.e" -> v [label="@c.c.e"];\n'
        "}\n"
    )


def test_structure_of_a_zero_socle(capsys, write_graph):
    path = write_graph("T")
    rc, out, _ = run(capsys, "structure", path)
    assert rc == 0
    assert out == (
        "line points:\n"
        "closure:\n"
        "summands:\n"
        "socle is whole: false\n"
        "hedgehog: none\n"
    )
    rc, _, err = run(capsys, "structure", path, "--format", "dot")
    assert rc == 1
    assert "there is no hedgehog graph" in err


# ----------------------------------------------------------------------
# element commands
# ----------------------------------------------------------------------

def test_reduce_text(capsys, write_graph):
    rc, out, _ = run(capsys, "reduce", write_graph("W"), "--expr", "e^*")
    assert rc == 0
    assert out == (
        "left:\n"
        "right: e\n"
        "outcome kind: scalar-vertex\n"
        "outcome: 1*v\n"
        "verified: true\n"
    )


def test_reduce_json(capsys, write_graph):
    rc, out, _ = run(
        capsys, "reduce", write_graph("W"), "--expr", "e^*", "--format", "json"
    )
    assert rc == 0
    assert json.loads(out) == {
        "schema": 1,
        "verified": True,
        "witness": {
            "left": [],
            "right": ["e"],
            "outcome": {"kind": "scalar-vertex", "coeff": "1", "vertex": "v"},
        },
    }


def test_reduce_to_a_cycle_polynomial(capsys, write_graph):
    """On T the loop f has no exit, so f + 2 f f reduces to a polynomial in
    the loop at v; its JSON witness replays."""
    path = write_graph("T")
    rc, out, _ = run(capsys, "reduce", path, "--expr", "f + 2 f f")
    assert rc == 0
    assert out == (
        "left: f^*\n"
        "right:\n"
        "outcome kind: cycle-polynomial\n"
        "outcome: 1*v + 2*f\n"
        "verified: true\n"
    )
    rc, out, _ = run(capsys, "reduce", path, "--expr", "f + 2 f f", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    with open(path, encoding="utf-8") as handle:
        algebra = leavitt.LeavittAlgebra(leavitt.parse_graph(handle.read()))
    x = leavitt.parse_element(algebra, "f + 2 f f")
    witness = leavitt.witness_from_obj(algebra, obj["witness"])
    assert obj["verified"] and leavitt.verify_witness(x, witness)
    assert obj["witness"]["outcome"]["kind"] == "cycle-polynomial"


def test_nondegen(capsys, write_graph):
    rc, out, _ = run(capsys, "nondegen", write_graph("W"), "--expr", "e")
    assert rc == 0
    assert out == "witness: 1*e^*\nproduct is nonzero: true\n"


def test_decisions(capsys, write_graph):
    assert run(capsys, "simple", write_graph("R2"))[:2] == (0, "true\n")
    assert run(capsys, "simple", write_graph("W"))[:2] == (0, "false\n")
    assert run(capsys, "minimal", write_graph("T"), "--vertex", "u")[:2] == (
        0,
        "false\n",
    )
    assert run(capsys, "member", write_graph("W"), "--expr", "e^*")[:2] == (
        0,
        "true\n",
    )


def test_member_of_an_element_with_no_term_in_h(capsys, tmp_path):
    """e e* normalizes to v - f f*: no term ends in H = {s}, yet it lies in
    the socle, since f is v's special edge in the quotient by H."""
    path = tmp_path / "corner.graph"
    path.write_text(
        "vertices: v s u\nedge e: v -> s\nedge f: v -> u\nedge g: u -> u\n",
        encoding="utf-8",
    )
    args = ("member", str(path), "--expr", "e e^*")
    assert run(capsys, *args) == (0, "true\n", "")
    rc, out, err = run(capsys, *args, "--format", "json")
    assert (rc, json.loads(out), err) == (0, {"answer": True, "schema": 1}, "")


def test_eval(capsys, write_graph):
    path = write_graph("W")
    assert run(capsys, "eval", path, "--expr", "e^* * (v + w)")[:2] == (0, "0\n")
    assert run(capsys, "eval", path, "--expr", "2*v")[:2] == (0, "2*v\n")
    rc, out, _ = run(capsys, "eval", path, "--expr", "e + e", "--field", "gf:2")
    assert (rc, out) == (0, "0\n")


def test_dot(capsys, write_graph):
    rc, out, _ = run(capsys, "dot", write_graph("W"))
    assert rc == 0
    assert out == (
        "digraph {\n"
        "  v;\n"
        "  z;\n"
        "  w;\n"
        '  z -> v [label="e"];\n'
        '  z -> w [label="f"];\n'
        "}\n"
    )


def test_check(capsys, write_graph):
    rc, out, _ = run(capsys, "check", write_graph("W"), "--seed", "0")
    assert rc == 0
    assert out == (
        "ghost-pairing: 4\n"
        "ghost-source-range: 2\n"
        "source-range: 2\n"
        "vertex-expansion: 1\n"
        "vertex-idempotents: 9\n"
        "reduction trials: 25\n"
        "passed: true\n"
    )


# ----------------------------------------------------------------------
# exit codes and determinism
# ----------------------------------------------------------------------

def test_exit_codes(capsys, tmp_path, write_graph):
    missing = str(tmp_path / "nope.graph")
    rc, _, err = run(capsys, "socle", missing)
    assert rc == 1 and err.startswith("error:")

    bad = tmp_path / "bad.graph"
    bad.write_text("vertices:\n", encoding="utf-8")
    rc, _, err = run(capsys, "socle", str(bad))
    assert rc == 2 and "line 1" in err

    path = write_graph("T")
    rc, _, err = run(capsys, "minimal", path, "--vertex", "q")
    assert rc == 1 and "unknown vertex" in err

    rc, _, err = run(capsys, "eval", path, "--expr", "v +")
    assert rc == 2 and "position" in err

    rc, _, err = run(capsys, "eval", path, "--expr", "v", "--field", "gf:6")
    assert rc == 2
    assert err.splitlines()[-1].endswith(
        "argument --field: GF modulus must be prime, got 6"
    )

    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_usage_errors_follow_columns_with_one_parser(capsys, monkeypatch):
    """main builds its parser once per process, and each usage error is
    still wrapped to the COLUMNS of the moment, as by a fresh parser."""
    seen = []
    for width in ("200", "50", "80"):
        monkeypatch.setenv("COLUMNS", width)
        assert main(["structure"]) == 2
        reused = capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["structure"])
        assert reused == capsys.readouterr().err
        seen.append(reused)
    assert seen[0] != seen[1]


def test_depth_must_be_nonnegative(capsys, tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(
        "vertices: x y s\nedge a: x -> y\nedge b: x -> s\nedge c: y -> y\n",
        encoding="utf-8",
    )
    for command in ("socle", "structure"):
        rc, out, err = run(capsys, command, str(path), "--depth", "-1")
        assert (rc, out) == (2, "") and "--depth" in err
    rc, out, _ = run(capsys, "structure", str(path), "--depth", "0")
    assert rc == 0 and "hedgehog complete: false" in out.splitlines()
    rc, out, err = run(capsys, "structure", str(path), "--depth", "abc")
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        "leavitt structure: error: argument --depth: invalid int value: 'abc'"
    )
    # socle prints nothing that depends on the hedgehog, so it takes no depth.
    rc, out, err = run(capsys, "socle", str(path), "--depth", "2")
    assert (rc, out) == (2, "") and "--depth" in err


def test_socle_enumerates_no_spines(capsys, tmp_path, monkeypatch):
    """K6 with loops plus a sink has 335,923 entry paths at the default
    depth; socle asks for none."""
    names = ["k%d" % i for i in range(6)]
    path = tmp_path / "k6.graph"
    path.write_text(
        "vertices: %s s\n" % " ".join(names)
        + "".join("edge %s_%s: %s -> %s\n" % (u, v, u, v) for u in names for v in names)
        + "edge out: k0 -> s\n",
        encoding="utf-8",
    )
    asked = []
    entry_paths = graphs_module.entry_paths

    def recorded(graph, subset, max_length):
        asked.append(max_length)
        return entry_paths(graph, subset, max_length)

    monkeypatch.setattr(graphs_module, "entry_paths", recorded)
    rc, out, _ = run(capsys, "socle", str(path))
    assert (rc, out) == (0, (
        "line points: s\n"
        "closure: s\n"
        "summands: inf\n"
        "socle is whole: false\n"
    ))
    rc, out, _ = run(capsys, "socle", str(path), "--format", "json")
    assert rc == 0 and json.loads(out)["summands"] == ["inf"]
    assert asked and max(asked) == 0


def test_structure_refuses_too_many_spines(capsys, tmp_path):
    """K8 without loops plus a sink has 137,257 entry paths up to length 7,
    past the cap; structure says so in one line instead of building them."""
    names = ["k%d" % i for i in range(8)]
    path = tmp_path / "k8.graph"
    path.write_text(
        "vertices: %s s\n" % " ".join(names)
        + "".join(
            "edge %s_%s: %s -> %s\n" % (u, v, u, v)
            for u in names for v in names if u != v
        )
        + "edge out: k0 -> s\n",
        encoding="utf-8",
    )
    rc, out, err = run(capsys, "structure", str(path))
    assert (rc, out, err) == (1, "", (
        "error: 137257 entry paths up to length 7, more than the 100000 "
        "allowed; lower the depth bound (--depth)\n"
    ))
    rc, out, _ = run(capsys, "structure", str(path), "--depth", "6", "--format", "json")
    assert rc == 0 and len(json.loads(out)["hedgehog"]["entry_part"]) == 19608


def test_output_is_deterministic(capsys, write_graph):
    path = write_graph("LS")
    first = run(capsys, "structure", path, "--format", "json")
    second = run(capsys, "structure", path, "--format", "json")
    assert first == second


def _run_module(tmp_path, *argv, **env):
    """Run the CLI as a child process, as the installed script would, with
    the given variables added to its environment."""
    src = os.path.dirname(os.path.dirname(leavitt.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, "-m", "leavitt.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)


def test_socle_of_a_long_line(tmp_path):
    path = tmp_path / "line.graph"
    path.write_text(
        "vertices: " + " ".join("v%d" % i for i in range(1, 1001)) + "\n"
        + "".join("edge e%d: v%d -> v%d\n" % (i, i, i + 1) for i in range(1, 1000)),
        encoding="utf-8",
    )
    proc = _run_module(tmp_path, "socle", str(path))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[2] == "summands: 1000"


def test_unknown_vertex_error_does_not_depend_on_hash_seed(tmp_path, write_graph):
    path = write_graph("W")
    errors = {
        _run_module(tmp_path, "closure", path, "--set", "zz,yy,xx",
                    PYTHONHASHSEED=str(seed)).stderr
        for seed in range(6)
    }
    assert errors == {"error: unknown vertex 'xx'\n"}


def test_eval_rejects_deep_nesting(capsys, write_graph):
    deep = "(" * 3000 + "v" + ")" * 3000
    rc, out, err = run(capsys, "eval", write_graph("W"), "--expr", deep)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_overlong_integers_are_errors(capsys, write_graph):
    path = write_graph("W")
    digits = "9" * 5000
    for expr in (digits, "1/" + digits, digits + "/1 v"):
        rc, out, err = run(capsys, "eval", path, "--expr=" + expr)
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and "5000 digits" in err
    # Each factor parses, but their product has too many digits to print.
    half = "9" * 2200
    for command in ("eval", "reduce"):
        rc, out, err = run(capsys, command, path, "--expr=(%s v)(%s v)" % (half, half))
        assert (rc, out) == (1, "")
        assert err == "error: rational scalar too long to print\n"


def test_graph_file_must_be_utf8(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"vertices: a \xff\xfe\n")
    rc, out, err = run(capsys, "socle", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: graph file is not UTF-8: byte 12 is 0xff\n"
