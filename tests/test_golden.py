"""Replay the golden corpus: every recorded command line run must give the
same exit code, stdout and stderr. tests/golden/make.py writes the corpus
and says what it covers."""

import json
import os
import subprocess
import sys

from golden.make import CORPUS, run


def test_cli_outputs_match_the_golden_corpus(tmp_path):
    paths = {}
    runs = 0
    changed = []
    with open(CORPUS, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            name = record["name"]
            if "graph" in record:
                paths[name] = tmp_path / (name + ".graph")
                paths[name].write_text(record["graph"], encoding="utf-8")
                continue
            argv = [str(paths[name]) if a == "GRAPH" else a for a in record["argv"]]
            got = run(argv)
            runs += 1
            if got != (record["exit"], record["stdout"], record["stderr"]):
                changed.append((name, record["argv"], got))
    assert runs > 1000
    assert not changed, "%d of %d runs changed; first: %r" % (
        len(changed), runs, changed[0],
    )


# The graph-level commands, whose answers rest on the sets the graph keeps.
GRAPH_COMMANDS = ("linepoints", "closure", "socle", "structure", "simple", "minimal")
HASH_SEEDS = ("1", "12345")
# Run in a child process, whose hash seed is fixed at start: replay the
# corpus runs of the commands named in argv and print how many ran and the
# argv of each that changed.
REPLAY = """
import json, os, sys, tempfile
from golden.make import CORPUS, run

runs, changed = 0, []
with tempfile.TemporaryDirectory() as tmp, open(CORPUS, encoding="utf-8") as handle:
    for line in handle:
        record = json.loads(line)
        path = os.path.join(tmp, record["name"] + ".graph")
        if "graph" in record:
            with open(path, "w", encoding="utf-8") as graph:
                graph.write(record["graph"])
        elif record["argv"][:1] and record["argv"][0] in sys.argv[1:]:
            runs += 1
            got = run([path if a == "GRAPH" else a for a in record["argv"]])
            if got != (record["exit"], record["stdout"], record["stderr"]):
                changed.append(record["argv"])
print(json.dumps([runs, changed]))
"""


def test_graph_runs_do_not_depend_on_the_hash_seed():
    """The corpus runs of the graph-level commands give the recorded output
    under other hash seeds too: one child process per seed, side by side."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([tests, os.path.join(os.path.dirname(tests), "src")])
    children = [
        subprocess.Popen(
            [sys.executable, "-c", REPLAY, *GRAPH_COMMANDS],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    for seed, child in zip(HASH_SEEDS, children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        runs, changed = json.loads(out)
        assert runs > 900
        assert not changed, "seed %s: %d runs changed; first: %r" % (
            seed, len(changed), changed[0],
        )
