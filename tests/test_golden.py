"""Replay the golden corpus: every recorded command line run must give the
same exit code, stdout and stderr. tests/golden/make.py writes the corpus
and says what it covers."""

import json

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
