"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py

They run the short mode (every workload once at small sizes, untraced and
traced, with all of its checks), compare the metric names and units with
``BENCHMARK.json``, check that a seed fixes the inputs, and check that the
benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def short_run():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--short",
                           "--seed", "3"], capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_short_mode_checks_every_workload(short_run):
    assert short_run["ok"]
    seen = {(r["workload"], r["trace"]) for r in short_run["runs"]}
    assert seen == {(w, t) for w in workloads.WORKLOADS for t in (0, 1)}
    for r in short_run["runs"]:
        res = r["result"]
        assert res["correct"] and res["attempted"] >= 1
        assert set(res) == {"correct", "attempted", "failed", "metrics"}


def test_metric_names_and_units_match_benchmark_json(short_run):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for r in short_run["runs"]:
        want = layer if r["trace"] else e2e
        got = {k: v["unit"] for k, v in r["result"]["metrics"].items()}
        assert got == want, r["workload"]
        if not r["trace"]:
            assert all(v["value"] > 0 for v in r["result"]["metrics"].values())


def _fingerprint(inputs) -> str:
    def enc(o):
        if isinstance(o, gen.GraphSpec):
            return o.text()
        if isinstance(o, (set, frozenset)):
            return sorted(o)
        return repr(o)

    return json.dumps(inputs, default=enc, sort_keys=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    def inputs(seed):
        return _fingerprint(run._make(name, seed).inputs(seed, True))

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_untraced_run_installs_no_wrapper():
    run._load_program()
    result = run.run_workload("certify", 1, 0, False, True)
    import leavitt.algebra
    import leavitt.graphs

    assert result["correct"]
    assert not hasattr(leavitt.graphs.line_points, "__wrapped__")
    assert not hasattr(leavitt.algebra.Element.__mul__, "__wrapped__")
