"""Benchmark for the leavitt package: one workload per run, or all of them
at small sizes with ``--short``.

    python3 bench/run.py --workload socle-graphs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --short

It runs from a checkout with ``src`` on the path (the package need not be
installed) and prints, as the last line of its output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run whose first half is untraced and whose second
half runs with the span wrappers of ``spans.py`` installed. See
``bench/README.md`` for the workloads, the checks and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Share of an untraced run's wall time spent repeating the set-up between
# operations, so that setup_s is a median over the whole run.
SETUP_SHARE = 0.15
MIN_SAMPLES = 120

def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "leavitt", "__init__.py")):
        sys.exit("bench: no program at %s (run from a full checkout)" % SRC)
    sys.path.insert(0, SRC)
    import leavitt

    if not os.path.abspath(leavitt.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported leavitt from %s, not from %s" % (leavitt.__file__, SRC))


def _make(name: str, seed: int):
    if name == "cli":
        return W.Cli(ROOT, os.path.join(OUT, "cli-%d-%d" % (seed, os.getpid())))
    return {"socle-graphs": W.SocleGraphs, "normal-form": W.NormalForm,
            "certify": W.Certify}[name]()


class Tally:
    """Samples and outcomes of the rounds run so far."""

    def __init__(self):
        self.times: list[float] = []
        self.fields: list[str | None] = []
        self.bad: list[bool] = []
        self.errors: list[str] = []
        self.rounds = 0
        self.round_seconds: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.bad)


_FAILED = object()


def run_rounds(ops, seconds: float, min_rounds: int, reference: list, tally: Tally,
               call=None, same=None, on_round=None, between=None) -> None:
    """Run whole rounds of ``ops`` until ``seconds`` of wall time have passed
    (and at least ``min_rounds``), each in a new order, so that an operation's
    samples come from all through the run rather than from one stretch of
    each round; an operation marked ``follows`` stays right after the one
    before it. Only the call is timed; ``between`` runs after each
    operation. The first answer of each operation gets its
    independent check; later answers must equal the first one."""
    blocks: list[list[int]] = []
    for i, op in enumerate(ops):
        if op.follows and blocks:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    shuffle = random.Random(len(ops)).shuffle
    start = perf_counter()
    while tally.rounds < min_rounds or perf_counter() - start < seconds:
        tally.rounds += 1
        if on_round is not None:
            on_round(tally.rounds)
        round_time = 0.0
        shuffle(blocks)
        for i in (i for block in blocks for i in block):
            op = ops[i]
            fn = call(op) if call is not None else op.call
            exc = None
            t0 = perf_counter()
            try:
                result = fn()
            except Exception as e:  # a failing operation is counted, not fatal
                exc = e
            dt = perf_counter() - t0
            round_time += dt
            bad = exc is not None or op.failed(result)
            tally.times.append(dt)
            tally.fields.append(op.field)
            tally.bad.append(bad)
            ref = reference[i]
            if ref is None:
                if bad:
                    reference[i] = _FAILED
                    if exc is not None and not isinstance(exc, RecursionError):
                        traceback.print_exception(exc, file=sys.stderr)
                    continue
                reference[i] = result
                try:
                    op.check(result)
                except Exception as e:  # any exception in a check is a wrong answer
                    tally.errors.append("%s: %s: %s" % (op.label, type(e).__name__, e))
            elif ref is _FAILED:
                if not bad:
                    tally.errors.append("%s: failed once, then passed" % op.label)
            elif bad:
                tally.errors.append("%s: passed once, then failed" % op.label)
            elif not (same(result, ref) if same is not None else result == ref):
                tally.errors.append("%s: answer changed between rounds" % op.label)
            if between is not None:
                between()
        tally.round_seconds.append(round_time)


def _percentile_ms(times, bad, q: int) -> float:
    vals = [math.inf if b else t for t, b in zip(times, bad)]
    return statistics.quantiles(vals, n=100, method="inclusive")[q - 1] * 1000.0


def end_to_end(tally: Tally, setup_times: list[float], rss_mb: float) -> dict:
    done = tally.attempted - tally.failed
    return {
        "op_p50_ms": {"value": _percentile_ms(tally.times, tally.bad, 50), "unit": "ms"},
        "op_p90_ms": {"value": _percentile_ms(tally.times, tally.bad, 90), "unit": "ms"},
        "ops_per_s": {"value": done / sum(tally.times), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timed_setup(w, inp):
    gc.collect()
    t0 = perf_counter()
    state = w.setup(inp)
    return state, perf_counter() - t0


class SetupSampler:
    """Called between operations: repeats the set-up, untimed as an
    operation, whenever set-up samples have taken less than SETUP_SHARE of
    the wall time so far. The samples so spread over the whole run see the
    same drift of the machine as the operations do, instead of a burst of
    it before the first round."""

    def __init__(self, sample, times: list[float]):
        self.sample, self.times = sample, times
        self.start = perf_counter()
        self.spent = 0.0

    def __call__(self) -> None:
        t0 = perf_counter()
        if self.spent < SETUP_SHARE * (t0 - self.start):
            self.times.append(self.sample())
            gc.collect()  # the sample's state is garbage now; clear it here
            self.spent += perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    w = _make(name, seed)
    is_cli = name == "cli"
    inp = w.inputs(seed, short)
    # The inputs and oracle tables live for the whole run; freezing them
    # keeps the collector's full passes from rescanning them during the
    # timed set-ups and rounds. The set-up state is frozen in turn below.
    gc.collect()
    gc.freeze()
    if is_cli:
        paths = w.write_inputs(inp)
        w.import_seconds()  # first import compiles the bytecode cache
        sample = w.import_seconds
        setup_times = [sample()]
        ops = w.ops(inp, paths)
    else:
        state, first = _timed_setup(w, inp)
        setup_times = [first]
        ops = w.ops(inp, state)

        def sample():
            return _timed_setup(w, inp)[1]
    min_rounds = 1 if short else math.ceil(MIN_SAMPLES / len(ops))
    reference: list = [None] * len(ops)
    tally = Tally()
    gc.collect()
    gc.freeze()
    try:
        if not trace:
            between = None if short else SetupSampler(sample, setup_times)
            run_rounds(ops, seconds, min_rounds, reference, tally, between=between)
            metrics = end_to_end(tally, setup_times, _rss_mb(is_cli))
        else:
            metrics = traced_run(name, w, inp, ops, seconds, reference, tally, seed)
    finally:
        if is_cli:
            shutil.rmtree(w.workdir, ignore_errors=True)
    for err in tally.errors[:20]:
        print("check failed: " + err, file=sys.stderr)
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def traced_run(name, w, inp, ops, seconds, reference, tally, seed) -> dict:
    """First half untraced (for the Q/GF split, ``cli.main_ms`` and the
    overhead baseline), second half traced: one set-up plus whole rounds."""
    from spans import Tracer

    is_cli = name == "cli"
    half = seconds / 2.0
    run_rounds(ops, half, 1, reference, tally)
    untraced_rounds = tally.rounds
    untraced_seconds = sum(tally.round_seconds)
    if is_cli:
        # leavitt.cli.main in this process on the same argv, as many times
        # as the children ran: the baseline for cli.main_ms and the overhead.
        # The import happens before it, untimed.
        import leavitt.cli  # noqa: F401

        untraced_seconds = 0.0
        for _ in range(untraced_rounds):
            for op in ops:
                t0 = perf_counter()
                try:
                    W.Cli.run_main(op.argv)
                except RecursionError:
                    pass
                untraced_seconds += perf_counter() - t0
    samples = list(zip(tally.times, tally.fields, tally.bad))

    tracer = Tracer()
    tracer.install()
    if is_cli:
        traced_ops = ops
        call = (lambda op: (lambda: W.Cli.run_main(op.argv)))
        same = (lambda r, ref: r[:2] == ref[:2])
    else:
        state = w.setup(inp)
        traced_ops = w.ops(inp, state)
        call = same = None
    traced = Tally()
    run_rounds(traced_ops, half, 1, reference, traced, call=call, same=same,
               on_round=tracer.begin_phase)
    tally.times += traced.times
    tally.bad += traced.bad
    tally.errors += traced.errors

    a = tracer.analyse(traced.rounds)
    weight = a["weight"]

    def g(*names):
        return tracer.group_ms(set(names), weight)

    counts, calls, self_ms = a["counts"], a["calls"], a["self_ms"]
    span_calls = a["span_calls"]
    entries = counts["entry_paths"]

    def field_p50(f):
        vals = [t for t, fl, b in samples if fl == f and not b]
        return statistics.median(vals) * 1000.0 if vals else 0.0

    if is_cli:
        main_ms = untraced_seconds / untraced_rounds * 1000.0
        startup_ms = sum(t for t, _, _ in samples) / untraced_rounds * 1000.0 - main_ms
    else:
        main_ms = startup_ms = 0.0
    traced_per_round = sum(traced.round_seconds) / traced.rounds
    untraced_per_round = untraced_seconds / untraced_rounds
    metrics = {
        "graphs.parse_ms": (g("graphs.parse_graph"), "ms", "lower"),
        "graphs.line_points_ms": (g("graphs.line_points"), "ms", "lower"),
        "graphs.closure_ms": (g("graphs.hereditary_saturated_closure"), "ms", "lower"),
        "graphs.cycles_ms": (g("graphs.simple_cycles", "graphs.vertices_on_cycles"),
                             "ms", "lower"),
        "graphs.tree_calls": (span_calls.get("graphs.tree", 0.0), "count", "lower"),
        "graphs.entry_paths_ms": (g("graphs.entry_paths"), "ms", "lower"),
        "graphs.hedgehog_ms": (g("graphs.hedgehog_graph"), "ms", "lower"),
        "graphs.entry_paths_count": (entries, "count", "lower"),
        "graphs.entry_paths_kept_ratio": (
            counts["entry_kept"] / entries if entries else 0.0, "ratio", "higher"),
        "graphs.self_ms": (self_ms["graphs"], "ms", "lower"),
        "graphs.calls": (calls["graphs"], "count", "lower"),
        "socle.structure_ms": (a["span_self_ms"].get("socle.socle_structure", 0.0),
                               "ms", "lower"),
        "socle.in_socle_ms": (g("socle.in_socle"), "ms", "lower"),
        "socle.quotient_image_ms": (g("socle.quotient_image"), "ms", "lower"),
        "socle.self_ms": (self_ms["socle"], "ms", "lower"),
        "socle.calls": (calls["socle"], "count", "lower"),
        "algebra.normal_form_ms": (g("algebra.LeavittAlgebra.normal_form",
                                     "algebra.LeavittAlgebra.normal_form_steps"),
                                   "ms", "lower"),
        "algebra.rewrite_steps": (counts["rewrite_steps"], "count", "lower"),
        "algebra.terms_out": (counts["terms_out"], "count", "lower"),
        "algebra.mul_ms": (g("algebra.Element.__mul__", "algebra.Element.__rmul__"),
                           "ms", "lower"),
        "algebra.add_ms": (g("algebra.Element.__add__", "algebra.Element.__sub__"),
                           "ms", "lower"),
        "algebra.builders_ms": (g(*("algebra.LeavittAlgebra." + b for b in
                                    ("vertex", "edge", "ghost", "one", "zero"))),
                                "ms", "lower"),
        "algebra.self_ms": (self_ms["algebra"], "ms", "lower"),
        "algebra.calls": (calls["algebra"], "count", "lower"),
        "fields.scalar_ops": (counts["scalar_ops"], "count", "lower"),
        "fields.q_op_p50_ms": (field_p50("q"), "ms", "lower"),
        "fields.gf_op_p50_ms": (field_p50("gf"), "ms", "lower"),
        "fields.selector_ms": (g("fields.field_from_selector"), "ms", "lower"),
        "expr.parse_ms": (g("expr.parse_element"), "ms", "lower"),
        "expr.calls": (calls["expr"], "count", "lower"),
        "reduction.reduce_ms": (g("reduction.reduce"), "ms", "lower"),
        "reduction.realify_ms": (g("reduction.realify"), "ms", "lower"),
        "reduction.verify_ms": (g("reduction.verify_witness"), "ms", "lower"),
        "reduction.nondegen_ms": (g("reduction.nondegeneracy_witness"), "ms", "lower"),
        "reduction.witness_generators": (counts["witness_generators"], "count", "lower"),
        "reduction.self_ms": (self_ms["reduction"], "ms", "lower"),
        "reduction.calls": (calls["reduction"], "count", "lower"),
        "cli.main_ms": (main_ms, "ms", "lower"),
        "cli.startup_ms": (startup_ms, "ms", "lower"),
        "trace.overhead_pct": (
            (traced_per_round / untraced_per_round - 1.0) * 100.0, "%", "lower"),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, "trace-%s-seed%d.json.gz" % (name, seed)))
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def run_short(seed: int) -> int:
    """Every workload once at small sizes, untraced and traced, each in a
    fresh process; exit status 0 when every answer checked out and the only
    failure is the known one in ``cli``."""
    ok = True
    runs = []
    for name in W.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--short"],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            # cli fails its deep-nesting eval once per round; a traced run
            # has one untraced and one traced round here.
            expected_failed = (1 if name == "cli" else 0) * (2 if trace else 1)
            good = (
                result is not None
                and result["correct"]
                and result["failed"] == expected_failed
            )
            if not good:
                ok = False
                sys.stderr.write(proc.stderr)
            runs.append({"workload": name, "trace": trace, "ok": good,
                         "result": result})
            print("%-13s trace=%d %s" % (name, trace, "ok" if good else "FAILED"))
    print(json.dumps({"short": True, "ok": ok, "runs": runs}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small sizes, one round; without --workload, run all")
    args = parser.parse_args(argv)
    _load_program()
    if args.workload is None:
        if not args.short:
            parser.error("--workload is required unless --short is given")
        return run_short(args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.short)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
