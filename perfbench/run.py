"""dfmlcorr benchmark harness.

    python3 perfbench/run.py --workload {symbolic,verify-enum,rule-audit}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it benchmarks the engine in that
checkout's ``src/``.  One process, one thread, one closed-loop client: each
request is made only after the previous one has its verdict.

``--trace 0`` times the set-up in fresh interpreters, then runs as many
whole passes over the workload's items as fit in ``--seconds`` (and at
least enough for ``TAIL_BEYOND`` latency samples beyond the tail
percentile), checks every output against ``reference.json`` and prints the
end-to-end metrics.  ``--trace 1`` runs one untimed pass, then one pass
with spans recorded around calls into every layer (see ``tracing.py``), and
prints the per-layer metrics and the tracing overhead; the spans go to
``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``README.md`` for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10    # latency samples a run must have beyond its tail percentile


class BenchError(Exception):
    """The benchmark cannot run here (no engine source, no reference)."""


def load_engine() -> dict:
    """Import dfmlcorr from this checkout's ``src/`` and read the reference."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dfmlcorr
    except ImportError as exc:
        raise BenchError(f"cannot import dfmlcorr from {src}: {exc}") from None
    if Path(dfmlcorr.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"dfmlcorr imported from {dfmlcorr.__file__}, not {src}")
    try:
        return json.loads((HERE / "reference.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read the reference outputs: {exc}") from None


@dataclass
class Totals:
    passes: list[list[float]] = field(default_factory=list)  # seconds per call, per pass
    latencies: list[array] = field(default_factory=list)  # seconds per item, per pass
    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    errors: list[str] = field(default_factory=list)


def run_pass(wl, totals: Totals, tracer=None) -> None:
    """Ask for every call of ``wl`` once, judging each output as it comes."""
    from workloads import Judgement  # importable once the engine is on sys.path

    times, latencies = [], array("d")
    for i, call in enumerate(wl.calls):
        t0 = perf_counter()
        try:
            if tracer is None:
                out, lat = wl.ask(call)
            else:
                out, lat = tracer.item_span(i, wl.ask, call)
        except Exception as exc:  # an engine fault: every item of the call fails
            out, lat = exc, []
        times.append(perf_counter() - t0)
        if isinstance(out, Exception):
            n = wl.items(call)
            verdict = Judgement(n, n, 0, f"call {i} raised {out!r}")
        else:
            verdict = wl.judge(call, out)
        latencies.extend(lat)
        totals.attempted += verdict.items
        totals.failed += verdict.failed
        totals.undecided += verdict.undecided
        if verdict.error:
            totals.errors.append(verdict.error)
    totals.passes.append(times)
    totals.latencies.append(latencies)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` percent of
    the values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to a built workload."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed), "--setup-only"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        t1 = perf_counter()
        child.stdout.read()
        if child.wait() != 0 or line.strip() != "ready":
            raise BenchError(f"set-up of {workload} failed in a fresh interpreter")
    return t1 - t0


def measure(wl, seconds: float, setup_s: float) -> tuple[dict, Totals]:
    """End-to-end metrics over whole passes: as many as fit in ``seconds``,
    and at least enough for ``TAIL_BEYOND`` samples beyond the tail.

    Timings are medians: ``wall_s`` adds up each call's median time over
    the passes, ``latency_p50_ms`` is the median over items of each item's
    median over the passes, and the tail percentile pools the items of all
    passes.  A stall of the machine during part of a run so moves them less
    than it moves a mean.
    """
    totals = Totals()
    start = perf_counter()
    while True:
        run_pass(wl, totals)
        elapsed = perf_counter() - start
        passes = len(totals.passes)
        samples = sum(map(len, totals.latencies))
        tail_ok = samples * (1 - wl.TAIL_PCT / 100) >= TAIL_BEYOND
        if tail_ok and elapsed * (passes + 1) / passes > seconds:
            break
    # read before the statistics below allocate, so that the figure hardly
    # depends on how many passes fitted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = totals.attempted
    wall = sum(statistics.median(call) for call in zip(*totals.passes))
    item_p50 = statistics.median(statistics.median(item) for item in zip(*totals.latencies))
    pooled = [t for latencies in totals.latencies for t in latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (samples / passes / wall, "1/s"),
        "latency_p50_ms": (item_p50 * 1e3, "ms"),
        "latency_tail_ms": (percentile(pooled, wl.TAIL_PCT) * 1e3, "ms"),
        "decided_share": ((n - totals.undecided) / n, "ratio"),
        "passed_share": ((n - totals.failed) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, totals


LAYERS = ("syntax", "translation", "reduction", "correspondence", "semantics", "cli")


def measure_traced(wl, spans_path: Path) -> tuple[dict, Totals]:
    """Per-layer metrics from one traced pass, after one untraced pass."""
    from tracing import ITEM_SPAN, Tracer

    untraced = Totals()
    run_pass(wl, untraced)
    totals = Totals()
    tracer = Tracer()
    tracer.install()
    try:
        run_pass(wl, totals, tracer)
    finally:
        tracer.restore()
    wall = sum(totals.passes[0])
    spans = tracer.summary()

    def calls(*names):
        return sum(spans[n][0] for n in names)

    def ms(*names):
        return sum(spans[n][1] for n in names) * 1e3

    moves = tracer.yields["reduction.applicable_moves"]
    candidates = calls("semantics.FiniteFrame.check_axioms")
    frames = tracer.yields["semantics.enumerate_frames"]
    metrics = {
        "syntax.parse_calls": (calls("syntax.parse_dfml", "syntax.parse_sorted",
                                     "syntax.parse_fo"), "count"),
        "syntax.parse_ms": (ms("syntax.parse_dfml", "syntax.parse_sorted",
                               "syntax.parse_fo"), "ms"),
        "translation.translate_calls": (calls("translation.translate_sequent"), "count"),
        "translation.translate_ms": (ms("translation.translate_sequent"), "ms"),
        "reduction.classify_ms": (ms("reduction.classify"), "ms"),
        "reduction.search_ms": (ms("reduction.reduce_search"), "ms"),
        "reduction.searches": (calls("reduction.reduce_search"), "count"),
        "reduction.expansions": (tracer.calls["reduction.applicable_moves"], "count"),
        "reduction.moves": (moves, "count"),
        "reduction.ms_per_move": (ms("reduction.reduce_search") / moves if moves else 0.0,
                                  "ms"),
        "reduction.budget_exceeded": (
            tracer.raised["reduction.reduce_search", "NodeBudgetExceeded"], "count"),
        "correspondence.eliminate_ms": (ms("correspondence.correspondent_from"), "ms"),
        "correspondence.correspondents": (calls("correspondence.correspondent_from"),
                                          "count"),
        "semantics.enum_ms": (ms("semantics.enumerate_frames"), "ms"),
        "semantics.enum_candidates": (candidates, "count"),
        "semantics.enum_frames": (frames, "count"),
        "semantics.enum_keep_ratio": (frames / candidates if candidates else 0.0, "ratio"),
        "semantics.oracle_ms": (ms("semantics.correspondence_oracle"), "ms"),
        "semantics.local_validity_calls": (calls("semantics.local_validity"), "count"),
        "semantics.valuations": (tracer.yields["semantics.sequent_valuations"], "count"),
        "semantics.model_check_dfml_calls": (calls("semantics.model_check_dfml"), "count"),
        "semantics.model_check_dfml_ms": (ms("semantics.model_check_dfml"), "ms"),
        "semantics.eval_fo_calls": (calls("semantics.eval_fo"), "count"),
        "semantics.eval_fo_ms": (ms("semantics.eval_fo"), "ms"),
        "semantics.equivalence_calls": (calls("semantics.system_equivalence_witness"),
                                        "count"),
        "semantics.equivalence_ms": (ms("semantics.system_equivalence_witness"), "ms"),
        "semantics.system_valuations": (tracer.yields["semantics.system_valuations"],
                                        "count"),
        "semantics.model_check_sorted_calls": (calls("semantics.model_check_sorted"),
                                               "count"),
        "semantics.model_check_sorted_ms": (ms("semantics.model_check_sorted"), "ms"),
    }
    for layer in LAYERS:
        self_s = sum(row[2] for name, row in spans.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_ms"] = (self_s * 1e3, "ms")
    # time inside items that no traced layer covers (glue such as
    # compute_correspondent's own loop and the corpus golden checks)
    metrics["other.self_ms"] = (spans[ITEM_SPAN][2] * 1e3, "ms")
    metrics["trace.spans"] = (sum(row[0] for row in spans.values()), "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (sum(untraced.passes[0]), "s")
    metrics["trace.overhead_s"] = (wall - sum(untraced.passes[0]), "s")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    totals.attempted += untraced.attempted
    totals.failed += untraced.failed
    totals.errors += untraced.errors
    return metrics, totals


def parse_args(argv):
    ap = argparse.ArgumentParser(description="dfmlcorr benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("symbolic", "verify-enum", "rule-audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        reference = load_engine()
        import workloads  # needs the engine on sys.path
        wl_class = workloads.WORKLOADS[args.workload]
        if args.setup_only:
            wl_class(args.seed, reference)
            print("ready", flush=True)
            return 0
        if args.trace:
            wl = wl_class(args.seed, reference)
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            metrics, totals = measure_traced(wl, spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            setup_s = statistics.median(time_setup(args.workload, args.seed)
                                        for _ in range(SETUP_REPEATS))
            wl = wl_class(args.seed, reference)
            metrics, totals = measure(wl, args.seconds, setup_s)
            print(f"latency_tail_ms is p{wl.TAIL_PCT:g} of {sum(map(len, totals.latencies))} "
                  f"samples over {len(totals.passes)} passes")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for msg in totals.errors[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
