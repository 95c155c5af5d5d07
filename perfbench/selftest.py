"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

For each workload it keeps a few cheap calls, then checks that a timed run
and a traced run report every metric ``BENCHMARK.json`` names, each with
its unit; that the untouched reference passes the gate; that the gate
reports a failure once a recorded value is corrupted; and that a call that
raises fails all its items.  It takes well under a minute and exits
non-zero on the first failed check.
"""
from __future__ import annotations

import copy
import json
import sys

import run

SEED = 1

# Sort key per workload putting its cheapest calls first.
CHEAP = {
    "symbolic": lambda c: (c[0] == "corpus", c[1]["cost_ms"] if c[0] == "random" else 0),
    "verify-enum": lambda c: c[1]["frames_checked"],
    "rule-audit": lambda c: c[0]["cost_ms"],
}


def tiny(name: str, wl_class, reference: dict):
    """The seeded workload cut down to its three cheapest calls (random
    sequents only, for symbolic, so that the recorded reference is used)."""
    wl = wl_class(SEED, reference)
    wl.calls = sorted(wl.calls, key=CHEAP[name])[:3]
    return wl


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_metrics(metrics: dict, declared: list, what: str) -> None:
    for m in declared:
        got = metrics.get(m["name"])
        check(got is not None and got[1] == m["unit"] and isinstance(got[0], (int, float)),
              f"{what}: {m['name']} reported in {m['unit']}")
    check(len(metrics) == len(declared), f"{what}: no undeclared metric")


def corrupt(workload: str, call) -> None:
    """Change the recorded value the gate compares ``call``'s output with."""
    if workload == "symbolic":
        entry = call[1]
        entry["verdict"] = "not-sahlqvist" if entry["verdict"] == "sahlqvist" else "sahlqvist"
    elif workload == "verify-enum":
        call[1]["frames_checked"] += 1
    else:
        app = call[0]
        app["witness_frame"] = 0 if app["witness_frame"] is None else None


def main() -> int:
    reference = run.load_engine()
    import workloads  # importable once load_engine has put the engine on sys.path

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, wl_class in workloads.WORKLOADS.items():
        wl = tiny(name, wl_class, reference)
        metrics, totals = run.measure(wl, 0.0, run.time_setup(name, SEED))
        check_metrics(metrics, bench["end_to_end"], f"{name} timed")
        check(totals.failed == 0 and totals.attempted > 0, f"{name}: reference passes the gate")

        spans = run.HERE / "out" / f"selftest-{name}.csv.gz"
        metrics, totals = run.measure_traced(wl, spans)
        check_metrics(metrics, bench["per_layer"], f"{name} traced")
        layers = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
        check(layers <= metrics["trace.wall_s"][0] * 1e3,
              f"{name}: layer self times fit in the traced wall_s")
        check(spans.exists(), f"{name}: spans written")
        spans.unlink()

        bad = copy.deepcopy(reference)
        wl = tiny(name, wl_class, bad)
        corrupt(name, wl.calls[0])
        totals = run.Totals()
        run.run_pass(wl, totals)
        check(totals.failed > 0 and bool(totals.errors),
              f"{name}: gate reports a corrupted reference value")

        wl = tiny(name, wl_class, reference)
        wl.ask = lambda call: 1 / 0
        totals = run.Totals()
        run.run_pass(wl, totals)
        check(totals.failed == totals.attempted > 0,
              f"{name}: a call that raises fails all its items")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
