"""Record the reference outputs the benchmark's correctness gate compares with.

    python3 perfbench/record.py            # rewrites perfbench/reference.json

Run it only at a commit whose outputs are trusted; the benchmark then holds
every later commit to the recorded outputs.  For the random ``symbolic``
sequents and the ``rule-audit`` verdicts the reference is a regression
reference, a record of what the engine answered, not an independently
derived answer.  Corpus items are judged by the hand-written goldens in
``dfmlcorr.corpus`` instead, and the ``verify-enum`` counts agree with the
figures the repository documents.

Each symbolic and rule-audit entry also records its cost, the fastest of a
few timed runs, by which the workloads stratify their seeded samples.  The
costs only order the entries; a slower or faster machine keeps the order
nearly unchanged.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from dfmlcorr import correspondence, reduction, semantics, syntax  # noqa: E402

POOL_SEED = 20250317
POOL_SIZE = 300
SYMBOLIC_MAX_NODES = 150
LEAF_PROBABILITY = 0.4
CONNECTIVES = ("and", "or", "imp", "box", "dia", "neg")
COST_ROUNDS = 3


def random_formula(rng: random.Random, depth: int) -> str:
    """A modal formula of depth at most ``depth`` over p, q, r, top and bot."""
    if depth == 0 or rng.random() < LEAF_PROBABILITY:
        x = rng.random()
        return "top" if x < 0.08 else "bot" if x < 0.16 else rng.choice("pqr")
    op = rng.choice(CONNECTIVES)
    if op in ("box", "dia", "neg"):
        return f"{op} ({random_formula(rng, depth - 1)})"
    sym = {"and": "/\\", "or": "\\/", "imp": "->"}[op]
    return f"({random_formula(rng, depth - 1)}) {sym} ({random_formula(rng, depth - 1)})"


def timed_rounds(tasks: dict) -> tuple[dict, dict]:
    """Run every task ``COST_ROUNDS`` times, round by round; returns each
    task's result and its fastest time in milliseconds."""
    results, cost = {}, {}
    for _ in range(COST_ROUNDS):
        for key, task in tasks.items():
            t0 = perf_counter()
            results[key] = task()
            ms = (perf_counter() - t0) * 1e3
            cost[key] = min(cost.get(key, ms), ms)
    return results, cost


def correspond(sequent: str):
    try:
        return correspondence.compute_correspondent(syntax.parse_dfml(sequent),
                                                    max_nodes=SYMBOLIC_MAX_NODES)
    except reduction.NodeBudgetExceeded:
        return None


def record_symbolic() -> dict:
    rng = random.Random(POOL_SEED)
    sequents: list[str] = []
    while len(sequents) < POOL_SIZE:
        s = f"{random_formula(rng, 3)} |- {random_formula(rng, 3)}"
        if s not in sequents:
            sequents.append(s)
    results, cost = timed_rounds({s: lambda s=s: workloads.symbolic_outcome(correspond(s))
                                  for s in sequents})
    pool = [{"sequent": s, **results[s], "cost_ms": round(cost[s], 3)} for s in sequents]
    return {"max_nodes": SYMBOLIC_MAX_NODES, "pool_seed": POOL_SEED, "pool": pool}


def record_verify() -> dict:
    ref = {}
    for sequent, size in workloads.VERIFY_CALLS:
        (code, text), _ = workloads.run_cli(["verify", sequent, *size, "--json"])
        doc = json.loads(text)
        ref[workloads.call_key(sequent, size)] = {
            "exit": code, "frames_checked": doc["frames_checked"],
            "disagreements": len(doc["disagreements"]),
            "correspondent": doc["correspondent"]}
    return ref


def record_rule_audit() -> dict:
    steps = workloads.collect_applications()
    families: dict = {}
    tasks = {}
    for key, step in steps.items():
        rels = workloads.relations_of(step.before, step.after)
        if rels not in families:
            families[rels] = workloads.frame_family(rels)

        def first_witness(step=step, frames=families[rels]):
            for i, fr in enumerate(frames):
                if semantics.system_equivalence_witness(fr, step.before, step.after) is not None:
                    return i
            return None
        tasks[key] = first_witness
    results, cost = timed_rounds(tasks)
    return {"apps": [{"key": key, "rule": step.rule, "witness_frame": results[key],
                      "cost_ms": round(cost[key], 3)} for key, step in steps.items()]}


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    reference = {"recorded_at": commit,
                 "symbolic": record_symbolic(),
                 "verify-enum": record_verify(),
                 "rule-audit": record_rule_audit()}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
