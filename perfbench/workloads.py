"""The benchmark's three workloads and their correctness gate.

Each workload is built from a seed and the recorded reference
(``reference.json``); building it is the set-up that ``setup_s`` times.  A
workload holds ``calls``, the list of requests one pass makes, in a seeded
order.  ``ask(call)`` makes one request and returns its raw output with one
latency per item (an item is one unit of work that gets a verdict);
``judge(call, output)`` compares the output with the reference;
``items(call)`` is the number of items a call stands for, all failed if
the call raises.

Every call into dfmlcorr goes through a module attribute (``semantics.X``,
not ``from ... import X``) so that the traced run sees it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from time import perf_counter

from dfmlcorr import cli, corpus, correspondence, reduction, semantics, syntax


WINDOW = 3      # entries a seeded draw chooses among, around each quantile


@dataclass
class Judgement:
    items: int
    failed: int
    undecided: int
    error: str | None = None


def stratified(entries: list, k: int, fixed: int, rng: random.Random) -> list:
    """``k`` entries: the ``fixed`` costliest, then one near each of
    ``k - fixed`` evenly spaced cost quantiles of the rest, drawn among the
    ``WINDOW`` entries nearest that quantile by recorded cost.

    Every seed so draws a different sample with the same mix of cheap and
    expensive inputs, and the few costliest, whose cost varies most, are
    always in; totals and percentiles vary little by seed.
    """
    ordered = sorted(entries, key=lambda e: e["cost_ms"])
    rest, top = ordered[:len(ordered) - fixed], ordered[len(ordered) - fixed:]
    n, k = len(rest), k - fixed
    picked = []
    for i in range(k):
        lo = min(max((2 * i + 1) * n // (2 * k) - WINDOW // 2, 0), n - WINDOW)
        picked.append(rng.choice(rest[lo:lo + WINDOW]))
    return top + picked


# ---------------------------------------------------------------------------
# symbolic: classify and correspond
# ---------------------------------------------------------------------------

def symbolic_outcome(res) -> dict:
    """Verdict, primary correspondent and a digest of every thread's system,
    trace and correspondent; ``res`` is None when the budget ran out."""
    if res is None:
        return {"verdict": "budget", "primary": None, "digest": None}
    lines = []
    for r in res.classification.results:
        rules = " ".join(st.rule for st in r.trace) if r.reduced else "-"
        lines.append(f"{r.thread}/{r.imp}/{r.box}: {r.system} [{rules}]")
    lines += [f"{c.thread}: {c.formula}" for c in res.correspondents]
    return {
        "verdict": "sahlqvist" if res.sahlqvist else "not-sahlqvist",
        "primary": str(res.primary.formula) if res.sahlqvist else None,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16],
    }


class Symbolic:
    """``compute_correspondent`` on the 14 corpus sequents plus random ones.

    Corpus sequents run through ``corpus.run_entry`` at the default budget
    and are judged by its hand-written goldens.  Random sequents are drawn
    from the recorded pool by ``stratified``, separately from those that
    exhaust the pool's reduced node budget and from those decided within
    it, so every seed has the same number of each.  They run under that
    budget; running out of it is an ordinary, counted outcome.
    """

    name = "symbolic"
    # (budget exhausted?, sequents drawn, of which the costliest): 27 in all,
    # in about the pool's proportion; with the 14 corpus entries, 41 items a
    # pass, short enough for several passes a run.  An odd count puts the
    # median on one item, not on a gap between two.
    DRAWS = ((True, 6, 1), (False, 21, 2))
    TAIL_PCT = 90.0

    def __init__(self, seed: int, reference: dict):
        ref = reference["symbolic"]
        self.max_nodes = ref["max_nodes"]
        rng = random.Random(seed)
        picked = []
        for budget, k, fixed in self.DRAWS:
            picked += stratified([e for e in ref["pool"] if (e["verdict"] == "budget") == budget],
                                 k, fixed, rng)
        self.calls = [("corpus", e) for e in corpus.CORPUS]
        self.calls += [("random", e) for e in picked]
        rng.shuffle(self.calls)

    def ask(self, call):
        kind, entry = call
        t0 = perf_counter()
        if kind == "corpus":
            out = corpus.run_entry(entry)
        else:
            try:
                out = correspondence.compute_correspondent(
                    syntax.parse_dfml(entry["sequent"]), max_nodes=self.max_nodes)
            except reduction.NodeBudgetExceeded:
                out = None
        return out, [perf_counter() - t0]

    def items(self, call) -> int:
        return 1

    def judge(self, call, out) -> Judgement:
        kind, entry = call
        if kind == "corpus":
            bad = [f"{check}: {detail}" for check, ok, detail in out if not ok]
            return Judgement(1, int(bool(bad)), 0,
                             f"corpus {entry.name}: {bad}" if bad else None)
        got = symbolic_outcome(out)
        want = {k: entry[k] for k in got}
        return Judgement(1, int(got != want), int(got["verdict"] == "budget"),
                         None if got == want else
                         f"{entry['sequent']!r}: got {got}, recorded {want}")


# ---------------------------------------------------------------------------
# verify-enum: the brute-force oracle through the command line
# ---------------------------------------------------------------------------

# Sizes: exhaustive up to 2+3 and 3+2 (the largest sizes each sequent can
# enumerate without --samples), plus a sample at 3+3, which the CLI draws
# from its fixed sampling seed.  K1 at 2+2 is the one call whose
# correspondent disagrees with the oracle (40 frames, the unsound R9 step),
# so it exercises the oracle's early exit on a disagreeing point.
VERIFY_SIZES = (("--enumerate", "2", "3"),
                ("--enumerate", "3", "2"),
                ("--enumerate", "3", "3", "--samples", "400"))
VERIFY_SEQUENTS = ("box p |- p",          # Rbox
                   "p |- dia p",          # Rdia
                   "p |- neg neg p",      # Rneg
                   "dia dia p |- dia p")  # Rdia, a deeper correspondent
VERIFY_CALLS = tuple((s, size) for s in VERIFY_SEQUENTS for size in VERIFY_SIZES) \
    + (("dia p /\\ box q |- dia (p /\\ q)", ("--enumerate", "2", "2")),)

_VAR = re.compile(r"\b[pqrs]\b")


def run_cli(argv: list[str]):
    """``cli.main(argv)`` with stdout captured; returns ((exit code, stdout),
    per-frame latencies) from a clock on each of the oracle's verdicts."""
    stamps = []
    oracle = cli.correspondence_oracle

    def clocked(*args):
        verdict = oracle(*args)
        stamps.append(perf_counter())
        return verdict

    buf = io.StringIO()
    cli.correspondence_oracle = clocked
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        cli.correspondence_oracle = oracle
    return (code, buf.getvalue()), [b - a for a, b in zip([t0] + stamps, stamps)]


def call_key(sequent: str, size) -> str:
    return " ".join((sequent,) + tuple(size))


class VerifyEnum:
    """``dfmlcorr verify ... --enumerate ... --json`` run in-process.

    An item is one frame checked.  Its latency runs from the previous
    verdict (or the start of the command) to the oracle's verdict on it, so
    it includes enumerating and rejecting the candidates in between.  The
    seed renames the propositional variables and orders the calls; the
    frames checked do not depend on it.
    """

    name = "verify-enum"
    TAIL_PCT = 99.9

    def __init__(self, seed: int, reference: dict):
        rng = random.Random(seed)
        ref = reference["verify-enum"]
        self.calls = []
        for sequent, size in VERIFY_CALLS:
            old = sorted(set(_VAR.findall(sequent)))
            new = dict(zip(old, rng.sample("pqrs", len(old))))
            renamed = _VAR.sub(lambda m: new[m.group()], sequent)
            argv = ["verify", renamed, *size, "--json"]
            self.calls.append((argv, ref[call_key(sequent, size)]))
        rng.shuffle(self.calls)

    def ask(self, call):
        return run_cli(call[0])

    def items(self, call) -> int:
        return max(call[1]["frames_checked"], 1)

    def judge(self, call, out) -> Judgement:
        argv, want = call
        code, text = out
        try:
            doc = json.loads(text)
            got = {"exit": code, "frames_checked": doc["frames_checked"],
                   "disagreements": len(doc["disagreements"]),
                   "correspondent": doc["correspondent"]}
        except (ValueError, KeyError) as exc:
            got = {"error": repr(exc)}
        items = self.items(call)
        undecided = items if code == cli.EXIT_RESOURCE else 0
        if got != want:
            return Judgement(items, items, undecided, f"{argv}: got {got}, recorded {want}")
        return Judgement(items, 0, undecided)


# ---------------------------------------------------------------------------
# rule-audit: is each rule application equivalence-preserving?
# ---------------------------------------------------------------------------

def app_key(rule: str, before, after) -> str:
    return f"{rule} | {before} | {after}"


def collect_applications() -> dict:
    """Rule applications from the corpus searches, keyed by ``app_key``:
    every trace step, plus the one-step fan-out of every system a trace
    visits."""
    apps = {}
    systems = []
    for entry in corpus.CORPUS:
        res = correspondence.compute_correspondent(syntax.parse_dfml(entry.sequent))
        for r in res.classification.successes:
            for st in r.trace:
                apps.setdefault(app_key(st.rule, st.before, st.after), st)
                systems.append(st.before)
            systems.append(r.system)
        for c in res.correspondents:
            for st in c.trace:
                apps.setdefault(app_key(st.rule, st.before, st.after), st)
    seen = set()
    for sys in systems:
        if str(sys) in seen:
            continue
        seen.add(str(sys))
        for rule, _site, child in reduction.applicable_moves(sys):
            apps.setdefault(app_key(rule, sys, child),
                            reduction.ReductionStep(rule, sys, child))
    return apps


def relations_of(*systems) -> tuple[str, ...]:
    """Base relations whose operators occur in the printed systems."""
    text = " ".join(str(s) for s in systems)
    marks = {"Rdia": ("diav", "boxv", "box1"), "Rbox": ("diam", "boxm", "boxd"),
             "Rneg": ("tdown",), "T": ("odot", "rspoon", "tright")}
    return tuple(sorted(rel for rel, ops in marks.items()
                        if any(op in text for op in ops)))


def frame_family(rels: tuple[str, ...]) -> list:
    """Separated+smooth 2+2 frames over ``rels``: exhaustive up to 12
    relation bits, else a seeded sample of 1,500 candidates."""
    bits = sum({"Rdia": 4, "Rbox": 4, "Rneg": 4, "T": 8}[r] for r in rels)
    return list(semantics.enumerate_frames(
        2, 2, rels, require=("F1", "F2"),
        sample=None if bits <= 12 else 1500, seed=23))


class RuleAudit:
    """``system_equivalence_witness`` on a seeded sample of applications.

    An item is one application, checked frame by frame against its family
    until the first witness frame.  The applications come from the corpus
    searches during set-up; so do the frame families.  Every pass holds
    every application recorded with a witness (the 9 of rules R8, R9 and
    R5.9, which are not sound on every separated+smooth frame), and
    ``OTHERS`` more drawn by ``stratified``.
    """

    name = "rule-audit"
    OTHERS = 10             # with the 9 witnessed, 19 items a pass: an odd
    TAIL_PCT = 80.0         # count puts the median on one item, not a gap

    def __init__(self, seed: int, reference: dict):
        rng = random.Random(seed)
        recorded = reference["rule-audit"]["apps"]
        witnessed = [e for e in recorded if e["witness_frame"] is not None]
        rest = [e for e in recorded if e["witness_frame"] is None]
        chosen = witnessed + stratified(rest, self.OTHERS, 0, rng)
        rng.shuffle(chosen)
        live = collect_applications()
        families: dict = {}
        self.calls = []
        for e in chosen:
            step = live.get(e["key"])
            frames = None
            if step is not None:
                rels = relations_of(step.before, step.after)
                if rels not in families:
                    families[rels] = frame_family(rels)
                frames = families[rels]
            self.calls.append((e, step, frames))

    def ask(self, call):
        _, step, frames = call
        t0 = perf_counter()
        verdict = "missing"
        if step is not None:
            verdict = None
            for i, fr in enumerate(frames):
                if semantics.system_equivalence_witness(fr, step.before, step.after) is not None:
                    verdict = i
                    break
        return verdict, [perf_counter() - t0]

    def items(self, call) -> int:
        return 1

    def judge(self, call, verdict) -> Judgement:
        want = call[0]
        if verdict != want["witness_frame"]:
            return Judgement(1, 1, 0, f"{want['key']}: witness frame {verdict}, "
                                      f"recorded {want['witness_frame']}")
        return Judgement(1, 0, 0)


WORKLOADS = {w.name: w for w in (Symbolic, VerifyEnum, RuleAudit)}
