"""Command-line front end.

Subcommands wire the pipeline together: translate, reduce, classify,
correspond, verify, check-frame, plus a corpus mode that replays the bundled
golden examples.  Exit codes: 0 success (Sahlqvist / all verified), 1
negative outcome (not Sahlqvist, a verification disagreement, or a failed
frame check), 2 resource errors (node budget, frame size), 3 usage or
syntax errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import run_corpus
from .correspondence import compute_correspondent
from .reduction import (
    DEFAULT_NODE_BUDGET, NodeBudgetExceeded, THREAD_COTRANSLATION,
    THREAD_TRANSLATION, classify,
)
from .semantics import (
    FrameSizeError, FrameValidationError, correspondence_oracle,
    enumerate_frames, frame_to_json, load_frame, relations_needed,
)
from .syntax import ParseError, parse_dfml
from .translation import translate_sequent

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3

GRAMMAR_HINT = "see docs/grammar.md for the sequent grammar"


def _threads(arg: str) -> tuple[str, ...]:
    if arg == "translation":
        return (THREAD_TRANSLATION,)
    if arg == "cotranslation":
        return (THREAD_COTRANSLATION,)
    return (THREAD_TRANSLATION, THREAD_COTRANSLATION)


def _trace_lines(trace) -> list[str]:
    if not trace:
        return ["  (already canonical)"]
    lines = [f"  0. {trace[0].before}"]
    for i, step in enumerate(trace, start=1):
        lines.append(f"  {i}. {step.after}   [{step.rule}]")
    return lines


def _trace_json(trace) -> list[dict]:
    return [{"rule": st.rule, "before": str(st.before), "after": str(st.after)}
            for st in trace]


def _classification_json(cls, start: bool) -> dict:
    """Input, verdict and one entry per thread result; ``start`` adds each
    thread's starting inequality."""
    threads = []
    for r in cls.results:
        entry = {"thread": r.thread, "imp": r.imp, "box": r.box}
        if start:
            entry["start"] = str(r.start)
        entry["reduced"] = r.reduced
        if r.reduced:
            entry["system"] = str(r.system)
            entry["trace"] = _trace_json(r.trace)
        threads.append(entry)
    return {"input": str(cls.sequent),
            "verdict": "sahlqvist" if cls.sahlqvist else "not-sahlqvist",
            "threads": threads}


def _result_json(res, assume_f3: bool) -> dict:
    doc = _classification_json(res.classification, start=True)
    doc["correspondents"] = []
    for c in res.correspondents:
        entry = {
            "thread": c.thread,
            "imp": c.imp,
            "box": c.box,
            "anchor": str(c.anchor),
            "system": str(c.system),
            "trace": _trace_json(c.trace),
            "guarded": str(c.guarded.to_formula()),
            "instantiations": {str(p): str(lam) for p, lam in c.instantiations.items()},
            "correspondent": str(c.formula),
        }
        if assume_f3 and c.f3_formula is not None:
            entry["correspondent_f3"] = str(c.f3_formula)
        doc["correspondents"].append(entry)
    return doc


def cmd_translate(args) -> int:
    s = parse_dfml(args.sequent)
    one, dual = translate_sequent(s, imp=args.imp, box=args.box)
    if args.json:
        print(json.dumps({"input": str(s), "translation": str(one),
                          "cotranslation": str(dual)}, indent=2))
    else:
        print(f"1-sequent: {one}")
        print(f"d-sequent: {dual}")
    return EXIT_OK


def cmd_classify(args) -> int:
    s = parse_dfml(args.sequent)
    cls = classify(s, max_nodes=args.max_nodes, threads=_threads(args.thread))
    if args.json:
        print(json.dumps(_classification_json(cls, start=False), indent=2))
    else:
        print("sahlqvist" if cls.sahlqvist else "not-sahlqvist")
        for r in cls.results:
            tag = f"{r.thread} ({r.imp}/{r.box})"
            if r.reduced:
                print(f"  {tag}: reduces to {r.system}")
            else:
                print(f"  {tag}: not reducible")
    return EXIT_OK if cls.sahlqvist else EXIT_NEGATIVE


def cmd_reduce(args) -> int:
    s = parse_dfml(args.sequent)
    cls = classify(s, max_nodes=args.max_nodes, threads=_threads(args.thread))
    if args.json:
        print(json.dumps(_classification_json(cls, start=True), indent=2))
    else:
        for r in cls.results:
            tag = f"{r.thread} ({r.imp}/{r.box})"
            if r.reduced:
                print(f"{tag}:")
                print("\n".join(_trace_lines(r.trace)))
            else:
                print(f"{tag}: not reducible from {r.start}")
    return EXIT_OK if cls.sahlqvist else EXIT_NEGATIVE


def cmd_correspond(args) -> int:
    s = parse_dfml(args.sequent)
    res = compute_correspondent(s, max_nodes=args.max_nodes,
                                assume_f3=args.assume_f3,
                                threads=_threads(args.thread))
    if args.json:
        print(json.dumps(_result_json(res, args.assume_f3), indent=2))
        return EXIT_OK if res.sahlqvist else EXIT_NEGATIVE
    if not res.sahlqvist:
        print("not-sahlqvist")
        return EXIT_NEGATIVE
    c = res.primary
    formula = c.f3_formula if (args.assume_f3 and c.f3_formula is not None) else c.formula
    print(f"correspondent ({c.thread}, anchor {c.anchor}): {formula}")
    if args.trace:
        print(f"thread: {c.thread} ({c.imp}/{c.box})")
        print("reduction:")
        print("\n".join(_trace_lines(c.trace)))
        print(f"canonical system: {c.system}")
        print(f"guarded second-order translation:\n  {c.guarded.to_formula()}")
        print("minimal instantiations:")
        if not c.instantiations:
            print("  (none)")
        for p, lam in c.instantiations.items():
            print(f"  {p} := {lam}")
        print(f"correspondent: {c.formula}")
        if args.assume_f3 and c.f3_formula is not None:
            print(f"simplified under F3: {c.f3_formula}")
    others = res.correspondents[1:]
    for c2 in others:
        f2 = c2.f3_formula if (args.assume_f3 and c2.f3_formula is not None) else c2.formula
        print(f"also via {c2.thread} ({c2.imp}/{c2.box}, anchor {c2.anchor}): {f2}")
    return EXIT_OK


def _frames_from_args(args, s):
    if args.frames:
        for name in sorted(os.listdir(args.frames)):
            if name.endswith(".json"):
                yield name, load_frame(os.path.join(args.frames, name),
                                       validate=not args.no_validate)
        return
    n1, nd = args.enumerate
    needed = relations_needed(s)
    require = ("F1", "F2", "F3") if args.assume_f3 else ("F1", "F2")
    count = 0
    for i in range(1, n1 + 1):
        for j in range(1, nd + 1):
            bits_needed = sum({"Rdia": i * i, "Rbox": j * j, "Rneg": i * j,
                               "T": j * i * j}[r] for r in needed)
            if args.samples is None and bits_needed > 16:
                raise FrameSizeError(
                    f"2^{bits_needed} relation combinations at {i}x{j}; "
                    f"pass --samples K to check a seeded sample")
            for fr in enumerate_frames(i, j, needed, require=require,
                                       sample=args.samples):
                count += 1
                yield f"enum-{i}x{j}-{count}", fr


def cmd_verify(args) -> int:
    s = parse_dfml(args.sequent)
    res = compute_correspondent(s, max_nodes=args.max_nodes,
                                assume_f3=args.assume_f3,
                                threads=_threads(args.thread))
    if not res.sahlqvist:
        print("not-sahlqvist: nothing to verify")
        return EXIT_NEGATIVE
    c = res.primary
    formula = c.f3_formula if (args.assume_f3 and c.f3_formula is not None) else c.formula
    checked = 0
    disagreements = []      # (name, witness, frame_to_json doc): a kept frame keeps its tables
    per_frame = []
    for name, fr in _frames_from_args(args, s):
        checked += 1
        witness = correspondence_oracle(fr, s, c.anchor, formula)
        if args.frames:
            per_frame.append((name, witness))
        if witness is not None:
            disagreements.append((name, witness, frame_to_json(fr)))
    if args.json:
        doc = {
            "input": str(s),
            "thread": c.thread,
            "anchor": str(c.anchor),
            "correspondent": str(formula),
            "frames_checked": checked,
            "verdicts": [{"frame": n, "agree": w is None,
                          **({"witness": str(w)} if w is not None else {})}
                         for n, w in per_frame] if args.frames else None,
            "disagreements": [{"frame": n, "witness": str(w), "frame_doc": frame_doc}
                              for n, w, frame_doc in disagreements],
        }
        # streamed: a run with many disagreements prints tens of megabytes
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        print(f"correspondent ({c.thread}, anchor {c.anchor}): {formula}")
        if args.frames:
            for n, w in per_frame:
                print(f"  {n}: {'agree' if w is None else f'DISAGREE at {w}'}")
        print(f"checked {checked} frame(s): "
              f"{'all agree' if not disagreements else f'{len(disagreements)} disagreement(s)'}")
        for n, w, frame_doc in disagreements[:10]:
            print(f"  {n}: disagreement at point {w}: {json.dumps(frame_doc)}")
    return EXIT_OK if not disagreements else EXIT_NEGATIVE


def cmd_check_frame(args) -> int:
    fr = load_frame(args.file, validate=False)
    which = ("F0", "F1", "F2", "F3")
    report = fr.check_axioms(which)
    doc = {"file": args.file,
           "z1": list(fr.z1), "zd": list(fr.zd),
           "axioms": {ax: {"passed": ok, **({"witness": why} if why else {})}
                      for ax, (ok, why) in report.items()}}
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for ax, (ok, why) in report.items():
            print(f"{ax}: {'pass' if ok else 'FAIL'}" + (f" ({why})" if why else ""))
    required_ok = report["F1"][0] and report["F2"][0]
    return EXIT_OK if required_ok else EXIT_NEGATIVE


def cmd_corpus(args) -> int:
    failures = 0
    for name, checks in run_corpus(max_nodes=args.max_nodes):
        for check, ok, detail in checks:
            if not ok:
                failures += 1
                print(f"FAIL  {name:18s} {check}: {detail}")
        n_ok = sum(1 for _, ok, _ in checks if ok)
        print(f"{'PASS' if n_ok == len(checks) else 'FAIL'}  {name:18s} {n_ok}/{len(checks)} checks")
    print(f"corpus: {'all green' if failures == 0 else f'{failures} failing check(s)'}")
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dfmlcorr",
        description="Sahlqvist correspondence for distribution-free modal logic")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, sequent=True):
        if sequent:
            p.add_argument("sequent", help="modal sequent, e.g. 'box p |- p'")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                       help="search node budget")
        p.add_argument("--thread", choices=("translation", "cotranslation", "both"),
                       default="both")

    p = sub.add_parser("translate", help="print the sorted translations")
    p.add_argument("sequent")
    p.add_argument("--json", action="store_true")
    p.add_argument("--imp", choices=("rspoon", "tright"), default="rspoon")
    p.add_argument("--box", choices=("boxminus", "prime"), default="boxminus")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("classify", help="decide whether the sequent is Sahlqvist")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="print the reduction traces")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("correspond", help="compute the local first-order correspondent")
    common(p)
    p.add_argument("--trace", action="store_true", help="print all pipeline stages")
    p.add_argument("--assume-f3", action="store_true",
                   help="apply the monotonicity simplification")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("verify", help="check the correspondent against brute-force validity")
    common(p)
    p.add_argument("--frames", metavar="DIR", help="directory of frame files")
    p.add_argument("--enumerate", nargs=2, type=int, metavar=("N1", "ND"),
                   help="enumerate frames up to the given carrier sizes")
    p.add_argument("--samples", type=int, default=None,
                   help="sample this many relation combinations per size instead of all")
    p.add_argument("--no-validate", action="store_true",
                   help="skip frame validation on load")
    p.add_argument("--assume-f3", action="store_true",
                   help="verify the F3-simplified correspondent on F3 frames")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-frame", help="validate a frame file against the axioms")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_frame)

    p = sub.add_parser("corpus", help="replay the golden example corpus")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if getattr(args, "command", None) == "verify" \
            and not (args.frames or args.enumerate):
        print("verify needs --frames DIR or --enumerate N1 ND", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as e:
        print(f"syntax error: {e}; {GRAMMAR_HINT}", file=sys.stderr)
        return EXIT_USAGE
    except NodeBudgetExceeded as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except FrameSizeError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except FrameValidationError as e:
        print(f"frame error: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except FileNotFoundError as e:
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
