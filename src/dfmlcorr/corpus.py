"""The worked-example corpus: sequents with their expected symbolic outcomes.

Each entry records how the sequent classifies, which threads reduce, the
canonical systems and rule traces they reach, and (where fixed) the primary
correspondent.  The CLI's corpus command and the acceptance suite both run
from this table, so the golden results live in exactly one place.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .correspondence import compute_correspondent
from .reduction import InequalitySystem, canonical_key, parse_inequality_system
from .syntax import fo_alpha_eq, parse_dfml, parse_fo


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    sequent: str
    sahlqvist: bool
    # thread name -> should at least one policy of that thread reduce
    threads: dict = field(default_factory=dict)
    # (thread, imp, box) -> expected system, compared modulo variable renaming
    systems: dict = field(default_factory=dict)
    # (thread, imp, box) -> exact rule-name sequence of the search trace
    traces: dict = field(default_factory=dict)
    # primary correspondent, compared modulo bound-variable renaming
    correspondent: str | None = None
    # primary correspondent after the monotonicity simplification
    correspondent_f3: str | None = None
    # rule names that must appear in some reducing trace
    requires_rules: tuple = ()


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="box-t",
        sequent="box p |- p",
        sahlqvist=True,
        threads={"translation": True, "cotranslation": True},
        systems={
            ("translation", "rspoon", "boxminus"): "P0'' <=1 P0 | boxm P0 <=1 P0",
            ("cotranslation", "rspoon", "boxminus"): "P^1 =d P0' | P^1 <=d (diam P^1)''",
        },
        traces={
            ("translation", "rspoon", "boxminus"): ("R4",),
            ("cotranslation", "rspoon", "boxminus"): ("R6",),
        },
        correspondent="x0 R''_box x0",
    ),
    CorpusEntry(
        name="dia-t",
        sequent="p |- dia p",
        sahlqvist=True,
        threads={"translation": True, "cotranslation": True},
        systems={
            ("translation", "rspoon", "boxminus"): "P0'' <=1 P0 | P0 <=1 (diav P0)''",
            ("cotranslation", "rspoon", "boxminus"): "P^1 =d P0' | boxv P^1 <=d P^1",
        },
        traces={
            ("translation", "rspoon", "boxminus"): ("R4",),
            ("cotranslation", "rspoon", "boxminus"): ("R5.1b", "R5.4", "R6"),
        },
        correspondent=("forall_d v. (x0 I v -> (exists_1 z. (z I v /\\ "
                       "(exists_1 u. (z R_dia u /\\ x0 <= u)))))"),
        correspondent_f3="forall_d v. (x0 I v -> (exists_1 z. (z I v /\\ z R_dia x0)))",
    ),
    CorpusEntry(
        name="dia-4",
        sequent="dia dia p |- dia p",
        sahlqvist=True,
        threads={"translation": False, "cotranslation": True},
        systems={
            ("cotranslation", "rspoon", "boxminus"):
                "P^1 =d P0' | boxv P^1 <=d (diav (boxv P^1)')'",
        },
        traces={
            ("cotranslation", "rspoon", "boxminus"): ("R4", "R5.2b", "R5.2b", "R6", "R1"),
        },
        correspondent=("forall_d v. (y0 R''_dia v -> "
                       "(forall_d y5. (v R''_dia y5 -> y0 R''_dia y5)))"),
    ),
    CorpusEntry(
        name="k1",
        sequent="dia p /\\ box q |- dia (p /\\ q)",
        sahlqvist=True,
        threads={"translation": True, "cotranslation": False},
        systems={
            ("translation", "rspoon", "boxminus"):
                "P0'' <=1 P0, P1'' <=1 P1 | diav P0 cap boxm P1 <=1 (diav (P0 cap P1))''",
            ("translation", "rspoon", "prime"):
                "P0'' <=1 P0, P1'' <=1 P1 | diav P0 cap boxm P1 <=1 (diav (P0 cap P1))''",
        },
        traces={
            ("translation", "rspoon", "boxminus"): ("R4", "R4", "R9"),
            ("translation", "rspoon", "prime"): ("R5.1a", "R4", "R4", "R9"),
        },
        correspondent=("forall_1 z. (x0 R_dia z -> (forall_d y. (x0 I y -> "
                       "(exists_1 w. (w I y /\\ (exists_1 u. (w R_dia u /\\ "
                       "(z <= u /\\ x0 R''_box u))))))))"),
    ),
    CorpusEntry(
        name="k2",
        sequent="box (p \\/ q) |- dia p \\/ box q",
        sahlqvist=True,
        threads={"translation": False, "cotranslation": True},
        systems={
            ("cotranslation", "rspoon", "boxminus"):
                "P^2 =d P0', P^3 =d P1' | boxv P^2 cap diam P^3 <=d (diam (P^2 cap P^3))''",
        },
        traces={
            ("cotranslation", "rspoon", "boxminus"): ("R5.1b", "R5.4", "R6", "R6", "R9"),
        },
    ),
    CorpusEntry(
        name="contraction",
        sequent="p -> (p -> q) |- p -> q",
        sahlqvist=True,
        threads={"translation": True, "cotranslation": True},
        systems={
            ("translation", "rspoon", "boxminus"): "P0'' <=1 P0 | P0 <=1 P0 odot P0",
        },
        traces={
            ("translation", "rspoon", "boxminus"): ("R4", "R4", "R5.9", "R8", "R1"),
            ("cotranslation", "rspoon", "boxminus"): ("R4", "R6", "R2"),
        },
        correspondent=("forall_1 x3. (forall_d y4. (T(y0, x3, y4) -> (forall_1 x4. "
                       "(x4 I y0 -> (exists_d y5. (x4 I y5 /\\ (exists_1 x5. (exists_d y6. "
                       "(T(y5, x5, y6) /\\ x3 <= x5 /\\ (forall_1 x6. (x6 I y6 -> "
                       "(exists_d y7. (x6 I y7 /\\ (exists_1 x7. (exists_d y8. "
                       "(T(y7, x7, y8) /\\ x3 <= x7 /\\ y4 <= y8))))))))))))))))"),
    ),
    CorpusEntry(
        name="weakening",
        sequent="p |- q -> p",
        sahlqvist=True,
        threads={"translation": True},
        systems={
            ("translation", "rspoon", "boxminus"):
                "P0'' <=1 P0, P1'' <=1 P1 | P1 odot P0 <=1 P0",
        },
        traces={
            ("translation", "rspoon", "boxminus"): ("R4", "R4", "R7a"),
        },
    ),
    CorpusEntry(
        name="exchange",
        sequent="p -> (q -> r) |- q -> (p -> r)",
        sahlqvist=True,
        threads={"translation": True, "cotranslation": False},
        systems={
            ("translation", "rspoon", "boxminus"):
                "P0'' <=1 P0, P1'' <=1 P1 | P0 odot P1 <=1 P1 odot P0",
        },
        requires_rules=("R5.9", "R8"),
    ),
    CorpusEntry(
        name="galois-intro",
        sequent="p |- neg neg p",
        sahlqvist=True,
        threads={"translation": True, "cotranslation": True},
        systems={
            ("translation", "rspoon", "boxminus"):
                "P0'' <=1 P0 | P0 <=1 (tdown (tdown P0)')'",
        },
        traces={
            ("translation", "rspoon", "boxminus"): ("R4",),
        },
        correspondent=("forall_d y. (x0 I y -> (forall_1 z. (y R_neg z -> "
                       "(exists_d v. (z I v /\\ (exists_1 u. (v R_neg u /\\ "
                       "x0 <= u)))))))"),
        correspondent_f3=("forall_d y. (x0 I y -> (forall_1 z. (y R_neg z -> "
                          "(exists_d v. (z I v /\\ v R_neg x0)))))"),
    ),
    CorpusEntry(
        name="galois-elim",
        sequent="neg neg p |- p",
        sahlqvist=True,
        threads={"translation": False, "cotranslation": True},
        systems={
            ("cotranslation", "rspoon", "boxminus"):
                "P^1 =d P0' | P^1 <=d (tdown btdown P^1)''",
        },
        traces={
            ("cotranslation", "rspoon", "boxminus"): ("R5.7a", "R6"),
        },
    ),
    CorpusEntry(
        name="kleene-negation",
        sequent="p /\\ neg p |- q \\/ neg q",
        sahlqvist=False,
        threads={"translation": False, "cotranslation": False},
    ),
    CorpusEntry(
        name="pseudo-complement",
        sequent="p /\\ neg p |- bot",
        sahlqvist=False,
        threads={"translation": False, "cotranslation": False},
    ),
    CorpusEntry(
        name="fisher-servi-1",
        sequent="dia (p -> q) |- box p -> dia q",
        sahlqvist=True,
        threads={"cotranslation": True},
        requires_rules=(),
    ),
    CorpusEntry(
        name="fisher-servi-2",
        sequent="dia p -> box q |- box (p -> q)",
        sahlqvist=True,
        threads={"translation": False, "cotranslation": True},
        systems={
            ("cotranslation", "rspoon", "boxminus"):
                "P0'' <=1 P0, P^2 =d P1' | P0 tright P^2 <=d "
                "boxd ((diav P0)'' tright (diam P^2)'')''",
        },
        requires_rules=("R7c",),
    ),
)

# Canonical systems reached only after the prime-reducing normalisation that
# precedes second-order elimination.
NORMALIZED_SYSTEMS = {
    "dia-4": ("cotranslation", "P^1 =d P0' | boxv P^1 <=d boxv boxv P^1"),
    "fisher-servi-1": ("cotranslation",
                       "P0'' <=1 P0, P^2 =d P1' | "
                       "boxm P0 tright boxv P^2 <=d boxv (P0 tright P^2)''"),
}


def systems_match(actual: InequalitySystem, expected_text: str) -> bool:
    return canonical_key(actual) == canonical_key(parse_inequality_system(expected_text))


def run_entry(entry: CorpusEntry, max_nodes: int = 100_000) -> list[tuple[str, bool, str]]:
    """Evaluate one corpus entry; returns (check, ok, detail) triples."""
    out: list[tuple[str, bool, str]] = []
    s = parse_dfml(entry.sequent)
    res = compute_correspondent(s, max_nodes=max_nodes,
                                assume_f3=entry.correspondent_f3 is not None)
    cls = res.classification
    out.append(("verdict", cls.sahlqvist == entry.sahlqvist,
                f"expected {'sahlqvist' if entry.sahlqvist else 'not-sahlqvist'}"))
    for thread, want in entry.threads.items():
        got = any(r.reduced for r in cls.results if r.thread == thread)
        out.append((f"{thread}-reducible", got == want,
                    f"expected {'reducible' if want else 'not reducible'}"))
    by_key = {(r.thread, r.imp, r.box): r for r in cls.results}
    for key, expected in entry.systems.items():
        r = by_key.get(key)
        ok = r is not None and r.reduced and systems_match(r.system, expected)
        got = str(r.system) if (r and r.reduced) else "not reducible"
        out.append((f"system[{'/'.join(key)}]", ok, f"expected {expected!r}, got {got!r}"))
    for key, rules in entry.traces.items():
        r = by_key.get(key)
        got = tuple(st.rule for st in r.trace) if (r and r.reduced) else ()
        out.append((f"trace[{'/'.join(key)}]", got == rules,
                    f"expected {rules}, got {got}"))
    if entry.requires_rules:
        used = set()
        for r in cls.successes:
            used |= {st.rule for st in r.trace}
        missing = [rl for rl in entry.requires_rules if rl not in used]
        out.append(("rules-used", not missing, f"missing {missing}"))
    if entry.correspondent is not None:
        want = parse_fo(entry.correspondent)
        ok = res.sahlqvist and fo_alpha_eq(res.primary.formula, want)
        got = str(res.primary.formula) if res.sahlqvist else "-"
        out.append(("correspondent", ok, f"expected {entry.correspondent!r}, got {got!r}"))
    if entry.correspondent_f3 is not None:
        want = parse_fo(entry.correspondent_f3)
        ok = res.sahlqvist and res.primary.f3_formula is not None \
            and fo_alpha_eq(res.primary.f3_formula, want)
        got = str(res.primary.f3_formula) if res.sahlqvist else "-"
        out.append(("correspondent-f3", ok,
                    f"expected {entry.correspondent_f3!r}, got {got!r}"))
    name = entry.name
    if name in NORMALIZED_SYSTEMS and res.sahlqvist:
        thread, expected = NORMALIZED_SYSTEMS[name]
        match = [c for c in res.correspondents if c.thread == thread]
        ok = bool(match) and systems_match(match[0].system, expected)
        got = str(match[0].system) if match else "-"
        out.append(("normalized-system", ok, f"expected {expected!r}, got {got!r}"))
    return out


def run_corpus(max_nodes: int = 100_000):
    """(entry name, checks) for the whole corpus."""
    return [(e.name, run_entry(e, max_nodes)) for e in CORPUS]
