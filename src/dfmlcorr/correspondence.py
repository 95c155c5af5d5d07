"""From a canonical system to a local first-order correspondent.

The pipeline: build invariance guards for constrained predicate variables,
form the guarded second-order translation, pull existentials out of the
antecedent and split it into relational atoms / predicate atoms / boxed
atoms, pick minimal instantiations, substitute and beta-reduce, and return
the relational residue implying the instantiated consequent.  An optional
pass simplifies witnessed order-atoms under the monotonicity frame axiom.
"""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    AndF, Eq, Exists, FalseF, FoFormula, Forall, Forall2, ImpF, IVar,
    LambdaPredicate, NotF, PredApp, PVar, RelAtom, Leq, Sequent, VarNamer,
    and_all, children, flip, i_atom, rebuild, or_all, word_rel,
)
from .reduction import (
    Classification, InequalitySystem, ReductionStep, SOUND_ON_SMOOTH, ThreadResult,
    THREAD_COTRANSLATION, THREAD_TRANSLATION, classify, is_canonical_form,
    canonical_key, normalize_canonical, DEFAULT_NODE_BUDGET,
)
from .translation import so_vars as translation_so_vars
from .translation import standard_translation


def _in_closure(u: IVar, member, namer: VarNamer) -> FoFormula:
    """``u`` lies in the Galois closure of the points ``c`` of its sort at
    which ``member(c)`` holds: every ``v`` I-related to ``u`` is I-related
    to such a ``c``.  ``v`` and ``c`` are fresh, in that order."""
    v = namer.fresh(flip(u.sort))
    c = namer.fresh(u.sort)
    return Forall(v, ImpF(i_atom(u, v), Exists(c, AndF(i_atom(c, v), member(c)))))


def t_invariance(pvars, namer: VarNamer | None = None) -> FoFormula:
    """Guard forcing each listed predicate variable to denote a Galois set.

    A sort-1 variable P contributes
    ``forall u (forall v (u I v -> exists u1 (u1 I v /\\ P(u1))) -> P(u))``;
    a sort-d variable gets the order-dual guard.
    """
    namer = namer or VarNamer()
    conjs = []
    for p in pvars:
        u = namer.fresh(p.sort)
        conjs.append(Forall(u, ImpF(_in_closure(u, lambda c: PredApp(p, c), namer),
                                    PredApp(p, u))))
    return and_all(conjs)


@dataclass
class GuardedSO:
    so_vars: tuple[tuple[PVar, bool], ...]  # (variable, constrained?)
    anchor: IVar
    t_inv: FoFormula
    antecedent: FoFormula
    consequent: FoFormula
    namer: VarNamer

    def to_formula(self) -> FoFormula:
        out: FoFormula = Forall(self.anchor,
                                ImpF(AndF(self.t_inv, self.antecedent), self.consequent))
        for p, _ in reversed(self.so_vars):
            out = Forall2(p, out)
        return out


def guarded_translation(sys: InequalitySystem) -> GuardedSO:
    if not is_canonical_form(sys):
        raise ValueError("guarded translation needs a system in canonical Sahlqvist form")
    anchor = IVar(0, sys.main.sort)
    namer = VarNamer.past(anchor)
    constrained = [PVar(c.var.index, c.var.sort) for c in sys.stb]
    constrained += [PVar(c.var.index, c.var.sort) for c in sys.cvc]
    unconstrained = dict.fromkeys(
        p for p in translation_so_vars(sys.main.lhs) + translation_so_vars(sys.main.rhs)
        if p not in constrained)
    so = tuple((p, True) for p in constrained) + tuple((p, False) for p in unconstrained)
    t_inv = t_invariance(constrained, namer)
    antecedent = standard_translation(sys.main.lhs, anchor, namer, composite_boxes=True)
    consequent = standard_translation(sys.main.rhs, anchor, namer, composite_boxes=False)
    return GuardedSO(so, anchor, t_inv, antecedent, consequent, namer)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxedAtom:
    term: IVar
    word: tuple[str, ...]
    var: PVar


@dataclass
class Decomposition:
    prenex_vars: tuple[IVar, ...]
    rel: tuple[FoFormula, ...]
    at: tuple[PredApp, ...]
    boxed: tuple[BoxedAtom, ...]
    pos: FoFormula
    antecedent_false: bool = False


def _as_boxed(f: FoFormula) -> BoxedAtom | None:
    if isinstance(f, Forall) and isinstance(f.body, ImpF) \
            and isinstance(f.body.left, RelAtom) and f.body.left.rel.startswith("R''_") \
            and isinstance(f.body.right, PredApp) \
            and f.body.left.args[1] == f.var and f.body.right.arg == f.var:
        letters = tuple(f.body.left.rel[4:].split("."))
        return BoxedAtom(f.body.left.args[0], letters, f.body.right.var)
    return None


def fo_positive_in(f: FoFormula, p: PVar, pol: int = 1) -> bool:
    if isinstance(f, PredApp):
        return pol > 0 or f.var != p
    if isinstance(f, NotF):
        return fo_positive_in(f.arg, p, -pol)
    if isinstance(f, ImpF):
        return fo_positive_in(f.left, p, -pol) and fo_positive_in(f.right, p, pol)
    kids = children(f)
    return all(fo_positive_in(k, p, pol) for k in kids)


def decompose(g: GuardedSO) -> Decomposition:
    """Prenex the antecedent and partition its conjuncts.

    Guaranteed to succeed on guarded translations of canonical systems; any
    other conjunct shape is an internal error.
    """
    prenex: list[IVar] = []
    rel: list[FoFormula] = []
    at: list[PredApp] = []
    boxed: list[BoxedAtom] = []
    false_seen = False

    def collect(f: FoFormula) -> None:
        nonlocal false_seen
        if isinstance(f, AndF):
            collect(f.left)
            collect(f.right)
            return
        if isinstance(f, Exists):
            prenex.append(f.var)
            collect(f.body)
            return
        if isinstance(f, Eq) and f.t1 == f.t2:
            return
        if isinstance(f, NotF) and isinstance(f.arg, Eq) and f.arg.t1 == f.arg.t2:
            false_seen = True
            return
        if isinstance(f, RelAtom):
            rel.append(f)
            return
        if isinstance(f, PredApp):
            at.append(f)
            return
        b = _as_boxed(f)
        if b is not None:
            boxed.append(b)
            return
        raise AssertionError(f"antecedent conjunct outside the Sahlqvist shape: {f}")

    collect(g.antecedent)
    for p, _ in g.so_vars:
        if not fo_positive_in(g.consequent, p):
            raise AssertionError(f"consequent not positive in {p}")
    return Decomposition(tuple(prenex), tuple(rel), tuple(at), tuple(boxed),
                         g.consequent, antecedent_false=false_seen)


# ---------------------------------------------------------------------------
# Minimal instantiation and elimination
# ---------------------------------------------------------------------------

def minimal_instantiation(d: Decomposition, var: PVar, constrained: bool,
                          namer: VarNamer | None = None) -> LambdaPredicate:
    """Characteristic function of the least (stable, when constrained) set
    satisfying the variable's atoms and boxed atoms."""
    namer = namer or VarNamer(next1=100, nextd=100)
    ats = [a.arg for a in d.at if a.var == var]
    boxes = [(b.term, b.word) for b in d.boxed if b.var == var]
    if not ats and not boxes:
        raise ValueError(f"{var} has no atoms to instantiate from")
    s = namer.fresh(var.sort)

    def least(c: IVar) -> FoFormula:
        """``c`` is one of the atoms' points or a boxed atom's successor."""
        return or_all([Eq(c, u) for u in ats]
                      + [RelAtom(word_rel(w), (t, c)) for t, w in boxes])

    if not constrained:
        return LambdaPredicate(s, least(s))
    if not boxes and len(ats) == 1:
        return LambdaPredicate(s, Leq(ats[0], s))
    if not ats and len(boxes) == 1 and len(boxes[0][1]) == 1:
        t, w = boxes[0]
        return LambdaPredicate(s, RelAtom(word_rel(w), (t, s)))
    if not boxes:
        # closure of a finite set of points, written with I-atoms only
        v = namer.fresh(flip(var.sort))
        return LambdaPredicate(s, Forall(v, ImpF(i_atom(s, v),
                                                 or_all([i_atom(u, v) for u in ats]))))
    return LambdaPredicate(s, _in_closure(s, least, namer))


def _subst_ivars(f: FoFormula, mapping: dict, namer: VarNamer) -> FoFormula:
    """Substitution with fresh renaming of every binder passed through."""
    if isinstance(f, RelAtom):
        return RelAtom(f.rel, tuple(mapping.get(t, t) for t in f.args))
    if isinstance(f, Eq):
        return Eq(mapping.get(f.t1, f.t1), mapping.get(f.t2, f.t2))
    if isinstance(f, PredApp):
        return PredApp(f.var, mapping.get(f.arg, f.arg))
    if isinstance(f, (Forall, Exists)):
        fresh = namer.fresh(f.var.sort)
        inner = {**mapping, f.var: fresh}
        return type(f)(fresh, _subst_ivars(f.body, inner, namer))
    kids = [_subst_ivars(k, mapping, namer) for k in children(f)]
    return rebuild(f, kids)


def beta_apply(lam: LambdaPredicate, term: IVar, namer: VarNamer) -> FoFormula:
    """Capture-avoiding application of a predicate abstraction to a term."""
    return _subst_ivars(lam.body, {lam.param: term}, namer)


def eliminate(g: GuardedSO, d: Decomposition, inst: dict) -> FoFormula:
    """Substitute the abstractions through the consequent and return the
    relational residue implying it, universally closed over the prenex
    variables.  The guard, atom and boxed conjuncts hold by construction of
    the minimal instantiations and are discharged."""

    def subst(f: FoFormula) -> FoFormula:
        if isinstance(f, PredApp):
            if f.var in inst:
                return beta_apply(inst[f.var], f.arg, g.namer)
            return FalseF()
        kids = [subst(k) for k in children(f)]
        return rebuild(f, kids)

    pos = subst(d.pos)
    core = pos if not d.rel else ImpF(and_all(list(d.rel)), pos)
    for v in reversed(d.prenex_vars):
        core = Forall(v, core)
    return core


# ---------------------------------------------------------------------------
# Monotonicity simplification (frame axiom F3)
# ---------------------------------------------------------------------------

_F3_BASE = ("R_dia", "R_box", "R_neg")


def _and_conjuncts(f: FoFormula) -> list[FoFormula]:
    if isinstance(f, AndF):
        return _and_conjuncts(f.left) + _and_conjuncts(f.right)
    return [f]


def simplify_f3(f: FoFormula) -> FoFormula:
    """Collapse existentially-witnessed order atoms against a base relation.

    Two patterns only, sound on frames whose relations are increasing in the
    first and decreasing in the other argument:
    ``exists u (R(a,u) /\\ x <= u)  ->  R(a,x)`` and
    ``exists u (R(u,a) /\\ u <= x)  ->  R(x,a)``.
    """
    new = rebuild(f, [simplify_f3(k) for k in children(f)])
    if isinstance(new, Exists):
        conjs = _and_conjuncts(new.body)
        if len(conjs) == 2:
            for rel_atom, leq in (conjs, reversed(conjs)):
                if not (isinstance(rel_atom, RelAtom) and rel_atom.rel in _F3_BASE):
                    continue
                if not (isinstance(leq, RelAtom) and leq.rel == "<="):
                    continue
                u = new.var
                a1, a2 = rel_atom.args
                l1, l2 = leq.args
                if a2 == u and a1 != u and l2 == u and l1 != u:
                    return RelAtom(rel_atom.rel, (a1, l1))
                if a1 == u and a2 != u and l1 == u and l2 != u:
                    return RelAtom(rel_atom.rel, (l2, a2))
    return new


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

@dataclass
class Correspondent:
    thread: str
    imp: str
    box: str
    anchor: IVar
    formula: FoFormula
    system: InequalitySystem
    trace: tuple[ReductionStep, ...]
    guarded: GuardedSO
    instantiations: dict
    f3_formula: FoFormula | None = None


@dataclass
class CorrespondenceResult:
    sequent: Sequent
    classification: Classification
    correspondents: tuple[Correspondent, ...]

    @property
    def sahlqvist(self) -> bool:
        return bool(self.correspondents)

    @property
    def primary(self) -> Correspondent:
        return self.correspondents[0]


def correspondent_from(result: ThreadResult, assume_f3: bool = False) -> Correspondent:
    steps = list(result.trace)
    sys = normalize_canonical(result.system, steps)
    g = guarded_translation(sys)
    d = decompose(g)
    inst: dict = {}
    if d.antecedent_false:
        formula: FoFormula = Eq(g.anchor, g.anchor)
    else:
        mentioned = {a.var for a in d.at} | {b.var for b in d.boxed}
        for p, constrained in g.so_vars:
            if p in mentioned:
                inst[p] = minimal_instantiation(d, p, constrained, g.namer)
        formula = eliminate(g, d, inst)
    f3 = simplify_f3(formula) if assume_f3 else None
    return Correspondent(result.thread, result.imp, result.box, g.anchor,
                         formula, sys, tuple(steps), g, inst, f3)


def compute_correspondent(s: Sequent, max_nodes: int = DEFAULT_NODE_BUDGET,
                          assume_f3: bool = False,
                          threads: tuple[str, ...] = (THREAD_TRANSLATION,
                                                      THREAD_COTRANSLATION)) -> CorrespondenceResult:
    """Classify the sequent and compute a correspondent for every thread that
    reduces; the first is the primary output.

    Correspondents whose whole trace uses only rules in ``SOUND_ON_SMOOTH``
    come first, since only their derivations preserve equivalence on every
    separated+smooth frame; the order is otherwise the search's, translation
    before co-translation.  Rendering policies that reach the same canonical
    system are reported once, under the policy tried first.
    """
    cls = classify(s, max_nodes=max_nodes, threads=threads)
    corrs = []
    seen = set()
    for r in cls.successes:
        key = (r.thread, canonical_key(r.system))
        if key in seen:
            continue
        seen.add(key)
        corrs.append(correspondent_from(r, assume_f3))
    corrs.sort(key=lambda c: not all(st.rule in SOUND_ON_SMOOTH for st in c.trace))
    return CorrespondenceResult(s, cls, tuple(corrs))
