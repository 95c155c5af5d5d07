"""Embedding of the modal source language into the sorted companion language,
and the standard translation of the sorted language into sorted FOL.

The embedding is a pair of mutually recursive maps: ``translate_bullet``
lands in the sort-1 fragment, ``translate_circle`` in the sort-d fragment.
An implicative subformula can be rendered two semantically equal ways on the
bullet side (through the ternary image operator, or through rspoon); the
``imp`` policy selects one, and the search layer explores both.
"""
from __future__ import annotations

from .syntax import (
    BOX_LETTERS, SORT1, SORTD, SORTED_MEANING, And, AndF, BoxMinus, Bot, Box, Cap,
    Cup, Dia, DiaMinus, DiaVert, DfmlFormula, Eq, Exists, FalseF, FoFormula,
    Forall, Forall2, Imp, ImpF, IVar, Neg, NotF, Or, OrF, PredApp, Prime, PropVar,
    PVar, RelAtom, RSpoon, Sequent, SortedFormula, SortedSequent, SortedVar, STop,
    SBot, TDown, Top, TRight, TrueF, VarNamer, i_atom, sorted_vars, word_rel,
)

IMP_RSPOON = "rspoon"
IMP_TRIGHT = "tright"
BOX_BOXMINUS = "boxminus"
BOX_PRIME = "prime"


def _pp(f: SortedFormula) -> SortedFormula:
    return Prime(Prime(f))


def translate_bullet(f: DfmlFormula, imp: str = IMP_RSPOON,
                     box: str = BOX_BOXMINUS) -> SortedFormula:
    """Sort-1 translation of a modal formula.

    ``imp`` and ``box`` pick between the semantically equal renderings of an
    implicative or boxed subformula (rspoon vs primed triangle; boxminus vs
    primed diamond); the search layer explores the alternatives.
    """
    if isinstance(f, PropVar):
        return _pp(SortedVar(f.index, SORT1))
    if isinstance(f, Top):
        return STop(SORT1)
    if isinstance(f, Bot):
        return SBot(SORT1)
    if isinstance(f, And):
        return Cap(translate_bullet(f.left, imp, box), translate_bullet(f.right, imp, box))
    if isinstance(f, Or):
        return _pp(Cup(translate_bullet(f.left, imp, box), translate_bullet(f.right, imp, box)))
    if isinstance(f, Box):
        if box == BOX_BOXMINUS:
            return BoxMinus(translate_bullet(f.arg, imp, box))
        return Prime(DiaMinus(translate_circle(f.arg, imp, box)))
    if isinstance(f, Dia):
        return _pp(DiaVert(translate_bullet(f.arg, imp, box)))
    if isinstance(f, Neg):
        return Prime(TDown(translate_bullet(f.arg, imp, box)))
    if isinstance(f, Imp):
        if imp == IMP_RSPOON:
            return RSpoon(translate_bullet(f.left, imp, box),
                          translate_bullet(f.right, imp, box))
        return Prime(TRight(translate_bullet(f.left, imp, box),
                            translate_circle(f.right, imp, box)))
    raise TypeError(f"not a modal formula: {f!r}")


def translate_circle(f: DfmlFormula, imp: str = IMP_RSPOON,
                     box: str = BOX_BOXMINUS) -> SortedFormula:
    """Sort-d co-translation of a modal formula."""
    if isinstance(f, PropVar):
        return Prime(SortedVar(f.index, SORT1))
    if isinstance(f, Top):
        return SBot(SORTD)
    if isinstance(f, Bot):
        return STop(SORTD)
    if isinstance(f, And):
        return _pp(Cup(translate_circle(f.left, imp, box), translate_circle(f.right, imp, box)))
    if isinstance(f, Or):
        return Cap(translate_circle(f.left, imp, box), translate_circle(f.right, imp, box))
    if isinstance(f, Box):
        return _pp(DiaMinus(translate_circle(f.arg, imp, box)))
    if isinstance(f, Dia):
        return Prime(DiaVert(translate_bullet(f.arg, imp, box)))
    if isinstance(f, Neg):
        return _pp(TDown(translate_bullet(f.arg, imp, box)))
    if isinstance(f, Imp):
        return _pp(TRight(translate_bullet(f.left, imp, box),
                          translate_circle(f.right, imp, box)))
    raise TypeError(f"not a modal formula: {f!r}")


def translate_sequent(s: Sequent, imp: str = IMP_RSPOON,
                      box: str = BOX_BOXMINUS) -> tuple[SortedSequent, SortedSequent]:
    """The 1-sequent and the dual d-sequent of a modal sequent."""
    one = SortedSequent(SORT1, translate_bullet(s.lhs, imp, box),
                        translate_bullet(s.rhs, imp, box))
    dual = SortedSequent(SORTD, translate_circle(s.rhs, imp, box),
                         translate_circle(s.lhs, imp, box))
    return one, dual


# ---------------------------------------------------------------------------
# Standard translation into sorted FOL
# ---------------------------------------------------------------------------

def fo_neg(f: FoFormula) -> FoFormula:
    """Negation pushed through the connectives (negation normal form)."""
    if isinstance(f, TrueF):
        return FalseF()
    if isinstance(f, FalseF):
        return TrueF()
    if isinstance(f, NotF):
        return f.arg
    if isinstance(f, Eq) and f.t1 == f.t2:
        return FalseF()
    if isinstance(f, AndF):
        return ImpF(f.left, fo_neg(f.right))
    if isinstance(f, OrF):
        return AndF(fo_neg(f.left), fo_neg(f.right))
    if isinstance(f, ImpF):
        return AndF(f.left, fo_neg(f.right))
    if isinstance(f, Forall):
        return Exists(f.var, fo_neg(f.body))
    if isinstance(f, Exists):
        return Forall(f.var, fo_neg(f.body))
    return NotF(f)


def _boxed_word(f: SortedFormula) -> tuple[tuple[str, ...], SortedVar] | None:
    """Match a non-empty chain of box operators ending at a variable."""
    letters: list[str] = []
    while type(f) in BOX_LETTERS:
        letters.append(BOX_LETTERS[type(f)])
        f = f.arg
    if letters and isinstance(f, SortedVar):
        return tuple(letters), f
    return None


def standard_translation(f: SortedFormula, anchor: IVar,
                         namer: VarNamer | None = None,
                         composite_boxes: bool = False) -> FoFormula:
    """First-order meaning of ``f`` at the point named by ``anchor``.

    With ``composite_boxes`` set, a maximal chain of box operators over a
    variable is rendered as a single guarded atom over the composite
    double-dual relation word, the shape the elimination steps work on.
    """
    if anchor.sort != f.sort:
        raise ValueError("anchor sort does not match the formula sort")
    return _st(f, anchor, namer or VarNamer.past(anchor), composite_boxes)


def _st(f: SortedFormula, u: IVar, nm: VarNamer, comp: bool) -> FoFormula:
    if comp:
        m = _boxed_word(f)
        if m:
            letters, var = m
            w = nm.fresh(var.sort)
            return Forall(w, ImpF(RelAtom(word_rel(letters), (u, w)),
                                  PredApp(PVar(var.index, var.sort), w)))
    if isinstance(f, SortedVar):
        return PredApp(PVar(f.index, f.sort), u)
    if isinstance(f, STop):
        return Eq(u, u)
    if isinstance(f, SBot):
        return NotF(Eq(u, u))
    if isinstance(f, Cap):
        return AndF(_st(f.left, u, nm, comp), _st(f.right, u, nm, comp))
    if isinstance(f, Cup):
        return OrF(_st(f.left, u, nm, comp), _st(f.right, u, nm, comp))
    if isinstance(f, Prime):
        v = nm.fresh(f.arg.sort)
        return Forall(v, ImpF(i_atom(u, v), fo_neg(_st(f.arg, v, nm, comp))))
    if type(f) in SORTED_MEANING:
        # a quantifier over a fresh point per argument; the guard is the
        # operator's relation atom and the meaning of each argument but the
        # last, which an existential joins to the last by a conjunction and
        # a universal by an implication
        quant, rel, anchor_first = SORTED_MEANING[type(f)]
        points = [nm.fresh(sort) for sort in f.arg_sorts]
        guard = RelAtom(rel, (u, *points) if anchor_first else (*reversed(points), u))
        for kid, v in zip(f._kids[:-1], points):
            guard = AndF(guard, _st(kid, v, nm, comp))
        body = _st(f._kids[-1], points[-1], nm, comp)
        out = AndF(guard, body) if quant is Exists else ImpF(guard, body)
        for v in reversed(points):
            out = quant(v, out)
        return out
    raise TypeError(f"not a sorted formula: {f!r}")


def so_vars(f: SortedFormula) -> list[PVar]:
    """Second-order variables of the standard translation, in first-occurrence order."""
    return [PVar(v.index, v.sort) for v in sorted_vars(f)]


def second_order_translation(s: SortedSequent) -> FoFormula:
    """Universal closure of ``ST(lhs) -> ST(rhs)`` over all predicate
    variables and the anchor point."""
    anchor = IVar(0, s.sort)
    namer = VarNamer.past(anchor)
    body = ImpF(_st(s.lhs, anchor, namer, False), _st(s.rhs, anchor, namer, False))
    out: FoFormula = Forall(anchor, body)
    for v in reversed(dict.fromkeys(so_vars(s.lhs) + so_vars(s.rhs))):
        out = Forall2(v, out)
    return out
