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
    SORT1, SORTD, And, AndF, BoxD, Box1, BoxMinus, BoxVert, BTDown, Bot, Box,
    Cap, Cup, Dia, DiaMinus, DiaVert, DfmlFormula, Eq, Exists, FalseF,
    FoFormula, Forall, Forall2, Imp, ImpF, IVar, Neg, NotF, Odot, Or, OrF,
    PredApp, Prime, PropVar, PVar, RelAtom, RSpoon, Sequent, SortedFormula,
    SortedSequent, SortedVar, STop, SBot, TDown, Top, TRight, TrueF,
    VarNamer, sorted_vars, word_rel,
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
    cur = f
    while True:
        if isinstance(cur, BoxMinus):
            letters.append("box")
        elif isinstance(cur, BTDown):
            letters.append("neg")
        elif isinstance(cur, BoxVert):
            letters.append("dia")
        else:
            break
        cur = cur.arg
    if letters and isinstance(cur, SortedVar):
        return tuple(letters), cur
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
    namer = namer or VarNamer(next1=anchor.index + 1 if anchor.sort == SORT1 else 0,
                              nextd=anchor.index + 1 if anchor.sort == SORTD else 0)
    return _st(f, anchor, namer, composite_boxes)


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
        v = nm.fresh(SORTD if u.sort == SORT1 else SORT1)
        i_args = (u, v) if u.sort == SORT1 else (v, u)
        return Forall(v, ImpF(RelAtom("I", i_args), fo_neg(_st(f.arg, v, nm, comp))))
    if isinstance(f, DiaVert):
        z = nm.fresh(SORT1)
        return Exists(z, AndF(RelAtom("R_dia", (u, z)), _st(f.arg, z, nm, comp)))
    if isinstance(f, DiaMinus):
        y = nm.fresh(SORTD)
        return Exists(y, AndF(RelAtom("R_box", (u, y)), _st(f.arg, y, nm, comp)))
    if isinstance(f, Box1):
        z = nm.fresh(SORT1)
        return Forall(z, ImpF(RelAtom("R_dia", (z, u)), _st(f.arg, z, nm, comp)))
    if isinstance(f, BoxD):
        y = nm.fresh(SORTD)
        return Forall(y, ImpF(RelAtom("R_box", (y, u)), _st(f.arg, y, nm, comp)))
    if isinstance(f, BoxMinus):
        z = nm.fresh(SORT1)
        return Forall(z, ImpF(RelAtom("R''_box", (u, z)), _st(f.arg, z, nm, comp)))
    if isinstance(f, BoxVert):
        y = nm.fresh(SORTD)
        return Forall(y, ImpF(RelAtom("R''_dia", (u, y)), _st(f.arg, y, nm, comp)))
    if isinstance(f, BTDown):
        y = nm.fresh(SORTD)
        return Forall(y, ImpF(RelAtom("R''_neg", (u, y)), _st(f.arg, y, nm, comp)))
    if isinstance(f, TDown):
        x = nm.fresh(SORT1)
        return Exists(x, AndF(RelAtom("R_neg", (u, x)), _st(f.arg, x, nm, comp)))
    if isinstance(f, Odot):
        x = nm.fresh(SORT1)
        z = nm.fresh(SORT1)
        return Exists(x, Exists(z, AndF(AndF(RelAtom("R111", (u, x, z)),
                                             _st(f.left, x, nm, comp)),
                                        _st(f.right, z, nm, comp))))
    if isinstance(f, TRight):
        x = nm.fresh(SORT1)
        y = nm.fresh(SORTD)
        return Exists(x, Exists(y, AndF(AndF(RelAtom("T", (u, x, y)),
                                             _st(f.left, x, nm, comp)),
                                        _st(f.right, y, nm, comp))))
    if isinstance(f, RSpoon):
        x = nm.fresh(SORT1)
        z = nm.fresh(SORT1)
        return Forall(x, Forall(z, ImpF(AndF(RelAtom("R111", (z, x, u)),
                                             _st(f.left, x, nm, comp)),
                                        _st(f.right, z, nm, comp))))
    raise TypeError(f"not a sorted formula: {f!r}")


def so_vars(f: SortedFormula) -> list[PVar]:
    """Second-order variables of the standard translation, in first-occurrence order."""
    return [PVar(v.index, v.sort) for v in sorted_vars(f)]


def second_order_translation(s: SortedSequent) -> FoFormula:
    """Universal closure of ``ST(lhs) -> ST(rhs)`` over all predicate
    variables and the anchor point."""
    anchor = IVar(0, s.sort)
    namer = VarNamer(next1=1 if s.sort == SORT1 else 0,
                     nextd=1 if s.sort == SORTD else 0)
    body = ImpF(_st(s.lhs, anchor, namer, False), _st(s.rhs, anchor, namer, False))
    out: FoFormula = Forall(anchor, body)
    seen: list[PVar] = []
    for v in so_vars(s.lhs) + so_vars(s.rhs):
        if v not in seen:
            seen.append(v)
    for v in reversed(seen):
        out = Forall2(v, out)
    return out
