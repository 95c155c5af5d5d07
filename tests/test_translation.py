import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dfmlcorr.corpus import CORPUS
from dfmlcorr.semantics import (
    FiniteFrame, compile_fo, enumerate_frames, frame_to_json, frame_validity,
    kripke_frame, model_check_dfml, model_check_sorted,
)
from dfmlcorr.syntax import (
    SORT1, SORTD, Bot, Box, Box1, BoxD, BoxMinus, BoxVert, BTDown, Dia,
    DiaMinus, DiaVert, IVar, PropVar, SortedVar, TDown, Top, dfml_vars,
    Eq, Exists, Forall, PredApp, RelAtom, children, fo_alpha_eq, parse_dfml,
    parse_fo, parse_sorted, parse_sorted_sequent, VarNamer,
)
from dfmlcorr.translation import (
    second_order_translation, standard_translation, translate_bullet,
    translate_circle, translate_sequent,
)

from test_semantics import corpus_frames
from test_syntax import dfml_trees, parse_dfml_formula


def free_ivars(f):
    """The individual variables free in first-order formula ``f``."""
    if isinstance(f, RelAtom):
        return set(f.args)
    if isinstance(f, Eq):
        return {f.t1, f.t2}
    if isinstance(f, PredApp):
        return {f.arg}
    if isinstance(f, (Forall, Exists)):
        return free_ivars(f.body) - {f.var}
    return set().union(*map(free_ivars, children(f)))


def bullet(text):
    return translate_bullet(parse_dfml_formula(text))


def circle(text):
    return translate_circle(parse_dfml_formula(text))


# -- translation table --------------------------------------------------------

def test_bullet_dia():
    assert bullet("dia p") == parse_sorted("(diav P0'')''")


def test_bullet_top():
    assert bullet("top") == parse_sorted("top")


def test_bullet_box():
    assert bullet("box p") == parse_sorted("boxm P0''")


def test_circle_var():
    assert circle("p") == parse_sorted("P0'")


def test_circle_box():
    assert circle("box p") == parse_sorted("(diam P0')''")


def test_circle_bot():
    assert circle("bot") == parse_sorted("top^")


def test_sequent_box_t():
    one, dual = translate_sequent(parse_dfml("box p |- p"))
    assert one == parse_sorted_sequent("boxm P0'' |-1 P0''")
    assert dual == parse_sorted_sequent("P0' |-d (diam P0')''")


def test_sequent_dia_t():
    one, dual = translate_sequent(parse_dfml("p |- dia p"))
    assert one == parse_sorted_sequent("P0'' |-1 (diav P0'')''")
    assert dual == parse_sorted_sequent("(diav P0'')' |-d P0'")


def test_sequent_dia_4():
    one, dual = translate_sequent(parse_dfml("dia dia p |- dia p"))
    assert one == parse_sorted_sequent("(diav (diav P0'')'')'' |-1 (diav P0'')''")
    assert dual == parse_sorted_sequent("(diav P0'')' |-d (diav (diav P0'')'')'")


@given(dfml_trees())
@settings(max_examples=100)
def test_translation_sorts(f):
    assert translate_bullet(f).sort == SORT1
    assert translate_circle(f).sort == SORTD


# -- standard translation ------------------------------------------------------

def test_st_boxminus():
    got = standard_translation(parse_sorted("boxm P0"), IVar(0, SORT1))
    assert fo_alpha_eq(got, parse_fo("forall_1 z. (x0 R''_box z -> P0(z))"))


def test_st_prime():
    got = standard_translation(parse_sorted("P^0'"), IVar(0, SORT1))
    assert fo_alpha_eq(got, parse_fo("forall_d v. (x0 I v -> ~P^0(v))"))


def test_st_tright():
    got = standard_translation(parse_sorted("P0 tright P^0"), IVar(0, SORTD))
    assert fo_alpha_eq(got, parse_fo(
        "exists_1 x1. (exists_d y1. (T(y0, x1, y1) /\\ P0(x1) /\\ P^0(y1)))"))


@pytest.mark.parametrize("op, arg_sort, text", [
    (DiaVert, SORT1, "exists_1 x1. (x0 R_dia x1 /\\ P0(x1))"),
    (DiaMinus, SORTD, "exists_d y1. (y0 R_box y1 /\\ P^0(y1))"),
    (Box1, SORT1, "forall_1 x1. (x1 R_dia x0 -> P0(x1))"),
    (BoxD, SORTD, "forall_d y1. (y1 R_box y0 -> P^0(y1))"),
    (BoxMinus, SORT1, "forall_1 x1. (x0 R''_box x1 -> P0(x1))"),
    (BoxVert, SORTD, "forall_d y1. (y0 R''_dia y1 -> P^0(y1))"),
    (TDown, SORT1, "exists_1 x0. (y0 R_neg x0 /\\ P0(x0))"),
    (BTDown, SORTD, "forall_d y0. (x0 R''_neg y0 -> P^0(y0))"),
], ids=lambda x: getattr(x, "__name__", None))
def test_st_unary_operator_text(op, arg_sort, text):
    """The printed standard translation of each unary operator over a
    variable, at the anchor of index 0."""
    f = op(SortedVar(0, arg_sort))
    assert str(standard_translation(f, IVar(0, f.sort))) == text


def test_st_free_variables():
    anchor = IVar(0, SORT1)
    got = standard_translation(parse_sorted("(diav P0'')''"), anchor)
    assert free_ivars(got) == {anchor}


def test_second_order_box():
    got = second_order_translation(parse_sorted_sequent("boxm P0 |-1 P0"))
    want = parse_fo("forall_1 P0. (forall_1 x0. "
                    "((forall_1 z. (x0 R''_box z -> P0(z))) -> P0(x0)))")
    assert fo_alpha_eq(got, want)


def test_second_order_top():
    got = second_order_translation(parse_sorted_sequent("top |-1 top"))
    assert fo_alpha_eq(got, parse_fo("forall_1 x0. (x0 = x0 -> x0 = x0)"))


def test_second_order_boxvert():
    got = second_order_translation(parse_sorted_sequent("boxv P^1 |-d P^1"))
    want = parse_fo("forall_d P^1. (forall_d y0. "
                    "((forall_d v. (y0 R''_dia v -> P^1(v))) -> P^1(y0)))")
    assert fo_alpha_eq(got, want)


# -- full abstraction ----------------------------------------------------------

def _sample_frames():
    yield kripke_frame(2, r_dia=[(0, 1)], r_box=[(1, 0)], r_neg=[(0, 0)])
    yield FiniteFrame(
        ["a0", "a1"], ["b0", "b1"],
        i_rel=[("a0", "b0"), ("a1", "b1")],
        r_dia=[("a0", "a0"), ("a1", "a0")],
        r_box=[("b0", "b0"), ("b0", "b1"), ("b1", "b0")],
        r_neg=[("b0", "a0"), ("b0", "a1"), ("b1", "a1")],
        t_rel=[("b0", "a0", "b0"), ("b0", "a0", "b1"), ("b0", "a1", "b0"),
               ("b1", "a0", "b0"), ("b1", "a1", "b1")])
    # Quasi-seriality (F0) keeps the empty set Galois, which the constant
    # clauses of the translation need; without it the sorted bottom and the
    # closed modal bottom come apart.
    for fr in itertools.islice(
            enumerate_frames(2, 2, ("Rdia", "Rbox", "Rneg", "T"),
                             require=("F0", "F1", "F2"), sample=80, seed=7), 12):
        yield fr


def _formulas():
    return [
        "p", "top", "bot", "p /\\ q", "p \\/ q", "box p", "dia p", "neg p",
        "p -> q", "dia (p /\\ q)", "box p \\/ neg q", "neg neg p",
        "p -> (p -> q)", "box (p -> q)",
    ]


def test_full_abstraction_values():
    """The translation's value equals the modal value under the closed
    valuation, which also equals the polar of the co-translation's value."""
    for fr in _sample_frames():
        for text in _formulas():
            f = parse_dfml_formula(text)
            b = translate_bullet(f)
            c = translate_circle(f)
            var_ids = sorted(set(dfml_vars(f)))
            for masks in itertools.product(range(fr.full1 + 1), repeat=len(var_ids)):
                sval = {SortedVar(i, SORT1): m for i, m in zip(var_ids, masks)}
                mval = {i: fr.close1(m) for i, m in zip(var_ids, masks)}
                got_b = model_check_sorted(fr, sval, b)
                got_c = model_check_sorted(fr, sval, c)
                want, want_co = model_check_dfml(fr, mval, f)
                assert got_b == want, (text, masks)
                assert got_c == want_co, (text, masks)
                assert fr.polar(SORTD, got_c) == want, (text, masks)


def test_full_abstraction_sequent_validity():
    """Three-way equivalence: the 1-sequent, the modal sequent under the
    closed valuation, and the dual d-sequent validate together."""
    for fr in _sample_frames():
        for lt, rt in [("p", "dia p"), ("box p", "p"), ("p /\\ neg p", "bot"),
                       ("p", "q -> p"), ("dia dia p", "dia p")]:
            s = parse_dfml(f"{lt} |- {rt}")
            one, dual = translate_sequent(s)
            var_ids = sorted(set(dfml_vars(s.lhs)) | set(dfml_vars(s.rhs)))
            for masks in itertools.product(range(fr.full1 + 1), repeat=len(var_ids)):
                sval = {SortedVar(i, SORT1): m for i, m in zip(var_ids, masks)}
                mval = {i: fr.close1(m) for i, m in zip(var_ids, masks)}
                v_one = not (model_check_sorted(fr, sval, one.lhs)
                             & ~model_check_sorted(fr, sval, one.rhs))
                v_dual = not (model_check_sorted(fr, sval, dual.lhs)
                              & ~model_check_sorted(fr, sval, dual.rhs))
                lv, _ = model_check_dfml(fr, mval, s.lhs)
                rv, _ = model_check_dfml(fr, mval, s.rhs)
                v_mod = not (lv & ~rv)
                assert v_one == v_mod == v_dual


def test_st_residual_boxes_use_converse_atoms():
    got = standard_translation(parse_sorted("box1 P0"), IVar(0, SORT1))
    assert fo_alpha_eq(got, parse_fo("forall_1 z. (z R_dia x0 -> P0(z))"))
    got = standard_translation(parse_sorted("boxd P^0"), IVar(0, SORTD))
    assert fo_alpha_eq(got, parse_fo("forall_d v. (v R_box y0 -> P^0(v))"))


def test_st_rspoon_clause():
    got = standard_translation(parse_sorted("P0 rspoon P1"), IVar(0, SORT1))
    want = parse_fo("forall_1 x1. (forall_1 x2. "
                    "(R111(x2, x1, x0) /\\ P0(x1) -> P1(x2)))")
    assert fo_alpha_eq(got, want)


# -- a second semantic route: frame validity against the second-order translation --

def _translation_disagreements(text):
    """(frames, those on which the 1-sequent's and on which the d-sequent's
    second-order translation disagree with ``frame_validity``), over the
    sequent's frames up to 2+2.  ``compile_fo`` evaluates the translations;
    it equals ``eval_fo`` (``test_compile_fo_matches_eval_fo``) and is faster."""
    s = parse_dfml(text)
    halves = [compile_fo(second_order_translation(half)) for half in translate_sequent(s)]
    frames = corpus_frames(s)
    bad = [[fr for fr in frames if frame_validity(fr, s) != half(fr, ())] for half in halves]
    return frames, bad[0], bad[1]


def test_second_order_translation_agrees_with_frame_validity():
    """Every corpus sequent is valid on exactly the frames up to 2+2 on
    which both halves of its translation hold, bar the gap pinned below."""
    for entry in CORPUS:
        frames, bad1, badd = _translation_disagreements(entry.sequent)
        assert frames and not badd, entry.name
        if entry.name != "pseudo-complement":
            assert not bad1, entry.name


def test_bot_and_top_translation_gap_witnessed():
    """``translate_bullet`` sends ``bot`` to the empty sort-1 set, but its
    value is the polar of the full sort-d carrier, which holds every point
    with no I-edge; ``translate_circle`` likewise sends ``top`` to the empty
    sort-d set, but the co-interpretation of ``top`` is the polar of the
    full sort-1 carrier.  On frames with an edgeless point the translation
    therefore misreads the sequent: pseudo-complement's 1-sequent on 20 of
    its 124 frames up to 2+2, and the d-sequent of ``top |- p`` on 1 of 16,
    both first on the 1+1 frame with empty I."""
    empty_i = {"version": 1, "z1": ["a0"], "zd": ["b0"], "I": [], "Rdia": [],
               "Rbox": [], "Rneg": [], "T": []}
    frames, bad1, badd = _translation_disagreements("p /\\ neg p |- bot")
    assert (len(frames), len(bad1), len(badd)) == (124, 20, 0)
    assert frame_to_json(bad1[0]) == empty_i
    frames, bad1, badd = _translation_disagreements("top |- p")
    assert (len(frames), len(bad1), len(badd)) == (16, 0, 1)
    assert frame_to_json(badd[0]) == empty_i
    fr = FiniteFrame(["a0"], ["b0"], validate=False)
    assert model_check_dfml(fr, {}, Bot())[0] == fr.polard(fr.fulld) == 1
    assert model_check_sorted(fr, {}, translate_bullet(Bot())) == 0
    assert model_check_dfml(fr, {}, Top())[1] == fr.polar1(fr.full1) == 1
    assert model_check_sorted(fr, {}, translate_circle(Top())) == 0
