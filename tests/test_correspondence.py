import itertools

import pytest

from dfmlcorr.correspondence import (
    BoxedAtom, Decomposition, beta_apply, compute_correspondent, decompose,
    eliminate, guarded_translation, minimal_instantiation, simplify_f3,
    t_invariance,
)
from dfmlcorr.reduction import parse_inequality_system
from dfmlcorr.semantics import (
    correspondence_oracle, enumerate_frames, eval_fo, kripke_frame,
)
from dfmlcorr.syntax import (
    SORT1, SORTD, IVar, PredApp, PVar, VarNamer, fo_alpha_eq, parse_dfml,
    parse_fo, TrueF,
)


def system(text):
    return parse_inequality_system(text)


# -- invariance guards -----------------------------------------------------------

def test_t_invariance_empty():
    assert t_invariance([]) == TrueF()


def test_t_invariance_sort1():
    got = t_invariance([PVar(0, SORT1)], VarNamer())
    want = parse_fo(
        "forall_1 u. ((forall_d v. (u I v -> (exists_1 x9. (x9 I v /\\ P0(x9))))) -> P0(u))")
    assert fo_alpha_eq(got, want)


def test_t_invariance_sortd():
    got = t_invariance([PVar(1, SORTD)], VarNamer())
    want = parse_fo(
        "forall_d y. ((forall_1 z. (z I y -> (exists_d v. (z I v /\\ P^1(v))))) -> P^1(y))")
    assert fo_alpha_eq(got, want)


# -- guarded second-order translation -----------------------------------------------

def test_guarded_dia_t():
    g = guarded_translation(system("P0'' <=1 P0 | P0 <=1 (diav P0)''"))
    want = parse_fo(
        "forall_1 P0. (forall_1 x0. ("
        "(forall_1 u. ((forall_d v. (u I v -> (exists_1 x9. (x9 I v /\\ P0(x9))))) -> P0(u)))"
        " /\\ P0(x0) -> "
        "(forall_d y1. (x0 I y1 -> (exists_1 z. (z I y1 /\\ "
        "(exists_1 x4. (z R_dia x4 /\\ P0(x4)))))))))")
    assert fo_alpha_eq(g.to_formula(), want)


def test_guarded_box_t():
    g = guarded_translation(system("P0'' <=1 P0 | boxm P0 <=1 P0"))
    want = parse_fo(
        "forall_1 P0. (forall_1 x0. ("
        "(forall_1 u. ((forall_d v. (u I v -> (exists_1 x9. (x9 I v /\\ P0(x9))))) -> P0(u)))"
        " /\\ (forall_1 z. (x0 R''_box z -> P0(z))) -> P0(x0)))")
    assert fo_alpha_eq(g.to_formula(), want)


def test_guarded_s4_diamond():
    g = guarded_translation(system("P^1 =d P0' | boxv P^1 <=d boxv boxv P^1"))
    assert g.anchor == IVar(0, SORTD)
    assert [p for p, c in g.so_vars if c] == [PVar(1, SORTD)]
    want_consequent = parse_fo(
        "forall_d v. (y0 R''_dia v -> (forall_d y9. (v R''_dia y9 -> P^1(y9))))")
    assert fo_alpha_eq(g.consequent, want_consequent)


def test_guarded_requires_canonical():
    with pytest.raises(ValueError):
        guarded_translation(system("| boxm P0'' <=1 P0''"))


# -- decomposition --------------------------------------------------------------------

def test_decompose_atom_only():
    g = guarded_translation(system("P0'' <=1 P0 | P0 <=1 (diav P0)''"))
    d = decompose(g)
    assert d.prenex_vars == ()
    assert d.rel == ()
    assert d.boxed == ()
    assert [a.var for a in d.at] == [PVar(0, SORT1)]


def test_decompose_k1_shape():
    g = guarded_translation(system(
        "P0'' <=1 P0, P1'' <=1 P1 | diav P0 cap boxm P1 <=1 (diav (P0 cap P1))''"))
    d = decompose(g)
    assert len(d.prenex_vars) == 1
    assert len(d.rel) == 1 and d.rel[0].rel == "R_dia"
    assert [a.var for a in d.at] == [PVar(0, SORT1)]
    assert d.boxed == (BoxedAtom(IVar(0, SORT1), ("box",), PVar(1, SORT1)),)


def test_decompose_boxed_word():
    g = guarded_translation(system("P^1 =d P0' | boxv boxv P^1 <=d P^1"))
    d = decompose(g)
    assert d.boxed == (BoxedAtom(IVar(0, SORTD), ("dia", "dia"), PVar(1, SORTD)),)


def test_decompose_bottom_antecedent():
    g = guarded_translation(system("| bot <=1 P0"))
    d = decompose(g)
    assert d.antecedent_false


# -- minimal instantiation ---------------------------------------------------------------

def _decomp(at=(), boxed=()):
    return Decomposition((), (), tuple(at), tuple(boxed), TrueF())


def test_lambda_single_atom():
    p = PVar(0, SORT1)
    d = _decomp(at=[PredApp(p, IVar(0, SORT1))])
    lam = minimal_instantiation(d, p, constrained=True, namer=VarNamer(9, 9))
    assert fo_alpha_eq(beta_apply(lam, IVar(5, SORT1), VarNamer(20, 20)),
                       parse_fo("x0 <= x5"))


def test_lambda_single_boxed():
    p = PVar(0, SORT1)
    d = _decomp(boxed=[BoxedAtom(IVar(0, SORT1), ("box",), p)])
    lam = minimal_instantiation(d, p, constrained=True, namer=VarNamer(9, 9))
    assert fo_alpha_eq(beta_apply(lam, IVar(5, SORT1), VarNamer(20, 20)),
                       parse_fo("x0 R''_box x5"))


def test_lambda_unconstrained_two_atoms():
    q = PVar(1, SORT1)
    d = _decomp(at=[PredApp(q, IVar(2, SORT1)), PredApp(q, IVar(3, SORT1))])
    lam = minimal_instantiation(d, q, constrained=False, namer=VarNamer(9, 9))
    assert fo_alpha_eq(beta_apply(lam, IVar(5, SORT1), VarNamer(20, 20)),
                       parse_fo("x5 = x2 \\/ x5 = x3"))


def test_lambda_constrained_two_atoms_closure_form():
    p = PVar(0, SORT1)
    d = _decomp(at=[PredApp(p, IVar(2, SORT1)), PredApp(p, IVar(3, SORT1))])
    lam = minimal_instantiation(d, p, constrained=True, namer=VarNamer(9, 9))
    assert fo_alpha_eq(
        beta_apply(lam, IVar(5, SORT1), VarNamer(20, 20)),
        parse_fo("forall_d y9. (x5 I y9 -> x2 I y9 \\/ x3 I y9)"))


def test_lambda_needs_occurrences():
    with pytest.raises(ValueError):
        minimal_instantiation(_decomp(), PVar(0, SORT1), True)


def test_lambda_constrained_long_word_uses_closure():
    p = PVar(0, SORT1)
    d = _decomp(boxed=[BoxedAtom(IVar(0, SORT1), ("box", "box"), p)])
    lam = minimal_instantiation(d, p, constrained=True, namer=VarNamer(9, 9))
    assert fo_alpha_eq(
        beta_apply(lam, IVar(5, SORT1), VarNamer(20, 20)),
        parse_fo("forall_d y. (x5 I y -> (exists_1 z. (z I y /\\ x0 R''_box.box z)))"))


def test_lambda_minimality_on_frames():
    """The constrained lambda denotes a stable set containing the witnesses
    and contained in every stable set that does."""
    p = PVar(0, SORT1)
    witness = IVar(2, SORT1)
    d = _decomp(at=[PredApp(p, witness)])
    lam = minimal_instantiation(d, p, constrained=True, namer=VarNamer(9, 9))
    for fr in itertools.islice(enumerate_frames(3, 2, ()), 20):
        for w in range(fr.n1):
            denoted = 0
            for s in range(fr.n1):
                if eval_fo(fr, lam.body, {lam.param: s, witness: w}):
                    denoted |= 1 << s
            assert fr.close1(denoted) == denoted
            assert denoted & (1 << w)
            for stable in fr.stable1:
                if stable & (1 << w):
                    assert denoted & ~stable == 0


# -- elimination ------------------------------------------------------------------------

def test_pipeline_box_t():
    res = compute_correspondent(parse_dfml("box p |- p"))
    assert fo_alpha_eq(res.primary.formula, parse_fo("x0 R''_box x0"))


def test_pipeline_s4_diamond():
    res = compute_correspondent(parse_dfml("dia dia p |- dia p"))
    want = parse_fo("forall_d v. (y0 R''_dia v -> "
                    "(forall_d y9. (v R''_dia y9 -> y0 R''_dia y9)))")
    assert res.primary.thread == "cotranslation"
    assert fo_alpha_eq(res.primary.formula, want)


def test_pipeline_contraction():
    """The translation thread eliminates P0 from ``P0 <= P0 odot P0`` by its
    minimal instantiation, leaving the ternary relation on the up-set of x0."""
    res = compute_correspondent(parse_dfml("p -> (p -> q) |- p -> q"))
    c = next(c for c in res.correspondents if c.thread == "translation")
    want = parse_fo("exists_1 u. (exists_1 z. (R111(x0, u, z) /\\ x0 <= u /\\ x0 <= z))")
    assert fo_alpha_eq(c.formula, want)


def test_consequent_only_variable_becomes_false():
    res = compute_correspondent(parse_dfml("p |- q \\/ p"))
    # valid everywhere: the correspondent must hold at every point of small frames
    for fr in itertools.islice(enumerate_frames(2, 2, ()), 10):
        for w in range(fr.n1):
            assert eval_fo(fr, res.primary.formula, {res.primary.anchor: w})


def test_discharged_conjuncts_evaluate_true():
    """Substituting the chosen instantiations into the guard, atom and boxed
    conjuncts yields sentences true on every sampled frame."""
    from dfmlcorr.syntax import AndF, Forall
    from test_translation import free_ivars
    for text in ("box p |- p", "p |- dia p", "dia p /\\ box q |- dia (p /\\ q)"):
        res = compute_correspondent(parse_dfml(text))
        c = res.primary
        g, inst = c.guarded, c.instantiations
        d = decompose(g)

        def subst(f):
            from dfmlcorr.syntax import children, rebuild, FalseF, Exists, Forall2
            if isinstance(f, PredApp):
                return beta_apply(inst[f.var], f.arg, g.namer) if f.var in inst else FalseF()
            if isinstance(f, (Forall, Exists, Forall2)):
                return rebuild(f, [subst(f.body)])
            return rebuild(f, [subst(k) for k in children(f)])

        conjuncts = [subst(g.t_inv)]
        conjuncts += [subst(b) for b in _boxed_formulas(g)]
        for fr in itertools.islice(
                enumerate_frames(2, 2, ("Rdia", "Rbox"), require=("F1", "F2", "F3")), 15):
            for f in conjuncts:
                free = sorted(free_ivars(f), key=lambda v: (v.sort, v.index))
                doms = [range(fr.n1 if v.sort == SORT1 else fr.nd) for v in free]
                for combo in itertools.product(*doms):
                    assert eval_fo(fr, f, dict(zip(free, combo)))


def _boxed_formulas(g):
    from dfmlcorr.syntax import AndF, Exists

    out = []

    def walk(f):
        if isinstance(f, AndF):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Exists):
            walk(f.body)
        else:
            from dfmlcorr.correspondence import _as_boxed
            if _as_boxed(f) is not None:
                out.append(f)

    walk(g.antecedent)
    return out


# -- monotonicity simplification -----------------------------------------------------------

def test_f3_pattern_decreasing():
    f = parse_fo("exists_1 u. (v R_neg u /\\ x0 <= u)")
    assert fo_alpha_eq(simplify_f3(f), parse_fo("v R_neg x0"))


def test_f3_pattern_increasing():
    f = parse_fo("exists_1 u. (u R_dia x1 /\\ u <= x0)")
    assert fo_alpha_eq(simplify_f3(f), parse_fo("x0 R_dia x1"))


def test_f3_no_match_unchanged():
    f = parse_fo("exists_1 u. (x0 R''_box u /\\ x0 <= u)")  # derived relation: no rewrite
    assert simplify_f3(f) == f
    g = parse_fo("exists_1 u. (x1 R_dia u /\\ x0 <= u /\\ P0(u))")  # extra conjunct
    assert simplify_f3(g) == g


def test_f3_dia_t_correspondent():
    res = compute_correspondent(parse_dfml("p |- dia p"), assume_f3=True)
    want = parse_fo("forall_d v. (x0 I v -> (exists_1 z. (z I v /\\ z R_dia x0)))")
    assert fo_alpha_eq(res.primary.f3_formula, want)


def test_f3_simplification_preserves_truth_on_f3_frames():
    s = parse_dfml("p |- dia p")
    res = compute_correspondent(s, assume_f3=True)
    c = res.primary
    for fr in itertools.islice(
            enumerate_frames(2, 2, ("Rdia",), require=("F1", "F2", "F3")), 40):
        for w in range(fr.n1):
            assert eval_fo(fr, c.formula, {c.anchor: w}) == \
                eval_fo(fr, c.f3_formula, {c.anchor: w})


def test_f3_simplification_can_change_truth_without_f3():
    """Witness that the simplified form is not equivalent in general.

    On separated frames without the smoothness axiom a difference shows up
    already at 2+2 (on separated-and-smooth frames no difference was found
    at desk scale, so the monotonicity axiom that licenses the rewrite is
    over-sufficient there; the witness below still documents that the
    rewrite is not a logical equivalence).
    """
    s = parse_dfml("p |- dia p")
    res = compute_correspondent(s, assume_f3=True)
    c = res.primary
    witnesses = 0
    for fr in itertools.islice(enumerate_frames(2, 2, ("Rdia",), require=("F1",)), 4000):
        if fr.check_axioms(("F3",))["F3"][0]:
            continue
        for w in range(fr.n1):
            if eval_fo(fr, c.formula, {c.anchor: w}) != eval_fo(fr, c.f3_formula, {c.anchor: w}):
                witnesses += 1
                break
    assert witnesses > 0


def test_pos_positivity_asserted():
    g = guarded_translation(system("P0'' <=1 P0 | P0 <=1 (diav P0)''"))
    for p, _ in g.so_vars:
        from dfmlcorr.correspondence import fo_positive_in
        assert fo_positive_in(g.consequent, p)


# -- constant premisses and consequents --------------------------------------------

def test_trivial_correspondents_for_constants():
    for text in ("bot |- p", "p |- top", "top |- top"):
        res = compute_correspondent(parse_dfml(text))
        assert fo_alpha_eq(res.primary.formula, parse_fo("x0 = x0")), text


def test_top_premiss_consequent_only_variable():
    """A consequent-only variable is replaced by the empty predicate: the
    correspondent asserts membership in the closed bottom."""
    res = compute_correspondent(parse_dfml("top |- p"))
    want = parse_fo("forall_d y. (x0 I y -> (exists_1 z. (z I y /\\ false)))")
    assert fo_alpha_eq(res.primary.formula, want)
    from dfmlcorr.semantics import local_validity
    for fr in itertools.islice(enumerate_frames(2, 2, ()), 40):
        for w in range(fr.n1):
            assert eval_fo(fr, res.primary.formula, {res.primary.anchor: w}) == \
                local_validity(fr, parse_dfml("top |- p"), w)


def test_bottom_consequent_exact_on_quasi_serial_frames():
    """The sorted bottom is the empty set while the modal bottom is its
    closure; the two coincide exactly on quasi-serial frames, so that is
    where the correspondent for a bottom consequent is pointwise exact."""
    res = compute_correspondent(parse_dfml("p |- bot"))
    from dfmlcorr.semantics import local_validity
    s = parse_dfml("p |- bot")
    for fr in itertools.islice(enumerate_frames(2, 2, (), require=("F0", "F1", "F2")), 40):
        for w in range(fr.n1):
            assert eval_fo(fr, res.primary.formula, {res.primary.anchor: w}) == \
                local_validity(fr, s, w)
