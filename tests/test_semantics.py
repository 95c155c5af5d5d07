import itertools
import json
import random
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from dfmlcorr.corpus import CORPUS
from dfmlcorr.correspondence import compute_correspondent
from dfmlcorr.reduction import (
    ChangeOfVariables, FormalInequality, InequalitySystem, applicable_moves,
)
from dfmlcorr.semantics import (
    MAX_SORT_SIZE, FiniteFrame, FrameSizeError, FrameValidationError, bits,
    compile_dfml, compile_fo, compile_sorted, correspondence_oracle,
    enumerate_frames, eval_fo, frame_to_json, kripke_frame, load_frame,
    local_validity, model_check_dfml, model_check_sorted, relations_needed,
    separated_i_masks, system_equivalence_witness, system_holds,
    system_relations_needed, system_valuations,
)
from dfmlcorr.syntax import (
    REL_SIG, SORT1, SORTD, AndF, BoxD, BoxMinus, BoxVert, BTDown, Box1, Cap,
    Cup, DiaMinus, DiaVert, Eq, Exists, FalseF, Forall, Forall2, ImpF, IVar,
    NotF, Odot, OrF, PredApp, Prime, PVar, RelAtom, RSpoon, SBot, STop,
    SortedVar, TDown, TRight, TrueF, flip, parse_dfml,
    parse_dfml_formula, parse_fo, parse_sorted, rel_signature, sorted_vars,
    word_rel,
)

from test_syntax import dfml_trees


def polarity_frame(**kw):
    """A fixed separated, smooth 2+2 frame with every relation inhabited."""
    base = dict(
        z1=["a0", "a1"], zd=["b0", "b1"],
        i_rel=[("a0", "b0"), ("a1", "b1")],
        r_dia=[("a0", "a0"), ("a1", "a0")],
        r_box=[("b0", "b0"), ("b0", "b1"), ("b1", "b0")],
        r_neg=[("b0", "a0"), ("b0", "a1"), ("b1", "a1")],
        t_rel=[("b0", "a0", "b0"), ("b0", "a0", "b1"), ("b0", "a1", "b0"),
               ("b1", "a0", "b0"), ("b1", "a1", "b1")])
    base.update(kw)
    return FiniteFrame(**base)


def skew_frame():
    """Separated, smooth, and with a genuinely non-trivial closure: the
    singleton over the second point closes to the whole carrier."""
    return FiniteFrame(["a0", "a1"], ["b0", "b1"],
                       i_rel=[("a0", "b0"), ("a1", "b0"), ("a1", "b1")])


def sample_frames(n=10, rels=("Rdia", "Rbox", "Rneg", "T"), sizes=((2, 2), (2, 3), (3, 2)),
                  require=("F1", "F2"), seed=11):
    out = []
    per = max(1, n // len(sizes))
    for n1, nd in sizes:
        out.extend(itertools.islice(
            enumerate_frames(n1, nd, rels, require=require, sample=300, seed=seed), per))
    return out


# -- the polarity ---------------------------------------------------------------

def test_polar_empty_is_full():
    fr = polarity_frame()
    assert fr.polar1(0) == fr.fulld
    assert fr.polard(0) == fr.full1


def test_polar_full_total_i():
    fr = kripke_frame(1)  # I = identity on one point is total
    assert fr.polar1(fr.full1) == 0


def test_polar_triple_law():
    for fr in sample_frames(6):
        for u in range(fr.full1 + 1):
            assert fr.polar1(fr.close1(u)) == fr.polar1(u)


def test_galois_laws():
    rng = random.Random(0)
    for fr in sample_frames(9):
        for _ in range(20):
            u = rng.randrange(fr.full1 + 1)
            v = rng.randrange(fr.full1 + 1)
            assert u & ~fr.close1(u) == 0                       # U <= U''
            assert fr.polar1(u | v) == fr.polar1(u) & fr.polar1(v)


def test_stable_sets_kripke_all_subsets():
    fr = kripke_frame(3)
    assert fr.stable1 == list(range(8))
    assert fr.stabled == list(range(8))


def test_full_carrier_stable():
    for fr in sample_frames(6):
        assert fr.full1 in fr.stable1
        assert fr.fulld in fr.stabled


def test_stable_sets_brute_force():
    """Closing every subset by the plain two-step definition gives the same
    lattice the cached tables produce."""
    for fr in (polarity_frame(), skew_frame()):
        brute = set()
        for m in range(fr.full1 + 1):
            outer = 0
            for y in range(fr.nd):
                if all(not ((fr.irow[x] >> y) & 1) for x in bits(m)):
                    outer |= 1 << y
            inner = 0
            for x in range(fr.n1):
                if all(not ((fr.irow[x] >> y) & 1) for y in bits(outer)):
                    inner |= 1 << x
            brute.add(inner)
        assert sorted(brute) == fr.stable1


# -- derived relations -----------------------------------------------------------

def brute_double_duals(fr):
    """Independent computation straight from the defining chains, using sets
    of pairs rather than the frame's cached bitmask rows."""
    def polar1(us):
        return {y for y in range(fr.nd) if all((x, y) not in fr.i_rel for x in us)}

    def polard(vs):
        return {x for x in range(fr.n1) if all((x, y) not in fr.i_rel for y in vs)}

    rddia = set()
    for y in range(fr.nd):
        yprime = {z for z in range(fr.n1)
                  if y in polar1({u for u, zz in fr.r_dia if zz == z})}
        for v in polar1(yprime):
            rddia.add((y, v))
    rdbox = set()
    for x in range(fr.n1):
        xprime = {y for y in range(fr.nd)
                  if x in polard({w for w, yy in fr.r_box if yy == y})}
        for z in polard(xprime):
            rdbox.add((x, z))
    rdneg = set()
    for z in range(fr.n1):
        zprime = {x for x in range(fr.n1)
                  if z in polard({y for y, xx in fr.r_neg if xx == x})}
        for y in polar1(zprime):
            rdneg.add((z, y))
    r111 = set()
    for z in range(fr.n1):
        for x in range(fr.n1):
            section = {v for v in range(fr.nd)
                       if x in polard({y for y, zz, vv in fr.t_rel
                                       if zz == z and vv == v})}
            for w in polard(section):
                r111.add((w, z, x))
    return rddia, rdbox, rdneg, r111


def test_double_duals_against_definition():
    for fr in sample_frames(8):
        rddia, rdbox, rdneg, r111 = brute_double_duals(fr)
        assert rddia == {(y, v) for y in range(fr.nd) for v in bits(fr.rddia[y])}
        assert rdbox == {(x, z) for x in range(fr.n1) for z in bits(fr.rdbox[x])}
        assert rdneg == {(z, y) for z in range(fr.n1) for y in bits(fr.rdneg[z])}
        assert r111 == {(w, z, x) for z in range(fr.n1) for x in range(fr.n1)
                        for w in bits(fr.r111[z][x])}


def test_double_duals_kripke_collapse():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
            fr = kripke_frame(n, r_dia=pairs, r_box=pairs, r_neg=pairs)
            # double duals equal the base relations
            for y in range(n):
                assert {v for v in bits(fr.rddia[y])} == {v for w, v in pairs if w == y}
            for x in range(n):
                assert {z for z in bits(fr.rdbox[x])} == {z for w, z in pairs if w == x}
                assert {z for z in bits(fr.rdneg[x])} == {z for w, z in pairs if w == x}


def test_rdbox_sections_stable():
    for fr in sample_frames(8):
        for x in range(fr.n1):
            assert fr.close1(fr.rdbox[x]) == fr.rdbox[x]


# -- axioms -----------------------------------------------------------------------

def test_kripke_passes_f1_f2():
    fr = kripke_frame(2, r_dia=[(0, 1)])
    report = fr.check_axioms(("F1", "F2"))
    assert all(ok for ok, _ in report.values())


def test_f1_failure_witness():
    with pytest.raises(FrameValidationError):
        FiniteFrame(["a0", "a1"], ["b0"], i_rel=[("a0", "b0"), ("a1", "b0")])
    fr = FiniteFrame(["a0", "a1"], ["b0"], i_rel=[("a0", "b0"), ("a1", "b0")],
                     validate=False)
    ok, why = fr.check_axioms(("F1",))["F1"]
    assert not ok and "a0" in why and "a1" in why


def test_f0_failure_on_empty_row():
    fr = FiniteFrame(["a0", "a1"], ["b0", "b1"], i_rel=[("a0", "b0"), ("a1", "b1")],
                     validate=False)
    fr2 = FiniteFrame(["a0", "a1"], ["b0", "b1"], i_rel=[("a0", "b0"), ("a0", "b1")],
                      validate=False)
    assert fr.check_axioms(("F0",))["F0"][0]
    assert not fr2.check_axioms(("F0",))["F0"][0]


def test_size_error():
    with pytest.raises(FrameSizeError):
        FiniteFrame([f"a{i}" for i in range(6)], ["b0"])


# -- complex algebra ---------------------------------------------------------------

def test_box_of_full_is_full_on_f0():
    for fr in sample_frames(8, require=("F0", "F1", "F2")):
        assert fr.lbminus(fr.full1) == fr.full1


def test_diamond_normality():
    for fr in sample_frames(8):
        bottom = fr.close1(0)
        assert fr.close1(fr.ldvert(bottom)) == fr.close1(fr.ldvert(0)) or True
        assert fr.close1(fr.ldvert(0)) == fr.close1(0) or fr.ldvert(0) == 0


def test_interaction_identities():
    """Both routes to each closed operator agree on all stable arguments."""
    for fr in sample_frames(10):
        for a in fr.stable1:
            # box via the double dual equals the Galois dual of the diamond
            assert fr.lbminus(a) == fr.polard(fr.ldminus(fr.polar1(a)))
            # quasi-complement: (tdown A)' = btdown A'
            assert fr.polard(fr.ltdown(a)) == fr.lbtdown(fr.polar1(a))
        for b in fr.stabled:
            assert fr.lbvert(b) == fr.polar1(fr.ldvert(fr.polard(b)))
        for a in fr.stable1:
            for c in fr.stable1:
                # implication: (A tright C')' agrees with the residual
                assert fr.polard(fr.ltright(a, fr.polar1(c))) == fr.imp_t(a, c)


def test_residuation_units():
    rng = random.Random(2)
    for fr in sample_frames(8):
        for _ in range(12):
            u = rng.randrange(fr.full1 + 1)
            v = rng.randrange(fr.full1 + 1)
            assert v & ~fr.imp_t(u, fr.lodot(u, v)) == 0     # V <= U => (U . V)
            assert fr.lodot(u, fr.imp_t(u, v)) & ~v == 0     # U . (U => V) <= V
            w = rng.randrange(fr.full1 + 1)
            assert (fr.lodot(u, v) & ~w == 0) == (v & ~fr.imp_t(u, w) == 0)
            # the diamond residuals
            assert (fr.ldvert(u) & ~v == 0) == (u & ~fr.bbox1(v) == 0)


def test_box_diamond_adjunction_identities():
    for fr in sample_frames(8):
        for a in fr.stable1:
            assert fr.ldvert(fr.bbox1(a)) & ~a == 0
            assert a & ~fr.bbox1(fr.ldvert(a)) == 0
        for b in fr.stabled:
            assert fr.ldminus(fr.bboxd(b)) & ~b == 0
            assert b & ~fr.bboxd(fr.ldminus(b)) == 0


def test_closed_operators_distribute_over_joins():
    """On smooth frames the closed image operators turn binary joins of
    stable sets into joins."""
    for fr in sample_frames(10):
        for a in fr.stable1:
            for c in fr.stable1:
                join = fr.close1(a | c)
                lhs = fr.close1(fr.ldvert(join))
                rhs = fr.close1(fr.ldvert(a) | fr.ldvert(c))
                assert lhs == rhs
        for b in fr.stabled:
            for dd in fr.stabled:
                join = fr.closed(b | dd)
                assert fr.closed(fr.ldminus(join)) == fr.closed(fr.ldminus(b) | fr.ldminus(dd))


# -- model checking ----------------------------------------------------------------

def test_dfml_top_and_var():
    fr = polarity_frame()
    val = {0: fr.stable1[-1]}
    v, co = model_check_dfml(fr, val, parse_dfml_formula("top"))
    assert v == fr.full1
    v, co = model_check_dfml(fr, val, parse_dfml_formula("p"))
    assert v == val[0] and co == fr.polar1(val[0])


def test_dfml_box_two_routes():
    for fr in sample_frames(10):
        for a in fr.stable1:
            v, _ = model_check_dfml(fr, {0: a}, parse_dfml_formula("box p"))
            assert v == fr.polard(fr.ldminus(fr.polar1(a)))


def test_dfml_rejects_unstable_valuation():
    fr = skew_frame()
    unstable = next(m for m in range(fr.full1 + 1) if fr.close1(m) != m)
    with pytest.raises(ValueError):
        model_check_dfml(fr, {0: unstable}, parse_dfml_formula("p"))


def test_sorted_prime_is_polar():
    fr = polarity_frame()
    for m in range(fr.full1 + 1):
        got = model_check_sorted(fr, {SortedVar(0, SORT1): m}, parse_sorted("P0'"))
        assert got == fr.polar1(m)


def test_sorted_boxminus_uses_double_dual():
    fr = polarity_frame()
    for m in range(fr.full1 + 1):
        got = model_check_sorted(fr, {SortedVar(0, SORT1): m}, parse_sorted("boxm P0"))
        assert got == fr.lbminus(m)


def test_sorted_missing_variable():
    fr = polarity_frame()
    with pytest.raises(KeyError):
        model_check_sorted(fr, {}, parse_sorted("P0"))


# -- first-order evaluation ----------------------------------------------------------

def test_eval_identity():
    fr = polarity_frame()
    x = IVar(0, SORT1)
    assert eval_fo(fr, parse_fo("x0 = x0"), {x: 0})


def test_eval_reflexive_double_dual():
    fr = kripke_frame(2, r_box=[(0, 0), (1, 1)])
    f = parse_fo("x0 R''_box x0")
    assert all(eval_fo(fr, f, {IVar(0, SORT1): w}) for w in range(2))


def test_eval_unassigned_variable():
    fr = polarity_frame()
    with pytest.raises(KeyError):
        eval_fo(fr, parse_fo("x0 = x0"), {})


def test_second_order_quantifier_unfolds_over_all_subsets():
    fr = polarity_frame()
    # exists a subset refuting this: forall_1 P0. forall x0. P0(x0) is false
    f = parse_fo("forall_1 P0. (forall_1 x0. (P0(x0)))")
    assert not eval_fo(fr, f)
    g = parse_fo("forall_1 P0. (forall_1 x0. (P0(x0) -> P0(x0)))")
    assert eval_fo(fr, g)


def test_eval_composite_word():
    fr = kripke_frame(3, r_box=[(0, 1), (1, 2)], r_neg=[(0, 0), (1, 1), (2, 2)])
    f = parse_fo("x0 R''_box.neg y1")
    # box step 0->1, neg step 1->1
    assert eval_fo(fr, f, {IVar(0, SORT1): 0, IVar(1, SORTD): 1})
    assert not eval_fo(fr, f, {IVar(0, SORT1): 0, IVar(1, SORTD): 2})


# -- validity and the oracle -----------------------------------------------------------

def test_local_validity_trivial():
    fr = polarity_frame()
    for w in range(fr.n1):
        assert local_validity(fr, parse_dfml("top |- top"), w)
        assert local_validity(fr, parse_dfml("p |- p"), w)


def test_local_validity_box_t_witness():
    fr = kripke_frame(2, r_box=[(0, 1)])
    s = parse_dfml("box p |- p")
    assert not local_validity(fr, s, 0)   # irreflexive point refutes box-T


def test_oracle_agreement_and_corruption():
    fr = kripke_frame(2, r_box=[(0, 0), (1, 1)])
    s = parse_dfml("box p |- p")
    corr = parse_fo("x0 R''_box x0")
    assert correspondence_oracle(fr, s, IVar(0, SORT1), corr) is None
    assert correspondence_oracle(fr, s, IVar(0, SORT1), NotF(corr)) is not None


def test_system_equivalence_witness_machinery():
    from dfmlcorr.reduction import parse_inequality_system
    fr = polarity_frame()
    s1 = parse_inequality_system("P0'' <=1 P0 | boxm P0 <=1 P0")
    assert system_equivalence_witness(fr, s1, s1) is None
    s2 = parse_inequality_system("P0'' <=1 P0 | P0 <=1 boxm P0")
    # equivalent systems would need box-T to be frame-independent; expect a witness
    # on at least one small frame
    frames = sample_frames(10, rels=("Rbox",), sizes=((2, 2),))
    assert any(system_equivalence_witness(f, s1, s2) is not None for f in frames)


def chain_system(length, main=None):
    """A system whose changes of variable form one chain P0 -> ... -> P<length>,
    listed newest-first; its main inequality is ``main(v)``, by default
    ``v <= v``, for the chain's last variable ``v``."""
    vs = [SortedVar(i, SORT1 if i % 2 == 0 else SORTD) for i in range(length + 1)]
    cvc = [ChangeOfVariables(vs[i + 1], vs[i]) for i in reversed(range(length))]
    last = vs[-1]
    ineq = FormalInequality(last.sort, last, last) if main is None else main(last)
    return InequalitySystem((), tuple(cvc), ineq, length + 1)


def test_long_reverse_listed_change_of_variable_chain_resolves():
    fr = kripke_frame(2)
    sys = chain_system(12)
    vals = list(system_valuations(fr, (sys,)))
    assert len(vals) == 4                       # one per subset of the free P0
    for val in vals:
        assert list(val)[0] == SortedVar(0, SORT1)
        for c in sys.cvc:
            assert val[c.var] == fr.polar(c.source.sort, val[c.source])
    # a main inequality that fails for some value of the chain's end is told apart
    failing = chain_system(12, lambda v: FormalInequality(v.sort, STop(v.sort), v))
    assert system_equivalence_witness(fr, sys, failing) is not None


def test_change_of_variable_cycle_has_no_valuations():
    fr = kripke_frame(2)
    a, b = SortedVar(1, SORT1), SortedVar(2, SORTD)
    sys = InequalitySystem((), (ChangeOfVariables(a, b), ChangeOfVariables(b, a)),
                           FormalInequality(SORT1, a, a), 3)
    assert list(system_valuations(fr, (sys,))) == []


# -- the compiled checker against the interpreter ------------------------------------

_UNARY = {DiaVert: (SORT1, SORT1), DiaMinus: (SORTD, SORTD), Box1: (SORT1, SORT1),
          BoxD: (SORTD, SORTD), BoxMinus: (SORT1, SORT1), BoxVert: (SORTD, SORTD),
          TDown: (SORT1, SORTD), BTDown: (SORTD, SORT1)}
_BINARY = {Odot: (SORT1, SORT1, SORT1), RSpoon: (SORT1, SORT1, SORT1),
           TRight: (SORT1, SORTD, SORTD)}


@lru_cache(maxsize=None)
def sorted_formulas(sort, depth):
    """Well-sorted formulas of ``sort`` over every node type, nested at most ``depth``."""
    leaves = st.one_of(st.integers(0, 2).map(lambda i: SortedVar(i, sort)),
                       st.sampled_from([STop(sort), SBot(sort)]))
    if depth == 0:
        return leaves
    sub = lambda s: sorted_formulas(s, depth - 1)
    nodes = [leaves,
             st.builds(Cap, sub(sort), sub(sort)),
             st.builds(Cup, sub(sort), sub(sort)),
             st.builds(Prime, sub(flip(sort)))]
    nodes += [st.builds(kind, sub(arg)) for kind, (arg, res) in _UNARY.items() if res == sort]
    nodes += [st.builds(kind, sub(left), sub(right))
              for kind, (left, right, res) in _BINARY.items() if res == sort]
    return st.one_of(nodes)


@st.composite
def separated_frames(draw):
    """A separated frame with random relations; the carriers differ in size
    so that a binary table indexed with the wrong sort's size is caught."""
    n1, nd = draw(st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2)]))
    z1 = [f"a{i}" for i in range(n1)]
    zd = [f"b{i}" for i in range(nd)]
    i_rows = draw(st.sampled_from(list(separated_i_masks(n1, nd))))

    def some(pairs):
        return draw(st.lists(st.sampled_from(pairs), unique=True))

    fr = FiniteFrame(
        z1, zd, validate=False,
        i_rel=[(z1[x], zd[y]) for x in range(n1) for y in bits(i_rows[x])],
        r_dia=some([(a, b) for a in z1 for b in z1]),
        r_box=some([(a, b) for a in zd for b in zd]),
        r_neg=some([(a, b) for a in zd for b in z1]),
        t_rel=some([(a, b, c) for a in zd for b in z1 for c in zd]))
    assert fr.check_axioms(("F1",))["F1"][0]
    return fr


@given(fr=separated_frames(), sort=st.sampled_from([SORT1, SORTD]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_compile_sorted_matches_model_check_sorted(fr, sort, data):
    f = data.draw(sorted_formulas(sort, 4))
    vs = sorted_vars(f)
    val = {v: data.draw(st.integers(0, fr.full1 if v.sort == SORT1 else fr.fulld))
           for v in vs}
    slots = {v: i for i, v in enumerate(reversed(vs))}
    row = [val[v] for v in reversed(vs)]
    assert compile_sorted(f, slots)(fr, row) == model_check_sorted(fr, val, f)


def test_compile_sorted_rejects_unknown_nodes_and_variables():
    with pytest.raises(TypeError):
        compile_sorted(IVar(0, SORT1), {})
    with pytest.raises(KeyError):
        compile_sorted(DiaVert(SortedVar(3, SORT1)), {SortedVar(0, SORT1): 0})


def reference_valuations(fr, systems):
    """The valuations as first specified: free variables in first-occurrence
    order, then the change-of-variable targets resolved in passes until a
    pass makes no progress."""
    vs, stb, cvc = [], set(), []
    for sys in systems:
        for f in (sys.main.lhs, sys.main.rhs):
            vs += [v for v in sorted_vars(f) if v not in vs]
        for c in sys.stb:
            stb.add(c.var)
            vs += [c.var] if c.var not in vs else []
        for c in sys.cvc:
            cvc.append((c.var, c.source))
            vs += [v for v in (c.var, c.source) if v not in vs]
    free = [v for v in vs if v not in {t for t, _ in cvc}]
    spaces = [fr.stable_sets(v.sort) if v in stb else
              range((fr.full1 if v.sort == SORT1 else fr.fulld) + 1) for v in free]
    for combo in itertools.product(*spaces):
        val, ok, pending = dict(zip(free, combo)), True, cvc
        while pending:
            rest = [(t, s) for t, s in pending if s not in val]
            for t, s in pending:
                if s in val:
                    want = fr.polar(s.sort, val[s])
                    ok = ok and val.get(t, want) == want
                    val[t] = want
            if len(rest) == len(pending):
                break
            pending = rest
        if ok and not pending:
            yield val


def test_witness_is_first_reference_disagreement_on_corpus_steps():
    """On every separated+smooth frame up to 2+1 and 1+2, for every trace
    step of the corpus: the valuations are the reference ones, in order and
    with keys in order, and the witness is the first on which the
    interpreter tells the two systems apart."""
    t0 = time.perf_counter()
    steps = {}
    for entry in CORPUS:
        for c in compute_correspondent(parse_dfml(entry.sequent)).correspondents:
            for step in c.trace:
                steps.setdefault(str(step.before) + str(step.after), step)
    families = {}
    witnessed = 0
    for step in steps.values():
        rels = system_relations_needed(step.before, step.after)
        if rels not in families:
            families[rels] = [fr for n1, nd in ((1, 1), (1, 2), (2, 1))
                              for fr in enumerate_frames(n1, nd, rels)]
        for fr in families[rels]:
            systems = (step.before, step.after)
            want = list(reference_valuations(fr, systems))
            assert [list(v.items()) for v in system_valuations(fr, systems)] == \
                [list(v.items()) for v in want]
            first = next((v for v in want if system_holds(fr, step.before, v)
                          != system_holds(fr, step.after, v)), None)
            got = system_equivalence_witness(fr, *systems)
            assert (None if got is None else list(got.items())) == \
                (None if first is None else list(first.items()))
            witnessed += got is not None
    assert len(steps) > 10 and witnessed > 0
    assert time.perf_counter() - t0 < 10.0


# -- kripke collapse ----------------------------------------------------------------

def test_kripke_priming_is_complement():
    fr = kripke_frame(3)
    for m in range(fr.full1 + 1):
        assert fr.polar1(m) == fr.full1 & ~m


# -- frame files ---------------------------------------------------------------------

def test_frame_file_round_trip(tmp_path):
    fr = polarity_frame()
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame_to_json(fr)))
    fr2 = load_frame(str(path))
    assert frame_to_json(fr2) == frame_to_json(fr)


def test_frame_file_unknown_element(tmp_path):
    doc = frame_to_json(polarity_frame())
    doc["Rdia"] = [["a0", "zzz"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FrameValidationError):
        load_frame(str(path))


def test_frame_file_version_check(tmp_path):
    doc = frame_to_json(polarity_frame())
    doc["version"] = 99
    path = tmp_path / "v99.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FrameValidationError):
        load_frame(str(path))


def test_no_validate_skips_axioms(tmp_path):
    doc = {"version": 1, "z1": ["a0", "a1"], "zd": ["b0"],
           "I": [["a0", "b0"], ["a1", "b0"]]}
    path = tmp_path / "sep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FrameValidationError):
        load_frame(str(path))
    fr = load_frame(str(path), validate=False)
    assert not fr.check_axioms(("F1",))["F1"][0]


def test_eval_ternary_dual_atom():
    fr = polarity_frame()
    from dfmlcorr.syntax import parse_fo as pfo
    f = pfo("T'(x0, x1, y0)")
    for x in range(fr.n1):
        for z in range(fr.n1):
            for v in range(fr.nd):
                want = bool(fr.tprime[z][v] & (1 << x))
                assert eval_fo(fr, f, {IVar(0, SORT1): x, IVar(1, SORT1): z,
                                       IVar(0, SORTD): v}) == want


def test_double_duals_public_view():
    fr = polarity_frame()
    dd = fr.double_duals()
    assert dd["R''_box"] == {(x, z) for x in range(fr.n1) for z in bits(fr.rdbox[x])}
    assert ("R''_dia" in dd) and ("R''_neg" in dd) and ("R111" in dd)


def test_kripke_modal_collapse_is_classical():
    """On classical frames the lattice semantics is ordinary modal logic:
    conjunction and disjunction are boolean, box/diamond use the base
    relation, and the weak negation is the relational complement box."""
    rng = random.Random(9)
    for _ in range(10):
        n = rng.choice([2, 3])
        rel = [(rng.randrange(n), rng.randrange(n)) for _ in range(n + 1)]
        fr = kripke_frame(n, r_dia=rel, r_box=rel, r_neg=rel)
        for a in range(1 << n):
            for b in range(1 << n):
                val = {0: a, 1: b}
                full = fr.full1
                got, _ = model_check_dfml(fr, val, parse_dfml_formula("p \\/ q"))
                assert got == a | b
                got, _ = model_check_dfml(fr, val, parse_dfml_formula("p /\\ q"))
                assert got == a & b
                got, _ = model_check_dfml(fr, val, parse_dfml_formula("box p"))
                want = 0
                for w in range(n):
                    if all(not ((w, z) in fr.r_dia) or (a >> z) & 1 for z in range(n)):
                        want |= 1 << w
                assert got == want
                got, _ = model_check_dfml(fr, val, parse_dfml_formula("dia p"))
                want = 0
                for w in range(n):
                    if any((w, z) in fr.r_dia and (a >> z) & 1 for z in range(n)):
                        want |= 1 << w
                assert got == want
                got, _ = model_check_dfml(fr, val, parse_dfml_formula("neg p"))
                want = 0
                for w in range(n):
                    if all(not ((w, z) in fr.r_neg) or not ((a >> z) & 1)
                           for z in range(n)):
                        want |= 1 << w
                assert got == want


# -- the compiled oracle and the shared-polarity enumerator against the references --

_IVARS = [IVar(i, sort) for sort in (SORT1, SORTD) for i in range(3)]
_PVARS = [PVar(i, sort) for sort in (SORT1, SORTD) for i in range(2)]
_RELS = [r for r in REL_SIG if r != "<="] + ["<="] + [
    word_rel(w) for w in (("box", "box"), ("box", "neg"), ("neg", "dia"),
                          ("dia", "dia"), ("box", "neg", "dia"))]


def _atom(rel):
    """Atoms of ``rel`` over the variable pool, with well-sorted arguments."""
    if rel == "<=":
        sorts = st.sampled_from([(SORT1, SORT1), (SORTD, SORTD)])
    else:
        sorts = st.just(rel_signature(rel))
    return sorts.flatmap(lambda sig: st.tuples(
        *(st.sampled_from([v for v in _IVARS if v.sort == s]) for s in sig)
    ).map(lambda args: RelAtom(rel, args)))


@lru_cache(maxsize=None)
def fo_formulas(depth):
    """First-order formulas over every node type, every relation symbol and
    some double-dual words; binders reuse the pool's names, so they shadow."""
    leaves = st.one_of(
        st.sampled_from([TrueF(), FalseF()]),
        st.sampled_from(_IVARS).flatmap(lambda v: st.sampled_from(
            [w for w in _IVARS if w.sort == v.sort]).map(lambda w: Eq(v, w))),
        st.sampled_from(_RELS).flatmap(_atom),
        st.sampled_from(_PVARS).flatmap(lambda p: st.sampled_from(
            [v for v in _IVARS if v.sort == p.sort]).map(lambda v: PredApp(p, v))))
    if depth == 0:
        return leaves
    sub = fo_formulas(depth - 1)
    return st.one_of(
        leaves, sub.map(NotF),
        st.builds(AndF, sub, sub), st.builds(OrF, sub, sub), st.builds(ImpF, sub, sub),
        st.builds(Forall, st.sampled_from(_IVARS), sub),
        st.builds(Exists, st.sampled_from(_IVARS), sub),
        st.builds(Forall2, st.sampled_from(_PVARS), sub))


@given(fr=separated_frames(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_compile_fo_matches_eval_fo(fr, data):
    f = data.draw(fo_formulas(3))
    env = {v: data.draw(st.integers(0, (fr.n1 if v.sort == SORT1 else fr.nd) - 1))
           for v in _IVARS}
    penv = {p: data.draw(st.integers(0, fr.full1 if p.sort == SORT1 else fr.fulld))
            for p in _PVARS}
    free = tuple(_IVARS + _PVARS)
    got = compile_fo(f, free)(fr, [env.get(v, penv.get(v)) for v in free])
    assert got is eval_fo(fr, f, env, penv)


def test_compile_fo_scopes_each_binder():
    """A binder that shadows a variable leaves the outer value in place."""
    fr = kripke_frame(2)
    x0, x1 = IVar(0, SORT1), IVar(1, SORT1)
    for f in (AndF(Forall(x0, TrueF()), Eq(x0, x1)),
              AndF(Exists(x0, NotF(Eq(x0, x1))), Eq(x0, x1)),
              Forall(x0, AndF(Exists(x0, TrueF()), Forall(x1, OrF(Eq(x0, x0), FalseF()))))):
        for a, b in itertools.product(range(2), repeat=2):
            want = eval_fo(fr, f, {x0: a, x1: b})
            assert compile_fo(f, (x0, x1))(fr, (a, b)) is want


def test_compile_fo_unbound_variables_raise_when_evaluated():
    fr = kripke_frame(2)
    x0, y3 = IVar(0, SORT1), IVar(3, SORTD)
    short = OrF(Eq(x0, x0), Eq(y3, y3))          # never reaches y3, like eval_fo
    assert compile_fo(short, (x0,))(fr, (1,)) is eval_fo(fr, short, {x0: 1})
    for f in (Eq(y3, y3), RelAtom("I", (x0, y3)), PredApp(PVar(0, SORT1), x0)):
        with pytest.raises(KeyError):
            eval_fo(fr, f, {x0: 0})
        with pytest.raises(KeyError):
            compile_fo(f, (x0,))(fr, (0,))


@given(fr=separated_frames(), f=dfml_trees(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_compile_dfml_matches_model_check_dfml(fr, f, data):
    var_ids = [0, 1, 2]
    row = [data.draw(st.sampled_from(fr.stable1)) for _ in var_ids]
    want, _ = model_check_dfml(fr, dict(zip(var_ids, row)), f)
    assert compile_dfml(f, var_ids)(fr, row) == want


def test_compile_dfml_constants_at_edgeless_points():
    """``bot`` holds at a point with no I-edge, and ``top``'s
    co-interpretation at such a point of the other sort."""
    fr = FiniteFrame(["a0", "a1"], ["b0", "b1"], i_rel=[("a0", "b0")], validate=False)
    for text in ("bot", "top", "bot /\\ p", "p -> bot", "neg top", "dia bot"):
        f = parse_dfml_formula(text)
        for a in fr.stable1:
            assert compile_dfml(f, [0])(fr, [a]) == model_check_dfml(fr, {0: a}, f)[0]
    assert compile_dfml(parse_dfml_formula("bot"), [])(fr, []) == 0b10


def reference_oracle(fr, s, anchor, corr):
    """The oracle as first specified: per point, every valuation again."""
    names = fr.z1 if anchor.sort == SORT1 else fr.zd
    for w, name in enumerate(names):
        if local_validity(fr, s, w, anchor.sort) != eval_fo(fr, corr, {anchor: w}):
            return name
    return None


def corpus_frames(s, sizes=((1, 1), (1, 2), (2, 1), (2, 2))):
    """Every frame over the sequent's relations at the sizes, or a seeded
    sample of 600 candidates where a size has more than 12 relation bits."""
    rels = relations_needed(s)
    out = []
    for n1, nd in sizes:
        n_bits = sum({"Rdia": n1 * n1, "Rbox": nd * nd, "Rneg": n1 * nd,
                      "T": nd * n1 * nd}[r] for r in rels)
        out += enumerate_frames(n1, nd, rels, sample=None if n_bits <= 12 else 600)
    return out


def test_one_pass_oracle_matches_per_point_reference():
    """For each corpus sequent, on its frames up to 2+2, at both anchor
    sorts: the correspondents, a formula for an anchor sort that none has,
    and their negations (which disagree somewhere) give the reference's
    verdict."""
    generic = {SORT1: (IVar(0, SORT1), parse_fo("exists_d y1. (x0 I y1 /\\ x0 R''_box x0)")),
               SORTD: (IVar(0, SORTD), parse_fo("forall_1 x1. (x1 I y0 -> y0 R''_dia y0)"))}
    checked = disagreements = 0
    for entry in CORPUS:
        s = parse_dfml(entry.sequent)
        formulas = [(c.anchor, c.formula) for c in compute_correspondent(s).correspondents]
        formulas += [generic[sort] for sort in (SORT1, SORTD)
                     if sort not in {anchor.sort for anchor, _ in formulas}]
        formulas += [(anchor, NotF(f)) for anchor, f in formulas]
        assert {anchor.sort for anchor, _ in formulas} == {SORT1, SORTD}
        for fr in corpus_frames(s):
            for anchor, f in formulas:
                want = reference_oracle(fr, s, anchor, f)
                assert correspondence_oracle(fr, s, anchor, f) == want
                checked += 1
                disagreements += want is not None
    assert disagreements and checked - disagreements


def test_oracle_rejects_an_unstable_valuation_value():
    fr = skew_frame()
    s = parse_dfml("p |- p")
    unstable = next(m for m in range(fr.full1 + 1) if fr.close1(m) != m)
    with pytest.raises(ValueError):
        model_check_dfml(fr, {0: unstable}, s.lhs)
    fr.__dict__["stable1"] = [unstable]
    with pytest.raises(ValueError):
        correspondence_oracle(fr, s, IVar(0, SORT1), parse_fo("x0 = x0"))


def reference_enumerate(n1, nd, relations, require=("F1", "F2"), sample=None, seed=0):
    """The enumerator as first specified: every (I-relation, relation bits)
    candidate built by name as a ``FiniteFrame`` and kept when
    ``check_axioms(require)`` passes."""
    z1 = [f"a{i}" for i in range(n1)]
    zd = [f"b{i}" for i in range(nd)]
    spaces = {"Rdia": [(z1[x], z1[z]) for x in range(n1) for z in range(n1)],
              "Rbox": [(zd[w], zd[y]) for w in range(nd) for y in range(nd)],
              "Rneg": [(zd[y], z1[x]) for y in range(nd) for x in range(n1)],
              "T": [(zd[y], z1[x], zd[v]) for y in range(nd) for x in range(n1)
                    for v in range(nd)]}
    kwarg = {"Rdia": "r_dia", "Rbox": "r_box", "Rneg": "r_neg", "T": "t_rel"}
    i_options = list(separated_i_masks(n1, nd))
    total = sum(len(spaces[r]) for r in relations)
    if sample is None:
        combos = [(i, b) for i in i_options for b in range(1 << total)]
    else:
        rng = random.Random(seed)
        combos = [(rng.choice(i_options), rng.getrandbits(total)) for _ in range(sample)]
    for i_rows, rel_bits in combos:
        kwargs = {"i_rel": [(z1[x], zd[y]) for x in range(n1) for y in bits(i_rows[x])]}
        for rel in relations:
            space = spaces[rel]
            kwargs[kwarg[rel]] = [t for k, t in enumerate(space) if rel_bits >> k & 1]
            rel_bits >>= len(space)
        fr = FiniteFrame(z1, zd, validate=False, **kwargs)
        if all(ok for ok, _ in fr.check_axioms(require).values()):
            yield fr


def test_enumerator_matches_reference():
    """The same frames, in the same order, as building and checking every
    candidate: every size up to 2+2 for each relation set of the corpus,
    with and without F3, and F3 without F2 (a seeded sample above 12
    relation bits), and samples at 3+3 over T."""
    rel_sets = sorted({relations_needed(parse_dfml(e.sequent)) for e in CORPUS})
    assert ("Rbox", "Rdia") in rel_sets and ("Rbox", "Rdia", "T") in rel_sets
    cases = []
    for rels in rel_sets + [()]:
        for n1, nd in ((1, 1), (1, 2), (2, 1), (2, 2)):
            n_bits = sum({"Rdia": n1 * n1, "Rbox": nd * nd, "Rneg": n1 * nd,
                          "T": nd * n1 * nd}[r] for r in rels)
            for require in (("F1", "F2"), ("F0", "F1", "F2", "F3"), ("F1", "F3")):
                cases.append((n1, nd, rels, require, None if n_bits <= 12 else 2000, 0))
    cases += [(3, 3, ("T",), ("F1", "F2"), 600, seed) for seed in (0, 1, 2)]
    cases += [(3, 3, ("Rbox", "Rdia", "Rneg", "T"), ("F1", "F2", "F3"), 600, 5)]
    kept = 0
    for n1, nd, rels, require, sample, seed in cases:
        got = [frame_to_json(fr) for fr in enumerate_frames(
            n1, nd, rels, require=require, sample=sample, seed=seed)]
        want = [frame_to_json(fr) for fr in reference_enumerate(
            n1, nd, rels, require=require, sample=sample, seed=seed)]
        assert got == want, (n1, nd, rels, require, sample, seed)
        kept += len(got)
    assert kept > 5000


def test_enumerated_frames_share_immutable_polarity_tables():
    frames = list(enumerate_frames(2, 2, ("Rbox",)))
    first = frames[0]
    for attr in ("irow", "icol", "_polar1_table", "_polard_table", "stable1",
                 "stabled", "up1", "upd"):
        assert isinstance(first.__dict__[attr], (tuple, bytes)), attr
    same_i = [fr for fr in frames if fr.i_rel == first.i_rel]
    assert len(same_i) > 1 and all(fr._polar1_table is first._polar1_table for fr in same_i)
    for fr in frames[:50]:
        rebuilt = FiniteFrame(fr.z1, fr.zd, validate=False, **{
            k: [tuple(p) for p in v] for k, v in (
                ("i_rel", frame_to_json(fr)["I"]), ("r_box", frame_to_json(fr)["Rbox"]))})
        for attr in ("irow", "icol", "_polar1_table", "stable1", "up1", "upd",
                     "rbox_sec", "rpbox", "rdbox"):
            assert list(getattr(fr, attr)) == list(getattr(rebuilt, attr)), attr


def test_enumerator_edge_cases():
    assert list(enumerate_frames(0, 1, ("Rbox",))) == []
    assert list(enumerate_frames(MAX_SORT_SIZE + 1, 1, ())) == []
    with pytest.raises(ValueError):
        list(enumerate_frames(1, 1, ("Rbogus",)))
    with pytest.raises(ValueError):
        list(enumerate_frames(1, 1, ("Rbox",), require=("F9",)))


def test_system_relations_needed_matches_the_printed_operators():
    """On every system of the corpus traces and its one-step fan-out, the
    walk finds the relations whose operators the printed system shows."""
    marks = {"Rbox": ("diam", "boxm", "boxd"), "Rdia": ("diav", "boxv", "box1"),
             "Rneg": ("tdown",), "T": ("odot", "rspoon", "tright")}
    traced = []
    for entry in CORPUS:
        res = compute_correspondent(parse_dfml(entry.sequent))
        for trace in [r.trace for r in res.classification.successes] + \
                [c.trace for c in res.correspondents]:
            traced += [sys for step in trace for sys in (step.before, step.after)]
    systems = dict.fromkeys(traced)
    for sys in traced:
        systems.update(dict.fromkeys(child for _, _, child in applicable_moves(sys)))
    def by_text(*systems):
        text = " ".join(str(sys) for sys in systems)
        return tuple(rel for rel, ops in marks.items() if any(op in text for op in ops))

    seen = set()
    for sys in systems:
        assert system_relations_needed(sys) == by_text(sys), str(sys)
        seen.update(system_relations_needed(sys))
    for a, b in zip(traced, traced[1:]):
        assert system_relations_needed(a, b) == by_text(a, b)
    assert len(systems) > 150 and seen == set(marks)


def test_relations_needed_walks_the_sequent():
    assert relations_needed(parse_dfml("p |- p")) == ()
    assert relations_needed(parse_dfml("dia p /\\ box q |- dia (p /\\ q)")) == ("Rbox", "Rdia")
    assert relations_needed(parse_dfml("neg (p -> q) |- box top")) == ("Rbox", "Rneg", "T")
    for entry in CORPUS:
        text = str(parse_dfml(entry.sequent))
        by_text = tuple(r for r, mark in (("Rbox", "box"), ("Rdia", "dia"),
                                          ("Rneg", "neg"), ("T", "->")) if mark in text)
        assert relations_needed(parse_dfml(entry.sequent)) == by_text
