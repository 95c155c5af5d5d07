import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from dfmlcorr.syntax import (
    SORT1, SORTD, And, Bot, Box, BoxMinus, BoxVert, BTDown, Box1, BoxD, Cap,
    Cup, Dia, DiaMinus, DiaVert, Eq, FalseF, Forall, ImpF, IVar, Imp, Neg,
    Odot, Or, ParseError, Positivity, Prime, PropVar, RSpoon, RelAtom,
    Sequent, SortError, SortedVar, STop, SBot, TDown, TRight, Top, dfml_to_text,
    fo_to_text, parse_dfml, parse_dfml_formula, parse_fo, parse_sorted,
    parse_sorted_sequent, positive_occurrences, sorted_to_text,
    _INTERNED, children, flip, occurrences, rspoon_free, shape,
)

P = SortedVar(0, SORT1)
Q = SortedVar(1, SORT1)
Pd = SortedVar(0, SORTD)


# -- parsing the modal language ---------------------------------------------

def test_parse_box_t():
    assert parse_dfml("box p |- p") == Sequent(Box(PropVar(0)), PropVar(0))


def test_parse_kleene_negation():
    s = parse_dfml("p /\\ neg p |- q \\/ neg q")
    assert s == Sequent(And(PropVar(0), Neg(PropVar(0))),
                        Or(PropVar(1), Neg(PropVar(1))))


def test_parse_contraction():
    s = parse_dfml("p -> (p -> q) |- p -> q")
    p0, q0 = PropVar(0), PropVar(1)
    assert s == Sequent(Imp(p0, Imp(p0, q0)), Imp(p0, q0))


def test_imp_right_associative():
    assert parse_dfml_formula("p -> q -> p") == \
        Imp(PropVar(0), Imp(PropVar(1), PropVar(0)))


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_dfml("box p |- $")
    assert e.value.pos == 9


def test_unknown_token():
    with pytest.raises(ParseError):
        parse_dfml("blorp |- p")


# -- printing ----------------------------------------------------------------

def test_print_box():
    assert dfml_to_text(Box(PropVar(0))) == "box p0"


def test_print_primed_diamond():
    f = Prime(DiaVert(Prime(Pd)))
    assert sorted_to_text(f) == "(diav P^0')'"


def test_print_fo_quantified():
    f = Forall(IVar(0, SORTD),
               ImpF(RelAtom("I", (IVar(0, SORT1), IVar(0, SORTD))), FalseF()))
    assert fo_to_text(f) == "forall_d y0. (x0 I y0 -> false)"


# -- round-trips --------------------------------------------------------------

def dfml_trees(depth=4):
    leaves = st.sampled_from([PropVar(0), PropVar(1), PropVar(2), Top(), Bot()])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Imp(*t)),
            children.map(Box), children.map(Dia), children.map(Neg),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def sorted_trees():
    leaf1 = st.sampled_from([SortedVar(0, SORT1), SortedVar(1, SORT1), STop(SORT1), SBot(SORT1)])
    leafd = st.sampled_from([SortedVar(0, SORTD), SortedVar(2, SORTD), STop(SORTD), SBot(SORTD)])

    def build(sort, depth):
        if depth == 0:
            return leaf1 if sort == SORT1 else leafd
        sub = lambda s: build(s, depth - 1)
        if sort == SORT1:
            return st.one_of(
                leaf1,
                st.tuples(sub(SORT1), sub(SORT1)).map(lambda t: Cap(*t)),
                st.tuples(sub(SORT1), sub(SORT1)).map(lambda t: Cup(*t)),
                sub(SORTD).map(Prime),
                sub(SORT1).map(DiaVert), sub(SORT1).map(Box1),
                sub(SORT1).map(BoxMinus), sub(SORTD).map(BTDown),
                st.tuples(sub(SORT1), sub(SORT1)).map(lambda t: Odot(*t)),
                st.tuples(sub(SORT1), sub(SORT1)).map(lambda t: RSpoon(*t)),
            )
        return st.one_of(
            leafd,
            st.tuples(sub(SORTD), sub(SORTD)).map(lambda t: Cap(*t)),
            st.tuples(sub(SORTD), sub(SORTD)).map(lambda t: Cup(*t)),
            sub(SORT1).map(Prime),
            sub(SORTD).map(DiaMinus), sub(SORTD).map(BoxD),
            sub(SORTD).map(BoxVert), sub(SORT1).map(TDown),
            st.tuples(sub(SORT1), sub(SORTD)).map(lambda t: TRight(*t)),
        )

    return st.one_of(build(SORT1, 3), build(SORTD, 3))


@given(dfml_trees())
@settings(max_examples=200)
def test_dfml_round_trip(f):
    assert parse_dfml_formula(dfml_to_text(f)) == f


@given(sorted_trees())
@settings(max_examples=300)
def test_sorted_round_trip(f):
    assert parse_sorted(sorted_to_text(f)) == f


@given(sorted_trees())
@settings(max_examples=100)
def test_sorted_sort_total(f):
    assert f.sort in (SORT1, SORTD)


def test_sorted_sequent_round_trip():
    s = parse_sorted_sequent("boxm P0'' |-1 P0''")
    assert str(s) == "boxm P0'' |-1 P0''"
    d = parse_sorted_sequent("P0' |-d (diam P0')''")
    assert str(d) == "P0' |-d (diam P0')''"


def test_ill_sorted_rejected():
    with pytest.raises(SortError):
        DiaVert(Pd)                       # needs a sort-1 argument
    with pytest.raises(SortError):
        Cap(P, Pd)                        # mixed sorts
    with pytest.raises(SortError):
        TRight(Pd, Pd)                    # left argument must be sort 1
    with pytest.raises(ParseError):
        parse_sorted("diav P^0")          # same, via the parser


def test_fo_round_trip_examples():
    for text in [
        "x0 R''_box x0",
        "forall_d y0. (x0 I y0 -> false)",
        "forall_1 P0. (forall_1 x0. (P0(x0) -> P0(x0)))",
        "exists_1 x1. (exists_1 x2. (R111(x0, x1, x2) /\\ x0 <= x1 /\\ x0 <= x2))",
        "~(x0 = x0) \\/ true",
        "x0 R''_box.neg y0",
        "T(y0, x0, y1) -> T'(x0, x1, y0)",
    ]:
        f = parse_fo(text)
        assert parse_fo(fo_to_text(f)) == f


def test_fo_rejects_a_variable_under_its_binders_other_name():
    """``v`` and ``y1`` name one variable; using both inside one binder's
    scope must fail, not merge two bound variables into one."""
    for text in ["forall_d v. forall_d y1. (v <= y1)",
                 "forall_d v. (v <= y1)",
                 "exists_1 x1. (z <= x1)",
                 "forall_1 u. (x0 <= x2)"]:
        with pytest.raises(ParseError):
            parse_fo(text)
    # disjoint scopes, and the same spelling throughout, still parse
    f = parse_fo("(forall_d v. (x0 I v)) /\\ (forall_d y1. (x0 I y1))")
    assert f.left == f.right
    assert parse_fo("forall_d v. (forall_d v. (v <= v))") == \
        parse_fo("forall_d y1. (forall_d y1. (y1 <= y1))")


# -- positivity ---------------------------------------------------------------

def test_positive_two_primes():
    f = Prime(Prime(DiaVert(P)))
    assert positive_occurrences(f, P) is Positivity.ALL_POSITIVE


def test_negative_single_prime():
    f = Prime(DiaVert(P))
    assert positive_occurrences(f, P) is Positivity.MIXED


def test_absent():
    f = BoxMinus(Q)
    assert positive_occurrences(f, P) is Positivity.ABSENT


def test_positivity_rejects_rspoon():
    with pytest.raises(SortError):
        positive_occurrences(RSpoon(P, Q), P)


@given(sorted_trees().filter(lambda f: f.sort == SORT1))
@settings(max_examples=150)
def test_positivity_stable_under_double_prime(f):
    try:
        before = positive_occurrences(f, P)
    except SortError:
        return
    if before is Positivity.ALL_POSITIVE:
        assert positive_occurrences(Prime(Prime(f)), P) is Positivity.ALL_POSITIVE


def fo_trees():
    x = [IVar(i, SORT1) for i in range(3)]
    y = [IVar(i, SORTD) for i in range(3)]
    from dfmlcorr.syntax import (AndF, Exists, Forall2, Leq, NotF, OrF,
                                 PredApp, PVar, TrueF)

    atoms = st.sampled_from([
        TrueF(), FalseF(),
        Eq(x[0], x[1]), Eq(y[0], y[0]),
        Leq(x[0], x[2]), Leq(y[1], y[0]),
        RelAtom("I", (x[0], y[0])),
        RelAtom("R_dia", (x[1], x[0])),
        RelAtom("R_box", (y[0], y[1])),
        RelAtom("R_neg", (y[0], x[0])),
        RelAtom("R''_box", (x[0], x[1])),
        RelAtom("R''_box.neg", (x[0], y[1])),
        RelAtom("T", (y[0], x[0], y[1])),
        RelAtom("R111", (x[0], x[1], x[2])),
        RelAtom("T'", (x[0], x[1], y[0])),
        PredApp(PVar(0, SORT1), x[0]),
        PredApp(PVar(1, SORTD), y[1]),
    ])

    def extend(children):
        quant_vars = st.sampled_from(x + y)
        pred_vars = st.sampled_from([PVar(0, SORT1), PVar(1, SORTD)])
        return st.one_of(
            children.map(NotF),
            st.tuples(children, children).map(lambda t: AndF(*t)),
            st.tuples(children, children).map(lambda t: OrF(*t)),
            st.tuples(children, children).map(lambda t: ImpF(*t)),
            st.tuples(quant_vars, children).map(lambda t: Forall(*t)),
            st.tuples(quant_vars, children).map(lambda t: Exists(*t)),
            st.tuples(pred_vars, children).map(lambda t: Forall2(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=10)


@given(fo_trees())
@settings(max_examples=250)
def test_fo_round_trip_random(f):
    assert parse_fo(fo_to_text(f)) == f


# -- interned sorted nodes -----------------------------------------------------

def test_equal_constructions_are_one_object():
    a = Cap(Prime(DiaMinus(Pd)), BoxMinus(Q))
    b = Cap(left=Prime(arg=DiaMinus(Pd)), right=BoxMinus(SortedVar(index=1, sort=SORT1)))
    assert a is b
    assert Cap(Prime(DiaMinus(Pd)), right=BoxMinus(Q)) is a
    assert SortedVar(0, sort=SORT1) is P
    assert parse_sorted("(diam P^0)' cap boxm Q") is a
    assert Cap(P, Q) is not Cap(Q, P)
    for bad in (lambda: Cap(P, left=Q), lambda: Cap(P, middle=Q), lambda: Cap(P),
                lambda: Cap(P, Q, Q), lambda: SortedVar(0, SORT1, extra=1)):
        with pytest.raises(TypeError):
            bad()


def test_copies_and_pickles_are_the_interned_node():
    f = parse_sorted("(P0 tright P^1)' cup top")
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, Pd]) == [f, Pd]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f


def test_bad_sort_adds_nothing_to_the_table():
    one, dual = SortedVar(40, SORT1), SortedVar(41, SORTD)
    before = len(_INTERNED)
    with pytest.raises(SortError):
        Cap(one, dual)
    with pytest.raises(SortError):
        TDown(dual)
    with pytest.raises(SortError):
        SortedVar(42, "x")
    assert (Cap, one, dual) not in _INTERNED
    assert (TDown, dual) not in _INTERNED
    assert (SortedVar, 42, "x") not in _INTERNED
    assert len(_INTERNED) <= before


def test_table_entry_dies_with_the_node():
    v = SortedVar(987_654, SORTD)
    f = BoxVert(Prime(Prime(v)))
    refs = [weakref.ref(v), weakref.ref(f)]
    assert _INTERNED[(SortedVar, 987_654, SORTD)] is v
    del v, f
    gc.collect()
    assert all(r() is None for r in refs)
    assert (SortedVar, 987_654, SORTD) not in _INTERNED
    assert not any(987_654 in {getattr(n, "index", None) for n in occurrences(node)}
                   for node in list(_INTERNED.values()))


def _reference_sort(f):
    if isinstance(f, (Cap, Cup)):
        return _reference_sort(f.left)
    if isinstance(f, Prime):
        return flip(_reference_sort(f.arg))
    if isinstance(f, (SortedVar, STop, SBot)):
        return f.sort
    return type(f).sort


def _reference_occurrences(f):
    if isinstance(f, SortedVar):
        return [f]
    return [v for name in f._subs for v in _reference_occurrences(getattr(f, name))]


def _reference_depths(f, above=0):
    if isinstance(f, SortedVar):
        return [above]
    if isinstance(f, Prime):
        return _reference_depths(f.arg, above + 1)
    return [d for name in f._subs for d in _reference_depths(getattr(f, name))]


def _reference_shape(f):
    if isinstance(f, SortedVar):
        return SortedVar(0, f.sort)
    return type(f)(*[_reference_shape(getattr(f, name)) for name in f._subs]) if f._subs else f


def _drawn_formulas():
    from test_semantics import sorted_formulas     # which imports this module
    return st.one_of(sorted_formulas(SORT1, 4), sorted_formulas(SORTD, 4))


@given(f=st.deferred(_drawn_formulas))
@settings(max_examples=300, deadline=None)
def test_cached_facts_match_fresh_computation(f):
    for node in [f] + [getattr(f, name) for name in f._subs]:
        assert node.sort == _reference_sort(node)
        assert children(node) == tuple(getattr(node, name) for name in node._subs)
        assert occurrences(node) == tuple(_reference_occurrences(node))
        assert node._depths == tuple(_reference_depths(node))
        assert rspoon_free(node) == ("rspoon" not in sorted_to_text(node))
        assert shape(node) is _reference_shape(node)
        assert shape(shape(node)) is shape(node)
