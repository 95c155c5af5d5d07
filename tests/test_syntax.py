import copy
import dataclasses
import gc
import pickle
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dfmlcorr import semantics, syntax
from dfmlcorr.syntax import (
    SORT1, SORTD, And, AndF, Bot, Box, BoxMinus, BoxVert, BTDown, Box1, BoxD,
    Cap, Cup, Dia, DiaMinus, DiaVert, Eq, FalseF, Forall, ImpF, IVar, Imp,
    Neg, NotF, Odot, Or, OrF, ParseError, Positivity, PredApp, Prime, PropVar,
    PVar, RSpoon, RelAtom, Sequent, SortError, SortedVar, STop, SBot, TDown,
    TRight, Top, TrueF, MAX_DEPTH, _Parser, _dfml_formula, dfml_to_text, fo_to_text,
    parse_dfml, parse_fo, parse_sorted, parse_sorted_sequent, positive_occurrences,
    sorted_to_text, _INTERNED, _SHAPES, children, flip, occurrences, rspoon_free,
    shape, subterms,
)

P = SortedVar(0, SORT1)
Q = SortedVar(1, SORT1)
Pd = SortedVar(0, SORTD)


def parse_dfml_formula(text: str):
    """One modal formula, under the depth bound of ``parse_dfml``."""
    p = _Parser(text, MAX_DEPTH)
    f = _dfml_formula(p)
    p.eof()
    return f


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


# -- printed text, pinned literally ---------------------------------------------

# For each binary connective of each language: its right- and left-nested
# chains, and a mix with the next tighter connective or prefix operator.  A
# round trip cannot see a redundant pair of parentheses; these can.
p0, p1 = PropVar(0), PropVar(1)
A, B = PredApp(PVar(0, SORT1), IVar(0, SORT1)), PredApp(PVar(1, SORT1), IVar(0, SORT1))
PINNED = [
    (parse_dfml_formula, Imp(p0, Imp(p1, p0)), "p0 -> p1 -> p0"),
    (parse_dfml_formula, Imp(Imp(p0, p1), p0), "(p0 -> p1) -> p0"),
    (parse_dfml_formula, Imp(Or(p0, p1), p0), "p0 \\/ p1 -> p0"),
    (parse_dfml_formula, Or(Imp(p0, p1), p0), "(p0 -> p1) \\/ p0"),
    (parse_dfml_formula, Or(Or(p0, p1), p0), "p0 \\/ p1 \\/ p0"),
    (parse_dfml_formula, Or(p0, Or(p1, p0)), "p0 \\/ (p1 \\/ p0)"),
    (parse_dfml_formula, Or(And(p0, p1), p0), "p0 /\\ p1 \\/ p0"),
    (parse_dfml_formula, And(Or(p0, p1), p0), "(p0 \\/ p1) /\\ p0"),
    (parse_dfml_formula, And(And(p0, p1), p0), "p0 /\\ p1 /\\ p0"),
    (parse_dfml_formula, And(p0, And(p1, p0)), "p0 /\\ (p1 /\\ p0)"),
    (parse_dfml_formula, And(Box(p0), p1), "box p0 /\\ p1"),
    (parse_dfml_formula, Box(And(p0, p1)), "box (p0 /\\ p1)"),
    (parse_dfml_formula, Neg(Neg(p0)), "neg neg p0"),
    (parse_sorted, RSpoon(P, RSpoon(Q, P)), "P0 rspoon P1 rspoon P0"),
    (parse_sorted, RSpoon(RSpoon(P, Q), P), "(P0 rspoon P1) rspoon P0"),
    (parse_sorted, TRight(RSpoon(P, Q), Pd), "(P0 rspoon P1) tright P^0"),
    (parse_sorted, RSpoon(Prime(TRight(P, Pd)), Q), "(P0 tright P^0)' rspoon P1"),
    (parse_sorted, TRight(P, TRight(Q, Pd)), "P0 tright P1 tright P^0"),
    (parse_sorted, TRight(Prime(TRight(P, Pd)), Pd), "(P0 tright P^0)' tright P^0"),
    (parse_sorted, TRight(Odot(P, Q), Pd), "P0 odot P1 tright P^0"),
    (parse_sorted, Odot(Odot(P, Q), P), "P0 odot P1 odot P0"),
    (parse_sorted, Odot(P, Odot(Q, P)), "P0 odot (P1 odot P0)"),
    (parse_sorted, Odot(Cup(P, Q), P), "P0 cup P1 odot P0"),
    (parse_sorted, Cup(Odot(P, Q), P), "(P0 odot P1) cup P0"),
    (parse_sorted, Cup(Cup(P, Q), P), "P0 cup P1 cup P0"),
    (parse_sorted, Cup(P, Cup(Q, P)), "P0 cup (P1 cup P0)"),
    (parse_sorted, Cup(Cap(P, Q), P), "P0 cap P1 cup P0"),
    (parse_sorted, Cap(Cup(P, Q), P), "(P0 cup P1) cap P0"),
    (parse_sorted, Cap(Cap(P, Q), P), "P0 cap P1 cap P0"),
    (parse_sorted, Cap(P, Cap(Q, P)), "P0 cap (P1 cap P0)"),
    (parse_sorted, Cap(DiaVert(P), Q), "diav P0 cap P1"),
    (parse_sorted, DiaVert(Cap(P, Q)), "diav (P0 cap P1)"),
    (parse_sorted, Prime(DiaVert(Prime(Prime(P)))), "(diav P0'')'"),
    (parse_fo, ImpF(A, ImpF(B, A)), "P0(x0) -> P1(x0) -> P0(x0)"),
    (parse_fo, ImpF(ImpF(A, B), A), "(P0(x0) -> P1(x0)) -> P0(x0)"),
    (parse_fo, ImpF(OrF(A, B), A), "P0(x0) \\/ P1(x0) -> P0(x0)"),
    (parse_fo, OrF(ImpF(A, B), A), "(P0(x0) -> P1(x0)) \\/ P0(x0)"),
    (parse_fo, OrF(OrF(A, B), A), "P0(x0) \\/ P1(x0) \\/ P0(x0)"),
    (parse_fo, OrF(A, OrF(B, A)), "P0(x0) \\/ (P1(x0) \\/ P0(x0))"),
    (parse_fo, OrF(AndF(A, B), A), "P0(x0) /\\ P1(x0) \\/ P0(x0)"),
    (parse_fo, AndF(OrF(A, B), A), "(P0(x0) \\/ P1(x0)) /\\ P0(x0)"),
    (parse_fo, AndF(AndF(A, B), A), "P0(x0) /\\ P1(x0) /\\ P0(x0)"),
    (parse_fo, AndF(A, AndF(B, A)), "P0(x0) /\\ (P1(x0) /\\ P0(x0))"),
    (parse_fo, AndF(NotF(A), B), "~P0(x0) /\\ P1(x0)"),
    (parse_fo, NotF(AndF(A, B)), "~(P0(x0) /\\ P1(x0))"),
    (parse_fo, NotF(NotF(A)), "~(~P0(x0))"),
    (parse_fo, ImpF(Forall(IVar(1, SORT1), A), A), "(forall_1 x1. (P0(x0))) -> P0(x0)"),
]


@pytest.mark.parametrize("parse, tree, text", PINNED, ids=[t for _, _, t in PINNED])
def test_printed_text_is_pinned(parse, tree, text):
    assert syntax.print_formula(tree) == text
    assert parse(text) == tree


def test_grammar_doc_follows_the_operator_tables():
    """docs/grammar.md lists each language's binary connectives loosest
    first, as the tables do, and names every prefix token."""
    doc = (Path(__file__).parents[1] / "docs" / "grammar.md").read_text()
    sections = re.split(r"^## ", doc, flags=re.M)
    for title, binary, prefix in [("Modal source", syntax.DFML_BINARY, syntax.DFML_PREFIX),
                                  ("Sorted companion", syntax.SORTED_BINARY, syntax.SORTED_PREFIX),
                                  ("Sorted first", syntax.FO_BINARY, syntax.FO_PREFIX)]:
        section, = (s for s in sections if s.startswith(title))
        grammar = section.split("```")[1]
        places = [grammar.find(f'"{tok}"') for tok, _, _ in binary]
        assert -1 not in places and places == sorted(places), title
        for tok in prefix:
            assert f'"{tok}"' in grammar, (title, tok)


def operator_table_faults(binary, prefix, tables: dict) -> list[str]:
    """What keeps the sorted operator tables from agreeing: an operator of
    the grammar tables ``binary`` and ``prefix``, the lattice connectives
    aside, that a table of ``tables`` (name -> table) lacks, an entry for an
    operator the grammar lacks, and a meaning whose relation atom is
    ill-sorted against ``REL_SIG``."""
    grammar = ({cls for _, cls, _ in binary} | set(prefix.values())) - {Cap, Cup}
    faults = []
    for name, table in tables.items():
        faults += [f"{name} lacks {cls.__name__}" for cls in grammar - table.keys()]
        faults += [f"{name} has {cls.__name__}, no grammar operator"
                   for cls in table.keys() - grammar]
    for cls, (_, rel, anchor_first) in tables["SORTED_MEANING"].items():
        anchor = IVar(0, cls.sort)
        points = [IVar(i, sort) for i, sort in enumerate(cls.arg_sorts, 1)]
        try:
            RelAtom(rel, (anchor, *points) if anchor_first else (*reversed(points), anchor))
        except SortError as e:
            faults.append(f"{cls.__name__}: {e}")
    return sorted(faults)


OPERATOR_TABLES = {"SORTED_MEANING": syntax.SORTED_MEANING,
                   "_OPERATOR_OF": semantics._OPERATOR_OF}


def test_operator_tables_agree():
    """One meaning and one frame operator per sorted operator of the
    grammar but the lattice connectives, each meaning's atom well-sorted."""
    assert operator_table_faults(syntax.SORTED_BINARY, syntax.SORTED_PREFIX,
                                 OPERATOR_TABLES) == []


def test_operator_table_faults_are_reported():
    meaning = dict(syntax.SORTED_MEANING)
    del meaning[BoxD]
    meaning[TDown] = (syntax.Exists, "R_neg", False)     # names the sort-d anchor last
    prefix = {**syntax.SORTED_PREFIX, "cap": Cap}          # a lattice connective is no fault
    assert operator_table_faults(syntax.SORTED_BINARY, prefix,
                                 {**OPERATOR_TABLES, "SORTED_MEANING": meaning}) == [
        "SORTED_MEANING lacks BoxD", "TDown: R_neg argument sort mismatch"]
    binary = syntax.SORTED_BINARY[1:]                     # without RSpoon
    assert operator_table_faults(binary, syntax.SORTED_PREFIX, OPERATOR_TABLES) == [
        "SORTED_MEANING has RSpoon, no grammar operator",
        "_OPERATOR_OF has RSpoon, no grammar operator"]


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


def test_fo_relation_atoms_are_sort_checked_by_the_parser():
    """Every letter of a composite word chains to the next by sort, and a
    malformed relation atom is a parse error at the atom, not a crash."""
    for text in ["x0 R''_box.dia y1",     # box ends at sort 1, dia starts at d
                 "x0 R''_foo y0",         # no such letter
                 "x0 R_dia y0"]:          # R_dia joins two sort-1 points
        with pytest.raises(ParseError) as e:
            parse_fo(text)
        assert e.value.pos == 0
    with pytest.raises(SortError):
        RelAtom("R''_box.dia", (IVar(0, SORT1), IVar(1, SORTD)))
    assert parse_fo("x0 R''_box.neg y0") == \
        RelAtom("R''_box.neg", (IVar(0, SORT1), IVar(0, SORTD)))


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


# -- modal and first-order nodes -----------------------------------------------

# The node classes ``syntax._connective`` builds, by name: their fields in
# order and a value for each.  Every field but a quantifier's ``var`` is a
# subformula.
_DFML_KIDS = (PropVar(0), Neg(PropVar(1)))
_FO_KIDS = (TrueF(), NotF(FalseF()))
CONNECTIVES = {
    **{name: ((), ()) for name in ("Top", "Bot", "TrueF", "FalseF")},
    **{name: (("arg",), _DFML_KIDS[:1]) for name in ("Box", "Dia", "Neg")},
    **{name: (("left", "right"), _DFML_KIDS) for name in ("And", "Or", "Imp")},
    "NotF": (("arg",), _FO_KIDS[:1]),
    **{name: (("left", "right"), _FO_KIDS) for name in ("AndF", "OrF", "ImpF")},
    "Forall": (("var", "body"), (IVar(1, SORTD), _FO_KIDS[1])),
    "Exists": (("var", "body"), (IVar(2, SORT1), _FO_KIDS[0])),
    "Forall2": (("var", "body"), (PVar(0, SORTD), _FO_KIDS[1])),
}


@pytest.mark.parametrize("name", CONNECTIVES)
def test_factory_built_nodes_keep_their_dataclass_behaviour(name):
    cls, (names, values) = getattr(syntax, name), CONNECTIVES[name]
    assert f"\n{name} = _connective(" in Path(syntax.__file__).read_text()
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    node = cls(*values)
    # keyword construction, in any order, is positional construction
    assert cls(**dict(reversed(list(zip(names, values))))) == node
    twin = cls(*copy.deepcopy(values))
    assert twin == node and hash(twin) == hash(node)
    assert twin is not node
    if names:
        assert cls(*values[:-1], Top() if issubclass(cls, syntax.DfmlFormula) else FalseF()) != node
        with pytest.raises(TypeError):
            cls()
    other = next(getattr(syntax, k) for k, (ns, _) in CONNECTIVES.items()
                 if ns == names and k != name)
    assert other(*values) != node
    assert repr(node) == f"{name}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    for field in (*names, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, values[0] if values else None)
    assert node._subs == tuple(n for n in names if n != "var")
    assert children(node) == tuple(getattr(node, n) for n in node._subs)
    assert copy.copy(node) == node and copy.deepcopy(node) == node
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(node, protocol))
        assert type(back) is cls and back == node


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


def test_intern_tables_hold_only_live_entries():
    """1,000 formulas over fresh variables, each of a new shape, enter both
    tables while they live and leave nothing behind once dropped."""
    gc.collect()
    before = len(_INTERNED), len(_SHAPES)
    f = STop(SORT1)
    for i in range(1_000):
        f = Cap(f, BoxMinus(SortedVar(5_000_000 + i, SORT1)))
    assert len(_INTERNED) >= before[0] + 3_000
    assert len(_SHAPES) >= before[1] + 1_000
    del f
    gc.collect()
    assert (len(_INTERNED), len(_SHAPES)) == before


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


@given(f=st.deferred(_drawn_formulas), g=st.deferred(_drawn_formulas))
@settings(max_examples=300, deadline=None)
def test_cached_facts_match_fresh_computation(f, g):
    for node in [f] + [getattr(f, name) for name in f._subs]:
        assert node.sort == _reference_sort(node)
        assert children(node) == tuple(getattr(node, name) for name in node._subs)
        assert occurrences(node) == tuple(_reference_occurrences(node))
        assert node._depths == tuple(_reference_depths(node))
        assert rspoon_free(node) == ("rspoon" not in sorted_to_text(node))
        assert shape(node) is shape(_reference_shape(node))
    # two formulas share a shape token exactly when their reference shape
    # nodes are one object, checked on every pair of their subterms
    nodes = [node for root in (f, g) for _, node in subterms(root)]
    for a in nodes:
        for b in nodes:
            assert (shape(a) is shape(b)) == (_reference_shape(a) is _reference_shape(b))
