import gc
import json
import random
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dfmlcorr.reduction import (
    RULE_ORDER, ChangeOfVariables, FormalInequality, InequalitySystem,
    NodeBudgetExceeded, StabilityConstraint, _cap_conjuncts, _is_pp,
    _subst_var_under_primes, apply_rule, applicable_moves, canonical_key,
    classify, g_stable, is_canonical_form, is_simple_sahlqvist,
    parse_formal_inequality, parse_inequality_system, reduce_search, system_for,
    thread_inequality,
)
from dfmlcorr.syntax import (
    SORT1, SORTD, BTDown, Box1, BoxD, BoxMinus, BoxVert, Cap, Cup, DiaMinus,
    DiaVert, Odot, Prime, RSpoon, SortedVar, TDown, TRight, children, flip,
    parse_dfml, parse_sorted, prime_depths, rebuild, replace_at, sorted_vars,
    subterms,
)
from dfmlcorr.translation import BOX_BOXMINUS, BOX_PRIME, IMP_RSPOON, IMP_TRIGHT

from test_semantics import sorted_formulas


def ineq(text):
    return parse_formal_inequality(text)


def system(text):
    return parse_inequality_system(text)


# -- rule applications ---------------------------------------------------------

def test_r4_box_t():
    sys = system_for(ineq("boxm P0'' <=1 P0''"))
    moves = {(r, s): out for r, s, out in applicable_moves(sys)}
    got = moves[("R4", SortedVar(0, SORT1))]
    assert canonical_key(got) == canonical_key(system("P0'' <=1 P0 | boxm P0 <=1 P0"))


def test_r52_needs_constraint():
    unconstrained = system_for(ineq("(diav P0)' <=d P0'"))
    assert apply_rule(unconstrained, "R5.2b", ("lhs", ())) is None
    constrained = system("P0'' <=1 P0 | (diav P0)' <=d P0'")
    got = apply_rule(constrained, "R5.2b", ("lhs", ()))
    assert got is not None
    assert str(got.main) == "boxv P0' <=d P0'"


def test_r6_then_r1_change_of_variables():
    sys = system("P0'' <=1 P0 | boxv P0' <=d P0'")
    after_r6 = apply_rule(sys, "R6", SortedVar(0, SORT1))
    assert after_r6 is not None
    assert after_r6.cvc == (ChangeOfVariables(SortedVar(1, SORTD), SortedVar(0, SORT1)),)
    assert str(after_r6.main) == "boxv P^1 <=d P^1"
    after_r1 = apply_rule(after_r6, "R1", 0)
    assert after_r1.stb == ()
    assert after_r1.cvc == after_r6.cvc


def test_r4_requires_uniformly_double_primed():
    sys = system_for(ineq("P0'' <=1 (diav P0)''"))  # one bare occurrence
    assert apply_rule(sys, "R4", SortedVar(0, SORT1)) is None


def test_r6_requires_uniformly_single_primed():
    sys = system_for(ineq("P0' <=d P0'''"))  # mixed priming depths
    assert apply_rule(sys, "R6", SortedVar(0, SORT1)) is None


def test_r8_shape():
    sys = system("P0'' <=1 P0, P1'' <=1 P1 | P0 odot P0 rspoon P1 <=1 P0 rspoon P1")
    got = apply_rule(sys, "R8", None)
    assert got is not None
    assert str(got.main) == "P0 <=1 P0 odot P0"


def test_r7a_residuation():
    sys = system("P0'' <=1 P0, P1'' <=1 P1 | P0 <=1 P1 rspoon P0"
                 )
    got = apply_rule(sys, "R7a", None)
    assert str(got.main) == "P1 odot P0 <=1 P0"


def test_inapplicable_is_a_value():
    sys = system_for(ineq("P0 <=1 P0"))
    assert apply_rule(sys, "R8", None) is None
    assert apply_rule(sys, "R3", None) is None


# -- simple Sahlqvist and canonical form ----------------------------------------

def test_simple_boxed_atom():
    assert is_simple_sahlqvist(ineq("boxm P0 <=1 P0"))


def test_not_simple_double_primed():
    assert not is_simple_sahlqvist(ineq("boxm P0'' <=1 P0''"))


def test_simple_tright():
    assert is_simple_sahlqvist(ineq("P0 tright P^1 <=d P0 tright (P0 tright P^1)"))


def test_simple_more_examples():
    assert is_simple_sahlqvist(ineq("boxv boxv P^1 <=d P^1"))
    assert is_simple_sahlqvist(ineq("boxm P0 <=1 diav P0"))
    assert is_simple_sahlqvist(ineq("diav diav P0 <=1 diav P0"))
    assert is_simple_sahlqvist(ineq("P^0 <=d tdown P1"))


def test_canonical_box_t():
    assert is_canonical_form(system("P0'' <=1 P0 | boxm P0 <=1 P0"))


def test_canonical_dia_t():
    assert is_canonical_form(system("P0'' <=1 P0 | P0 <=1 (diav P0)''"))


def test_not_canonical_negative_occurrence():
    sys = system("P0'' <=1 P0 | P0 cap (tdown P0)' <=1 bot")
    assert not is_canonical_form(sys)


def test_not_canonical_primed_constrained_variable():
    sys = system("P0'' <=1 P0 | boxv P0' <=d P0'")
    assert not is_canonical_form(sys)


# -- search ----------------------------------------------------------------------

def test_search_five_step_trace():
    """The dual thread of the diamond-4 sequent: four reduction steps plus a
    final R1 dropping the stability constraint left behind."""
    start = ineq("(diav P0'')' <=d (diav (diav P0'')'')'")
    found = reduce_search(start)
    assert found is not None
    final, trace = found
    assert [st.rule for st in trace] == ["R4", "R5.2b", "R5.2b", "R6", "R1"]
    assert canonical_key(final) == canonical_key(
        system("P^1 =d P0' | boxv P^1 <=d (diav (boxv P^1)')'"))


def test_search_not_reducible():
    start = ineq("(diav (diav P0'')'')'' <=1 (diav P0'')''")
    assert reduce_search(start) is None


def test_search_contraction():
    start = ineq("P0'' rspoon (P0'' rspoon P1'') <=1 P0'' rspoon P1''")
    final, trace = reduce_search(start)
    assert canonical_key(final) == canonical_key(system("P0'' <=1 P0 | P0 <=1 P0 odot P0"))


def test_budget_exceeded():
    start = ineq("(diav (diav P0'')'')'' <=1 (diav P0'')''")
    with pytest.raises(NodeBudgetExceeded):
        reduce_search(start, max_nodes=5)


def test_search_terminates_without_budget_on_corpus():
    from dfmlcorr.corpus import CORPUS
    for entry in CORPUS:
        classify(parse_dfml(entry.sequent), max_nodes=50_000)


# -- classify ---------------------------------------------------------------------

def test_classify_both_threads():
    for text in ("box p |- p", "p |- dia p"):
        cls = classify(parse_dfml(text))
        assert cls.sahlqvist
        assert any(r.reduced for r in cls.results if r.thread == "translation")
        assert any(r.reduced for r in cls.results if r.thread == "cotranslation")


def test_classify_cotranslation_only():
    cls = classify(parse_dfml("dia dia p |- dia p"))
    assert cls.sahlqvist
    assert not any(r.reduced for r in cls.results if r.thread == "translation")
    assert all(r.reduced for r in cls.results if r.thread == "cotranslation")


def test_classify_not_sahlqvist():
    cls = classify(parse_dfml("p /\\ neg p |- q \\/ neg q"))
    assert not cls.sahlqvist
    assert all(not r.reduced for r in cls.results)


def test_canonical_key_renaming_insensitive():
    a = system("P3'' <=1 P3 | boxm P3 <=1 P3")
    b = system("P0'' <=1 P0 | boxm P0 <=1 P0")
    assert canonical_key(a) == canonical_key(b)
    c = system("P0'' <=1 P0 | boxm P0 <=1 diav P0")
    assert canonical_key(a) != canonical_key(c)


# -- the one-walk move generator against the per-rule scan ----------------------
#
# ``_reference_moves`` is the move generator as it was before the dispatch
# tables: every rewrite rule scans every subterm of both sides through one
# if-chain, and the rules on the whole system recompute variables and prime
# depths per rule.  ``applicable_moves`` must yield the same list.

def _reference_rewrite(rule, node, sys):
    cons = {c.var for c in sys.stb} | {c.var for c in sys.cvc}
    if rule == "R5.1a":
        if isinstance(node, Prime) and isinstance(node.arg, DiaMinus) \
                and isinstance(node.arg.arg, Prime):
            return BoxMinus(Prime(Prime(node.arg.arg.arg)))
    elif rule == "R5.1b":
        if isinstance(node, Prime) and isinstance(node.arg, DiaVert) \
                and isinstance(node.arg.arg, Prime):
            return BoxVert(Prime(Prime(node.arg.arg.arg)))
    elif rule == "R5.2a":
        if isinstance(node, Prime) and isinstance(node.arg, DiaMinus) \
                and isinstance(node.arg.arg, SortedVar) and node.arg.arg in cons:
            return BoxMinus(Prime(node.arg.arg))
    elif rule == "R5.2b":
        if isinstance(node, Prime) and isinstance(node.arg, DiaVert) \
                and isinstance(node.arg.arg, SortedVar) and node.arg.arg in cons:
            return BoxVert(Prime(node.arg.arg))
    elif rule == "R5.3a":
        if isinstance(node, Prime) and isinstance(node.arg, Prime) \
                and isinstance(node.arg.arg, BoxMinus) \
                and isinstance(node.arg.arg.arg, SortedVar) and node.arg.arg.arg in cons:
            return node.arg.arg
    elif rule == "R5.3b":
        if isinstance(node, Prime) and isinstance(node.arg, Prime) \
                and isinstance(node.arg.arg, BoxVert) \
                and isinstance(node.arg.arg.arg, SortedVar) and node.arg.arg.arg in cons:
            return node.arg.arg
    elif rule == "R5.4":
        if isinstance(node, Prime) and isinstance(node.arg, Prime) \
                and isinstance(node.arg.arg, Prime) and isinstance(node.arg.arg.arg, SortedVar):
            return Prime(node.arg.arg.arg)
    elif rule == "R5.5a":
        if isinstance(node, BoxMinus) and isinstance(node.arg, Cap):
            return Cap(BoxMinus(node.arg.left), BoxMinus(node.arg.right))
    elif rule == "R5.5b":
        if isinstance(node, BoxVert) and isinstance(node.arg, Cap):
            return Cap(BoxVert(node.arg.left), BoxVert(node.arg.right))
    elif rule == "R5.6a":
        if isinstance(node, Prime) and isinstance(node.arg, Prime) \
                and isinstance(node.arg.arg, Cap):
            cap = node.arg.arg
            if g_stable(cap.left) and g_stable(cap.right):
                return Cap(Prime(Prime(cap.left)), Prime(Prime(cap.right)))
    elif rule == "R5.6b":
        if isinstance(node, Prime) and isinstance(node.arg, Cup):
            return Cap(Prime(node.arg.left), Prime(node.arg.right))
    elif rule == "R5.7a":
        if isinstance(node, Prime) and isinstance(node.arg, TDown) \
                and isinstance(node.arg.arg, Prime) and isinstance(node.arg.arg.arg, Prime):
            return BTDown(Prime(node.arg.arg.arg.arg))
    elif rule == "R5.7b":
        if isinstance(node, Prime) and isinstance(node.arg, TDown) \
                and isinstance(node.arg.arg, SortedVar) and node.arg.arg in cons:
            return BTDown(Prime(node.arg.arg))
    elif rule == "R5.8":
        if isinstance(node, RSpoon) and isinstance(node.left, SortedVar) \
                and isinstance(node.right, SortedVar) \
                and node.left in cons and node.right in cons:
            return Prime(TRight(node.left, Prime(node.right)))
    elif rule == "R5.9":
        if isinstance(node, RSpoon) and isinstance(node.left, SortedVar) \
                and isinstance(node.right, RSpoon) \
                and isinstance(node.right.left, SortedVar) \
                and isinstance(node.right.right, SortedVar):
            return RSpoon(Odot(node.right.left, node.left), node.right.right)
    return None


def _reference_depths(f, var, above=0):
    """The number of primes immediately above each occurrence of ``var``."""
    if isinstance(f, SortedVar):
        return [above] if f == var else []
    if isinstance(f, Prime):
        return _reference_depths(f.arg, var, above + 1)
    return [d for kid in children(f) for d in _reference_depths(kid, var)]


def _reference_moves(sys):
    main = sys.main
    cons = {c.var for c in sys.stb} | {c.var for c in sys.cvc}
    vs = []
    for v in sorted_vars(main.lhs) + sorted_vars(main.rhs):
        if v not in vs:
            vs.append(v)
    vs.sort(key=lambda v: (v.sort, v.index))
    for rule in RULE_ORDER:
        if rule.startswith("R5."):
            for side, root in (("lhs", main.lhs), ("rhs", main.rhs)):
                for path, node in subterms(root):
                    new_node = _reference_rewrite(rule, node, sys)
                    if new_node is not None:
                        new_main = replace(main, **{side: replace_at(root, path, new_node)})
                        yield rule, (side, path), replace(sys, main=new_main)
        elif rule in ("R4", "R6"):
            depth = 2 if rule == "R4" else 1
            for var in vs:
                if rule == "R4" and var in cons:
                    continue
                depths = _reference_depths(main.lhs, var) + _reference_depths(main.rhs, var)
                if depths and all(d == depth for d in depths):
                    new = var if rule == "R4" else SortedVar(sys.fresh_counter, flip(var.sort))
                    new_main = FormalInequality(
                        main.sort,
                        _subst_var_under_primes(main.lhs, var, depth, new),
                        _subst_var_under_primes(main.rhs, var, depth, new))
                    if rule == "R4":
                        yield rule, var, replace(
                            sys, stb=sys.stb + (StabilityConstraint(var),), main=new_main)
                    else:
                        yield rule, var, replace(
                            sys, cvc=sys.cvc + (ChangeOfVariables(new, var),),
                            main=new_main, fresh_counter=sys.fresh_counter + 1)
        elif rule == "R1":
            for i, c in enumerate(sys.stb):
                if c.var not in vs:
                    yield rule, i, replace(sys, stb=sys.stb[:i] + sys.stb[i + 1:])
        elif rule == "R2":
            if _is_pp(main.lhs) and all(g_stable(c) for c in _cap_conjuncts(main.rhs)):
                yield rule, None, replace(sys, main=replace(main, lhs=main.lhs.arg.arg))
        elif rule == "R3":
            if _is_pp(main.lhs) and _is_pp(main.rhs):
                yield rule, None, replace(sys, main=replace(main, lhs=main.lhs.arg.arg))
        elif rule == "R7a":
            if isinstance(main.rhs, RSpoon):
                yield rule, None, replace(sys, main=FormalInequality(
                    SORT1, Odot(main.rhs.left, main.lhs), main.rhs.right))
        elif rule == "R7b":
            if isinstance(main.lhs, DiaVert) and _is_pp(main.lhs.arg):
                yield rule, None, replace(sys, main=FormalInequality(
                    SORT1, main.lhs.arg, Box1(main.rhs)))
        elif rule == "R7c":
            if isinstance(main.lhs, DiaMinus) and _is_pp(main.lhs.arg):
                yield rule, None, replace(sys, main=FormalInequality(
                    SORTD, main.lhs.arg, BoxD(main.rhs)))
        elif rule == "R8":
            if isinstance(main.lhs, RSpoon) and isinstance(main.rhs, RSpoon) \
                    and isinstance(main.lhs.right, SortedVar) \
                    and main.lhs.right == main.rhs.right:
                p = main.lhs.right
                zeta, xi = main.lhs.left, main.rhs.left
                if p not in sorted_vars(zeta) and p not in sorted_vars(xi):
                    yield rule, None, replace(sys, main=FormalInequality(main.sort, xi, zeta))
        elif rule == "R9":
            if isinstance(main.lhs, Cap):
                sides = [(main.lhs.left, main.lhs.right, 0), (main.lhs.right, main.lhs.left, 1)]
                for cand, other, which in sides:
                    if _is_pp(cand) and isinstance(other, (BoxMinus, BoxVert)) \
                            and isinstance(other.arg, SortedVar) and other.arg in cons \
                            and all(g_stable(c) for c in _cap_conjuncts(main.rhs)):
                        kids = [None, None]
                        kids[which] = cand.arg.arg
                        kids[1 - which] = other
                        yield rule, which, replace(
                            sys, main=replace(main, lhs=Cap(kids[0], kids[1])))


def _reference_redexes(root, cons):
    """The redex scan as one pre-order walk of the whole side, with no
    table: rule -> [(path, rewritten node)] in path order."""
    from dfmlcorr import reduction
    found = {}
    for path, node in subterms(root):
        for rule in reduction._rules_at(node):
            new = reduction._REWRITES[rule](node, cons)
            if new is not None:
                found.setdefault(rule, []).append((path, new))
    return found


def _assert_same_moves(sys):
    """``applicable_moves`` equals the reference, and ``apply_rule`` returns
    each move's child, or None at a site no move of that rule has."""
    want = list(_reference_moves(sys))
    assert list(applicable_moves(sys)) == want, str(sys)
    sites = {site for _, site, _ in want} | {None, 0, ("lhs", ()), ("rhs", (0, 0)),
                                             ("lhs", (9,)), ("mid", ())}
    for rule in RULE_ORDER:
        for site in sites:
            expect = next((child for r, s, child in want if (r, s) == (rule, site)), None)
            assert apply_rule(sys, rule, site) == expect, (rule, site, str(sys))
    return want


def test_moves_match_reference_on_corpus_searches(monkeypatch):
    """Every system the corpus searches expand, and every child of those."""
    from dfmlcorr import reduction
    from dfmlcorr.corpus import CORPUS
    visited = {}
    real = reduction.applicable_moves

    def recording(sys):
        visited.setdefault(sys, None)
        return real(sys)

    monkeypatch.setattr(reduction, "applicable_moves", recording)
    for entry in CORPUS:
        classify(parse_dfml(entry.sequent))
    monkeypatch.undo()
    fired = set()
    fan_out = {}
    for sys in visited:
        for rule, _site, child in _assert_same_moves(sys):
            fired.add(rule)
            fan_out.setdefault(child, None)
    for child in fan_out:
        if child not in visited:
            fired.update(rule for rule, _, _ in _assert_same_moves(child))
    assert len(visited) > 800
    assert fired >= {"R4", "R6", "R1", "R5.2a", "R5.2b", "R5.8", "R5.9", "R8", "R9"}


def _pool_slice(seed, k):
    """``k`` sequents of the benchmark's recorded symbolic pool, drawn by
    ``seed``, and the pool's node budget."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    symbolic = json.loads(reference.read_text())["symbolic"]
    picked = random.Random(seed).sample([e["sequent"] for e in symbolic["pool"]], k)
    return picked, symbolic["max_nodes"]


def _search_all(sequents, max_nodes):
    """Both threads of each sequent under each rendering policy, each search
    run on its own so that one over budget does not cut the others short."""
    for text in sequents:
        for thread in ("translation", "cotranslation"):
            for imp in (IMP_RSPOON, IMP_TRIGHT):
                for box in (BOX_BOXMINUS, BOX_PRIME):
                    start = thread_inequality(parse_dfml(text), thread, imp, box)
                    try:
                        reduce_search(start, max_nodes=max_nodes)
                    except NodeBudgetExceeded:
                        pass


def test_moves_match_reference_with_a_warm_memo(monkeypatch):
    """The moves each search took, found while its memo was warm, equal the
    reference computed after the searches, with no memo: on every system the
    corpus searches and a seeded 20-sequent slice of the recorded pool
    expand."""
    from dfmlcorr import reduction
    from dfmlcorr.corpus import CORPUS
    used = {}
    calls = redex_hits = subst_warm = 0
    real = reduction.applicable_moves

    def recording(sys):
        nonlocal calls, redex_hits, subst_warm
        memo = reduction._memo
        calls += 1
        redex_hits += (sys.main.lhs, sys.constrained()) in memo.redexes
        subst_warm += bool(memo.subst)
        moves = tuple(real(sys))
        used.setdefault((sys, moves), None)
        return iter(moves)

    monkeypatch.setattr(reduction, "applicable_moves", recording)
    _search_all([e.sequent for e in CORPUS], 100_000)
    _search_all(*_pool_slice(7, 20))
    monkeypatch.undo()
    assert reduction._memo is None
    for sys, moves in used:
        assert list(moves) == list(_reference_moves(sys)), str(sys)
    assert len(used) > 2_000
    assert redex_hits > calls // 4 and subst_warm > calls // 2


# The rule order as it was listed before ``RULE_ORDER`` was read off the two
# rule tables.
_LISTED_RULE_ORDER = (
    "R5.1a", "R5.1b", "R5.2a", "R5.2b", "R5.3a", "R5.3b", "R5.4",
    "R5.5a", "R5.5b", "R5.6a", "R5.6b", "R5.7a", "R5.7b", "R5.8", "R5.9",
    "R4", "R6", "R1", "R2", "R3", "R7a", "R7b", "R7c", "R8", "R9",
)


def _rule_by_rule_moves(sys):
    """``applicable_moves`` as it was before it visited only the rules that
    can apply: all 25 rules in the listed order, each rewrite rule looked up
    in a whole-tree redex scan of each side."""
    from dfmlcorr import reduction
    cons = sys.constrained()
    sides = (("lhs", _reference_redexes(sys.main.lhs, cons)),
             ("rhs", _reference_redexes(sys.main.rhs, cons)))
    depths = reduction._var_depths(sys.main)
    for rule in _LISTED_RULE_ORDER:
        if rule in reduction._REWRITES:
            for side, redexes in sides:
                for path, new in redexes.get(rule, ()):
                    yield rule, (side, path), reduction._rewritten(sys, side, path, new)
        else:
            for site, child in reduction._SYSTEM_RULES[rule](sys, depths):
                yield rule, site, child


def test_moves_match_the_rule_by_rule_loop(monkeypatch):
    """The moves each search found, visiting only the rules that can apply,
    are the (rule, site, child) sequence of the loop over all 25 rules: on
    every system the corpus searches and a seeded 20-sequent slice of the
    recorded pool expand."""
    from dfmlcorr import reduction
    from dfmlcorr.corpus import CORPUS
    assert RULE_ORDER == _LISTED_RULE_ORDER
    used = {}
    real = reduction.applicable_moves

    def recording(sys):
        moves = tuple(real(sys))
        used.setdefault((sys, moves), None)
        return iter(moves)

    monkeypatch.setattr(reduction, "applicable_moves", recording)
    _search_all([e.sequent for e in CORPUS], 100_000)
    _search_all(*_pool_slice(7, 20))
    monkeypatch.undo()
    fired = set()
    for sys, moves in used:
        assert list(moves) == list(_rule_by_rule_moves(sys)), str(sys)
        fired.update(rule for rule, _, _ in moves)
    assert len(used) > 2_000 and len(fired) > 20


def _live_memos():
    from dfmlcorr import reduction
    return [o for o in gc.get_objects() if isinstance(o, reduction._SearchMemo)]


def test_memo_does_not_outlive_its_search(monkeypatch):
    """A search's memo is gone when it returns and when it raises, while the
    exception's traceback still holds the search's frames; moves and rule
    applications outside a search make none."""
    from dfmlcorr import reduction
    sizes = []
    real = reduction.applicable_moves

    def recording(sys):
        sizes.append(len(reduction._memo.redexes))
        return real(sys)

    monkeypatch.setattr(reduction, "applicable_moves", recording)
    assert reduce_search(ineq("(diav P0'')' <=d (diav (diav P0'')'')'")) is not None
    assert max(sizes) > 0
    assert reduction._memo is None and _live_memos() == []
    with pytest.raises(NodeBudgetExceeded) as raised:
        reduce_search(ineq("(diav (diav P0'')'')'' <=1 (diav P0'')''"), max_nodes=5)
    assert raised.tb is not None
    assert reduction._memo is None and _live_memos() == []
    monkeypatch.undo()
    sys = system("P0'' <=1 P0 | boxv P0' <=d P0'")
    moves = applicable_moves(sys)
    next(moves)
    assert reduction._memo is None and _live_memos() == []
    list(moves)
    assert apply_rule(sys, "R6", SortedVar(0, SORT1)) is not None
    assert reduction._memo is None and _live_memos() == []


def _classify_all(sequents, max_nodes):
    """``classify`` on each sequent; a call over budget ends its sequent."""
    for text in sequents:
        try:
            classify(parse_dfml(text), max_nodes=max_nodes)
        except NodeBudgetExceeded:
            pass


def test_classify_memo_lives_one_call(monkeypatch):
    """The searches of one ``classify`` call share one memo, and a later
    search reads redex tables an earlier one made; the memo is gone when the
    call returns and when it raises, while the exception's traceback still
    holds the call's frames."""
    from dfmlcorr import reduction
    memos, earlier = [], set()
    hits = 0
    real_search, real_moves = reduction.reduce_search, reduction.applicable_moves

    def search(start, max_nodes):
        memos.append(reduction._memo)
        earlier.clear()
        earlier.update(reduction._memo.redexes)
        return real_search(start, max_nodes=max_nodes)

    def moves(sys):
        nonlocal hits
        cons = sys.constrained()
        hits += sum((side, cons) in earlier for side in (sys.main.lhs, sys.main.rhs))
        return real_moves(sys)

    monkeypatch.setattr(reduction, "reduce_search", search)
    monkeypatch.setattr(reduction, "applicable_moves", moves)
    classify(parse_dfml("dia dia p |- dia p"))
    assert len(memos) > 1 and all(m is memos[0] for m in memos) and hits > 0
    memos.clear()
    assert reduction._memo is None and _live_memos() == []
    with pytest.raises(NodeBudgetExceeded) as raised:
        classify(parse_dfml("dia dia p |- dia p"), max_nodes=5)
    assert raised.tb is not None and len(memos) == 1
    memos.clear()
    assert reduction._memo is None and _live_memos() == []


def test_redex_tables_match_the_whole_tree_scan(monkeypatch):
    """The redex table a search read for each side, kept under the
    constrained variables that occur in the side, equals one pre-order walk
    of the whole side under the whole constrained set: on every (side,
    constrained set) that the corpus searches and a seeded 20-sequent slice
    of the recorded pool visit, all run through ``classify``."""
    from dfmlcorr import reduction
    from dfmlcorr.corpus import CORPUS
    read = {}
    real = reduction.applicable_moves

    def recording(sys):
        moves = tuple(real(sys))
        cons = sys.constrained()
        for side in (sys.main.lhs, sys.main.rhs):
            occurring = cons.intersection(sorted_vars(side))
            read.setdefault((side, cons), reduction._memo.redexes[side, occurring])
        return iter(moves)

    monkeypatch.setattr(reduction, "applicable_moves", recording)
    _classify_all([e.sequent for e in CORPUS], 100_000)
    _classify_all(*_pool_slice(7, 20))
    monkeypatch.undo()
    for (side, cons), table in read.items():
        assert table == _reference_redexes(side, cons), (str(side), sorted(map(str, cons)))
    assert len(read) > 1_000
    assert sum(len(entries) > 1 for table in read.values() for entries in table.values()) > 50


def _search_work(sequents, max_nodes):
    """Per sequent, the systems each search of its ``classify`` call expands
    and the children those expansions yield, counted by wrapping
    ``applicable_moves``, and whether the call ran out of budget."""
    from dfmlcorr import reduction
    work, counts = {}, []
    real_search, real_moves = reduction.reduce_search, reduction.applicable_moves

    def search(start, max_nodes):
        counts.append([0, 0])
        return real_search(start, max_nodes=max_nodes)

    def moves(sys):
        counts[-1][0] += 1
        for move in real_moves(sys):
            counts[-1][1] += 1
            yield move

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "reduce_search", search)
        patch.setattr(reduction, "applicable_moves", moves)
        for text in sequents:
            counts.clear()
            try:
                classify(parse_dfml(text), max_nodes=max_nodes)
                over = False
            except NodeBudgetExceeded:
                over = True
            work[text] = {"searches": [list(c) for c in counts], "over_budget": over}
    return work


def test_search_work_is_pinned():
    """Each search expands as many systems, and they yield as many children,
    as recorded in ``search_work.json`` before the searches of a call shared
    a memo: sharing may not reorder or prune a search."""
    from dfmlcorr.corpus import CORPUS
    recorded = json.loads((Path(__file__).parent / "search_work.json").read_text())
    assert _search_work([e.sequent for e in CORPUS], 100_000) == recorded["corpus"]
    assert _search_work(*_pool_slice(7, 20)) == recorded["pool"]


def _var(sort):
    return st.integers(0, 2).map(lambda i: SortedVar(i, sort))


@lru_cache(maxsize=None)
def _redex_rich(sort, depth):
    """Formulas of ``sort`` over every node type, often holding a redex of
    some rewrite rule: each rule's left-hand side is a template whose holes
    are filled recursively."""
    if depth == 0:
        return sorted_formulas(sort, 0)
    sub = lambda s: _redex_rich(s, depth - 1)
    one, d = SORT1, SORTD
    templates = {
        one: [st.builds(lambda x: Prime(DiaMinus(Prime(x))), sub(one)),
              st.builds(lambda v: Prime(DiaMinus(v)), _var(d)),
              st.builds(lambda v: Prime(Prime(BoxMinus(v))), _var(one)),
              st.builds(lambda x, y: BoxMinus(Cap(x, y)), sub(one), sub(one)),
              st.builds(lambda x: Prime(TDown(Prime(Prime(x)))), sub(one)),
              st.builds(lambda v: Prime(TDown(v)), _var(one)),
              st.builds(RSpoon, _var(one), _var(one)),
              st.builds(lambda a, b, c: RSpoon(a, RSpoon(b, c)), _var(one), _var(one), _var(one))],
        d: [st.builds(lambda x: Prime(DiaVert(Prime(x))), sub(d)),
            st.builds(lambda v: Prime(DiaVert(v)), _var(one)),
            st.builds(lambda v: Prime(Prime(BoxVert(v))), _var(d)),
            st.builds(lambda x, y: BoxVert(Cap(x, y)), sub(d), sub(d))],
    }[sort]
    templates += [st.builds(lambda v: Prime(Prime(Prime(v))), _var(flip(sort))),
                  st.builds(lambda x, y: Prime(Prime(Cap(x, y))), sub(sort), sub(sort)),
                  st.builds(lambda x, y: Prime(Cup(x, y)), sub(flip(sort)), sub(flip(sort))),
                  st.builds(lambda x: Prime(Prime(x)), sub(sort))]
    return st.one_of([sorted_formulas(sort, depth)] + templates)


@st.composite
def systems(draw):
    sort = draw(st.sampled_from([SORT1, SORTD]))
    lhs, rhs = draw(_redex_rich(sort, 3)), draw(_redex_rich(sort, 3))
    pool = [SortedVar(i, s) for s in (SORT1, SORTD) for i in range(3)]
    stb = [v for v in pool if draw(st.booleans())]
    cvc = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool))
                        .filter(lambda p: p[0].sort != p[1].sort),
                        unique_by=lambda p: p[0], max_size=3))
    return InequalitySystem(
        tuple(StabilityConstraint(v) for v in stb),
        tuple(ChangeOfVariables(v, source) for v, source in cvc),
        FormalInequality(sort, lhs, rhs), 3)


@given(sys=systems())
@settings(max_examples=400, deadline=None)
def test_moves_match_reference_on_random_systems(sys):
    for _rule, _site, child in _assert_same_moves(sys):
        _assert_same_moves(child)


def test_random_systems_reach_every_rewrite_rule():
    """The strategy above is not vacuous: its draws fire every rewrite rule."""
    fired = set()

    @given(sys=systems())
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def collect(sys):
        fired.update(rule for rule, _, _ in applicable_moves(sys))

    collect()
    assert fired >= {r for r in RULE_ORDER if r.startswith("R5.")}


def test_constrained_is_cached_and_exact():
    sys = system("P0'' <=1 P0, P^1 =d P2' | P0 <=1 P2")
    assert sys.constrained() == {SortedVar(0, SORT1), SortedVar(1, SORTD)}
    assert sys.constrained() is sys.constrained()
    assert replace(sys, stb=()).constrained() == {SortedVar(1, SORTD)}


# -- tree walks -----------------------------------------------------------------

def _reference_subterms(f, path=()):
    yield path, f
    for i, kid in enumerate(children(f)):
        yield from _reference_subterms(kid, path + (i,))


@given(f=st.one_of(sorted_formulas(SORT1, 4), sorted_formulas(SORTD, 4)))
@settings(max_examples=200, deadline=None)
def test_subterms_is_preorder(f):
    assert list(subterms(f)) == list(_reference_subterms(f))
    firsts = []
    for _, node in _reference_subterms(f):
        if isinstance(node, SortedVar) and node not in firsts:
            firsts.append(node)
    assert sorted_vars(f) == firsts
    depths = prime_depths(f)
    assert list(depths) == firsts
    assert all(depths[v] == _reference_depths(f, v) for v in firsts)


def test_sorted_vars_first_occurrence_order():
    f = parse_sorted("(P2 odot P^0') odot (P0 odot P2)")
    assert sorted_vars(f) == [SortedVar(2, SORT1), SortedVar(0, SORTD), SortedVar(0, SORT1)]


# -- the shape key against the tree key ------------------------------------------
#
# ``_reference_key`` is ``canonical_key`` as it was before sorted nodes were
# interned: a nested tuple built from the whole tree, every node's sort read
# on the way.  Both keys must split any set of systems into the same classes.

def _reference_key(sys):
    order = {}

    def num(v):
        k = (v.index, v.sort)
        if k not in order:
            order[k] = len(order)
        return (v.sort, order[k])

    def walk(f):
        if isinstance(f, SortedVar):
            return ("v",) + num(f)
        return (type(f).__name__, getattr(f, "sort", None)) + tuple(
            walk(k) for k in children(f))

    main = (walk(sys.main.lhs), sys.main.sort, walk(sys.main.rhs))
    stb = tuple(sorted(num(c.var) for c in sys.stb))
    cvc = tuple(sorted((num(c.var), num(c.source)) for c in sys.cvc))
    return (stb, cvc, main)


def _assert_same_partition(systems):
    """Each class of the new key is one class of the reference key and back;
    returns the number of classes."""
    ref_of, new_of = {}, {}
    for sys in systems:
        new, ref = canonical_key(sys), _reference_key(sys)
        assert ref_of.setdefault(new, ref) == ref, str(sys)
        assert new_of.setdefault(ref, new) == new, str(sys)
    return len(ref_of)


def _searched_systems(monkeypatch, sequents, max_nodes):
    """Every system the searches of ``sequents`` key (see ``_search_all``)."""
    from dfmlcorr import reduction
    keyed = {}
    real = reduction.canonical_key

    def recording(sys):
        keyed.setdefault(sys, None)
        return real(sys)

    monkeypatch.setattr(reduction, "canonical_key", recording)
    _search_all(sequents, max_nodes)
    monkeypatch.undo()
    return list(keyed)


def test_key_partition_matches_reference_on_searches(monkeypatch):
    """The systems the 14 corpus searches generate, and those of a seeded
    40-sequent slice of the benchmark's recorded symbolic pool at its
    150-node budget."""
    from dfmlcorr.corpus import CORPUS
    corpus = _searched_systems(monkeypatch, [e.sequent for e in CORPUS], 100_000)
    pool = _searched_systems(monkeypatch, *_pool_slice(6, 40))
    # searches meet: distinct systems (another fresh counter, or the same
    # start reached from two threads) share a class, so both directions bite
    assert 800 < _assert_same_partition(corpus) < len(corpus)
    assert 2_000 < _assert_same_partition(corpus + pool) < len(corpus) + len(pool)


def _renamed(sys, perm):
    """``sys`` with variable i of sort s renamed to perm[s][i]."""
    def var(v):
        return SortedVar(perm[v.sort][v.index], v.sort)

    def walk(f):
        return var(f) if isinstance(f, SortedVar) else rebuild(f, [walk(k) for k in children(f)])

    return InequalitySystem(
        tuple(StabilityConstraint(var(c.var)) for c in sys.stb),
        tuple(ChangeOfVariables(var(c.var), var(c.source)) for c in sys.cvc),
        FormalInequality(sys.main.sort, walk(sys.main.lhs), walk(sys.main.rhs)),
        sys.fresh_counter)


def _refilled(sys, rng):
    """``sys`` with each variable occurrence of its main inequality replaced
    by variable 0 or 1 of its sort, drawn by ``rng``."""
    def walk(f):
        if isinstance(f, SortedVar):
            return SortedVar(rng.randrange(2), f.sort)
        return rebuild(f, [walk(k) for k in children(f)])

    main = sys.main
    return InequalitySystem(sys.stb, sys.cvc,
                            FormalInequality(main.sort, walk(main.lhs), walk(main.rhs)),
                            sys.fresh_counter)


@given(sys=systems(), perm1=st.permutations(range(6)), permd=st.permutations(range(6)),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_key_partition_matches_reference_on_random_systems(sys, perm1, permd, rng):
    """Drawn systems, their children, copies of both with the variables
    renamed within each sort, and refills of the drawn system's occurrences
    (same shapes, other variable patterns): a renamed copy falls in its
    original's class."""
    perm = {SORT1: perm1, SORTD: permd}
    family = [sys] + [child for _, _, child in applicable_moves(sys)]
    renamed = [_renamed(s, perm) for s in family]
    refills = [_refilled(sys, rng) for _ in range(8)]
    _assert_same_partition(family + renamed + refills)
    for s, r in zip(family, renamed):
        assert canonical_key(s) == canonical_key(r)
