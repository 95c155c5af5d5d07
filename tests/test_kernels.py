"""The generated loop nests of ``semantics`` against the reference
interpreters: the witness kernel behind ``system_equivalence_witness``,
and the check of a step's holes that runs before it, against
``system_valuations`` and ``system_holds``, the oracle kernel behind
``correspondence_oracle`` against ``local_validity`` and ``eval_fo``, and
their source against the text of the formulas."""
import ast
import dataclasses
import io
import itertools
import keyword
import re
import tokenize
from functools import lru_cache, reduce

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dfmlcorr.cli import _shown
from dfmlcorr.corpus import CORPUS
from dfmlcorr.correspondence import compute_correspondent
from dfmlcorr.reduction import (
    RULE_ORDER, ChangeOfVariables, FormalInequality, InequalitySystem, StabilityConstraint,
    applicable_moves, apply_rule, canonical_key, parse_inequality_system,
)
from dfmlcorr.semantics import (
    _MAX_LOOPS, _MAX_NESTING, _REL_ROWS, FiniteFrame, _holes, _oracle_plan,
    _systems_plan, bits, compile_fo, correspondence_oracle, enumerate_frames, eval_fo,
    kripke_frame, relations_needed, separated_i_masks, system_equivalence_witness,
    system_holds, system_relations_needed, system_valuations,
)
from dfmlcorr.syntax import (
    SORT1, SORTD, AndF, Cap, Cup, Eq, Exists, Forall, Forall2, ImpF, IVar, NotF, OrF,
    PredApp, Prime, PVar, RelAtom, SortedVar, STop, FalseF, TrueF, and_all, or_all, parse_dfml,
    parse_fo, rel_signature, replace_at, subterms, word_rel,
)

from test_reduction import systems as redex_rich_systems
from test_semantics import (
    _IVARS, _PVARS, _RELS, _atom, corpus_frames, reference_oracle, separated_frames,
    sorted_formulas,
)

# Every name a generated function may hold besides keywords, its slot
# locals ``s<n>``, its node and table locals ``v<n>`` and its quantifier
# locals ``q<n>``.
FIXED_NAMES = {
    "kernel", "fr", "row", "failing", "product", "range", "None",
    "_polar1_table", "_polard_table", "op_tables", "full1", "fulld",
    "stable1", "stabled", "P1", "Pd", "F1", "Fd", "S1", "Sd", "R1", "Rd",
    # closures, the representatives of each polar, and the tables of inner loops
    "_close1_table", "_closed_table", "C1", "Cd", "_polar1_reps", "_polard_reps", "Q1", "Qd",
    "append",
    # first-order formulas: the rows of ``_REL_ROWS`` and of ``<=`` and
    # words, the constants ``K`` and the point spaces
    "all", "any", "next", "bool", "K", "word_rows", "up1", "upd", "E1", "Ed",
    *(rows for rows, _, _ in _REL_ROWS.values()),
}
# Names a generated function may read only as attributes of its frame.
FRAME_ATTRIBUTES = {"n1", "nd"}


def assert_generated(source: str) -> None:
    """``source`` interpolates slot numbers, indices into ``K`` and
    generated local names, and nothing else: no string, so no operator
    name, and the carrier sizes only as ``fr.n1`` and ``fr.nd``."""
    last = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            name = tok.string
            assert (keyword.iskeyword(name) or name in FIXED_NAMES
                    or re.fullmatch(r"[svq]\d+", name)
                    or name in FRAME_ATTRIBUTES and last == ["fr", "."]), name
        elif tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok.string
        else:
            assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER), tok
        last = [*last[-1:], tok.string]


def nest_loops(source: str) -> list:
    """The loops of a generated nest, outermost first: the function's last
    loop and the loops nested in it, not the loops before it that fill the
    tables of inner slots."""
    loops = []
    body = ast.parse(source).body[0].body
    while any(isinstance(node, ast.For) for node in body):
        loops.append([node for node in body if isinstance(node, ast.For)][-1])
        body = loops[-1].body
    return loops


def reference_witness(fr, sys1, sys2):
    """The first valuation of ``system_valuations`` on which ``system_holds``
    tells the systems apart."""
    return next((val for val in system_valuations(fr, (sys1, sys2))
                 if system_holds(fr, sys1, val) != system_holds(fr, sys2, val)), None)


def items(val):
    return None if val is None else list(val.items())


def check_pair(fr, sys1, sys2):
    plan = _systems_plan((sys1, sys2))
    if plan.resolved:
        assert_generated(plan.kernel.source)
    if plan.changed:
        assert_generated(plan.changed.source)
    assert items(system_equivalence_witness(fr, sys1, sys2)) == \
        items(reference_witness(fr, sys1, sys2))


# -- random pairs of systems -----------------------------------------------------------

P = [SortedVar(i, SORT1) for i in range(3)]
Q = [SortedVar(i, SORTD) for i in range(3)]
CHANGES = [ChangeOfVariables(t, s) for t in P + Q for s in P + Q if t.sort != s.sort]


@st.composite
def small_frames(draw, sizes=((1, 1), (1, 2), (2, 1))):
    """A separated frame of one of the carrier ``sizes`` with random
    relations; by default at most two points per sort and three in all,
    so that six free variables make at most 512 rows."""
    n1, nd = draw(st.sampled_from(sizes))
    z1 = [f"a{i}" for i in range(n1)]
    zd = [f"b{i}" for i in range(nd)]
    i_rows = draw(st.sampled_from(list(separated_i_masks(n1, nd))))

    def some(pairs):
        return draw(st.lists(st.sampled_from(pairs), unique=True))

    return FiniteFrame(
        z1, zd, validate=False,
        i_rel=[(z1[x], zd[y]) for x in range(n1) for y in bits(i_rows[x])],
        r_dia=some([(a, b) for a in z1 for b in z1]),
        r_box=some([(a, b) for a in zd for b in zd]),
        r_neg=some([(a, b) for a in zd for b in z1]),
        t_rel=some([(a, b, c) for a in zd for b in z1 for c in zd]))


@st.composite
def systems(draw, depth=2):
    """A system over variables 0-2 of each sort: its main inequality from
    ``sorted_formulas`` nested at most ``depth``, with stability constraints
    and changes of variable drawn over the same variables, so that a target
    listed twice (a check), cycles and chains in either listing order all
    arise."""
    sort = draw(st.sampled_from([SORT1, SORTD]))
    main = FormalInequality(sort, draw(sorted_formulas(sort, depth)),
                            draw(sorted_formulas(sort, depth)))
    stb = draw(st.lists(st.sampled_from(P + Q), unique=True, max_size=3))
    cvc = draw(st.lists(st.sampled_from(CHANGES), max_size=3))
    return InequalitySystem(tuple(map(StabilityConstraint, stb)), tuple(cvc), main, 3)


def _with(main, *cvc, stb=()):
    return InequalitySystem(tuple(map(StabilityConstraint, stb)), tuple(cvc), main, 3)


_CHECK = (ChangeOfVariables(Q[0], P[0]), ChangeOfVariables(Q[0], P[1]))      # Q0 twice
_CYCLE = (ChangeOfVariables(P[1], Q[1]), ChangeOfVariables(Q[1], P[1]))
_CHAIN = (ChangeOfVariables(P[2], Q[1]), ChangeOfVariables(Q[1], P[0]))     # newest first


# Masks 0 and 1 of Z1 share the polar {b0, b1}, and masks 2 and 3 share {b1}:
# a slot read only through its polar takes masks 0 and 2, and the witnesses
# below have 2 in one slot and 0 in the other.
_SHARED_POLARS = FiniteFrame(["a0", "a1"], ["b0", "b1"], i_rel=[("a1", "b0")], validate=False)
_A, _B = Prime(P[0]), Prime(P[1])
_TO_Q0 = ChangeOfVariables(Q[0], P[0])


@given(fr=small_frames(), sys1=systems(), sys2=systems())
@example(fr=kripke_frame(2), sys1=_with(FormalInequality(SORT1, P[1], P[0]), *_CHECK),
         sys2=_with(FormalInequality(SORTD, Q[0], Prime(P[1])), *_CHECK, stb=(P[1],)))
@example(fr=kripke_frame(2), sys1=_with(FormalInequality(SORT1, P[1], P[1]), *_CYCLE),
         sys2=_with(FormalInequality(SORT1, P[1], Prime(Q[1])), *_CYCLE))
@example(fr=kripke_frame(2), sys1=_with(FormalInequality(SORT1, P[2], P[0]), *_CHAIN),
         sys2=_with(FormalInequality(SORT1, P[0], P[2]), *_CHAIN))
@example(fr=_SHARED_POLARS, sys1=_with(FormalInequality(SORTD, _A, _B)),
         sys2=_with(FormalInequality(SORTD, _B, _A)))
@example(fr=_SHARED_POLARS, sys1=_with(FormalInequality(SORTD, _B, _A)),
         sys2=_with(FormalInequality(SORTD, STop(SORTD), Cup(_A, _B))))
@example(fr=_SHARED_POLARS, sys1=_with(FormalInequality(SORTD, Q[0], _B), _TO_Q0),
         sys2=_with(FormalInequality(SORTD, _B, Q[0]), _TO_Q0))
@settings(max_examples=300, deadline=None)
def test_witness_kernel_matches_reference_on_random_pairs(fr, sys1, sys2):
    check_pair(fr, sys1, sys2)


@st.composite
def rewritten_pairs(draw):
    """A system and the same system with two to four subterms below its
    sides' roots replaced by their closures, which they equal on some rows
    and not on others, and perhaps a constraint more."""
    sys = draw(systems(3))
    sides = [sys.main.lhs, sys.main.rhs]
    for i in draw(st.lists(st.integers(0, 1), min_size=2, max_size=4)):
        below = [(path, node) for path, node in subterms(sides[i]) if path]
        if below:
            path, node = draw(st.sampled_from(below))
            sides[i] = replace_at(sides[i], path, Prime(Prime(node)))
    stb = draw(st.lists(st.sampled_from(P + Q), max_size=1))
    cvc = draw(st.lists(st.sampled_from(CHANGES), max_size=1))
    return sys, InequalitySystem(sys.stb + tuple(map(StabilityConstraint, stb)),
                                 sys.cvc + tuple(cvc), FormalInequality(sys.main.sort, *sides), 3)


@given(fr=small_frames(), pair=rewritten_pairs())
@settings(max_examples=300, deadline=None)
def test_witness_kernel_matches_reference_on_rewritten_pairs(fr, pair):
    """Pairs that share a context around several holes: whether the check
    of the holes passes or fails, the witness is the reference's."""
    check_pair(fr, *pair)


def test_crafted_pairs_reach_each_kind_of_step():
    """The three explicit examples above are a check, a cycle and a
    newest-first chain."""
    check = _systems_plan((_with(FormalInequality(SORT1, P[1], P[0]), *_CHECK),) * 2)
    # the check reads P1, bound by the outer loop, and Q0, set in the inner one
    assert check.keys == (P[1], P[0], Q[0])
    assert check.steps == ((2, 1, SORT1, False), (2, 0, SORT1, True))
    cycle = (_with(FormalInequality(SORT1, P[1], P[1]), *_CYCLE),) * 2
    assert not _systems_plan(cycle).resolved and _systems_plan(cycle).kernel is None
    assert list(system_valuations(kripke_frame(2), cycle)) == []
    assert system_equivalence_witness(kripke_frame(2), *cycle) is None
    chain = _systems_plan((_with(FormalInequality(SORT1, P[2], P[0]), *_CHAIN),) * 2)
    assert chain.keys == (P[0], Q[1], P[2])         # the source first, the chain in order
    assert [step[:2] for step in chain.steps] == [(1, 0), (2, 1)]


def test_slots_read_through_their_polar_take_one_mask_per_polar():
    """On ``_SHARED_POLARS`` the loops over P0 and P1 visit masks 0 and 2
    only, and the witness is still the reference's first row."""
    sys1, sys2 = _with(FormalInequality(SORTD, _A, _B)), _with(FormalInequality(SORTD, _B, _A))
    assert _SHARED_POLARS._polar1_reps == ((0, 3), (2, 2))
    assert _systems_plan((sys1, sys2)).kernel.source.count(" in Q1:") == 2
    assert system_equivalence_witness(_SHARED_POLARS, sys1, sys2) == {P[0]: 0, P[1]: 2}
    assert items(reference_witness(_SHARED_POLARS, sys1, sys2)) == [(P[0], 0), (P[1], 2)]


# -- nests deeper than CPython's block limit -------------------------------------------

def one_stable_set_frame():
    """No I-edge: each sort has one stable set, its whole carrier."""
    fr = FiniteFrame(["a0"], ["b0"], validate=False)
    assert fr.stable1 == [1] and fr.stabled == [1]
    return fr


def test_twenty_five_variable_system_compiles_and_agrees():
    fr = one_stable_set_frame()
    vs = [SortedVar(i, SORT1 if i % 2 == 0 else SORTD) for i in range(25)]
    as1 = [v if v.sort == SORT1 else Prime(v) for v in vs]
    every = reduce(Cap, as1)
    stb = vs[:22]       # the last three range over both subsets of their carrier
    same = _with(FormalInequality(SORT1, every, every), stb=stb)
    differ = _with(FormalInequality(SORT1, Cap(as1[22], as1[23]), as1[24]), stb=stb)
    source = _systems_plan((same, differ)).kernel.source
    assert_generated(source)
    assert "product(" in source and len(nest_loops(source)) == _MAX_LOOPS
    assert len(list(system_valuations(fr, (same, differ)))) == 8
    check_pair(fr, same, differ)
    assert system_equivalence_witness(fr, same, differ) is not None
    check_pair(fr, same, same)


def test_twenty_five_variable_sequent_through_the_oracle():
    fr = one_stable_set_frame()
    s = parse_dfml(" /\\ ".join(f"p{i}" for i in range(25)) + " |- p0 \\/ p24")
    for anchor, text in ((IVar(0, SORT1), "x0 = x0"), (IVar(0, SORTD), "y0 = y0")):
        for f in (parse_fo(text), NotF(parse_fo(text))):
            assert correspondence_oracle(fr, s, anchor, f) == reference_oracle(fr, s, anchor, f)
            source = _oracle_plan(s, anchor, f).source
            assert_generated(source)
            assert "product(" in source


# -- the shape of the corpus kernels ---------------------------------------------------

@lru_cache(maxsize=None)
def corpus_searches() -> tuple[tuple, tuple]:
    """The steps of every trace of the corpus searches and correspondents,
    and every system a search trace visits."""
    steps, visited = [], []
    for entry in CORPUS:
        res = compute_correspondent(parse_dfml(entry.sequent))
        for r in res.classification.successes:
            visited += [step.before for step in r.trace] + [r.system]
            steps += r.trace
        for c in res.correspondents:
            steps += c.trace
    return tuple(steps), tuple(visited)


def corpus_applications() -> dict:
    """Every rule application of the corpus searches, keyed by its two
    systems' canonical keys: each step of each trace, and each one-step move
    from a system a trace visits."""
    steps, visited = corpus_searches()
    apps = {}
    for step in steps:
        apps.setdefault((canonical_key(step.before), canonical_key(step.after)),
                        (step.before, step.after))
    for sys in visited:
        for _rule, _site, child in applicable_moves(sys):
            apps.setdefault((canonical_key(sys), canonical_key(child)), (sys, child))
    return apps


def is_polar(node) -> bool:
    """``node`` looks a local up in a polar table."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id in ("P1", "Pd") and isinstance(node.slice, ast.Name))


def shape_faults(source: str) -> list[str]:
    """The statements of a generated nest's inner loops that read only their
    own loop's slot, and the polar lookups of a local that is itself a
    polar: of a lookup, or of a loop over representatives."""
    tree = ast.parse(source)
    polars = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_polar(node.value):
            polars.add(node.targets[0].id)
        elif (isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
              and node.iter.id in ("Q1", "Qd")):
            polars.add(node.target.elts[1].id)
    faults = [ast.unparse(node) for node in ast.walk(tree)
              if is_polar(node) and node.slice.id in polars]
    reads: dict = {}        # local -> the nest loops whose targets it reads
    for depth, loop in enumerate(nest_loops(source), 1):
        for node in ast.walk(loop.target):
            if isinstance(node, ast.Name):
                reads[node.id] = {depth}
        for stmt in loop.body:
            if isinstance(stmt, ast.Assign):
                got = set().union(*(reads.get(node.id, ()) for node in ast.walk(stmt.value)
                                    if isinstance(node, ast.Name)))
                reads[stmt.targets[0].id] = got
                if depth > 1 and got == {depth}:
                    faults.append(ast.unparse(stmt))
    return faults


# The rows of the binary operators' relations, one row per pair of points.
BINARY_ROWS = {rows for rows, index, _ in _REL_ROWS.values() if len(index) == 2}


def left_masks_at_outer_loops(kernel) -> bool:
    """Whether ``kernel`` looks up a binary table's unary table of a left
    mask in one loop of its nest and indexes that table in a deeper one."""
    consts = kernel.__globals__["K"]
    binary = {name for name, i in re.findall(r"(v\d+) = fr\.op_tables\[K\[(\d+)\]\]",
                                             kernel.source)
              if consts[int(i)][0] in BINARY_ROWS}
    rows = set()        # the unary tables looked up in an outer loop
    for loop in nest_loops(kernel.source):
        stmts = [stmt for stmt in loop.body if not isinstance(stmt, ast.For)]
        if any(isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in rows
               for stmt in stmts for node in ast.walk(stmt)):
            return True
        rows |= {stmt.targets[0].id for stmt in stmts if isinstance(stmt, ast.Assign)
                 and isinstance(stmt.value, ast.Subscript)
                 and getattr(stmt.value.value, "id", None) in binary}
    return False


def test_corpus_kernels_compute_inner_nodes_once_and_close_in_one_lookup():
    """No witness kernel of a corpus rule application recomputes a node that
    reads only an inner loop's slot for each row of the outer loops, or
    looks up the polar of a polar; each of the kernel's devices occurs,
    among them a binary table's unary table of a left mask looked up at
    an outer loop and indexed at an inner one."""
    apps = corpus_applications()
    assert len(apps) > 150
    kernels = []
    for sys1, sys2 in apps.values():
        kernel = _systems_plan((sys1, sys2)).kernel
        assert shape_faults(kernel.source) == [], kernel.source
        assert "product(" not in kernel.source
        kernels.append(kernel)
    for device in (".append(", " in Q1:", "C1[", "Cd["):
        assert any(device in kernel.source for kernel in kernels), device
    assert any(map(left_masks_at_outer_loops, kernels))


def test_r6_step_with_shared_sides_compiles_to_a_kernel_without_loops():
    """An R6 step of ``box-t``'s search leaves both systems' main sides the
    same nodes: its kernel returns None without a loop, and the reference
    finds no witness on its 2+2 family either."""
    entry = next(entry for entry in CORPUS if entry.name == "box-t")
    res = compute_correspondent(parse_dfml(entry.sequent))
    step = next(st for r in res.classification.successes for st in r.trace if st.rule == "R6")
    source = _systems_plan((step.before, step.after)).kernel.source
    assert "for " not in source, source
    frames = list(enumerate_frames(2, 2, system_relations_needed(step.before, step.after),
                                   require=("F1", "F2")))
    assert len(frames) > 100
    for fr in frames:
        assert system_equivalence_witness(fr, step.before, step.after) is None
        assert reference_witness(fr, step.before, step.after) is None


# -- the check of what a step changed ------------------------------------------------

# A system for each rule that has no move from the systems a corpus search
# visits: R5.3a, R5.3b, R5.5a, R5.5b, R5.6a, R5.6b and R7b in turn.
OTHER_STARTS = tuple(map(parse_inequality_system, (
    "P0'' <=1 P0 | P1 cap (boxm P0)'' <=1 P1",
    "P^0'' <=d P^0 | P^1 cap (boxv P^0)'' <=d P^1",
    "| P2 cap boxm (P0 cap P1) <=1 P2",
    "| P^2 cap boxv (P^0 cap P^1) <=d P^2",
    "| P2 cap (P0'' cap P1'')'' <=1 P2",
    "| P2 cap (P^0 cup P^1)' <=1 P2",
    "| diav P0'' <=1 boxm P1",
)))


@lru_cache(maxsize=None)
def rule_moves() -> dict:
    """Rule -> its moves ``(before, site)`` from the systems a corpus search
    visits and from ``OTHER_STARTS``."""
    out: dict = {}
    for sys in (*corpus_searches()[1], *OTHER_STARTS):
        for rule, site, _ in applicable_moves(sys):
            out.setdefault(rule, []).append((sys, site))
    return out


def step_of(sys, rule, site):
    """``(before, after)`` of ``rule`` at ``site``, made by ``apply_rule``
    as ``applicable_moves`` makes it."""
    after = apply_rule(sys, rule, site)
    assert (rule, site, after) in applicable_moves(sys)
    return sys, after


# Frames of every size up to 2+2.
FRAMES_UP_TO_2_2 = small_frames(((1, 1), (1, 2), (2, 1), (2, 2)))


@pytest.mark.parametrize("rule", RULE_ORDER)
@given(data=st.data(), fr=FRAMES_UP_TO_2_2)
@settings(max_examples=12, deadline=None)
def test_witness_kernel_matches_reference_on_each_rules_steps(rule, data, fr):
    """Every rule's moves from real systems, among them R4, R6, R1, the
    unsound R5.9, R8 and R9: the witness is the reference's."""
    sys, site = data.draw(st.sampled_from(rule_moves()[rule]))
    check_pair(fr, *step_of(sys, rule, site))


@given(data=st.data(), fr=FRAMES_UP_TO_2_2)
@settings(max_examples=150, deadline=None)
def test_witness_kernel_matches_reference_after_random_moves(data, fr):
    """Up to three moves from a random system rich in redexes
    (``test_reduction.systems``), whose changes of variable put targets in
    the holes of many checks: at each, the witness is the reference's."""
    sys = data.draw(redex_rich_systems())
    for _ in range(data.draw(st.integers(1, 3))):
        moves = list(applicable_moves(sys))
        assume(moves)
        rule, site, _ = data.draw(st.sampled_from(moves))
        before, sys = step_of(sys, rule, site)
        check_pair(fr, before, sys)


def reads_a_target(sys1, sys2) -> bool:
    """The pair has a check of its holes, and a hole reads a
    change-of-variable target."""
    plan = _systems_plan((sys1, sys2))
    if plan.changed is None:
        return False
    targets = {plan.keys[tgt] for tgt, *_ in plan.steps}
    holes = _holes(sys1.main.lhs, sys2.main.lhs) + _holes(sys1.main.rhs, sys2.main.rhs)
    return any(v in targets for hole in holes for side in hole for v in side._occ)


def test_real_steps_reach_checks_whose_holes_read_targets():
    """The corpus has such steps (R9 and R5 steps after R6), and on their
    frames up to 2+2 the witness is the reference's."""
    steps = [step_of(sys, rule, site) for rule, moves in rule_moves().items()
             for sys, site in moves]
    reading = [step for step in steps if reads_a_target(*step)]
    assert len(reading) >= 5
    for before, after in reading:
        for fr in enumerate_frames(2, 2, system_relations_needed(before, after),
                                   sample=30, seed=3):
            check_pair(fr, before, after)


def trace_steps(name: str) -> list:
    """The steps of the search traces of corpus entry ``name``."""
    entry = next(entry for entry in CORPUS if entry.name == name)
    res = compute_correspondent(parse_dfml(entry.sequent))
    return [step for r in res.classification.successes for step in r.trace]


def has_check(step) -> bool:
    return _systems_plan((step.before, step.after)).changed is not None


def test_the_check_of_holes_is_built_below_the_sides_only():
    """K1's R5.1a, R4 and R9 steps rewrite proper subterms and each gets a
    check of its holes; weakening's R7a and R2 steps rewrite a whole side
    and get none."""
    k1 = trace_steps("k1")
    assert {step.rule for step in k1} == {"R5.1a", "R4", "R9"} and all(map(has_check, k1))
    whole = [step for step in trace_steps("weakening") if step.rule in ("R7a", "R2")]
    assert {step.rule for step in whole} == {"R7a", "R2"} and not any(map(has_check, whole))


# R5.9 below a side: the check is built, fails on some frames, and the
# whole kernel then finds the witness.
R59_BELOW = parse_inequality_system(
    "P0'' <=1 P0, P1'' <=1 P1, P2'' <=1 P2 | P2 cap (P0 rspoon P1 rspoon P2) <=1 "
    "P1 rspoon P0 rspoon P2")


def first_witness(witness, frames, sys1, sys2):
    """The index of the first of ``frames`` on which ``witness`` finds a
    valuation, and that valuation's items, or None."""
    for i, fr in enumerate(frames):
        val = witness(fr, sys1, sys2)
        if val is not None:
            return i, items(val)
    return None


def test_unsound_r59_steps_keep_the_reference_first_witness():
    """The corpus's R5.9 moves, at a side's root, and one below a side: the
    first witness frame of the 2+2 family and its row are the reference's."""
    steps = [step_of(sys, "R5.9", site) for sys, site in rule_moves()["R5.9"]]
    steps.append(step_of(R59_BELOW, "R5.9", ("lhs", (1,))))
    assert _systems_plan(steps[-1]).changed is not None
    for before, after in steps:
        frames = list(enumerate_frames(2, 2, system_relations_needed(before, after),
                                       require=("F1", "F2")))
        first = first_witness(reference_witness, frames, before, after)
        assert first is not None
        assert first_witness(system_equivalence_witness, frames, before, after) == first


def test_corpus_checks_of_holes_are_generated_nests_of_their_own():
    """Each check of holes of a corpus rule application holds only generated
    names, recomputes no inner node per outer row, and is compiled under a
    file name that no other kernel has."""
    names = []
    checks = 0
    for sys1, sys2 in corpus_applications().values():
        plan = _systems_plan((sys1, sys2))
        names.append(plan.kernel.__code__.co_filename)
        if plan.changed is not None:
            assert_generated(plan.changed.source)
            assert shape_faults(plan.changed.source) == [], plan.changed.source
            names.append(plan.changed.__code__.co_filename)
            checks += 1
    assert checks > 50 and len(set(names)) == len(names)


def test_each_kernel_is_compiled_under_a_file_name_of_its_own():
    """A profile of the generated functions tells them apart."""
    x0 = IVar(0, SORT1)
    one, two = compile_fo(Eq(x0, x0), (x0,)), compile_fo(Eq(x0, x0), (x0,))
    assert one.__code__.co_filename != two.__code__.co_filename
    assert one.__code__.co_filename.startswith("<generated evaluator ")


# -- first-order formulas as one expression ---------------------------------------------

X = [IVar(i, SORT1) for i in range(31)]


def nested_quantifiers(depth):
    """``depth`` nested quantifiers over x1, x2, ...: each level steps on
    only where its variable equals the last one, so the reference runs in
    time linear in the depth; two levels are second-order."""
    f = RelAtom(word_rel(("box", "box")), (X[depth], X[0]))
    for i in range(depth, 0, -1):
        step = Eq(X[i], X[i - 1])
        if i in (7, 20):
            p = PVar(i, SORT1)
            f = Forall2(p, OrF(NotF(PredApp(p, X[0])), Forall(X[i], ImpF(step, f))))
        elif i % 2:
            f = Forall(X[i], ImpF(step, f))
        else:
            f = Exists(X[i], AndF(step, OrF(RelAtom("R''_box", (X[i], X[0])), f)))
    return f


def test_thirty_nested_quantifiers_and_long_chains_agree_with_eval_fo():
    deep = nested_quantifiers(30)
    atoms = [Eq(X[0], X[0]), RelAtom("<=", (X[0], X[1])), RelAtom("R''_box", (X[1], X[0]))]
    conj = and_all([atoms[i % 3] for i in range(500)])
    disj = or_all([NotF(atoms[i % 3]) for i in range(500)])
    frames = list(enumerate_frames(2, 2, ("Rbox",)))
    for f, free in ((deep, X[:1]), (conj, X[:2]), (disj, X[:2])):
        compiled = compile_fo(f, free)
        assert_generated(compiled.source)
        for fr in [*frames, kripke_frame(2, r_box=[(0, 1)])]:
            for row in itertools.product(range(fr.n1), repeat=len(free)):
                assert compiled(fr, row) is eval_fo(fr, f, dict(zip(free, row)))
    source = compile_fo(deep, X[:1]).source
    assert source.count("all(") + source.count("any(") == 32    # 30 levels, 2 of them twice
    s = parse_dfml("box p |- p")
    for fr in frames:
        assert correspondence_oracle(fr, s, X[0], deep) == reference_oracle(fr, s, X[0], deep)


def test_formulas_past_the_nesting_limit_are_refused():
    deep = nested_quantifiers(30)
    for _ in range(_MAX_NESTING):
        deep = Forall(X[1], deep)
    with pytest.raises(ValueError, match=f"at most {_MAX_NESTING} are supported"):
        compile_fo(deep, X[:1])
    with pytest.raises(ValueError, match=f"at most {_MAX_NESTING} are supported"):
        correspondence_oracle(kripke_frame(1), parse_dfml("p |- p"), X[0], deep)


# -- guarded quantifiers as one table lookup --------------------------------------------

# The relations whose rows have one index: a quantifier guarded by one of
# them is one lookup in the union or box table of its rows.
GUARD_RELS = ["I", "R_dia", "R_box", "R_neg", "R'_dia", "R'_box", "R'_neg",
              "R''_dia", "R''_box", "R''_neg", "<="]


def generators(source: str) -> int:
    """The ``all``/``any`` generators of a generated source."""
    return source.count("all(") + source.count("any(")


def test_every_corpus_correspondent_agrees_with_the_per_point_reference():
    """Every correspondent of every corpus thread, plain and as printed
    under F3, through the oracle on the sequent's frames up to 2+2 (``corpus_frames``)
    and a seeded 3+3 sample, against ``local_validity`` and ``eval_fo``."""
    checked = disagreements = 0
    for entry in CORPUS:
        s = parse_dfml(entry.sequent)
        formulas = {}
        for c in compute_correspondent(s, assume_f3=True).correspondents:
            for f in (c.formula, _shown(c)):
                formulas.setdefault((c.anchor, str(f)), (c.anchor, f))
        frames = corpus_frames(s) + list(enumerate_frames(
            3, 3, relations_needed(s), sample=60, seed=23))
        for fr in frames:
            for anchor, f in formulas.values():
                want = reference_oracle(fr, s, anchor, f)
                assert correspondence_oracle(fr, s, anchor, f) == want, (entry.name, str(f))
                checked += 1
                disagreements += want is not None
    assert checked > 10_000 and disagreements and checked - disagreements


def renamed(f, v, r):
    """``f`` with every occurrence of variable ``v``, free or bound, renamed ``r``."""
    if f == v:
        return r
    if isinstance(f, tuple):
        return tuple(renamed(a, v, r) for a in f)
    if not dataclasses.is_dataclass(f) or isinstance(f, (IVar, PVar)):
        return f
    return type(f)(*(renamed(getattr(f, field.name), v, r) for field in dataclasses.fields(f)))


@lru_cache(maxsize=None)
def guarded_formulas(depth):
    """First-order formulas over every node type, as ``fo_formulas``, and
    quantifiers guarded by an atom of one-index rows, the bound variable in
    either position, whose body may or may not mention the guard's other
    variable: a mask in a union or a box table, or the per-point path."""
    leaves = st.one_of(
        st.sampled_from([TrueF(), FalseF()]),
        st.sampled_from(_IVARS).flatmap(lambda v: st.sampled_from(
            [w for w in _IVARS if w.sort == v.sort]).map(lambda w: Eq(v, w))),
        st.sampled_from(_RELS).flatmap(_atom),
        st.sampled_from(_PVARS).flatmap(lambda p: st.sampled_from(
            [v for v in _IVARS if v.sort == p.sort]).map(lambda v: PredApp(p, v))))
    if depth == 0:
        return leaves
    sub = guarded_formulas(depth - 1)

    def guard(kind, atom, which, h, outer, keep):
        """``kind u (A ... h)``, ``u`` the atom's argument ``which``, under
        ``outer``, a quantifier over the atom's other argument ``v``; unless
        ``keep``, ``v`` renamed in ``h``, which then has a mask over ``u``
        more often."""
        u, v = atom.args[which], atom.args[1 - which]
        if not keep:
            h = renamed(h, v, IVar((v.index + 1) % 3, v.sort))
        return outer(v, kind(u, (AndF if kind is Exists else ImpF)(atom, h)))

    kinds = st.sampled_from([Exists, Forall])
    guarded = st.builds(guard, kinds, st.sampled_from(GUARD_RELS).flatmap(_atom),
                        st.integers(0, 1), sub, kinds, st.booleans())
    return st.one_of(
        leaves, guarded, guarded, sub.map(NotF),
        st.builds(AndF, sub, sub), st.builds(OrF, sub, sub), st.builds(ImpF, sub, sub),
        st.builds(Forall, st.sampled_from(_IVARS), sub),
        st.builds(Exists, st.sampled_from(_IVARS), sub),
        st.builds(Forall2, st.sampled_from(_PVARS), sub))


@given(fr=separated_frames(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_compile_fo_with_guarded_quantifiers_matches_eval_fo(fr, data):
    f = data.draw(guarded_formulas(3))
    env = {v: data.draw(st.integers(0, (fr.n1 if v.sort == SORT1 else fr.nd) - 1))
           for v in _IVARS}
    penv = {p: data.draw(st.integers(0, fr.full1 if p.sort == SORT1 else fr.fulld))
            for p in _PVARS}
    free = tuple(_IVARS + _PVARS)
    compiled = compile_fo(f, free)
    assert_generated(compiled.source)
    assert compiled(fr, [env.get(v, penv.get(v)) for v in free]) is eval_fo(fr, f, env, penv)


def test_guarded_quantifiers_in_each_orientation_are_one_lookup():
    """``exists u (A /\\ h)`` and ``forall u (A -> h)`` under either
    quantifier over ``A``'s other variable ``w``, for every relation of
    one-index rows, ``u`` as its index and as its bit, with ``h`` reading
    ``u``, a free point and a predicate bound by ``forall2``: no generator
    but the ``forall2``'s, and ``eval_fo``'s value at every point of a few
    frames of both carrier sizes."""
    frames = [fr for n1, nd in ((2, 3), (3, 2)) for fr in enumerate_frames(
        n1, nd, ("Rbox", "Rdia", "Rneg"), require=("F1",), sample=30, seed=n1)]
    kinds = (Exists, Forall)
    for rel, kind, which, outer in itertools.product(GUARD_RELS, kinds, (0, 1), kinds):
        sorts = (SORT1, SORT1) if rel == "<=" else rel_signature(rel)
        args = [IVar(5, sorts[0]), IVar(6, sorts[1])]
        u, w = args[which], args[1 - which]
        z, p = IVar(7, u.sort), PVar(0, u.sort)
        h = OrF(PredApp(p, u), NotF(RelAtom("<=", (z, u))))
        guarded = kind(u, (AndF if kind is Exists else ImpF)(RelAtom(rel, tuple(args)), h))
        f = Forall2(p, outer(w, guarded))
        compiled = compile_fo(f, (z,))
        assert_generated(compiled.source)
        assert generators(compiled.source) == 1, compiled.source     # the forall2's
        for fr in frames:
            for b in range(fr.n1 if z.sort == SORT1 else fr.nd):
                assert compiled(fr, (b,)) is eval_fo(fr, f, {z: b}), (rel, kind, which, outer)


# Corpus entry -> the generators of its primary's oracle kernel: none for a
# quantifier guarded by an atom of one-index rows.  K1's one is
# ``forall x5. (x0 R_dia x5 -> ...)``, whose body reads the anchor x0.
ORACLE_GENERATORS = {"dia-t": 0, "galois-intro": 0, "dia-4": 0, "k1": 1}


def test_guarded_quantifiers_leave_no_generator_in_the_oracle_kernels():
    for entry in CORPUS:
        if entry.name in ORACLE_GENERATORS:
            s = parse_dfml(entry.sequent)
            c = compute_correspondent(s).primary
            source = _oracle_plan(s, c.anchor, _shown(c)).source
            assert_generated(source)
            assert generators(source) == ORACLE_GENERATORS[entry.name], source
    assert {entry.name for entry in CORPUS} >= ORACLE_GENERATORS.keys()


def test_a_variable_on_both_sides_of_an_atom_keeps_its_generator():
    """``x1 R''_box x1`` has no row whose bit is x1 at a fixed index, so
    the quantifier over x1 stays a loop over points, and agrees."""
    s = parse_dfml("box p |- p")
    x0, x1 = IVar(0, SORT1), IVar(1, SORT1)
    f = Exists(x1, AndF(RelAtom("<=", (x0, x1)), RelAtom("R''_box", (x1, x1))))
    source = _oracle_plan(s, x0, f).source
    assert generators(source) == 1 and "any(" in source, source
    for fr in enumerate_frames(2, 2, ("Rbox",)):
        assert correspondence_oracle(fr, s, x0, f) == reference_oracle(fr, s, x0, f)
