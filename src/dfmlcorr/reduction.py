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
from dataclasses import dataclass

from .syntax import (
    SORT1, SORTD, BTDown, BoxD, Box1, BoxMinus, BoxVert, Cap, Cup, DiaMinus,
    DiaVert, Odot, Positivity, Prime, RSpoon, SBot, STop, Sequent,
    SortedFormula, SortedVar, TDown, TRight, children, flip, occurrences,
    positive_occurrences, prime_depths, rebuild, replace_at, rspoon_free,
    shape, sorted_to_text, sorted_vars, subterms,
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
        # Systems key memoised semantic plans.  Sorted nodes hash by
        # identity, but a fresh hash still calls each constraint's and the
        # inequality's dataclass hash: about 9% of a rule audit.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.stb, self.cvc, self.main, self.fresh_counter))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self) -> str:
        cs = ", ".join([str(c) for c in self.stb] + [str(c) for c in self.cvc])
        return f"< {cs} | {self.main} >" if cs else f"< | {self.main} >"

    def constrained(self) -> frozenset[SortedVar]:
        # Every rewrite matcher reads this set; build it once per system.
        try:
            return self._constrained
        except AttributeError:
            cons = frozenset([c.var for c in self.stb] + [c.var for c in self.cvc])
            object.__setattr__(self, "_constrained", cons)
            return cons


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
    occurring = [v.index for c in stb for v in (c.var,)]
    occurring += [v.index for c in cvc for v in (c.var, c.source)]
    occurring += [v.index for v in sorted_vars(main.lhs) + sorted_vars(main.rhs)]
    return InequalitySystem(tuple(stb), tuple(cvc), main, 1 + max(occurring, default=-1))


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    before: InequalitySystem
    after: InequalitySystem


ReductionTrace = tuple[ReductionStep, ...]


def canonical_key(sys: InequalitySystem) -> tuple:
    """Structure key, insensitive to variable numbering within each sort.

    The shapes of the two sides (interned, so compared by identity) and
    each variable occurrence numbered by the first occurrence of its
    variable, in pre-order of the main inequality and then the constraints.
    Its cost is the number of variable occurrences."""
    main = sys.main
    order: dict[SortedVar, int] = {}
    occ = tuple([order.setdefault(v, len(order))
                 for v in occurrences(main.lhs) + occurrences(main.rhs)])

    def num(v: SortedVar) -> tuple[str, int]:
        return (v.sort, order.setdefault(v, len(order)))

    stb = tuple(sorted(num(c.var) for c in sys.stb))
    cvc = tuple(sorted((num(c.var), num(c.source)) for c in sys.cvc))
    return (stb, cvc, shape(main.lhs), main.sort, shape(main.rhs), occ)


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
    if not (rspoon_free(ineq.rhs) and rspoon_free(ineq.lhs) and _simple_premiss(ineq.lhs)):
        return False
    return all(positive_occurrences(ineq.rhs, v) != Positivity.MIXED
               for v in sorted_vars(ineq.rhs))


def is_canonical_form(sys: InequalitySystem) -> bool:
    """Simple Sahlqvist main inequality, and every constrained variable occurs
    only unprimed in it (it may still sit inside a primed compound)."""
    if not is_simple_sahlqvist(sys.main):
        return False
    depths = prime_depths(sys.main.lhs, sys.main.rhs)
    return all(d == 0 for v in sys.constrained() for d in depths.get(v, ()))


# ---------------------------------------------------------------------------
# Syntactic stability (used by the closure-stripping rules)
# ---------------------------------------------------------------------------

def g_stable(f: SortedFormula) -> bool:
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
        return g_stable(f.left) and g_stable(f.right)
    if isinstance(f, (BoxMinus, BoxVert, BTDown, BoxD)):
        return g_stable(f.arg)
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


# Rewrite rules.  A matcher takes a node that the dispatch tables below send
# to its rule and the system's constrained variables, and returns the rule's
# right-hand side at that redex, or None when the node does not match.  It
# reads nothing else, so the redexes of a side depend on the side and the
# constrained set alone.

def _box_of_closed(box):
    """R5.1a/b: (dia X')' rewrites to box X''."""
    def match(node, cons):
        inner = node.arg.arg
        if isinstance(inner, Prime):
            return box(Prime(Prime(inner.arg)))
        return None
    return match


def _box_of_constrained(box):
    """R5.2a/b and R5.7b: (dia P)' rewrites to box P' for a constrained P."""
    def match(node, cons):
        var = node.arg.arg
        if isinstance(var, SortedVar) and var in cons:
            return box(Prime(var))
        return None
    return match


def _unclosed_box(box):
    """R5.3a/b: (box P)'' rewrites to box P for a constrained P."""
    def match(node, cons):
        inner = node.arg.arg
        if isinstance(inner, box) and isinstance(inner.arg, SortedVar) and inner.arg in cons:
            return inner
        return None
    return match


def _triple_prime(node, cons):
    """R5.4: P''' rewrites to P'."""
    inner = node.arg.arg
    if isinstance(inner, Prime) and isinstance(inner.arg, SortedVar):
        return inner
    return None


def _box_over_cap(box):
    """R5.5a/b: box (X cap Y) rewrites to box X cap box Y."""
    def match(node, cons):
        if isinstance(node.arg, Cap):
            return Cap(box(node.arg.left), box(node.arg.right))
        return None
    return match


def _closure_over_cap(node, cons):
    """R5.6a: (X cap Y)'' rewrites to X'' cap Y''.  Closure distributes over
    an intersection of stable-valued terms only; over arbitrary terms the two
    sides can differ."""
    cap = node.arg.arg
    if isinstance(cap, Cap) and g_stable(cap.left) and g_stable(cap.right):
        return Cap(Prime(Prime(cap.left)), Prime(Prime(cap.right)))
    return None


def _prime_of_cup(node, cons):
    """R5.6b: (X cup Y)' rewrites to X' cap Y'."""
    return Cap(Prime(node.arg.left), Prime(node.arg.right))


def _tdown_of_closed(node, cons):
    """R5.7a: (tdown X'')' rewrites to btdown X'."""
    inner = node.arg.arg
    if isinstance(inner, Prime) and isinstance(inner.arg, Prime):
        return BTDown(Prime(inner.arg.arg))
    return None


def _rspoon_of_constrained(node, cons):
    """R5.8: P rspoon Q rewrites to (P tright Q')' for constrained P and Q."""
    if isinstance(node.left, SortedVar) and isinstance(node.right, SortedVar) \
            and node.left in cons and node.right in cons:
        return Prime(TRight(node.left, Prime(node.right)))
    return None


def _rspoon_rebracket(node, cons):
    """R5.9: P2 rspoon (P1 rspoon Q) rewrites to (P1 odot P2) rspoon Q."""
    right = node.right
    if isinstance(node.left, SortedVar) and isinstance(right, RSpoon) \
            and isinstance(right.left, SortedVar) and isinstance(right.right, SortedVar):
        return RSpoon(Odot(right.left, node.left), right.right)
    return None


_REWRITES = {
    "R5.1a": _box_of_closed(BoxMinus), "R5.1b": _box_of_closed(BoxVert),
    "R5.2a": _box_of_constrained(BoxMinus), "R5.2b": _box_of_constrained(BoxVert),
    "R5.3a": _unclosed_box(BoxMinus), "R5.3b": _unclosed_box(BoxVert),
    "R5.4": _triple_prime,
    "R5.5a": _box_over_cap(BoxMinus), "R5.5b": _box_over_cap(BoxVert),
    "R5.6a": _closure_over_cap, "R5.6b": _prime_of_cup,
    "R5.7a": _tdown_of_closed, "R5.7b": _box_of_constrained(BTDown),
    "R5.8": _rspoon_of_constrained, "R5.9": _rspoon_rebracket,
}

# The rewrite rules that can match a node: a Prime node by the type of its
# argument, any other node by its own type.
_PRIMED_DISPATCH = {
    DiaMinus: ("R5.1a", "R5.2a"), DiaVert: ("R5.1b", "R5.2b"),
    Prime: ("R5.3a", "R5.3b", "R5.4", "R5.6a"), Cup: ("R5.6b",),
    TDown: ("R5.7a", "R5.7b"),
}
_DISPATCH = {BoxMinus: ("R5.5a",), BoxVert: ("R5.5b",), RSpoon: ("R5.8", "R5.9")}


def _rules_at(node: SortedFormula) -> tuple[str, ...]:
    if isinstance(node, Prime):
        return _PRIMED_DISPATCH.get(type(node.arg), ())
    return _DISPATCH.get(type(node), ())


class _SearchMemo:
    """What one ``reduce_search`` reuses across the systems it expands: the
    redexes of a side under a constrained set, and R4/R6 substitutions.
    Keys hold interned nodes, so a key names one tree for as long as the
    memo lives, which is as long as its search."""

    def __init__(self):
        self.redexes: dict = {}
        self.subst: dict = {}


# The memo of the running ``reduce_search``, None outside one.  It is module
# state, set and reset by ``reduce_search`` alone, so that the search reaches
# each system through ``applicable_moves(sys)`` like every other caller.
_memo: _SearchMemo | None = None


def _redexes(root: SortedFormula, cons: frozenset[SortedVar]) -> dict[str, list]:
    """Every rewrite redex of one side, from one pre-order walk:
    rule -> [(path, rewritten node)] in path order."""
    table = {} if _memo is None else _memo.redexes
    key = (root, cons)
    found = table.get(key)
    if found is None:
        found = table[key] = {}
        for path, node in subterms(root):
            for rule in _rules_at(node):
                new = _REWRITES[rule](node, cons)
                if new is not None:
                    found.setdefault(rule, []).append((path, new))
    return found


def _rewritten(sys: InequalitySystem, side: str, path: tuple[int, ...],
               new: SortedFormula) -> InequalitySystem:
    main = sys.main
    if side == "lhs":
        return _with_main(sys, main.sort, replace_at(main.lhs, path, new), main.rhs)
    return _with_main(sys, main.sort, main.lhs, replace_at(main.rhs, path, new))


def _with_main(sys: InequalitySystem, sort: str, lhs: SortedFormula,
               rhs: SortedFormula) -> InequalitySystem:
    return InequalitySystem(sys.stb, sys.cvc, FormalInequality(sort, lhs, rhs),
                            sys.fresh_counter)


def _subst_var_under_primes(f: SortedFormula, var: SortedVar, depth: int,
                            new: SortedFormula) -> SortedFormula:
    """Replace each occurrence of var under exactly ``depth`` primes by ``new``."""
    if var not in occurrences(f):
        return f
    table = {} if _memo is None else _memo.subst
    key = (f, var, depth, new)
    out = table.get(key)
    if out is None:
        if _is_prime_chain(f, var, depth):
            out = new
        elif isinstance(f, SortedVar):
            out = f
        else:
            out = rebuild(f, [_subst_var_under_primes(k, var, depth, new) for k in children(f)])
        table[key] = out
    return out


def _is_prime_chain(g: SortedFormula, var: SortedVar, depth: int) -> bool:
    for _ in range(depth):
        if not isinstance(g, Prime):
            return False
        g = g.arg
    return isinstance(g, SortedVar) and g == var


# Rules on the whole system.  Each takes the system and ``_var_depths`` of
# its main inequality, and yields (site, child).

def _r4(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    for var, ds in depths.items():
        if var in sys.constrained():
            continue
        if all(d == 2 for d in ds):
            new_main = FormalInequality(
                main.sort,
                _subst_var_under_primes(main.lhs, var, 2, var),
                _subst_var_under_primes(main.rhs, var, 2, var))
            yield var, InequalitySystem(sys.stb + (StabilityConstraint(var),), sys.cvc,
                                        new_main, sys.fresh_counter)


def _r6(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    for var, ds in depths.items():
        if all(d == 1 for d in ds):
            fresh = SortedVar(sys.fresh_counter, flip(var.sort))
            new_main = FormalInequality(
                main.sort,
                _subst_var_under_primes(main.lhs, var, 1, fresh),
                _subst_var_under_primes(main.rhs, var, 1, fresh))
            yield var, InequalitySystem(sys.stb, sys.cvc + (ChangeOfVariables(fresh, var),),
                                        new_main, sys.fresh_counter + 1)


def _r1(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    for i, c in enumerate(sys.stb):
        if c.var not in depths:
            yield i, InequalitySystem(sys.stb[:i] + sys.stb[i + 1:], sys.cvc, sys.main,
                                      sys.fresh_counter)


def _r2(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    if _is_pp(main.lhs) and all(g_stable(c) for c in _cap_conjuncts(main.rhs)):
        yield None, _with_main(sys, main.sort, main.lhs.arg.arg, main.rhs)


def _r3(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    if _is_pp(main.lhs) and _is_pp(main.rhs):
        yield None, _with_main(sys, main.sort, main.lhs.arg.arg, main.rhs)


def _r7a(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    if isinstance(main.rhs, RSpoon):
        yield None, _with_main(sys, SORT1, Odot(main.rhs.left, main.lhs), main.rhs.right)


def _r7b(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    if isinstance(main.lhs, DiaVert) and _is_pp(main.lhs.arg):
        yield None, _with_main(sys, SORT1, main.lhs.arg, Box1(main.rhs))


def _r7c(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    if isinstance(main.lhs, DiaMinus) and _is_pp(main.lhs.arg):
        yield None, _with_main(sys, SORTD, main.lhs.arg, BoxD(main.rhs))


def _r8(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    if isinstance(main.lhs, RSpoon) and isinstance(main.rhs, RSpoon) \
            and isinstance(main.lhs.right, SortedVar) \
            and main.lhs.right == main.rhs.right:
        p = main.lhs.right
        zeta, xi = main.lhs.left, main.rhs.left
        if p not in occurrences(zeta) and p not in occurrences(xi):
            yield None, _with_main(sys, main.sort, xi, zeta)


def _r9(sys: InequalitySystem, depths: dict[SortedVar, list[int]]):
    main = sys.main
    if isinstance(main.lhs, Cap):
        sides = [(main.lhs.left, main.lhs.right, 0), (main.lhs.right, main.lhs.left, 1)]
        for cand, other, which in sides:
            if _is_pp(cand) and _is_boxplus_atom(other, sys) \
                    and all(g_stable(c) for c in _cap_conjuncts(main.rhs)):
                kids = [None, None]
                kids[which] = cand.arg.arg
                kids[1 - which] = other
                yield which, _with_main(sys, main.sort, Cap(kids[0], kids[1]), main.rhs)


_SYSTEM_RULES = {"R4": _r4, "R6": _r6, "R1": _r1, "R2": _r2, "R3": _r3,
                 "R7a": _r7a, "R7b": _r7b, "R7c": _r7c, "R8": _r8, "R9": _r9}


def applicable_moves(sys: InequalitySystem):
    """All rule applications in deterministic (rule, site) order.

    One walk per side finds every rewrite redex (within a search, once per
    side and constrained set); each child system is built only when it is
    yielded, since the search may stop at the first."""
    cons = sys.constrained()
    sides = (("lhs", _redexes(sys.main.lhs, cons)), ("rhs", _redexes(sys.main.rhs, cons)))
    depths = _var_depths(sys.main)
    for rule in RULE_ORDER:
        if rule in _REWRITES:
            for side, redexes in sides:
                for path, new in redexes.get(rule, ()):
                    yield rule, (side, path), _rewritten(sys, side, path, new)
        else:
            for site, child in _SYSTEM_RULES[rule](sys, depths):
                yield rule, site, child


def _var_depths(main: FormalInequality) -> dict[SortedVar, list[int]]:
    """``prime_depths`` of both sides, the variables ordered by (sort, index)."""
    depths = prime_depths(main.lhs, main.rhs)
    return {v: depths[v] for v in sorted(depths, key=lambda v: (v.sort, v.index))}


def _is_pp(f: SortedFormula) -> bool:
    return isinstance(f, Prime) and isinstance(f.arg, Prime)


def _is_boxplus_atom(f: SortedFormula, sys: InequalitySystem) -> bool:
    return isinstance(f, (BoxMinus, BoxVert)) and isinstance(f.arg, SortedVar) \
        and f.arg in sys.constrained()


def _node_at(sys: InequalitySystem, site) -> SortedFormula | None:
    """The subterm a rewrite site (side, path) names, else None."""
    if not (isinstance(site, tuple) and len(site) == 2 and site[0] in ("lhs", "rhs")
            and isinstance(site[1], tuple)):
        return None
    node = getattr(sys.main, site[0])
    for i in site[1]:
        kids = children(node)
        if not (isinstance(i, int) and 0 <= i < len(kids)):
            return None
        node = kids[i]
    return node


def apply_rule(sys: InequalitySystem, rule: str, site) -> InequalitySystem | None:
    """One rule application at the named site; None when inapplicable.

    A rewrite rule is matched at that site alone; a rule on the whole system
    is looked up among that rule's own applications."""
    if rule in _REWRITES:
        node = _node_at(sys, site)
        if node is None or rule not in _rules_at(node):
            return None
        new = _REWRITES[rule](node, sys.constrained())
        return None if new is None else _rewritten(sys, site[0], site[1], new)
    if rule in _SYSTEM_RULES:
        for s, child in _SYSTEM_RULES[rule](sys, _var_depths(sys.main)):
            if s == site:
                return child
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
    Redexes and substitutions are memoised for this search alone.
    """
    global _memo
    _memo = _SearchMemo()
    try:
        return _search(start, max_nodes)
    finally:
        _memo = None


def _search(start: FormalInequality | InequalitySystem, max_nodes: int):
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
            if rule not in _REWRITES:
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
