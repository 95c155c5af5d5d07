"""Abstract syntax for the three languages the engine manipulates.

* the modal source language (propositional variables, lattice connectives,
  box, diamond, a weak negation and an implication),
* its two-sorted companion language interpreted in sorted residuated frames,
* the sorted first-/second-order frame language used for correspondents.

Each language comes with a printer and a parser over a small ASCII grammar
(documented in docs/grammar.md).  Printing then parsing any well-sorted tree
yields a structurally identical tree.
"""
from __future__ import annotations

import enum
import re
import weakref
from dataclasses import dataclass, fields, replace

SORT1 = "1"
SORTD = "d"


def flip(sort: str) -> str:
    return SORTD if sort == SORT1 else SORT1


class SortError(Exception):
    """Raised when an ill-sorted tree would be constructed."""


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Modal source language
# ---------------------------------------------------------------------------

# Children of a modal or first-order node, read from the fields its class
# names in ``_subs``; a sorted node stores its tuple once (``_cache_facts``).
_kids_of_subs = property(lambda self: tuple(getattr(self, name) for name in self._subs))


class DfmlFormula:
    _subs: tuple[str, ...] = ()
    _kids = _kids_of_subs

    def __str__(self) -> str:
        return dfml_to_text(self)


@dataclass(frozen=True)
class PropVar(DfmlFormula):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("propositional variable index must be >= 0")


@dataclass(frozen=True)
class Top(DfmlFormula):
    pass


@dataclass(frozen=True)
class Bot(DfmlFormula):
    pass


@dataclass(frozen=True)
class And(DfmlFormula):
    left: DfmlFormula
    right: DfmlFormula
    _subs = ("left", "right")


@dataclass(frozen=True)
class Or(DfmlFormula):
    left: DfmlFormula
    right: DfmlFormula
    _subs = ("left", "right")


@dataclass(frozen=True)
class Box(DfmlFormula):
    arg: DfmlFormula
    _subs = ("arg",)


@dataclass(frozen=True)
class Dia(DfmlFormula):
    arg: DfmlFormula
    _subs = ("arg",)


@dataclass(frozen=True)
class Neg(DfmlFormula):
    """The weak (quasi-complement) negation."""

    arg: DfmlFormula
    _subs = ("arg",)


@dataclass(frozen=True)
class Imp(DfmlFormula):
    left: DfmlFormula
    right: DfmlFormula
    _subs = ("left", "right")


@dataclass(frozen=True)
class Sequent:
    lhs: DfmlFormula
    rhs: DfmlFormula

    def __str__(self) -> str:
        return f"{dfml_to_text(self.lhs)} |- {dfml_to_text(self.rhs)}"


def dfml_vars(f: DfmlFormula) -> list[int]:
    """Variable indices in first-occurrence order."""
    out: list[int] = []

    def walk(g: DfmlFormula) -> None:
        if isinstance(g, PropVar):
            if g.index not in out:
                out.append(g.index)
        for name in g._subs:
            walk(getattr(g, name))

    walk(f)
    return out


# ---------------------------------------------------------------------------
# Sorted companion language
# ---------------------------------------------------------------------------

# Every sorted node is interned: constructing a node structurally equal to a
# live one returns that object, so equality and hashing are by identity and
# the facts below are computed once per node, when it is first built.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class SortedFormula:
    _subs: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()
    sort: str
    # Facts of a leaf; a compound node stores its own in ``_cache_facts``.
    # No node stores a reference to itself, which would make a cycle that
    # only the cycle collector frees: ``_shape`` is None when the node is its
    # own shape, and a variable's ``_occ`` is a property.  ``_depths`` is
    # aligned with ``_occ``: the primes immediately above each occurrence.
    _kids: tuple = ()
    _occ: tuple = ()
    _depths: tuple = ()
    _rspoon_free = True
    _shape = None

    def __new__(cls, *args, **kwargs):
        """The interned node of ``cls`` with these fields, built, checked by
        ``__post_init__`` and entered in ``_INTERNED`` if there is none; a
        construction that raises enters nothing."""
        if kwargs:
            rest = cls._fields[len(args):]
            if kwargs.keys() != set(rest):
                raise _fields_error(cls)
            args += tuple(kwargs[name] for name in rest)
        key = (cls, *args)
        node = _INTERNED.get(key)
        if node is None:
            if len(args) != len(cls._fields):
                raise _fields_error(cls)
            node = object.__new__(cls)
            node.__dict__.update(zip(cls._fields, args))
            node.__post_init__()
            node._cache_facts()
            _INTERNED[key] = node
        return node

    def __str__(self) -> str:
        return sorted_to_text(self)

    def __reduce__(self):
        # copy, deepcopy and unpickling construct again: the interned node
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _cache_facts(self) -> None:
        kids = tuple(getattr(self, name) for name in self._subs)
        if not kids:
            return
        facts = self.__dict__
        facts["_kids"] = kids
        if len(kids) == 1:
            facts["_occ"] = kids[0]._occ
            if isinstance(self, Prime) and _is_chain(kids[0]):
                facts["_depths"] = (kids[0]._depths[0] + 1,)
            else:
                facts["_depths"] = kids[0]._depths
        else:
            facts["_occ"] = kids[0]._occ + kids[1]._occ
            facts["_depths"] = kids[0]._depths + kids[1]._depths
        if isinstance(self, RSpoon) or not all(k._rspoon_free for k in kids):
            facts["_rspoon_free"] = False
        shapes = tuple(k._shape or k for k in kids)
        if shapes != kids:
            facts["_shape"] = type(self)(*shapes)


def _is_chain(f: SortedFormula) -> bool:
    """``f`` is a variable under zero or more primes."""
    while isinstance(f, Prime):
        f = f.arg
    return isinstance(f, SortedVar)


def _fields_error(cls) -> TypeError:
    return TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields)}")


def _node(cls):
    """A sorted node class: a frozen dataclass, compared by identity, whose
    instances ``SortedFormula.__new__`` interns."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    cls._fields = tuple(f.name for f in fields(cls))
    return cls


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SortError(msg)


@_node
class SortedVar(SortedFormula):
    index: int
    sort: str
    _depths = (0,)

    def __post_init__(self):
        _require(self.sort in (SORT1, SORTD), "bad sort tag")
        if self.index < 0:
            raise ValueError("variable index must be >= 0")

    @property
    def _occ(self) -> tuple:
        return (self,)

    def _cache_facts(self) -> None:
        if self.index:
            self.__dict__["_shape"] = SortedVar(0, self.sort)


@_node
class STop(SortedFormula):
    sort: str

    def __post_init__(self):
        _require(self.sort in (SORT1, SORTD), "bad sort tag")


@_node
class SBot(SortedFormula):
    sort: str

    def __post_init__(self):
        _require(self.sort in (SORT1, SORTD), "bad sort tag")


@_node
class Cap(SortedFormula):
    left: SortedFormula
    right: SortedFormula
    _subs = ("left", "right")

    def __post_init__(self):
        _require(self.left.sort == self.right.sort, "cap needs equal sorts")
        self.__dict__["sort"] = self.left.sort


@_node
class Cup(SortedFormula):
    left: SortedFormula
    right: SortedFormula
    _subs = ("left", "right")

    def __post_init__(self):
        _require(self.left.sort == self.right.sort, "cup needs equal sorts")
        self.__dict__["sort"] = self.left.sort


@_node
class Prime(SortedFormula):
    """Galois-connection map; flips the sort."""

    arg: SortedFormula
    _subs = ("arg",)

    def __post_init__(self):
        self.__dict__["sort"] = flip(self.arg.sort)


def _unary(name: str, arg_sort: str, res_sort: str):
    @_node
    class Node(SortedFormula):
        arg: SortedFormula
        _subs = ("arg",)
        sort = res_sort

        def __post_init__(self):
            _require(self.arg.sort == arg_sort,
                     f"{name} needs a sort-{arg_sort} argument")

    Node.__name__ = Node.__qualname__ = name
    return Node


DiaVert = _unary("DiaVert", SORT1, SORT1)      # diamond from the R_dia image
DiaMinus = _unary("DiaMinus", SORTD, SORTD)    # diamond from the R_box image
Box1 = _unary("Box1", SORT1, SORT1)            # right residual of DiaVert
BoxD = _unary("BoxD", SORTD, SORTD)            # right residual of DiaMinus
BoxMinus = _unary("BoxMinus", SORT1, SORT1)    # box over R''_box
BoxVert = _unary("BoxVert", SORTD, SORTD)      # box over R''_dia
TDown = _unary("TDown", SORT1, SORTD)          # additive image of R_neg
BTDown = _unary("BTDown", SORTD, SORT1)        # box over R''_neg


@_node
class Odot(SortedFormula):
    left: SortedFormula
    right: SortedFormula
    _subs = ("left", "right")
    sort = SORT1

    def __post_init__(self):
        _require(self.left.sort == SORT1 and self.right.sort == SORT1,
                 "odot needs sort-1 arguments")


@_node
class RSpoon(SortedFormula):
    left: SortedFormula
    right: SortedFormula
    _subs = ("left", "right")
    sort = SORT1

    def __post_init__(self):
        _require(self.left.sort == SORT1 and self.right.sort == SORT1,
                 "rspoon needs sort-1 arguments")


@_node
class TRight(SortedFormula):
    left: SortedFormula       # sort 1
    right: SortedFormula      # sort d
    _subs = ("left", "right")
    sort = SORTD

    def __post_init__(self):
        _require(self.left.sort == SORT1, "tright needs a sort-1 left argument")
        _require(self.right.sort == SORTD, "tright needs a sort-d right argument")


@dataclass(frozen=True)
class SortedSequent:
    sort: str
    lhs: SortedFormula
    rhs: SortedFormula

    def __post_init__(self):
        _require(self.lhs.sort == self.sort and self.rhs.sort == self.sort,
                 "sequent sides must match the declared sort")

    def __str__(self) -> str:
        sep = "|-1" if self.sort == SORT1 else "|-d"
        return f"{sorted_to_text(self.lhs)} {sep} {sorted_to_text(self.rhs)}"


def children(f) -> tuple:
    """The subformulas of a node of any of the three languages, in field order."""
    return f._kids


def rebuild(f, kids):
    """``f`` with its subformulas replaced by ``kids``."""
    if not f._subs:
        return f
    if isinstance(f, SortedFormula):
        return type(f)(*kids)
    return replace(f, **dict(zip(f._subs, kids)))


def subterms(f: SortedFormula):
    """Yield (path, node) pairs in pre-order; paths index into children."""
    stack = [((), f)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = node._kids
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def replace_at(f: SortedFormula, path: tuple[int, ...], new: SortedFormula) -> SortedFormula:
    if not path:
        return new
    kids = list(f._kids)
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild(f, kids)


def occurrences(f: SortedFormula) -> tuple[SortedVar, ...]:
    """Every variable occurrence of ``f``, in pre-order."""
    return f._occ


def shape(f: SortedFormula) -> SortedFormula:
    """``f`` with every variable renamed to index 0 of its sort."""
    return f._shape or f


def sorted_vars(f: SortedFormula) -> list[SortedVar]:
    """Variables in first-occurrence order."""
    return list(dict.fromkeys(f._occ))


def prime_depths(*roots: SortedFormula) -> dict[SortedVar, list[int]]:
    """Each variable of ``roots`` in first-occurrence order, with the number
    of Prime nodes immediately above each of its occurrences."""
    out: dict[SortedVar, list[int]] = {}
    for root in roots:
        for var, depth in zip(root._occ, root._depths):
            out.setdefault(var, []).append(depth)
    return out


class Positivity(enum.Enum):
    ALL_POSITIVE = "all-positive"
    MIXED = "mixed"
    ABSENT = "absent"


def positive_occurrences(f: SortedFormula, var: SortedVar) -> Positivity:
    """Classify the occurrences of ``var`` by priming parity.

    An occurrence is positive iff it sits under an even number of Prime
    nodes.  Only defined for the language without rspoon.
    """
    parities: list[int] = []

    def walk(g: SortedFormula, primes: int) -> None:
        if isinstance(g, RSpoon):
            raise SortError("positivity is undefined for formulas containing rspoon")
        if isinstance(g, SortedVar):
            if g == var:
                parities.append(primes)
            return
        if isinstance(g, Prime):
            walk(g.arg, primes + 1)
            return
        for kid in children(g):
            walk(kid, primes)

    walk(f, 0)
    if not parities:
        return Positivity.ABSENT
    if all(p % 2 == 0 for p in parities):
        return Positivity.ALL_POSITIVE
    return Positivity.MIXED


def rspoon_free(f: SortedFormula) -> bool:
    return f._rspoon_free


# ---------------------------------------------------------------------------
# Sorted first/second-order frame language
# ---------------------------------------------------------------------------

# Relation signatures: result position first, as in the frame definition.
REL_SIG: dict[str, tuple[str, ...]] = {
    "I": (SORT1, SORTD),
    "R_dia": (SORT1, SORT1),
    "R_box": (SORTD, SORTD),
    "R_neg": (SORTD, SORT1),
    "T": (SORTD, SORT1, SORTD),
    "R'_dia": (SORTD, SORT1),
    "R'_box": (SORT1, SORTD),
    "R'_neg": (SORT1, SORT1),
    "T'": (SORT1, SORT1, SORTD),
    "R''_dia": (SORTD, SORTD),
    "R''_box": (SORT1, SORT1),
    "R''_neg": (SORT1, SORTD),
    "R111": (SORT1, SORT1, SORT1),
    "<=": None,  # sort-polymorphic, both arguments of one sort
}

_WORD_TARGET = {"box": SORT1, "neg": SORTD, "dia": SORTD}
_WORD_SOURCE = {"box": SORT1, "neg": SORT1, "dia": SORTD}


def word_rel(letters: tuple[str, ...]) -> str:
    """Composite double-dual relation name for a string of box letters."""
    if not letters:
        raise ValueError("empty box word")
    for a, b in zip(letters, letters[1:]):
        if _WORD_TARGET[a] != _WORD_SOURCE[b]:
            raise SortError(f"box word {letters} is ill-sorted")
    return "R''_" + ".".join(letters)


def rel_signature(name: str) -> tuple[str, ...]:
    if name in REL_SIG and REL_SIG[name] is not None:
        return REL_SIG[name]
    if name.startswith("R''_"):
        letters = tuple(name[4:].split("."))
        return (_WORD_SOURCE[letters[0]], _WORD_TARGET[letters[-1]])
    raise ValueError(f"unknown relation symbol {name!r}")


@dataclass(frozen=True)
class IVar:
    """Sorted individual variable; prints as x<i> (sort 1) or y<i> (sort d)."""

    index: int
    sort: str

    def __str__(self) -> str:
        return f"{'x' if self.sort == SORT1 else 'y'}{self.index}"


@dataclass(frozen=True)
class PVar:
    """Sorted predicate variable; prints as P<i> (sort 1) or P^<i> (sort d)."""

    index: int
    sort: str

    def __str__(self) -> str:
        return f"P{self.index}" if self.sort == SORT1 else f"P^{self.index}"


class FoFormula:
    _subs: tuple[str, ...] = ()
    _kids = _kids_of_subs

    def __str__(self) -> str:
        return fo_to_text(self)


@dataclass(frozen=True)
class RelAtom(FoFormula):
    rel: str
    args: tuple[IVar, ...]

    def __post_init__(self):
        if self.rel == "<=":
            _require(len(self.args) == 2 and self.args[0].sort == self.args[1].sort,
                     "<= needs two terms of one sort")
            return
        sig = rel_signature(self.rel)
        _require(len(self.args) == len(sig), f"{self.rel} arity mismatch")
        for t, s in zip(self.args, sig):
            _require(t.sort == s, f"{self.rel} argument sort mismatch")


def Leq(t1: IVar, t2: IVar) -> RelAtom:
    return RelAtom("<=", (t1, t2))


@dataclass(frozen=True)
class Eq(FoFormula):
    t1: IVar
    t2: IVar

    def __post_init__(self):
        _require(self.t1.sort == self.t2.sort, "= needs terms of one sort")

    @property
    def sort(self) -> str:
        return self.t1.sort


@dataclass(frozen=True)
class PredApp(FoFormula):
    var: PVar
    arg: IVar

    def __post_init__(self):
        _require(self.var.sort == self.arg.sort, "predicate/argument sort mismatch")


@dataclass(frozen=True)
class TrueF(FoFormula):
    pass


@dataclass(frozen=True)
class FalseF(FoFormula):
    pass


@dataclass(frozen=True)
class NotF(FoFormula):
    arg: FoFormula
    _subs = ("arg",)


@dataclass(frozen=True)
class AndF(FoFormula):
    left: FoFormula
    right: FoFormula
    _subs = ("left", "right")


@dataclass(frozen=True)
class OrF(FoFormula):
    left: FoFormula
    right: FoFormula
    _subs = ("left", "right")


@dataclass(frozen=True)
class ImpF(FoFormula):
    left: FoFormula
    right: FoFormula
    _subs = ("left", "right")


@dataclass(frozen=True)
class Forall(FoFormula):
    var: IVar
    body: FoFormula
    _subs = ("body",)


@dataclass(frozen=True)
class Exists(FoFormula):
    var: IVar
    body: FoFormula
    _subs = ("body",)


@dataclass(frozen=True)
class Forall2(FoFormula):
    """Second-order universal quantifier over a predicate variable."""

    var: PVar
    body: FoFormula
    _subs = ("body",)


@dataclass(frozen=True)
class LambdaPredicate:
    """One-argument predicate abstraction used for minimal instantiation."""

    param: IVar
    body: FoFormula

    def __str__(self) -> str:
        return f"lam {self.param}. ({fo_to_text(self.body)})"


def and_all(conjs: list[FoFormula]) -> FoFormula:
    if not conjs:
        return TrueF()
    out = conjs[0]
    for c in conjs[1:]:
        out = AndF(out, c)
    return out


def or_all(disjs: list[FoFormula]) -> FoFormula:
    if not disjs:
        return FalseF()
    out = disjs[0]
    for d in disjs[1:]:
        out = OrF(out, d)
    return out


def free_ivars(f: FoFormula) -> set[IVar]:
    if isinstance(f, (RelAtom,)):
        return set(f.args)
    if isinstance(f, Eq):
        return {f.t1, f.t2}
    if isinstance(f, PredApp):
        return {f.arg}
    if isinstance(f, (Forall, Exists)):
        return free_ivars(f.body) - {f.var}
    out: set[IVar] = set()
    for kid in children(f):
        out |= free_ivars(kid)
    return out


def fo_alpha_key(f: FoFormula, env: dict | None = None, counter: list | None = None):
    """Canonical key for alpha-equivalence comparison of formulas."""
    env = env or {}
    counter = counter if counter is not None else [0]

    def term(t: IVar):
        return env.get(t, ("free", t.sort, t.index))

    if isinstance(f, RelAtom):
        return ("rel", f.rel) + tuple(term(t) for t in f.args)
    if isinstance(f, Eq):
        return ("eq", term(f.t1), term(f.t2))
    if isinstance(f, PredApp):
        return ("app", env.get(f.var, ("freeP", f.var.sort, f.var.index)), term(f.arg))
    if isinstance(f, (TrueF, FalseF)):
        return (type(f).__name__,)
    if isinstance(f, (Forall, Exists, Forall2)):
        tag = type(f).__name__
        inner = dict(env)
        inner[f.var] = ("bound", counter[0])
        counter[0] += 1
        return (tag, f.var.sort, fo_alpha_key(f.body, inner, counter))
    return (type(f).__name__,) + tuple(fo_alpha_key(k, env, counter) for k in children(f))


def fo_alpha_eq(f: FoFormula, g: FoFormula) -> bool:
    return fo_alpha_key(f) == fo_alpha_key(g)


class VarNamer:
    """Deterministic fresh-variable supply, one counter per sort."""

    def __init__(self, next1: int = 0, nextd: int = 0):
        self._next = {SORT1: next1, SORTD: nextd}

    def fresh(self, sort: str) -> IVar:
        v = IVar(self._next[sort], sort)
        self._next[sort] += 1
        return v


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

def print_formula(f) -> str:
    """Canonical text for a formula of any of the three languages."""
    if isinstance(f, DfmlFormula):
        return dfml_to_text(f)
    if isinstance(f, SortedFormula):
        return sorted_to_text(f)
    if isinstance(f, FoFormula):
        return fo_to_text(f)
    if isinstance(f, LambdaPredicate):
        return str(f)
    raise TypeError(f"not a formula: {f!r}")


def dfml_to_text(f: DfmlFormula, prec: int = 0) -> str:
    # precedence: imp 0 < or 1 < and 2 < unary 3 < atoms 4
    def par(s: str, p: int) -> str:
        return f"({s})" if p < prec else s

    if isinstance(f, PropVar):
        return f"p{f.index}"
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Imp):
        return par(f"{dfml_to_text(f.left, 1)} -> {dfml_to_text(f.right, 0)}", 0)
    if isinstance(f, Or):
        return par(f"{dfml_to_text(f.left, 1)} \\/ {dfml_to_text(f.right, 2)}", 1)
    if isinstance(f, And):
        return par(f"{dfml_to_text(f.left, 2)} /\\ {dfml_to_text(f.right, 3)}", 2)
    if isinstance(f, Box):
        return par(f"box {dfml_to_text(f.arg, 3)}", 3)
    if isinstance(f, Dia):
        return par(f"dia {dfml_to_text(f.arg, 3)}", 3)
    if isinstance(f, Neg):
        return par(f"neg {dfml_to_text(f.arg, 3)}", 3)
    raise TypeError(f"not a modal formula: {f!r}")


_SORTED_UNARY_TOKENS = {
    "DiaVert": "diav", "DiaMinus": "diam", "BoxMinus": "boxm", "BoxVert": "boxv",
    "Box1": "box1", "BoxD": "boxd", "TDown": "tdown", "BTDown": "btdown",
}


def sorted_to_text(f: SortedFormula, prec: int = 0) -> str:
    # precedence: rspoon 1 < tright 2 < odot 3 < cup 4 < cap 5 < unary 6 < prime 7
    def par(s: str, p: int) -> str:
        return f"({s})" if p < prec else s

    if isinstance(f, SortedVar):
        return f"P{f.index}" if f.sort == SORT1 else f"P^{f.index}"
    if isinstance(f, STop):
        return "top" if f.sort == SORT1 else "top^"
    if isinstance(f, SBot):
        return "bot" if f.sort == SORT1 else "bot^"
    if isinstance(f, Prime):
        return par(f"{sorted_to_text(f.arg, 7)}'", 7)
    name = type(f).__name__
    if name in _SORTED_UNARY_TOKENS:
        return par(f"{_SORTED_UNARY_TOKENS[name]} {sorted_to_text(f.arg, 6)}", 6)
    if isinstance(f, Cap):
        return par(f"{sorted_to_text(f.left, 5)} cap {sorted_to_text(f.right, 6)}", 5)
    if isinstance(f, Cup):
        return par(f"{sorted_to_text(f.left, 4)} cup {sorted_to_text(f.right, 5)}", 4)
    if isinstance(f, Odot):
        return par(f"{sorted_to_text(f.left, 3)} odot {sorted_to_text(f.right, 4)}", 3)
    if isinstance(f, TRight):
        return par(f"{sorted_to_text(f.left, 3)} tright {sorted_to_text(f.right, 2)}", 2)
    if isinstance(f, RSpoon):
        return par(f"{sorted_to_text(f.left, 2)} rspoon {sorted_to_text(f.right, 1)}", 1)
    raise TypeError(f"not a sorted formula: {f!r}")


def fo_to_text(f: FoFormula, prec: int = 0) -> str:
    # precedence: imp 2 < or 3 < and 4 < not 5 < atom 6; quantifiers bind a
    # parenthesised body and parenthesise themselves under any connective.
    def par(s: str, p: int) -> str:
        return f"({s})" if p < prec else s

    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Eq):
        return f"{f.t1} = {f.t2}"
    if isinstance(f, PredApp):
        return f"{f.var}({f.arg})"
    if isinstance(f, RelAtom):
        if len(f.args) == 2:
            return f"{f.args[0]} {f.rel} {f.args[1]}"
        return f"{f.rel}({', '.join(str(a) for a in f.args)})"
    if isinstance(f, NotF):
        return par(f"~{fo_to_text(f.arg, 6)}", 5)
    if isinstance(f, AndF):
        return par(f"{fo_to_text(f.left, 4)} /\\ {fo_to_text(f.right, 5)}", 4)
    if isinstance(f, OrF):
        return par(f"{fo_to_text(f.left, 3)} \\/ {fo_to_text(f.right, 4)}", 3)
    if isinstance(f, ImpF):
        return par(f"{fo_to_text(f.left, 3)} -> {fo_to_text(f.right, 2)}", 2)
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        return par(f"{kw}_{f.var.sort} {f.var}. ({fo_to_text(f.body)})", 1)
    if isinstance(f, Forall2):
        return par(f"forall_{f.var.sort} {f.var}. ({fo_to_text(f.body)})", 1)
    raise TypeError(f"not a first-order formula: {f!r}")


# ---------------------------------------------------------------------------
# Tokenizer shared by the three parsers
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<op>\|-1|\|-d|\|-|/\\|\\/|->|<=|=|~|'|\(|\)|\.|,)
  | (?P<word>[A-Za-z][A-Za-z0-9_'^]*(?:\.[A-Za-z][A-Za-z0-9_'^]*)*)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tok = m.group()
            if m.lastgroup == "word" and tok not in ("T'",):
                # peel postfix primes off identifiers so P0'' tokenizes cleanly
                while tok.endswith("'"):
                    tok = tok[:-1]
                if not tok:
                    raise ParseError("dangling prime", pos)
                toks.append((tok, pos))
                for k in range(len(tok), len(m.group())):
                    toks.append(("'", pos + k))
            else:
                toks.append((tok, pos))
        pos = m.end()
    toks.append(("<eof>", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.binders: list[tuple[IVar, str]] = []   # first-order binders in scope, as spelled

    def peek(self) -> str:
        return self.toks[self.i][0]

    def pos(self) -> int:
        return self.toks[self.i][1]

    def next(self) -> str:
        tok = self.toks[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.pos())
        self.next()

    def eof(self) -> None:
        if self.peek() != "<eof>":
            raise ParseError(f"unexpected trailing input {self.peek()!r}", self.pos())


# ---------------------------------------------------------------------------
# Modal-language parser
# ---------------------------------------------------------------------------

_DFML_VAR_RE = re.compile(r"^p([0-9]+)$")
_DFML_SUGAR = {"p": 0, "q": 1, "r": 2, "s": 3}


def parse_dfml(text: str) -> Sequent:
    """Parse ``lhs |- rhs`` in the modal source grammar."""
    p = _Parser(text)
    lhs = _dfml_formula(p)
    p.expect("|-")
    rhs = _dfml_formula(p)
    p.eof()
    return Sequent(lhs, rhs)


def parse_dfml_formula(text: str) -> DfmlFormula:
    p = _Parser(text)
    f = _dfml_formula(p)
    p.eof()
    return f


def _dfml_formula(p: _Parser) -> DfmlFormula:
    return _dfml_imp(p)


def _dfml_imp(p: _Parser) -> DfmlFormula:
    left = _dfml_or(p)
    if p.peek() == "->":
        p.next()
        return Imp(left, _dfml_imp(p))
    return left


def _dfml_or(p: _Parser) -> DfmlFormula:
    out = _dfml_and(p)
    while p.peek() == "\\/":
        p.next()
        out = Or(out, _dfml_and(p))
    return out


def _dfml_and(p: _Parser) -> DfmlFormula:
    out = _dfml_unary(p)
    while p.peek() == "/\\":
        p.next()
        out = And(out, _dfml_unary(p))
    return out


def _dfml_unary(p: _Parser) -> DfmlFormula:
    tok = p.peek()
    if tok == "box":
        p.next()
        return Box(_dfml_unary(p))
    if tok == "dia":
        p.next()
        return Dia(_dfml_unary(p))
    if tok == "neg":
        p.next()
        return Neg(_dfml_unary(p))
    return _dfml_atom(p)


def _dfml_atom(p: _Parser) -> DfmlFormula:
    tok = p.peek()
    if tok == "(":
        p.next()
        f = _dfml_formula(p)
        p.expect(")")
        return f
    if tok == "top":
        p.next()
        return Top()
    if tok == "bot":
        p.next()
        return Bot()
    m = _DFML_VAR_RE.match(tok)
    if m:
        p.next()
        return PropVar(int(m.group(1)))
    if tok in _DFML_SUGAR:
        p.next()
        return PropVar(_DFML_SUGAR[tok])
    raise ParseError(f"expected a modal formula, found {tok!r}", p.pos())


# ---------------------------------------------------------------------------
# Sorted-language parser
# ---------------------------------------------------------------------------

_SORTED_UNARY_PARSE = {
    "diav": DiaVert, "diam": DiaMinus, "boxm": BoxMinus, "boxv": BoxVert,
    "box1": Box1, "boxd": BoxD, "tdown": TDown, "btdown": BTDown,
}
_SVAR_RE = re.compile(r"^([PQRS])(\^?)([0-9]*)$")
_SVAR_SUGAR = {"P": 0, "Q": 1, "R": 2, "S": 3}


def parse_sorted_sequent(text: str) -> SortedSequent:
    p = _Parser(text)
    try:
        lhs = _sorted_formula(p)
        sep = p.peek()
        if sep not in ("|-1", "|-d"):
            raise ParseError(f"expected '|-1' or '|-d', found {sep!r}", p.pos())
        p.next()
        rhs = _sorted_formula(p)
        p.eof()
        return SortedSequent(SORT1 if sep == "|-1" else SORTD, lhs, rhs)
    except SortError as e:
        raise ParseError(str(e), p.pos()) from e


def parse_sorted(text: str) -> SortedFormula:
    p = _Parser(text)
    try:
        f = _sorted_formula(p)
        p.eof()
        return f
    except SortError as e:
        raise ParseError(str(e), p.pos()) from e


def _sorted_formula(p: _Parser) -> SortedFormula:
    return _sorted_rspoon(p)


def _sorted_rspoon(p: _Parser) -> SortedFormula:
    left = _sorted_tright(p)
    if p.peek() == "rspoon":
        p.next()
        return RSpoon(left, _sorted_rspoon(p))
    return left


def _sorted_tright(p: _Parser) -> SortedFormula:
    left = _sorted_odot(p)
    if p.peek() == "tright":
        p.next()
        return TRight(left, _sorted_tright(p))
    return left


def _sorted_odot(p: _Parser) -> SortedFormula:
    out = _sorted_cup(p)
    while p.peek() == "odot":
        p.next()
        out = Odot(out, _sorted_cup(p))
    return out


def _sorted_cup(p: _Parser) -> SortedFormula:
    out = _sorted_cap(p)
    while p.peek() == "cup":
        p.next()
        out = Cup(out, _sorted_cap(p))
    return out


def _sorted_cap(p: _Parser) -> SortedFormula:
    out = _sorted_unary(p)
    while p.peek() == "cap":
        p.next()
        out = Cap(out, _sorted_unary(p))
    return out


def _sorted_unary(p: _Parser) -> SortedFormula:
    tok = p.peek()
    if tok in _SORTED_UNARY_PARSE:
        p.next()
        return _sorted_primed(p, _SORTED_UNARY_PARSE[tok](_sorted_unary(p)))
    return _sorted_atom(p)


def _sorted_primed(p: _Parser, f: SortedFormula) -> SortedFormula:
    while p.peek() == "'":
        p.next()
        f = Prime(f)
    return f


def _sorted_atom(p: _Parser) -> SortedFormula:
    tok = p.peek()
    if tok == "(":
        p.next()
        f = _sorted_formula(p)
        p.expect(")")
        return _sorted_primed(p, f)
    if tok in ("top", "top^"):
        p.next()
        return _sorted_primed(p, STop(SORT1 if tok == "top" else SORTD))
    if tok in ("bot", "bot^"):
        p.next()
        return _sorted_primed(p, SBot(SORT1 if tok == "bot" else SORTD))
    m = _SVAR_RE.match(tok)
    if m:
        p.next()
        letter, hat, digits = m.groups()
        index = int(digits) if digits else _SVAR_SUGAR[letter]
        if digits and letter != "P":
            raise ParseError("indexed sorted variables use the letter P", p.pos())
        return _sorted_primed(p, SortedVar(index, SORTD if hat else SORT1))
    raise ParseError(f"expected a sorted formula, found {tok!r}", p.pos())


# ---------------------------------------------------------------------------
# First-order-language parser
# ---------------------------------------------------------------------------

_IVAR_RE = re.compile(r"^([xy])([0-9]+)$")
_IVAR_SUGAR = {"x": IVar(0, SORT1), "z": IVar(1, SORT1), "u": IVar(2, SORT1),
               "w": IVar(3, SORT1), "y": IVar(0, SORTD), "v": IVar(1, SORTD)}
_PVAR_RE = re.compile(r"^P(\^?)([0-9]+)$")
_QUANT_RE = re.compile(r"^(forall|exists)_(1|d)$")


def parse_fo(text: str) -> FoFormula:
    p = _Parser(text)
    f = _fo_formula(p)
    p.eof()
    return f


def _fo_formula(p: _Parser) -> FoFormula:
    m = _QUANT_RE.match(p.peek())
    if m:
        p.next()
        kind, sort = m.groups()
        var_tok = p.next()
        p.expect(".")
        pv = _PVAR_RE.match(var_tok)
        if pv:
            body = _fo_formula(p) if p.peek() != "(" else _fo_parens_body(p)
            hat, digits = pv.groups()
            var = PVar(int(digits), SORTD if hat else SORT1)
            if var.sort != sort:
                raise ParseError("quantifier sort does not match the variable", p.pos())
            return Forall2(var, body) if kind == "forall" else _no_exists2(p)
        var = _parse_ivar(var_tok, p)
        p.binders.append((var, var_tok))
        body = _fo_formula(p) if p.peek() != "(" else _fo_parens_body(p)
        p.binders.pop()
        if var.sort != sort:
            raise ParseError("quantifier sort does not match the variable", p.pos())
        return (Forall if kind == "forall" else Exists)(var, body)
    return _fo_imp(p)


def _no_exists2(p: _Parser) -> FoFormula:
    raise ParseError("existential second-order quantification is not supported", p.pos())


def _fo_parens_body(p: _Parser) -> FoFormula:
    p.expect("(")
    f = _fo_formula(p)
    p.expect(")")
    return f


def _parse_ivar(tok: str, p: _Parser) -> IVar:
    """The variable ``tok`` names.  A sugar name (x z u w y v) and an indexed
    one (x0-x3, y0-y1) may name the same variable, so inside a binder only
    the binder's own spelling may be used: ``forall_d v. (v <= y1)`` is an
    error, not a formula in which two variables silently merged."""
    m = _IVAR_RE.match(tok)
    if m:
        var = IVar(int(m.group(2)), SORT1 if m.group(1) == "x" else SORTD)
    elif tok in _IVAR_SUGAR:
        var = _IVAR_SUGAR[tok]
    else:
        raise ParseError(f"expected an individual variable, found {tok!r}", p.pos())
    for bound, bound_tok in reversed(p.binders):
        if bound == var:
            if (bound_tok in _IVAR_SUGAR) != (tok in _IVAR_SUGAR):
                raise ParseError(f"{tok!r} occurs in the scope of {bound_tok!r}, "
                                 f"another name of the same variable", p.pos())
            break
    return var


def _fo_imp(p: _Parser) -> FoFormula:
    left = _fo_or(p)
    if p.peek() == "->":
        p.next()
        return ImpF(left, _fo_imp(p))
    return left


def _fo_or(p: _Parser) -> FoFormula:
    out = _fo_and(p)
    while p.peek() == "\\/":
        p.next()
        out = OrF(out, _fo_and(p))
    return out


def _fo_and(p: _Parser) -> FoFormula:
    out = _fo_not(p)
    while p.peek() == "/\\":
        p.next()
        out = AndF(out, _fo_not(p))
    return out


def _fo_not(p: _Parser) -> FoFormula:
    if p.peek() == "~":
        p.next()
        return NotF(_fo_not(p))
    return _fo_atom(p)


def _fo_atom(p: _Parser) -> FoFormula:
    tok = p.peek()
    if tok == "(":
        p.next()
        f = _fo_formula(p)
        p.expect(")")
        return f
    if _QUANT_RE.match(tok):
        return _fo_formula(p)
    if tok == "true":
        p.next()
        return TrueF()
    if tok == "false":
        p.next()
        return FalseF()
    if tok in ("T", "T'", "R111"):
        name = p.next()
        p.expect("(")
        args = [_parse_ivar(p.next(), p)]
        while p.peek() == ",":
            p.next()
            args.append(_parse_ivar(p.next(), p))
        p.expect(")")
        return RelAtom(name, tuple(args))
    pv = _PVAR_RE.match(tok)
    if pv:
        p.next()
        hat, digits = pv.groups()
        p.expect("(")
        arg = _parse_ivar(p.next(), p)
        p.expect(")")
        return PredApp(PVar(int(digits), SORTD if hat else SORT1), arg)
    # binary atom: term REL term
    t1 = _parse_ivar(p.next(), p)
    rel = p.next()
    if rel == "=":
        t2 = _parse_ivar(p.next(), p)
        return Eq(t1, t2)
    if rel == "<=":
        t2 = _parse_ivar(p.next(), p)
        return Leq(t1, t2)
    if rel in REL_SIG or rel.startswith("R''_"):
        t2 = _parse_ivar(p.next(), p)
        return RelAtom(rel, (t1, t2))
    raise ParseError(f"expected a relation symbol, found {rel!r}", p.pos())
