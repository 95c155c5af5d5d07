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
import functools
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
# names in ``_subs``; a sorted node stores its tuple once, when it is built.
_kids_of_subs = property(lambda self: tuple(getattr(self, name) for name in self._subs))


class DfmlFormula:
    _subs: tuple[str, ...] = ()
    _kids = _kids_of_subs

    def __str__(self) -> str:
        return dfml_to_text(self)


def _connective(base: type, name: str, *fields: str, subs: tuple[str, ...] | None = None) -> type:
    """A modal or first-order node class ``name`` of ``base`` that does not
    check its fields: a frozen dataclass of ``fields``, in order, whose
    subformulas are ``subs``, by default every field, and whose other
    fields are bound variables.  A node class that checks its own fields
    is written out."""
    subs = fields if subs is None else subs
    annotations = {field: base.__name__ if field in subs else "IVar | PVar" for field in fields}
    return dataclass(frozen=True)(type(name, (base,), {
        "__module__": __name__, "__annotations__": annotations, "_subs": subs}))


@dataclass(frozen=True)
class PropVar(DfmlFormula):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("propositional variable index must be >= 0")


Top = _connective(DfmlFormula, "Top")
Bot = _connective(DfmlFormula, "Bot")
And = _connective(DfmlFormula, "And", "left", "right")
Or = _connective(DfmlFormula, "Or", "left", "right")
Box = _connective(DfmlFormula, "Box", "arg")
Dia = _connective(DfmlFormula, "Dia", "arg")
Neg = _connective(DfmlFormula, "Neg", "arg")      # the weak (quasi-complement) negation
Imp = _connective(DfmlFormula, "Imp", "left", "right")


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
# the facts below are computed once per node, when it is first built.  A
# node's shape is a ``_Shape`` token, interned the same way on its class and
# its kids' tokens (a leaf's on its class and sort), so two nodes share a
# token exactly when they are equal up to the indices of their variables.
# Both tables are weak-valued: an entry lives as long as its node or token.
# ``SortedFormula.__new__`` alone reads and writes them, through their
# underlying dicts, so that a lookup is one C-level ``dict.get``.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SHAPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Shape:
    """A shape token: an object compared by identity, holding nothing."""

    __slots__ = ("__weakref__",)


class SortedFormula:
    _subs: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()
    sort: str
    # The sorts of the arguments, in field order; None when they follow the
    # node's own sort (Cap, Cup, Prime).
    arg_sorts: tuple[str, ...] | None = ()
    # Facts of a leaf; ``__new__`` stores a compound node's own.  No node
    # stores a reference to itself, which would make a cycle that only the
    # cycle collector frees: a variable's ``_occ`` is a property.
    # ``_depths`` is aligned with ``_occ``: the primes immediately above each
    # occurrence.  ``_chain``: the node is a variable under zero or more primes.
    _kids: tuple = ()
    _occ: tuple = ()
    _depths: tuple = ()
    _rspoon_free = True
    _chain = False

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
        ref = _INTERNED.data.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(args) != len(cls._fields):
            raise _fields_error(cls)
        node = object.__new__(cls)
        facts = node.__dict__
        facts.update(zip(cls._fields, args))
        node.__post_init__()
        if not cls._subs:
            shape_key = (cls, node.sort)
        else:
            # a compound node's fields are its kids
            facts["_kids"] = args
            first = args[0]
            if len(args) == 1:
                facts["_occ"] = first._occ
                if cls is Prime and first._chain:
                    facts["_chain"] = True
                    facts["_depths"] = (first._depths[0] + 1,)
                else:
                    facts["_depths"] = first._depths
                free = first._rspoon_free
                shape_key = (cls, first._shape)
            else:
                second = args[1]
                facts["_occ"] = first._occ + second._occ
                facts["_depths"] = first._depths + second._depths
                free = first._rspoon_free and second._rspoon_free
                shape_key = (cls, first._shape, second._shape)
            if cls is RSpoon or not free:
                facts["_rspoon_free"] = False
        ref = _SHAPES.data.get(shape_key)
        token = None if ref is None else ref()
        if token is None:
            token = _Shape()
            _SHAPES.data[shape_key] = weakref.KeyedRef(token, _SHAPES._remove, shape_key)
        facts["_shape"] = token
        _INTERNED.data[key] = weakref.KeyedRef(node, _INTERNED._remove, key)
        return node

    def __str__(self) -> str:
        return sorted_to_text(self)

    def __reduce__(self):
        # copy, deepcopy and unpickling construct again: the interned node
        return type(self), tuple(getattr(self, name) for name in self._fields)


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
    _chain = True

    def __post_init__(self):
        _require(self.sort in (SORT1, SORTD), "bad sort tag")
        if self.index < 0:
            raise ValueError("variable index must be >= 0")

    @property
    def _occ(self) -> tuple:
        return (self,)


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
class Prime(SortedFormula):
    """Galois-connection map; flips the sort."""

    arg: SortedFormula
    _subs = ("arg",)
    arg_sorts = None

    def __post_init__(self):
        self.__dict__["sort"] = flip(self.arg.sort)


def _operator(name: str, arg_sorts: tuple[str, ...] | None, res_sort: str | None = None):
    """A sorted operator class taking one argument (``arg``) or two
    (``left``, ``right``) of the sorts ``arg_sorts`` to a value of sort
    ``res_sort``.  ``arg_sorts`` None makes a lattice connective: two
    arguments of one sort, which is also its value's."""
    subs = ("arg",) if arg_sorts is not None and len(arg_sorts) == 1 else ("left", "right")

    def __post_init__(self):
        # the message is built only for a construction that fails
        sorts = tuple([getattr(self, sub).sort for sub in subs])
        if arg_sorts is None:
            if sorts[0] != sorts[1]:
                raise SortError(f"{name} needs equal sorts")
            self.__dict__["sort"] = sorts[0]
        elif sorts != arg_sorts:
            raise SortError(f"{name} needs "
                            f"{' and '.join(f'a sort-{sort}' for sort in arg_sorts)} argument")

    namespace = {"__module__": __name__, "__annotations__": dict.fromkeys(subs, "SortedFormula"),
                 "_subs": subs, "arg_sorts": arg_sorts, "__post_init__": __post_init__}
    if res_sort is not None:
        namespace["sort"] = res_sort
    return _node(type(name, (SortedFormula,), namespace))


Cap = _operator("Cap", None)
Cup = _operator("Cup", None)
DiaVert = _operator("DiaVert", (SORT1,), SORT1)      # diamond from the R_dia image
DiaMinus = _operator("DiaMinus", (SORTD,), SORTD)    # diamond from the R_box image
Box1 = _operator("Box1", (SORT1,), SORT1)            # right residual of DiaVert
BoxD = _operator("BoxD", (SORTD,), SORTD)            # right residual of DiaMinus
BoxMinus = _operator("BoxMinus", (SORT1,), SORT1)    # box over R''_box
BoxVert = _operator("BoxVert", (SORTD,), SORTD)      # box over R''_dia
TDown = _operator("TDown", (SORT1,), SORTD)          # additive image of R_neg
BTDown = _operator("BTDown", (SORTD,), SORT1)        # box over R''_neg
Odot = _operator("Odot", (SORT1, SORT1), SORT1)      # additive image of R111
RSpoon = _operator("RSpoon", (SORT1, SORT1), SORT1)  # right residual of Odot
TRight = _operator("TRight", (SORT1, SORTD), SORTD)  # additive image of T


@dataclass(frozen=True)
class SortedSequent:
    sort: str
    lhs: SortedFormula
    rhs: SortedFormula

    def __post_init__(self):
        _require(self.lhs.sort == self.sort and self.rhs.sort == self.sort,
                 "sequent sides must match the declared sort")

    def __str__(self) -> str:
        return f"{sorted_to_text(self.lhs)} |-{self.sort} {sorted_to_text(self.rhs)}"


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


def shape(f: SortedFormula) -> _Shape:
    """The token of ``f``'s shape, ``f`` with every variable renamed to index
    0 of its sort: live formulas share a token exactly when they share a
    shape."""
    return f._shape


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

@functools.cache   # FiniteFrame.word_rows checks its words again on every frame
def _word_signature(letters: tuple[str, ...]) -> tuple[str, str]:
    """The sorts a box word's composite relation joins, after checking that
    every letter is known and every adjacent pair chains."""
    if not letters:
        raise ValueError("empty box word")
    try:
        boxes = [_LETTER_BOX[letter] for letter in letters]
    except KeyError:
        raise ValueError(f"unknown letter in box word {letters}") from None
    for a, b in zip(boxes, boxes[1:]):
        if a.arg_sorts[0] != b.sort:
            raise SortError(f"box word {letters} is ill-sorted")
    return boxes[0].sort, boxes[-1].arg_sorts[0]


def word_rel(letters: tuple[str, ...]) -> str:
    """Composite double-dual relation name for a string of box letters."""
    _word_signature(letters)
    return "R''_" + ".".join(letters)


def rel_signature(name: str) -> tuple[str, ...]:
    if REL_SIG.get(name) is not None:
        return REL_SIG[name]
    if name.startswith("R''_"):
        return _word_signature(tuple(name[4:].split(".")))
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


def i_atom(a: IVar, b: IVar) -> RelAtom:
    """The I atom between two points of opposite sorts, the sort-1 point first."""
    return RelAtom("I", (a, b) if a.sort == SORT1 else (b, a))


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


TrueF = _connective(FoFormula, "TrueF")
FalseF = _connective(FoFormula, "FalseF")
NotF = _connective(FoFormula, "NotF", "arg")
AndF = _connective(FoFormula, "AndF", "left", "right")
OrF = _connective(FoFormula, "OrF", "left", "right")
ImpF = _connective(FoFormula, "ImpF", "left", "right")
Forall = _connective(FoFormula, "Forall", "var", "body", subs=("body",))
Exists = _connective(FoFormula, "Exists", "var", "body", subs=("body",))
# second-order universal quantifier over a predicate variable
Forall2 = _connective(FoFormula, "Forall2", "var", "body", subs=("body",))


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

    @classmethod
    def past(cls, anchor: IVar) -> VarNamer:
        """A namer whose fresh variables of the anchor's sort come after it."""
        return cls(**{"next" + anchor.sort: anchor.index + 1})

    def fresh(self, sort: str) -> IVar:
        v = IVar(self._next[sort], sort)
        self._next[sort] += 1
        return v


# ---------------------------------------------------------------------------
# Operator tables
# ---------------------------------------------------------------------------

# Each language's binary connectives, loosest first, as (token, node class,
# right-associative?), and its prefix operators by token.  The printers and
# the parsers below read the connectives from here and from nowhere else.
DFML_BINARY = (("->", Imp, True), ("\\/", Or, False), ("/\\", And, False))
DFML_PREFIX = {"box": Box, "dia": Dia, "neg": Neg}
SORTED_BINARY = (("rspoon", RSpoon, True), ("tright", TRight, True),
                 ("odot", Odot, False), ("cup", Cup, False), ("cap", Cap, False))
SORTED_PREFIX = {"diav": DiaVert, "diam": DiaMinus, "boxm": BoxMinus, "boxv": BoxVert,
                 "box1": Box1, "boxd": BoxD, "tdown": TDown, "btdown": BTDown}
FO_BINARY = (("->", ImpF, True), ("\\/", OrF, False), ("/\\", AndF, False))
FO_PREFIX = {"~": NotF}

# What each sorted operator but the lattice connectives means on a frame, by
# node class: the quantifier of its standard translation (``Exists`` for an
# additive image, ``Forall`` for a box), the relation it reads, and whether
# the relation atom names the anchor first or, after the other points in
# reverse order, last.  The standard translation, the frame semantics and
# the reduction rules read an operator's meaning from here and from nowhere
# else; ``FiniteFrame``'s operator methods and ``model_check_sorted`` are the
# independent reference.
SORTED_MEANING = {
    DiaVert: (Exists, "R_dia", True), DiaMinus: (Exists, "R_box", True),
    TDown: (Exists, "R_neg", True), Odot: (Exists, "R111", True), TRight: (Exists, "T", True),
    Box1: (Forall, "R_dia", False), BoxD: (Forall, "R_box", False),
    BoxMinus: (Forall, "R''_box", True), BoxVert: (Forall, "R''_dia", True),
    BTDown: (Forall, "R''_neg", True), RSpoon: (Forall, "R111", False),
}
# The boxes over a double-dual relation, by letter: they compose into a
# relation word, ``x R''_box.neg y`` read off ``boxm btdown P^0``.  A word
# chains by sort: each letter's argument sort is the next letter's sort.
BOX_LETTERS = {cls: rel[4:] for cls, (_, rel, _) in SORTED_MEANING.items()
               if rel.startswith("R''_")}
_LETTER_BOX = {letter: cls for cls, letter in BOX_LETTERS.items()}


def _levels(binary, prefix) -> dict[type, tuple[int, str, bool | None]]:
    """Printing precedence of one language: its binary connectives bind at
    levels 1, 2, ... loosest first and its prefix operators one level tighter
    than the last; ``None`` marks a prefix operator."""
    unary = len(binary) + 1
    return {**{cls: (level, tok, right) for level, (tok, cls, right) in enumerate(binary, 1)},
            **{cls: (unary, tok, None) for tok, cls in prefix.items()}}


_OPERATOR = {**_levels(DFML_BINARY, DFML_PREFIX), **_levels(SORTED_BINARY, SORTED_PREFIX),
             **_levels(FO_BINARY, FO_PREFIX)}
# Tighter than any operator: an operand printed at it is an atom or parenthesised.
_ATOM = max(level for level, _, _ in _OPERATOR.values()) + 1


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


def _operator_text(f, prec: int, to_text, what: str) -> str:
    """``f``, a node of a class in an operator table, printed by ``to_text``
    inside a context of precedence ``prec``."""
    if type(f) not in _OPERATOR:
        raise TypeError(f"not a {what}: {f!r}")
    level, tok, right = _OPERATOR[type(f)]
    if right is None and tok == "~":     # binds an atom: ~(~P0(x0)), not ~~P0(x0)
        text = f"~{to_text(f.arg, _ATOM)}"
    elif right is None:
        text = f"{tok} {to_text(f.arg, level)}"
    else:   # the operand on the associative side may hold this connective bare
        lprec, rprec = (level + 1, level) if right else (level, level + 1)
        text = f"{to_text(f.left, lprec)} {tok} {to_text(f.right, rprec)}"
    return f"({text})" if level < prec else text


def dfml_to_text(f: DfmlFormula, prec: int = 0) -> str:
    if isinstance(f, PropVar):
        return f"p{f.index}"
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    return _operator_text(f, prec, dfml_to_text, "modal formula")


def sorted_to_text(f: SortedFormula, prec: int = 0) -> str:
    if isinstance(f, SortedVar):
        return f"P{f.index}" if f.sort == SORT1 else f"P^{f.index}"
    if isinstance(f, STop):
        return "top" if f.sort == SORT1 else "top^"
    if isinstance(f, SBot):
        return "bot" if f.sort == SORT1 else "bot^"
    if isinstance(f, Prime):    # binds tightest: a compound argument is parenthesised
        return f"{sorted_to_text(f.arg, _ATOM)}'"
    return _operator_text(f, prec, sorted_to_text, "sorted formula")


def fo_to_text(f: FoFormula, prec: int = 0) -> str:
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
    if isinstance(f, (Forall, Exists, Forall2)):
        # a parenthesised body; parenthesised itself under any connective
        kw = "exists" if isinstance(f, Exists) else "forall"
        text = f"{kw}_{f.var.sort} {f.var}. ({fo_to_text(f.body)})"
        return f"({text})" if prec > 0 else text
    return _operator_text(f, prec, fo_to_text, "first-order formula")


# ---------------------------------------------------------------------------
# Parser machinery shared by the three languages
# ---------------------------------------------------------------------------

# Operators and parentheses a modal formula may nest.  Deeper input is a
# parse error, refused before the parser or the engine recurses that deep.
# The sorted and first-order formulas the engine writes nest several times
# deeper than the modal formula they come from, so their parsers allow more.
MAX_DEPTH = 32
_ENGINE_MAX_DEPTH = 2 * MAX_DEPTH

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
    def __init__(self, text: str, max_depth: int = _ENGINE_MAX_DEPTH):
        self.toks = _tokenize(text)
        self.i = 0
        self.max_depth = max_depth
        self.binders: list[tuple[IVar, str]] = []   # first-order binders in scope, as spelled
        self.depth = 0    # operators and parentheses open around the current token
        self.height = 0   # operators and parentheses nested in the last subformula parsed

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

    def deeper(self, level: int) -> int:
        """``level``, if a formula may nest that deep."""
        if level > self.max_depth:
            raise ParseError(f"formula nested deeper than {self.max_depth} levels", self.pos())
        return level

    def nested(self, parse, *args):
        """``parse(self, *args)``, one operator or parenthesis deeper."""
        self.depth = self.deeper(self.depth + 1)
        f = parse(self, *args)
        self.depth -= 1
        self.height = self.deeper(self.height + 1)
        return f

    def parens(self, parse):
        self.expect("(")
        f = self.nested(parse)
        self.expect(")")
        return f


def _formula(p: _Parser, grammar, level: int = 0):
    """A formula of ``grammar`` = (binary table, prefix map, atom parser)
    whose connectives are those of the binary table from ``level`` on."""
    binary, prefix, atom = grammar
    if level == len(binary):
        cls = prefix.get(p.peek())
        if cls is None:
            p.height = 0
            return atom(p)
        p.next()
        return cls(p.nested(_formula, grammar, level))
    tok, cls, right = binary[level]
    out = _formula(p, grammar, level + 1)
    while p.peek() == tok:
        p.next()
        left_height = p.height
        out = cls(out, p.nested(_formula, grammar, level + (not right)))
        p.height = p.deeper(max(left_height + 1, p.height))
    return out


# ---------------------------------------------------------------------------
# Modal-language parser
# ---------------------------------------------------------------------------

_DFML_VAR_RE = re.compile(r"^p([0-9]+)$")
_DFML_SUGAR = {"p": 0, "q": 1, "r": 2, "s": 3}


def parse_dfml(text: str) -> Sequent:
    """Parse ``lhs |- rhs`` in the modal source grammar."""
    p = _Parser(text, MAX_DEPTH)
    lhs = _dfml_formula(p)
    p.expect("|-")
    rhs = _dfml_formula(p)
    p.eof()
    return Sequent(lhs, rhs)


def _dfml_formula(p: _Parser) -> DfmlFormula:
    return _formula(p, _DFML)


def _dfml_atom(p: _Parser) -> DfmlFormula:
    tok = p.peek()
    if tok == "(":
        return p.parens(_dfml_formula)
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


_DFML = (DFML_BINARY, DFML_PREFIX, _dfml_atom)


# ---------------------------------------------------------------------------
# Sorted-language parser
# ---------------------------------------------------------------------------

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
    return _formula(p, _SORTED)


def _sorted_atom(p: _Parser) -> SortedFormula:
    """An atom or a parenthesised formula, with its postfix primes."""
    tok = p.peek()
    if tok == "(":
        f = p.parens(_sorted_formula)
    elif tok in ("top", "top^", "bot", "bot^"):
        p.next()
        f = (STop if tok.startswith("top") else SBot)(SORTD if tok.endswith("^") else SORT1)
    elif m := _SVAR_RE.match(tok):
        p.next()
        letter, hat, digits = m.groups()
        if digits and letter != "P":
            raise ParseError("indexed sorted variables use the letter P", p.pos())
        f = SortedVar(int(digits) if digits else _SVAR_SUGAR[letter], SORTD if hat else SORT1)
    else:
        raise ParseError(f"expected a sorted formula, found {tok!r}", p.pos())
    while p.peek() == "'":
        p.next()
        f = Prime(f)
        p.height = p.deeper(p.height + 1)
    return f


_SORTED = (SORTED_BINARY, SORTED_PREFIX, _sorted_atom)


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
    if not m:
        return _formula(p, _FO)
    p.next()
    kind, sort = m.groups()
    var_tok = p.next()
    p.expect(".")
    pv = _PVAR_RE.match(var_tok)
    if pv:
        body = p.nested(_fo_body)
        hat, digits = pv.groups()
        var = PVar(int(digits), SORTD if hat else SORT1)
        if var.sort != sort:
            raise ParseError("quantifier sort does not match the variable", p.pos())
        return Forall2(var, body) if kind == "forall" else _no_exists2(p)
    var = _parse_ivar(var_tok, p)
    p.binders.append((var, var_tok))
    body = p.nested(_fo_body)
    p.binders.pop()
    if var.sort != sort:
        raise ParseError("quantifier sort does not match the variable", p.pos())
    return (Forall if kind == "forall" else Exists)(var, body)


def _no_exists2(p: _Parser) -> FoFormula:
    raise ParseError("existential second-order quantification is not supported", p.pos())


def _fo_body(p: _Parser) -> FoFormula:
    """A quantifier's body: parenthesised, or reaching as far as it can."""
    return p.parens(_fo_formula) if p.peek() == "(" else _fo_formula(p)


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


def _fo_atom(p: _Parser) -> FoFormula:
    tok = p.peek()
    if tok == "(":
        return p.parens(_fo_formula)
    if _QUANT_RE.match(tok):
        return _fo_formula(p)
    if tok == "true":
        p.next()
        return TrueF()
    if tok == "false":
        p.next()
        return FalseF()
    start = p.pos()
    try:
        return _fo_relation(p)
    except (SortError, ValueError) as e:   # an ill-sorted atom or an unknown relation word
        raise ParseError(str(e), start) from e


def _fo_relation(p: _Parser) -> FoFormula:
    tok = p.peek()
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
        return Eq(t1, _parse_ivar(p.next(), p))
    if rel in REL_SIG or rel.startswith("R''_"):
        return RelAtom(rel, (t1, _parse_ivar(p.next(), p)))
    raise ParseError(f"expected a relation symbol, found {rel!r}", p.pos())


_FO = (FO_BINARY, FO_PREFIX, _fo_atom)
