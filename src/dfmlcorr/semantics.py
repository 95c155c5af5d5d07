"""Finite sorted residuated frames and everything evaluated on them.

Subsets of each carrier are bitmasks, so the Galois connection, the derived
double-dual relations, the complex-algebra operations and the brute-force
validity checks all reduce to integer arithmetic.  Frames are immutable once
built; every derived structure is computed on first use and cached.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .syntax import (
    SORT1, SORTD, SORTED_MEANING, And, AndF, Bot, Box, Dia, DfmlFormula, Eq,
    Exists, FalseF, FoFormula, Forall, Forall2, Imp, ImpF, IVar, Neg, NotF, Or,
    OrF, PredApp, PropVar, PVar, RelAtom, Sequent, SortedFormula, SortedVar,
    STop, SBot, Cap, Cup, Prime, DiaVert, DiaMinus, Box1, BoxD, BoxMinus,
    BoxVert, TDown, BTDown, Odot, RSpoon, TRight, Top, TrueF, dfml_vars, flip,
    prime_depths, rebuild, rel_signature, sorted_vars, word_rel,
)
from .translation import translate_bullet

MAX_SORT_SIZE = 5
# ``enumerate_frames`` lists all 2^(n1*nd) I-relations of a size before it
# keeps the separated ones: 3.6 s at 4+5, minutes at 5+5.  ``verify
# --enumerate`` refuses sizes with more I-cells than this.
MAX_I_CELLS = 20


class FrameSizeError(Exception):
    """Carrier too large for exhaustive Galois-set enumeration."""


class FrameValidationError(Exception):
    """Frame fails a required axiom (separation or smoothness)."""


class FormulaDepthError(ValueError):
    """A formula nests deeper than a generated evaluator may."""


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _transpose(rows, n: int) -> list:
    """``out[j]`` = the mask of the ``i`` whose ``rows[i]`` has ``j``, for ``j < n``."""
    out = [0] * n
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


@lru_cache(maxsize=1024)
def _representatives(polar: bytes) -> tuple:
    """``(m, polar[m])`` for the first mask ``m`` of each polar, in mask
    order: one tuple for all the frames that share a polar table."""
    first: dict = {}
    for m, p in enumerate(polar):
        first.setdefault(p, m)
    return tuple((m, p) for p, m in first.items())


# Base relation -> (its pair-set attribute, result sort, argument sorts,
# the attributes of its result sections, of their polars and of its double
# dual; T's is R111).  Bit k of a relation's pattern is its k-th tuple
# (``relation_tuples``); the fields of the listed relations follow one
# another from bit 0.
_BASE_RELATIONS = {
    "Rdia": ("r_dia", SORT1, (SORT1,), "rdia_sec", "rpdia", "rddia"),
    "Rbox": ("r_box", SORTD, (SORTD,), "rbox_sec", "rpbox", "rdbox"),
    "Rneg": ("r_neg", SORTD, (SORT1,), "rneg_sec", "rpneg", "rdneg"),
    "T": ("t_rel", SORTD, (SORT1, SORTD), "t_sec", "tprime", "r111"),
}
# Frame-file key -> (the frame's tuple-set attribute, the sorts of a
# tuple's positions): I, then each base relation, result first.
_FRAME_RELATIONS = {"I": ("i_rel", (SORT1, SORTD)),
                    **{key: (attr, (res_sort, *arg_sorts))
                       for key, (attr, res_sort, arg_sorts, *_) in _BASE_RELATIONS.items()}}


def _unary_rows(rel: str) -> tuple:
    """The row properties of the unary base relation ``rel``, as named in
    ``_BASE_RELATIONS``: result sections ``sec[a]`` = {r : r R a}, R' as
    argument rows ``rows[p]`` = {a : p R' a}, where p R' a iff p in (R a)',
    and R'' as rows ``dd[p]`` = {q : p R'' q} = (p R')'."""
    attr, res_sort, (arg_sort,), sec_attr, polar_attr, _ = _BASE_RELATIONS[rel]

    def sections(self):
        return self._rows_of(getattr(self, attr), self.n1 if arg_sort == SORT1 else self.nd, 1)

    def polars(self):       # one row per point of the sort opposite the result's
        polars = [self.polar(res_sort, sec) for sec in getattr(self, sec_attr)]
        return _transpose(polars, self.nd if res_sort == SORT1 else self.n1)

    def double_duals(self):
        return [self.polar(arg_sort, row) for row in getattr(self, polar_attr)]

    return cached_property(sections), cached_property(polars), cached_property(double_duals)


class FiniteFrame:
    """A finite two-sorted frame with the four modal relations.

    ``i_rel`` pairs live in Z1 x Zd; ``r_dia`` in Z1 x Z1 (result first),
    ``r_box`` in Zd x Zd, ``r_neg`` in Zd x Z1 and ``t_rel`` in Zd x Z1 x Zd.
    """

    # True on an enumerated frame, whose ``_Polarity`` checked ``stable1``
    # once: ``correspondence_oracle`` checks a built or loaded frame's on
    # every call.
    _stable1_checked = False

    def __init__(self, z1, zd, i_rel=(), r_dia=(), r_box=(), r_neg=(), t_rel=(),
                 validate: bool = True):
        self.z1 = tuple(z1)
        self.zd = tuple(zd)
        if not self.z1 or not self.zd:
            raise FrameValidationError("both carriers must be nonempty")
        if len(self.z1) > MAX_SORT_SIZE or len(self.zd) > MAX_SORT_SIZE:
            raise FrameSizeError(f"carriers larger than {MAX_SORT_SIZE} are not supported")
        self.n1 = len(self.z1)
        self.nd = len(self.zd)
        ix = {SORT1: {e: i for i, e in enumerate(self.z1)},
              SORTD: {e: i for i, e in enumerate(self.zd)}}
        if len(ix[SORT1]) != self.n1 or len(ix[SORTD]) != self.nd:
            raise FrameValidationError("duplicate carrier element names")
        # the arguments in the order of _FRAME_RELATIONS
        for (key, (attr, sorts)), given in zip(_FRAME_RELATIONS.items(),
                                               (i_rel, r_dia, r_box, r_neg, t_rel)):
            out = set()
            for entry in given:
                # a string is iterable, but not a tuple of carrier elements
                tuple_like = isinstance(entry, Iterable) and not isinstance(entry, str)
                t = tuple(entry) if tuple_like else ()
                if len(t) != len(sorts):
                    raise FrameValidationError(
                        f"each {key} entry holds {len(sorts)} elements, not {entry!r}")
                idx = tuple(ix[sort].get(e) for e, sort in zip(t, sorts))
                if None in idx:
                    raise FrameValidationError(f"{key} mentions an unknown element: {t}")
                out.add(idx)
            setattr(self, attr, frozenset(out))

        self.full1 = (1 << self.n1) - 1
        self.fulld = (1 << self.nd) - 1

        if validate:
            report = self.check_axioms(("F1", "F2"))
            bad = [f"{ax}: {why}" for ax, (ok, why) in report.items() if not ok]
            if bad:
                raise FrameValidationError("; ".join(bad))

    # -- the polarity ------------------------------------------------------

    @staticmethod
    def _rows_of(pairs, n: int, key: int) -> list:
        """``out[k]`` = the mask of the other ends of the pairs whose entry
        ``key`` (0 or 1) is ``k``, for ``k < n``."""
        out = [0] * n
        for pair in pairs:
            out[pair[key]] |= 1 << pair[1 - key]
        return out

    @cached_property
    def irow(self):
        """irow[x] = mask of {y : x I y}."""
        return self._rows_of(self.i_rel, self.n1, 0)

    @cached_property
    def icol(self):
        return self._rows_of(self.i_rel, self.nd, 1)

    def polar1(self, u_mask: int) -> int:
        """Galois image of a Z1 subset: the y with no I-edge into the subset."""
        return self._inside(self.icol, ~u_mask)

    def polard(self, v_mask: int) -> int:
        return self._inside(self.irow, ~v_mask)

    def polar(self, sort: str, mask: int) -> int:
        return self._polar1_table[mask] if sort == SORT1 else self._polard_table[mask]

    @cached_property
    def _polar1_table(self):
        return [self.polar1(m) for m in range(1 << self.n1)]

    @cached_property
    def _polard_table(self):
        return [self.polard(m) for m in range(1 << self.nd)]

    def close1(self, mask: int) -> int:
        return self._polard_table[self._polar1_table[mask]]

    def closed(self, mask: int) -> int:
        return self._polar1_table[self._polard_table[mask]]

    @cached_property
    def _close1_table(self):
        return [self.close1(m) for m in range(1 << self.n1)]

    @cached_property
    def _closed_table(self):
        return [self.closed(m) for m in range(1 << self.nd)]

    @cached_property
    def _polar1_reps(self):
        """(U, polar1(U)) for the first mask U of each polar, in mask order."""
        return _representatives(bytes(self._polar1_table))

    @cached_property
    def _polard_reps(self):
        return _representatives(bytes(self._polard_table))

    @cached_property
    def stable1(self):
        """All Galois stable subsets of Z1, ascending as integers."""
        return sorted({self.close1(m) for m in range(1 << self.n1)})

    @cached_property
    def stabled(self):
        return sorted({self.closed(m) for m in range(1 << self.nd)})

    def stable_sets(self, sort: str = SORT1):
        return self.stable1 if sort == SORT1 else self.stabled

    # -- order -------------------------------------------------------------

    @cached_property
    def up1(self):
        """up1[u] = mask of {w : u <= w} (the closure of the singleton)."""
        return [self.close1(1 << u) for u in range(self.n1)]

    @cached_property
    def upd(self):
        return [self.closed(1 << y) for y in range(self.nd)]

    def leq(self, sort: str, u: int, w: int) -> bool:
        ups = self.up1 if sort == SORT1 else self.upd
        return bool(ups[u] & (1 << w))

    # -- sections and derived relations -------------------------------------

    rdia_sec, rpdia, rddia = _unary_rows("Rdia")
    rbox_sec, rpbox, rdbox = _unary_rows("Rbox")
    rneg_sec, rpneg, rdneg = _unary_rows("Rneg")

    @cached_property
    def t_sec(self):
        """t_sec[x][v] = {y : y T x v}."""
        out = [[0] * self.nd for _ in range(self.n1)]
        for y, x, v in self.t_rel:
            out[x][v] |= 1 << y
        return out

    # Galois duals, stored as argument rows.

    @cached_property
    def tprime(self):
        """tprime[z][v] = {x : x T' z v} = (T z v)'."""
        return [[self._polard_table[self.t_sec[z][v]] for v in range(self.nd)]
                for z in range(self.n1)]

    # Double duals, stored as result rows.

    @cached_property
    def r111(self):
        """r111[x][z] = {w : w R111 x z} = (R^d11 x z)', where the row
        R^d11 x z = {v : z T' x v} is the transpose of tprime[x]."""
        return [[self._polard_table[row] for row in _transpose(self.tprime[x], self.n1)]
                for x in range(self.n1)]

    def word_row(self, letters: tuple[str, ...], start: int) -> int:
        """Points reachable from ``start`` along a composite double-dual word."""
        cur = 1 << start
        for letter in letters:       # the rows of R''_<letter>: rdbox, rdneg, rddia
            cur = self._image(getattr(self, "rd" + letter), cur)
        return cur

    def word_rows(self, letters: tuple[str, ...]) -> tuple[int, ...]:
        """``word_row(letters, i)`` for every start point ``i``, built once per word."""
        words = self.__dict__.setdefault("_word_rows", {})
        rows = words.get(letters)
        if rows is None:
            n = self.n1 if rel_signature(word_rel(letters))[0] == SORT1 else self.nd
            rows = words[letters] = tuple(self.word_row(letters, i) for i in range(n))
        return rows

    # -- image operators and the complex algebra ----------------------------

    @staticmethod
    def _image(rows, mask: int) -> int:
        """The union of ``rows`` over the points of ``mask``."""
        out = 0
        for i in bits(mask):
            out |= rows[i]
        return out

    @staticmethod
    def _inside(rows, mask: int) -> int:
        """The points whose row lies inside ``mask``."""
        out = 0
        for i, row in enumerate(rows):
            if row & ~mask == 0:
                out |= 1 << i
        return out

    def ldvert(self, u_mask: int) -> int:
        return self._image(self.rdia_sec, u_mask)

    def ldminus(self, v_mask: int) -> int:
        return self._image(self.rbox_sec, v_mask)

    def ltdown(self, u_mask: int) -> int:
        return self._image(self.rneg_sec, u_mask)

    def lbminus(self, u_mask: int) -> int:
        return self._inside(self.rdbox, u_mask)

    def lbvert(self, v_mask: int) -> int:
        return self._inside(self.rddia, v_mask)

    def lbtdown(self, v_mask: int) -> int:
        return self._inside(self.rdneg, v_mask)

    def bbox1(self, u_mask: int) -> int:
        return self._inside(self.rdia_sec, u_mask)

    def bboxd(self, v_mask: int) -> int:
        return self._inside(self.rbox_sec, v_mask)

    def ltright(self, u_mask: int, v_mask: int) -> int:
        out = 0
        for x in bits(u_mask):
            for v in bits(v_mask):
                out |= self.t_sec[x][v]
        return out

    def lodot(self, u_mask: int, v_mask: int) -> int:
        out = 0
        for x in bits(u_mask):
            for z in bits(v_mask):
                out |= self.r111[x][z]
        return out

    def imp_t(self, u_mask: int, w_mask: int) -> int:
        """Residual of the R111 image operator: U => W."""
        out = 0
        for q in range(self.n1):
            if all(self.r111[x][q] & ~w_mask == 0 for x in bits(u_mask)):
                out |= 1 << q
        return out

    @cached_property
    def op_tables(self) -> "_OperatorTables":
        """``(rows attribute, argument sort, box?)`` -> the union or box
        table over those rows, built on first use."""
        return _OperatorTables(self)

    # -- axioms --------------------------------------------------------------

    def check_axioms(self, which=("F0", "F1", "F2", "F3")) -> dict:
        """Per-axiom (passed, witness-or-None) report."""
        report: dict[str, tuple[bool, str | None]] = {}
        for ax in which:
            if ax == "F0":
                bad = [self.z1[x] for x in range(self.n1) if not self.irow[x]]
                bad += [self.zd[y] for y in range(self.nd) if not self.icol[y]]
                report[ax] = (not bad, None if not bad else f"no I-edge at {bad[0]!r}")
            elif ax == "F1":
                report[ax] = self._check_separated()
            elif ax == "F2":
                report[ax] = self._check_smooth()
            elif ax == "F3":
                report[ax] = self._check_monotone()
            else:
                raise ValueError(f"unknown axiom {ax!r}")
        return report

    def _check_separated(self):
        for sort, names in ((SORT1, self.z1), (SORTD, self.zd)):
            rows = [self.polar(sort, 1 << u) for u in range(len(names))]
            for u, w in itertools.combinations(range(len(names)), 2):
                if rows[u] == rows[w]:
                    return (False, f"sort-{sort} points {names[u]!r}, {names[w]!r} "
                                   f"are order-equivalent")
        return (True, None)

    def _check_smooth(self):
        names = {SORT1: self.z1, SORTD: self.zd}
        close = {SORT1: self.close1, SORTD: self.closed}
        for rel, (_, res_sort, arg_sorts, _, polar_attr, _) in _BASE_RELATIONS.items():
            if len(arg_sorts) == 1:         # T' is checked below
                kind = "stable" if arg_sorts[0] == SORT1 else "co-stable"
                for p, row in enumerate(getattr(self, polar_attr)):
                    if close[arg_sorts[0]](row) != row:
                        return (False, f"R'{rel[1:]} section at "
                                       f"{names[flip(res_sort)][p]!r} is not {kind}")
        for x in range(self.n1):
            for v in range(self.nd):
                sec = 0
                for z in range(self.n1):
                    if self.tprime[z][v] & (1 << x):
                        sec |= 1 << z
                if self.close1(sec) != sec:
                    return (False, f"T' section at ({self.z1[x]!r}, {self.zd[v]!r}) is not stable")
            for z in range(self.n1):
                sec = 0
                for v in range(self.nd):
                    if self.tprime[z][v] & (1 << x):
                        sec |= 1 << v
                if self.closed(sec) != sec:
                    return (False, f"T' section at ({self.z1[x]!r}, {self.z1[z]!r}) is not co-stable")
        return (True, None)

    def _check_monotone(self):
        # Each relation: a tuple stays related when its result grows or one
        # argument shrinks.
        names = {SORT1: self.z1, SORTD: self.zd}
        for rel, (attr, res_sort, arg_sorts, *_) in _BASE_RELATIONS.items():
            tuples = getattr(self, attr)
            for t in tuples:
                for i, sort in enumerate((res_sort, *arg_sorts)):
                    for p in range(len(names[sort])):
                        lo, hi = (t[i], p) if i == 0 else (p, t[i])
                        if self.leq(sort, lo, hi) and (*t[:i], p, *t[i + 1:]) not in tuples:
                            where = f"at {names[sort][lo]!r}<={names[sort][hi]!r}"
                            return (False, f"{rel} not increasing {where}" if i == 0 else
                                    f"{rel} not decreasing in argument {i} {where}")
        return (True, None)


# Every mask fits in a byte, so an operator's values can be a ``bytes`` table.
assert MAX_SORT_SIZE <= 8

# Node type -> the complex-algebra operator whose ``FiniteFrame`` method is
# the reference for its table.
_OPERATOR_OF = {
    DiaVert: "ldvert", DiaMinus: "ldminus", TDown: "ltdown", BoxMinus: "lbminus",
    BoxVert: "lbvert", BTDown: "lbtdown", Box1: "bbox1", BoxD: "bboxd",
    Odot: "lodot", RSpoon: "imp_t", TRight: "ltright",
}


# Relation symbol -> (the frame's rows, the argument positions indexing
# them, the argument position of the bit): the atom holds iff
# ``rows[args[i]]...`` has bit ``args[bit]``, as in ``_rel_holds``.
_REL_ROWS = {
    "I": ("irow", (0,), 1),
    "R_dia": ("rdia_sec", (1,), 0),
    "R_box": ("rbox_sec", (1,), 0),
    "R_neg": ("rneg_sec", (1,), 0),
    "T": ("t_sec", (1, 2), 0),
    "R'_dia": ("rpdia", (0,), 1),
    "R'_box": ("rpbox", (0,), 1),
    "R'_neg": ("rpneg", (0,), 1),
    "T'": ("tprime", (1, 2), 0),
    "R''_dia": ("rddia", (0,), 1),
    "R''_box": ("rdbox", (0,), 1),
    "R''_neg": ("rdneg", (0,), 1),
    "R111": ("r111", (1, 2), 0),
}


# _COMPLEMENT[n] is the ``bytes.translate`` table taking a mask of n points
# to its complement.
_COMPLEMENT = [bytes(((1 << n) - 1) & ~m & 0xFF for m in range(256)) for n in range(9)]


def _union_table(rows, n: int) -> list:
    """``table[m]`` = the union of ``rows[i]`` over the points ``i`` of ``m``."""
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        table[m] = table[m ^ low] | rows[low.bit_length() - 1]
    return table


@lru_cache(maxsize=1024)
def _row_table(rows: bytes | tuple, n: int, box: bool) -> bytes | tuple:
    """The table of a unary operator over ``rows``, indexed by the masks of
    ``n`` points.  A diamond's value is the union of the rows of its
    argument's points; a box's value holds the points whose row lies inside
    its argument.  A binary operator fixed at its left argument is a unary
    one: given a tuple of rows per left point, the table is the tuple, per
    left mask, of the unary table over the union of its points' rows.  One
    table for all the frames with these rows."""
    if type(rows) is tuple:
        width = len(rows[0])
        unions = _union_table([int.from_bytes(row, "little") for row in rows], len(rows))
        return tuple(_row_table(u.to_bytes(width, "little"), n, box) for u in unions)
    if not box:
        return bytes(_union_table(rows, n))
    # x is outside box(m) iff its row meets the complement of m, whose
    # entry in a table of 2^n masks is meets[~m], so box reads meets backwards
    meets = bytes(_union_table(_transpose(rows, n), n))
    return meets[::-1].translate(_COMPLEMENT[len(rows)])


class _OperatorTables(dict):
    """A frame's kernel tables, each looked up on first use by ``(rows
    attribute, argument sort, box?)``: the union or box table
    (``_row_table``) over the frame's rows of that name, indexed by the
    masks of the argument's sort, of an operator (``_Nest.value``) or a
    guarded quantifier (``_Nest.mask``).  Each table is kept once per
    distinct rows it reads, for every frame built, loaded or enumerated;
    the ``FiniteFrame`` operator methods are the reference."""

    __slots__ = ("frame",)

    def __init__(self, frame: FiniteFrame):
        self.frame = frame

    def __missing__(self, key: tuple) -> bytes | tuple:
        fr = self.frame
        attr, sort, box = key
        rows = getattr(fr, attr)
        rows = bytes(rows) if type(rows[0]) is int else tuple(map(bytes, rows))
        table = self[key] = _row_table(rows, fr.n1 if sort == SORT1 else fr.nd, box)
        return table


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def model_check_sorted(frame: FiniteFrame, valuation: dict, f: SortedFormula) -> int:
    """Value of a sorted formula as a bitmask; valuation maps SortedVar -> mask."""
    if isinstance(f, SortedVar):
        try:
            return valuation[f]
        except KeyError:
            raise KeyError(f"no value for sorted variable {f}") from None
    if isinstance(f, STop):
        return frame.full1 if f.sort == SORT1 else frame.fulld
    if isinstance(f, SBot):
        return 0
    if isinstance(f, Cap):
        return model_check_sorted(frame, valuation, f.left) & model_check_sorted(frame, valuation, f.right)
    if isinstance(f, Cup):
        return model_check_sorted(frame, valuation, f.left) | model_check_sorted(frame, valuation, f.right)
    if isinstance(f, Prime):
        return frame.polar(f.arg.sort, model_check_sorted(frame, valuation, f.arg))
    if type(f) in _OPERATOR_OF:
        return getattr(frame, _OPERATOR_OF[type(f)])(
            *(model_check_sorted(frame, valuation, g) for g in f._kids))
    raise TypeError(f"not a sorted formula: {f!r}")


# CPython refuses more than 20 statically nested blocks, so a generated nest
# opens at most this many loops: the free slots from the last loop on share
# one ``product`` loop, which keeps their order.
_MAX_LOOPS = 16


# Local of a generated function -> the frame attribute it is bound to.  A
# ``Q`` space holds (mask, its polar) for the first mask of each polar.
_FRAME_LOCALS = {
    "P1": "fr._polar1_table", "Pd": "fr._polard_table",
    "C1": "fr._close1_table", "Cd": "fr._closed_table",
    "F1": "fr.full1", "Fd": "fr.fulld", "S1": "fr.stable1", "Sd": "fr.stabled",
    "R1": "range(fr.full1 + 1)", "Rd": "range(fr.fulld + 1)",
    "Q1": "fr._polar1_reps", "Qd": "fr._polard_reps",
    "E1": "range(fr.n1)", "Ed": "range(fr.nd)",
}


# CPython refuses source nested more than 200 brackets deep, so a generated
# function may nest at most this many: a first-order formula is one
# expression, and each of its quantifiers opens a call.
_MAX_NESTING = 100


# A slot or node local of generated source.
_LOCAL = re.compile(r"\b[sv]\d+\b")
# Numbers each generated function's file name.
_KERNEL_NUMBERS = itertools.count()
# _LOWEST[m] = the index of the lowest bit of mask m, None for m = 0.
_LOWEST = (None, *((m & -m).bit_length() - 1 for m in range(1, 256)))


def _operands(f: FoFormula):
    """The subformulas of ``f``; of a chain of one connective, ``/\\`` or
    ``\\/``, that ``f`` heads, every operand, left to right."""
    kind, args, todo = type(f), [], [f]
    if kind is not AndF and kind is not OrF:
        return f._kids
    while todo:
        g = todo.pop()
        if type(g) is kind:
            todo += (g.right, g.left)
        else:
            args.append(g)
    return args


def _row_args(f) -> tuple[tuple, IVar]:
    """The index arguments and the bit argument of atom ``f``: it holds iff
    its row at the index arguments has the bit argument's bit.  A predicate
    application's row is its predicate's mask."""
    if type(f) is PredApp:
        return (f.var,), f.arg
    _, index, bit = _REL_ROWS.get(f.rel, (None, (0,), 1))    # "<=" and words: (0,), 1
    return tuple(f.args[i] for i in index), f.args[bit]


def _guard(f: FoFormula, v: IVar) -> tuple | None:
    """``(rows attribute, box?, h)`` when quantifier ``f`` is ``exists u (A
    /\\ h)`` or ``forall u (A -> h)``, with ``A`` an atom of one-index rows
    (I, R, R', R'' or ``<=``) between ``u`` and ``v``: box when ``A``'s row is
    ``v``'s, whose mask over ``v`` is then the box table of the rows, and
    otherwise their union table, at the mask of ``h`` over ``u``."""
    body, u = f.body, f.var
    if type(body) is not (AndF if type(f) is Exists else ImpF) or type(body.left) is not RelAtom:
        return None
    rel = body.left.rel
    attr = "up" + u.sort if rel == "<=" else _REL_ROWS.get(rel, (None,))[0]    # words: None
    index, bit = _row_args(body.left)
    if attr is None or len(index) != 1 or u == v or {index[0], bit} != {u, v}:
        return None
    return attr, index[0] == v, body.right


class _Nest:
    """The source of one generated function over a frame ``fr``.

    Free slot ``i`` gets a ``for`` over its space, in ``itertools.product``
    order; a loop over a ``Q`` space binds the slot's polar too.  Every
    local records the set of loops whose slots it reads, and its statement
    goes into the deepest of them, so a value is recomputed only when a
    slot it reads changes.  The statements that read exactly one inner
    loop's slot fill that slot's table once per call, before the loops,
    and the loop runs over the table's tuples; a guard among them leaves a
    row out of the table.  An operator is one lookup in its union or box
    table (``table``); a binary one's is a tuple of unary tables, and the
    unary table of its left mask is looked up at the loop of the left
    argument.  The closure of a variable, or the polar of a
    change-of-variable target, is one lookup.
    Each interned node is one local, computed once however many roots
    share it.  A first-order formula is one expression (``truth``), which
    reads the mask of the points where a subformula holds (``mask``) in
    place of a loop over them wherever it can; the free variables of its
    nodes are worked out once.  The frame's tables and rows are bound once
    per call, before the loops.  The source holds slot numbers, indices
    into the constants ``K`` and generated names, and no text of a formula.
    """

    def __init__(self, slots: dict, result: str, spaces: Sequence[str] = ()):
        self.slots = slots
        self.result = result                # returned after the loops
        self.spaces = spaces
        self.names: dict = {}               # node -> its local
        self.exprs: dict = {}               # expression -> the local that holds it
        self.fresh = itertools.count()      # numbers the node locals v<n>
        self.reads: dict = {"0": frozenset()}   # local -> the loops whose slots it reads
        self.lines: list = []               # (reads, the local set or None, statement or guard)
        self.tables: dict = {}              # frame local -> its binding
        self.consts: list = []              # K, the values the source indexes
        self.binders = itertools.count()    # numbers the quantifier locals q<n>
        self.sources: dict = {}             # change-of-variable target -> its source
        self.polars: dict = {}              # slot over a Q space -> its polar's local
        self.free_vars: dict = {}           # id of a first-order node -> its free variables
        self.loop_free: dict = {}           # (id of a node, variable) -> has a mask over it?
        self.complements: dict = {}         # a mask's complement -> the mask
        self.depth = min(len(spaces), _MAX_LOOPS)
        for i, space in enumerate(spaces):
            self.reads[f"s{i}"] = frozenset((min(i + 1, self.depth),))
            if self.frame_local(space)[0] == "Q":
                self.polars[i] = None

    def frame_local(self, name: str, binding: str | None = None) -> str:
        """``name``, bound once per call to ``binding``, by default its
        entry of ``_FRAME_LOCALS``."""
        self.tables[name] = binding or _FRAME_LOCALS[name]
        self.reads[name] = frozenset()
        return name

    def emit(self, name: str, expr: str, *reads: str) -> str:
        """``name = expr``, reading the slots that ``reads`` read."""
        self.exprs.setdefault(expr, name)
        self.reads[name] = frozenset().union(*(self.reads[r] for r in reads))
        self.lines.append((self.reads[name], name, f"{name} = {expr}"))
        return name

    def share(self, expr: str, *reads: str) -> str:
        """The local holding ``expr``, emitted the first time."""
        name = self.exprs.get(expr)
        return self.emit(f"v{next(self.fresh)}", expr, *reads) if name is None else name

    def step(self, tgt: int, src: int, sort: str, check: bool) -> None:
        """A change of variable: slot ``tgt`` is the polar of slot ``src``,
        assigned, or checked when ``tgt`` is already bound.  An assigned
        target is also the local of the source's ``Prime`` (``share``), and
        the loop over the source binds it when that runs over a ``Q`` space."""
        target, source = f"s{tgt}", f"s{src}"
        if check:
            self.guard(f"{target} != {self.frame_local('P' + sort)}[{source}]", target, source)
            return
        self.sources[target] = source
        if src in self.polars and self.polars[src] is None:
            self.polars[src] = target       # bound by the loop over the source
            self.reads[target] = self.reads[source]
        else:
            self.emit(target, f"{self.frame_local('P' + sort)}[{source}]", source)

    def guard(self, failed: str, *reads: str) -> None:
        """Skip every row on which ``failed`` holds: the rest of the loop
        that binds the deepest of ``reads``, or, outside the loops, all."""
        self.lines.append((frozenset().union(*(self.reads[r] for r in reads)), None, failed))

    def value(self, f) -> str:
        """The local holding the value of node ``f``."""
        name = self.names.get(f)
        if name is not None:
            return name
        kind = type(f)
        if kind is SortedVar:
            if f not in self.slots:
                raise KeyError(f"no value for sorted variable {f}")
            name = self.names[f] = f"s{self.slots[f]:d}"
            self.reads.setdefault(name, frozenset())
            return name
        if kind is STop:
            return self.frame_local("F" + f.sort)
        if kind is SBot:
            return "0"
        if kind is Cap or kind is Cup:
            args = (self.value(f.left), self.value(f.right))
            expr = f" {'&' if kind is Cap else '|'} ".join(args)
        elif kind is Prime:
            arg = f.arg
            if type(arg) is Prime:                  # a closure
                args = (self.frame_local("C" + f.sort), self.value(arg.arg))
            else:
                inner = self.value(arg)
                slot = self.slots.get(arg)
                if inner in self.sources:           # the closure of the target's source
                    args = (self.frame_local("C" + f.sort), self.sources[inner])
                elif slot in self.polars:           # bound by the loop over the slot
                    name = self.names[f] = self.polars[slot] = \
                        self.polars[slot] or f"v{next(self.fresh)}"
                    self.reads.setdefault(name, self.reads[inner])
                    return name
                else:
                    args = (self.frame_local("P" + arg.sort), inner)
            expr = "%s[%s]" % args
        else:
            meaning = SORTED_MEANING.get(kind)
            if meaning is None:
                raise TypeError(f"not a sorted formula: {f!r}")
            quantifier, rel, _ = meaning
            table = self.table((_REL_ROWS[rel][0], kind.arg_sorts[-1], quantifier is Forall))
            if len(kind.arg_sorts) == 2:    # the unary table of the left mask, at its loop
                left = self.value(f.left)
                table = self.share(f"{table}[{left}]", left)
            args = (table, self.value(f._kids[-1]))
            expr = "%s[%s]" % args
        name = self.names[f] = self.share(expr, *args)
        return name

    def truth(self, f: FoFormula, scope: dict) -> str:
        """The expression of first-order formula ``f``, truthy where ``eval_fo``
        holds, ``scope`` mapping its free variables to locals.  A quantifier
        whose body has a mask over its variable (``mask``) compares that mask
        with the empty set or the whole sort; any other is an ``all``/``any``
        over its space with a local ``q<n>`` of its own.  A chain of one
        connective is one bracketed ``and``/``or``; a variable no scope binds
        raises ``KeyError`` when it is evaluated."""
        kind = type(f)
        if kind is TrueF or kind is FalseF:
            return str(kind is TrueF)
        if kind is NotF:
            return f"not {self.truth(f.arg, scope)}"
        if kind is ImpF:
            return f"(not {self.truth(f.left, scope)} or {self.truth(f.right, scope)})"
        if kind is AndF or kind is OrF:
            args = [self.truth(g, scope) for g in _operands(f)]
            return f"({(' and ' if kind is AndF else ' or ').join(args)})"
        if kind is Forall or kind is Exists:
            holds = self.mask(f.body, f.var, scope)
            if holds is not None:
                return f"{holds} != 0" if kind is Exists else \
                    f"{holds} == {self.frame_local('F' + f.var.sort)}"
        if kind is Forall or kind is Exists or kind is Forall2:
            name = f"q{next(self.binders)}"
            # E1/Ed or R1/Rd: the sorts are named "1" and "d"
            space = self.frame_local(("R" if kind is Forall2 else "E") + f.var.sort)
            body = self.truth(f.body, {**scope, f.var: name})
            return f"{'any' if kind is Exists else 'all'}({body} for {name} in {space})"
        if kind is Eq:
            args, shape = (f.t1, f.t2), "{} == {}"
        elif kind is PredApp or kind is RelAtom:
            index, bit = _row_args(f)
            args, shape = (*index, bit), self.row(f) + " >> {} & 1"
        else:
            raise TypeError(f"not a first-order formula: {f!r}")
        missing = next((v for v in args if v not in scope), None)
        if missing is None:
            return shape.format(*(scope[v] for v in args))
        what = "no value for predicate" if type(missing) is PVar else "unassigned free"
        return f"{{}}[{self.const(f'{what} variable {missing}')}]"    # raises KeyError(it)

    def row(self, f) -> str:
        """The format of atom ``f``'s row, one field per index argument: its
        predicate's mask, or the rows of its relation of ``_REL_ROWS``, of
        ``<=`` or of a word, bound once per call."""
        if type(f) is PredApp:
            return "{}"
        attr, index, _ = _REL_ROWS.get(f.rel, (None, (0,), 1))
        if f.rel == "<=":
            attr = "up" + f.args[0].sort
        if attr is not None:
            rows = self.frame_local(attr, f"fr.{attr}")
        elif (rows := self.names.get(f.rel)) is None:     # a word's rows, keyed by it
            letters = self.const(tuple(f.rel[4:].split(".")))
            rows = self.names[f.rel] = self.frame_local(f"v{next(self.fresh)}",
                                                        f"fr.word_rows({letters})")
        return rows + "[{}]" * len(index)

    def free(self, f: FoFormula) -> frozenset:
        """The free variables of ``f``, individual and predicate, worked out
        once per node."""
        got = self.free_vars.get(id(f))
        if got is None:
            kind = type(f)
            if kind is Eq:
                got = frozenset((f.t1, f.t2))
            elif kind is RelAtom:
                got = frozenset(f.args)
            elif kind is PredApp:
                got = frozenset((f.var, f.arg))
            elif kind is Forall or kind is Exists or kind is Forall2:
                got = self.free(f.body) - {f.var}
            else:
                got = frozenset().union(*map(self.free, _operands(f)))
            self.free_vars[id(f)] = got
        return got

    def has_mask(self, f: FoFormula, v: IVar) -> bool:
        """Whether ``f`` has a loop-free mask over ``v`` (``mask``), worked
        out once per node and variable."""
        key = (id(f), v)
        got = self.loop_free.get(key)
        if got is None:
            kind = type(f)
            if v not in self.free(f):
                got = True
            elif kind is RelAtom or kind is PredApp:
                index, bit = _row_args(f)
                got = bit == v and v not in index
            elif kind is Forall or kind is Exists:
                guard = _guard(f, v)
                got = guard is not None and v not in self.free(guard[2]) \
                    and self.has_mask(guard[2], f.var)
            elif kind in (NotF, ImpF, AndF, OrF):
                got = all(self.has_mask(g, v) for g in _operands(f))
            else:       # an equation or a second-order quantifier
                got = False
            self.loop_free[key] = got
        return got

    def mask(self, f: FoFormula, v: IVar, scope: dict) -> str | None:
        """The expression of the mask over ``v``'s sort of the points where
        ``f`` holds, ``scope`` binding its other free variables, or None
        when it has none without a loop over points (``has_mask``) or reads
        a variable no scope binds.  An atom whose bit argument is ``v`` is
        its row; ``/\\``, ``\\/``, ``~`` and ``->`` are ``&``, ``|`` and the
        complement in ``F<sort>``; a subformula without ``v`` is the whole
        sort or nothing; ``exists u (A /\\ h)`` and ``forall u (A -> h)``
        with ``A`` an atom of one-index rows between ``u`` and ``v`` and no
        ``v`` in ``h`` (``_guard``) are one lookup, in the union or box table
        of ``A``'s rows (``_OperatorTables``), of the mask of ``h`` over
        ``u``.  Such an expression nests at most one bracket deeper than
        ``truth``'s for ``f``, so the quantifier it stands for, which drops
        its ``all``/``any``, nests no deeper either."""
        if not (self.free(f) - {v} <= scope.keys() and self.has_mask(f, v)):
            return None
        kind, full = type(f), self.frame_local("F" + v.sort)
        if v not in self.free(f):
            return f"({full} if {self.truth(f, scope)} else 0)"
        if kind is RelAtom or kind is PredApp:
            row = self.row(f).format(*(scope[a] for a in _row_args(f)[0]))
            # a predicate's mask may hold bits past the carrier
            return row if kind is RelAtom else f"({row} & {full})"
        if kind is NotF:
            return self.complement(self.mask(f.arg, v, scope), full)
        if kind is ImpF:
            return f"({self.complement(self.mask(f.left, v, scope), full)} | " \
                   f"{self.mask(f.right, v, scope)})"
        if kind is AndF or kind is OrF:
            args = [self.mask(g, v, scope) for g in _operands(f)]
            return f"({(' & ' if kind is AndF else ' | ').join(args)})"
        attr, box, h = _guard(f, v)
        table = self.table((attr, f.var.sort, box))
        inner = self.mask(h, f.var, scope)
        if box != (kind is Exists):     # the table of A's rows fits the quantifier
            return f"{table}[{inner}]"
        # exists with a box's rows, forall with a union's: the dual, complemented
        inner = self.complement(inner, self.frame_local("F" + f.var.sort))
        return self.complement(f"{table}[{inner}]", full)

    def table(self, key: tuple) -> str:
        """The local bound once per call to the frame's table ``key`` of
        ``_OperatorTables``."""
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = self.frame_local(f"v{next(self.fresh)}",
                                                      f"fr.op_tables[{self.const(key)}]")
        return name

    def complement(self, mask: str, full: str) -> str:
        """The complement of ``mask`` in ``full``: ``~mask & full``, and of
        that again ``mask``."""
        got = self.complements.get(mask)
        if got is None:
            got = f"~{mask} & {full}"
            self.complements[got] = mask
        return got

    def const(self, value) -> str:
        """``value`` as an entry of the constants ``K``."""
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def compile(self, params: str, inner: Sequence[str], start: Sequence[str] = ()) -> Callable:
        """The function ``kernel(fr<params>)``: the frame locals, ``start``,
        the statements outside the loops, the tables, then the loops with
        ``inner`` in the innermost, then ``return result``.  The source is
        kept as the function's ``source``."""
        folded = len(self.spaces) > self.depth      # the last loop holds several slots
        body: list[list[str]] = [[] for _ in range(self.depth + 1)]
        slot_tables: dict = {}                      # loop -> (local, statement) of its table
        for reads, name, line in self.lines:
            level = max(reads, default=0)
            if name is None:
                line = f"if {line}: {'continue' if level else f'return {self.result}'}"
            if level > 1 and len(reads) == 1 and not (folded and level == self.depth):
                slot_tables.setdefault(level, []).append((name, line))
            else:
                body[level].append(line)
        body[self.depth] += inner
        used = set(_LOCAL.findall("\n".join([self.result, *itertools.chain(*body)])))
        before: list[str] = []          # the tables, filled before the loops
        heads = [""]
        for level in range(1, self.depth + 1):
            slots = range(level - 1, len(self.spaces) if level == self.depth else level)
            bound = [self.bound(i) for i in slots]
            if level in slot_tables:
                stmts = slot_tables[level]
                out = bound[0] + [name for name, _ in stmts if name in used]
                table = f"v{next(self.fresh)}"
                item = out[0] if len(out) == 1 else f"({', '.join(out)})"
                before += [f"{table} = []",
                           f"for {', '.join(bound[0])} in {self.spaces[level - 1]}:",
                           *(f"    {line}" for _, line in stmts),
                           f"    {table}.append({item})"]
                heads.append(f"for {', '.join(out)} in {table}:")
            elif len(bound) == 1:
                heads.append(f"for {', '.join(bound[0])} in {self.spaces[level - 1]}:")
            else:
                targets = [names[0] if len(names) == 1 else f"({', '.join(names)})"
                           for names in bound]
                heads.append(f"for {', '.join(targets)} in "
                             f"product({', '.join(self.spaces[i] for i in slots)}):")
        lines = [f"def kernel(fr{params}):"]
        lines += [f"    {name} = {expr}" for name, expr in self.tables.items()]
        lines += [f"    {line}" for line in (*start, *body[0], *before)]
        for level in range(1, self.depth + 1):
            lines.append("    " * level + heads[level])
            lines += ["    " * (level + 1) + line for line in body[level]]
        lines.append(f"    return {self.result}")
        source = "\n".join(lines) + "\n"
        depth = max(itertools.accumulate((c in "([{") - (c in ")]}") for c in source))
        if depth > _MAX_NESTING:
            raise FormulaDepthError(f"a formula nests {depth} brackets deep in generated "
                                    f"code; at most {_MAX_NESTING} are supported")
        namespace = {"product": itertools.product, "K": tuple(self.consts)}
        # a file name of its own: a profile tells the kernels apart
        exec(compile(source, f"<generated evaluator {next(_KERNEL_NUMBERS)}>", "exec"), namespace)
        kernel = namespace["kernel"]
        kernel.source = source
        return kernel

    def bound(self, slot: int) -> list[str]:
        """The locals the loop over ``slot`` binds: the slot's, and over a
        ``Q`` space its polar's."""
        if slot not in self.polars:
            return [f"s{slot}"]
        self.polars[slot] = self.polars[slot] or f"v{next(self.fresh)}"
        return [f"s{slot}", self.polars[slot]]


def compile_sorted(f: SortedFormula, slots: dict) -> Callable[[FiniteFrame, list], int]:
    """``f`` as a generated function ``(frame, row) -> mask`` that agrees
    with ``model_check_sorted``, the reference; ``row[slots[v]]`` is the
    mask of variable ``v``.  It is the single-root, loop-free case of the
    generator behind ``system_equivalence_witness`` and
    ``correspondence_oracle`` (``_Nest``): one local per distinct node, the
    frame's polar tables and its operators' union and box tables
    (``_OperatorTables``) bound once per call."""
    nest = _Nest(slots, "")
    nest.result = nest.value(f)
    start = [f"s{slot:d} = row[{slot:d}]" for slot in sorted({slots[v] for v in sorted_vars(f)})]
    return nest.compile(", row", (), start)


def model_check_dfml(frame: FiniteFrame, valuation: dict, f: DfmlFormula) -> tuple[int, int]:
    """Interpretation and co-interpretation of a modal formula.

    The valuation maps variable indices to Galois stable masks.
    """
    val = _dfml_value(frame, valuation, f)
    return val, frame._polar1_table[val]


def _dfml_value(frame: FiniteFrame, valuation: dict, f: DfmlFormula) -> int:
    if isinstance(f, PropVar):
        a = valuation[f.index]
        if frame.close1(a) != a:
            raise ValueError(f"valuation of p{f.index} is not a stable set")
        return a
    if isinstance(f, Top):
        return frame.full1
    if isinstance(f, Bot):
        return frame.polard(frame.fulld)
    if isinstance(f, And):
        return _dfml_value(frame, valuation, f.left) & _dfml_value(frame, valuation, f.right)
    if isinstance(f, Or):
        return frame.close1(_dfml_value(frame, valuation, f.left) | _dfml_value(frame, valuation, f.right))
    if isinstance(f, Box):
        return frame.lbminus(_dfml_value(frame, valuation, f.arg))
    if isinstance(f, Dia):
        return frame.close1(frame.ldvert(_dfml_value(frame, valuation, f.arg)))
    if isinstance(f, Neg):
        return frame.polard(frame.ltdown(_dfml_value(frame, valuation, f.arg)))
    if isinstance(f, Imp):
        return frame.imp_t(_dfml_value(frame, valuation, f.left),
                           _dfml_value(frame, valuation, f.right))
    raise TypeError(f"not a modal formula: {f!r}")


def _dfml_operators(f: DfmlFormula) -> SortedFormula:
    """The sorted formula whose value is ``_dfml_value`` of ``f`` on stable
    valuations: ``translate_bullet(f)`` read on them, each ``P''`` as ``P``,
    a stable set being its own closure, and ``bot`` as the polar of the full
    sort-d carrier, its value on every frame."""
    return _on_stable_valuations(translate_bullet(f))


def _on_stable_valuations(g: SortedFormula) -> SortedFormula:
    if type(g) is Prime and type(g.arg) is Prime and type(g.arg.arg) is SortedVar:
        return g.arg.arg
    if g is SBot(SORT1):
        return Prime(STop(SORTD))
    return rebuild(g, [_on_stable_valuations(kid) for kid in g._kids])


def compile_dfml(f: DfmlFormula, var_ids) -> Callable[[FiniteFrame, Sequence[int]], int]:
    """``f`` as a generated function ``(frame, row) -> mask`` that agrees
    with the value of ``model_check_dfml``, the reference; ``row[i]`` is the
    mask of variable ``p<var_ids[i]>``.  The row is not checked for
    stability.  ``compile_sorted`` of ``f``'s operators generates it."""
    return compile_sorted(_dfml_operators(f),
                          {SortedVar(v, SORT1): i for i, v in enumerate(var_ids)})


# ---------------------------------------------------------------------------
# First-order evaluation
# ---------------------------------------------------------------------------

def eval_fo(frame: FiniteFrame, f: FoFormula, env: dict | None = None,
            penv: dict | None = None) -> bool:
    """Classical satisfaction over the finite frame.

    ``env`` assigns elements (indices) to individual variables, ``penv``
    assigns masks to predicate variables.  Second-order quantifiers range
    over all subsets of the appropriate carrier.
    """
    env = env or {}
    penv = penv or {}
    return _ev(frame, f, env, penv)


# Relation symbol -> whether it holds of some argument indices, read off
# the frame's pair sets and its rows by position.
_REL_HOLDS = {
    "I": lambda fr, a: fr.irow[a[0]] >> a[1] & 1,
    "R_dia": lambda fr, a: a in fr.r_dia,
    "R_box": lambda fr, a: a in fr.r_box,
    "R_neg": lambda fr, a: a in fr.r_neg,
    "T": lambda fr, a: a in fr.t_rel,
    "R'_dia": lambda fr, a: fr.rpdia[a[0]] >> a[1] & 1,
    "R'_box": lambda fr, a: fr.rpbox[a[0]] >> a[1] & 1,
    "R'_neg": lambda fr, a: fr.rpneg[a[0]] >> a[1] & 1,
    "T'": lambda fr, a: fr.tprime[a[1]][a[2]] >> a[0] & 1,
    "R''_dia": lambda fr, a: fr.rddia[a[0]] >> a[1] & 1,
    "R''_box": lambda fr, a: fr.rdbox[a[0]] >> a[1] & 1,
    "R''_neg": lambda fr, a: fr.rdneg[a[0]] >> a[1] & 1,
    "R111": lambda fr, a: fr.r111[a[1]][a[2]] >> a[0] & 1,
}


def _rel_holds(frame: FiniteFrame, rel: str, args: tuple[int, ...]) -> bool:
    if rel in _REL_HOLDS:
        return bool(_REL_HOLDS[rel](frame, args))
    if rel.startswith("R''_"):
        letters = tuple(rel[4:].split("."))
        return bool(frame.word_row(letters, args[0]) & (1 << args[1]))
    raise ValueError(f"unknown relation symbol {rel!r}")


def _ev(frame, f, env, penv) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Eq):
        return _lookup(env, f.t1) == _lookup(env, f.t2)
    if isinstance(f, RelAtom):
        if f.rel == "<=":
            return frame.leq(f.args[0].sort, _lookup(env, f.args[0]), _lookup(env, f.args[1]))
        return _rel_holds(frame, f.rel, tuple(_lookup(env, t) for t in f.args))
    if isinstance(f, PredApp):
        try:
            mask = penv[f.var]
        except KeyError:
            raise KeyError(f"no value for predicate variable {f.var}") from None
        return bool(mask & (1 << _lookup(env, f.arg)))
    if isinstance(f, NotF):
        return not _ev(frame, f.arg, env, penv)
    if isinstance(f, AndF):
        return _ev(frame, f.left, env, penv) and _ev(frame, f.right, env, penv)
    if isinstance(f, OrF):
        return _ev(frame, f.left, env, penv) or _ev(frame, f.right, env, penv)
    if isinstance(f, ImpF):
        return (not _ev(frame, f.left, env, penv)) or _ev(frame, f.right, env, penv)
    if isinstance(f, Forall):
        n = frame.n1 if f.var.sort == SORT1 else frame.nd
        return all(_ev(frame, f.body, {**env, f.var: e}, penv) for e in range(n))
    if isinstance(f, Exists):
        n = frame.n1 if f.var.sort == SORT1 else frame.nd
        return any(_ev(frame, f.body, {**env, f.var: e}, penv) for e in range(n))
    if isinstance(f, Forall2):
        full = frame.full1 if f.var.sort == SORT1 else frame.fulld
        return all(_ev(frame, f.body, env, {**penv, f.var: m}) for m in range(full + 1))
    raise TypeError(f"not a first-order formula: {f!r}")


def _lookup(env: dict, v: IVar) -> int:
    try:
        return env[v]
    except KeyError:
        raise KeyError(f"unassigned free variable {v}") from None


def compile_fo(f: FoFormula, free=()) -> Callable[[FiniteFrame, Sequence[int]], bool]:
    """``f`` as a generated function ``(frame, row) -> bool`` that agrees
    with ``eval_fo``, the reference; ``row[i]`` is the value of ``free[i]``,
    an element for an ``IVar`` and a mask for a ``PVar``.  A variable
    neither free nor bound raises ``KeyError`` when it is evaluated.  It is
    the loop-free front end of ``_Nest.truth``, as in ``correspondence_oracle``:
    a guarded quantifier is one table lookup (``_Nest.mask``), any other an
    ``all``/``any``.  Past ``_MAX_NESTING`` brackets it raises
    ``FormulaDepthError``."""
    nest = _Nest({}, "")
    nest.result = f"bool({nest.truth(f, {v: f's{i:d}' for i, v in enumerate(free)})})"
    return nest.compile(", row", (), [f"s{i:d} = row[{i:d}]" for i in range(len(free))])

# ---------------------------------------------------------------------------
# Validity and the correspondence oracle
# ---------------------------------------------------------------------------

def sequent_valuations(frame: FiniteFrame, s: Sequent):
    """All stable-set valuations of the sequent's variables."""
    var_ids = sorted(set(dfml_vars(s.lhs)) | set(dfml_vars(s.rhs)))
    for combo in itertools.product(frame.stable1, repeat=len(var_ids)):
        yield dict(zip(var_ids, combo))


def local_validity(frame: FiniteFrame, s: Sequent, w: int, sort: str = SORT1) -> bool:
    """Pointwise validity under every stable-set valuation.

    For a sort-1 point this is the sequent itself; for a sort-d point it is
    the dual sequent (refuting the conclusion refutes the premiss).
    """
    bit = 1 << w
    for val in sequent_valuations(frame, s):
        lv, lc = model_check_dfml(frame, val, s.lhs)
        rv, rc = model_check_dfml(frame, val, s.rhs)
        if sort == SORT1:
            if (lv & bit) and not (rv & bit):
                return False
        else:
            if (rc & bit) and not (lc & bit):
                return False
    return True


def frame_validity(frame: FiniteFrame, s: Sequent) -> bool:
    for val in sequent_valuations(frame, s):
        lv, _ = model_check_dfml(frame, val, s.lhs)
        rv, _ = model_check_dfml(frame, val, s.rhs)
        if lv & ~rv:
            return False
    return True


def system_valuations(frame: FiniteFrame, systems) -> Iterator[dict]:
    """All valuations (SortedVar -> mask) satisfying every constraint of the
    given systems.

    Stability-constrained variables range over Galois sets of their sort,
    change-of-variable targets are computed from their source, and all other
    variables range over arbitrary subsets.  Keys run over the free
    variables in first-occurrence order, then the targets in the order they
    are resolved.  Change-of-variable chains resolve whatever their length
    and listing order; only a cycle of them, which fixes no target, leaves
    no valuation.
    """
    plan = _systems_plan(tuple(systems))
    for row in _plan_rows(frame, plan):
        yield dict(zip(plan.keys, row))


def system_holds(frame: FiniteFrame, sys, valuation: dict) -> bool:
    lhs = model_check_sorted(frame, valuation, sys.main.lhs)
    rhs = model_check_sorted(frame, valuation, sys.main.rhs)
    return not (lhs & ~rhs)


def system_equivalence_witness(frame: FiniteFrame, sys1, sys2):
    """A valuation satisfying both systems' constraints on which exactly one
    main inequality holds, or None when the systems agree everywhere.

    The pair is compiled once (``_systems_plan``) into one generated loop
    nest (``_Nest``): a loop per free variable, each change of variable at
    the loop of its source, and each node of the four sides computed once
    per change of the variables it reads, the two systems sharing their
    common subterms.  A variable read only through its polar takes the
    first mask of each polar.  The witness is the first valuation of
    ``system_valuations(frame, (sys1, sys2))`` on which ``system_holds``,
    the reference, tells the systems apart.  When the main inequalities
    differ only below their sides' roots, a smaller nest over the
    variables of what the step changed runs first (``_changed_kernel``),
    and the whole nest runs only when it finds a hole whose two sides
    differ.
    """
    plan = _systems_plan((sys1, sys2))
    if plan.kernel is None or plan.changed is not None and plan.changed(frame) is None:
        return None
    row = plan.kernel(frame)
    return None if row is None else dict(zip(plan.keys, row))


@dataclass(frozen=True)
class _SystemsPlan:
    """What ``system_valuations`` and ``system_equivalence_witness`` need of
    some systems, worked out once.  A row holds one mask per slot: the free
    variables first, then the change-of-variable targets.  Of two resolved
    systems, ``kernel`` finds the first witness and ``changed``, when
    built, says whether one can exist."""

    keys: tuple          # the variable in each slot
    spaces: tuple        # (stability-constrained?, sort) per free variable
    steps: tuple         # (target slot, source slot, source sort, check only?)
    resolved: bool       # False when a cycle of changes of variable fixes no target
    kernel: Callable | None   # of two resolved systems: frame -> the first row
                              # on which they differ, or None
    changed: Callable | None  # of two such systems: frame -> True when some
                              # hole differs (_changed_kernel), else None


def _systems_plan(systems: tuple) -> _SystemsPlan:
    """The plan of ``systems``: the slots and spaces of their variables,
    the order of their changes of variable and, of a pair, its kernels.  A
    pair's plan is kept on its first system, by the id of the second and
    with it, so that no id is reused while kept: a dict lookup, where a
    cache keyed by the systems would hash them in Python."""
    if len(systems) != 2:
        return _new_plan(systems)
    plans = systems[0].__dict__.setdefault("_plans", {})
    entry = plans.get(id(systems[1]))
    if entry is None:
        entry = plans[id(systems[1])] = (systems[1], _new_plan(systems))
    return entry[1]


def _new_plan(systems: tuple) -> _SystemsPlan:
    vs: list = []
    stb_vars = set()
    cvc_pairs = []
    for sys in systems:
        for f in (sys.main.lhs, sys.main.rhs):
            for v in sorted_vars(f):
                if v not in vs:
                    vs.append(v)
        for c in sys.stb:
            stb_vars.add(c.var)
            if c.var not in vs:
                vs.append(c.var)
        for c in sys.cvc:
            if (c.var, c.source) not in cvc_pairs:      # a repeat would only recheck
                cvc_pairs.append((c.var, c.source))
            for v in (c.var, c.source):
                if v not in vs:
                    vs.append(v)
    determined = {v for v, _ in cvc_pairs}
    keys = [v for v in vs if v not in determined]
    spaces = tuple((v in stb_vars, v.sort) for v in keys)
    # Resolve the changes of variable in passes over the pending ones, each
    # as soon as its source is known; a second constraint on a known target
    # becomes a check.  Stop when a pass makes no progress.
    known = set(keys)
    order = []
    pending = cvc_pairs
    while pending:
        rest = []
        for tgt, src in pending:
            if src in known:
                order.append((tgt, src, tgt in known))
                if tgt not in known:
                    known.add(tgt)
                    keys.append(tgt)
            else:
                rest.append((tgt, src))
        if len(rest) == len(pending):
            break
        pending = rest
    keys += [v for v in vs if v not in known]
    slots = {v: i for i, v in enumerate(keys)}
    steps = tuple((slots[tgt], slots[src], src.sort, check) for tgt, src, check in order)
    kernel = changed = None
    if not pending and len(systems) == 2:
        depths = prime_depths(*(side for sys in systems for side in (sys.main.lhs, sys.main.rhs)))
        # a subset read only through its polar needs one mask per polar
        names = [("S" if stable else "Q" if all(depths.get(v, ())) else "R") + sort
                 for v, (stable, sort) in zip(keys, spaces)]
        nest = _Nest(slots, "None", names)
        for step in steps:
            nest.step(*step)
        sides = [(nest.value(sys.main.lhs), nest.value(sys.main.rhs)) for sys in systems]
        if sides[0] == sides[1]:        # equal on every row: no loop can find a witness
            kernel = _Nest(slots, "None").compile("", ())
        else:   # the rows under a prefix on which the systems agree are skipped whole
            (lhs1, rhs1), (lhs2, rhs2) = sides
            nest.guard(f"(not {lhs1} & ~{rhs1}) == (not {lhs2} & ~{rhs2})", lhs1, rhs1, lhs2, rhs2)
            kernel = nest.compile("", [f"return ({''.join(f's{i}, ' for i in range(len(keys)))})"])
            changed = _changed_kernel(systems[0].main, systems[1].main, slots, names, steps)
    return _SystemsPlan(tuple(keys), spaces, steps, not pending, kernel, changed)


def _holes(a: SortedFormula, b: SortedFormula) -> list:
    """The holes of ``a`` and ``b``, of one sort: the maximal pairs of
    subterms at which they differ, in pre-order, save that two nodes of one
    operator whose holes include a pair that reads other variables on one
    side than on the other are one hole.  Such a pair seldom agrees on
    every row, while the nodes may: R5.9 moves variables between the
    arguments of an ``rspoon``.  Well-sortedness gives both sides of a hole
    one sort."""
    if a is b:
        return []
    if type(a) is type(b) and a._kids:
        holes = [hole for x, y in zip(a._kids, b._kids) for hole in _holes(x, y)]
        if all(set(x._occ) == set(y._occ) for x, y in holes):
            return holes
    assert a.sort == b.sort, (a, b)
    return [(a, b)]


def _changed_kernel(main1, main2, slots: dict, spaces: list, steps: tuple) -> Callable | None:
    """The check of what a step changed: ``frame -> True`` when some pair of
    the main inequalities' holes (``_holes``) differs on some row, else
    None.  Agreeing holes make the systems agree, since each side is a
    function of its subterms.  Its loops run over the holes' variables and
    the sources of the targets among them, each over its space of the
    plan; a check-only step is dropped, which only adds rows.  None when a
    hole is a whole side, as for R2, R3, R7a-c and R8."""
    if main1.sort != main2.sort:
        return None
    pairs = ((main1.lhs, main2.lhs), (main1.rhs, main2.rhs))
    holes = [hole for a, b in pairs for hole in _holes(a, b)]
    if any(hole in pairs for hole in holes):     # a whole side changed
        return None
    need = {slots[v] for hole in holes for side in hole for v in side._occ}
    for tgt, src, _, check in reversed(steps):
        if tgt in need and not check:
            need.add(src)
    kept = {old: new for new, old in enumerate(sorted(need))}   # free slots first
    nest = _Nest({v: kept[i] for v, i in slots.items() if i in kept}, "None",
                 [space for i, space in enumerate(spaces) if i in kept])
    for tgt, src, sort, check in steps:
        if tgt in kept and not check:
            nest.step(kept[tgt], kept[src], sort, False)
    values = [(nest.value(x), nest.value(y)) for x, y in holes]
    nest.guard(" and ".join(dict.fromkeys(f"{x} == {y}" for x, y in values)),
               *itertools.chain(*values))
    return nest.compile("", ["return True"])


def _plan_rows(frame: FiniteFrame, plan: _SystemsPlan):
    """Every row satisfying the plan's constraints on ``frame``.  The same
    list is refilled and yielded each time; copy it to keep it."""
    if not plan.resolved:
        return
    spaces = [frame.stable_sets(sort) if stable
              else range((frame.full1 if sort == SORT1 else frame.fulld) + 1)
              for stable, sort in plan.spaces]
    steps = [(tgt, src, check, frame._polar1_table if sort == SORT1 else frame._polard_table)
             for tgt, src, sort, check in plan.steps]
    n_free = len(spaces)
    row = [0] * len(plan.keys)
    for combo in itertools.product(*spaces):
        row[:n_free] = combo
        for tgt, src, check, polar in steps:
            want = polar[row[src]]
            if not check:
                row[tgt] = want
            elif row[tgt] != want:
                break
        else:
            yield row


def correspondence_oracle(frame: FiniteFrame, s: Sequent, anchor: IVar,
                          corr: FoFormula):
    """Compare pointwise sequent validity against the first-order formula.

    Returns None on agreement at every point of the anchor sort, else the
    first disagreeing point (its name).  Once per (sequent, anchor,
    formula) objects, the three are compiled into one generated function
    (``_Nest``): its loops, one per variable over the stable sets, OR
    together the points where the (dual) sequent fails.  Then the formula
    is one expression: the mask of the points where it holds when it has
    one (``_Nest.mask``), the first disagreeing point then being one
    lookup, and otherwise its truth at each point in turn, its guarded
    quantifiers each one table lookup.  The per-point loop of
    ``local_validity`` and ``eval_fo`` is the reference.
    """
    kernel = _oracle_plan(s, anchor, corr)
    if not frame._stable1_checked:
        _check_stable(frame.stable1, frame._polar1_table, frame._polard_table)
    w = kernel(frame)
    return None if w is None else (frame.z1 if anchor.sort == SORT1 else frame.zd)[w]


def _check_stable(stable1, polar1, polard) -> None:
    """Raise ``ValueError`` unless every mask of ``stable1`` is its own closure."""
    for a in stable1:
        if polard[polar1[a]] != a:
            raise ValueError(f"valuation value {a} is not a stable set")


# Oracle kernels by the ids of their (sequent, anchor, formula), stored
# with the three objects so that no id is reused while cached.  Identity:
# hashing the formula trees on every frame would cost more than the oracle.
# A run checks one triple on every frame; a test may take turns among a few.
_oracle_plans: dict = {}


def _oracle_plan(s: Sequent, anchor: IVar, corr: FoFormula):
    """The oracle kernel, ``frame -> the index of the first point where the
    (dual) sequent's validity and corr disagree``, or None."""
    key = (id(s), id(anchor), id(corr))
    if key not in _oracle_plans:
        var_ids = sorted(set(dfml_vars(s.lhs)) | set(dfml_vars(s.rhs)))
        nest = _Nest({SortedVar(v, SORT1): i for i, v in enumerate(var_ids)}, "",
                     ["S1"] * len(var_ids))
        lhs, rhs = nest.value(_dfml_operators(s.lhs)), nest.value(_dfml_operators(s.rhs))
        if anchor.sort == SORT1:
            refuted = f"{lhs} & ~{rhs}"
        else:       # the dual sequent: the polars, sort-d masks, the other way round
            refuted = f"{nest.frame_local('P1')}[{rhs}] & ~P1[{lhs}]"
        holds = nest.mask(corr, anchor, {})
        if holds is not None:       # the lowest point failing where corr holds, or neither
            full = nest.frame_local("F" + anchor.sort)
            nest.result = f"{nest.const(_LOWEST)}[~(failing ^ {nest.share(holds)}) & {full}]"
        else:
            w = f"q{next(nest.binders)}"
            holds = nest.truth(corr, {anchor: w})
            nest.result = (f"next(({w} for {w} in {nest.frame_local('E' + anchor.sort)} "
                           f"if failing >> {w} & 1 == ({holds})), None)")
        if len(_oracle_plans) >= 8:
            _oracle_plans.clear()
        _oracle_plans[key] = (s, anchor, corr, nest.compile("", [f"failing |= {refuted}"],
                                                             ["failing = 0"]))
    return _oracle_plans[key][-1]


# ---------------------------------------------------------------------------
# Frame files
# ---------------------------------------------------------------------------

FRAME_FORMAT_VERSION = 1


def frame_to_json(frame: FiniteFrame) -> dict:
    doc = {"version": FRAME_FORMAT_VERSION, "z1": list(frame.z1), "zd": list(frame.zd)}
    names = {SORT1: frame.z1, SORTD: frame.zd}
    for key, (attr, sorts) in _FRAME_RELATIONS.items():
        tuples = [[names[sort][i] for i, sort in zip(t, sorts)] for t in getattr(frame, attr)]
        doc[key] = sorted(tuples, key=lambda t: [(isinstance(n, str), n) for n in t])  # numbers first
    return doc


def load_frame(path: str, validate: bool = True) -> FiniteFrame:
    """The frame of a ``frame_to_json`` file; a file that is not one raises
    ``FrameValidationError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:         # not JSON, or not UTF-8
            raise FrameValidationError(f"not a JSON document: {e}") from None
    if not isinstance(doc, dict):
        raise FrameValidationError(
            f"a frame file holds a JSON object, not a {type(doc).__name__}")
    if doc.get("version") != FRAME_FORMAT_VERSION:
        raise FrameValidationError(f"unsupported frame file version {doc.get('version')!r}")

    def names(value, length=None) -> bool:     # a name is a JSON string or number
        return isinstance(value, list) and length in (None, len(value)) \
            and all(isinstance(n, (str, int, float)) for n in value)

    for key in ("z1", "zd"):
        if key not in doc:
            raise FrameValidationError(f"frame file lacks the {key!r} field")
        if not names(doc[key]):
            raise FrameValidationError(f"the {key!r} field must be a list of names")
    for key, (_, sorts) in _FRAME_RELATIONS.items():
        entries = doc.get(key, [])
        if not isinstance(entries, list) or not all(names(e, len(sorts)) for e in entries):
            raise FrameValidationError(
                f"the {key!r} field must be a list of lists of {len(sorts)} names")
    return FiniteFrame(doc["z1"], doc["zd"], validate=validate,
                       **{attr: [tuple(t) for t in doc.get(key, [])]
                          for key, (attr, _) in _FRAME_RELATIONS.items()})


# ---------------------------------------------------------------------------
# Frame enumeration (for the oracle suites and the verify command)
# ---------------------------------------------------------------------------

def separated_i_masks(n1: int, nd: int):
    """All I relations (as per-x row masks) giving a separated frame.

    Separation only depends on I: the singleton polars must be pairwise
    distinct on each sort, i.e. distinct I-rows and distinct I-columns.
    """
    for rows in itertools.product(range(1 << nd), repeat=n1):
        if len(set(rows)) != n1:
            continue
        if len(set(_transpose(rows, nd))) != nd:
            continue
        yield rows


def relation_tuples(rel: str, n1: int, nd: int) -> list[tuple[int, ...]]:
    """The index tuples (result, *arguments) of base relation ``rel`` at the
    carrier sizes, in lexicographic order.  Bit k of the relation's pattern
    in ``enumerate_frames`` stands for the k-th, so a relation has as many
    bits as tuples."""
    if rel not in _BASE_RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    _, res_sort, arg_sorts, *_ = _BASE_RELATIONS[rel]
    return list(itertools.product(*(range(n1 if sort == SORT1 else nd)
                                     for sort in (res_sort, *arg_sorts))))


# The frame's rows of a base relation's sections or of its double dual ->
# that relation.
_BASE_OF_ROWS = {rows: rel for rel, (_, _, _, sec, _, dd) in _BASE_RELATIONS.items()
                 for rows in (sec, dd)}


def relations_needed(s: Sequent) -> tuple[str, ...]:
    """The base relations the sequent's translation reads, in the order
    Rbox, Rdia, Rneg, T, which fixes ``enumerate_frames``' bit layout."""
    return _relations_read((translate_bullet(s.lhs), translate_bullet(s.rhs)))


def system_relations_needed(*systems) -> tuple[str, ...]:
    """The base relations the operators of the inequality systems' main
    inequalities read, in the order of ``relations_needed``."""
    return _relations_read([f for sys in systems for f in (sys.main.lhs, sys.main.rhs)])


def _relations_read(roots) -> tuple[str, ...]:
    """The base relations whose rows the operators of ``roots`` read, in
    name order: Rbox, Rdia, Rneg, T."""
    rels = set()
    todo = list(roots)
    while todo:
        f = todo.pop()
        if type(f) in SORTED_MEANING:
            rels.add(_BASE_OF_ROWS[_REL_ROWS[SORTED_MEANING[type(f)][1]][0]])
        todo.extend(f._kids)
    return tuple(sorted(rels))


# Patterns of a relation of at most this many bits keep their I-free facts
# for the whole ``enumerate_frames`` call: every space small enough to
# enumerate, and the sampled ones whose draws repeat.  A larger space (T at
# 3+3) is only sampled, and a draw there rarely comes twice.
_KEPT_PATTERN_BITS = 12


class _Patterns(dict):
    """One base relation's patterns at one pair of carrier sizes, each
    mapped, when first met, to the facts that do not depend on I: its
    result sections as ``bytes`` (``secs[a]`` = the results related to the
    a-th argument tuple) and its pair-set and section frame fields.  One per
    relation per ``enumerate_frames`` call, shared by all its I-relations."""

    def __init__(self, rel: str, n1: int, nd: int):
        self.space = relation_tuples(rel, n1, nd)
        self.rel = rel
        (self.pairs_attr, self.res_sort, self.arg_sorts, self.sec_attr, self.polar_attr,
         self.dd_attr) = _BASE_RELATIONS[rel]
        size = {SORT1: n1, SORTD: nd}
        self.res_n = size[self.res_sort]
        self.arg_ns = [size[sort] for sort in self.arg_sorts]
        self.n_args = math.prod(self.arg_ns)
        # (sort, size, stride, first indices) of the lines through the
        # sections along each argument, last argument first
        self.lines, stride = [], 1
        for sort, n in zip(reversed(self.arg_sorts), reversed(self.arg_ns)):
            self.lines.append((sort, n, stride, [a for a in range(self.n_args)
                                                 if not a // stride % n]))
            stride *= n

    def __missing__(self, pattern: int) -> tuple:
        secs = [0] * self.n_args
        for r in range(self.res_n):
            row = pattern >> r * self.n_args
            for a in range(self.n_args):
                if row >> a & 1:
                    secs[a] |= 1 << r
        secs = bytes(secs)
        if len(self.arg_ns) == 1:
            sections = secs
        else:
            n_v = self.arg_ns[1]
            sections = tuple(tuple(secs[x * n_v:(x + 1) * n_v]) for x in range(self.arg_ns[0]))
        facts = secs, ((self.pairs_attr, frozenset(self.space[k] for k in bits(pattern))),
                       (self.sec_attr, sections))
        if len(self.space) <= _KEPT_PATTERN_BITS:
            self[pattern] = facts
        return facts


class _Polarity:
    """One I-relation's tables, built once from its rows and shared,
    immutable, by every frame ``enumerate_frames`` yields over it:
    ``polar1(U)`` is ``fulld`` minus the I-rows of U's points, a closure a
    polar of a polar, and the up-sets the closures of the singletons.  F0
    and F1 depend on I alone and are judged on the rows.  F2 and F3 are
    conjunctions of conditions on each base relation's sections, so
    ``judge`` decides them for one relation's pattern at a time.  The
    reference for all of them is the built frame and its ``check_axioms``.
    """

    def __init__(self, z1: tuple, zd: tuple, i_rows, require):
        n1, nd = len(z1), len(zd)
        full1, fulld = (1 << n1) - 1, (1 << nd) - 1
        irow = tuple(i_rows)
        icol = tuple(_transpose(irow, nd))
        axioms = {"F0": all(irow) and all(icol),
                  "F1": len(set(irow)) == n1 and len(set(icol)) == nd, "F2": True, "F3": True}
        unknown = [ax for ax in require if ax not in axioms]
        if unknown:
            raise ValueError(f"unknown axiom {unknown[0]!r}")
        self.ok = all(axioms[ax] for ax in require)
        self.smooth, self.monotone = "F2" in require, "F3" in require
        self.size = {SORT1: n1, SORTD: nd}
        polar1 = bytes(_union_table(irow, n1)).translate(_COMPLEMENT[nd])
        polard = bytes(_union_table(icol, nd)).translate(_COMPLEMENT[n1])
        # ``bytes.translate`` tables taking each mask to its polar
        self.polar_of = {SORT1: polar1.ljust(256, b"\0"), SORTD: polard.ljust(256, b"\0")}
        close1, closed = polar1.translate(self.polar_of[SORTD]), polard.translate(self.polar_of[SORT1])
        self.closed = {SORT1: close1, SORTD: closed}
        self.up = {SORT1: tuple([close1[1 << u] for u in range(n1)]),
                   SORTD: tuple([closed[1 << y] for y in range(nd)])}
        self.rows = {rel: {} for rel in _BASE_RELATIONS}
        self.shared = {
            "z1": z1, "zd": zd, "n1": n1, "nd": nd, "full1": full1, "fulld": fulld,
            "i_rel": frozenset((x, y) for x, row in enumerate(irow) for y in bits(row)),
            **{attr: frozenset() for attr, *_ in _BASE_RELATIONS.values()},
            "irow": irow, "icol": icol,
            "_polar1_table": polar1, "_polard_table": polard,
            "_close1_table": close1, "_closed_table": closed,
            "stable1": tuple(sorted(set(close1))), "stabled": tuple(sorted(set(closed))),
            "up1": self.up[SORT1], "upd": self.up[SORTD], "_stable1_checked": True,
        }
        _check_stable(self.shared["stable1"], polar1, polard)

    def judge(self, patterns: _Patterns, pattern: int) -> tuple | None:
        """The record of ``patterns.rel`` with the given pattern, its frame
        fields as (attribute, value) pairs, or None when it fails F2 or F3
        (if required).  F2 and the R' and double-dual rows read the sections
        only through their polar images: ``self.rows`` keeps them per
        relation and tuple of images."""
        secs, fields = patterns[pattern]
        pols = secs.translate(self.polar_of[patterns.res_sort])
        memo = self.rows[patterns.rel]
        rows = memo.get(pols, False)
        if rows is False:
            rows = memo[pols] = self._rows(patterns, pols)
        if rows is None or self.monotone and not self._monotone(patterns, secs):
            return None
        return fields + rows

    def kept(self, patterns: _Patterns):
        """The records of the patterns that pass, in pattern order."""
        return filter(None, map(self.judge, itertools.repeat(patterns),
                                range(1 << len(patterns.space))))

    def _rows(self, patterns: _Patterns, pols: bytes) -> tuple | None:
        """The R' and double-dual row fields for the sections' polar images
        ``pols``, or None when F2 is required and fails."""
        # Smooth: along each argument, the others fixed, the arguments whose
        # polar holds a given point form a stable set of that argument's sort.
        lines = []
        for sort, n, stride, starts in patterns.lines:
            closed = self.closed[sort]
            for p in range(self.size[flip(patterns.res_sort)]):
                for start in starts:
                    line = 0
                    for i in range(n):
                        line |= (pols[start + i * stride] >> p & 1) << i
                    if self.smooth and closed[line] != line:
                        return None
                    lines.append(line)
        if len(patterns.arg_ns) == 1:
            rows = bytes(lines)         # R' rows: polar point -> its arguments
            dd = rows.translate(self.polar_of[patterns.arg_sorts[0]])
            return (patterns.polar_attr, rows), (patterns.dd_attr, dd)
        n_x, n_v = patterns.arg_ns
        return ((patterns.polar_attr, tuple(tuple(pols[x * n_v:(x + 1) * n_v])
                                            for x in range(n_x))),)

    def _monotone(self, patterns: _Patterns, secs: bytes) -> bool:
        """F3 for one relation: each section is an up-set, and sections
        shrink as an argument grows."""
        up = self.up[patterns.res_sort]
        if any(up[r] & ~sec for sec in secs for r in bits(sec)):
            return False
        for sort, n, stride, _ in patterns.lines:
            ups = self.up[sort]
            for a, sec in enumerate(secs):
                d = a // stride % n
                for d2 in range(n):
                    if ups[d2] >> d & 1 and sec & ~secs[a + (d2 - d) * stride]:
                        return False
        return True

    def frame(self, records) -> FiniteFrame:
        fr = FiniteFrame.__new__(FiniteFrame)
        fields = dict(self.shared)
        for rec in records:
            fields.update(rec)
        fr.__dict__ = fields
        return fr


def enumerate_frames(n1: int, nd: int, relations: tuple[str, ...],
                     require=("F1", "F2"), sample: int | None = None,
                     seed: int = 0):
    """Frames of the given carrier sizes over the listed base relations.

    Relations not listed are empty; this is exhaustive for the sequents and
    correspondents that only mention the listed relations.  ``sample`` = K
    draws exactly K candidates (an I-relation and the relation bits) from a
    seeded generator, with replacement, so a small space is drawn with
    repeats and a frame that passes is yielded once per draw (used for the
    ternary relation, whose full space is intractable).

    Frames come in the order of (I-relation, relation bits) candidates,
    named ``a<i>`` and ``b<i>``, and are those on which ``FiniteFrame``'s
    ``check_axioms(require)`` passes; a rejected candidate is never built.
    The I-relations are the separated ones (``separated_i_masks``), even if
    ``require`` lacks F1.  Each I-relation's tables are built once
    (``_Polarity``), each pattern's I-free facts once per call
    (``_Patterns``), and F2 with the R' and double-dual rows once per
    I-relation and tuple of polar images of a pattern's sections.  The
    operator and guard tables, unary and binary, are kept once per distinct
    rows for every frame (``_row_table``); nothing else is kept past the
    call.
    """
    import random

    patterns = [_Patterns(rel, n1, nd) for rel in relations]
    if not (1 <= n1 <= MAX_SORT_SIZE and 1 <= nd <= MAX_SORT_SIZE):
        return
    z1 = tuple(f"a{i}" for i in range(n1))
    zd = tuple(f"b{i}" for i in range(nd))
    i_options = list(separated_i_masks(n1, nd))
    if not i_options:
        return

    if sample is None:
        for i_rows in i_options:
            pol = _Polarity(z1, zd, i_rows, require)
            if not pol.ok:
                continue
            # The first relation holds the lowest bits, so it varies fastest;
            # the last one's patterns are judged as they come.
            inner = [list(pol.kept(pats)) for pats in patterns[:-1]]
            outer = pol.kept(patterns[-1]) if relations else [()]
            for last in outer:
                for records in itertools.product(*reversed(inner)):
                    yield pol.frame((last, *records))
        return

    total_bits = sum(len(pats.space) for pats in patterns)
    rng = random.Random(seed)
    polarities: dict = {}       # bounded: a sample may meet hundreds of I-relations
    for _ in range(sample):
        i_rows, rel_bits = rng.choice(i_options), rng.getrandbits(total_bits)
        pol = polarities.get(i_rows)
        if pol is None:
            if len(polarities) >= 32:
                polarities.clear()
            pol = polarities[i_rows] = _Polarity(z1, zd, i_rows, require)
        if not pol.ok:
            continue
        records = []
        for pats in patterns:
            records.append(pol.judge(pats, rel_bits & ((1 << len(pats.space)) - 1)))
            rel_bits >>= len(pats.space)
            if records[-1] is None:
                break
        else:
            yield pol.frame(records)


def kripke_frame(n: int, r_dia=(), r_box=(), r_neg=(), t_rel=(),
                 validate: bool = True) -> FiniteFrame:
    """A classical frame: equal carriers and the identity polarity."""
    elems = [f"w{i}" for i in range(n)]
    given = ([(i, i) for i in range(n)], r_dia, r_box, r_neg, t_rel)   # _FRAME_RELATIONS order
    return FiniteFrame(elems, elems, validate=validate,
                       **{attr: [tuple(elems[i] for i in t) for t in tuples]
                          for (attr, _), tuples in zip(_FRAME_RELATIONS.values(), given)})
