"""Finite sorted residuated frames and everything evaluated on them.

Subsets of each carrier are bitmasks, so the Galois connection, the derived
double-dual relations, the complex-algebra operations and the brute-force
validity checks all reduce to integer arithmetic.  Frames are immutable once
built; every derived structure is computed on first use and cached.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

from .syntax import (
    SORT1, SORTD, And, AndF, Bot, Box, Dia, DfmlFormula, Eq, Exists, FalseF,
    FoFormula, Forall, Forall2, Imp, ImpF, IVar, Neg, NotF, Or, OrF, PredApp,
    PropVar, RelAtom, Sequent, SortedFormula, SortedVar, STop, SBot,
    Cap, Cup, Prime, DiaVert, DiaMinus, Box1, BoxD, BoxMinus, BoxVert, TDown,
    BTDown, Odot, RSpoon, TRight, Top, TrueF, dfml_vars, flip, rel_signature,
    sorted_vars, word_rel,
)

MAX_SORT_SIZE = 5


class FrameSizeError(Exception):
    """Carrier too large for exhaustive Galois-set enumeration."""


class FrameValidationError(Exception):
    """Frame fails a required axiom (separation or smoothness)."""


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class FiniteFrame:
    """A finite two-sorted frame with the four modal relations.

    ``i_rel`` pairs live in Z1 x Zd; ``r_dia`` in Z1 x Z1 (result first),
    ``r_box`` in Zd x Zd, ``r_neg`` in Zd x Z1 and ``t_rel`` in Zd x Z1 x Zd.
    """

    def __init__(self, z1, zd, i_rel=(), r_dia=(), r_box=(), r_neg=(), t_rel=(),
                 validate: bool = True, name: str | None = None):
        self.z1 = tuple(z1)
        self.zd = tuple(zd)
        if not self.z1 or not self.zd:
            raise FrameValidationError("both carriers must be nonempty")
        if len(self.z1) > MAX_SORT_SIZE or len(self.zd) > MAX_SORT_SIZE:
            raise FrameSizeError(f"carriers larger than {MAX_SORT_SIZE} are not supported")
        self.n1 = len(self.z1)
        self.nd = len(self.zd)
        self._ix1 = {e: i for i, e in enumerate(self.z1)}
        self._ixd = {e: i for i, e in enumerate(self.zd)}
        if len(self._ix1) != self.n1 or len(self._ixd) != self.nd:
            raise FrameValidationError("duplicate carrier element names")
        self.name = name

        def pair_set(pairs, ix_a, ix_b, what):
            out = set()
            for a, b in pairs:
                if a not in ix_a or b not in ix_b:
                    raise FrameValidationError(f"{what} mentions an unknown element: {(a, b)}")
                out.add((ix_a[a], ix_b[b]))
            return frozenset(out)

        self.i_rel = pair_set(i_rel, self._ix1, self._ixd, "I")
        self.r_dia = pair_set(r_dia, self._ix1, self._ix1, "Rdia")
        self.r_box = pair_set(r_box, self._ixd, self._ixd, "Rbox")
        self.r_neg = pair_set(r_neg, self._ixd, self._ix1, "Rneg")
        t = set()
        for y, x, v in t_rel:
            if y not in self._ixd or x not in self._ix1 or v not in self._ixd:
                raise FrameValidationError(f"T mentions an unknown element: {(y, x, v)}")
            t.add((self._ixd[y], self._ix1[x], self._ixd[v]))
        self.t_rel = frozenset(t)

        self.full1 = (1 << self.n1) - 1
        self.fulld = (1 << self.nd) - 1

        if validate:
            report = self.check_axioms(("F1", "F2"))
            bad = [f"{ax}: {why}" for ax, (ok, why) in report.items() if not ok]
            if bad:
                raise FrameValidationError("; ".join(bad))

    # -- the polarity ------------------------------------------------------

    @cached_property
    def irow(self):
        """irow[x] = mask of {y : x I y}."""
        out = [0] * self.n1
        for x, y in self.i_rel:
            out[x] |= 1 << y
        return out

    @cached_property
    def icol(self):
        out = [0] * self.nd
        for x, y in self.i_rel:
            out[y] |= 1 << x
        return out

    def polar1(self, u_mask: int) -> int:
        """Galois image of a Z1 subset: the y with no I-edge into the subset."""
        out = 0
        for y in range(self.nd):
            if not (u_mask & self.icol[y]):
                out |= 1 << y
        return out

    def polard(self, v_mask: int) -> int:
        out = 0
        for x in range(self.n1):
            if not (v_mask & self.irow[x]):
                out |= 1 << x
        return out

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

    def close(self, sort: str, mask: int) -> int:
        return self.close1(mask) if sort == SORT1 else self.closed(mask)

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

    @cached_property
    def rdia_sec(self):
        """rdia_sec[z] = {u : u Rdia z} (result section)."""
        out = [0] * self.n1
        for u, z in self.r_dia:
            out[z] |= 1 << u
        return out

    @cached_property
    def rbox_sec(self):
        out = [0] * self.nd
        for w, y in self.r_box:
            out[y] |= 1 << w
        return out

    @cached_property
    def rneg_sec(self):
        """rneg_sec[x] = {y : y Rneg x}."""
        out = [0] * self.n1
        for y, x in self.r_neg:
            out[x] |= 1 << y
        return out

    @cached_property
    def rneg_arg(self):
        out = [0] * self.nd
        for y, x in self.r_neg:
            out[y] |= 1 << x
        return out

    @cached_property
    def t_sec(self):
        """t_sec[x][v] = {y : y T x v}."""
        out = [[0] * self.nd for _ in range(self.n1)]
        for y, x, v in self.t_rel:
            out[x][v] |= 1 << y
        return out

    # Galois duals, stored as argument rows.

    @cached_property
    def rpdia(self):
        """rpdia[y] = {z : y R'dia z}, where y R'dia z iff y in (Rdia z)'."""
        out = [0] * self.nd
        for z in range(self.n1):
            sec = self._polar1_table[self.rdia_sec[z]]
            for y in bits(sec):
                out[y] |= 1 << z
        return out

    @cached_property
    def rpbox(self):
        """rpbox[x] = {y : x R'box y}."""
        out = [0] * self.n1
        for y in range(self.nd):
            sec = self._polard_table[self.rbox_sec[y]]
            for x in bits(sec):
                out[x] |= 1 << y
        return out

    @cached_property
    def rpneg(self):
        """rpneg[z] = {x : z R'neg x}."""
        out = [0] * self.n1
        for x in range(self.n1):
            sec = self._polard_table[self.rneg_sec[x]]
            for z in bits(sec):
                out[z] |= 1 << x
        return out

    @cached_property
    def tprime(self):
        """tprime[z][v] = {x : x T' z v} = (T z v)'."""
        return [[self._polard_table[self.t_sec[z][v]] for v in range(self.nd)]
                for z in range(self.n1)]

    # Double duals, stored as result rows.

    @cached_property
    def rddia(self):
        """rddia[y] = {v : y R''dia v} = (y R'dia)'."""
        return [self._polar1_table[self.rpdia[y]] for y in range(self.nd)]

    @cached_property
    def rdbox(self):
        """rdbox[x] = {z : x R''box z} = (x R'box)'."""
        return [self._polard_table[self.rpbox[x]] for x in range(self.n1)]

    @cached_property
    def rdneg(self):
        """rdneg[z] = {y : z R''neg y} = (z R'neg)'."""
        return [self._polar1_table[self.rpneg[z]] for z in range(self.n1)]

    @cached_property
    def rd11(self):
        """rd11[z][x] = {v : v R^d11 z x} = {v : x T' z v}."""
        out = [[0] * self.n1 for _ in range(self.n1)]
        for z in range(self.n1):
            for v in range(self.nd):
                col = self.tprime[z][v]
                for x in bits(col):
                    out[z][x] |= 1 << v
        return out

    @cached_property
    def r111(self):
        """r111[x][z] = {w : w R111 x z} = (R^d11 x z)'."""
        return [[self._polard_table[self.rd11[x][z]] for z in range(self.n1)]
                for x in range(self.n1)]

    def double_duals(self) -> dict:
        """The derived double-dual relations as sets of index tuples."""
        return {
            "R''_dia": {(y, v) for y in range(self.nd) for v in bits(self.rddia[y])},
            "R''_box": {(x, z) for x in range(self.n1) for z in bits(self.rdbox[x])},
            "R''_neg": {(z, y) for z in range(self.n1) for y in bits(self.rdneg[z])},
            "R111": {(w, x, z) for x in range(self.n1) for z in range(self.n1)
                     for w in bits(self.r111[x][z])},
        }

    def word_row(self, letters: tuple[str, ...], start: int) -> int:
        """Points reachable from ``start`` along a composite double-dual word."""
        rows = {"box": lambda i: self.rdbox[i], "neg": lambda i: self.rdneg[i],
                "dia": lambda i: self.rddia[i]}
        cur = 1 << start
        for letter in letters:
            nxt = 0
            for i in bits(cur):
                nxt |= rows[letter](i)
            cur = nxt
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

    def ldvert(self, u_mask: int) -> int:
        out = 0
        for z in bits(u_mask):
            out |= self.rdia_sec[z]
        return out

    def ldminus(self, v_mask: int) -> int:
        out = 0
        for v in bits(v_mask):
            out |= self.rbox_sec[v]
        return out

    def ltdown(self, u_mask: int) -> int:
        out = 0
        for x in bits(u_mask):
            out |= self.rneg_sec[x]
        return out

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

    def lbminus(self, u_mask: int) -> int:
        out = 0
        for x in range(self.n1):
            if self.rdbox[x] & ~u_mask == 0:
                out |= 1 << x
        return out

    def lbvert(self, v_mask: int) -> int:
        out = 0
        for y in range(self.nd):
            if self.rddia[y] & ~v_mask == 0:
                out |= 1 << y
        return out

    def lbtdown(self, v_mask: int) -> int:
        out = 0
        for z in range(self.n1):
            if self.rdneg[z] & ~v_mask == 0:
                out |= 1 << z
        return out

    def bbox1(self, u_mask: int) -> int:
        out = 0
        for u in range(self.n1):
            if self.rdia_sec[u] & ~u_mask == 0:
                out |= 1 << u
        return out

    def bboxd(self, v_mask: int) -> int:
        out = 0
        for v in range(self.nd):
            if self.rbox_sec[v] & ~v_mask == 0:
                out |= 1 << v
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
        """Operator name -> ``bytes`` table of its values, built on first use."""
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
        rows1 = [self._polar1_table[1 << u] for u in range(self.n1)]
        for u, w in itertools.combinations(range(self.n1), 2):
            if rows1[u] == rows1[w]:
                return (False, f"sort-1 points {self.z1[u]!r}, {self.z1[w]!r} are order-equivalent")
        rowsd = [self._polard_table[1 << y] for y in range(self.nd)]
        for u, w in itertools.combinations(range(self.nd), 2):
            if rowsd[u] == rowsd[w]:
                return (False, f"sort-d points {self.zd[u]!r}, {self.zd[w]!r} are order-equivalent")
        return (True, None)

    def _check_smooth(self):
        for y in range(self.nd):
            if self.close1(self.rpdia[y]) != self.rpdia[y]:
                return (False, f"R'dia section at {self.zd[y]!r} is not stable")
        for x in range(self.n1):
            if self.closed(self.rpbox[x]) != self.rpbox[x]:
                return (False, f"R'box section at {self.z1[x]!r} is not co-stable")
        for z in range(self.n1):
            if self.close1(self.rpneg[z]) != self.rpneg[z]:
                return (False, f"R'neg section at {self.z1[z]!r} is not stable")
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
        # Each relation: increasing in its result, decreasing in the arguments.
        for u, z in self.r_dia:
            for u2 in bits(self.up1[u]):
                if (u2, z) not in self.r_dia:
                    return (False, f"Rdia not increasing at {self.z1[u]!r}<={self.z1[u2]!r}")
            for z2 in range(self.n1):
                if self.leq(SORT1, z2, z) and (u, z2) not in self.r_dia:
                    return (False, f"Rdia not decreasing at argument {self.z1[z]!r}")
        for w, y in self.r_box:
            for w2 in bits(self.upd[w]):
                if (w2, y) not in self.r_box:
                    return (False, "Rbox not increasing in its result")
            for y2 in range(self.nd):
                if self.leq(SORTD, y2, y) and (w, y2) not in self.r_box:
                    return (False, "Rbox not decreasing in its argument")
        for y, x in self.r_neg:
            for y2 in bits(self.upd[y]):
                if (y2, x) not in self.r_neg:
                    return (False, "Rneg not increasing in its result")
            for x2 in range(self.n1):
                if self.leq(SORT1, x2, x) and (y, x2) not in self.r_neg:
                    return (False, "Rneg not decreasing in its argument")
        for y, x, v in self.t_rel:
            for y2 in bits(self.upd[y]):
                if (y2, x, v) not in self.t_rel:
                    return (False, "T not increasing in its result")
            for x2 in range(self.n1):
                if self.leq(SORT1, x2, x) and (y, x2, v) not in self.t_rel:
                    return (False, "T not decreasing in its first argument")
            for v2 in range(self.nd):
                if self.leq(SORTD, v2, v) and (y, x, v2) not in self.t_rel:
                    return (False, "T not decreasing in its second argument")
        return (True, None)


# Every mask fits in a byte, so an operator's values can be a ``bytes`` table.
assert MAX_SORT_SIZE <= 8

# The complex-algebra operators of ``FiniteFrame`` and the sorts of their
# arguments.  A unary table is indexed by the argument mask; a binary one by
# ``a << n_right | b``, with ``n_right`` the size of the right argument's sort.
_OPERATOR_ARG_SORTS = {
    "ldvert": (SORT1,), "ldminus": (SORTD,), "ltdown": (SORT1,),
    "lbminus": (SORT1,), "lbvert": (SORTD,), "lbtdown": (SORTD,),
    "bbox1": (SORT1,), "bboxd": (SORTD,),
    "lodot": (SORT1, SORT1), "imp_t": (SORT1, SORT1), "ltright": (SORT1, SORTD),
}


# Unary operator -> (the frame's rows it reads, box?).  A diamond's value is
# the union of the rows of its argument's points; a box's value holds the
# points whose row lies inside its argument.
_ROW_OPERATORS = {
    "ldvert": ("rdia_sec", False), "ldminus": ("rbox_sec", False),
    "ltdown": ("rneg_sec", False), "lbminus": ("rdbox", True),
    "lbvert": ("rddia", True), "lbtdown": ("rdneg", True),
    "bbox1": ("rdia_sec", True), "bboxd": ("rbox_sec", True),
}


def _union_table(rows, n: int) -> bytes:
    """``table[m]`` = the union of ``rows[i]`` over the points ``i`` of ``m``."""
    table = bytearray(1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        table[m] = table[m ^ low] | rows[low.bit_length() - 1]
    return bytes(table)


class _OperatorTables(dict):
    """A frame's operator tables, each built the first time it is looked up:
    a unary one from the rows it reads, in one step per mask, a binary one
    from its ``FiniteFrame`` method, the reference for both."""

    __slots__ = ("frame",)

    def __init__(self, frame: FiniteFrame):
        super().__init__()
        self.frame = frame

    def __missing__(self, op: str) -> bytes:
        fr = self.frame
        sizes = [fr.n1 if sort == SORT1 else fr.nd for sort in _OPERATOR_ARG_SORTS[op]]
        if op in _ROW_OPERATORS:
            attr, box = _ROW_OPERATORS[op]
            rows, n = getattr(fr, attr), sizes[0]
            if not box:
                table = _union_table(rows, n)
            else:
                # x is outside box(m) iff its row meets the complement of m
                cols = [0] * n
                for x, row in enumerate(rows):
                    for z in bits(row):
                        cols[z] |= 1 << x
                meets = _union_table(cols, n)
                full, arg_full = (1 << len(rows)) - 1, (1 << n) - 1
                table = bytes(full ^ meets[arg_full ^ m] for m in range(1 << n))
        else:
            fn = getattr(fr, op)
            table = bytes(fn(a, b) for a in range(1 << sizes[0]) for b in range(1 << sizes[1]))
        self[op] = table
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
    if isinstance(f, DiaVert):
        return frame.ldvert(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, DiaMinus):
        return frame.ldminus(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, TDown):
        return frame.ltdown(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, BoxMinus):
        return frame.lbminus(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, BoxVert):
        return frame.lbvert(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, BTDown):
        return frame.lbtdown(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, Box1):
        return frame.bbox1(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, BoxD):
        return frame.bboxd(model_check_sorted(frame, valuation, f.arg))
    if isinstance(f, Odot):
        return frame.lodot(model_check_sorted(frame, valuation, f.left),
                           model_check_sorted(frame, valuation, f.right))
    if isinstance(f, RSpoon):
        return frame.imp_t(model_check_sorted(frame, valuation, f.left),
                           model_check_sorted(frame, valuation, f.right))
    if isinstance(f, TRight):
        return frame.ltright(model_check_sorted(frame, valuation, f.left),
                             model_check_sorted(frame, valuation, f.right))
    raise TypeError(f"not a sorted formula: {f!r}")


# Node type -> the operator whose table evaluates it.
_OPERATOR_OF = {
    DiaVert: "ldvert", DiaMinus: "ldminus", TDown: "ltdown", BoxMinus: "lbminus",
    BoxVert: "lbvert", BTDown: "lbtdown", Box1: "bbox1", BoxD: "bboxd",
    Odot: "lodot", RSpoon: "imp_t", TRight: "ltright",
}


def compile_sorted(f: SortedFormula, slots: dict) -> Callable[[FiniteFrame, list], int]:
    """``f`` as a closure ``(frame, row) -> mask`` that agrees with
    ``model_check_sorted``, the reference; ``row[slots[v]]`` is the mask of
    variable ``v``.  Operators read the frame's ``op_tables``."""
    kind = type(f)
    if kind is SortedVar:
        if f not in slots:
            raise KeyError(f"no value for sorted variable {f}")
        slot = slots[f]
        return lambda fr, row: row[slot]
    if kind is STop:
        if f.sort == SORT1:
            return lambda fr, row: fr.full1
        return lambda fr, row: fr.fulld
    if kind is SBot:
        return lambda fr, row: 0
    if kind is Cap or kind is Cup:
        left, right = compile_sorted(f.left, slots), compile_sorted(f.right, slots)
        if kind is Cap:
            return lambda fr, row: left(fr, row) & right(fr, row)
        return lambda fr, row: left(fr, row) | right(fr, row)
    if kind is Prime:
        arg = compile_sorted(f.arg, slots)
        if f.arg.sort == SORT1:
            return lambda fr, row: fr._polar1_table[arg(fr, row)]
        return lambda fr, row: fr._polard_table[arg(fr, row)]
    op = _OPERATOR_OF.get(kind)
    if op is None:
        raise TypeError(f"not a sorted formula: {f!r}")
    if len(_OPERATOR_ARG_SORTS[op]) == 1:
        arg = compile_sorted(f.arg, slots)
        return lambda fr, row: fr.op_tables[op][arg(fr, row)]
    left, right = compile_sorted(f.left, slots), compile_sorted(f.right, slots)
    if f.right.sort == SORT1:
        return lambda fr, row: fr.op_tables[op][left(fr, row) << fr.n1 | right(fr, row)]
    return lambda fr, row: fr.op_tables[op][left(fr, row) << fr.nd | right(fr, row)]


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
    valuations: ``translate_bullet`` with variables unprimed and ``bot`` as
    the polar of the full sort-d carrier, its value on every frame."""
    kind = type(f)
    if kind is PropVar:
        return SortedVar(f.index, SORT1)
    if kind is Top:
        return STop(SORT1)
    if kind is Bot:
        return Prime(STop(SORTD))
    if kind is And:
        return Cap(_dfml_operators(f.left), _dfml_operators(f.right))
    if kind is Or:
        return Prime(Prime(Cup(_dfml_operators(f.left), _dfml_operators(f.right))))
    if kind is Box:
        return BoxMinus(_dfml_operators(f.arg))
    if kind is Dia:
        return Prime(Prime(DiaVert(_dfml_operators(f.arg))))
    if kind is Neg:
        return Prime(TDown(_dfml_operators(f.arg)))
    if kind is Imp:
        return RSpoon(_dfml_operators(f.left), _dfml_operators(f.right))
    raise TypeError(f"not a modal formula: {f!r}")


def compile_dfml(f: DfmlFormula, var_ids) -> Callable[[FiniteFrame, Sequence[int]], int]:
    """``f`` as a closure ``(frame, row) -> mask`` that agrees with the value
    of ``model_check_dfml``, the reference; ``row[i]`` is the mask of
    variable ``p<var_ids[i]>``.  The row is not checked for stability."""
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


def _rel_holds(frame: FiniteFrame, rel: str, args: tuple[int, ...]) -> bool:
    if rel == "I":
        return bool(frame.irow[args[0]] & (1 << args[1]))
    if rel == "R_dia":
        return (args[0], args[1]) in frame.r_dia
    if rel == "R_box":
        return (args[0], args[1]) in frame.r_box
    if rel == "R_neg":
        return (args[0], args[1]) in frame.r_neg
    if rel == "T":
        return args in frame.t_rel
    if rel == "R'_dia":
        return bool(frame.rpdia[args[0]] & (1 << args[1]))
    if rel == "R'_box":
        return bool(frame.rpbox[args[0]] & (1 << args[1]))
    if rel == "R'_neg":
        return bool(frame.rpneg[args[0]] & (1 << args[1]))
    if rel == "T'":
        return bool(frame.tprime[args[1]][args[2]] & (1 << args[0]))
    if rel == "R''_dia":
        return bool(frame.rddia[args[0]] & (1 << args[1]))
    if rel == "R''_box":
        return bool(frame.rdbox[args[0]] & (1 << args[1]))
    if rel == "R''_neg":
        return bool(frame.rdneg[args[0]] & (1 << args[1]))
    if rel == "R111":
        return bool(frame.r111[args[1]][args[2]] & (1 << args[0]))
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


def compile_fo(f: FoFormula, free=()) -> Callable[[FiniteFrame, Sequence[int]], bool]:
    """``f`` as a closure ``(frame, values) -> bool`` that agrees with
    ``eval_fo``, the reference; ``values[i]`` is the value of ``free[i]``,
    an element for an ``IVar`` and a mask for a ``PVar``.  A variable
    neither free nor bound raises ``KeyError`` when it is evaluated."""
    scope = {v: i for i, v in enumerate(free)}
    size = [len(free)]
    body = _compile_fo(f, scope, size)
    pad = [0] * (size[0] - len(free))

    def run(fr, values):
        return bool(body(fr, [*values, *pad]))
    return run


def _unassigned(message: str):
    def fail(fr, env):
        raise KeyError(message)
    return fail


def _compile_fo(f: FoFormula, scope: dict, size: list):
    """A closure ``(frame, env) -> truth value``.  Each binder gets its own
    slot of ``env``, counted in ``size[0]``, so shadowing needs no restore."""
    kind = type(f)
    if kind is TrueF:
        return lambda fr, env: True
    if kind is FalseF:
        return lambda fr, env: False
    if kind is Eq or kind is RelAtom:
        args = (f.t1, f.t2) if kind is Eq else f.args
        missing = next((t for t in args if t not in scope), None)
        if missing is not None:
            return _unassigned(f"unassigned free variable {missing}")
        slots = [scope[t] for t in args]
        if kind is Eq:
            a, b = slots
            return lambda fr, env: env[a] == env[b]
        if f.rel == "<=":
            spec = ("up1" if args[0].sort == SORT1 else "upd", (0,), 1)
        else:
            spec = _REL_ROWS.get(f.rel)
        if spec is not None:
            attr, index, bit = spec
            rows_of = attrgetter(attr)
        elif f.rel.startswith("R''_"):
            letters = tuple(f.rel[4:].split("."))
            rows_of, index, bit = (lambda fr: fr.word_rows(letters)), (0,), 1
        else:
            raise ValueError(f"unknown relation symbol {f.rel!r}")
        b = slots[bit]
        if len(index) == 1:
            a = slots[index[0]]
            return lambda fr, env: rows_of(fr)[env[a]] >> env[b] & 1
        a, c = (slots[i] for i in index)
        return lambda fr, env: rows_of(fr)[env[a]][env[c]] >> env[b] & 1
    if kind is PredApp:
        if f.var not in scope:
            return _unassigned(f"no value for predicate variable {f.var}")
        if f.arg not in scope:
            return _unassigned(f"unassigned free variable {f.arg}")
        p, a = scope[f.var], scope[f.arg]
        return lambda fr, env: env[p] >> env[a] & 1
    if kind is NotF:
        arg = _compile_fo(f.arg, scope, size)
        return lambda fr, env: not arg(fr, env)
    if kind is AndF or kind is OrF or kind is ImpF:
        left, right = _compile_fo(f.left, scope, size), _compile_fo(f.right, scope, size)
        if kind is AndF:
            return lambda fr, env: left(fr, env) and right(fr, env)
        if kind is OrF:
            return lambda fr, env: left(fr, env) or right(fr, env)
        return lambda fr, env: not left(fr, env) or right(fr, env)
    if kind is Forall or kind is Exists or kind is Forall2:
        slot = size[0]
        size[0] += 1
        body = _compile_fo(f.body, {**scope, f.var: slot}, size)
        one = f.var.sort == SORT1
        if kind is Forall2:
            def forall2(fr, env):
                for m in range((fr.full1 if one else fr.fulld) + 1):
                    env[slot] = m
                    if not body(fr, env):
                        return False
                return True
            return forall2
        if kind is Exists:
            def exists(fr, env):
                for e in range(fr.n1 if one else fr.nd):
                    env[slot] = e
                    if body(fr, env):
                        return True
                return False
            return exists

        def forall(fr, env):
            for e in range(fr.n1 if one else fr.nd):
                env[slot] = e
                if not body(fr, env):
                    return False
            return True
        return forall
    raise TypeError(f"not a first-order formula: {f!r}")


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

    The pair is compiled once (``_systems_plan``, memoised) and evaluated
    over the frame's operator tables; the witness is the first valuation of
    ``system_valuations(frame, (sys1, sys2))`` on which ``system_holds``,
    the reference, tells the systems apart.
    """
    plan = _systems_plan((sys1, sys2))
    (lhs1, rhs1), (lhs2, rhs2) = plan.sides
    for row in _plan_rows(frame, plan):
        holds1 = not (lhs1(frame, row) & ~rhs1(frame, row))
        if holds1 != (not (lhs2(frame, row) & ~rhs2(frame, row))):
            return dict(zip(plan.keys, row))
    return None


@dataclass(frozen=True)
class _SystemsPlan:
    """What ``system_valuations`` and ``system_equivalence_witness`` need of
    some systems, worked out once.  A row holds one mask per slot: the free
    variables first, then the change-of-variable targets."""

    keys: tuple          # the variable in each slot
    spaces: tuple        # (stability-constrained?, sort) per free variable
    steps: tuple         # (target slot, source slot, source sort, check only?)
    resolved: bool       # False when a cycle of changes of variable fixes no target
    sides: tuple         # compiled (lhs, rhs) of each system's main inequality


@lru_cache(maxsize=256)
def _systems_plan(systems: tuple) -> _SystemsPlan:
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
    sides = tuple((compile_sorted(sys.main.lhs, slots), compile_sorted(sys.main.rhs, slots))
                  for sys in systems)
    return _SystemsPlan(tuple(keys), spaces, steps, not pending, sides)


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
    first disagreeing point (its name).  The sides and the formula are
    compiled once per (sequent, anchor, formula) objects, and every
    valuation is evaluated once for all points; the per-point loop of
    ``local_validity`` and ``eval_fo`` is the reference.
    """
    lhs, rhs, n_vars, holds = _oracle_plan(s, anchor, corr)
    stable = frame.stable1
    polar, polard = frame._polar1_table, frame._polard_table
    for a in stable:
        if polard[polar[a]] != a:
            raise ValueError(f"valuation value {a} is not a stable set")
    failing = 0      # points where some valuation refutes the (dual) sequent
    if anchor.sort == SORT1:
        for row in itertools.product(stable, repeat=n_vars):
            failing |= lhs(frame, row) & ~rhs(frame, row)
        names = frame.z1
    else:
        for row in itertools.product(stable, repeat=n_vars):
            failing |= polar[rhs(frame, row)] & ~polar[lhs(frame, row)]
        names = frame.zd
    for w, name in enumerate(names):
        if (not failing >> w & 1) != holds(frame, (w,)):
            return name
    return None


# The last (sequent, anchor, formula, plan), replaced as one tuple.  The
# objects are compared by identity: hashing the formula trees on every frame
# would cost more than the oracle, and a run checks one triple on every frame.
_last_oracle_plan: list = [(None, None, None, None)]


def _oracle_plan(s: Sequent, anchor: IVar, corr: FoFormula):
    last_s, last_anchor, last_corr, plan = _last_oracle_plan[0]
    if last_s is not s or last_anchor is not anchor or last_corr is not corr:
        var_ids = sorted(set(dfml_vars(s.lhs)) | set(dfml_vars(s.rhs)))
        plan = (compile_dfml(s.lhs, var_ids), compile_dfml(s.rhs, var_ids),
                len(var_ids), compile_fo(corr, (anchor,)))
        _last_oracle_plan[0] = (s, anchor, corr, plan)
    return plan


# ---------------------------------------------------------------------------
# Frame files
# ---------------------------------------------------------------------------

FRAME_FORMAT_VERSION = 1


def frame_to_json(frame: FiniteFrame) -> dict:
    return {
        "version": FRAME_FORMAT_VERSION,
        "z1": list(frame.z1),
        "zd": list(frame.zd),
        "I": sorted([frame.z1[x], frame.zd[y]] for x, y in frame.i_rel),
        "Rdia": sorted([frame.z1[u], frame.z1[z]] for u, z in frame.r_dia),
        "Rbox": sorted([frame.zd[w], frame.zd[y]] for w, y in frame.r_box),
        "Rneg": sorted([frame.zd[y], frame.z1[x]] for y, x in frame.r_neg),
        "T": sorted([frame.zd[y], frame.z1[x], frame.zd[v]] for y, x, v in frame.t_rel),
    }


def load_frame(path: str, validate: bool = True) -> FiniteFrame:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != FRAME_FORMAT_VERSION:
        raise FrameValidationError(f"unsupported frame file version {doc.get('version')!r}")
    for key in ("z1", "zd"):
        if key not in doc:
            raise FrameValidationError(f"frame file lacks the {key!r} field")
    return FiniteFrame(
        doc["z1"], doc["zd"],
        i_rel=[tuple(p) for p in doc.get("I", [])],
        r_dia=[tuple(p) for p in doc.get("Rdia", [])],
        r_box=[tuple(p) for p in doc.get("Rbox", [])],
        r_neg=[tuple(p) for p in doc.get("Rneg", [])],
        t_rel=[tuple(p) for p in doc.get("T", [])],
        validate=validate,
    )


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
        cols = [0] * nd
        for x, row in enumerate(rows):
            for y in bits(row):
                cols[y] |= 1 << x
        if len(set(cols)) != nd:
            continue
        yield rows


# Base relation -> (its pair-set attribute, result sort, argument sorts,
# the attributes of its result sections and of their polars).  Bit k of a
# relation's pattern is its k-th tuple (result, *arguments) in
# lexicographic order; the fields of the listed relations follow one
# another from bit 0.
_BASE_RELATIONS = {
    "Rdia": ("r_dia", SORT1, (SORT1,), "rdia_sec", "rpdia"),
    "Rbox": ("r_box", SORTD, (SORTD,), "rbox_sec", "rpbox"),
    "Rneg": ("r_neg", SORTD, (SORT1,), "rneg_sec", "rpneg"),
    "T": ("t_rel", SORTD, (SORT1, SORTD), "t_sec", "tprime"),
}

# Modal connective or sorted operator -> the base relation its semantics
# reads, listed in the order Rbox, Rdia, Rneg, T.
_RELATION_OF = {Box: "Rbox", Dia: "Rdia", Neg: "Rneg", Imp: "T"}
_SORTED_RELATION_OF = {
    DiaMinus: "Rbox", BoxMinus: "Rbox", BoxD: "Rbox",
    DiaVert: "Rdia", BoxVert: "Rdia", Box1: "Rdia",
    TDown: "Rneg", BTDown: "Rneg",
    Odot: "T", RSpoon: "T", TRight: "T",
}


def relations_needed(s: Sequent) -> tuple[str, ...]:
    """The base relations the sequent's connectives read, in the order
    Rbox, Rdia, Rneg, T, which fixes ``enumerate_frames``' bit layout."""
    return _relations_read((s.lhs, s.rhs), _RELATION_OF)


def system_relations_needed(*systems) -> tuple[str, ...]:
    """The base relations the operators of the inequality systems' main
    inequalities read, in the order of ``relations_needed``."""
    return _relations_read([f for sys in systems for f in (sys.main.lhs, sys.main.rhs)],
                           _SORTED_RELATION_OF)


def _relations_read(roots, relation_of: dict) -> tuple[str, ...]:
    kinds = set()
    todo = list(roots)
    while todo:
        f = todo.pop()
        kinds.add(type(f))
        todo.extend(f._kids)
    return tuple(dict.fromkeys(rel for kind, rel in relation_of.items() if kind in kinds))


class _Polarity:
    """One I-relation's tables, built once and shared, immutable, by every
    frame ``enumerate_frames`` yields over it.

    The axioms F0 and F1 depend on I alone and are judged once, by the
    reference ``check_axioms``.  F2 and F3 are conjunctions of conditions
    on each base relation's sections, so ``judge`` decides them for one
    relation's pattern at a time; the reference is ``check_axioms`` on the
    built frame.
    """

    def __init__(self, z1: tuple, zd: tuple, i_rows, require):
        fr = FiniteFrame(z1, zd, validate=False,
                         i_rel=[(z1[x], zd[y]) for x, row in enumerate(i_rows) for y in bits(row)])
        self.ok = all(ok for ok, _ in fr.check_axioms(
            tuple(ax for ax in require if ax not in ("F2", "F3"))).values())
        self.smooth, self.monotone = "F2" in require, "F3" in require
        self.size = {SORT1: fr.n1, SORTD: fr.nd}
        self.polar = {SORT1: bytes(fr._polar1_table), SORTD: bytes(fr._polard_table)}
        self.closed = {SORT1: bytes(fr.close1(m) for m in range(fr.full1 + 1)),
                       SORTD: bytes(fr.closed(m) for m in range(fr.fulld + 1))}
        self.up = {SORT1: tuple(fr.up1), SORTD: tuple(fr.upd)}
        self.shared = {
            "z1": fr.z1, "zd": fr.zd, "n1": fr.n1, "nd": fr.nd, "name": None,
            "full1": fr.full1, "fulld": fr.fulld, "i_rel": fr.i_rel,
            "r_dia": frozenset(), "r_box": frozenset(), "r_neg": frozenset(),
            "t_rel": frozenset(), "irow": tuple(fr.irow), "icol": tuple(fr.icol),
            "_polar1_table": self.polar[SORT1], "_polard_table": self.polar[SORTD],
            "stable1": tuple(fr.stable1), "stabled": tuple(fr.stabled),
            "up1": self.up[SORT1], "upd": self.up[SORTD],
        }

    def judge(self, rel: str, pattern: int, space: list) -> dict | None:
        """The frame attributes of ``rel`` with the given pattern over its
        tuples ``space``, or None when the pattern fails F2 or F3 (if
        required)."""
        pairs_attr, res_sort, arg_sorts, sec_attr, polar_attr = _BASE_RELATIONS[rel]
        arg_ns = [self.size[sort] for sort in arg_sorts]
        n_args = len(space) // self.size[res_sort]
        secs = [0] * n_args          # secs[a] = {r : (r, *args a) in rel}
        for r in range(self.size[res_sort]):
            row = pattern >> r * n_args
            for a in range(n_args):
                if row >> a & 1:
                    secs[a] |= 1 << r
        if self.monotone and not self._monotone(res_sort, arg_sorts, arg_ns, secs):
            return None
        polar = self.polar[res_sort]
        pols = [polar[sec] for sec in secs]
        # Smooth: along each argument, the others fixed, the arguments whose
        # polar holds a given point form a stable set of that argument's sort.
        stride = 1
        lines = []
        for sort, n in zip(reversed(arg_sorts), reversed(arg_ns)):
            closed = self.closed[sort]
            for p in range(self.size[flip(res_sort)]):
                for start in range(n_args):
                    if start // stride % n:
                        continue
                    line = 0
                    for i in range(n):
                        line |= (pols[start + i * stride] >> p & 1) << i
                    if self.smooth and closed[line] != line:
                        return None
                    lines.append(line)
            stride *= n
        if len(arg_ns) == 1:
            polars = tuple(lines)       # R' rows: polar point -> its arguments
            sections = tuple(secs)
        else:
            n_v = arg_ns[1]
            polars = tuple(tuple(pols[x * n_v:(x + 1) * n_v]) for x in range(arg_ns[0]))
            sections = tuple(tuple(secs[x * n_v:(x + 1) * n_v]) for x in range(arg_ns[0]))
        return {pairs_attr: frozenset(t for k, t in enumerate(space) if pattern >> k & 1),
                sec_attr: sections, polar_attr: polars}

    def kept(self, rel: str, space: list):
        """The records of the patterns of ``rel`` that pass, in pattern order."""
        for pattern in range(1 << len(space)):
            rec = self.judge(rel, pattern, space)
            if rec is not None:
                yield rec

    def _monotone(self, res_sort, arg_sorts, arg_ns, secs) -> bool:
        """F3 for one relation: each section is an up-set, and sections
        shrink as an argument grows."""
        up = self.up[res_sort]
        if any(up[r] & ~sec for sec in secs for r in bits(sec)):
            return False
        stride = 1
        for sort, n in zip(reversed(arg_sorts), reversed(arg_ns)):
            ups = self.up[sort]
            for a, sec in enumerate(secs):
                d = a // stride % n
                for d2 in range(n):
                    if ups[d2] >> d & 1 and sec & ~secs[a + (d2 - d) * stride]:
                        return False
            stride *= n
        return True

    def frame(self, records) -> FiniteFrame:
        fr = FiniteFrame.__new__(FiniteFrame)
        fr.__dict__.update(self.shared)
        for rec in records:
            fr.__dict__.update(rec)
        return fr


def enumerate_frames(n1: int, nd: int, relations: tuple[str, ...],
                     require=("F1", "F2"), sample: int | None = None,
                     seed: int = 0):
    """Frames of the given carrier sizes over the listed base relations.

    Relations not listed are empty; this is exhaustive for the sequents and
    correspondents that only mention the listed relations.  ``sample`` caps
    the number of relation combinations tried, drawn from a seeded generator
    (used for the ternary relation, whose full space is intractable).

    Frames come in the order of (I-relation, relation bits) candidates,
    named ``a<i>`` and ``b<i>``, and are those on which ``FiniteFrame``'s
    ``check_axioms(require)`` passes; each I-relation's tables are built
    once (``_Polarity``) and a rejected candidate is never built.
    """
    import random

    spaces = []
    for rel in relations:
        if rel not in _BASE_RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        _, res_sort, arg_sorts, _, _ = _BASE_RELATIONS[rel]
        sizes = [n1 if sort == SORT1 else nd for sort in (res_sort, *arg_sorts)]
        spaces.append(list(itertools.product(*map(range, sizes))))
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
            inner = [list(pol.kept(rel, space))
                     for rel, space in zip(relations[:-1], spaces[:-1])]
            outer = pol.kept(relations[-1], spaces[-1]) if relations else ({},)
            for last in outer:
                for records in itertools.product(*reversed(inner)):
                    yield pol.frame((last, *records))
        return

    total_bits = sum(len(space) for space in spaces)
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
        for rel, space in zip(relations, spaces):
            records.append(pol.judge(rel, rel_bits & ((1 << len(space)) - 1), space))
            rel_bits >>= len(space)
            if records[-1] is None:
                break
        else:
            yield pol.frame(records)


def kripke_frame(n: int, r_dia=(), r_box=(), r_neg=(), t_rel=(),
                 validate: bool = True) -> FiniteFrame:
    """A classical frame: equal carriers and the identity polarity."""
    elems = [f"w{i}" for i in range(n)]
    return FiniteFrame(elems, elems,
                       i_rel=[(e, e) for e in elems],
                       r_dia=[(elems[a], elems[b]) for a, b in r_dia],
                       r_box=[(elems[a], elems[b]) for a, b in r_box],
                       r_neg=[(elems[a], elems[b]) for a, b in r_neg],
                       t_rel=[(elems[a], elems[b], elems[c]) for a, b, c in t_rel],
                       validate=validate)
