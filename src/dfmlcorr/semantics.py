"""Finite sorted residuated frames and everything evaluated on them.

Subsets of each carrier are bitmasks, so the Galois connection, the derived
double-dual relations, the complex-algebra operations and the brute-force
validity checks all reduce to integer arithmetic.  Frames are immutable once
built; every derived structure is computed on first use and cached.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .syntax import (
    SORT1, SORTD, And, AndF, Bot, Box, Dia, DfmlFormula, Eq, Exists, FalseF,
    FoFormula, Forall, Forall2, Imp, ImpF, IVar, Neg, NotF, Or, OrF, PredApp,
    PropVar, RelAtom, Sequent, SortedFormula, SortedVar, STop, SBot,
    Cap, Cup, Prime, DiaVert, DiaMinus, Box1, BoxD, BoxMinus, BoxVert, TDown,
    BTDown, Odot, RSpoon, TRight, Top, TrueF, sorted_vars,
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


class _OperatorTables(dict):
    """A frame's operator tables, each built from its ``FiniteFrame`` method
    the first time it is looked up."""

    __slots__ = ("frame",)

    def __init__(self, frame: FiniteFrame):
        super().__init__()
        self.frame = frame

    def __missing__(self, op: str) -> bytes:
        fr = self.frame
        fn = getattr(fr, op)
        sizes = [1 << (fr.n1 if sort == SORT1 else fr.nd) for sort in _OPERATOR_ARG_SORTS[op]]
        if len(sizes) == 1:
            table = bytes(fn(a) for a in range(sizes[0]))
        else:
            table = bytes(fn(a, b) for a in range(sizes[0]) for b in range(sizes[1]))
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


# ---------------------------------------------------------------------------
# Validity and the correspondence oracle
# ---------------------------------------------------------------------------

def sequent_valuations(frame: FiniteFrame, s: Sequent):
    """All stable-set valuations of the sequent's variables."""
    from .syntax import dfml_vars
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
    first disagreeing point (its name).
    """
    n = frame.n1 if anchor.sort == SORT1 else frame.nd
    names = frame.z1 if anchor.sort == SORT1 else frame.zd
    for w in range(n):
        lhs = local_validity(frame, s, w, anchor.sort)
        rhs = eval_fo(frame, corr, {anchor: w})
        if lhs != rhs:
            return names[w]
    return None


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

def _masks_to_pairs(row_masks, of_row):
    pairs = []
    for a, mask in enumerate(row_masks):
        for b in bits(mask):
            pairs.append(of_row(a, b))
    return pairs


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


def enumerate_frames(n1: int, nd: int, relations: tuple[str, ...],
                     require=("F1", "F2"), sample: int | None = None,
                     seed: int = 0):
    """Frames of the given carrier sizes over the listed base relations.

    Relations not listed are empty; this is exhaustive for the sequents and
    correspondents that only mention the listed relations.  ``sample`` caps
    the number of relation combinations tried, drawn from a seeded generator
    (used for the ternary relation, whose full space is intractable).
    """
    import random

    z1 = [f"a{i}" for i in range(n1)]
    zd = [f"b{i}" for i in range(nd)]
    rel_spaces = []
    for rel in relations:
        if rel == "Rdia":
            rel_spaces.append([(x, z) for x in range(n1) for z in range(n1)])
        elif rel == "Rbox":
            rel_spaces.append([(w, y) for w in range(nd) for y in range(nd)])
        elif rel == "Rneg":
            rel_spaces.append([(y, x) for y in range(nd) for x in range(n1)])
        elif rel == "T":
            rel_spaces.append([(y, x, v) for y in range(nd) for x in range(n1)
                               for v in range(nd)])
        else:
            raise ValueError(f"unknown relation {rel!r}")

    i_options = list(separated_i_masks(n1, nd))
    total_bits = sum(len(s) for s in rel_spaces)

    def build(i_rows, rel_bits):
        kwargs = {"i_rel": [(z1[x], zd[y]) for x in range(n1) for y in bits(i_rows[x])]}
        ofs = 0
        for rel, space in zip(relations, rel_spaces):
            chosen = [space[k] for k in range(len(space)) if rel_bits & (1 << (ofs + k))]
            ofs += len(space)
            if rel == "Rdia":
                kwargs["r_dia"] = [(z1[a], z1[b]) for a, b in chosen]
            elif rel == "Rbox":
                kwargs["r_box"] = [(zd[a], zd[b]) for a, b in chosen]
            elif rel == "Rneg":
                kwargs["r_neg"] = [(zd[a], z1[b]) for a, b in chosen]
            elif rel == "T":
                kwargs["t_rel"] = [(zd[a], z1[b], zd[c]) for a, b, c in chosen]
        try:
            fr = FiniteFrame(z1, zd, validate=False, **kwargs)
        except (FrameValidationError, FrameSizeError):
            return None
        report = fr.check_axioms(require)
        if all(ok for ok, _ in report.values()):
            return fr
        return None

    if not i_options:
        return
    if sample is None:
        combos = ((i_rows, rel_bits) for i_rows in i_options
                  for rel_bits in range(1 << total_bits))
    else:
        rng = random.Random(seed)
        def sampled():
            for _ in range(sample):
                yield (rng.choice(i_options), rng.getrandbits(total_bits))
        combos = sampled()

    for i_rows, rel_bits in combos:
        fr = build(i_rows, rel_bits)
        if fr is not None:
            yield fr


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
