"""Spans around calls into dfmlcorr's public functions, recorded from outside.

A ``Tracer`` replaces chosen functions in every loaded ``dfmlcorr`` module
(and one method of ``FiniteFrame``) with wrappers that record a span per
call: its name, start, end, the span open when it began (its parent) and
the benchmark item it belongs to.  Generator functions get one span per
resumption, so the time a consumer spends between two yields is not
charged to the generator.  Recursive functions marked ``outermost`` record
only the outermost call.  Nothing inside ``src/`` changes; ``restore()``
puts the original functions back.

Spans are kept in flat arrays in memory and written out once, at the end.
"""
from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, kind) for every traced entry point.  ``kind`` is
# "call", "gen" (one span per resumption) or "outer" (outermost call only).
# The span name is "<module>.<attribute>"; the module is the layer.
TRACED = (
    ("syntax", "parse_dfml", "call"),
    ("syntax", "parse_sorted", "call"),
    ("syntax", "parse_fo", "call"),
    ("translation", "translate_sequent", "call"),
    ("reduction", "classify", "call"),
    ("reduction", "reduce_search", "call"),
    ("reduction", "applicable_moves", "gen"),
    ("correspondence", "correspondent_from", "call"),
    ("semantics", "enumerate_frames", "gen"),
    ("semantics", "FiniteFrame.check_axioms", "call"),
    ("semantics", "correspondence_oracle", "call"),
    ("semantics", "local_validity", "call"),
    ("semantics", "sequent_valuations", "gen"),
    ("semantics", "model_check_dfml", "call"),
    ("semantics", "eval_fo", "outer"),
    ("semantics", "system_equivalence_witness", "call"),
    ("semantics", "system_valuations", "gen"),
    ("semantics", "model_check_sorted", "outer"),
    ("cli", "main", "call"),
)

ITEM_SPAN = "perfbench.item"


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.names: list[str] = [ITEM_SPAN]
        self.name_of: dict[str, int] = {ITEM_SPAN: 0}
        self.span_name = array("H")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()    # generator objects created, by span name
        self.yields: Counter = Counter()   # values a generator yielded, by span name
        self.raised: Counter = Counter()   # (span name, exception class name)
        self.current_item = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def item_span(self, item: int, fn, *args):
        """Call ``fn(*args)`` as benchmark item ``item``, inside a root span."""
        self.current_item = item
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _name_id(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def _wrap(self, fn, name: str, kind: str):
        nid = self._name_id(name)
        tracer = self

        if kind == "gen":
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer._open(nid)
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(sid)
                        tracer.yields[name] += 1
                        yield value
                finally:
                    gen.close()
            return traced_gen

        depth = [0]

        def traced(*args, **kwargs):
            if kind == "outer" and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            sid = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[name, type(exc).__name__] += 1
                raise
            finally:
                tracer._close(sid)
                depth[0] -= 1
        return traced

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function wherever a dfmlcorr module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "dfmlcorr" or n.startswith("dfmlcorr.")]
        for mod_name, attr, kind in TRACED:
            owner = sys.modules[f"dfmlcorr.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, kind))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- reading --------------------------------------------------------------

    def summary(self):
        """Per span name: (spans, inclusive seconds, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Write the spans as gzip'd CSV: id,parent,item,name,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id,parent,item,name,start_s,end_s\n")
            names, t0 = self.names, self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.item[i]},"
                         f"{names[self.span_name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
