"""Every module of the package uses each name it imports, every private
module-level function and class is used somewhere in the package, one
function holds the package's only ``exec``, one method looks up every
operator and guard table, one function builds every ``I`` atom, two
functions own the reduction search's memo, one method owns the intern
tables of sorted nodes and their shapes, only the reference interpreters
name one another, and every hook the benchmark under ``perfbench/`` sets
into the package resolves."""
import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import dfmlcorr
from dfmlcorr import cli, semantics

MODULES = sorted(p for p in Path(dfmlcorr.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _names_used(tree: ast.AST) -> list[str]:
    """Every name ``tree`` reads, as a variable, an attribute or an import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
    return names


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes of ``sources`` (module
    name -> source) that no module names outside their own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = [n for tree in trees.values() for n in _names_used(tree)]
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                if used.count(node.name) == _names_used(node).count(node.name):
                    orphans.append(f"{module}: {node.name} (line {node.lineno})")
    return orphans


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc()\n"
    assert unused_imports(source) == ["a (line 3)", "os (line 2)"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unreferenced_private_functions_or_classes():
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_is_reported():
    a = ("def _called(): pass\n"
         "def _recursive(n): return _recursive(n - 1)\n"
         "class _Imported: pass\n"
         "def _by_attribute(): pass\n"
         "class _Unused:\n    def _method(self): return _Unused\n"
         "def __dunder__(): pass\n"
         "_called()\n")
    b = "from a import _Imported\nimport a\na._by_attribute()\n"
    assert unreferenced_privates({"a.py": a, "b.py": b}) == [
        "a.py: _recursive (line 2)", "a.py: _Unused (line 5)"]


def node_sites(sources: dict[str, str], is_site) -> list[str]:
    """Every node ``n`` with ``is_site(n)`` in ``sources`` (module name ->
    source), as ``module: qualified name of the enclosing function``."""
    sites = []

    def visit(module, node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, [*path, child.name])
                continue
            if is_site(child):
                sites.append(f"{module}: {'.'.join(path) or '<module>'}")
            visit(module, child, path)

    for module, source in sources.items():
        visit(module, ast.parse(source), [])
    return sorted(sites)


def call_sites(sources: dict[str, str], is_site) -> list[str]:
    """Every call node ``c`` with ``is_site(c)`` in ``sources``."""
    return node_sites(sources, lambda n: isinstance(n, ast.Call) and is_site(n))


def exec_sites(sources: dict[str, str]) -> list[str]:
    """Every call of ``exec`` in ``sources``."""
    return call_sites(sources, lambda c: isinstance(c.func, ast.Name) and c.func.id == "exec")


def _builds_i_atom(call: ast.Call) -> bool:
    """``call`` is ``RelAtom("I", ...)`` or ``RelAtom(rel="I", ...)``, the
    class named bare or as an attribute."""
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != "RelAtom":
        return False
    rel = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "rel"), None)
    return isinstance(rel, ast.Constant) and rel.value == "I"


def i_atom_sites(sources: dict[str, str]) -> list[str]:
    """Every ``RelAtom`` built with the constant relation ``"I"`` in
    ``sources``, outside ``syntax.i_atom``."""
    return [site for site in call_sites(sources, _builds_i_atom)
            if site != "syntax.py: i_atom"]


def test_one_exec_site():
    """Every generated evaluator goes through one code generator."""
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}
    assert exec_sites(sources) == ["semantics.py: _Nest.compile"]


def test_one_row_table_caller():
    """Every operator and guard table, unary or binary, is looked up through
    one method, so the cache keyed by the rows it reads is the only way one
    is built; ``_row_table`` builds a binary table from its unary ones."""
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}

    def calls_row_table(call: ast.Call) -> bool:
        return getattr(call.func, "id", getattr(call.func, "attr", None)) == "_row_table"

    sites = [site for site in call_sites(sources, calls_row_table)
             if site != "semantics.py: _row_table"]
    assert sites == ["semantics.py: _OperatorTables.__missing__"]


def test_exec_sites_are_reported():
    a = ("class C:\n    def run(self, s):\n        exec(compile(s, 'x', 'exec'), {})\n"
         "def outer():\n    def inner():\n        return exec('pass')\n    return inner\n"
         "exec('y = 1')\n")
    b = "import builtins\nbuiltins.eval('1')\nobj.exec('pass')\ncompile('1', 'b', 'eval')\n"
    assert exec_sites({"a.py": a, "b.py": b}) == [
        "a.py: <module>", "a.py: C.run", "a.py: outer.inner"]


def test_i_atoms_are_built_by_i_atom():
    """The orientation of an I atom, sort-1 point first, is decided in one place."""
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}
    assert i_atom_sites(sources) == []


def test_i_atom_sites_are_reported():
    syntax = ("def i_atom(a, b):\n    return RelAtom('I', (a, b))\n"
              "def other(a, b):\n    return RelAtom('I', (b, a))\n")
    m = ("class C:\n    def f(self, x, y):\n        return RelAtom(rel='I', args=(x, y))\n"
         "def i_atom(a, b):\n    return RelAtom('I', (a, b))\n"
         "RelAtom('I', ())\n"
         "RelAtom('R_dia', (x, y))\nRelAtom(name, (x, y))\nRelAtom(rel='<=', args=())\n"
         "syntax.RelAtom('I', ())\n")
    assert i_atom_sites({"syntax.py": syntax, "m.py": m}) == [
        "m.py: <module>", "m.py: <module>", "m.py: C.f", "m.py: i_atom", "syntax.py: other"]


# The search memo's owners: the module-level default and the two functions
# that make a memo and drop it.
MEMO_OWNERS = {"reduction.py: <module>", "reduction.py: classify",
               "reduction.py: reduce_search"}


def memo_writers(sources: dict[str, str]) -> list[str]:
    """Every assignment to a name or attribute ``_memo`` in ``sources``
    outside the memo's owners, and every module-level one past the first."""
    sites = node_sites(sources, lambda n: isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, (ast.Store, ast.Del))
                       and getattr(n, "id", getattr(n, "attr", None)) == "_memo")
    module = [site for site in sites if site == "reduction.py: <module>"]
    return [site for site in sites if site not in MEMO_OWNERS] + module[1:]


def test_one_owner_per_memo():
    """``reduction._memo`` is set and reset by ``reduce_search`` and
    ``classify`` alone, so no memo outlives the call that made it."""
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}
    assert memo_writers(sources) == []


def test_memo_writers_are_reported():
    owners = ("_memo = None\n"
              "def reduce_search(s):\n    global _memo\n    _memo = object()\n"
              "    try:\n        pass\n    finally:\n        _memo = None\n"
              "def classify(s):\n    global _memo\n    _memo = object()\n    del _memo\n")
    assert memo_writers({"reduction.py": owners}) == []
    strays = (owners + "_memo = {}\n"
              "def helper():\n    global _memo\n    _memo = object()\n"
              "def classify_more(s):\n    for _memo in ():\n        pass\n"
              "class C:\n    def reduce_search(self):\n        self._memo = None\n")
    other = ("from dfmlcorr import reduction\nreduction._memo = None\n"
             "def classify():\n    reduction._memo: object = None\n")
    assert memo_writers({"reduction.py": strays, "cli.py": other}) == [
        "cli.py: <module>", "cli.py: classify", "reduction.py: C.reduce_search",
        "reduction.py: classify_more", "reduction.py: helper", "reduction.py: <module>"]


# The intern tables' owners: each table's definition at module level, and
# the one method that reads and writes them.
INTERN_TABLES = ("_INTERNED", "_SHAPES")
INTERN_OWNERS = {"syntax.py: <module>", "syntax.py: SortedFormula.__new__"}


def intern_table_users(sources: dict[str, str]) -> list[str]:
    """Every name, attribute or import of an intern table in ``sources``
    outside its owners, and every module-level one past its definition."""
    strays = []
    for table in INTERN_TABLES:
        sites = node_sites(sources, lambda n: getattr(
            n, "id", getattr(n, "attr", getattr(n, "name", None))) == table
            and isinstance(n, (ast.Name, ast.Attribute, ast.alias)))
        module = [site for site in sites if site == "syntax.py: <module>"]
        strays += [site for site in sites if site not in INTERN_OWNERS] + module[1:]
    return sorted(strays)


def test_one_owner_per_intern_table():
    """Only ``SortedFormula.__new__`` touches ``syntax._INTERNED`` and
    ``syntax._SHAPES``, so that every entry is made the way the weak tables
    expect and no other code can keep a node or a token alive."""
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}
    assert intern_table_users(sources) == []


def test_intern_table_users_are_reported():
    owner = ("_INTERNED = WeakValueDictionary()\n_SHAPES = WeakValueDictionary()\n"
             "class SortedFormula:\n    def __new__(cls, *args):\n"
             "        ref = _INTERNED.data.get(args)\n"
             "        _SHAPES.data[args] = ref\n        return ref\n")
    assert intern_table_users({"syntax.py": owner}) == []
    strays = (owner + "_SHAPES = {}\n"
              "def shape(f):\n    return _SHAPES.get(f)\n"
              "class Other:\n    def __new__(cls):\n        return _INTERNED\n")
    other = ("from dfmlcorr.syntax import _INTERNED\nfrom dfmlcorr import syntax\n"
             "def clear():\n    syntax._SHAPES.clear()\n")
    assert intern_table_users({"syntax.py": strays, "reduction.py": other}) == [
        "reduction.py: <module>", "reduction.py: clear", "syntax.py: <module>",
        "syntax.py: Other.__new__", "syntax.py: shape"]


# The reference interpreters, which the engine's generated evaluators are
# checked against, and the unary ``FiniteFrame`` operator methods they read.
# Each may name the others; no other function may name any of them.
REFERENCE_INTERPRETERS = (
    "model_check_sorted", "model_check_dfml", "_dfml_value", "eval_fo", "_ev", "_rel_holds",
    "_REL_HOLDS", "_lookup", "sequent_valuations", "local_validity", "frame_validity",
    "system_valuations", "system_holds", "_plan_rows",
)
REFERENCE_METHODS = ("ldvert", "ldminus", "ltdown", "lbminus", "lbvert", "lbtdown",
                     "bbox1", "bboxd", "ltright", "lodot", "imp_t")
REFERENCE_SITES = {f"semantics.py: {name}" for name in REFERENCE_INTERPRETERS}


def reference_users(sources: dict[str, str]) -> list[str]:
    """Every name or attribute of a reference interpreter or operator
    method in ``sources`` outside the reference, and every module-level one
    past the first, the definition of ``_REL_HOLDS``."""
    names = {*REFERENCE_INTERPRETERS, *REFERENCE_METHODS}
    sites = node_sites(sources, lambda n: isinstance(n, (ast.Name, ast.Attribute))
                       and getattr(n, "id", getattr(n, "attr", None)) in names)
    module = [site for site in sites if site == "semantics.py: <module>"]
    return [site for site in sites if site not in REFERENCE_SITES | {"semantics.py: <module>"}] \
        + module[1:]


def test_the_engine_names_no_reference_interpreter():
    """The fast paths stay off the references they are tested against: only
    the reference interpreters call one another or the frame's operator
    methods."""
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}
    assert reference_users(sources) == []


def test_reference_users_are_reported():
    reference = ("_REL_HOLDS = {}\n"
                 "def eval_fo(fr, f):\n    return _ev(fr, f, {}, {})\n"
                 "def _ev(fr, f, env, penv):\n    return _REL_HOLDS[f](fr) or _ev(fr, f, env, penv)\n"
                 "def _dfml_value(fr, val, f):\n    return fr.ldvert(_dfml_value(fr, val, f))\n")
    assert reference_users({"semantics.py": reference}) == []
    strays = (reference + "_REL_HOLDS.update(x=None)\n"
              "def engine(fr, f):\n    return fr.bboxd(model_check_sorted(fr, {}, f))\n"
              "class Kernel:\n    def run(self, fr):\n        return semantics.eval_fo(fr, None)\n"
              "def table(fr):\n    return getattr(fr, 'ldvert')\n")
    other = ("from dfmlcorr.semantics import system_holds\n"
             "def audit(fr, s):\n    return system_holds\n")
    assert reference_users({"semantics.py": strays, "cli.py": other}) == [
        "cli.py: audit", "semantics.py: Kernel.run", "semantics.py: engine",
        "semantics.py: engine", "semantics.py: <module>"]


# The benchmark reaches into the package from outside: ``perfbench/tracing.py``
# wraps the entry points its ``TRACED`` table lists, and
# ``perfbench/workloads.run_cli`` swaps ``cli.correspondence_oracle`` to time
# each frame.  A refactor that broke either would end a run as ``run_failed``.
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_entries(source: str) -> tuple:
    """The ``TRACED`` table of a tracing module's source, read without running it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] \
                == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise LookupError("no TRACED table")


def unresolved_traced(entries, modules: dict) -> list[str]:
    """Every ``(module, attribute, kind)`` entry ``Tracer.install`` would not
    find where it looks: a function bound in ``modules[module]``, or for
    ``Class.method`` one in the class's own ``__dict__``; and every "gen"
    entry that is not a generator function, or generator not marked "gen"."""
    missing = []
    for module, attr, kind in entries:
        owner = modules.get(module)
        cls_name, _, meth = attr.rpartition(".")
        cls = getattr(owner, cls_name, None) if cls_name else None
        fn = vars(cls).get(meth) if isinstance(cls, type) else getattr(owner, attr, None)
        if not callable(fn) or (kind == "gen") != inspect.isgeneratorfunction(fn):
            missing.append(f"{module}.{attr}")
    return missing


def test_traced_entry_points_resolve():
    modules = {p.stem: importlib.import_module(f"dfmlcorr.{p.stem}") for p in MODULES}
    entries = traced_entries(TRACING.read_text())
    assert ("semantics", "FiniteFrame.check_axioms", "call") in entries
    assert unresolved_traced(entries, modules) == []


def test_unresolved_traced_entries_are_reported():
    class Base:
        def inherited(self):
            pass

    class Frame(Base):
        def own(self):
            pass

    def gen():
        yield

    module = types.SimpleNamespace(Frame=Frame, oracle=lambda: None, gen=gen, table={})
    source = ("import sys\nTRACED = (\n"
              "    ('semantics', 'oracle', 'call'), ('semantics', 'Frame.own', 'call'),\n"
              "    ('semantics', 'gen', 'gen'), ('semantics', 'Frame.inherited', 'call'),\n"
              "    ('semantics', 'table', 'call'), ('semantics', 'gone', 'call'),\n"
              "    ('semantics', 'oracle', 'gen'), ('semantics', 'gen', 'outer'),\n"
              "    ('semantics', 'Gone.own', 'call'), ('cli', 'main', 'call'),\n)\n")
    assert unresolved_traced(traced_entries(source), {"semantics": module}) == [
        "semantics.Frame.inherited", "semantics.table", "semantics.gone", "semantics.oracle",
        "semantics.gen", "semantics.Gone.own", "cli.main"]
    with pytest.raises(LookupError):
        traced_entries("TRACED_TOO = ()\n")


def global_calls(source: str, function: str) -> set[str]:
    """The names the module-level function ``function`` of ``source`` calls
    bare without binding them itself, so that each call looks the name up
    in the module's globals."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            bound = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
            bound |= {a.asname or a.name for n in ast.walk(node)
                      if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
            return {c.func.id for c in ast.walk(node)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)} - bound
    return set()


def test_verify_calls_the_oracle_by_its_global_name():
    """``cmd_verify`` calls ``cli.correspondence_oracle`` as a global, the
    binding the benchmark swaps, and that binding is the oracle."""
    source = (Path(dfmlcorr.__file__).parent / "cli.py").read_text()
    assert "correspondence_oracle" in global_calls(source, "cmd_verify")
    assert cli.correspondence_oracle is semantics.correspondence_oracle


def test_global_calls_are_reported():
    source = ("def cmd_verify(args, check):\n"
              "    oracle = semantics.correspondence_oracle\n"
              "    from semantics import correspondence_oracle as bound\n"
              "    for correspondence_oracle in ():\n        pass\n"
              "    return check(args) or oracle(args) or correspondence_oracle(args) \\\n"
              "        or semantics.run(args) or bound(args) or run(args)\n"
              "def other():\n    return correspondence_oracle()\n")
    assert global_calls(source, "cmd_verify") == {"run"}
    assert global_calls(source, "other") == {"correspondence_oracle"}
    assert global_calls(source, "missing") == set()
