"""Every module-level import in the package, the tests and the demos is read
somewhere; every top-level function and class of the package, every
method, property and field of its classes, and every attribute their
``__init__`` sets on ``self`` is read by the package, a demo, the benchmark
harness or the acceptance suite; every optional parameter of a package
function or method is passed by one of those readers; and every name the
package ``__init__`` re-exports is imported from ``hptools`` by some file.

No linter ships with the project, so these scans stand in for its
unused-import, unused-definition and unused-option rules.  ``__future__``
imports and the re-exports of the package ``__init__`` are exempt from the
first; a re-export does not count as a read for the second, and neither
does a read or a call in a unit test: a definition or an option that only
its own tests reach belongs in the tests.  Members are matched by attribute
name and callees by their bare name, so one that shares its name with any
other read or call passes unseen.  Dunders are exempt, and so are overrides
of a base class from outside the package, which that base's own code calls.
"""

import ast
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hptools").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + \
    sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == \
        ["line 2: e", "line 1: os"]


def names_read(source: str) -> set[str]:
    """Every name that ``source`` loads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def inherited(tree: ast.Module, cls: ast.ClassDef) -> set[str]:
    """The attributes ``cls`` inherits from bases outside the package: each
    base is evaluated against the builtins and the module's absolute
    imports, so a package class, imported relatively or defined alongside,
    does not resolve and adds nothing."""
    imports = [node for node in tree.body if isinstance(node, ast.Import)
               or (isinstance(node, ast.ImportFrom) and not node.level
                   and node.module != "__future__")]
    scope: dict = {}
    exec(compile(ast.Module(imports, []), "<imports>", "exec"), scope)
    names = set()
    for base in cls.bases:
        try:
            names |= set(dir(eval(compile(ast.Expression(base), "<base>", "eval"),
                                  scope)))
        except NameError:
            pass
    return names


def members(tree: ast.Module, cls: ast.ClassDef):
    """(line, name) of each method, property and field of ``cls`` that is
    neither a dunder nor an override of a base outside the package."""
    skip = inherited(tree, cls)
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            line, name = node.lineno, node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            line, name = node.lineno, node.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__") or name in skip):
            yield line, name


def orphans(source: str, read: set[str]) -> list[str]:
    """The top-level functions and classes of ``source``, and the members of
    its classes, missing from ``read``."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read:
            found.append(f"line {node.lineno}: {node.name}")
        if isinstance(node, ast.ClassDef):
            found += [f"line {line}: {node.name}.{name}"
                      for line, name in members(tree, node) if name not in read]
    return found


def readers(root: Path) -> list[str]:
    """The sources of the package, the demos, the benchmark harness and the
    acceptance suite under ``root``."""
    return [p.read_text() for p in [
        *sorted((root / "src" / "hptools").glob("*.py")),
        *sorted((root / "demos").glob("*.py")),
        *sorted((root / "perfbench").glob("*.py")),
        root / "tests" / "test_acceptance.py"]]


def names_reached(root: Path) -> set[str]:
    """Every name read by the package, the demos, the benchmark harness or
    the acceptance suite under ``root``."""
    return set().union(*(names_read(source) for source in readers(root)))


READ = names_reached(ROOT)


def plant(root: Path, files: dict[str, str]) -> None:
    """Write each text of ``files`` to its path under ``root``."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_orphaned_definitions(path):
    assert orphans(path.read_text(), READ) == []


def test_scan_flags_an_orphaned_definition(tmp_path):
    source = ("def used():\n    pass\ndef left():\n    pass\nclass Kept:\n"
              "    pass\ndef tested():\n    pass\n")
    files = {"src/hptools/a.py": source + "used()\n", "demos/d.py": "x = m.Kept\n",
             "tests/test_acceptance.py": "", "tests/test_a.py": "tested()\n"}
    plant(tmp_path, files)
    # only a unit test reads tested(), which does not count
    assert orphans(source, names_reached(tmp_path)) == ["line 3: left",
                                                       "line 7: tested"]


def test_scan_flags_an_orphaned_member(tmp_path):
    source = ("import argparse\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass Row:\n    size: int\n    tested: int\n"
              "    def __len__(self):\n        return self.size\n"
              "    @property\n    def width(self):\n        return 0\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def error(self, message):\n        pass\n")
    files = {"src/hptools/a.py": source + "Parser(); Row(1, 2).size\n",
             "demos/d.py": "", "tests/test_acceptance.py": "",
             "tests/test_a.py": "assert Row(1, 2).tested and Row(1, 2).width\n"}
    plant(tmp_path, files)
    # a field and a property that only a unit test reads are flagged; the
    # dunder and the override of argparse's error are not
    assert orphans(source, names_reached(tmp_path)) == ["line 6: Row.tested",
                                                       "line 10: Row.width"]


def attributes_read(source: str) -> set[str]:
    """Every attribute name that ``source`` loads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_attributes(source: str, read: set[str]) -> list[str]:
    """The attributes that an ``__init__`` of a class of ``source`` sets on
    ``self``, missing from ``read``; dunders and attributes a base outside
    the package defines are exempt."""
    tree = ast.parse(source)
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        skip = inherited(tree, cls) | read
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                me = init.args.args[0].arg
                found += [f"line {node.lineno}: {cls.name}.{node.attr}"
                          for node in ast.walk(init)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == me
                          and not node.attr.startswith("__")
                          and node.attr not in skip]
    return found


def attributes_reached(root: Path) -> set[str]:
    """Every attribute name read by the package, the demos, the benchmark
    harness or the acceptance suite under ``root``."""
    return set().union(*(attributes_read(source) for source in readers(root)))


ATTRIBUTES = attributes_reached(ROOT)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_attributes(path):
    assert unread_attributes(path.read_text(), ATTRIBUTES) == []


def test_scan_flags_an_unread_attribute(tmp_path):
    source = ("class Step(ValueError):\n    def __init__(self, step, size):\n"
              "        super().__init__(step)\n        self.step = step\n"
              "        self._size = size\n        self.args = (step,)\n"
              "    def size(self):\n        return self._size\n")
    files = {"src/hptools/a.py": source + "Step('s', 1).size()\n",
             "demos/d.py": "", "tests/test_acceptance.py": "",
             "tests/test_a.py": "assert Step('s', 1).step\n"}
    plant(tmp_path, files)
    # only a unit test reads .step, and the bare name step does not count;
    # the package reads ._size, and ValueError's own code reads .args
    assert unread_attributes(source, attributes_reached(tmp_path)) == \
        ["line 4: Step.step"]


def callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def calls(source: str) -> dict[str, list[tuple[float, set]]]:
    """For each callee name, (positional count, keyword names) of each call
    in ``source``, ``functools.partial(f, ...)`` counting as a call of f.
    A ``*`` splat counts as every position, and a ``**`` splat adds None,
    which stands for every keyword."""
    found: dict[str, list[tuple[float, set]]] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if callee(func) == "partial" and args:
            func, args = args[0], args[1:]
        count = (math.inf if any(isinstance(a, ast.Starred) for a in args)
                 else len(args))
        found.setdefault(callee(func), []).append(
            (count, {kw.arg for kw in node.keywords}))
    return found


def calls_made(root: Path) -> dict[str, list[tuple[float, set]]]:
    """``calls`` over the package, the demos, the benchmark harness and the
    acceptance suite under ``root``."""
    merged: dict[str, list[tuple[float, set]]] = {}
    for source in readers(root):
        for name, made in calls(source).items():
            merged.setdefault(name, []).extend(made)
    return merged


def init_fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    """The fields that ``@dataclass`` or a ``NamedTuple`` base makes
    parameters of ``cls``'s constructor, in order; none unless ``cls`` is a
    dataclass or a ``NamedTuple``."""
    if not (any(callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in cls.decorator_list)
            or any(callee(base) == "NamedTuple" for base in cls.bases)):
        return []
    return [stmt for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and stmt.simple
            and "ClassVar" not in ast.unparse(stmt.annotation)
            and not (isinstance(stmt.value, ast.Call)
                     and callee(stmt.value.func) == "field"
                     and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                             and kw.value.value is False
                             for kw in stmt.value.keywords))]


def options(tree: ast.Module):
    """(line, callee, label, position, name) of each optional parameter of
    the top-level functions and the methods of ``tree``, the fields of a
    dataclass or a ``NamedTuple`` with a default among them: a method is
    called by its name and ``__init__`` and ``__new__`` by their class's,
    ``self`` and ``cls`` take no position, and a keyword-only parameter has
    position None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found = [(node.name, node.name, 0, node)]
        elif isinstance(node, ast.ClassDef):
            found = [(node.name if fn.name in ("__init__", "__new__") else fn.name,
                      f"{node.name}.{fn.name}", 1, fn)
                     for fn in node.body if isinstance(fn, ast.FunctionDef)]
            for i, stmt in enumerate(init_fields(node)):
                if stmt.value is not None:
                    yield stmt.lineno, node.name, node.name, i, stmt.target.id
        else:
            continue
        for name, label, shift, fn in found:
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield arg.lineno, name, label, i - shift, arg.arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield arg.lineno, name, label, None, arg.arg


def unpassed(source: str, made: dict[str, list[tuple[float, set]]]) -> list[str]:
    """The optional parameters of ``source`` that no call in ``made`` passes."""
    return [f"line {line}: {label}({param})"
            for line, name, label, position, param in options(ast.parse(source))
            if not any(position is not None and count > position
                       or param in keywords or None in keywords
                       for count, keywords in made.get(name, []))]


MADE = calls_made(ROOT)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_option_that_nothing_passes(path):
    assert unpassed(path.read_text(), MADE) == []


def test_scan_flags_an_option_nothing_passes(tmp_path):
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "class K:\n    def __init__(self, x=0, y=0):\n        pass\n"
              "    def m(self, z=0, w=0):\n        pass\n"
              "def g(u=0):\n    pass\n"
              "@dataclass(frozen=True)\nclass D:\n    a: int\n"
              "    b: int = 0\n    c: dict = field(default_factory=dict)\n"
              "    t: dict = field(default_factory=dict, init=False)\n"
              "    s: ClassVar[int] = 0\n"
              "class N(typing.NamedTuple):\n    a: int\n    b: int = 0\n"
              "    c: int = 0\n"
              "class T(tuple):\n    def __new__(cls, p, q=0, r=0):\n        pass\n")
    files = {"src/hptools/a.py": source + "f(0, 1, e=5); K(1).m(**{}); D(0, 1)\n"
                                          "N(0, b=1); T(0, 1)\n",
             "demos/d.py": "import functools\nfunctools.partial(g, 0)\n",
             "tests/test_acceptance.py": "", "tests/test_a.py": "f(0, d=1)\n"}
    plant(tmp_path, files)
    # b by position, e by keyword, x by position past self, z and w through
    # the ** splat, u through partial, D's b by position, N's b by keyword,
    # T's q by position past cls; d only a unit test passes; D's and N's c
    # are fields that nothing passes, and t and s are no parameters of D
    assert unpassed(source, calls_made(tmp_path)) == \
        ["line 1: f(c)", "line 1: f(d)", "line 4: K.__init__(y)",
         "line 14: D(c)", "line 20: N(c)", "line 22: T.__new__(r)"]


def imported_names(source: str) -> set[str]:
    """The names ``source`` imports from ``hptools`` or reads off it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "hptools" \
                and not node.level:
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "hptools":
            found.add(node.attr)
    return found


def unimported_reexports(init: str, imported: set[str]) -> list[str]:
    """The names ``init`` re-exports from its own modules that are missing
    from ``imported``."""
    return [f"line {node.lineno}: {alias.asname or alias.name}"
            for node in ast.parse(init).body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if (alias.asname or alias.name) not in imported]


def test_every_reexport_is_imported():
    imported = set().union(*(imported_names(p.read_text()) for p in
                             [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]))
    assert unimported_reexports(
        (ROOT / "src" / "hptools" / "__init__.py").read_text(), imported) == []


def test_scan_flags_an_unimported_reexport():
    init = "from .a import kept, read\nfrom .b import left as gone\n"
    imported = imported_names("import hptools\nfrom hptools import kept\n"
                              "hptools.read()\nfrom hptools.b import left\n")
    # importing left from its own module does not keep the re-export
    assert unimported_reexports(init, imported) == ["line 2: gone"]
