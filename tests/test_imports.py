"""Every module-level import in the package, the tests and the demos is read
somewhere, and every top-level function and class of the package is read
by the package, a demo, the benchmark harness or the acceptance suite.

No linter ships with the project, so these scans stand in for its
unused-import and unused-definition rules.  ``__future__`` imports and the
re-exports of the package ``__init__`` are exempt from the first; a
re-export does not count as a read for the second, and neither does a
read in a unit test: a definition that only its own tests reach belongs
in the tests.
"""

import ast
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


def orphans(source: str, read: set[str]) -> list[str]:
    """The top-level functions and classes of ``source`` missing from ``read``."""
    return [f"line {node.lineno}: {node.name}" for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read]


def names_reached(root: Path) -> set[str]:
    """Every name read by the package, the demos, the benchmark harness or
    the acceptance suite under ``root``."""
    readers = [*sorted((root / "src" / "hptools").glob("*.py")),
               *sorted((root / "demos").glob("*.py")),
               *sorted((root / "perfbench").glob("*.py")),
               root / "tests" / "test_acceptance.py"]
    return set().union(*(names_read(p.read_text()) for p in readers))


READ = names_reached(ROOT)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_orphaned_definitions(path):
    assert orphans(path.read_text(), READ) == []


def test_scan_flags_an_orphaned_definition(tmp_path):
    source = ("def used():\n    pass\ndef left():\n    pass\nclass Kept:\n"
              "    pass\ndef tested():\n    pass\n")
    files = {"src/hptools/a.py": source + "used()\n", "demos/d.py": "x = m.Kept\n",
             "tests/test_acceptance.py": "", "tests/test_a.py": "tested()\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # only a unit test reads tested(), which does not count
    assert orphans(source, names_reached(tmp_path)) == ["line 3: left",
                                                       "line 7: tested"]
