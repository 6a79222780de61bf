"""Census: every top-level name of the library has a caller outside tests/.

A name that only the tests reach is either a checker, which belongs in
`tests/_oracles.py`, or code the library does not run.  The census reads
the source with `ast`, so a docstring word that happens to match a name is
not a caller.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ut_lab"
CALLER_DIRS = (ROOT / "src", ROOT / "tools", ROOT / "perfbench")

# Names kept without a caller in the library, tools or benchmark.
KEPT = {
    "enumerate_kpartitions": "perfbench/spans.py wraps it by name, as a string",
}


def _references(tree: ast.AST) -> set[str]:
    """Every name a tree reads: Name ids, Attribute attrs, ImportFrom aliases."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _census() -> dict[str, list[str]]:
    """Library name -> the modules defining it, for names no one references."""
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(path.stem)
                # A definition's own body does not count as its caller.
                referenced |= _references(node) - {node.name}
            else:
                referenced |= _references(node)
    for directory in CALLER_DIRS[1:]:
        for path in sorted(directory.rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text(), filename=str(path)))
    return {name: where for name, where in defined.items() if name not in referenced}


def test_every_library_name_has_a_caller():
    orphans = {name: where for name, where in _census().items() if name not in KEPT}
    assert not orphans, f"library names with no caller outside tests/: {orphans}"


def test_kept_names_still_exist():
    defined = {
        node.name
        for path in LIBRARY.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert set(KEPT) <= defined
