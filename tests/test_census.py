"""Census: every library name has a caller outside tests/.

The names are the library's top-level definitions and the public methods
of its classes.  A top-level name is called when any reference to it, a
name, an attribute or an import, appears in `src/`, `tools/` or
`perfbench/`; a method is called when an attribute reference to it does.
A definition's own body does not count as its caller.  A name that only
the tests reach is either a checker, which belongs in `tests/_oracles.py`,
or code the library does not run.  The census reads the source with `ast`,
so a docstring word that happens to match a name is not a caller.  A
checkout may come without `perfbench/`; a name whose only callers are there
is then accepted, and only then.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ut_lab"
PERFBENCH = ROOT / "perfbench"
CALLER_DIRS = (ROOT / "src", ROOT / "tools", PERFBENCH)
SPANS = PERFBENCH / "spans.py"

# Names kept without a caller in the library, tools or benchmark.
KEPT = {
    "enumerate_kpartitions": "perfbench/spans.py wraps it by name, as a string",
    "subpartition_extension_decider": (
        "perfbench/spans.py wraps it by name, as a string; the public decider "
        "for one orbit and one seed, which the tests call"
    ),
}

# Names whose only callers outside tests/ are in perfbench/, each with a
# file there that calls it.
PERFBENCH_CALLERS = {
    "transformation_from_parts": "perfbench/workloads.py",
    "has_weak_kut": "perfbench/workloads.py",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node: ast.AST, inside: frozenset[str] = frozenset()):
    """(name, is_attribute) for every name a tree reads: Name ids, Attribute
    attrs and ImportFrom aliases.  Inside a definition's body its own name
    is not yielded."""
    if isinstance(node, DEFINITIONS):
        inside |= {node.name}
    if isinstance(node, ast.Name) and node.id not in inside:
        yield node.id, False
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        yield node.attr, True
    elif isinstance(node, ast.ImportFrom):
        yield from ((a.name, False) for a in node.names if a.name not in inside)
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, inside)


def _definitions() -> dict[str, tuple[str, bool]]:
    """Library name -> (defining module, is a method).  Methods are the
    public ones of top-level classes, named `Class.method`."""
    out: dict[str, tuple[str, bool]] = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, DEFINITIONS):
                continue
            out[node.name] = (path.stem, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = (path.stem, True)
    return out


def _references(paths) -> tuple[set[str], set[str]]:
    """The names and the attributes that the files read."""
    names: set[str] = set()
    attributes: set[str] = set()
    for path in paths:
        for name, is_attribute in _reads(ast.parse(path.read_text(), filename=str(path))):
            (attributes if is_attribute else names).add(name)
    return names, attributes


def _census(directories=CALLER_DIRS) -> dict[str, str]:
    """Library name -> its defining module, for names that no file under
    the directories calls."""
    names, attributes = _references(
        path for directory in directories if directory.is_dir()
        for path in sorted(directory.rglob("*.py"))
    )
    return {
        qualname: module
        for qualname, (module, is_method) in _definitions().items()
        if qualname.rsplit(".", 1)[-1] not in (attributes if is_method else names | attributes)
    }


def _spans_wrapped_attributes() -> set[str]:
    """The attribute strings of the `(owner, "attribute", ...)` tuples in
    `Tracer.wraps` of spans.py."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    wraps = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "wraps")
    return {
        node.elts[1].value
        for node in ast.walk(wraps)
        if isinstance(node, ast.Tuple) and len(node.elts) > 1
        and isinstance(node.elts[0], (ast.Name, ast.Attribute))
        and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)
    }


def test_every_library_name_has_a_caller():
    accepted = set(KEPT) if PERFBENCH.is_dir() else set(KEPT) | set(PERFBENCH_CALLERS)
    orphans = {name: where for name, where in _census().items() if name not in accepted}
    assert not orphans, f"library names with no caller outside tests/: {orphans}"


def test_kept_names_still_exist():
    assert set(KEPT) | set(PERFBENCH_CALLERS) <= set(_definitions())


def test_perfbench_callers_are_only_there():
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not part of this checkout")
    for name, caller in PERFBENCH_CALLERS.items():
        names, attributes = _references([ROOT / caller])
        assert name in names | attributes, f"{caller} no longer calls {name}"
    callers_outside = set(PERFBENCH_CALLERS) - set(_census((ROOT / "src", ROOT / "tools")))
    assert not callers_outside, f"called from src/ or tools/: {callers_outside}"


def test_kept_for_spans_are_wrapped_there():
    if not SPANS.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    cited = {name for name, reason in KEPT.items() if "perfbench/spans.py" in reason}
    assert cited <= _spans_wrapped_attributes()
