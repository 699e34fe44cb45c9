"""Every public top-level ``def`` / ``class`` under ``src/repro``, and every
public method and property of those classes, is run by something:
referenced in ``src/``, ``examples/`` or ``benchmarks/`` outside its own
body.  Dunders and the stubs of a ``Protocol`` are exempt.

Tests do not count — a name only its own tests reach is code nothing
runs (an oracle a test needs lives under ``tests/``).  Neither does an
``import`` (an ``__init__`` re-export, or an import nothing then uses)
nor an ``__all__`` entry: a reference is a name or attribute *read* in
code, or a string that is exactly the name outside ``__all__`` (what a
registry hands to ``getattr``).  The scan is by bare name, so it is a
floor, not a call graph: a name shared with some other used function
passes — except through a class: ``Cls.member``, where ``Cls`` names a
class defined under ``src/repro``, counts for that class's member only.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "benchmarks")

#: name -> why it stays although nothing in ``SCANNED`` reads it.
ALLOWED_UNREFERENCED: Dict[str, str] = {
    "read_counter_dump": "parses the format write_counter_dump emits; tests round-trip through it",
}

Span = Tuple[Path, int, int]


def _python_files() -> Iterator[Path]:
    for top in SCANNED:
        yield from sorted((REPO_ROOT / top).rglob("*.py"))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)) == "Protocol"
        for base in node.bases
    )


def _definitions(path: Path, tree: ast.Module) -> Iterator[Tuple[str, str, Span]]:
    """(bare name, qualified name, span) of each public definition; a
    span starts at the first decorator, so ``@x.setter`` is inside it."""
    for node in tree.body:
        if not isinstance(node, DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node.name, (path, node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef) and not _is_protocol(node):
            for member in node.body:
                if isinstance(member, DEFS) and not member.name.startswith("_"):
                    start = min([member.lineno] + [d.lineno for d in member.decorator_list])
                    yield member.name, f"{node.name}.{member.name}", (
                        path, start, member.end_lineno
                    )


def _references(tree: ast.Module, classes: FrozenSet[str]) -> Iterator[Tuple[str, int]]:
    """(name, line) of each read; ``Cls.member`` on a class in ``classes``
    is the qualified name."""
    exports = {
        id(const)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for const in ast.walk(node.value)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield (f"{owner}.{node.attr}" if owner in classes else node.attr), node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exports
        ):
            yield node.value, node.lineno


@lru_cache(maxsize=None)
def unreferenced_names() -> FrozenSet[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in _python_files()}
    src = [(path, tree) for path, tree in trees.items()
           if path.is_relative_to(REPO_ROOT / "src" / "repro")]
    defs: Dict[str, List[Tuple[str, Span]]] = {}  # bare name -> (qualified name, span)
    for path, tree in src:
        for name, qualname, span in _definitions(path, tree):
            defs.setdefault(name, []).append((qualname, span))
    classes = frozenset(
        node.name for _path, tree in src for node in tree.body if isinstance(node, ast.ClassDef)
    )
    refs: Dict[str, List[Tuple[Path, int]]] = {}  # bare or ``Cls.member`` name -> sites
    for path, tree in trees.items():
        for name, line in _references(tree, classes):
            refs.setdefault(name, []).append((path, line))

    def inside_own_body(name: str, path: Path, line: int) -> bool:
        return any(p == path and lo <= line <= hi for _q, (p, lo, hi) in defs[name])

    return frozenset(
        qualname
        for name, entries in defs.items()
        for qualname, _span in entries
        if not any(
            not inside_own_body(name, p, line)
            for key in {name, qualname}
            for p, line in refs.get(key, ())
        )
    )


def test_every_public_definition_is_reachable():
    missing = sorted(unreferenced_names() - set(ALLOWED_UNREFERENCED))
    assert not missing, (
        "public definitions nothing in src/, examples/ or benchmarks/ reads "
        f"(delete them, or move a test oracle under tests/): {missing}"
    )


def test_allowlist_is_current():
    """An allowlisted name that is now used, or gone, leaves the list."""
    assert set(ALLOWED_UNREFERENCED) <= unreferenced_names()
    assert all(reason.strip() for reason in ALLOWED_UNREFERENCED.values())
