"""Lint gate: ruff over src/, skipped when no ruff binary is available.

The rule set lives in pyproject.toml (`[tool.ruff.lint]`): pyflakes plus
the bug-prone pycodestyle classes.  Where ruff is not installed the gate
degrades to a skip rather than an error; three always-on floors remain:
every module under ``src/repro`` compiles, reads every name it imports,
and neither the stage bodies nor the kernels they call measure time of
their own (AST checks).
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_ruff_clean_over_src():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff not installed in this environment")
    proc = subprocess.run(
        [ruff, "check", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}{proc.stderr}"


def test_compileall_over_src():
    """Cheap always-on floor: every module must at least compile."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_unused_imports_in_src():
    """Always-on floor of ruff's F401: every name a module under
    ``src/repro`` imports is read in that module.  An ``__init__.py``
    imports to re-export, and a ``__future__`` import is a directive."""
    found = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # ``import a.b`` binds ``a``.
                imported.update(
                    (alias.asname or alias.name.partition(".")[0], node.lineno)
                    for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(
                    (alias.asname or alias.name, node.lineno)
                    for alias in node.names if alias.name != "*"
                )
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        found += [
            f"{path.relative_to(REPO_ROOT)}:{line} imports {name}"
            for name, line in imported.items() if name not in read
        ]
    assert found == []


#: The analytic replay: it schedules modelled costs with the same
#: ``dynamic_makespan`` a team window charges, and runs on no rank.
_ANALYTIC = {"scaling.py"}


def test_parallel_modules_measure_nothing_themselves():
    """``SimComm`` is the one place a measured rank cost becomes virtual
    time: no module of ``repro.parallel``, nor any kernel module of
    ``repro.trinity`` (``chrysalis`` included) or ``repro.seq`` the stage
    bodies call, imports ``time``, ``Stopwatch`` or the OpenMP model, or
    reads a host clock."""
    src = REPO_ROOT / "src" / "repro"
    paths = [
        *sorted((src / "parallel").glob("*.py")),
        *sorted((src / "trinity").rglob("*.py")),
        *sorted((src / "seq").rglob("*.py")),
    ]
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                fn = node.func
                called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
                if called in ("thread_time", "perf_counter"):
                    found.append(f"{path.relative_to(src)}:{node.lineno} calls {called}")
                continue
            else:
                continue
            if "time" in modules or "Stopwatch" in names:
                found.append(f"{path.relative_to(src)}:{node.lineno} imports a clock")
            if path.name not in _ANALYTIC and any(
                m == "repro.openmp" or m.startswith("repro.openmp.") for m in modules
            ):
                found.append(f"{path.relative_to(src)}:{node.lineno} imports repro.openmp")
    assert found == []
