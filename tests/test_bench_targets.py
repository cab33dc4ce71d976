"""The repo benchmark's hooks into ``repro`` still resolve.

``benchmarks/perf`` reaches into the package from outside: workloads
import from ``repro`` and the traced run wraps named callables with
``tracer.patch("pkg.mod:Qual.name", ...)``.  A wrapper target that a
refactor renames is skipped there, and its layer metrics then read 0
with no error.  This test parses the benchmark sources (without running
them) and resolves every such import and target, so a rename fails here
instead.  The legacy benchmarks, the tools and the examples import
``repro`` from outside too; their imports are resolved the same way, so
a deletion that misses one of them fails here rather than only when the
script runs.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERF = ROOT / "benchmarks" / "perf"
SOURCES = sorted(PERF.glob("*.py"))
SCRIPTS = sorted(path for folder in ("benchmarks", "tools", "examples")
                 for path in (ROOT / folder).glob("*.py"))


def source_id(path: pathlib.Path) -> str:
    return path.name if path.parent == PERF else str(path.relative_to(ROOT))


def patch_targets(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, target)`` of every ``tracer.patch``/``patch_scheduler``
    call; an f-string target is expanded over the literal tuple of the
    ``for`` loop that binds its placeholder."""
    loops = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            try:
                loops[node.target.id] = ast.literal_eval(node.iter)
            except ValueError:
                pass
    targets = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("patch", "patch_scheduler")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant):
            targets.append((node.lineno, arg.value))
            continue
        assert isinstance(arg, ast.JoinedStr), \
            f"line {node.lineno}: target is neither a literal nor an f-string"
        (name,) = {part.value.id for part in arg.values
                   if isinstance(part, ast.FormattedValue)}
        for value in loops[name]:
            targets.append((node.lineno, "".join(
                str(value) if isinstance(part, ast.FormattedValue)
                else part.value for part in arg.values)))
    return targets


def resolve(target: str) -> None:
    """Look ``target`` up the way the benchmark's tracer does: the
    attribute must sit in its owner's own namespace."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{target}: no {attr!r} on {owner!r}"


def test_sources_found():
    assert any(path.name == "store_workload.py" for path in SOURCES)
    assert any(path.name == "bench_engine.py" for path in SCRIPTS)


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_tracer_patch_targets_resolve(source):
    for line, target in patch_targets(ast.parse(source.read_text())):
        try:
            resolve(target)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{source.name}:{line}: {target}: {exc}")


@pytest.mark.parametrize("source", SOURCES + SCRIPTS, ids=source_id)
def test_repro_imports_resolve(source):
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
