#!/usr/bin/env python3
"""Static import-graph check for the package layering contract.

The simulation kernel must stay observable-from-outside, never
self-observing: ``repro.core``, ``repro.sim`` and ``repro.clocks`` are
the bottom layers and must not import the orchestration or telemetry
layers (``repro.runner``, ``repro.obs``).  A kernel module that reaches
up breaks process-pool pickling (workers would drag the whole runner in)
and reopens the self-monitoring loophole DESIGN.md section 7 forbids.

Two finer-grained contracts ride on the same import graph.  Within
``repro.runner`` the results pipeline is itself layered
(records/scenario < execution < store < evaluation < stats < campaign,
see ``RUNNER_RANKS``): a runner module may import only strictly lower
ranks, which keeps the store and evaluation layers importable without
dragging in the executor and structurally prevents cycles.  And nothing
inside the package may import ``repro.cli`` — the CLI consumes the
stack, never the other way around (``repro.__main__`` excepted).
The CLI itself parses arguments and prints reports: it may not import
``subprocess``, because spawning a live cluster's processes is
:func:`repro.rt.live.run_processes`' job.
Nor may any module import ``pickle``, ``shelve`` or ``marshal``: the
:class:`~repro.runner.store.ResultStore` is the only persistence, so
nothing a campaign reads back can execute code.
Nor may any module import ``scipy``: it is no declared dependency, and
the one thing the package used it for, the Student-t critical value of
:mod:`repro.runner.stats`, is computed there with the standard library.
And UDP has one mechanism, :class:`~repro.rt.transport.UdpEndpoint`
(a non-blocking socket drained per wakeup): no module may name asyncio's
``create_datagram_endpoint`` or ``DatagramProtocol``.
And deterministic time has one scheduler, the simulator's event queue
(:class:`~repro.sim.engine.Simulator` is also the rt path's virtual
loop): no ``repro.rt`` module may import ``heapq``.

The package facades (``repro``, ``repro.core``, ...) are lazy (PEP 562,
see :mod:`repro._lazy`): they import nothing until a name is read, so
a module's static imports are also all it loads, facades included.
``tests/test_tools_layering.py`` pins that: it imports every module of
every ``FORBIDDEN`` layer in a fresh interpreter and checks the import
closure, which this static check cannot see.

The check parses every module under ``src/repro`` with :mod:`ast` and
records its ``repro.*`` imports.  ``if TYPE_CHECKING:`` blocks are
skipped — annotation-only references are erased at runtime and carry no
layering weight.  Relative imports are resolved against the module's
package so ``from . import x`` is attributed correctly.

Run from the repository root:

    python tools/check_layering.py           # exit 0 iff clean

Wired into tier-1 via ``tests/test_tools_layering.py``.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = "repro"

# layer -> layers it must never import (at runtime).
#
# Since the runtime-seam refactor, protocol code programs against
# ``repro.runtime`` only: ``core`` and ``protocols`` may not import the
# concrete simulator (``repro.sim``) or network (``repro.net``) — those
# are substrates plugged in behind :class:`repro.runtime.api.NodeRuntime`.
# The seam itself (``runtime``) must stay substrate-free too, and the
# real-time substrate (``rt``) must never reach back into the simulator.
FORBIDDEN: dict[str, frozenset[str]] = {
    "core": frozenset({"obs", "runner", "sim", "net"}),
    "protocols": frozenset({"obs", "runner", "sim", "net"}),
    "runtime": frozenset({"obs", "runner", "sim", "net", "rt"}),
    "sim": frozenset({"obs", "runner", "rt"}),
    "clocks": frozenset({"obs", "runner"}),
    "rt": frozenset({"sim", "net", "runner"}),
}

# Within repro.runner, results flow strictly upward: the shared record
# vocabulary and scenario model sit at the bottom, execution above them,
# the columnar store above execution (it consumes records, never runs
# them), the declarative evaluation layer above the store, and the
# campaign executor — which produces records, writes stores, and drives
# adaptive bisection — on top.  A module may import only runner modules
# of *strictly lower* rank, so store/evaluation can never grow a cycle
# back into execution and the CLI stays the only consumer of the whole
# stack.  ``repro.runner.__init__`` (the facade) is exempt.
RUNNER_RANKS: dict[str, int] = {
    "records": 0,
    "scenario": 0,
    "experiment": 1,
    "builders": 1,
    "config": 2,
    "vector": 2,
    "store": 3,
    "evaluation": 4,
    "stats": 5,
    "campaign": 6,
}

# Records persist only through the columnar ResultStore: no module
# serializes objects that a later load would have to execute or trust.
SERIALIZERS = frozenset({"pickle", "shelve", "marshal"})

# Not a dependency of the package (pyproject declares none): the
# replication CIs compute their Student-t quantile in-house.
UNDECLARED = frozenset({"scipy"})

# Every UDP socket is a repro.rt.transport.UdpEndpoint: asyncio's
# one-datagram-per-loop-turn transport must not come back beside it.
UDP_FORBIDDEN_NAMES = frozenset({"create_datagram_endpoint",
                                 "DatagramProtocol"})

# The simulator is the one deterministic scheduler: a heap in the rt
# layer would be a second (time, seq) loop beside it.
RT_FORBIDDEN_MODULES = frozenset({"heapq"})

# The CLI is the top of the whole package: nothing imports it back
# (``repro.__main__`` is the entry point and the one exception).
CLI_MODULE = f"{PACKAGE}.cli"
CLI_IMPORTERS_ALLOWED = frozenset({f"{PACKAGE}.__main__", CLI_MODULE})

# The CLI parses and prints; a live cluster's child processes are
# spawned and reaped by repro.rt.live.run_processes.
CLI_FORBIDDEN_MODULES = frozenset({"subprocess"})


def module_name(path: pathlib.Path) -> str:
    """Dotted module name of a source file under ``src/``."""
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module: str) -> str | None:
    """Second dotted component of a repro module, e.g. ``core``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == PACKAGE:
        return parts[1]
    return None


def runner_rank(module: str) -> int | None:
    """Rank of a ``repro.runner`` submodule, ``None`` outside the map."""
    parts = module.split(".")
    if len(parts) >= 3 and parts[0] == PACKAGE and parts[1] == "runner":
        return RUNNER_RANKS.get(parts[2])
    return None


class ImportCollector(ast.NodeVisitor):
    """Collect runtime ``repro.*`` imports, skipping TYPE_CHECKING blocks."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.imports: list[tuple[int, str]] = []
        self.udp_names: list[tuple[int, str]] = []

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking(node.test):
            # Annotation-only imports: walk just the else branch.
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in UDP_FORBIDDEN_NAMES:
            self.udp_names.append((node.lineno, node.attr))
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append((node.lineno, alias.name))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # Resolve "from .x import y" against this module's package.
            base = self.module.split(".")
            # __init__ modules are their own package; others drop the leaf.
            pkg_depth = len(base) - (node.level - 1) - 1
            prefix = base[:max(pkg_depth, 0)]
            target = ".".join(prefix + ([node.module] if node.module else []))
        else:
            target = node.module or ""
        if target:
            self.imports.append((node.lineno, target))
        self.udp_names.extend((node.lineno, alias.name) for alias in node.names
                              if alias.name in UDP_FORBIDDEN_NAMES)


def violation(module: str, target: str) -> str | None:
    """Why ``module`` may not import ``target`` at runtime (``None``
    when it may)."""
    source_layer, target_layer = layer_of(module), layer_of(target)
    if target_layer in FORBIDDEN.get(source_layer or "", frozenset()):
        return (f"{module} ({source_layer} layer) imports {target} "
                f"({target_layer} layer)")
    if target.split(".")[0] in SERIALIZERS:
        return (f"{module} imports {target} (the ResultStore is the only "
                f"persistence)")
    if target.split(".")[0] in UNDECLARED:
        return f"{module} imports {target} (not a dependency of the package)"
    if layer_of(module) == "rt" and target.split(".")[0] in RT_FORBIDDEN_MODULES:
        return (f"{module} imports {target} (the simulator is the only "
                f"deterministic scheduler)")
    if (target == CLI_MODULE or target.startswith(CLI_MODULE + ".")) \
            and module not in CLI_IMPORTERS_ALLOWED:
        return f"{module} imports {CLI_MODULE} (the CLI is the top of the stack)"
    if module == CLI_MODULE and target.split(".")[0] in CLI_FORBIDDEN_MODULES:
        return (f"{module} imports {target} (the CLI parses and prints; "
                f"repro.rt.live spawns processes)")
    source_rank, target_rank = runner_rank(module), runner_rank(target)
    if (source_rank is not None and target_rank is not None
            and target_rank >= source_rank):
        return (f"{module} (runner rank {source_rank}) imports {target} "
                f"(rank {target_rank}); runner modules may only import "
                f"strictly lower ranks")
    return None


def check() -> list[str]:
    """Return one violation message per forbidden runtime import."""
    violations = []
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        module = module_name(path)
        collector = ImportCollector(module)
        collector.visit(ast.parse(path.read_text(), filename=str(path)))
        for lineno, target in collector.imports:
            reason = violation(module, target)
            if reason is not None:
                violations.append(
                    f"{path.relative_to(SRC.parent)}:{lineno}: {reason}")
        for lineno, name in collector.udp_names:
            violations.append(
                f"{path.relative_to(SRC.parent)}:{lineno}: {module} uses "
                f"asyncio {name} (UdpEndpoint is the only UDP mechanism)")
    return violations


def main() -> int:
    violations = check()
    if violations:
        print("LAYERING VIOLATIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    kernel = sum(1 for p in (SRC / PACKAGE).rglob("*.py")
                 if layer_of(module_name(p)) in FORBIDDEN)
    ranked = sum(1 for p in (SRC / PACKAGE).rglob("*.py")
                 if runner_rank(module_name(p)) is not None)
    print(f"layering clean: {kernel} kernel modules (no runtime imports "
          f"of obs/runner), {ranked} ranked runner modules (results flow "
          f"upward), nothing imports the CLI or {'/'.join(sorted(SERIALIZERS))}"
          f", no scipy, no asyncio datagram transport, no heap in repro.rt, "
          f"no subprocess in the CLI")
    return 0


if __name__ == "__main__":
    sys.exit(main())
