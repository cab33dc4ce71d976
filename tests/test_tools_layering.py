"""Tier-1 wiring for tools/check_layering.py.

The kernel layers (core, sim, clocks) must never import the
orchestration or telemetry layers (runner, obs) at runtime — Campaign
workers pickle kernel objects, and DESIGN.md section 7 forbids the
simulation from observing itself.  Running the checker as a test turns
an accidental upward import into a suite failure instead of a latent
pickling bug.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "check_layering.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_layering", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_layering_tool_passes():
    result = subprocess.run([sys.executable, str(TOOL)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "layering clean" in result.stdout


def test_collector_flags_runtime_upward_import():
    tool = _load_tool()
    source = (
        "from repro.obs import FlightRecorder\n"
        "import repro.runner.campaign\n"
    )
    collector = tool.ImportCollector("repro.core.sync")
    collector.visit(ast.parse(source))
    layers = {tool.layer_of(target) for _, target in collector.imports}
    assert layers == {"obs", "runner"}


def test_collector_skips_type_checking_blocks():
    tool = _load_tool()
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.runner.scenario import Scenario\n"
        "from repro.runtime.messages import Message\n"
    )
    collector = tool.ImportCollector("repro.sim.runtime")
    collector.visit(ast.parse(source))
    targets = [t for _, t in collector.imports]
    assert "repro.runner.scenario" not in targets
    assert "repro.runtime.messages" in targets


def test_collector_resolves_relative_imports():
    tool = _load_tool()
    collector = tool.ImportCollector("repro.core.sync")
    collector.visit(ast.parse("from .params import ProtocolParams\n"))
    assert [t for _, t in collector.imports] == ["repro.core.params"]


def test_serializer_import_is_a_finding():
    """The ResultStore is the only persistence: an ``import pickle``
    anywhere in the package is a violation."""
    tool = _load_tool()
    collector = tool.ImportCollector("repro.runner.campaign")
    collector.visit(ast.parse("import pickle\nfrom shelve import open\n"))
    findings = [tool.violation("repro.runner.campaign", target)
                for _, target in collector.imports]
    assert all(finding and "ResultStore" in finding for finding in findings)
    assert len(findings) == 2
    assert tool.violation("repro.runner.campaign", "json") is None


def test_scipy_import_is_a_finding():
    """scipy is no dependency: the import the replication CIs used to
    make is flagged in any module, however it is spelled."""
    tool = _load_tool()
    source = (
        "from scipy import stats as scipy_stats\n"
        "import scipy.special\n"
        "from statistics import NormalDist\n"
    )
    collector = tool.ImportCollector("repro.runner.stats")
    collector.visit(ast.parse(source))
    findings = [(lineno, tool.violation("repro.runner.stats", target))
                for lineno, target in collector.imports]
    assert [lineno for lineno, finding in findings if finding] == [1, 2]
    assert all("not a dependency" in finding
               for _, finding in findings if finding)


def test_kernel_layers_have_no_upward_imports():
    tool = _load_tool()
    assert tool.check() == []


def test_runtime_seam_rules_enforced():
    """The runtime-seam refactor's contract: protocol layers must not
    import the concrete substrates, and the substrates must not import
    each other."""
    tool = _load_tool()
    for layer in ("core", "protocols", "runtime"):
        assert {"sim", "net"} <= tool.FORBIDDEN[layer], (
            f"{layer} must forbid the concrete substrates")
    assert "sim" in tool.FORBIDDEN["rt"]
    assert "rt" in tool.FORBIDDEN["sim"]


def test_collector_flags_substrate_import_from_protocol_layer():
    tool = _load_tool()
    source = (
        "from repro.sim.engine import Simulator\n"
        "from repro.net.network import Network\n"
        "from repro.runtime.process import Process\n"
    )
    collector = tool.ImportCollector("repro.protocols.averaging")
    collector.visit(ast.parse(source))
    flagged = {tool.layer_of(target) for _, target in collector.imports
               if tool.layer_of(target) in tool.FORBIDDEN["protocols"]}
    assert flagged == {"sim", "net"}


def test_runner_ranks_place_store_and_evaluation_between_core_and_cli():
    """The results-as-data contract: store sits above execution, the
    evaluation layer above the store, and the campaign executor on top
    — so records/store/evaluation are importable without the executor."""
    tool = _load_tool()
    ranks = tool.RUNNER_RANKS
    assert ranks["records"] < ranks["store"]
    assert ranks["scenario"] < ranks["store"]
    assert ranks["experiment"] < ranks["store"]
    assert ranks["vector"] < ranks["store"]
    assert ranks["store"] < ranks["evaluation"]
    assert ranks["evaluation"] < ranks["campaign"]
    assert ranks["stats"] < ranks["campaign"]


def test_runner_rank_resolution():
    tool = _load_tool()
    assert tool.runner_rank("repro.runner.store") == tool.RUNNER_RANKS["store"]
    assert tool.runner_rank("repro.runner") is None          # facade is exempt
    assert tool.runner_rank("repro.core.sync") is None
    assert tool.runner_rank("repro.runner.store.sub") == tool.RUNNER_RANKS["store"]


def test_cli_is_import_terminal():
    """Only __main__ (and the CLI itself) may import repro.cli."""
    tool = _load_tool()
    assert tool.CLI_MODULE == "repro.cli"
    assert tool.CLI_IMPORTERS_ALLOWED == {"repro.__main__", "repro.cli"}


def test_subprocess_in_the_cli_is_a_finding():
    """The CLI parses and prints: the `--processes` parent's own
    ``import subprocess`` is flagged there, however it is spelled, and
    stays legal in ``repro.rt.live``, which spawns the children."""
    tool = _load_tool()
    source = (
        "import argparse\n"
        "import subprocess\n"
        "from subprocess import Popen\n"
    )
    collector = tool.ImportCollector("repro.cli")
    collector.visit(ast.parse(source))
    findings = [(lineno, tool.violation("repro.cli", target))
                for lineno, target in collector.imports]
    assert [lineno for lineno, finding in findings if finding] == [2, 3]
    assert all("repro.rt.live spawns processes" in finding
               for _, finding in findings if finding)
    assert tool.violation("repro.rt.live", "subprocess") is None


def test_asyncio_datagram_transport_is_a_finding():
    """UdpEndpoint is the only UDP mechanism: asyncio's datagram
    endpoint or protocol named anywhere in the package is flagged."""
    tool = _load_tool()
    source = (
        "import asyncio\n"
        "from asyncio import DatagramProtocol\n"
        "class P(asyncio.DatagramProtocol):\n"
        "    pass\n"
        "async def go(loop):\n"
        "    await loop.create_datagram_endpoint(P, local_addr=('', 0))\n"
    )
    collector = tool.ImportCollector("repro.rt.transport")
    collector.visit(ast.parse(source))
    assert collector.udp_names == [(2, "DatagramProtocol"),
                                   (3, "DatagramProtocol"),
                                   (6, "create_datagram_endpoint")]


def test_heap_in_rt_layer_is_a_finding():
    """The simulator is the one deterministic scheduler: the imports of
    the virtual-time loop module ``repro.rt`` used to carry (a second
    ``(time, seq)`` heap) are flagged, and stay legal in the kernel."""
    tool = _load_tool()
    source = (
        "from __future__ import annotations\n"
        "import heapq\n"
        "from typing import Callable\n"
        "from heapq import heappush\n"
    )
    collector = tool.ImportCollector("repro.rt.timeloop")
    collector.visit(ast.parse(source))
    findings = [(lineno, tool.violation("repro.rt.timeloop", target))
                for lineno, target in collector.imports]
    assert [lineno for lineno, finding in findings if finding] == [2, 4]
    assert all("only deterministic scheduler" in finding
               for _, finding in findings if finding)
    assert tool.violation("repro.sim.events", "heapq") is None


# -- the contract at runtime ------------------------------------------------

#: Layers (and the CLI) whose modules must import without numpy.
NUMPY_FREE = ("rt", "service", "runtime", "protocols", "clocks")

_PROBE = ("import importlib, json, sys; importlib.import_module(sys.argv[1]);"
          " print(json.dumps(sorted(sys.modules)))")


def _fresh_import(module: str) -> set[str]:
    """Every module loaded by ``import module`` in a new interpreter."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", _PROBE, module],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    return set(json.loads(result.stdout))


@pytest.fixture(scope="module")
def import_closures() -> dict[str, set[str]]:
    """Fresh-interpreter import closure of every constrained module, of
    every ``repro.service`` module and of ``repro.cli``."""
    tool = _load_tool()
    modules = sorted(
        tool.module_name(path)
        for path in (tool.SRC / tool.PACKAGE).rglob("*.py")
        if tool.layer_of(tool.module_name(path)) in {*tool.FORBIDDEN,
                                                     *NUMPY_FREE})
    with ThreadPoolExecutor(max_workers=4) as pool:
        closures = dict(zip(modules, pool.map(_fresh_import, modules)))
    closures["repro.cli"] = _fresh_import("repro.cli")
    return closures


def test_runtime_imports_respect_forbidden_layers(import_closures):
    """The static contract holds in a fresh interpreter too: importing
    a constrained module loads none of its forbidden layers, through
    package facades or otherwise."""
    tool = _load_tool()
    constrained = {module: loaded for module, loaded in import_closures.items()
                   if tool.layer_of(module) in tool.FORBIDDEN}
    assert len(constrained) >= 41
    leaks = {module: sorted(name for name in loaded
                            if tool.layer_of(name)
                            in tool.FORBIDDEN[tool.layer_of(module)])
             for module, loaded in constrained.items()}
    assert {module: names for module, names in leaks.items() if names} == {}


def test_deployment_layers_load_no_numpy(import_closures):
    """The live path (rt, service, the runtime seam, protocols, clocks)
    and the CLI's parser start without numpy."""
    tool = _load_tool()
    checked = {module for module in import_closures
               if module == "repro.cli"
               or tool.layer_of(module) in NUMPY_FREE}
    assert len(checked) >= 32
    assert sorted(module for module in checked
                  if "numpy" in import_closures[module]) == []


def test_evaluate_list_loads_no_numpy():
    """``repro evaluate --list`` names the registered specs without
    loading the result store, and so without numpy."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    probe = ("import sys; from repro.cli import main;"
             " code = main(['evaluate', '--list']);"
             " print(code, 'numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
    assert "theorem5-envelope: " in result.stdout
    assert lines[-1] == "0 False"
