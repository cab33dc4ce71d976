"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf

Holds ``BENCHMARK.json`` equal to ``catalog.py``, checks the contract's
limits (names, counts, references), and makes one ``--smoke`` run of
every workload in both modes to see every named metric emitted.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_catalog():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == catalog.benchmark_json()


def test_contract_limits():
    document = catalog.benchmark_json()
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    names = ([w["name"] for w in document["workloads"]]
             + catalog.END_TO_END_NAMES + catalog.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert len(json.dumps(document)) < 64 * 1024


def test_layer_references_resolve():
    for metric in catalog.PER_LAYER:
        assert metric["home"], metric["name"]
        assert set(metric["home"]) <= set(catalog.WORKLOAD_NAMES)
        for end_to_end, workload in metric["moves"]:
            assert end_to_end in catalog.END_TO_END_NAMES, metric["name"]
            assert workload in catalog.WORKLOAD_NAMES, metric["name"]


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace), "--seed", "11"],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=str(ROOT))
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        if not trace:
            assert cell["value"] > 0, metric["name"]
        elif workload in metric["home"] and metric["name"] not in (
                # Legitimately 0 on a healthy run.
                "runner.campaign.fallback_share", "service.query.timeouts",
                "service.query.unmatched", "service.query.dropped",
                "core.convergence.own_discarded_share",
                "trace_overhead_share"):
            assert cell["value"] != 0, metric["name"]
