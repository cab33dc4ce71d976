"""Self-test for the bench-gate verdict logic (tools/bench_gate.py).

Drives the pure ``evaluate(metrics, baseline)`` function with stubbed
metrics dicts — no benchmarking — so the gate's own failure modes are
covered: a clean message (not a formatting crash) when a gated figure
is missing, regression detection, SLO floors, and the skip path for
figures one side lacks.
"""

from __future__ import annotations

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def healthy_metrics() -> dict:
    return {
        "analysis": {
            "python": {"speedup": 20.0},
            "numpy": {"speedup": 60.0},
            "streaming": {"speedup": 10.0},
        },
        "end_to_end": {"normalized": 4.5},
        "service": {
            "normalized_qps": 1.2,
            "qps": 18_000.0,
            "p99_vs_delta": 0.3,
            "errors": 0,
        },
        "obs_live": {"full_ratio": 0.97},
        "mega_sim": {"speedup": 4.5, "record_parity": 1.0},
    }


class TestEvaluate:
    def test_healthy_run_passes(self):
        ok, lines = bench_gate.evaluate(healthy_metrics(), healthy_metrics())
        assert ok
        assert not any("FAIL" in line or "REGRESSION" in line
                       for line in lines)

    def test_missing_figure_fails_cleanly(self):
        # analysis.python.speedup absent used to crash the gate with a
        # TypeError from formatting None; it must fail with a message.
        metrics = healthy_metrics()
        del metrics["analysis"]["python"]
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("analysis.python.speedup" in line and "missing" in line
                   for line in lines)

    def test_regression_below_tolerance_fails(self):
        metrics = healthy_metrics()
        metrics["analysis"]["python"]["speedup"] = 20.0 * 0.7  # >20% drop
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_drop_within_tolerance_passes(self):
        metrics = healthy_metrics()
        metrics["analysis"]["python"]["speedup"] = 20.0 * 0.9  # <20% drop
        ok, _ = bench_gate.evaluate(metrics, healthy_metrics())
        assert ok

    def test_service_slo_floor_enforced(self):
        metrics = healthy_metrics()
        metrics["service"]["qps"] = 9_000.0
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("sustained QPS" in line and "FAILED" in line
                   for line in lines)

    def test_service_p99_ceiling_enforced(self):
        metrics = healthy_metrics()
        metrics["service"]["p99_vs_delta"] = 1.4
        ok, _ = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok

    def test_failed_queries_fail_the_gate(self):
        metrics = healthy_metrics()
        metrics["service"]["errors"] = 2
        ok, _ = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok

    def test_telemetry_overhead_floor_enforced(self):
        # Full live telemetry costing more than 10% QPS fails the gate.
        metrics = healthy_metrics()
        metrics["obs_live"]["full_ratio"] = 0.85
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("telemetry" in line and "FAILED" in line
                   for line in lines)

    def test_missing_telemetry_ratio_fails(self):
        metrics = healthy_metrics()
        del metrics["obs_live"]
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("obs_live.full_ratio" in line and "missing" in line
                   for line in lines)

    def test_numpy_leg_skipped_when_absent(self):
        # Pure-python environments have no numpy figure on either side;
        # the baseline comparison skips it instead of failing.
        metrics = healthy_metrics()
        del metrics["analysis"]["numpy"]
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert ok
        assert any("numpy" in line and "skipped" in line for line in lines)

    def test_stale_baseline_predating_sections_is_skipped(self):
        # A baseline JSON written before the obs_live / mega_sim
        # sections existed must not crash the gate (and must not fail
        # it on the baseline comparison): the new sections' GATED
        # figures are skipped while absolute limits still apply.
        stale = healthy_metrics()
        del stale["obs_live"]
        del stale["mega_sim"]
        ok, lines = bench_gate.evaluate(healthy_metrics(), stale)
        assert ok
        assert any("mega-sim" in line and "skipped" in line
                   for line in lines)

    def test_baseline_predating_streaming_speedup_is_skipped(self):
        # baseline_pr4.json files written before PR 12 have no
        # analysis.streaming.speedup: the comparison skips, the
        # absolute floor still judges the measured run.
        stale = healthy_metrics()
        del stale["analysis"]["streaming"]
        ok, lines = bench_gate.evaluate(healthy_metrics(), stale)
        assert ok
        assert any("streaming measures speedup" in line and "skipped" in line
                   for line in lines)
        slow = healthy_metrics()
        slow["analysis"]["streaming"]["speedup"] = 0.6  # the pre-PR-12 figure
        ok, lines = bench_gate.evaluate(slow, stale)
        assert not ok
        assert any("streaming measures speedup" in line and "FAILED" in line
                   for line in lines)

    def test_streaming_speedup_regression_fails(self):
        metrics = healthy_metrics()
        metrics["analysis"]["streaming"]["speedup"] = 10.0 * 0.7
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("streaming measures speedup" in line
                   and "REGRESSION" in line for line in lines)

    def test_missing_streaming_speedup_fails_its_floor(self):
        metrics = healthy_metrics()
        del metrics["analysis"]["streaming"]
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("analysis.streaming.speedup" in line and "missing" in line
                   for line in lines)

    def test_mega_speedup_floor_enforced(self):
        metrics = healthy_metrics()
        metrics["mega_sim"]["speedup"] = bench_gate.MEGA_SPEEDUP_FLOOR - 0.5
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("mega-sim" in line and "FAILED" in line
                   for line in lines)

    def test_mega_speedup_regression_fails(self):
        metrics = healthy_metrics()
        # Below the gate's own floor would trip LIMITS; pick a value
        # above the floor but >MEGA_TOLERANCE below the baseline.
        baseline = healthy_metrics()
        baseline["mega_sim"]["speedup"] = 8.0
        metrics["mega_sim"]["speedup"] = 8.0 * (
            1.0 - bench_gate.MEGA_TOLERANCE - 0.1)
        ok, lines = bench_gate.evaluate(metrics, baseline)
        assert not ok
        assert any("mega-sim" in line and "REGRESSION" in line
                   for line in lines)

    def test_record_parity_is_an_absolute_bar(self):
        metrics = healthy_metrics()
        metrics["mega_sim"]["record_parity"] = 0.0
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("parity" in line and "FAILED" in line for line in lines)

    def test_missing_mega_section_fails_limits(self):
        metrics = healthy_metrics()
        del metrics["mega_sim"]
        ok, lines = bench_gate.evaluate(metrics, healthy_metrics())
        assert not ok
        assert any("mega_sim.speedup" in line and "missing" in line
                   for line in lines)

    def test_lookup_resolves_and_misses(self):
        metrics = healthy_metrics()
        assert bench_gate.lookup(metrics, "service.qps") == 18_000.0
        assert bench_gate.lookup(metrics, "service.nope") is None
        assert bench_gate.lookup(metrics, "nope.deep.path") is None
