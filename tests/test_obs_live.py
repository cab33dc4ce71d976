"""Tests for the live telemetry plane (repro.obs.live): registry wiring
on the real-cluster path, the wall-clock Theorem 5 probe, and the
introspection documents behind every admin surface."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import ObsConfig
from repro.obs.live import (
    ClusterIntrospection,
    LiveTelemetry,
    merged_latency,
    spread_bounded,
)
from repro.rt.live import build_cluster, default_live_params
from repro.sim.engine import Simulator


def telemetry_run(duration=4.0, seed=3, n=4, f=1, config=None,
                  sample_interval=0.1):
    params = default_live_params(n=n, f=f)
    loop = Simulator(seed=0)
    cluster = build_cluster(params, loop, seed=seed, transport="loopback",
                            telemetry=True if config is None else config)
    cluster.start(sample_interval=sample_interval)
    loop.run(until=duration)
    cluster.sample_once()
    return params, cluster


class TestLiveTelemetry:
    def test_registry_populated_from_live_run(self):
        params, cluster = telemetry_run()
        snap = cluster.telemetry.metrics.snapshot()
        # Protocol counters per node, from the bus events.
        for node in map(str, range(params.n)):
            assert snap["counters"]["syncs_completed"][node] >= 1
            assert snap["counters"]["replies_sent"][node] >= 1
        # Transport counters pulled off the shared loopback hub
        # (one global series: the hub has no node_id).
        assert snap["counters"]["transport_sent"]["_"] > 0
        assert snap["counters"]["transport_delivered"]["_"] > 0
        # Correction-magnitude histograms ride sync.complete.
        assert snap["histograms"]["correction_abs"]["0"]["count"] >= 1
        # The sampler feeds the spread gauges.
        assert snap["gauges"]["cluster_spread"]["_"] >= 0.0
        assert (snap["gauges"]["cluster_spread_bound"]["_"]
                == params.bounds().max_deviation)

    def test_run_start_header_matches_recorder_schema(self):
        params, cluster = telemetry_run(duration=1.0)
        start = cluster.telemetry.events[0]
        assert start.kind == "run.start"
        bounds = params.bounds()
        assert start.data["n"] == params.n
        assert start.data["max_deviation_bound"] == bounds.max_deviation
        assert start.data["discontinuity_bound"] == bounds.discontinuity

    def test_stop_finalizes_with_snapshot_and_end(self):
        _, cluster = telemetry_run(duration=1.0)
        cluster.stop()
        kinds = [event.kind for event in cluster.telemetry.events]
        assert kinds[-1] == "run.end"
        assert kinds[-2] == "metrics.snapshot"
        # Idempotent: a second stop appends nothing.
        cluster.stop()
        assert [e.kind for e in cluster.telemetry.events] == kinds

    def test_clean_run_has_no_probe_violations(self):
        _, cluster = telemetry_run()
        assert cluster.telemetry.violations == []

    def test_injected_drift_violation_is_flagged(self):
        # Yank node 0's clock far outside every Theorem 5 envelope
        # mid-run: the wall-clock probe must flag it on the next sample.
        params, cluster = telemetry_run()
        tau = cluster.now()
        cluster.clocks[0].adjust(tau, 50.0 * params.bounds().max_deviation)
        cluster.sample_once()
        violations = cluster.telemetry.violations
        assert violations
        probes = {violation.probe for violation in violations}
        assert "deviation" in probes
        kinds = [event.kind for event in cluster.telemetry.events]
        assert "probe.violation" in kinds

    def test_events_jsonl_round_trips(self, tmp_path):
        _, cluster = telemetry_run(duration=1.0)
        cluster.stop()
        path = tmp_path / "live.jsonl"
        cluster.telemetry.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["kind"] == "run.start"
        assert json.loads(lines[-1])["kind"] == "run.end"

    def test_config_selects_subsystems(self):
        config = ObsConfig(spans=False, probes=False)
        _, cluster = telemetry_run(duration=1.0, config=config)
        telemetry = cluster.telemetry
        assert telemetry.tracer is None
        assert telemetry.probe is None
        assert telemetry.collector is not None
        assert telemetry.violations == []

    def test_obs_config_means_the_same_on_both_substrates(self):
        # monitors=True attaches a SyncHealthMonitor to every live
        # process, as it does on the simulator, and the span tree is
        # readable through the same accessor.
        params = default_live_params(n=4, f=1)
        loop = Simulator(seed=0)
        cluster = build_cluster(params, loop, seed=3, transport="loopback",
                                telemetry=ObsConfig(monitors=True))
        cluster.clocks[2].adj += 5.0
        cluster.start(0.1)
        loop.run(until=4.0)
        alerts = [event for event in cluster.telemetry.events
                  if event.kind == "monitor.alert"]
        assert any(event.node == 2 for event in alerts)
        assert cluster.telemetry.spans

    def test_metrics_property_safe_without_collector(self):
        config = ObsConfig(spans=False, metrics=False, probes=False)
        _, cluster = telemetry_run(duration=1.0, config=config)
        snap = cluster.telemetry.metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestIntrospection:
    def test_health_on_converged_cluster(self):
        params, cluster = telemetry_run()
        doc = cluster.introspection().health()
        assert doc["bounded"] is True
        assert doc["nodes"] == params.n
        assert doc["samples"] > 0
        assert doc["spread"] <= doc["bound"]
        assert doc["max_spread"] <= doc["bound"]
        assert doc["telemetry"] is True
        assert doc["violations"] == 0
        assert all(rounds >= 1 for rounds in doc["rounds"].values())
        # No queries served: latency percentiles are absent, not junk.
        assert doc["query_p50"] is None and doc["query_p99"] is None

    def test_health_without_telemetry(self):
        params = default_live_params()
        loop = Simulator(seed=0)
        cluster = build_cluster(params, loop, seed=3, transport="loopback")
        cluster.start(sample_interval=0.1)
        loop.run(until=2.0)
        cluster.sample_once()
        doc = cluster.introspection().health()
        assert doc["bounded"] is True
        assert doc["telemetry"] is False
        assert doc["violations"] is None

    def test_health_unbounded_after_injected_fault(self):
        params, cluster = telemetry_run()
        tau = cluster.now()
        cluster.clocks[0].adjust(tau, 50.0 * params.bounds().max_deviation)
        cluster.sample_once()
        assert cluster.introspection().health()["bounded"] is False

    def test_health_not_bounded_before_first_sample(self):
        # Zero samples means no evidence: health must not claim bounded.
        params = default_live_params()
        loop = Simulator(seed=0)
        cluster = build_cluster(params, loop, seed=3, transport="loopback",
                                telemetry=True)
        doc = cluster.introspection().health()
        assert doc["samples"] == 0
        assert doc["bounded"] is False

    def test_one_rule_decides_bounded(self):
        """`health()` and `LiveReport.bounded()` both are
        `spread_bounded`: >= 1 sample, every spread within the bound."""
        from repro.rt.live import LiveReport

        assert spread_bounded([], 1.0) is False
        assert spread_bounded([(0.0, 0.5), (0.1, 1.0)], 1.0) is True
        assert spread_bounded([(0.0, 0.5), (0.1, 1.5)], 1.0) is False
        params, cluster = telemetry_run(duration=1.0)
        report = LiveReport(params=params, transport="loopback",
                            duration=1.0, series={}, spread=cluster.spread,
                            rounds={},
                            bound=params.bounds().max_deviation,
                            events_published=0, service_readings={})
        assert report.bounded() is cluster.introspection().health()[
            "bounded"] is spread_bounded(cluster.spread, report.bound) is True

    def test_stats_document_shape(self):
        _, cluster = telemetry_run()
        doc = cluster.introspection().stats()
        assert set(doc) == {"health", "transport", "queries", "metrics"}
        assert doc["transport"]["_"]["transport_sent"] > 0
        assert doc["queries"] == {}  # no query servers on this cluster
        assert "syncs_completed" in doc["metrics"]["counters"]
        json.dumps(doc)  # the whole document must be JSON-able

    def test_loopback_hub_has_no_drop_counters(self):
        # Loopback can't drop datagrams; the families must be absent,
        # not zero-valued lies.
        _, cluster = telemetry_run()
        counters = cluster.introspection().transport_counters()
        assert set(counters) == {"_"}
        assert "transport_malformed_dropped" not in counters["_"]

    def test_udp_transports_expose_drop_counters(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            params = default_live_params(n=4, f=1)
            cluster = build_cluster(params, loop, seed=1, transport="udp",
                                    telemetry=True)
            try:
                addresses = {node: await udp.start()
                             for node, udp in cluster.transports.items()}
                for udp in cluster.transports.values():
                    udp.set_peers(addresses)
                cluster.start(sample_interval=0.1)
                await asyncio.sleep(0.4)
                cluster.sample_once()
                counters = cluster.introspection().transport_counters()
                snap = cluster.telemetry.metrics.snapshot()
            finally:
                cluster.stop()
            return params, counters, snap

        params, counters, snap = asyncio.run(scenario())
        assert set(counters) == set(map(str, range(params.n)))
        for node in counters.values():
            assert node["transport_malformed_dropped"] == 0
            assert node["transport_misrouted_dropped"] == 0
            assert node["transport_version_dropped"] == 0
            assert node["transport_send_dropped"] == 0
            assert node["transport_sent"] > 0
        # And the same families land per-node in the registry.
        assert set(snap["counters"]["transport_malformed_dropped"]) == set(
            map(str, range(params.n)))


class TestMergedLatency:
    def test_merges_per_node_histograms(self):
        snapshot = {"histograms": {"query_latency_seconds": {
            "0": {"count": 2, "sum": 0.3, "min": 0.1, "max": 0.2,
                  "bucket_bounds": [0.15, 0.25],
                  "bucket_counts": [1, 1, 0]},
            "1": {"count": 1, "sum": 0.05, "min": 0.05, "max": 0.05,
                  "bucket_bounds": [0.15, 0.25],
                  "bucket_counts": [1, 0, 0]},
        }}}
        merged = merged_latency(snapshot)
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(0.35)
        assert merged["min"] == 0.05 and merged["max"] == 0.2
        assert merged["bucket_counts"] == [2, 1, 0]

    def test_absent_or_empty_family_is_none(self):
        assert merged_latency({}) is None
        assert merged_latency({"histograms": {"query_latency_seconds": {
            "0": {"count": 0, "sum": 0.0, "min": None, "max": None},
        }}}) is None


class TestDeterminism:
    def test_telemetry_stream_reproducible(self):
        def run():
            _, cluster = telemetry_run(seed=7)
            cluster.stop()
            return cluster.telemetry.events_jsonl()

        assert run() == run()

    def test_telemetry_does_not_change_decisions(self):
        def decisions(telemetry: bool):
            params = default_live_params()
            loop = Simulator(seed=0)
            cluster = build_cluster(params, loop, seed=5,
                                    transport="loopback",
                                    telemetry=telemetry)
            cluster.start(sample_interval=0.1)
            loop.run(until=3.0)
            return {
                node: [(r.round_no, r.correction, r.m, r.big_m)
                       for r in proc.sync_records]
                for node, proc in cluster.processes.items()
            }

        assert decisions(False) == decisions(True)
