"""Live-cluster wiring tests (deterministic on the simulator's virtual
time, plus one short real-asyncio smoke)."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.bus import EventBus
from repro.rt.live import (
    build_cluster,
    default_live_params,
    make_live_clocks,
    replay_samples,
    run_live,
)
from repro.sim.engine import Simulator


def virtual_run(duration=4.0, seed=3, n=4, f=1):
    params = default_live_params(n=n, f=f)
    loop = Simulator(seed=0)
    cluster = build_cluster(params, loop, seed=seed, transport="loopback")
    cluster.start(sample_interval=0.1)
    loop.run(until=duration)
    cluster.sample_once()
    return params, cluster


class TestVirtualCluster:
    def test_sync_converges_under_bound(self):
        params, cluster = virtual_run()
        bound = params.bounds().max_deviation
        assert all(spread <= bound for _, spread in cluster.spread)
        # Converged: the last spread is far tighter than the first.
        assert cluster.spread[-1][1] < 0.5 * cluster.spread[0][1]

    def test_every_node_reports_a_series(self):
        params, cluster = virtual_run()
        assert set(cluster.series) == set(range(params.n))
        lengths = {len(samples) for samples in cluster.series.values()}
        assert len(lengths) == 1  # same sampling grid for everyone

    def test_bus_receives_live_events(self):
        """Uninstrumented, the bus carries the sampler's two kinds only;
        with telemetry each completed Sync is one ``sync.complete``."""
        for telemetry in (False, True):
            bus = EventBus()
            kinds = []
            bus.subscribe(lambda event: kinds.append(event.kind))
            params = default_live_params()
            loop = Simulator(seed=0)
            cluster = build_cluster(params, loop, seed=1,
                                    transport="loopback", bus=bus,
                                    telemetry=telemetry)
            cluster.start(sample_interval=0.25)
            loop.run(until=2.0)
            if telemetry:
                assert {"live.deviation", "live.spread"} <= set(kinds)
                assert kinds.count("sync.complete") == sum(
                    process.rounds_completed
                    for process in cluster.processes.values()) > 0
            else:
                assert set(kinds) == {"live.deviation", "live.spread"}

    def test_deterministic_under_virtual_time(self):
        _, first = virtual_run(seed=9)
        _, second = virtual_run(seed=9)
        assert first.spread == second.spread
        assert first.series == second.series

    def test_time_service_fronts_live_clock(self):
        params, cluster = virtual_run()
        service = cluster.time_service(0)
        now = cluster.now()
        assert service.now() == pytest.approx(cluster.clocks[0].read(now),
                                              abs=1e-9)

    def test_hosted_subset_wires_only_those_nodes(self):
        """One process of a multi-process cluster hosts one node: its
        clock is that node's model, and every sample reads it alone."""
        params = default_live_params()
        loop = Simulator(seed=0)
        cluster = build_cluster(params, loop, seed=3, transport="udp",
                                hosted=(2,))
        assert set(cluster.processes) == set(cluster.clocks) == {2}
        assert set(cluster.transports) == {2}
        assert cluster.clocks[2].read(0.0) == \
            make_live_clocks(params, seed=3)[2].read(0.0)
        assert cluster.sample_once() == 0.0
        assert set(cluster.series) == {2}

    def test_stop_is_idempotent(self):
        _, cluster = virtual_run(duration=1.0)
        cluster.stop()
        cluster.stop()


class TestLiveClocks:
    def test_seed_determinism(self):
        params = default_live_params()
        a = make_live_clocks(params, seed=5)
        b = make_live_clocks(params, seed=5)
        assert all(a[n].read(1.0) == b[n].read(1.0) for n in a)

    def test_rates_within_drift_bound(self):
        params = default_live_params()
        for clock in make_live_clocks(params, seed=2).values():
            rate = clock.hardware.rate
            assert 1.0 / (1.0 + params.rho) <= rate <= 1.0 + params.rho

    def test_offsets_span_visible_disagreement(self):
        params = default_live_params()
        clocks = make_live_clocks(params, seed=0)
        readings = [clock.read(0.0) for clock in clocks.values()]
        assert max(readings) - min(readings) > 0.0


class TestReplaySpread:
    def test_rebuilt_clocks_match_the_simulated_ones_bit_for_bit(self):
        """On the simulator an event's time is the adjustment's tau, so
        the clocks rebuilt from ``sync.complete`` read exactly what the
        sampler read, and their deviations and spread are the
        cluster's."""
        params = default_live_params()
        loop = Simulator(seed=0)
        cluster = build_cluster(params, loop, seed=3, transport="loopback",
                                telemetry=True)
        cluster.start(sample_interval=0.1)
        loop.run(until=4.0)
        events = cluster.telemetry.events
        syncs = [event for event in events if event.kind == "sync.complete"]
        sampled: dict[float, dict[int, float]] = {}
        for event in events:
            if event.kind == "live.deviation":
                sampled.setdefault(event.time, {})[event.node] = \
                    event.data["clock"]
        assert len(cluster.spread) >= 39 and len(syncs) > params.n

        rebuilt, previous = make_live_clocks(params, seed=3), -1.0
        for step, (tau, spread) in enumerate(cluster.spread):
            window = [event for event in syncs
                      if previous < event.time <= tau]
            assert replay_samples(rebuilt, window, [tau]) == (
                {node: [samples[step]]
                 for node, samples in cluster.series.items()},
                [(tau, spread)])
            assert {node: clock.read(tau)
                    for node, clock in rebuilt.items()} == sampled[tau]
            previous = tau
        taus = [tau for tau, _ in cluster.spread]
        for node, clock in rebuilt.items():
            assert clock.adjustments == [
                entry for entry in cluster.clocks[node].adjustments
                if entry[0] <= taus[-1]]
        assert replay_samples(make_live_clocks(params, seed=3), events,
                              taus) == (cluster.series, cluster.spread)


class TestTelemetryWiring:
    def test_build_cluster_attaches_telemetry(self):
        params = default_live_params()
        loop = Simulator(seed=0)
        cluster = build_cluster(params, loop, seed=1, transport="loopback",
                                telemetry=True)
        assert cluster.telemetry is not None
        # Every process publishes into the telemetry bus.
        assert all(proc.obs is cluster.bus
                   for proc in cluster.processes.values())
        # Default stays uninstrumented: no bus on any process.
        bare = build_cluster(params, Simulator(seed=0), seed=1,
                             transport="loopback")
        assert bare.telemetry is None
        assert all(proc.obs is None for proc in bare.processes.values())

    def test_obsconfig_value_selects_subsystems(self):
        from repro.obs import ObsConfig

        params = default_live_params()
        cluster = build_cluster(params, Simulator(seed=0), seed=1,
                                transport="loopback",
                                telemetry=ObsConfig(spans=False,
                                                    probes=False))
        assert cluster.telemetry.tracer is None
        assert cluster.telemetry.probe is None
        assert cluster.telemetry.collector is not None

    def test_serve_metrics_scrape_round_trip(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            params = default_live_params(n=4, f=1)
            cluster = build_cluster(params, loop, seed=1,
                                    transport="loopback", telemetry=True)
            try:
                cluster.start(sample_interval=0.1)
                host, port = await cluster.serve_metrics()
                await asyncio.sleep(0.3)
                cluster.sample_once()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
            finally:
                cluster.stop()
            return raw.decode()

        body = asyncio.run(scenario())
        from repro.obs.expo import metric_families

        families = metric_families(body.partition("\r\n\r\n")[2])
        assert "repro_syncs_completed_total" in families
        assert "repro_transport_sent_total" in families
        assert "repro_cluster_spread" in families


def test_real_udp_smoke():
    """0.6 wall-clock seconds of genuine UDP Sync on localhost."""
    report = run_live(nodes=4, f=1, duration=0.6, transport="udp",
                      sample_interval=0.1, seed=1)
    assert report.bounded()
    assert all(rounds >= 1 for rounds in report.rounds.values())
    assert report.events_published > 0
    # Uninstrumented run: drop counters still reported off the
    # transports, but no telemetry plane exists.
    assert report.telemetry is False
    assert report.probe_violations is None
    assert report.metrics_snapshot is None
    for counters in report.transport_counters.values():
        assert counters["transport_malformed_dropped"] == 0
        assert counters["transport_misrouted_dropped"] == 0
        assert counters["transport_version_dropped"] == 0
        assert counters["transport_send_dropped"] == 0
        assert counters["transport_sent"] > 0


def test_telemetry_udp_run_with_metrics_port():
    """Full PR 7 surface in one short run: telemetry plane, scrape
    port, served queries — the report carries all of it."""
    report = run_live(nodes=4, f=1, duration=0.6, transport="udp",
                      sample_interval=0.1, seed=1, telemetry=True,
                      serve_base_port=0, metrics_port=0)
    assert report.telemetry is True
    assert report.probe_violations == 0
    assert report.metrics_port is not None
    snap = report.metrics_snapshot
    assert snap["counters"]["syncs_completed"]
    assert set(snap["counters"]["transport_sent"]) == {"0", "1", "2", "3"}
    assert set(snap["counters"]["queries_send_dropped"]) == {"0", "1", "2", "3"}
    assert set(report.query_ports) == set(range(4))
    assert report.queries_malformed == {node: 0 for node in range(4)}

    document = report.to_dict()
    import json

    parsed = json.loads(json.dumps(document))
    assert parsed["telemetry"] is True
    assert parsed["bounded"] is True
    assert parsed["probe_violations"] == 0
    assert parsed["metrics_port"] == report.metrics_port
    assert parsed["transport_counters"] == report.transport_counters
    assert "series" not in parsed  # per-node series summarized away


def test_mixed_wire_cluster_interops():
    """A legacy node sending JSON datagrams Syncs with binary peers.

    Decoding sniffs the leader byte, so the transports' inbound path
    accepts a peer that still sends the version-0 JSON form (here node
    0, whose sends are re-encoded as JSON): the cluster converges like
    a homogeneous one, with nothing dropped as malformed or skewed.
    """
    from repro.rt.codec import encode_datagram_json

    json_sends = []

    async def scenario():
        loop = asyncio.get_running_loop()
        params = default_live_params(n=4, f=1)
        cluster = build_cluster(params, loop, seed=1, transport="udp")
        legacy = cluster.transports[0]

        def send_json(sender, recipient, payload):
            json_sends.append(recipient)
            legacy._endpoint.sendto(encode_datagram_json(
                sender, recipient, payload, legacy._now()),
                legacy._peers[recipient])

        legacy.send = send_json
        try:
            addresses = {node: await udp.start()
                         for node, udp in cluster.transports.items()}
            for udp in cluster.transports.values():
                udp.set_peers(addresses)
            cluster.start(sample_interval=0.1)
            await asyncio.sleep(0.6)
            cluster.sample_once()
        finally:
            cluster.stop()
        drops = [(udp.malformed_dropped, udp.version_dropped,
                  udp.misrouted_dropped)
                 for udp in cluster.transports.values()]
        rounds = [proc.rounds_completed
                  for proc in cluster.processes.values()]
        return cluster, drops, rounds

    cluster, drops, rounds = asyncio.run(scenario())
    assert json_sends
    assert all(drop == (0, 0, 0) for drop in drops)
    assert all(count >= 1 for count in rounds)
    bound = cluster.params.bounds().max_deviation
    assert cluster.spread and all(s <= bound for _, s in cluster.spread)
