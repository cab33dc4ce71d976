"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mobile-byzantine" in out
    assert "sync" in out
    assert "minimal-correction" in out


def test_run_scenario_names_are_the_config_builders():
    """The parser's names (kept free of the simulator imports) are the
    builder-shorthand map the ``run`` verb looks them up in."""
    from repro.cli import SCENARIOS
    from repro.runner.config import SCENARIOS as BUILDERS

    assert sorted(SCENARIOS) == sorted(BUILDERS)


def test_bounds_command(capsys):
    assert main(["bounds", "--n", "7", "--f", "2", "--pi", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out
    assert "WayOff" in out


def test_run_benign(capsys):
    code = main(["run", "--scenario", "benign", "--duration", "3",
                 "--n", "4", "--f", "1", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Theorem 5 verdict" in out
    assert "VIOLATED" not in out


def test_run_mobile_byzantine_reports_recovery(capsys):
    code = main(["run", "--scenario", "mobile-byzantine", "--duration", "8",
                 "--n", "4", "--f", "1", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recoveries:" in out
    assert "all recovered: True" in out


def test_run_with_baseline_protocol(capsys):
    code = main(["run", "--scenario", "benign", "--duration", "3",
                 "--n", "4", "--f", "1", "--protocol", "round-based"])
    assert code == 0


def test_parser_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scenario", "nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_soak_command(capsys):
    code = main(["soak", "--segments", "2", "--segment-duration", "6",
                 "--n", "4", "--f", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 segments clean" in out
    assert "VIOLATION" not in out


def test_run_prints_events_per_second(capsys):
    assert main(["run", "--scenario", "benign", "--duration", "3",
                 "--n", "4", "--f", "1", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "events/s" in out


def test_run_trace_flag_and_trace_subcommand(tmp_path, capsys):
    stream = tmp_path / "run.jsonl"
    assert main(["run", "--scenario", "mobile-byzantine", "--duration", "8",
                 "--seed", "1", "--trace", str(stream)]) == 0
    out = capsys.readouterr().out
    assert "observability events" in out
    assert stream.exists()

    chrome = tmp_path / "trace.json"
    assert main(["trace", str(stream), "--top", "3",
                 "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "Event stream" in out
    assert "Per-node metrics" in out
    assert "envelope probes: 0 violations" in out
    assert chrome.exists()


def test_trace_of_identical_seed_runs_is_byte_identical(tmp_path):
    streams = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert main(["run", "--scenario", "mobile-byzantine", "--duration",
                     "6", "--seed", "9", "--trace", str(path)]) == 0
        streams.append(path.read_bytes())
    assert streams[0] == streams[1]


def test_trace_missing_events_errors(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 1
    assert "no events" in capsys.readouterr().out


def _sweep_file(tmp_path, n_configs=2):
    import json

    configs = [
        {"params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
         "scenario": "benign", "duration": 3.0, "seed": seed}
        for seed in range(1, n_configs + 1)
    ]
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(configs))
    return path


def test_sweep_command(tmp_path, capsys):
    code = main(["sweep", str(_sweep_file(tmp_path))])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 runs: 2 executed, 0 cached, 0 failed" in out
    assert "benign" in out


def test_sweep_cache_hit_and_resume(tmp_path, capsys):
    path = _sweep_file(tmp_path)
    cache = tmp_path / "cache"
    assert main(["sweep", str(path), "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["sweep", str(path), "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "0 executed, 2 cached" in out
    # One more config: resume executes only the missing run.
    path = _sweep_file(tmp_path, n_configs=3)
    assert main(["sweep", str(path), "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "1 executed, 2 cached" in out


def test_sweep_json_output(tmp_path, capsys):
    import json

    out_path = tmp_path / "records.json"
    code = main(["sweep", str(_sweep_file(tmp_path, n_configs=1)),
                 "--json", str(out_path)])
    assert code == 0
    assert "records written" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    records = payload["records"]
    assert len(records) == 1
    assert records[0]["error"] is None
    assert records[0]["verdict"] is not None
    assert records[0]["seed"] == 1
    summary = payload["summary"]
    assert summary["runs"] == 1
    assert summary["all_ok"] is True
    assert summary["scalar_fallbacks"] == 0
    assert summary["fallback_reasons"] == {}


def test_sweep_bad_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["sweep", str(missing)]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_run_stream_flag_matches_posthoc(capsys):
    """--stream produces the identical report without a recorded trace."""
    argv = ["run", "--scenario", "mobile-byzantine", "--duration", "8",
            "--n", "4", "--f", "1", "--seed", "3"]
    assert main(argv) == 0
    posthoc = capsys.readouterr().out
    assert main(argv + ["--stream"]) == 0
    streamed = capsys.readouterr().out
    # Wall-clock perf lines differ run to run; every measured line
    # (verdict, recovery, deviation) must be identical.
    strip = lambda out: [line for line in out.splitlines()
                         if "events/s" not in line and "wall" not in line]
    assert strip(streamed) == strip(posthoc)


def test_run_shorter_than_warmup_is_one_error_line(capsys):
    """A run that ends inside the 3T warmup has no measure; ``run``
    reports it like a sweep's error record, on one stderr line."""
    assert main(["run", "--duration", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("MeasurementError: no samples with a non-trivial "
                            "good set after warmup\n")


def test_run_missing_config_is_one_error_line(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigurationError: config file not found")
    assert err.count("\n") == 1


def test_sweep_stream_flag_caches_separately(tmp_path, capsys):
    """--stream records match the post-hoc sweep but use their own cache."""
    path = _sweep_file(tmp_path, n_configs=1)
    cache = tmp_path / "cache"
    assert main(["sweep", str(path), "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["sweep", str(path), "--cache-dir", str(cache),
                 "--stream"]) == 0
    out = capsys.readouterr().out
    # stream_measures is part of the cache identity: no stale hit.
    assert "1 executed, 0 cached" in out


def test_transport_table_has_one_header_per_counter():
    """`repro live` / `repro stats` print one column per pulled
    transport counter, under an explicit header."""
    from repro.cli import _TRANSPORT_HEADERS, _transport_cells
    from repro.obs.live import TRANSPORT_COUNTERS

    assert len(_TRANSPORT_HEADERS) == len(TRANSPORT_COUNTERS)
    assert _TRANSPORT_HEADERS[-1] == "send_drop"
    assert TRANSPORT_COUNTERS[-1][0] == "transport_send_dropped"
    assert _transport_cells({"transport_sent": 3, "transport_delivered": 2}) \
        == [3, 2, "-", "-", "-", "-"]


def test_live_telemetry_loopback_with_metrics_and_json(tmp_path, capsys):
    """The PR 7 surface through the CLI: telemetry plane, scrape port,
    live trace, JSON report — one short loopback run."""
    stream = tmp_path / "live.jsonl"
    report = tmp_path / "live.json"
    code = main(["live", "--transport", "loopback", "--nodes", "4",
                 "--duration", "1.2", "--seed", "1", "--telemetry",
                 "--metrics-port", "0", "--trace", str(stream),
                 "--json", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "metrics endpoint: http://127.0.0.1:" in out
    assert "probe violations: 0" in out
    assert "transport counters" in out

    import json

    document = json.loads(report.read_text())
    assert document["telemetry"] is True
    assert document["bounded"] is True
    assert document["probe_violations"] == 0
    assert document["metrics_port"] is not None
    assert document["transport_counters"]["_"]["transport_sent"] > 0

    # The live JSONL replays through `repro trace` like a sim stream.
    assert main(["trace", str(stream), "--top", "3"]) == 0
    trace_out = capsys.readouterr().out
    assert "Per-node metrics" in trace_out
    assert "envelope probes: 0 violations" in trace_out


def test_live_processes_timeout_kills_and_reaps_every_child(monkeypatch,
                                                          capsys):
    """A child that outlives its timeout must not leak the others: every
    child still running is killed and reaped, and the node is named."""
    import subprocess

    children = []

    class FakePopen:
        def __init__(self, command, **kwargs):
            self.node = int(command[command.index("--node-index") + 1])
            self.returncode = None
            self.killed = self.reaped = False
            children.append(self)

        def communicate(self, timeout=None):
            if self.node == 1:
                raise subprocess.TimeoutExpired("repro live", timeout)
            self.returncode = 0
            return "", None

        def poll(self):
            return self.returncode

        def kill(self):
            self.killed = True

        def wait(self, timeout=None):
            self.reaped = True
            self.returncode = -9
            return self.returncode

    monkeypatch.setattr(subprocess, "Popen", FakePopen)
    code = main(["live", "--processes", "--nodes", "4", "--duration", "0.1"])
    assert code == 1
    assert [child.node for child in children if child.killed] == [1, 2, 3]
    assert all(child.reaped for child in children if child.killed)
    assert not children[0].killed  # already exited and reaped
    assert "node 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--serve", "--telemetry"], "--serve, --telemetry"),
    (["--trace", "{tmp}/live.jsonl"], "--trace"),
    (["--serve"], "--serve"),
    (["--telemetry"], "--telemetry"),
    (["--metrics-port", "0"], "--metrics-port"),
    (["--transport", "loopback"], "--transport loopback"),
])
def test_live_processes_refuses_flags_it_does_not_forward(
        monkeypatch, tmp_path, capsys, flags, named):
    """`--processes` names a flag its children would not honour and
    exits 2 before spawning anything, rather than dropping it."""
    import subprocess

    def no_spawn(*args, **kwargs):
        raise AssertionError("no child may be spawned")

    monkeypatch.setattr(subprocess, "Popen", no_spawn)
    argv = ["live", "--processes", "--nodes", "4", "--duration", "0.1",
            *(flag.format(tmp=tmp_path) for flag in flags)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ConfigurationError: ")
    assert named in captured.err
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _fake_live_children(monkeypatch, failing=(), truncated=()):
    """Replace ``Popen`` with children that write a canned ``--trace``
    stream for ``--seed 0``.  Node ``i`` samples at tau ``0.05 + 0.02 i``,
    then every 0.1 s up to 0.5, reading ``tau + 0.001 i``: samplers out
    of phase, so a bucket of them spans ~0.08 s.  Its first of 3
    ``sync.complete`` corrections cancels its seeded initial ``adj``, so
    the rebuilt clocks differ by drift alone.  It delivers ``10 + i``
    datagrams; a node in ``failing`` exits 1, and a node in
    ``truncated`` is killed halfway through writing its trace."""
    import subprocess

    from repro.obs.bus import ObsEvent, events_to_jsonl
    from repro.rt.live import default_live_params, make_live_clocks

    initial = make_live_clocks(default_live_params(n=4), seed=0)
    commands = []

    class FakePopen:
        def __init__(self, command, **kwargs):
            commands.append(command)
            node = int(command[command.index("--node-index") + 1])
            self.returncode = (1 if node in failing
                               else -9 if node in truncated else 0)
            events = []
            for step in range(5):
                tau = 0.05 + 0.02 * node + 0.1 * step
                events.append(ObsEvent(len(events), tau, "live.deviation",
                                       node, {"clock": tau + 0.001 * node,
                                              "deviation": 0.0}))
            for round_no in range(3):
                correction = -initial[node].adj if round_no == 0 else 0.0
                events.append(ObsEvent(len(events), 0.1 * round_no,
                                       "sync.complete", node,
                                       {"round": round_no,
                                        "correction": correction}))
            events.append(ObsEvent(len(events), 0.5, "metrics.snapshot",
                                   None, {"snapshot": {"counters": {
                                       "transport_delivered": {
                                           str(node): 10.0 + node}}}}))
            text = events_to_jsonl(events)
            if node in truncated:
                text = text[:len(text) // 2]
            trace = command[command.index("--trace") + 1]
            with open(trace, "w") as handle:
                handle.write(text)

        def communicate(self, timeout=None):
            return None, None

        def poll(self):
            return self.returncode

    monkeypatch.setattr(subprocess, "Popen", FakePopen)
    return commands


def _table_row(out, label):
    """The cells of the first table row of ``out`` that starts with
    ``label`` (``"node 2"``), after the label."""
    for line in out.splitlines():
        if line.strip().startswith(label + " "):
            return line.strip()[len(label):].split()
    raise AssertionError(f"no {label!r} row in:\n{out}")


def test_live_processes_rebuilds_the_children_clocks(monkeypatch, capsys):
    """Each child is an ordinary `repro live` run tracing to its own
    file; the parent replays their `sync.complete` corrections onto the
    seeded clocks and reads all of them at each common tau, so the
    samplers' phase skew does not enter the spread.  It prints the
    in-process report: per-node deviations, then transport counters."""
    from repro.rt.live import default_live_params, make_live_clocks

    commands = _fake_live_children(monkeypatch)
    code = main(["live", "--processes", "--nodes", "4", "--duration", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert [command[command.index("--node-index") + 1]
            for command in commands] == ["0", "1", "2", "3"]
    assert len({command[command.index("--trace") + 1]
                for command in commands}) == 4
    per_node, transport = out.split("transport counters")
    for node in range(4):
        syncs, samples = _table_row(per_node, f"node {node}")[:2]
        assert (syncs, samples) == ("3", "5")
        assert _table_row(transport, f"node {node}") == [
            "-", str(10 + node), "-", "-", "-", "-"]
    # Corrected to adj == 0, clock i reads rate_i * tau: the spread
    # grows with tau and is largest at the last instant.
    readings = [clock.hardware.read(0.5) for clock in
                make_live_clocks(default_live_params(n=4), seed=0).values()]
    spread = max(readings) - min(readings)
    assert 0.0 < spread < 1e-4
    assert (f"cluster spread at 5 common instants: max {spread:.6f} "
            f"final {spread:.6f} bound 0.320653 OK") in out


def test_live_processes_fails_when_a_child_fails(monkeypatch, capsys):
    _fake_live_children(monkeypatch, failing=(2,))
    code = main(["live", "--processes", "--nodes", "4", "--duration", "0.5"])
    assert code == 1
    assert "common instants" in capsys.readouterr().out


def test_live_processes_json_is_the_in_process_document(monkeypatch,
                                                        tmp_path, capsys):
    """`--processes --json` writes the in-process `LiveReport` document:
    the same keys, the children's Sync counts and transport counters."""
    import json

    in_process = tmp_path / "loopback.json"
    assert main(["live", "--transport", "loopback", "--nodes", "4",
                 "--duration", "0.2", "--json", str(in_process)]) == 0
    _fake_live_children(monkeypatch)
    rebuilt = tmp_path / "processes.json"
    assert main(["live", "--processes", "--nodes", "4", "--duration", "0.5",
                 "--json", str(rebuilt)]) == 0
    assert f"JSON written to {rebuilt}" in capsys.readouterr().out
    document = json.loads(rebuilt.read_text())
    assert set(document) == set(json.loads(in_process.read_text()))
    assert document["rounds"] == {"0": 3, "1": 3, "2": 3, "3": 3}
    for node in range(4):
        assert document["transport_counters"][str(node)][
            "transport_delivered"] == 10 + node
    assert document["samples"] == 5
    assert document["bounded"] is True
    assert document["failed_nodes"] == []
    assert document["probe_violations"] == 0


def test_live_processes_short_run_reads_the_final_instant(monkeypatch,
                                                          capsys):
    """A run shorter than one `--sample-interval` is still judged, like
    the in-process run: every clock is read once, at the duration."""
    _fake_live_children(monkeypatch)
    code = main(["live", "--processes", "--nodes", "4", "--duration", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cluster spread at 1 common instant: " in out
    assert _table_row(out, "node 0")[:2] == ["3", "1"]


def test_live_processes_cut_trace_is_a_failed_node(monkeypatch, tmp_path,
                                                   capsys):
    """A child killed halfway through writing its trace names its node
    as failed; the parent still reports, with no traceback."""
    import json

    _fake_live_children(monkeypatch, truncated=(2,))
    report = tmp_path / "live.json"
    code = main(["live", "--processes", "--nodes", "4", "--duration", "0.5",
                 "--json", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(report.read_text())["failed_nodes"] == [2]
    assert captured.err == ("live: node 2 failed: its process exited "
                            "non-zero, was killed or left no readable "
                            "trace\n")


def test_live_child_hosts_only_its_node(tmp_path, capsys):
    """A `--node-index` run is the ordinary live run with one node
    hosted: its trace samples that node only, each event seq once."""
    import socket

    from repro.obs.bus import read_events_jsonl

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        base_port = probe.getsockname()[1]
    trace = tmp_path / "node0.jsonl"
    code = main(["live", "--node-index", "0", "--nodes", "4",
                 "--duration", "0.3", "--base-port", str(base_port),
                 "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "live events written to" in out
    events = read_events_jsonl(trace)
    assert [event.seq for event in events] == list(range(len(events)))
    deviations = [event for event in events if event.kind == "live.deviation"]
    assert deviations
    assert {event.node for event in deviations} == {0}


def test_live_child_over_loopback_is_one_error_line(capsys):
    """One hosted node on a loopback hub would Sync with no peer."""
    assert main(["live", "--node-index", "0", "--transport", "loopback",
                 "--duration", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigurationError: a loopback hub")
    assert err.count("\n") == 1


def test_query_health_unreachable_is_clean_failure(capsys):
    code = main(["query", "--health", "--port", "1", "--timeout", "0.05"])
    assert code == 1
    assert "admin query failed" in capsys.readouterr().err


def test_stats_unreachable_is_clean_failure(capsys):
    code = main(["stats", "--port", "1", "--timeout", "0.2"])
    assert code == 1
    assert "scrape" in capsys.readouterr().err
