"""The JSON record of one run: ``repro run --json`` writes the run's
:class:`~repro.runner.records.RunRecord`, the schema of ``repro sweep
--json`` and of the result store."""

from __future__ import annotations

import dataclasses
import json

from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
)
from repro.runner.campaign import execute_run, run_record
from repro.runner.experiment import run


def make_result():
    params = default_params(n=4, f=1)
    return run(mobile_byzantine_scenario(params, duration=6.0, seed=20))


def record_of(result, **kwargs):
    return run_record(0, result.scenario.to_config(), result, **kwargs)


def test_round_trips_through_json():
    result = make_result()
    decoded = json.loads(json.dumps(dataclasses.asdict(record_of(result))))
    assert decoded["config"]["params"]["n"] == 4
    assert decoded["verdict"]["deviation_ok"] is True
    assert decoded["messages_delivered"] > 0
    assert decoded["corruption_count"] == len(result.corruptions)
    assert decoded["sync_executions"] == len(result.syncs)


def test_write_result(tmp_path):
    """The warmup is three analysis intervals, as in a campaign."""
    from repro.cli import main

    path = tmp_path / "run.json"
    assert main(["run", "--scenario", "benign", "--duration", "2",
                 "--n", "4", "--f", "1", "--json", str(path)]) == 0
    decoded = json.loads(path.read_text())
    params = default_params(n=4, f=1)
    assert decoded["warmup"] == 3.0 * params.t_interval


def test_cli_json_flag(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "cli.json"
    code = main(["run", "--scenario", "benign", "--duration", "2",
                 "--n", "4", "--f", "1", "--json", str(out_path)])
    assert code == 0
    decoded = json.loads(out_path.read_text())
    assert decoded["name"] == "benign"
    assert decoded["error"] is None


def test_run_json_is_the_sweep_record(tmp_path, capsys):
    """One config, one record: ``run --config --json`` writes what
    ``sweep --json`` and :func:`execute_run` produce for it."""
    from repro.cli import main

    config = {"params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4,
                         "pi": 2.0},
              "scenario": "mobile-byzantine", "duration": 6.0, "seed": 3}
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    run_path, sweep_path = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(config_path),
                 "--json", str(run_path)]) == 0
    assert main(["sweep", str(config_path), "--json", str(sweep_path)]) == 0

    written = run_path.read_text()
    assert written == json.dumps(dataclasses.asdict(execute_run(0, config)),
                                 indent=2, sort_keys=True)
    (swept,) = json.loads(sweep_path.read_text())["records"]
    canonical = lambda payload: json.dumps(payload, indent=2, sort_keys=True)
    assert canonical(json.loads(written)) == canonical(swept)


def test_perf_counters_exported():
    result = run(benign_scenario(duration=3.0, seed=5))
    perf = dataclasses.asdict(record_of(result))["perf"]
    assert perf["events_processed"] == result.events_processed
    assert perf["events_pushed"] >= perf["events_processed"]
    assert 0.0 <= perf["cancelled_ratio"] <= 1.0
    assert perf["heap_high_water"] > 0
    # Wall-clock quantities stay out of the record: identical-seed runs
    # must serialize byte-identically.
    assert "run_wall_time" not in perf
    assert "events_per_second" not in perf


def test_obs_section_present_only_with_recorder():
    from repro.obs import FlightRecorder

    plain = run(benign_scenario(duration=3.0, seed=5))
    assert record_of(plain).obs is None

    recorder = FlightRecorder()
    observed = run(benign_scenario(duration=3.0, seed=5), recorder=recorder)
    obs = record_of(observed, recorder=recorder).obs
    assert obs["events"] == len(recorder.events)
    assert obs["spans"] == len(recorder.spans)
    assert obs["violations"] == []
    json.dumps(obs)
