"""Tests for JSON scenario configuration."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.net.links import DelaySpec, JitteredDelay, UniformDelay
from repro.runner.config import (
    load_config,
    params_from_config,
    scenario_from_config,
)
from repro.runner.experiment import run


BASE = {
    "params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
    "scenario": "benign",
    "duration": 2.0,
    "seed": 3,
}


class TestParamsFromConfig:
    def test_derived_form(self):
        params = params_from_config(BASE["params"])
        assert params.n == 4 and params.f == 1
        params.validate()

    def test_target_k_honoured(self):
        spec = dict(BASE["params"], pi=8.0, target_k=20)
        params = params_from_config(spec)
        assert abs(params.k - 20) <= 1

    def test_explicit_form(self):
        derived = params_from_config(BASE["params"])
        spec = {
            "n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0,
            "sync_interval": derived.sync_interval,
            "max_wait": derived.max_wait,
            "way_off": derived.way_off,
        }
        params = params_from_config(spec)
        assert params.sync_interval == derived.sync_interval

    def test_missing_keys_named(self):
        with pytest.raises(ConfigurationError, match="delta"):
            params_from_config({"n": 4, "f": 1, "rho": 5e-4, "pi": 2.0})

    def test_explicit_form_unknown_key_named(self):
        derived = params_from_config(BASE["params"])
        spec = {
            "n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0,
            "sync_interval": derived.sync_interval,
            "max_wait": derived.max_wait,
            "way_off": derived.way_off,
            "sync_intervall": 1.0,  # typo must be named, not ignored
        }
        with pytest.raises(ConfigurationError, match="sync_intervall"):
            params_from_config(spec)

    def test_explicit_form_missing_companions_named(self):
        spec = dict(BASE["params"], sync_interval=0.1)
        with pytest.raises(ConfigurationError, match="max_wait"):
            params_from_config(spec)

    def test_derived_form_mixed_key_named(self):
        spec = dict(BASE["params"], max_wait=0.01)  # explicit key, no sync_interval
        with pytest.raises(ConfigurationError, match="max_wait"):
            params_from_config(spec)


class TestDelayFromConfig:
    def test_none_passthrough(self):
        # No ``delay`` section keeps the scenario's default model.
        assert scenario_from_config(BASE).delay_model is None

    def test_named_models(self):
        assert isinstance(DelaySpec.from_config({"model": "uniform"}).build(0.005),
                          UniformDelay)
        assert isinstance(DelaySpec.from_config({"model": "jittered"}).build(0.005),
                          JitteredDelay)

    def test_extra_kwargs_forwarded(self):
        model = DelaySpec.from_config({"model": "fixed", "value": 0.002}).build(0.005)
        assert model.value == 0.002

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="delay"):
            DelaySpec.from_config({"model": "teleport"}).build(0.005)


class TestScenarioFromConfig:
    def test_minimal_config(self):
        scenario = scenario_from_config(BASE)
        assert scenario.duration == 2.0
        assert scenario.seed == 3
        assert scenario.clock_factory == "wander"

    def test_clock_selection(self):
        scenario = scenario_from_config(dict(BASE, clocks="extremal"))
        assert scenario.clock_factory == "extremal"

    def test_loss_and_sampling_options(self):
        scenario = scenario_from_config(dict(BASE, loss_rate=0.05,
                                             sample_interval=0.1,
                                             stagger_phases=False))
        assert scenario.loss_rate == 0.05
        assert scenario.sample_interval == 0.1
        assert scenario.stagger_phases is False

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            scenario_from_config(dict(BASE, scenario="chaos"))

    def test_unknown_clock_rejected(self):
        with pytest.raises(ConfigurationError, match="clock"):
            scenario_from_config(dict(BASE, clocks="sundial"))

    def test_missing_params_rejected(self):
        with pytest.raises(ConfigurationError, match="params"):
            scenario_from_config({"scenario": "benign"})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            scenario_from_config(dict(BASE, durration=5.0))
        assert "durration" in str(excinfo.value)
        assert "duration" in str(excinfo.value)  # known keys are listed

    def test_scenario_shorthand_excludes_declarative_keys(self):
        plan = {"kind": "rotating", "strategy": {"name": "standard-mix"}}
        with pytest.raises(ConfigurationError, match="scenario"):
            scenario_from_config(dict(BASE, plan=plan))

    def test_declarative_config_without_shorthand(self):
        config = {
            "params": BASE["params"],
            "duration": 2.0,
            "seed": 3,
            "plan": {"kind": "rotating",
                     "strategy": {"name": "standard-mix"}},
        }
        scenario = scenario_from_config(config)
        assert scenario.plan_builder is not None
        assert scenario.is_declarative()

    def test_config_scenario_runs(self):
        config = dict(BASE, scenario="mobile-byzantine", duration=6.0)
        result = run(scenario_from_config(config))
        assert result.corruptions
        assert result.max_deviation(1.0) <= result.params.bounds().max_deviation


class TestLoadScenario:
    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(BASE))
        scenario = scenario_from_config(load_config(path))
        assert scenario.duration == 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            scenario_from_config(load_config(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            scenario_from_config(load_config(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="object"):
            scenario_from_config(load_config(path))

    def test_cli_integration(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.json"
        path.write_text(json.dumps(dict(BASE, duration=2.0)))
        code = main(["run", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 5 verdict" in out
        assert "n=4 f=1" in out
