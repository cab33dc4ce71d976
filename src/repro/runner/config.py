"""JSON scenario configuration: declarative experiments.

Lets operators describe a run in a config file instead of Python::

    {
      "params": {"n": 7, "f": 2, "delta": 0.005, "rho": 5e-4, "pi": 4.0},
      "scenario": "mobile-byzantine",
      "protocol": "sync",
      "duration": 20.0,
      "seed": 1,
      "clocks": "wander",
      "delay": {"model": "uniform"},
      "loss_rate": 0.0
    }

consumed via ``python -m repro run --config experiment.json``,
``python -m repro sweep``, or :func:`scenario_from_config`.  Two forms
are accepted:

* the ``"scenario"`` shorthand above — a canonical builder name plus
  overrides; also the default (``"benign"``) when no builder, plan, or
  topology is named;
* the full declarative form produced by ``Scenario.to_config()`` —
  explicit ``plan`` / ``topology`` / ``name`` sections (see
  :meth:`repro.runner.scenario.Scenario.from_config`).

Unknown top-level keys are rejected (a typo like ``"loss_rte"`` must
not silently run a different experiment).  Only canonical scenarios,
registered protocols, plans, strategies, and the named clock / delay /
topology models are reachable from configs — arbitrary code stays in
Python, so configs are safe to accept from experiment directories.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.clocks.factories import CLOCK_MODELS
from repro.core.params import ProtocolParams
from repro.errors import ConfigurationError
from repro.net.links import DelaySpec
from repro.runner.builders import (
    benign_scenario,
    mobile_byzantine_scenario,
    recovery_scenario,
    split_world_scenario,
)
from repro.runner.scenario import Scenario

#: Builder-shorthand scenario names (``"scenario"`` key) -> builders.
SCENARIOS = {
    "benign": benign_scenario,
    "mobile-byzantine": mobile_byzantine_scenario,
    "recovery": recovery_scenario,
    "split-world": split_world_scenario,
}

#: Keys the builder-shorthand form understands; the declarative form
#: additionally understands ``plan`` / ``topology`` / ``name`` / etc.
#: (see ``Scenario.CONFIG_KEYS``).
CONFIG_KEYS = frozenset(Scenario.CONFIG_KEYS | {"scenario"})


def params_from_config(spec: dict[str, Any]) -> ProtocolParams:
    """Build :class:`ProtocolParams` from the ``params`` config section.

    Thin wrapper over :meth:`ProtocolParams.from_config`: either a full
    explicit parameterization (``sync_interval`` etc. present) or the
    common derived form (``n, f, delta, rho, pi`` and optional
    ``target_k``).  Unknown or mixed keys raise
    :class:`~repro.errors.ConfigurationError` naming the offenders.
    """
    return ProtocolParams.from_config(spec)


def scenario_from_config(config: dict[str, Any]) -> Scenario:
    """Build a complete :class:`Scenario` from a parsed config dict.

    Dispatch: a ``"scenario"`` key (or neither ``plan`` nor ``topology``
    nor ``name``) selects a canonical builder with overrides; otherwise
    the config is the full declarative form and goes through
    :meth:`Scenario.from_config`.

    Raises:
        ConfigurationError: Naming the offending key on any mistake,
            including unknown top-level keys.
    """
    unknown = config.keys() - CONFIG_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown config keys {sorted(unknown)}; known: {sorted(CONFIG_KEYS)}")

    declarative = {"plan", "topology", "name"} & config.keys()
    if "scenario" in config and declarative:
        raise ConfigurationError(
            f"'scenario' (builder shorthand) cannot be combined with the "
            f"declarative keys {sorted(declarative)}; use one form or the other")
    if "scenario" not in config and declarative:
        return Scenario.from_config(config)

    if "params" not in config:
        raise ConfigurationError("config requires a 'params' section")
    params = params_from_config(config["params"])

    scenario_name = config.get("scenario", "benign")
    if scenario_name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {scenario_name!r}; known: {sorted(SCENARIOS)}")

    clocks_name = config.get("clocks", "wander")
    if clocks_name not in CLOCK_MODELS:
        raise ConfigurationError(
            f"unknown clock model {clocks_name!r}; known: {sorted(CLOCK_MODELS)}")

    builder = SCENARIOS[scenario_name]
    scenario = builder(
        params,
        duration=float(config.get("duration", 20.0)),
        seed=int(config.get("seed", 0)),
        protocol=config.get("protocol", "sync"),
        clock_factory=clocks_name,
    )
    if "delay" in config:
        scenario.delay_model = DelaySpec.from_config(config["delay"])
    scenario.loss_rate = float(config.get("loss_rate", 0.0))
    if "sample_interval" in config:
        scenario.sample_interval = float(config["sample_interval"])
    if "initial_offset_spread" in config:
        scenario.initial_offset_spread = float(config["initial_offset_spread"])
    if "initial_offsets" in config:
        scenario.initial_offsets = [float(x) for x in config["initial_offsets"]]
    if "stagger_phases" in config:
        scenario.stagger_phases = bool(config["stagger_phases"])
    if "record_messages" in config:
        scenario.record_messages = bool(config["record_messages"])
    if "enforce_f_limit" in config:
        scenario.enforce_f_limit = bool(config["enforce_f_limit"])
    if "extra" in config:
        scenario.extra = dict(config["extra"])
    return scenario


def load_config(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a JSON config file (one scenario config object).

    Raises:
        ConfigurationError: On unreadable files or invalid JSON, with
            the path in the message.
    """
    path = pathlib.Path(path)
    try:
        config = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigurationError(f"config root must be an object: {path}")
    return config
