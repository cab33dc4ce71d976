"""repro — reproduction of "Clock Synchronization with Faults and Recoveries".

Barak, Halevi, Herzberg, Naor (PODC 2000): a convergence-function clock
synchronization protocol tolerating a *mobile* Byzantine adversary —
unbounded total faults, at most ``f`` of ``n >= 3f+1`` processors
faulty within any window of length ``PI`` — with automatic recovery and
no fault detection.

Quickstart::

    from repro import mobile_byzantine_scenario, run

    result = run(mobile_byzantine_scenario(duration=20.0, seed=1))
    verdict = result.verdict(warmup=1.0)
    print("max deviation:", verdict.measured_deviation,
          "bound:", verdict.bounds.max_deviation, "ok:", verdict.all_ok)

Layout:

* :mod:`repro.core` — the Sync protocol, parameters/bounds, analysis.
* :mod:`repro.sim` — deterministic discrete-event simulator.
* :mod:`repro.clocks` — drift-bounded hardware clocks.
* :mod:`repro.net` — authenticated bounded-delay links, topologies.
* :mod:`repro.adversary` — mobile f-limited Byzantine adversary.
* :mod:`repro.protocols` — comparison baselines.
* :mod:`repro.metrics` — Definition 3 measurement pipeline.
* :mod:`repro.runner` — scenarios, runs, sweeps.
"""

from repro import _lazy

__all__ = [
    "__version__",
    # core
    "ProtocolParams",
    "Theorem5Bounds",
    "SyncProcess",
    "PaperConvergence",
    "theorem5_verdict",
    # runner
    "Scenario",
    "RunResult",
    "Campaign",
    "CampaignResult",
    "RunRecord",
    "run",
    "default_params",
    "benign_scenario",
    "mobile_byzantine_scenario",
    "recovery_scenario",
    "split_world_scenario",
    "two_clique_scenario",
    # results as data
    "ResultStore",
    "EvaluationSpec",
    "evaluate",
    # errors
    "ReproError",
    "ConfigurationError",
    "ParameterError",
    "TopologyError",
    "SimulationError",
    "ClockError",
    "AdversaryError",
    "MeasurementError",
    "StoreError",
    "EvaluationError",
    "CampaignError",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro._version": (
        "__version__",
    ),
    "repro.core": (
        "PaperConvergence", "ProtocolParams", "SyncProcess", "Theorem5Bounds",
        "theorem5_verdict",
    ),
    "repro.errors": (
        "AdversaryError", "CampaignError", "ClockError", "ConfigurationError",
        "EvaluationError", "MeasurementError", "ParameterError", "ReproError",
        "SimulationError", "StoreError", "TopologyError",
    ),
    "repro.runner": (
        "Campaign", "CampaignResult", "EvaluationSpec", "ResultStore",
        "RunRecord", "RunResult", "Scenario", "benign_scenario",
        "default_params", "evaluate", "mobile_byzantine_scenario",
        "recovery_scenario", "run", "split_world_scenario",
        "two_clique_scenario",
    ),
})
