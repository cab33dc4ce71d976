"""Experiment orchestration: scenarios, runs, campaigns, builders."""

from repro import _lazy

__all__ = [
    "Scenario",
    "wander_clocks",
    "extremal_clocks",
    "perfect_clocks",
    "run",
    "summarize",
    "RunResult",
    "Campaign",
    "CampaignResult",
    "RunRecord",
    "RunPerf",
    "execute_run",
    "default_params",
    "benign_scenario",
    "mobile_byzantine_scenario",
    "recovery_scenario",
    "split_world_scenario",
    "two_clique_scenario",
    "standard_strategy_mix",
    "warmup_for",
    "scenario_from_config",
    "run_config",
    "summarize_replications",
    "replicate_measure",
    "ReplicationSummary",
    "run_vector",
    "vector_spec",
    "scalar_only_reason",
    "ResultStore",
    "Query",
    "append_to_dir",
    "EvaluationSpec",
    "Check",
    "EvaluationReport",
    "evaluate",
    "evaluate_all",
    "register_spec",
    "get_spec",
    "registered_specs",
    "summarize_column",
    "summarize_grouped",
    "BisectResult",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.runner.builders": (
        "benign_scenario", "default_params", "mobile_byzantine_scenario",
        "recovery_scenario", "split_world_scenario", "standard_strategy_mix",
        "two_clique_scenario", "warmup_for",
    ),
    "repro.runner.campaign": (
        "BisectResult", "Campaign", "CampaignResult", "RunPerf", "RunRecord",
        "execute_run", "run_config",
    ),
    "repro.runner.config": (
        "scenario_from_config",
    ),
    "repro.runner.evaluation": (
        "Check", "EvaluationReport", "EvaluationSpec", "evaluate",
        "evaluate_all", "get_spec", "register_spec", "registered_specs",
    ),
    "repro.runner.stats": (
        "ReplicationSummary", "replicate_measure", "summarize_column",
        "summarize_grouped", "summarize_replications",
    ),
    "repro.runner.store": (
        "Query", "ResultStore", "append_to_dir",
    ),
    "repro.runner.experiment": (
        "RunResult", "run", "summarize",
    ),
    "repro.runner.scenario": (
        "Scenario", "extremal_clocks", "perfect_clocks", "wander_clocks",
    ),
    "repro.runner.vector": (
        "run_vector", "scalar_only_reason", "vector_spec",
    ),
})
