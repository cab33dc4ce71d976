"""Runner-side adapter for the vectorized batch engine.

:func:`run_vector` is the drop-in counterpart of
:func:`repro.runner.experiment.run` backed by
:mod:`repro.sim.vector`: it resolves a declarative
:class:`~repro.runner.scenario.Scenario` into a flat
:class:`~repro.sim.vector.VectorSpec`, executes the fast batch loop,
and re-assembles a byte-identical :class:`RunResult`.  Scenarios
outside the vector envelope (non-``"sync"`` protocols, message
recording, non-silent Byzantine strategies) silently **fall back to the
scalar engine** — the ``vector`` backend is always correct, merely not
always fast — so campaigns can select it wholesale without auditing
every config first.
"""

from __future__ import annotations

from repro.runner.experiment import RunResult, run
from repro.runner.scenario import Scenario
from repro.sim.vector import (
    VectorSpec,
    VectorUnsupported,
    simulate_run,
)

__all__ = ["vector_spec", "scalar_only_reason", "run_vector",
           "run_vector_report"]


def scalar_only_reason(scenario: Scenario) -> str | None:
    """Why this scenario cannot enter the vector engine, or ``None``.

    The cheap, pre-resolution checks; strategy and sampling-interval
    checks happen inside :func:`~repro.sim.vector.simulate_run` (they
    need resolved clocks/plans) and surface as
    :class:`~repro.sim.vector.VectorUnsupported` instead.
    """
    if not (isinstance(scenario.protocol, str) and scenario.protocol == "sync"):
        return f"protocol {scenario.protocol!r} is not the declarative 'sync'"
    if scenario.record_messages:
        return "per-message trace recording needs the scalar engine"
    return None


def vector_spec(scenario: Scenario, stream_measures: bool = False) -> VectorSpec:
    """Resolve a scenario's factories/specs into a flat engine spec.

    The scenario itself rides along as the opaque ``plan_context`` so
    registered plan builders (which take ``(scenario, clocks)``) keep
    their signature.
    """
    return VectorSpec(
        params=scenario.params,
        duration=scenario.duration,
        seed=scenario.seed,
        topology=scenario.resolved_topology(),
        delay_model=scenario.resolved_delay_model(),
        clock_factory=scenario.resolved_clock_factory(),
        initial_offsets=scenario.initial_offsets,
        initial_offset_spread=scenario.initial_offset_spread,
        plan_builder=scenario.plan_builder,
        plan_context=scenario,
        enforce_f_limit=scenario.enforce_f_limit,
        sample_interval=scenario.resolved_sample_interval(),
        loss_rate=scenario.loss_rate,
        stagger_phases=scenario.stagger_phases,
        stream_measures=stream_measures,
    )


def run_vector(scenario: Scenario, stream_measures: bool = False) -> RunResult:
    """Execute one scenario on the vector backend (scalar fallback).

    Byte-identical to :func:`repro.runner.experiment.run` for the same
    scenario: same clocks and adjustment histories, same Sync records, same
    samples or streamed measures, same deterministic engine counters.
    ``processes`` is empty (the batch engine has no per-node process
    objects) and no flight recorder can attach; campaigns that observe
    runs use the scalar engine.
    """
    return run_vector_report(scenario, stream_measures=stream_measures)[0]


def run_vector_report(scenario: Scenario,
                      stream_measures: bool = False
                      ) -> tuple[RunResult, str | None]:
    """Like :func:`run_vector`, also reporting why a fallback happened.

    Returns ``(result, reason)`` where ``reason`` is ``None`` when the
    batch engine actually ran, and a human-readable explanation when
    the run fell back to the scalar engine.  The result is the same
    either way (fallbacks are correct-by-contract); campaigns record
    the reason so fleets of runs can audit how much of the sweep really
    exercised the fast path.
    """
    output = None
    reason = scalar_only_reason(scenario)
    if reason is None:
        try:
            output = simulate_run(vector_spec(scenario, stream_measures))
        except VectorUnsupported as exc:
            reason = str(exc) or type(exc).__name__
            output = None
    if output is None:
        return run(scenario, stream_measures=stream_measures), reason
    return RunResult(
        scenario=scenario,
        params=scenario.params,
        samples=output.samples,
        corruptions=output.corruptions,
        syncs=output.syncs,
        clocks=output.clocks,
        processes={},
        events_processed=output.events_processed,
        messages_delivered=output.messages_delivered,
        perf=output.perf,
        obs=None,
        stream=output.stream,
    ), None
