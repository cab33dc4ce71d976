"""Property suite: the vector backend is float-exact vs the scalar one.

Random small scenarios inside the vector envelope — fuzzed n/f, delay
specs, clock populations, topologies, loss, offsets, and silent-fault
plans (crash and recovery, including nodes that stay crashed through
the horizon) — must produce *identical* results on both backends: the
same Figure-1 ``CorrectionDecision`` sequence (``syncs``), the
same final logical clocks (reading, accumulated adjustment, adjustment
history), the same samples or streamed Definition-3 measures, and the
same deterministic engine counters.  Equality is ``==`` on floats:
bit-exact, never approximate.

The suite runs with whatever columns backend the environment has; the
dedicated pure-python test forces :func:`repro.metrics.columns.set_numpy`
off so the fallback path is exercised even on numpy machines (CI runs
the whole file on both matrix legs).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.plans import PlanSpec, StrategySpec
from repro.metrics.columns import set_numpy
from repro.net.links import DelaySpec
from repro.net.topology import TopologySpec
from repro.runner.builders import default_params
from repro.runner.experiment import RunResult, run
from repro.runner.scenario import Scenario
from repro.runner.vector import run_vector, scalar_only_reason

SILENT = StrategySpec(name="silent")

PLAN_SPECS = [
    None,
    PlanSpec(kind="rotating", strategy=SILENT),
    PlanSpec(kind="round-robin", strategy=SILENT),
    PlanSpec(kind="single-burst", strategy=SILENT,
             options={"victims": [0], "start": 0.2, "dwell": 0.3}),
    PlanSpec(kind="random", strategy=SILENT),
]

DELAY_SPECS = [
    None,  # scenario default
    DelaySpec(model="fixed"),
    DelaySpec(model="uniform"),
    DelaySpec(model="asymmetric"),
    DelaySpec(model="jittered"),
]

CLOCKS = ["wander", "extremal", "perfect"]

TOPOLOGIES = [None, TopologySpec(kind="full-mesh"),
              TopologySpec(kind="ring")]


def assert_exact_parity(scalar: RunResult, vector: RunResult) -> None:
    """Float-exact equality of everything both backends produce."""
    assert scalar.syncs == vector.syncs
    assert scalar.corruptions == vector.corruptions

    assert list(scalar.samples.times) == list(vector.samples.times)
    assert (list(scalar.samples.clocks) == list(vector.samples.clocks))
    for node in scalar.samples.clocks:
        assert (list(scalar.samples.clocks[node])
                == list(vector.samples.clocks[node])), f"clock column {node}"
    if scalar.stream is None:
        assert vector.stream is None
    else:
        assert vector.stream is not None
        assert (scalar.stream.deviations.series()
                == vector.stream.deviations.series())

    assert set(scalar.clocks) == set(vector.clocks)
    horizon = scalar.scenario.duration
    for node, clock in scalar.clocks.items():
        other = vector.clocks[node]
        assert clock.adj == other.adj, f"node {node} adj"
        assert clock.adjustments == other.adjustments, f"node {node} history"
        assert clock.read(horizon) == other.read(horizon), f"node {node} read"

    assert scalar.events_processed == vector.events_processed
    assert scalar.messages_delivered == vector.messages_delivered
    for counter in ("events_processed", "events_pushed", "events_cancelled",
                    "cancelled_ratio", "heap_high_water", "pending_events"):
        assert (getattr(scalar.perf, counter)
                == getattr(vector.perf, counter)), f"perf.{counter}"


def fuzzed_scenario(f, extra_nodes, seed, plan_index, delay_index,
                    clock_index, topology_index, loss_milli, spread_micro,
                    stagger, intervals) -> Scenario:
    n = 3 * f + 1 + extra_nodes
    topology = TOPOLOGIES[topology_index]
    if topology is not None and topology.kind == "ring" and f > 1:
        # A ring gives each node 2 peers + itself = 3 estimates, enough
        # for the (f+1)-st order statistics only at f=1; larger f would
        # make *both* backends raise ParameterError before comparing.
        topology = None
    params = default_params(n=n, f=f, delta=0.002, rho=1e-3, pi=1.0,
                            target_k=8)
    return Scenario(
        params=params,
        duration=intervals * params.sync_interval,
        seed=seed,
        topology=topology,
        delay_model=DELAY_SPECS[delay_index],
        clock_factory=CLOCKS[clock_index],
        initial_offset_spread=spread_micro * 1e-6,
        plan_builder=PLAN_SPECS[plan_index],
        sample_interval=params.sync_interval / 3.0,
        loss_rate=loss_milli / 1000.0,
        stagger_phases=stagger,
        name="vector-parity",
    )


PARITY_STRATEGY = dict(
    f=st.integers(1, 2),
    extra_nodes=st.integers(0, 2),
    seed=st.integers(0, 10_000),
    plan_index=st.integers(0, len(PLAN_SPECS) - 1),
    delay_index=st.integers(0, len(DELAY_SPECS) - 1),
    clock_index=st.integers(0, len(CLOCKS) - 1),
    topology_index=st.integers(0, len(TOPOLOGIES) - 1),
    loss_milli=st.sampled_from([0, 50]),
    spread_micro=st.integers(0, 500),
    stagger=st.booleans(),
    intervals=st.sampled_from([3, 5]),
    stream=st.booleans(),
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**PARITY_STRATEGY)
def test_vector_matches_scalar_over_model_space(
        f, extra_nodes, seed, plan_index, delay_index, clock_index,
        topology_index, loss_milli, spread_micro, stagger, intervals,
        stream):
    scenario = fuzzed_scenario(f, extra_nodes, seed, plan_index,
                               delay_index, clock_index, topology_index,
                               loss_milli, spread_micro, stagger, intervals)
    assert scalar_only_reason(scenario) is None
    scalar = run(scenario, stream_measures=stream)
    vector = run_vector(scenario, stream_measures=stream)
    assert_exact_parity(scalar, vector)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**PARITY_STRATEGY)
def test_vector_matches_scalar_pure_python(
        f, extra_nodes, seed, plan_index, delay_index, clock_index,
        topology_index, loss_milli, spread_micro, stagger, intervals,
        stream):
    """Same property with the numpy fast path forced off."""
    set_numpy(False)
    try:
        scenario = fuzzed_scenario(f, extra_nodes, seed, plan_index,
                                   delay_index, clock_index, topology_index,
                                   loss_milli, spread_micro, stagger,
                                   intervals)
        scalar = run(scenario, stream_measures=stream)
        vector = run_vector(scenario, stream_measures=stream)
        assert_exact_parity(scalar, vector)
    finally:
        set_numpy(None)


def test_node_crashed_through_horizon():
    """A victim corrupted until past the horizon (no recovery) matches."""
    params = default_params(n=4, f=1, delta=0.002, rho=1e-3, pi=1.0,
                            target_k=8)
    scenario = Scenario(
        params=params,
        duration=5.0 * params.sync_interval,
        seed=11,
        plan_builder=PlanSpec(
            kind="single-burst", strategy=SILENT,
            options={"victims": [1],
                     "start": 1.5 * params.sync_interval,
                     "dwell": 100.0 * params.sync_interval}),
        initial_offset_spread=3e-4,
        name="crash-no-recovery",
    )
    scalar = run(scenario, stream_measures=True)
    vector = run_vector(scenario, stream_measures=True)
    assert scalar.corruptions, "plan produced no corruption interval"
    assert scalar.corruptions[-1].end >= scenario.duration
    assert_exact_parity(scalar, vector)


def test_recovering_node_rejoins_identically():
    """Rotating silent faults: every node crashes and recovers; the
    post-recovery re-sync must be float-exact on both backends."""
    params = default_params(n=5, f=1, delta=0.002, rho=1e-3, pi=1.0,
                            target_k=8)
    scenario = Scenario(
        params=params,
        duration=13.0 * params.sync_interval,  # fits two episodes: the
        # rotation separates episode starts by dwell + PI + margin
        seed=4,
        plan_builder=PlanSpec(
            kind="rotating", strategy=SILENT,
            options={"dwell": 2.0 * params.sync_interval,
                     "first_start": 0.5 * params.sync_interval}),
        initial_offset_spread=5e-4,
        name="recovery-parity",
    )
    scalar = run(scenario, stream_measures=True)
    vector = run_vector(scenario, stream_measures=True)
    assert len(scalar.corruptions) >= 2
    assert_exact_parity(scalar, vector)


def test_fine_grid_record_stream_and_vector_paths_agree():
    """A fine sampling grid (``max_wait / 5``: thousands of grid points,
    every clock breakpoint crossed between two of them) over several
    rotations.  The scalar sampler's record path, the scalar streaming
    path and both vector paths all read clocks through the shared
    segment mirror; all four must agree bit for bit."""
    params = default_params(n=5, f=1, delta=0.002, rho=1e-3, pi=1.0,
                            target_k=8)
    scenario = Scenario(
        params=params,
        duration=40.0 * params.sync_interval,
        seed=9,
        plan_builder=PlanSpec(
            kind="rotating", strategy=SILENT,
            options={"dwell": 2.0 * params.sync_interval,
                     "first_start": 0.5 * params.sync_interval}),
        initial_offset_spread=5e-4,
        sample_interval=params.max_wait / 5.0,
        name="fine-grid-parity",
    )
    recorded = run(scenario)
    streamed = run(scenario, stream_measures=True)
    vector_recorded = run_vector(scenario)
    vector_streamed = run_vector(scenario, stream_measures=True)
    assert len(recorded.samples) > 5000
    assert len(recorded.corruptions) >= 3
    assert_exact_parity(recorded, vector_recorded)
    assert_exact_parity(streamed, vector_streamed)
    warmup = 2.0 * params.sync_interval
    for result in (streamed, vector_streamed, vector_recorded):
        assert (result.deviation_series(warmup)
                == recorded.deviation_series(warmup))
        assert result.accuracy() == recorded.accuracy()
        assert result.recovery() == recorded.recovery()


def test_out_of_envelope_scenario_falls_back_to_scalar():
    """A non-silent strategy is outside the envelope: the vector entry
    point must hand back a result identical to the scalar engine's."""
    params = default_params(n=4, f=1, delta=0.002, rho=1e-3, pi=1.0,
                            target_k=8)
    scenario = Scenario(
        params=params,
        duration=4.0 * params.sync_interval,
        seed=2,
        plan_builder=PlanSpec(
            kind="rotating",
            strategy=StrategySpec(name="liar", kwargs={"offset": 0.5})),
        name="fallback-parity",
    )
    scalar = run(scenario, stream_measures=True)
    vector = run_vector(scenario, stream_measures=True)
    assert_exact_parity(scalar, vector)
    # And the runner-side reason check agrees this config is in-envelope
    # syntactically (the refusal happens at strategy resolution).
    assert scalar_only_reason(scenario) is None


def test_record_messages_is_scalar_only():
    params = default_params(n=4, f=1, delta=0.002, rho=1e-3, pi=1.0,
                            target_k=8)
    scenario = Scenario(params=params, duration=2.0 * params.sync_interval,
                        seed=1, record_messages=True, name="msgs")
    assert scalar_only_reason(scenario) is not None
    vector = run_vector(scenario)
    assert vector.messages  # the scalar fallback recorded traffic
