"""Property tests: RunRecords -> ResultStore -> records is lossless.

Hypothesis drives randomized records through the columnar store — in
memory and across the on-disk chunk format — asserting float-exact
measures and ``==``-equal config dicts on the way back.  A companion
suite asserts that store aggregates survive a disk round trip
unchanged, and that a 1000-run campaign summarized through the store
matches the legacy per-run ``runner.stats`` path bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import Theorem5Verdict
from repro.core.params import Theorem5Bounds
from repro.metrics.measures import AccuracyReport, RecoveryEvent, RecoveryReport
from repro.runner.campaign import Campaign
from repro.runner.records import RunPerf, RunRecord
from repro.runner.stats import (
    summarize_column,
    summarize_grouped,
    summarize_replications,
)
from repro.runner.store import ResultStore

# Finite-or-infinite floats: nan is excluded because dataclass equality
# (the round-trip oracle) is nan-blind; nan persistence has its own
# dedicated test in test_runner_store.py.
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
measure_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)
int64s = st.integers(min_value=-2**63, max_value=2**63 - 1)
small_ints = st.integers(min_value=0, max_value=2**40)

# JSON-round-trippable config values (the store's stated contract).
config_scalars = st.one_of(
    st.none(), st.booleans(), int64s, finite_floats,
    st.text(max_size=20),
)
config_values = st.recursive(
    config_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)
configs = st.dictionaries(st.text(max_size=8), config_values, max_size=4)

bounds_st = st.builds(
    Theorem5Bounds,
    t_interval=finite_floats, k=small_ints, c=finite_floats,
    max_deviation=finite_floats, logical_drift=finite_floats,
    discontinuity=finite_floats, d_half_width=finite_floats,
    way_off_required=finite_floats, recovery_intervals=small_ints,
)
verdict_st = st.builds(
    Theorem5Verdict,
    bounds=bounds_st, measured_deviation=finite_floats,
    measured_drift=finite_floats, measured_discontinuity=finite_floats,
    deviation_ok=st.booleans(), drift_ok=st.booleans(),
    discontinuity_ok=st.booleans(),
)
accuracy_st = st.builds(
    AccuracyReport, max_discontinuity=finite_floats,
    implied_drift=finite_floats, stretches=small_ints,
)
recovery_st = st.builds(
    RecoveryReport,
    events=st.lists(st.builds(
        RecoveryEvent, node=st.integers(min_value=0, max_value=100),
        released_at=finite_floats, rejoined_at=measure_floats,
        initial_distance=finite_floats), max_size=3),
    tolerance=finite_floats,
)
perf_st = st.builds(
    RunPerf, events_processed=small_ints, events_pushed=small_ints,
    events_cancelled=small_ints, cancelled_ratio=finite_floats,
    heap_high_water=small_ints, pending_events=small_ints,
)
percentiles_st = st.dictionaries(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    finite_floats, max_size=4,
)

records_st = st.lists(st.builds(
    RunRecord,
    index=st.integers(min_value=0, max_value=10**6),
    name=st.text(max_size=16),
    config=configs,
    seed=int64s,
    duration=finite_floats,
    warmup=finite_floats,
    verdict=st.none() | verdict_st,
    accuracy=st.none() | accuracy_st,
    deviation_percentiles=st.none() | percentiles_st,
    recovery=st.none() | recovery_st,
    envelope_occupancy=st.none() | finite_floats,
    corruption_count=small_ints,
    events_processed=small_ints,
    messages_delivered=small_ints,
    sync_executions=small_ints,
    perf=st.none() | perf_st,
    obs=st.none() | configs,
    scalar_fallback_reason=st.none() | st.text(max_size=16),
    error=st.none() | st.text(max_size=16),
), max_size=6)


@settings(max_examples=60, deadline=None)
@given(records=records_st)
def test_memory_round_trip_lossless(records):
    store = ResultStore.from_records(records)
    back = store.to_records()
    assert back == records
    for got, expected in zip(back, records):
        assert got.config == expected.config
        if expected.verdict is not None:
            # Float-exact, not approximately equal.
            assert got.verdict.measured_deviation \
                == expected.verdict.measured_deviation
            assert got.verdict.bounds == expected.verdict.bounds


@settings(max_examples=25, deadline=None)
@given(records=records_st)
def test_disk_round_trip_lossless(records, tmp_path_factory):
    store = ResultStore.from_records(records)
    target = tmp_path_factory.mktemp("store")
    store.save(target)
    assert ResultStore.load(target).to_records() == records


@settings(max_examples=25, deadline=None)
@given(records=records_st, split=st.integers(min_value=0, max_value=6))
def test_chunked_append_equals_bulk(records, split, tmp_path_factory):
    from repro.runner.store import append_to_dir

    split = min(split, len(records))
    target = tmp_path_factory.mktemp("chunks")
    append_to_dir(target, records[:split])
    append_to_dir(target, records[split:])
    assert ResultStore.load(target).to_records() == records


def _aggregate_everywhere(store: ResultStore) -> dict:
    """A deterministic battery of aggregates over a store."""
    query = store.query().where("error", "isnull")
    return {
        "agg": query.aggregate(
            n=("index", "count"),
            worst=("verdict.measured_deviation", "max"),
            mean=("verdict.measured_deviation", "mean"),
            total=("events_processed", "sum"),
        ),
        "grouped": store.query().group_by("name").aggregate(
            n=("index", "count"),
            mean=("duration", "mean")),
    }


@settings(max_examples=20, deadline=None)
@given(records=records_st)
def test_aggregates_identical_across_disk_round_trip(records,
                                                     tmp_path_factory):
    store = ResultStore.from_records(records)
    target = tmp_path_factory.mktemp("agg")
    store.save(target)
    assert _aggregate_everywhere(ResultStore.load(target)) \
        == _aggregate_everywhere(store)


# ----------------------------------------------------------------------
# Acceptance: 1000 runs summarized through the store, byte-identical
# to the legacy per-run stats path.
# ----------------------------------------------------------------------


def test_thousand_run_campaign_stats_byte_identical(tmp_path):
    """Build a 1000-run campaign (a few real runs fanned out with
    deterministic measure perturbations), write it through the on-disk
    ResultStore, and check the existing runner.stats summaries are
    byte-identical to summarizing the in-memory records directly."""
    base = Campaign([{
        "name": f"acc-{seed}",
        "params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
        "duration": 2.0,
        "seed": seed,
    } for seed in (1, 2, 3, 4)]).run().records

    records = []
    for index in range(1000):
        source = base[index % len(base)]
        # Deterministic, irregular perturbation; still a real float in
        # (0, 2x) of the measured value, different every run.
        wiggle = 1.0 + math.sin(index * 0.7311) * 0.5
        verdict = dataclasses.replace(
            source.verdict,
            measured_deviation=source.verdict.measured_deviation * wiggle)
        records.append(dataclasses.replace(
            source, index=index, verdict=verdict,
            config={**source.config, "seed": index}, seed=index))

    target = tmp_path / "thousand"
    ResultStore.from_records(records).save(target)
    store = ResultStore.load(target)
    assert store.n_runs == 1000

    # Legacy path: feed the records' values straight into runner.stats.
    legacy_values = [r.verdict.measured_deviation for r in records]
    legacy = summarize_replications(legacy_values)

    # Store path: same summary, computed from the loaded columns.
    via_store = summarize_column(
        store.query().where("error", "isnull"), "verdict.measured_deviation")
    assert via_store == legacy
    assert via_store.values == tuple(legacy_values)  # float-exact columns

    # Grouped variant agrees with hand-grouping the records.
    grouped = summarize_grouped(store, "name", "verdict.measured_deviation")
    for name in sorted({r.name for r in records}):
        hand = summarize_replications(
            [r.verdict.measured_deviation for r in records if r.name == name])
        assert grouped[name] == hand
