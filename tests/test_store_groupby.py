"""Group-by over the result store: linear cost, unchanged answers.

``GroupedQuery`` and ``runner.stats.summarize_grouped`` read each
column once, however many groups there are.  Their answers are held to
the per-group algorithm they replaced, kept here as a reference: one
full column read per group and output, and for ``summarize_grouped``
one ``== key`` scan per distinct key.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import Theorem5Verdict
from repro.core.params import Theorem5Bounds
from repro.runner.records import RunRecord
from repro.runner.stats import summarize_grouped, summarize_replications
from repro.runner.store import AGGREGATES, ResultStore

NAN = float("nan")


def count_reads(monkeypatch) -> list[str]:
    """Names passed to ``ResultStore.values`` from now on."""
    calls: list[str] = []
    original = ResultStore.values

    def spy(self, name):
        calls.append(name)
        return original(self, name)

    monkeypatch.setattr(ResultStore, "values", spy)
    return calls


@pytest.mark.parametrize("key, groups", [("config.params.f", 1),
                                         ("seed", 500)])
def test_group_by_reads_each_column_once(monkeypatch, key, groups):
    store = ResultStore.from_records([
        RunRecord(index=i, name=f"r{i}", config={"params": {"f": 1},
                                                 "seed": i},
                  seed=i, duration=float(i % 7)) for i in range(500)])
    calls = count_reads(monkeypatch)
    rows = store.query().group_by(key).aggregate(
        n=("index", "count"), mean=("duration", "mean"),
        high=("duration", "max"))
    assert len(rows) == groups
    assert sorted(calls) == sorted([key, "index", "duration"])
    calls.clear()
    assert len(summarize_grouped(store, key, "duration")) == groups
    assert sorted(calls) == sorted([key, "duration"])


# ----------------------------------------------------------------------
# Equivalence with the per-group algorithm
# ----------------------------------------------------------------------


def reference_cells(store: ResultStore, name: str) -> list:
    column = store.columns[name]
    return [column.get(i) for i in range(store.n_runs)]


def reference_aggregate(store, indices, keys, outputs) -> list[dict]:
    key_cells = {k: reference_cells(store, k) for k in keys}
    groups: dict[tuple, list[int]] = {}
    for row in indices:
        groups.setdefault(tuple(key_cells[k][row] for k in keys),
                          []).append(row)
    result = []
    for key, rows in groups.items():
        out = dict(zip(keys, key))
        for name, (column, fn) in outputs.items():
            cells = reference_cells(store, column)
            out[name] = AGGREGATES[fn]([cells[i] for i in rows
                                        if cells[i] is not None])
        result.append(out)
    result.sort(key=lambda row: json.dumps(
        [row[k] for k in keys], sort_keys=True, default=str))
    return result


def reference_summarize_grouped(store, indices, key, column) -> dict:
    keys = reference_cells(store, key)
    cells = reference_cells(store, column)
    present = [keys[i] for i in indices if keys[i] is not None]
    out = {}
    for group_key in sorted(set(present),
                            key=lambda k: (str(type(k)), str(k))):
        values = []
        for i in indices:
            if keys[i] is None:
                continue
            try:
                hit = keys[i] == group_key
            except TypeError:
                hit = False
            if hit and cells[i] is not None:
                values.append(cells[i])
        if values:
            out[group_key] = summarize_replications(values)
    return out


def outcome(compute):
    """``repr`` of the answer, or the exception type it raised (nan
    compares by its text, so equal answers give equal outcomes)."""
    try:
        return "ok", repr(compute())
    except TypeError as exc:
        return "raised", type(exc)


key_values = st.sampled_from([None, 0, 1, 1.0, True, False, "1", 2.5])
floats = st.sampled_from([0.5, 1.0, 2.0, -0.0, 0.0, NAN])
bounds = Theorem5Bounds(t_interval=1.0, k=5, c=0.1, max_deviation=0.2,
                        logical_drift=1e-3, discontinuity=0.1,
                        d_half_width=0.1, way_off_required=0.3,
                        recovery_intervals=4)


@st.composite
def records(draw) -> list[RunRecord]:
    out = []
    for index in range(draw(st.integers(1, 12))):
        config = {"k": draw(key_values)} if index == 0 or draw(
            st.booleans()) else {}
        verdict = None if draw(st.booleans()) else Theorem5Verdict(
            bounds=bounds, measured_deviation=draw(floats),
            measured_drift=0.0, measured_discontinuity=0.0,
            deviation_ok=draw(st.booleans()), drift_ok=True,
            discontinuity_ok=True)
        out.append(RunRecord(
            index=index, name=f"r{index}", config=config,
            seed=draw(st.integers(0, 3)), duration=draw(floats),
            verdict=verdict,
            envelope_occupancy=draw(st.none() | floats),
            obs=draw(st.none() | st.just({"a": 1})),
            error=draw(st.none() | st.just("boom"))))
    return out


columns = st.sampled_from([
    "config.k", "envelope_occupancy", "ok", "verdict.deviation_ok",
    "duration", "seed", "verdict.measured_deviation", "obs"])
numeric_columns = st.sampled_from([
    "duration", "envelope_occupancy", "seed", "ok",
    "verdict.measured_deviation"])
key_columns = st.sampled_from([
    "config.k", "envelope_occupancy", "ok", "verdict.deviation_ok",
    "duration", "seed"])


@settings(max_examples=150, deadline=None)
@given(batch=records(), keys=st.lists(key_columns, min_size=1, max_size=2,
                                      unique=True),
       outputs=st.dictionaries(st.sampled_from(["a", "b", "c"]),
                               st.tuples(columns,
                                         st.sampled_from(sorted(AGGREGATES))),
                               min_size=1),
       low_seed=st.integers(0, 3))
def test_group_aggregate_matches_per_group_algorithm(batch, keys, outputs,
                                                     low_seed):
    store = ResultStore.from_records(batch)
    query = store.query().where("seed", ">=", low_seed)
    assert outcome(lambda: query.group_by(*keys).aggregate(**outputs)) \
        == outcome(lambda: reference_aggregate(
            store, query.indices(), keys, outputs))


@settings(max_examples=150, deadline=None)
@given(batch=records(), key=key_columns, column=numeric_columns,
       low_seed=st.integers(0, 3))
def test_summarize_grouped_matches_per_key_scans(batch, key, column,
                                                 low_seed):
    store = ResultStore.from_records(batch)
    query = store.query().where("seed", ">=", low_seed)
    assert outcome(lambda: summarize_grouped(query, key, column)) \
        == outcome(lambda: reference_summarize_grouped(
            store, query.indices(), key, column))


def test_equal_keys_across_types_share_the_first_key():
    store = ResultStore.from_records([
        RunRecord(index=i, name="r", config={"k": k}, seed=i,
                  duration=float(i))
        for i, k in enumerate([True, 1, 1.0, None, "1"])])
    rows = store.query().group_by("config.k").aggregate(
        n=("index", "count"))
    assert [(type(row["config.k"]), row["n"]) for row in rows] \
        == [(str, 1), (type(None), 1), (bool, 3)]
    summary = summarize_grouped(store, "config.k", "duration")
    assert [(type(k), v.values) for k, v in summary.items()] \
        == [(bool, (0.0, 1.0, 2.0)), (str, (4.0,))]
