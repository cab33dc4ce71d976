"""Unit tests for the columnar result store (repro.runner.store)."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import pathlib
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.analysis import Theorem5Verdict
from repro.core.params import Theorem5Bounds
from repro.errors import StoreError
from repro.metrics.measures import AccuracyReport, RecoveryEvent, RecoveryReport
from repro.runner.campaign import Campaign, run_config
from repro.runner.records import RunPerf, RunRecord
from repro.runner.store import (
    ABSENT,
    STORE_FORMAT,
    Column,
    ResultStore,
    append_to_dir,
)


def config(seed: int, f: int = 1, name: str | None = None) -> dict:
    return {
        "name": name or f"store-{seed}",
        "params": {"n": 4, "f": f, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
        "duration": 2.0,
        "seed": seed,
    }


@pytest.fixture(scope="module")
def records() -> list[RunRecord]:
    return Campaign([config(s) for s in (1, 2, 3)]).run().records


@pytest.fixture(scope="module")
def error_record() -> RunRecord:
    return RunRecord(index=7, name="broken", config={"name": "broken"},
                     seed=9, duration=1.0, error="ValueError: boom")


# ----------------------------------------------------------------------
# Column
# ----------------------------------------------------------------------


def test_column_kinds_and_masks():
    col = Column("x", "f8")
    col.append(1.5)
    col.append(ABSENT)
    col.append(2.5)
    assert len(col) == 3
    assert col.get(0) == 1.5
    assert col.get(1) is None
    assert not col.present(1) and col.present(2)


def test_column_bool_reads_back_as_bool():
    col = Column("b", "bool")
    col.append(True)
    col.append(0)
    assert col.get(0) is True
    assert col.get(1) is False


def test_column_json_distinguishes_present_none_from_absent():
    col = Column("j", "json")
    col.append(None)    # present None
    col.append(ABSENT)  # hole
    assert col.present(0) and not col.present(1)


def test_column_unknown_kind_rejected():
    with pytest.raises(StoreError):
        Column("x", "f4")


def test_column_int_overflow_is_store_error():
    col = Column("i", "i8")
    with pytest.raises(StoreError):
        col.append(2 ** 80)


# ----------------------------------------------------------------------
# Building and round-tripping
# ----------------------------------------------------------------------


def test_round_trip_is_lossless(records):
    store = ResultStore.from_records(records)
    assert store.n_runs == len(records)
    assert store.to_records() == list(records)


def test_error_records_round_trip(records, error_record):
    mixed = list(records) + [error_record]
    store = ResultStore.from_records(mixed)
    back = store.to_records()
    assert back == mixed
    assert back[-1].verdict is None and back[-1].error == "ValueError: boom"


def test_config_params_become_columns(records):
    store = ResultStore.from_records(records)
    assert store.values("config.params.n") == [4, 4, 4]
    assert store.values("config.seed") == [1, 2, 3]
    assert store.values("config.name") == [r.name for r in records]


def test_measure_columns_are_float_exact(records):
    store = ResultStore.from_records(records)
    assert store.values("verdict.measured_deviation") == \
        [r.verdict.measured_deviation for r in records]
    assert store.values("verdict.bound.max_deviation") == \
        [r.verdict.bounds.max_deviation for r in records]


def test_derived_recovery_seconds_column(records):
    store = ResultStore.from_records(records)
    for row, record in enumerate(records):
        expected = (record.verdict.bounds.recovery_intervals
                    * record.verdict.bounds.t_interval)
        assert store.columns["verdict.bound.recovery_seconds"].get(row) \
            == expected


def test_non_json_config_rejected(records):
    bad = RunRecord(index=0, name="bad", config={"fn": object()},
                    seed=1, duration=1.0, error="x")
    with pytest.raises(StoreError):
        ResultStore.from_records([bad])


def test_non_record_rejected():
    with pytest.raises(StoreError):
        ResultStore.from_records([{"not": "a record"}])


def test_schema_evolution_appends_masked_holes(records, error_record):
    # Error record first: its rows lack config.params.*; appending real
    # records later must backfill the new columns with holes.
    store = ResultStore.from_records([error_record])
    store.append_records(records)
    assert store.columns["config.params.n"].get(0) is None
    assert store.columns["config.params.n"].get(1) == 4
    assert store.to_records() == [error_record] + list(records)


def test_values_unknown_column_names_near_misses(records):
    store = ResultStore.from_records(records)
    with pytest.raises(StoreError, match="measured_deviation"):
        store.values("measured_deviation")


# ----------------------------------------------------------------------
# Appends are all or nothing
# ----------------------------------------------------------------------


def assert_aligned(store: ResultStore) -> None:
    for name, column in store.columns.items():
        assert len(column) == store.n_runs, name
        assert len(column.values) == store.n_runs, name


def assert_append_refused(store, batch, match):
    before = store.to_records()
    names = list(store.columns)
    with pytest.raises(StoreError, match=match):
        store.append_records(batch)
    assert_aligned(store)
    assert list(store.columns) == names
    assert store.to_records() == before


def assert_next_append_round_trips(store, good):
    before = store.to_records()
    store.append_records([good])
    assert_aligned(store)
    assert store.to_records() == before + [good]


@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_record_at_position_leaves_store_unchanged(records, position):
    store = ResultStore.from_records(records[:2])
    batch = list(records)
    batch.insert(position, {"not": "a record"})
    assert_append_refused(store, batch, f"position {position}")
    assert_next_append_round_trips(store, records[2])


def test_lossy_config_leaves_store_unchanged(records):
    store = ResultStore.from_records(records[:2])
    lossy = dataclasses.replace(records[0], config={"t": (1, 2)})
    assert_append_refused(store, [records[2], lossy], "JSON")
    assert_next_append_round_trips(store, records[2])


def test_i8_overflow_leaves_store_unchanged(records):
    store = ResultStore.from_records(records[:2])
    huge = dataclasses.replace(records[0], seed=2 ** 70,
                               config={**records[0].config, "new": 1})
    assert_append_refused(store, [records[2], huge], "'seed'.*fit")
    assert not store.has_column("config.new")
    assert_next_append_round_trips(store, records[2])


def test_duplicate_dotted_config_path_is_refused(records):
    store = ResultStore.from_records(records[:2])
    clash = dataclasses.replace(records[0],
                                config={"a.b": 1, "a": {"b": 2}})
    assert_append_refused(store, [records[2], clash], r"'config\.a\.b'")
    assert not store.has_column("config.a.b")
    assert_next_append_round_trips(store, records[2])


# ----------------------------------------------------------------------
# Chunk bytes are pinned
# ----------------------------------------------------------------------


def golden_records() -> list[RunRecord]:
    """Fixed records touching every column kind, holes and all."""
    bounds = Theorem5Bounds(
        t_interval=2.5, k=10, c=0.125, max_deviation=0.0625,
        logical_drift=1.5e-3, discontinuity=0.03125, d_half_width=0.25,
        way_off_required=0.5, recovery_intervals=7)
    full = RunRecord(
        index=0, name="golden-0",
        config={"name": "golden-0", "seed": 11,
                "params": {"n": 7, "f": 2, "pi": 4.0, "strict": True},
                "plan": {"kind": "rotating", "nodes": [1, 2]},
                "note": None},
        seed=11, duration=12.5, warmup=2.5,
        verdict=Theorem5Verdict(
            bounds=bounds, measured_deviation=0.0312, measured_drift=2e-4,
            measured_discontinuity=float("inf"), deviation_ok=True,
            drift_ok=False, discontinuity_ok=True),
        accuracy=AccuracyReport(max_discontinuity=0.01, implied_drift=1e-4,
                                stretches=3),
        deviation_percentiles={50.0: 0.01, 99.0: 0.03},
        recovery=RecoveryReport(events=[
            RecoveryEvent(node=3, released_at=4.0, rejoined_at=5.25,
                          initial_distance=0.75)], tolerance=0.0625),
        envelope_occupancy=float("nan"), corruption_count=4,
        events_processed=12345, messages_delivered=6789,
        sync_executions=42,
        perf=RunPerf(events_processed=12345, events_pushed=13000,
                     events_cancelled=655, cancelled_ratio=0.05,
                     heap_high_water=99, pending_events=0),
        obs={"spans": 3, "tags": ["a", "b"]},
        scalar_fallback_reason="byzantine strategy")
    error = RunRecord(index=1, name="broken", config={"name": "broken"},
                      seed=-5, duration=1.0, error="ValueError: boom")
    later = dataclasses.replace(
        full, index=2, name="golden-2", seed=2 ** 62, verdict=None,
        perf=None, obs=None, scalar_fallback_reason=None,
        envelope_occupancy=0.5,
        config={**full.config, "extra": {"within_f": False, "x": -0.0}})
    return [full, error, later]


def chunk_digests(directory) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("chunk-*"))}


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="golden .bin bytes are little-endian")
def test_chunk_bytes_are_pinned(tmp_path):
    records = golden_records()
    ResultStore.from_records(records).save(tmp_path / "saved")
    append_to_dir(tmp_path / "chunked", records[:1])
    append_to_dir(tmp_path / "chunked", records[1:])
    assert chunk_digests(tmp_path / "saved") == GOLDEN_SAVED
    assert chunk_digests(tmp_path / "chunked") == GOLDEN_CHUNKED
    assert ResultStore.load(tmp_path / "chunked").to_records()[1:] \
        == records[1:]


GOLDEN_SAVED = {
    "chunk-000000.bin":
        "1c9d30ae9261f5f2c0e7599b5253022047fd78b35331fe875de233ea2cec5bf5",
    "chunk-000000.json":
        "02083ef6208f87b85edfbbebafd103465d44a29c72681e00d629025d71ba03cf",
}
GOLDEN_CHUNKED = {
    "chunk-000000.bin":
        "445503dad26006e1bf9f3e4340e2dfd99c2011374e29f9c3f92c2bfe3c71c58c",
    "chunk-000000.json":
        "23f9a018582f39ed05fe014fc83361e5024bcc9db8c333fe9ea0e4227904b377",
    "chunk-000001.bin":
        "998d4a956c108fd60c3810a70bba4026692f275daf45c41700cc76930414edfb",
    "chunk-000001.json":
        "d6af3fe83572fd9e2182b482b1f2290a5cd14160149b0cac1eec885f6a6c0175",
}


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, records):
    store = ResultStore.from_records(records, meta={"origin": "test"})
    store.save(tmp_path / "s")
    loaded = ResultStore.load(tmp_path / "s")
    assert loaded.to_records() == list(records)
    assert loaded.meta["origin"] == "test"


def test_append_to_dir_adds_chunks(tmp_path, records):
    target = tmp_path / "s"
    append_to_dir(target, records[:2])
    append_to_dir(target, records[2:], meta={"note": "second"})
    loaded = ResultStore.load(target)
    assert loaded.to_records() == list(records)
    assert loaded.meta["note"] == "second"
    manifest = json.loads((target / "manifest.json").read_text())
    assert len(manifest["chunks"]) == 2
    assert manifest["store_format"] == STORE_FORMAT


def test_load_missing_manifest_is_store_error(tmp_path):
    with pytest.raises(StoreError, match="manifest"):
        ResultStore.load(tmp_path)


def test_load_newer_format_refused(tmp_path, records):
    target = tmp_path / "s"
    ResultStore.from_records(records).save(target)
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["store_format"] = STORE_FORMAT + 1
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="format"):
        ResultStore.load(target)
    with pytest.raises(StoreError, match="format"):
        append_to_dir(target, records)


def _both_entry_points_refuse(target, records) -> None:
    chunks_before = sorted(p.name for p in target.iterdir())
    with pytest.raises(StoreError, match="manifest.json"):
        ResultStore.load(target)
    with pytest.raises(StoreError, match="manifest.json"):
        append_to_dir(target, records)
    assert sorted(p.name for p in target.iterdir()) == chunks_before


@pytest.mark.parametrize("keep", [0, 1, 0.25, 0.5, 0.9, -3])
def test_truncated_manifest_is_store_error(tmp_path, records, keep):
    target = tmp_path / "s"
    ResultStore.from_records(records).save(target)
    text = (target / "manifest.json").read_text()
    cut = int(len(text) * keep) if isinstance(keep, float) else keep % len(text)
    (target / "manifest.json").write_text(text[:cut])
    _both_entry_points_refuse(target, records)


@pytest.mark.parametrize("manifest", [
    [], ["chunk-000000"], "chunks", 1, None,
    {"store_format": 1, "chunks": [1]},
    {"store_format": 1, "chunks": ["chunk-000000"]},
    {"store_format": 1, "chunks": {"name": "chunk-000000"}},
    {"store_format": 1, "chunks": [], "meta": [1, 2]},
    {"store_format": "1", "chunks": []},
])
def test_malformed_manifest_is_store_error(tmp_path, records, manifest):
    target = tmp_path / "s"
    ResultStore.from_records(records).save(target)
    (target / "manifest.json").write_text(json.dumps(manifest))
    _both_entry_points_refuse(target, records)


def test_save_replaces_stale_chunks(tmp_path, records):
    target = tmp_path / "s"
    append_to_dir(target, records[:1])
    append_to_dir(target, records[1:2])
    ResultStore.from_records(records).save(target)
    loaded = ResultStore.load(target)
    assert loaded.n_runs == len(records)
    manifest = json.loads((target / "manifest.json").read_text())
    assert len(manifest["chunks"]) == 1


def test_nan_and_inf_survive_disk(tmp_path):
    record = run_config(config(5))
    # envelope_occupancy can be nan in general; fabricate one plus an
    # inf-bearing recovery row through the real dataclasses.
    import dataclasses
    from repro.metrics.measures import RecoveryEvent, RecoveryReport
    weird = dataclasses.replace(
        record,
        envelope_occupancy=float("nan"),
        recovery=RecoveryReport(events=[RecoveryEvent(
            node=1, released_at=0.5, rejoined_at=float("inf"),
            initial_distance=3.0)], tolerance=0.1),
    )
    store = ResultStore.from_records([weird])
    store.save(tmp_path / "s")
    back = ResultStore.load(tmp_path / "s").record(0)
    assert math.isnan(back.envelope_occupancy)
    assert back.recovery.events[0].rejoined_at == float("inf")
    assert not back.recovery.all_recovered


def test_unknown_chunk_format_is_store_error(tmp_path, records):
    target = tmp_path / "s"
    append_to_dir(target, records[:1])
    append_to_dir(target, records[1:])
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["chunks"][1]["format"] = "parquet"
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError,
                       match="'chunk-000001' has unknown format 'parquet'"):
        ResultStore.load(target)


_STORE_FILES = ("manifest.json", "chunk-000000.json", "chunk-000000.bin")


@functools.lru_cache(maxsize=1)
def _two_run_store_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        ResultStore.from_records(
            [run_config(config(seed)) for seed in (1, 2)]).save(tmp)
        return {name: (pathlib.Path(tmp) / name).read_bytes()
                for name in _STORE_FILES}


@settings(max_examples=200)
@given(name=st.sampled_from(_STORE_FILES), flip=st.booleans(),
       at=st.integers(min_value=0))
@example(name="chunk-000000.bin", flip=False, at=555)   # frombytes: ValueError
@example(name="chunk-000000.json", flip=True, at=135)   # UnicodeDecodeError
@example(name="chunk-000000.json", flip=True, at=216)   # KeyError 'columns'
@example(name="chunk-000000.json", flip=True, at=1674)  # bad offset: ValueError
@example(name="chunk-000000.json", flip=True, at=4806)  # config_json not JSON
def test_corrupt_store_loads_or_raises_store_error(name, flip, at):
    """Truncate a store file at byte ``at``, or flip its bit ``at``:
    the store loads and reassembles, or raises a StoreError naming the
    file (on load) or the row (on reassembly).  Flips inside float data
    stay undetectable: there is no checksum."""
    files = _two_run_store_files()
    data = bytearray(files[name])
    if flip:
        bit = at % (8 * len(data))
        data[bit // 8] ^= 1 << (bit % 8)
    else:
        del data[at % len(data):]
    with tempfile.TemporaryDirectory() as tmp:
        target = pathlib.Path(tmp)
        for other, original in files.items():
            (target / other).write_bytes(data if other == name else original)
        try:
            store = ResultStore.load(target)
        except StoreError as exc:
            assert ("manifest.json" if name == "manifest.json"
                    else name.split(".")[0]) in str(exc)
            return
        try:
            store.to_records()
        except StoreError as exc:
            assert "row" in str(exc)


# ----------------------------------------------------------------------
# Query API
# ----------------------------------------------------------------------


def test_where_ops(records, error_record):
    store = ResultStore.from_records(list(records) + [error_record])
    assert store.query().where("error", "isnull").count() == len(records)
    assert store.query().where("error", "notnull").count() == 1
    assert store.query().where("seed", "==", 2).count() == 1
    assert store.query().where("seed", "!=", 2).count() == 3
    assert store.query().where("seed", "in", [1, 3]).count() == 2
    assert store.query().where("seed", "not-in", [1, 3]).count() == 2
    assert store.query().where("seed", ">=", 2).count() == 3
    assert store.query().where("seed", "<", 2).count() == 1


def test_where_absent_cells_only_match_isnull(records, error_record):
    store = ResultStore.from_records(list(records) + [error_record])
    # The error record has no verdict: it must not match any comparison.
    assert store.query().where(
        "verdict.measured_deviation", ">=", 0.0).count() == len(records)
    assert store.query().where(
        "verdict.measured_deviation", "isnull").count() == 1


def test_where_type_mismatch_is_no_match(records):
    store = ResultStore.from_records(records)
    assert store.query().where("name", "<", 3).count() == 0


def test_where_unknown_op(records):
    store = ResultStore.from_records(records)
    with pytest.raises(StoreError, match="unknown query op"):
        store.query().where("seed", "~=", 1)


def test_select_aligns_absent_as_none(records, error_record):
    store = ResultStore.from_records(list(records) + [error_record])
    out = store.query().select("seed", "verdict.measured_deviation")
    assert len(out["seed"]) == store.n_runs
    assert out["verdict.measured_deviation"][-1] is None


def test_aggregate(records):
    store = ResultStore.from_records(records)
    agg = store.query().aggregate(
        n=("index", "count"),
        worst=("verdict.measured_deviation", "max"),
        best=("verdict.measured_deviation", "min"),
        mean=("verdict.measured_deviation", "mean"),
        all_ok=("ok", "all"),
    )
    devs = [r.verdict.measured_deviation for r in records]
    assert agg["n"] == len(records)
    assert agg["worst"] == max(devs)
    assert agg["best"] == min(devs)
    assert agg["mean"] == sum(devs) / len(devs)
    assert agg["all_ok"] == all(r.ok for r in records)


def test_aggregate_empty_selection(records):
    store = ResultStore.from_records(records)
    empty = store.query().where("seed", "==", 999)
    agg = empty.aggregate(n=("index", "count"),
                          worst=("verdict.measured_deviation", "max"))
    assert agg == {"n": 0, "worst": None}


def test_aggregate_unknown_fn(records):
    store = ResultStore.from_records(records)
    with pytest.raises(StoreError, match="unknown aggregate"):
        store.query().aggregate(x=("seed", "median"))


def test_group_by(records):
    store = ResultStore.from_records(records)
    rows = store.query().group_by("config.params.f").aggregate(
        runs=("index", "count"))
    assert rows == [{"config.params.f": 1, "runs": len(records)}]
    by_seed = store.query().group_by("seed").aggregate(n=("index", "count"))
    assert [row["seed"] for row in by_seed] == [1, 2, 3]


def test_group_by_requires_keys(records):
    store = ResultStore.from_records(records)
    with pytest.raises(StoreError):
        store.query().group_by()


def test_query_records_round_trip(records):
    store = ResultStore.from_records(records)
    subset = store.query().where("seed", ">=", 2).records()
    assert subset == [r for r in records if r.seed >= 2]


def test_query_is_immutable(records):
    store = ResultStore.from_records(records)
    base = store.query()
    base.where("seed", "==", 1)
    assert base.count() == len(records)


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------


def test_campaign_store_dir_writes_natively(tmp_path):
    target = tmp_path / "out"
    result = Campaign([config(1)], store_dir=target).run()
    loaded = ResultStore.load(target)
    assert loaded.to_records() == result.records
    assert loaded.meta["backend"] == "scalar"
    # A second campaign appends a chunk instead of clobbering.
    Campaign([config(2)], store_dir=target).run()
    assert ResultStore.load(target).n_runs == 2


def test_campaign_result_store_helper(records):
    result = Campaign([config(4)]).run()
    store = result.store(meta={"k": 1})
    assert store.to_records() == result.records
    assert store.meta == {"k": 1}
