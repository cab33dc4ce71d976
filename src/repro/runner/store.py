"""Columnar campaign results: the :class:`ResultStore` and its query API.

PR 9's vector backend made 10^5-run campaigns cheap to *produce*; this
module makes them cheap to *keep and ask questions of*.  Instead of one
blob per run, a campaign's records live as struct-of-arrays columns
over all runs:

* every scalar config leaf is exploded into a ``config.<dotted.path>``
  column (query-only; the exact input dict is preserved separately),
* every measure — Theorem 5 verdict and bounds, Definition 3 accuracy
  and recovery, envelope occupancy, deterministic perf counters — is a
  typed column (``array('d')`` floats, ``array('q')`` ints, bools,
  strings, JSON blobs), each with a presence mask so error records and
  schema evolution never crash a reader.

The round trip is **lossless**: ``RunRecord`` → store → ``RunRecord``
reproduces float-exact measures and ``==``-equal config dicts, so the
store is also the campaign result cache (see
:mod:`repro.runner.campaign`): records remain the unit of execution,
the store the unit of storage, caching and analysis.

On-disk format (append-friendly):

    <dir>/manifest.json          store_format, meta, ordered chunk list
    <dir>/chunk-000000.json      per-chunk column directory
    <dir>/chunk-000000.bin       concatenated column/mask bytes

Numeric columns are raw ``array.tobytes()`` slices of the ``.bin`` file
(byte order recorded per chunk and swapped on foreign-endian load);
string/JSON columns live in the chunk JSON.  Appending runs writes one
new chunk plus a small manifest rewrite — no existing bytes are
touched.  This ``"core"`` layout is the only chunk format; a manifest
naming any other is refused with :class:`~repro.errors.StoreError`.

Querying (no pandas)::

    store = ResultStore.load("campaign-out")
    ok = store.query().where("error", "isnull")
    worst = ok.aggregate(worst=("verdict.measured_deviation", "max"))
    by_f = ok.group_by("config.params.f").aggregate(
        runs=("index", "count"),
        mean_dev=("verdict.measured_deviation", "mean"))
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from array import array
from collections.abc import Mapping
from typing import Any, Callable, Sequence

from repro._version import __version__
from repro.core.analysis import Theorem5Verdict
from repro.core.params import Theorem5Bounds
from repro.errors import StoreError
from repro.metrics.measures import AccuracyReport, RecoveryEvent, RecoveryReport
from repro.runner.records import RunPerf, RunRecord

__all__ = [
    "ResultStore",
    "Column",
    "Query",
    "GroupedQuery",
    "ABSENT",
    "STORE_FORMAT",
    "append_to_dir",
    "canonical_config",
    "AGGREGATES",
]

#: Bumped when the on-disk layout changes incompatibly.  Loaders refuse
#: *newer* formats with a clear error and accept every older one.
STORE_FORMAT = 1

#: Marker for "this run has no value in this column" (distinct from a
#: present ``None``, which JSON columns can hold).
ABSENT = object()

_KINDS = ("f8", "i8", "bool", "str", "json")
_TYPECODES = {"f8": "d", "i8": "q", "bool": "b"}
_CONVERT: dict[str, Callable[[Any], Any]] = {"f8": float, "i8": int,
                                             "bool": bool}


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------


class Column:
    """One typed column plus its presence mask.

    Kinds: ``f8`` (float, ``array('d')``), ``i8`` (int, ``array('q')``),
    ``bool`` (``array('b')``), ``str`` (list of str), ``json`` (list of
    JSON-serializable values).  Absent cells read as ``None``.
    """

    __slots__ = ("name", "kind", "values", "mask")

    def __init__(self, name: str, kind: str) -> None:
        if kind not in _KINDS:
            raise StoreError(f"unknown column kind {kind!r}; known: {_KINDS}")
        self.name = name
        self.kind = kind
        self.values: Any = (array(_TYPECODES[kind]) if kind in _TYPECODES
                            else [])
        self.mask = bytearray()

    def __len__(self) -> int:
        return len(self.mask)

    def _encode(self, cells: Sequence[Any]) -> tuple[Any, bytes]:
        """``cells`` (``ABSENT`` for a masked hole) as the ``(values,
        mask)`` pair that extends this column; the column is untouched.

        Raises:
            StoreError: If a cell does not fit the column type.
        """
        mask = bytes([cell is not ABSENT for cell in cells])
        typecode = _TYPECODES.get(self.kind)
        if typecode is None:
            if 0 in mask:
                return [None if cell is ABSENT else cell for cell in cells], mask
            return cells, mask
        if 0 in mask:
            cells = [0 if cell is ABSENT else cell for cell in cells]
        convert = _CONVERT[self.kind]
        try:
            return array(typecode, map(convert, cells)), mask
        except (TypeError, ValueError, OverflowError):
            for cell in cells:
                try:
                    array(typecode, [convert(cell)])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise StoreError(
                        f"column {self.name!r}: value {cell!r} does not fit "
                        f"the {self.kind} column type") from exc
            raise

    def _put(self, values: Any, mask: bytes) -> None:
        self.values.extend(values)
        self.mask += mask

    def extend(self, cells: Sequence[Any]) -> None:
        """Append ``cells`` (``ABSENT`` for a masked hole), all or none."""
        self._put(*self._encode(cells))

    def append(self, value: Any) -> None:
        """Append one cell (``ABSENT`` for a masked hole)."""
        self.extend([value])

    def pad_to(self, n: int) -> None:
        """Backfill masked holes so the column reaches ``n`` rows."""
        self.extend([ABSENT] * (n - len(self)))

    def present(self, i: int) -> bool:
        """Whether row ``i`` holds a value (vs an ABSENT hole)."""
        return bool(self.mask[i])

    def get(self, i: int) -> Any:
        """Cell value at row ``i`` (``None`` when absent)."""
        if not self.mask[i]:
            return None
        value = self.values[i]
        if self.kind == "bool":
            return bool(value)
        return value


# ----------------------------------------------------------------------
# RunRecord <-> columns schema
# ----------------------------------------------------------------------

_BOUNDS_FIELDS = (
    ("t_interval", "f8"), ("k", "i8"), ("c", "f8"), ("max_deviation", "f8"),
    ("logical_drift", "f8"), ("discontinuity", "f8"), ("d_half_width", "f8"),
    ("way_off_required", "f8"), ("recovery_intervals", "i8"),
)

_PERF_FIELDS = (
    ("events_processed", "i8"), ("events_pushed", "i8"),
    ("events_cancelled", "i8"), ("cancelled_ratio", "f8"),
    ("heap_high_water", "i8"), ("pending_events", "i8"),
)


def _maybe(obj: Any, attr: str) -> Any:
    return ABSENT if obj is None else getattr(obj, attr)


def _fixed_schema() -> list[tuple[str, str, Callable[[RunRecord], Any]]]:
    """``(column, kind, extractor)`` triples for the fixed record schema."""
    schema: list[tuple[str, str, Callable[[RunRecord], Any]]] = [
        ("index", "i8", lambda r: r.index),
        ("name", "str", lambda r: r.name),
        ("seed", "i8", lambda r: r.seed),
        ("duration", "f8", lambda r: r.duration),
        ("warmup", "f8", lambda r: r.warmup),
        ("error", "str", lambda r: ABSENT if r.error is None else r.error),
        ("scalar_fallback_reason", "str",
         lambda r: ABSENT if r.scalar_fallback_reason is None
         else r.scalar_fallback_reason),
        ("ok", "bool", lambda r: r.ok),
        ("config_json", "str", lambda r: canonical_config(r.config)),
        ("verdict.measured_deviation", "f8",
         lambda r: _maybe(r.verdict, "measured_deviation")),
        ("verdict.measured_drift", "f8",
         lambda r: _maybe(r.verdict, "measured_drift")),
        ("verdict.measured_discontinuity", "f8",
         lambda r: _maybe(r.verdict, "measured_discontinuity")),
        ("verdict.deviation_ok", "bool",
         lambda r: _maybe(r.verdict, "deviation_ok")),
        ("verdict.drift_ok", "bool", lambda r: _maybe(r.verdict, "drift_ok")),
        ("verdict.discontinuity_ok", "bool",
         lambda r: _maybe(r.verdict, "discontinuity_ok")),
        ("verdict.all_ok", "bool", lambda r: _maybe(r.verdict, "all_ok")),
        ("accuracy.max_discontinuity", "f8",
         lambda r: _maybe(r.accuracy, "max_discontinuity")),
        ("accuracy.implied_drift", "f8",
         lambda r: _maybe(r.accuracy, "implied_drift")),
        ("accuracy.stretches", "i8", lambda r: _maybe(r.accuracy, "stretches")),
        ("deviation_percentiles", "json",
         lambda r: ABSENT if r.deviation_percentiles is None
         else [[k, v] for k, v in sorted(r.deviation_percentiles.items())]),
        ("recovery.tolerance", "f8", lambda r: _maybe(r.recovery, "tolerance")),
        ("recovery.events", "json",
         lambda r: ABSENT if r.recovery is None
         else [[e.node, e.released_at, e.rejoined_at, e.initial_distance]
               for e in r.recovery.events]),
        ("recovery.count", "i8",
         lambda r: ABSENT if r.recovery is None else len(r.recovery.events)),
        ("recovery.max_recovery_time", "f8",
         lambda r: _maybe(r.recovery, "max_recovery_time")),
        ("recovery.all_recovered", "bool",
         lambda r: _maybe(r.recovery, "all_recovered")),
        ("envelope_occupancy", "f8",
         lambda r: ABSENT if r.envelope_occupancy is None
         else r.envelope_occupancy),
        ("corruption_count", "i8", lambda r: r.corruption_count),
        ("events_processed", "i8", lambda r: r.events_processed),
        ("messages_delivered", "i8", lambda r: r.messages_delivered),
        ("sync_executions", "i8", lambda r: r.sync_executions),
        ("obs", "json", lambda r: ABSENT if r.obs is None else r.obs),
    ]
    for field, kind in _BOUNDS_FIELDS:
        schema.append((f"verdict.bound.{field}", kind,
                       lambda r, f=field: ABSENT if r.verdict is None
                       else getattr(r.verdict.bounds, f)))
    # Derived: the Claim 8 recovery bound in seconds, so evaluation
    # specs can compare measured recovery times against it directly.
    schema.append(("verdict.bound.recovery_seconds", "f8",
                   lambda r: ABSENT if r.verdict is None
                   else (r.verdict.bounds.recovery_intervals
                         * r.verdict.bounds.t_interval)))
    for field, kind in _PERF_FIELDS:
        schema.append((f"perf.{field}", kind,
                       lambda r, f=field: _maybe(r.perf, f)))
    return schema


_SCHEMA = _fixed_schema()
_FIXED_KINDS = {name: kind for name, kind, _ in _SCHEMA}


def canonical_config(config: Mapping[str, Any]) -> str:
    """Canonical JSON text of a config dict: the lossless copy in the
    ``config_json`` column, and so the key of a run in the campaign
    cache.

    Raises:
        StoreError: If the config does not survive a JSON round trip
            (non-string keys, tuples, other non-JSON values) — storing
            a lossy copy would silently break the cache and resume.
    """
    try:
        text = json.dumps(config, sort_keys=True, separators=(",", ":"))
        if json.loads(text) != config:
            raise ValueError("round trip changed the value")
    except (TypeError, ValueError) as exc:
        raise StoreError(
            f"config is not losslessly JSON-serializable ({exc}); the "
            f"result store keeps configs as canonical JSON") from exc
    return text


def _config_leaves(config: Mapping[str, Any], prefix: str = "config.",
                   leaves: list[tuple[str, Any]] | None = None,
                   ) -> list[tuple[str, Any]]:
    """Scalar leaves of a config dict as ``config.<dotted.path>`` pairs.

    Dict nesting recurses; lists and other composites stay reachable
    only through ``config_json`` (they are poor query keys anyway).
    """
    if leaves is None:
        leaves = []
    for key, value in config.items():
        if not isinstance(key, str):
            continue
        if type(value) is dict:
            _config_leaves(value, f"{prefix}{key}.", leaves)
        elif value is None or isinstance(value, (str, int, float, bool)):
            leaves.append((f"{prefix}{key}", value))
        elif isinstance(value, Mapping):
            _config_leaves(value, f"{prefix}{key}.", leaves)
    return leaves


def _config_columns(records: Sequence[RunRecord]) -> dict[str, list[Any]]:
    """The ``config.*`` leaf cells of a batch, one list per column.

    Columns come in row-major first-appearance order; a row without
    the leaf holds ``ABSENT``.

    Raises:
        StoreError: If one row reaches a column through two dotted
            paths (``{"a.b": 1, "a": {"b": 2}}``).
    """
    columns: dict[str, list[Any]] = {}
    for row, record in enumerate(records):
        config = record.config
        if type(config) is not dict and not isinstance(config, Mapping):
            continue
        for name, value in _config_leaves(config):
            cells = columns.get(name)
            if cells is None:
                cells = columns[name] = [ABSENT] * len(records)
            elif cells[row] is not ABSENT:
                raise StoreError(
                    f"record at position {row}: config reaches column "
                    f"{name!r} through two dotted paths")
            cells[row] = value
    return columns


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class ResultStore:
    """Struct-of-arrays storage for campaign :class:`RunRecord` s.

    Build one with :meth:`from_records` (or let
    :meth:`repro.runner.campaign.Campaign.run` write one natively via
    ``store_dir``), extend it with :meth:`append_records`, persist with
    :meth:`save` / :func:`append_to_dir`, reload with :meth:`load`,
    and analyze through :meth:`query`.
    """

    def __init__(self, meta: dict[str, Any] | None = None) -> None:
        # The fixed record schema exists from birth, so an empty store
        # answers the same queries as a populated one (just with zero
        # rows) instead of raising "no column".
        self.columns: dict[str, Column] = {
            name: Column(name, kind) for name, kind, _ in _SCHEMA}
        self.n_runs = 0
        self.meta: dict[str, Any] = dict(meta or {})

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[RunRecord],
                     meta: dict[str, Any] | None = None) -> "ResultStore":
        """Explode records into columns (see the module docstring)."""
        store = cls(meta=meta)
        store.append_records(records)
        return store

    def append_records(self, records: Sequence[RunRecord]) -> None:
        """Append runs a column at a time, all or nothing.

        Every cell of the batch is extracted and encoded before any
        column changes, so a bad batch raises :class:`StoreError` and
        leaves the store as it was.  Config columns new to the store
        backfill masked holes for the earlier rows and are added in
        row-major first-appearance order; columns the batch lacks extend
        with masked holes (schema evolution is per-row safe).
        """
        records = list(records)
        for position, record in enumerate(records):
            if not isinstance(record, RunRecord):
                raise StoreError(f"expected a RunRecord at position "
                                 f"{position}, got {type(record).__name__}")
        batch = {name: [extract(r) for r in records]
                 for name, _, extract in _SCHEMA}
        batch.update(_config_columns(records))
        encoded = []
        for name, cells in batch.items():
            kind = _FIXED_KINDS.get(name, "json")
            column = self._existing(name, kind)
            if column is None:
                column = Column(name, kind)
                cells = [ABSENT] * self.n_runs + cells
            encoded.append((column, column._encode(cells)))
        holes = [ABSENT] * len(records)
        encoded.extend((column, column._encode(holes))
                       for name, column in self.columns.items()
                       if name not in batch)
        for column, (values, mask) in encoded:
            column._put(values, mask)
            self.columns.setdefault(column.name, column)
        self.n_runs += len(records)

    def _existing(self, name: str, kind: str) -> Column | None:
        column = self.columns.get(name)
        if column is not None and column.kind != kind:
            raise StoreError(
                f"column {name!r} already exists with kind "
                f"{column.kind!r}, not {kind!r}")
        return column

    def _column(self, name: str, kind: str) -> Column:
        column = self._existing(name, kind)
        if column is None:
            column = self.columns[name] = Column(name, kind)
            column.pad_to(self.n_runs)
        return column

    # -- access --------------------------------------------------------

    def has_column(self, name: str) -> bool:
        """Whether the store has a column named ``name``."""
        return name in self.columns

    def values(self, name: str) -> list[Any]:
        """Full column as a list (``None`` where absent).

        Raises:
            StoreError: On an unknown column, naming near misses.
        """
        column = self.columns.get(name)
        if column is None:
            near = [c for c in self.columns if name in c]
            hint = f"; similar: {sorted(near)[:6]}" if near else ""
            raise StoreError(f"no column {name!r}{hint}")
        if column.kind == "bool":
            values = list(map(bool, column.values))
        elif column.kind in _TYPECODES:
            values = column.values.tolist()
        else:
            values = list(column.values)
        if 0 in column.mask:
            return [value if present else None
                    for value, present in zip(values, column.mask)]
        return values

    def query(self) -> "Query":
        """A query over every run in the store."""
        return Query(self, list(range(self.n_runs)))

    # -- record round trip ---------------------------------------------

    def record(self, i: int) -> RunRecord:
        """Reassemble the :class:`RunRecord` of row ``i`` (lossless).

        Raises:
            StoreError: If row ``i`` is out of range or its cells are
                corrupt (a ``config_json`` that is not JSON, ...).
        """
        if not 0 <= i < self.n_runs:
            raise StoreError(f"row {i} out of range (store has {self.n_runs})")
        try:
            cell = lambda name: self.columns[name].get(i) \
                if name in self.columns else None
            verdict = None
            if cell("verdict.measured_deviation") is not None:
                verdict = Theorem5Verdict(
                    bounds=Theorem5Bounds(**{
                        field: cell(f"verdict.bound.{field}")
                        for field, _ in _BOUNDS_FIELDS}),
                    measured_deviation=cell("verdict.measured_deviation"),
                    measured_drift=cell("verdict.measured_drift"),
                    measured_discontinuity=cell("verdict.measured_discontinuity"),
                    deviation_ok=cell("verdict.deviation_ok"),
                    drift_ok=cell("verdict.drift_ok"),
                    discontinuity_ok=cell("verdict.discontinuity_ok"),
                )
            accuracy = None
            if cell("accuracy.max_discontinuity") is not None:
                accuracy = AccuracyReport(
                    max_discontinuity=cell("accuracy.max_discontinuity"),
                    implied_drift=cell("accuracy.implied_drift"),
                    stretches=cell("accuracy.stretches"),
                )
            percentiles = cell("deviation_percentiles")
            recovery = None
            if cell("recovery.tolerance") is not None:
                recovery = RecoveryReport(
                    events=[RecoveryEvent(node=int(node), released_at=released,
                                          rejoined_at=rejoined,
                                          initial_distance=distance)
                            for node, released, rejoined, distance
                            in (cell("recovery.events") or [])],
                    tolerance=cell("recovery.tolerance"),
                )
            perf = None
            if cell("perf.events_processed") is not None:
                perf = RunPerf(**{field: cell(f"perf.{field}")
                                  for field, _ in _PERF_FIELDS})
            config_json = cell("config_json")
            return RunRecord(
                index=cell("index"),
                name=cell("name"),
                config=json.loads(config_json) if config_json is not None else {},
                seed=cell("seed"),
                duration=cell("duration"),
                warmup=cell("warmup"),
                verdict=verdict,
                accuracy=accuracy,
                deviation_percentiles=(None if percentiles is None
                                       else {k: v for k, v in percentiles}),
                recovery=recovery,
                envelope_occupancy=cell("envelope_occupancy"),
                corruption_count=cell("corruption_count"),
                events_processed=cell("events_processed"),
                messages_delivered=cell("messages_delivered"),
                sync_executions=cell("sync_executions"),
                perf=perf,
                obs=cell("obs"),
                scalar_fallback_reason=cell("scalar_fallback_reason"),
                error=cell("error"),
            )
        except (ValueError, TypeError, KeyError, IndexError,
                AttributeError) as exc:
            raise StoreError(f"row {i} does not reassemble into a record: "
                             f"{type(exc).__name__}: {exc}") from None

    def to_records(self) -> list[RunRecord]:
        """All rows reassembled into records, in store order."""
        return [self.record(i) for i in range(self.n_runs)]

    # -- persistence ---------------------------------------------------

    def save(self, directory: str | pathlib.Path) -> None:
        """Write the store fresh (one chunk), replacing any existing one.

        For incremental writes use :func:`append_to_dir`, which adds a
        chunk without touching existing bytes.
        """
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("chunk-*"):
            stale.unlink()
        chunk = _write_chunk(directory, 0, self)
        _write_manifest(directory, [chunk], self.meta)

    @classmethod
    def load(cls, directory: str | pathlib.Path) -> "ResultStore":
        """Load a store directory (all chunks).

        Raises:
            StoreError: On a missing/corrupt manifest, a newer
                ``store_format``, or a chunk of a format other than
                ``"core"``.
        """
        directory = pathlib.Path(directory)
        manifest = _read_manifest(directory)
        store = cls(meta=manifest["meta"])
        for entry in manifest["chunks"]:
            _read_chunk(directory, entry, store)
        return store


# ----------------------------------------------------------------------
# Chunk I/O
# ----------------------------------------------------------------------


def _read_manifest(directory: pathlib.Path) -> dict[str, Any]:
    """The parsed ``manifest.json`` of a store directory, with ``meta``
    and ``chunks`` filled in.

    Raises:
        StoreError: Naming the file, when it is missing, unreadable,
            not a JSON object, of a newer ``store_format``, or holds a
            ``meta`` that is not an object or a chunk entry that is not
            an object.
    """
    path = directory / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise StoreError(f"not a result store (no manifest.json): "
                         f"{directory}") from None
    except (OSError, ValueError) as exc:
        raise StoreError(f"unreadable store manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise StoreError(f"malformed store manifest {path}: a JSON "
                         f"{type(manifest).__name__}, not an object")
    fmt = manifest.get("store_format")
    if not isinstance(fmt, int) or fmt > STORE_FORMAT:
        raise StoreError(
            f"store manifest {path} has format {fmt!r}; this build reads "
            f"up to {STORE_FORMAT} — upgrade repro to read it")
    manifest.setdefault("meta", {})
    manifest.setdefault("chunks", [])
    if not isinstance(manifest["meta"], dict):
        raise StoreError(f"malformed store manifest {path}: meta is not "
                         f"an object")
    if not isinstance(manifest["chunks"], list) or not all(
            isinstance(entry, dict) for entry in manifest["chunks"]):
        raise StoreError(f"malformed store manifest {path}: chunks is not "
                         f"a list of objects")
    return manifest


def _write_manifest(directory: pathlib.Path, chunks: list[dict[str, Any]],
                    meta: dict[str, Any]) -> None:
    payload = {
        "store_format": STORE_FORMAT,
        "version": __version__,
        "meta": meta,
        "chunks": chunks,
    }
    tmp = directory / f"manifest.json.tmp.{os.getpid()}"
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, directory / "manifest.json")


def _write_chunk(directory: pathlib.Path, index: int,
                 store: ResultStore) -> dict[str, Any]:
    """Write one chunk holding all of ``store``'s rows; return its
    manifest entry."""
    name = f"chunk-{index:06d}"
    blobs: list[bytes] = []
    offset = 0
    entries: list[dict[str, Any]] = []
    for column in store.columns.values():
        entry: dict[str, Any] = {"name": column.name, "kind": column.kind}
        if column.kind in _TYPECODES:
            data = column.values.tobytes()
            entry["offset"], entry["nbytes"] = offset, len(data)
            blobs.append(data)
            offset += len(data)
        else:
            entry["values"] = [[value] if present else 0 for value, present
                               in zip(column.values, column.mask)]
        if column.kind in _TYPECODES and 0 in column.mask:
            mask = bytes(column.mask)
            entry["mask_offset"] = offset
            blobs.append(mask)
            offset += len(mask)
        entries.append(entry)
    (directory / f"{name}.bin").write_bytes(b"".join(blobs))
    header = {"runs": store.n_runs, "byteorder": sys.byteorder,
              "columns": entries}
    (directory / f"{name}.json").write_text(
        json.dumps(header, sort_keys=True) + "\n")
    return {"name": name, "runs": store.n_runs, "format": "core"}


def _read_chunk(directory: pathlib.Path, chunk: dict[str, Any],
                store: ResultStore) -> None:
    """Append the rows of one chunk to ``store``.

    Raises:
        StoreError: On a chunk format other than ``"core"``, or naming
            the chunk's files when anything in them is unreadable,
            malformed or truncated.
    """
    name, fmt = chunk.get("name"), chunk.get("format", "core")
    if fmt != "core":
        raise StoreError(f"chunk {name!r} has unknown format {fmt!r}")
    start = store.n_runs
    try:
        header = json.loads((directory / f"{name}.json").read_text())
        blob = (directory / f"{name}.bin").read_bytes()
        runs = int(header["runs"])
        foreign = header.get("byteorder", sys.byteorder) != sys.byteorder
        for entry in header["columns"]:
            column = store._column(entry["name"], entry["kind"])
            column.pad_to(start)
            if entry["kind"] in _TYPECODES:
                data = array(_TYPECODES[entry["kind"]])
                data.frombytes(blob[entry["offset"]:entry["offset"] + entry["nbytes"]])
                if foreign and entry["kind"] != "bool":
                    data.byteswap()
                mask_offset = entry.get("mask_offset")
                mask = (blob[mask_offset:mask_offset + runs]
                        if mask_offset is not None else b"\x01" * runs)
                if len(data) != runs or len(mask) != runs:
                    raise StoreError(f"column {entry['name']!r} is truncated")
                column.values.extend(data)
                column.mask.extend(mask)
            else:
                cells = entry["values"]
                if len(cells) != runs:
                    raise StoreError(f"column {entry['name']!r} is truncated")
                column.extend([cell[0] if isinstance(cell, list) else ABSENT
                               for cell in cells])
    except (StoreError, OSError, ValueError, TypeError, KeyError,
            IndexError, AttributeError) as exc:
        raise StoreError(f"store chunk {directory / str(name)}.json/.bin "
                         f"named in manifest.json is unreadable: "
                         f"{type(exc).__name__}: {exc}") from None
    store.n_runs = start + runs
    for column in store.columns.values():
        column.pad_to(store.n_runs)


def append_to_dir(directory: str | pathlib.Path,
                  records: Sequence[RunRecord],
                  meta: dict[str, Any] | None = None) -> None:
    """Append ``records`` to an on-disk store as one new chunk.

    Creates the store if the directory holds none.  Existing chunk
    files are never rewritten — only the small manifest is atomically
    replaced — so interrupted appends leave the prior store intact.
    ``meta`` (when given) is merged over the stored metadata.
    """
    directory = pathlib.Path(directory)
    if not (directory / "manifest.json").exists():
        ResultStore.from_records(records, meta=meta).save(directory)
        return
    manifest = _read_manifest(directory)
    chunks = manifest["chunks"]
    chunks.append(_write_chunk(directory, len(chunks),
                               ResultStore.from_records(records)))
    _write_manifest(directory, chunks, {**manifest["meta"], **(meta or {})})


# ----------------------------------------------------------------------
# Query API
# ----------------------------------------------------------------------

#: Aggregate functions usable in :meth:`Query.aggregate` /
#: :meth:`GroupedQuery.aggregate`.  All reduce present cells in row
#: order with plain Python arithmetic.
AGGREGATES: dict[str, Callable[[list], Any]] = {
    "count": len,
    "sum": lambda vals: sum(vals),
    "mean": lambda vals: (sum(vals) / len(vals)) if vals else None,
    "min": lambda vals: min(vals) if vals else None,
    "max": lambda vals: max(vals) if vals else None,
    "any": lambda vals: any(vals),
    "all": lambda vals: all(vals),
    "first": lambda vals: vals[0] if vals else None,
}

_PREDICATES: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda cell, rhs: cell == rhs,
    "!=": lambda cell, rhs: cell != rhs,
    "<": lambda cell, rhs: cell < rhs,
    "<=": lambda cell, rhs: cell <= rhs,
    ">": lambda cell, rhs: cell > rhs,
    ">=": lambda cell, rhs: cell >= rhs,
    "in": lambda cell, rhs: cell in rhs,
    "not-in": lambda cell, rhs: cell not in rhs,
}


class Query:
    """An immutable row selection over a :class:`ResultStore`.

    Every refinement returns a new query; the store is never copied.
    """

    def __init__(self, store: ResultStore, indices: list[int]) -> None:
        self._store = store
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def count(self) -> int:
        """Number of selected rows."""
        return len(self._indices)

    def indices(self) -> list[int]:
        """Selected row numbers, in store order."""
        return list(self._indices)

    def where(self, column: str, op: str = "notnull",
              value: Any = None) -> "Query":
        """Keep rows whose ``column`` cell satisfies ``op`` / ``value``.

        Ops: ``== != < <= > >= in not-in isnull notnull``.  Absent
        cells satisfy only ``isnull``; comparisons between incompatible
        types (a string cell vs a numeric rhs) are simply no-matches,
        so a heterogeneous config column never aborts a query.

        Raises:
            StoreError: On an unknown column or operator.
        """
        if op in ("isnull", "notnull"):
            cells = self._store.values(column)
            want_null = op == "isnull"
            keep = [i for i in self._indices
                    if (cells[i] is None) == want_null]
            return Query(self._store, keep)
        predicate = _PREDICATES.get(op)
        if predicate is None:
            raise StoreError(f"unknown query op {op!r}; known: "
                             f"{sorted(_PREDICATES) + ['isnull', 'notnull']}")
        cells = self._store.values(column)
        keep = []
        for i in self._indices:
            cell = cells[i]
            if cell is None:
                continue
            try:
                hit = predicate(cell, value)
            except TypeError:
                hit = False
            if hit:
                keep.append(i)
        return Query(self._store, keep)

    def values(self, column: str) -> list[Any]:
        """Present cell values of ``column`` over the selection, in row
        order (absent cells dropped)."""
        cells = self._store.values(column)
        return [cells[i] for i in self._indices if cells[i] is not None]

    def select(self, *columns: str) -> dict[str, list[Any]]:
        """Aligned columns over the selection (``None`` where absent)."""
        out = {}
        for name in columns:
            cells = self._store.values(name)
            out[name] = [cells[i] for i in self._indices]
        return out

    def records(self) -> list[RunRecord]:
        """The selected rows reassembled into :class:`RunRecord` s."""
        return [self._store.record(i) for i in self._indices]

    def aggregate(self, **outputs: tuple[str, str]) -> dict[str, Any]:
        """Reduce the selection: ``name=("column", "fn")`` per output.

        Raises:
            StoreError: On an unknown aggregate function or column.
        """
        plan = _reductions(outputs)
        present = {column: self.values(column)
                   for column in dict.fromkeys(c for _, c, _ in plan)}
        return {out_name: fn(present[column]) for out_name, column, fn in plan}

    def group_by(self, *keys: str) -> "GroupedQuery":
        """Partition the selection by the values of ``keys``."""
        if not keys:
            raise StoreError("group_by needs at least one key column")
        return GroupedQuery(self, keys)


def _reductions(outputs: dict[str, tuple[str, str]]
                ) -> list[tuple[str, str, Callable[[list], Any]]]:
    """``(output, column, function)`` per aggregate output.

    Raises:
        StoreError: On an unknown aggregate function.
    """
    plan = []
    for out_name, (column, fn_name) in outputs.items():
        fn = AGGREGATES.get(fn_name)
        if fn is None:
            raise StoreError(f"unknown aggregate {fn_name!r}; known: "
                             f"{sorted(AGGREGATES)}")
        plan.append((out_name, column, fn))
    return plan


class GroupedQuery:
    """The result of :meth:`Query.group_by`, awaiting aggregation.

    Rows group by ``==`` on their tuple of key cells (so ``1``, ``1.0``
    and ``True`` share a group, keyed by the first of them in row
    order; absent cells group as ``None``; each nan is its own group).
    Every read goes through :meth:`ResultStore.values` once per column,
    so grouping and aggregation cost O(rows), not O(groups x rows).
    """

    def __init__(self, query: Query, keys: Sequence[str]) -> None:
        self._store = query._store
        self._keys = tuple(keys)
        key_columns = query.select(*self._keys)
        groups: dict[tuple, list[int]] = {}
        for position, row in enumerate(query.indices()):
            key = tuple(key_columns[k][position] for k in self._keys)
            groups.setdefault(key, []).append(row)
        self._groups = groups

    def __len__(self) -> int:
        return len(self._groups)

    def values(self, column: str) -> dict[tuple, list[Any]]:
        """Present cells of ``column`` per group key, in row order
        (absent cells dropped; groups in first-appearance order)."""
        cells = self._store.values(column)
        return {key: [cells[i] for i in rows if cells[i] is not None]
                for key, rows in self._groups.items()}

    def aggregate(self, **outputs: tuple[str, str]) -> list[dict[str, Any]]:
        """One result row per group: key columns plus the aggregates,
        sorted by group key (deterministic across runs and paths).

        Raises:
            StoreError: On an unknown aggregate function or column.
        """
        plan = _reductions(outputs)
        present = {column: self.values(column)
                   for column in dict.fromkeys(c for _, c, _ in plan)}
        rows = []
        for key in self._groups:
            row = dict(zip(self._keys, key))
            for out_name, column, fn in plan:
                row[out_name] = fn(present[column][key])
            rows.append(row)
        rows.sort(key=lambda row: json.dumps(
            [row[k] for k in self._keys], sort_keys=True, default=str))
        return rows
