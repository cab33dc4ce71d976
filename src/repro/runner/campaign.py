"""The campaign executor: one engine for every multi-run experiment.

A *campaign* is an ordered list of declarative scenario configs (see
:mod:`repro.runner.config`) executed into :class:`RunRecord` results.
Because every canonical scenario is now fully declarative — plans,
clock models, delays, and topologies are registered specs — any
campaign can fan out over a process pool, not just the four canned
config scenarios: a parameter sweep or a set of replications is a
:meth:`Campaign.sweep` / :meth:`Campaign.replicate` campaign, and a
run that must not fail is ``Campaign.run(isolate_failures=False)``.

Features:

* **Parallel fan-out** — ``workers >= 2`` uses a process pool; results
  are byte-identical to a serial run (each run is a pure function of
  its config, and the wall-clock engine counters are excluded from
  records).
* **Result caching** — with a ``cache_dir``, every successful record
  is kept in a :class:`~repro.runner.store.ResultStore`; a repeated
  campaign re-executes zero runs, and an interrupted one resumes
  completing only the missing runs.  Failed runs are never cached.
* **Failure isolation** — a worker failure becomes an error
  :class:`RunRecord` carrying the config and index instead of killing
  the sweep (``isolate_failures=False`` raises
  :class:`~repro.errors.CampaignError` naming the culprit instead).

Cache layout: ``<cache_dir>/<sha256 of the settings>/`` is an ordinary
store directory, one per combination of source code (a sha256 over
every ``repro/**/*.py`` file, so an edit to Figure 1 cannot be served
records the old code computed), :data:`CACHE_FORMAT`, warmup,
``observe``, ``stream_measures`` and ``backend``.  Inside it a run is
found by its canonical config (the ``config_json`` column); the last
row for a config wins, so a ``fresh`` run supersedes older rows.  A
corrupt cache store is logged, every run re-executes, and the store is
rewritten.  Like ``store_dir``, the cache has a single writer: two
campaigns must not share it at once.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import logging
import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro._version import __version__
from repro.errors import CampaignError, ConfigurationError, StoreError
from repro.runner.records import RunPerf, RunRecord
from repro.runner.scenario import Scenario
from repro.runner.store import Query, ResultStore, canonical_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.recorder import FlightRecorder
    from repro.runner.experiment import RunResult

__all__ = [
    "CACHE_FORMAT", "BACKENDS", "RunPerf", "RunRecord", "CampaignResult",
    "Campaign", "BisectResult", "execute_run", "run_record", "run_config",
]

_log = logging.getLogger(__name__)

#: The record-schema part of the cache identity: bumped when the
#: RunRecord schema or measurement pipeline changes in a way that
#: invalidates cached records independent of the package version.
#: Every store a campaign writes records it as ``cache_format``.
CACHE_FORMAT = 4

#: Simulation backends a campaign can select.
BACKENDS = ("scalar", "vector")


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's sources (``repro/**/*.py``, in sorted
    path order, each path with its bytes); computed once per process."""
    package = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign execution.

    Attributes:
        records: One :class:`RunRecord` per config, in input order.
        executed: Runs actually executed this invocation.
        cached: Runs served from the result cache.
        failed: Runs that ended in an error record.
    """

    records: list[RunRecord]
    executed: int
    cached: int
    failed: int

    @property
    def all_ok(self) -> bool:
        """Every run succeeded and met its bounds."""
        return all(record.ok for record in self.records)

    def errors(self) -> list[RunRecord]:
        """The error records, if any."""
        return [record for record in self.records if record.error is not None]

    @property
    def scalar_fallbacks(self) -> int:
        """Runs that requested the vector backend but executed scalar."""
        return sum(1 for record in self.records
                   if record.scalar_fallback_reason is not None)

    def fallback_reasons(self) -> dict[str, int]:
        """Distinct scalar-fallback reasons with their run counts."""
        reasons: dict[str, int] = {}
        for record in self.records:
            if record.scalar_fallback_reason is not None:
                reasons[record.scalar_fallback_reason] = \
                    reasons.get(record.scalar_fallback_reason, 0) + 1
        return dict(sorted(reasons.items()))

    def store(self, meta: dict[str, Any] | None = None):
        """The records as a queryable in-memory
        :class:`~repro.runner.store.ResultStore`."""
        return ResultStore.from_records(self.records, meta=meta)


# ----------------------------------------------------------------------
# Worker entry points (module level: pool workers import them by name)
# ----------------------------------------------------------------------


def _obs_summary(recorder) -> dict[str, Any]:
    """Small, picklable digest of a flight recorder."""
    return {
        "events": len(recorder.events),
        "spans": len(recorder.spans),
        "violations": [
            {"probe": v.probe, "time": v.time, "node": v.node,
             "measured": v.measured, "bound": v.bound}
            for v in recorder.violations
        ],
    }


def execute_run(index: int, config: dict[str, Any],
                warmup_intervals: float = 3.0,
                observe: bool = False,
                stream_measures: bool = False,
                backend: str = "scalar") -> RunRecord:
    """Execute one config into a :class:`RunRecord` (raises on failure).

    Args:
        index: Campaign position recorded on the result.
        config: A :mod:`repro.runner.config` scenario description.
        warmup_intervals: Warmup in analysis intervals ``T``.
        observe: Attach a flight recorder and keep its summary.
        stream_measures: Accumulate the measures online during the run
            (no clock trace is kept); the record is byte-identical to
            the post-hoc path.
        backend: ``"scalar"`` (reference engine) or ``"vector"`` (the
            batch engine, with automatic scalar fallback outside its
            envelope).  Records are byte-identical across backends;
            observed runs always use the scalar engine (the flight
            recorder hooks the per-process path).
    """
    # Imports kept local so worker startup stays cheap when the module
    # is imported only for the dataclasses.
    from repro.runner.config import scenario_from_config
    from repro.runner.experiment import run

    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    scenario = scenario_from_config(config)
    recorder = None
    fallback_reason = None
    if observe:
        from repro.obs import FlightRecorder
        recorder = FlightRecorder()
    if backend == "vector" and recorder is None:
        from repro.runner.vector import run_vector_report
        result, fallback_reason = run_vector_report(
            scenario, stream_measures=stream_measures)
    else:
        if backend == "vector":
            fallback_reason = "observed runs use the scalar engine " \
                              "(the flight recorder hooks the per-process path)"
        result = run(scenario, recorder=recorder, stream_measures=stream_measures)
    return run_record(index, config, result, warmup_intervals, recorder,
                      fallback_reason)


def run_record(index: int, config: dict[str, Any], result: "RunResult",
               warmup_intervals: float = 3.0,
               recorder: "FlightRecorder | None" = None,
               fallback_reason: str | None = None) -> RunRecord:
    """Judge one finished run into its :class:`RunRecord`.

    The one place a run's record is assembled: :func:`execute_run` and
    ``repro run`` both call it, so a config has one record schema in
    the CLI, the campaign and the store.

    Args:
        index: Campaign position recorded on the result.
        config: The config the run was built from.
        result: The :class:`~repro.runner.experiment.RunResult`.
        warmup_intervals: Warmup in analysis intervals ``T``.
        recorder: The flight recorder that observed the run, if any.
        fallback_reason: Why a vector-backend run executed scalar.

    Raises:
        MeasurementError: When no sample follows the warmup.
    """
    warmup = warmup_intervals * result.params.t_interval
    verdict = result.verdict(warmup=warmup)
    perf = result.perf
    return RunRecord(
        index=index,
        name=result.scenario.name,
        config=config,
        seed=result.scenario.seed,
        duration=result.scenario.duration,
        warmup=warmup,
        verdict=verdict,
        accuracy=result.accuracy(),
        deviation_percentiles=result.deviation_percentiles(warmup=warmup),
        recovery=result.recovery(),
        envelope_occupancy=result.envelope_occupancy(warmup=warmup),
        corruption_count=len(result.corruptions),
        events_processed=result.events_processed,
        messages_delivered=result.messages_delivered,
        sync_executions=len(result.syncs),
        perf=RunPerf(
            events_processed=perf.events_processed,
            events_pushed=perf.events_pushed,
            events_cancelled=perf.events_cancelled,
            cancelled_ratio=perf.cancelled_ratio,
            heap_high_water=perf.heap_high_water,
            pending_events=perf.pending_events,
        ) if perf is not None else None,
        obs=_obs_summary(recorder) if recorder is not None else None,
        scalar_fallback_reason=fallback_reason,
    )


def _execute_isolated(index: int, config: dict[str, Any],
                      warmup_intervals: float, observe: bool,
                      stream_measures: bool = False,
                      backend: str = "scalar") -> RunRecord:
    """Worker wrapper: any failure becomes an error record, so one bad
    config cannot take down the pool or the sweep."""
    try:
        return execute_run(index, config, warmup_intervals, observe,
                           stream_measures, backend)
    except BaseException as exc:  # noqa: BLE001 -- isolation is the point
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        name = config.get("name", config.get("scenario", "scenario")) \
            if isinstance(config, dict) else "scenario"
        return RunRecord(
            index=index,
            name=str(name),
            config=config if isinstance(config, dict) else {},
            seed=int(config.get("seed", 0)) if isinstance(config, dict) else 0,
            duration=float(config.get("duration", 0.0)) if isinstance(config, dict) else 0.0,
            error=f"{type(exc).__name__}: {exc}",
        )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


@dataclass
class Campaign:
    """An ordered batch of declarative runs with caching and fan-out.

    Attributes:
        configs: Declarative scenario configs, one per run.
        warmup_intervals: Warmup in analysis intervals ``T`` applied to
            every run's measures (part of the cache identity).
        cache_dir: Result cache directory (``None`` disables caching):
            one result store per measurement setting, single-writer
            (see the module docstring).
        observe: Attach a flight recorder to every run and keep its
            summary on the records (part of the cache identity).
        stream_measures: Compute measures online during each run
            instead of post-hoc over a recorded trace (part of the
            cache identity; workers keep O(n) state instead of the full
            O(samples x n) trace).  Records are byte-identical either
            way.
        backend: Simulation backend for every run: ``"scalar"``
            (reference engine) or ``"vector"`` (batch engine with
            scalar fallback outside its envelope).  Part of the cache
            identity so the two engines' records never collide.
        store_dir: When set, :meth:`run` appends every completed
            campaign's records to the columnar
            :class:`~repro.runner.store.ResultStore` at this directory
            (one chunk per invocation) — the native results output that
            ``repro evaluate`` and the query API consume.  Not part of
            the cache identity (where results land does not change what
            they are).
    """

    configs: list[dict[str, Any]]
    warmup_intervals: float = 3.0
    cache_dir: str | pathlib.Path | None = None
    observe: bool = False
    stream_measures: bool = False
    backend: str = "scalar"
    store_dir: str | pathlib.Path | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_scenarios(cls, scenarios: Sequence[Scenario],
                       **kwargs: Any) -> "Campaign":
        """Build a campaign from declarative scenarios.

        Raises:
            ConfigurationError: If any scenario holds raw callables
                (see :meth:`Scenario.to_config`).
        """
        return cls(configs=[s.to_config() for s in scenarios], **kwargs)

    @classmethod
    def sweep(cls, base: Scenario, variations: Iterable[dict[str, Any]],
              **kwargs: Any) -> "Campaign":
        """One run per variation dict (fields to ``dataclasses.replace``).

        A variation may replace any :class:`Scenario` field; replacing
        ``params`` requires passing a full ``ProtocolParams``.
        """
        scenarios = [dataclasses.replace(base, **changes) for changes in variations]
        return cls.from_scenarios(scenarios, **kwargs)

    @classmethod
    def replicate(cls, base: Scenario, seeds: Sequence[int],
                  **kwargs: Any) -> "Campaign":
        """One run per seed (for variance estimates)."""
        return cls.sweep(base, [{"seed": seed} for seed in seeds], **kwargs)

    # -- caching -------------------------------------------------------

    def _settings(self) -> dict[str, Any]:
        """What a record depends on besides its config: the cache
        identity, and the metadata of every store the campaign writes."""
        return {
            "version": __version__,
            "source": _source_digest(),
            "cache_format": CACHE_FORMAT,
            "backend": self.backend,
            "warmup_intervals": self.warmup_intervals,
            "observe": self.observe,
            "stream_measures": self.stream_measures,
        }

    def _cache_hits(self, directory: pathlib.Path,
                    configs: Sequence[dict[str, Any]]
                    ) -> dict[int, RunRecord] | None:
        """The cached records of ``configs`` by position, or ``None``
        (logged) when the cache store at ``directory`` is corrupt."""
        if not (directory / "manifest.json").exists():
            return {}
        keys = [canonical_config(config) for config in configs]
        try:
            store = ResultStore.load(directory)
            rows = dict(zip(store.values("config_json"), range(store.n_runs)))
            # A row may come from another campaign position, and its
            # config has sorted keys; pin this campaign's index and
            # config (its key order fixes the store_dir column order).
            return {index: dataclasses.replace(store.record(rows[key]),
                                               index=index, config=config)
                    for index, (config, key) in enumerate(zip(configs, keys))
                    if key in rows}
        except StoreError as exc:
            _log.warning("cache store %s is unreadable (%s); re-executing "
                         "every run", directory, exc)
            return None

    # -- execution -----------------------------------------------------

    def run(self, workers: int | None = None, fresh: bool = False,
            isolate_failures: bool = True) -> CampaignResult:
        """Execute every run not already cached.

        Args:
            workers: Process count; ``None`` or ``1`` runs serially in
                this process (no pickling round-trip), ``>= 2`` uses a
                process pool.  Records come back in input order either
                way, byte-identical across the two modes.
            fresh: Ignore existing cache entries (results still get
                written back, replacing them).
            isolate_failures: When True (default), a failed run yields
                an error record; when False the first failure raises
                :class:`~repro.errors.CampaignError` carrying the run's
                index and config.

        Raises:
            ConfigurationError: On an empty campaign or bad ``workers``.
            CampaignError: A run failed and ``isolate_failures=False``.
        """
        if not self.configs:
            raise ConfigurationError("campaign needs at least one config")
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}")

        # Resolved per call, so a tracer patching the store module sees
        # every append.
        from repro.runner.store import append_to_dir

        settings = self._settings()
        hits: dict[int, RunRecord] | None = {}
        if self.cache_dir is not None:
            cache = pathlib.Path(self.cache_dir) / hashlib.sha256(
                json.dumps(settings, sort_keys=True).encode()).hexdigest()
            hits = self._cache_hits(cache, [] if fresh else self.configs)
        records = dict(hits or {})
        pending = [(index, config) for index, config in enumerate(self.configs)
                   if index not in records]

        if workers is None or workers == 1:
            fresh_records = [
                _execute_isolated(index, config, self.warmup_intervals,
                                  self.observe, self.stream_measures,
                                  self.backend)
                for index, config in pending
            ]
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_execute_isolated, index, config,
                                self.warmup_intervals, self.observe,
                                self.stream_measures, self.backend)
                    for index, config in pending
                ]
                fresh_records = [future.result() for future in futures]

        ok = [record for record in fresh_records if record.error is None]
        if self.cache_dir is not None and ok:
            if hits is None:
                ResultStore.from_records(ok, meta=settings).save(cache)
            else:
                append_to_dir(cache, ok, meta=settings)
        for record in fresh_records:
            if record.error is not None and not isolate_failures:
                raise CampaignError(
                    f"campaign run {record.index} ({record.name!r}, "
                    f"seed={record.seed}) failed: {record.error}",
                    index=record.index, config=record.config,
                )
            records[record.index] = record

        final = [records[index] for index in range(len(self.configs))]
        result = CampaignResult(records=final, executed=len(fresh_records),
                                cached=len(hits or {}),
                                failed=len(fresh_records) - len(ok))
        if self.store_dir is not None:
            append_to_dir(self.store_dir, final, meta=settings)
        return result

    # -- adaptive driving ----------------------------------------------

    @classmethod
    def bisect(cls, make_config: Callable[[int, int], dict[str, Any]],
               lo: int, hi: int, *,
               seeds: Sequence[int] = (1,),
               passes: Callable[[Query], bool] | None = None,
               store_dir: str | pathlib.Path | None = None,
               **campaign_kwargs: Any) -> "BisectResult":
        """Find an integer resilience boundary by adaptive bisection.

        Sweeping-to-the-boundary instead of spot-checking: given a
        monotone knob (number of colluding liars, loss rate step, ...),
        probe integer values in ``[lo, hi]``, judging each probe by a
        store query over the records it produced, and home in on the
        largest passing / smallest failing value with O(log(hi - lo))
        campaigns instead of hi - lo + 1.

        Args:
            make_config: ``(value, seed) -> config``.  Embed ``value``
                into the config (e.g. under ``extra``) so the pooled
                store keeps the probe identity as a queryable
                ``config.…`` column.
            lo: Smallest candidate, expected to pass.
            hi: Largest candidate, expected to fail.
            seeds: Root seeds run per probe value.
            passes: Judgement over the probe's rows as a store
                :class:`~repro.runner.store.Query`; default: the probe
                passes iff every run met all Theorem 5 bounds (the
                ``ok`` column is all-true).
            store_dir: When set, the pooled store of every probe is
                saved there (with the probe map in its metadata).
            **campaign_kwargs: Forwarded to the per-probe ``Campaign``
                (``backend=``, ``cache_dir=``, ...).

        Returns:
            A :class:`BisectResult`; when the expected orientation
            holds, ``first_fail == last_pass + 1`` is the boundary.

        Raises:
            ConfigurationError: If ``lo > hi``.
        """
        if lo > hi:
            raise ConfigurationError(f"bisect needs lo <= hi, got [{lo}, {hi}]")
        if passes is None:
            passes = lambda q: q.count() > 0 and \
                bool(q.aggregate(verdict=("ok", "all"))["verdict"])

        store = ResultStore()
        probes: dict[int, bool] = {}

        def probe(value: int) -> bool:
            if value in probes:
                return probes[value]
            start = store.n_runs
            result = cls([make_config(value, seed) for seed in seeds],
                         **campaign_kwargs).run()
            store.append_records(result.records)
            verdict = bool(passes(Query(store, list(range(start, store.n_runs)))))
            probes[value] = verdict
            _log.info("bisect probe %d: %s", value,
                      "pass" if verdict else "fail")
            return verdict

        if not probe(lo):
            last_pass, first_fail = None, lo
        elif probe(hi):
            last_pass, first_fail = hi, None
        else:
            good, bad = lo, hi
            while bad - good > 1:
                mid = (good + bad) // 2
                if probe(mid):
                    good = mid
                else:
                    bad = mid
            last_pass, first_fail = good, bad

        store.meta["bisect"] = {
            "lo": lo, "hi": hi, "seeds": list(seeds),
            "last_pass": last_pass, "first_fail": first_fail,
            "probes": {str(value): verdict
                       for value, verdict in sorted(probes.items())},
        }
        if store_dir is not None:
            store.save(store_dir)
        return BisectResult(last_pass=last_pass, first_fail=first_fail,
                            probes=dict(sorted(probes.items())), store=store)


@dataclass(frozen=True)
class BisectResult:
    """Outcome of :meth:`Campaign.bisect`.

    Attributes:
        last_pass: Largest probed value whose runs passed (``None`` if
            even ``lo`` failed).
        first_fail: Smallest probed value whose runs failed (``None``
            if even ``hi`` passed — the boundary lies beyond the
            range).
        probes: Every probed value with its pass/fail verdict.
        store: Pooled :class:`~repro.runner.store.ResultStore` over all
            probe runs (probe summary in ``store.meta["bisect"]``).
    """

    last_pass: int | None
    first_fail: int | None
    probes: dict[int, bool]
    store: ResultStore


# ----------------------------------------------------------------------
# One config, in-process
# ----------------------------------------------------------------------


def run_config(config: dict[str, Any], warmup_intervals: float = 3.0,
               stream_measures: bool = False,
               backend: str = "scalar") -> RunRecord:
    """Execute one config in-process (no isolation; exceptions raise)."""
    return execute_run(0, config, warmup_intervals=warmup_intervals,
                       stream_measures=stream_measures, backend=backend)

