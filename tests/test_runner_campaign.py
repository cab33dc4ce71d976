"""Tests for the campaign executor: fan-out, caching, failure isolation.

Supersedes the old parallel-runner tests.  The determinism contract is
the load-bearing one: a campaign's records must be byte-identical
whether runs execute serially in-process or across a process pool, for
every canonical scenario (including the spec-based adversary plans).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import shutil
import subprocess
import sys

import pytest

import repro
from repro._version import __version__
from repro.errors import CampaignError, ConfigurationError
from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
    recovery_scenario,
    split_world_scenario,
)
from repro.runner.campaign import (
    CACHE_FORMAT,
    Campaign,
    CampaignResult,
    RunRecord,
    run_config,
)
from repro.runner.store import ResultStore


def record_json(record):
    """Canonical JSON of a record: the byte-parity form."""
    return json.dumps(dataclasses.asdict(record), sort_keys=True, default=repr)


def config(seed=0, scenario="benign", duration=3.0):
    return {
        "params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
        "scenario": scenario,
        "duration": duration,
        "seed": seed,
    }


def canonical_configs(duration=4.0):
    """One config per canonical scenario, exercising every plan kind."""
    return [config(seed=s, scenario=name, duration=duration)
            for s, name in enumerate(
                ("benign", "mobile-byzantine", "recovery", "split-world"),
                start=1)]


class TestSerial:
    def test_single_config(self):
        record = run_config(config(seed=1))
        assert isinstance(record, RunRecord)
        assert record.ok
        assert record.max_deviation <= record.verdict.bounds.max_deviation
        assert record.messages_delivered > 0
        assert record.perf is not None
        assert record.seed == 1

    def test_order_preserved(self):
        records = Campaign([config(seed=s) for s in (5, 6, 7)]).run(
            isolate_failures=False).records
        assert [r.seed for r in records] == [5, 6, 7]
        assert [r.index for r in records] == [0, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign([]).run(isolate_failures=False)

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign([config()]).run(workers=0, isolate_failures=False)

    def test_byzantine_config(self):
        record = run_config(config(scenario="mobile-byzantine", duration=6.0))
        assert record.ok
        assert record.recovery.all_recovered
        assert record.corruption_count > 0

    def test_record_is_picklable(self):
        record = run_config(config(seed=2))
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record


class TestParallelDeterminism:
    def test_parallel_matches_serial_exactly_all_canonical(self):
        """Records byte-identical across execution modes, for every
        canonical scenario (spec-based plans included)."""
        configs = canonical_configs()
        serial = Campaign(configs=configs).run(workers=1)
        parallel = Campaign(configs=configs).run(workers=2)
        assert serial.records == parallel.records
        for a, b in zip(serial.records, parallel.records):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_parallel_order_preserved(self):
        configs = [config(seed=s) for s in (9, 8, 7)]
        records = Campaign(configs).run(workers=2,
                                        isolate_failures=False).records
        assert [r.seed for r in records] == [9, 8, 7]


class TestFailureHandling:
    def test_isolated_failure_yields_error_record(self):
        bad = dict(config(seed=3), duration=-1.0)
        result = Campaign(configs=[config(seed=1), bad]).run()
        assert result.failed == 1
        (error_record,) = result.errors()
        assert error_record.index == 1
        assert error_record.error is not None
        assert not error_record.ok
        assert result.records[0].ok

    def test_strict_mode_raises_campaign_error(self):
        bad = dict(config(seed=3), duration=-1.0)
        with pytest.raises(CampaignError) as excinfo:
            Campaign([config(seed=1), bad]).run(isolate_failures=False)
        assert excinfo.value.index == 1
        assert excinfo.value.config == bad

    def test_isolated_failure_survives_the_pool(self):
        bad = dict(config(seed=3), duration=-1.0)
        result = Campaign(configs=[config(seed=1), bad,
                                   config(seed=2)]).run(workers=2)
        assert result.failed == 1
        assert result.records[0].ok and result.records[2].ok


def cache_store(cache_dir):
    """The one settings store a single-setting campaign writes."""
    (store_dir,) = [path for path in cache_dir.iterdir() if path.is_dir()]
    return store_dir


def truncate_bin(store_dir):
    path = store_dir / "chunk-000000.bin"
    path.write_bytes(path.read_bytes()[:-5])


def garbage_manifest(store_dir):
    (store_dir / "manifest.json").write_bytes(b"\xff not json")


def chunk_without_runs(store_dir):
    path = store_dir / "chunk-000000.json"
    header = json.loads(path.read_text())
    del header["runs"]
    path.write_text(json.dumps(header))


class TestCaching:
    def assert_second_invocation_hits(self, tmp_path, **settings):
        configs = canonical_configs(duration=3.0)
        campaign = Campaign(configs=configs, cache_dir=tmp_path / "cache",
                            store_dir=tmp_path / "store", **settings)
        first = campaign.run()
        assert (first.executed, first.cached) == (4, 0)
        second = campaign.run()
        assert (second.executed, second.cached) == (0, 4)
        assert second.records == first.records
        assert [record_json(r) for r in second.records] \
            == [record_json(r) for r in first.records]
        # Hits keep the campaign's config (and its key order), so the
        # store_dir chunk of the cached run is byte-identical.
        for suffix in (".json", ".bin"):
            assert (tmp_path / "store" / f"chunk-000001{suffix}").read_bytes() \
                == (tmp_path / "store" / f"chunk-000000{suffix}").read_bytes()
        return second

    def test_second_invocation_executes_zero_runs(self, tmp_path):
        self.assert_second_invocation_hits(tmp_path)

    @pytest.mark.parametrize("settings", [{"backend": "vector"},
                                          {"observe": True}],
                             ids=["vector", "observe"])
    def test_second_invocation_round_trips_settings(self, tmp_path, settings):
        second = self.assert_second_invocation_hits(tmp_path, **settings)
        if settings.get("observe"):
            assert all(record.obs is not None for record in second.records)

    def test_resume_completes_only_missing_runs(self, tmp_path):
        configs = canonical_configs(duration=3.0)
        partial = Campaign(configs=configs[:3], cache_dir=tmp_path).run()
        assert (partial.executed, partial.cached) == (3, 0)
        resumed = Campaign(configs=configs, cache_dir=tmp_path).run()
        assert (resumed.executed, resumed.cached) == (1, 3)
        assert resumed.records == Campaign(configs=configs).run().records

    def test_fresh_reexecutes_everything(self, tmp_path):
        configs = [config(seed=1)]
        Campaign(configs=configs, cache_dir=tmp_path).run()
        result = Campaign(configs=configs, cache_dir=tmp_path).run(fresh=True)
        assert (result.executed, result.cached) == (1, 0)
        again = Campaign(configs=configs, cache_dir=tmp_path).run()
        assert (again.executed, again.cached) == (0, 1)
        assert again.records == result.records

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        self.assert_corrupt_store_is_a_miss(tmp_path, truncate_bin)

    @pytest.mark.parametrize("corrupt", [garbage_manifest, chunk_without_runs],
                             ids=["garbage-manifest", "chunk-without-runs"])
    def test_corrupt_cache_store_is_a_miss(self, tmp_path, corrupt):
        self.assert_corrupt_store_is_a_miss(tmp_path, corrupt)

    def assert_corrupt_store_is_a_miss(self, tmp_path, corrupt):
        configs = [config(seed=1)]
        first = Campaign(configs=configs, cache_dir=tmp_path).run()
        corrupt(cache_store(tmp_path))
        result = Campaign(configs=configs, cache_dir=tmp_path).run()
        assert (result.executed, result.cached) == (1, 0)
        assert result.records == first.records
        ResultStore.load(cache_store(tmp_path))       # rewritten whole
        again = Campaign(configs=configs, cache_dir=tmp_path).run()
        assert (again.executed, again.cached) == (0, 1)

    def test_error_records_are_never_cached(self, tmp_path):
        bad = dict(config(seed=3), duration=-1.0)
        campaign = Campaign(configs=[bad], cache_dir=tmp_path)
        first = campaign.run()
        assert first.failed == 1
        second = Campaign(configs=[bad], cache_dir=tmp_path).run()
        assert (second.executed, second.cached) == (1, 0)

    def test_cache_key_depends_on_config_and_settings(self, tmp_path):
        Campaign(configs=[config(seed=1)], cache_dir=tmp_path).run()
        other = Campaign(configs=[config(seed=2)], cache_dir=tmp_path).run()
        assert (other.executed, other.cached) == (1, 0)
        assert len(list(tmp_path.iterdir())) == 1
        warm = Campaign(configs=[config(seed=1)], cache_dir=tmp_path,
                        warmup_intervals=5.0).run()
        assert (warm.executed, warm.cached) == (1, 0)
        assert len(list(tmp_path.iterdir())) == 2

    def test_nothing_under_cache_dir_is_unpickled(self, tmp_path):
        """A crafted pickle at every path an older pickle cache read is
        never opened: the cache is a ResultStore."""
        marker = tmp_path / "marker"
        cfg = config(seed=1)
        identity = json.dumps({
            "config": cfg, "version": __version__, "format": CACHE_FORMAT,
            "warmup_intervals": 3.0, "observe": False,
            "stream_measures": False, "backend": "scalar",
        }, sort_keys=True, separators=(",", ":"))
        cache = tmp_path / "cache"
        cache.mkdir()
        payload = pickle.dumps(Mknod(str(marker)))
        (cache / f"{hashlib.sha256(identity.encode()).hexdigest()}.pkl") \
            .write_bytes(payload)
        result = Campaign(configs=[cfg], cache_dir=cache).run()
        assert not marker.exists()
        assert result.executed == 1
        for path in cache.rglob("*.pkl"):
            pickle.loads(path.read_bytes())      # the payload is armed
        assert marker.exists()


    def test_source_edit_invalidates_the_cache(self, tmp_path):
        """The cache identity covers the source bytes: after a one-byte
        edit to Figure 1's module, no record the old code computed is
        served; an unedited rerun still executes nothing."""
        src = tmp_path / "src"
        shutil.copytree(pathlib.Path(repro.__file__).parent, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        configs = [config(seed=seed, duration=2.0) for seed in (1, 2)]
        script = ("import json, sys\n"
                  "from repro.runner.campaign import Campaign\n"
                  "result = Campaign(configs=json.loads(sys.argv[1]),\n"
                  "                  cache_dir=sys.argv[2]).run()\n"
                  "print(result.executed)\n")

        def executed():
            out = subprocess.run(
                [sys.executable, "-c", script, json.dumps(configs),
                 str(tmp_path / "cache")],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True, text=True, check=True)
            return int(out.stdout)

        assert executed() == len(configs)
        assert executed() == 0
        sync = src / "repro" / "core" / "sync.py"
        data = sync.read_bytes()
        at = data.index(b'"""') + 3          # first docstring letter
        sync.write_bytes(data[:at] + bytes([data[at] ^ 0x20]) + data[at + 1:])
        assert executed() == len(configs)
        assert executed() == 0


class Mknod:
    """A pickle whose load creates ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mknod, (self.path,)


class TestFallbackSurfacing:
    def test_scalar_backend_reports_no_fallbacks(self):
        result = Campaign(configs=[config(seed=1)]).run()
        assert result.scalar_fallbacks == 0
        assert result.fallback_reasons() == {}
        assert result.records[0].scalar_fallback_reason is None

    def test_vector_backend_in_envelope_reports_no_fallbacks(self):
        result = Campaign(configs=[config(seed=1)], backend="vector").run()
        assert result.scalar_fallbacks == 0
        assert result.records[0].scalar_fallback_reason is None

    def test_vector_backend_fallback_reason_surfaces(self):
        # Message recording is outside the vector envelope: the run
        # still succeeds, but the fallback is counted and explained.
        cfg = dict(config(seed=1), record_messages=True)
        result = Campaign(configs=[cfg], backend="vector").run()
        assert result.records[0].error is None
        assert result.scalar_fallbacks == 1
        reasons = result.fallback_reasons()
        assert len(reasons) == 1
        (reason, count), = reasons.items()
        assert count == 1 and "scalar" in reason

    def test_observed_vector_campaign_reports_fallback(self):
        result = Campaign(configs=[config(seed=1)], backend="vector",
                          observe=True).run()
        assert result.scalar_fallbacks == 1
        assert "flight recorder" in result.records[0].scalar_fallback_reason


class TestBisect:
    @staticmethod
    def liar_config(liars: int, seed: int, duration: float = 6.0) -> dict:
        """Mini-E7: `liars` colluding two-faced nodes on n=4, f=1."""
        cfg = {
            "name": f"e7-bisect-{liars}-{seed}",
            "params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4,
                       "pi": 2.0},
            "duration": duration,
            "seed": seed,
            "enforce_f_limit": False,
            "extra": {"liars": liars, "within_f": liars <= 1},
        }
        if liars:
            cfg["plan"] = {
                "kind": "single-burst",
                "strategy": {"name": "two-faced", "magnitude": 8.0},
                "victims": list(range(liars)),
                "start": 1.0,
                "dwell": duration - 1.5,
            }
        return cfg

    def test_bisect_finds_the_f_boundary(self, tmp_path):
        """Campaign.bisect reproduces the E7 resilience boundary on the
        smallest network: f=1 colluding liar is survivable, f+1=2 is
        not."""
        result = Campaign.bisect(self.liar_config, lo=0, hi=3,
                                 store_dir=tmp_path / "bisect")
        assert result.last_pass == 1   # exactly f
        assert result.first_fail == 2  # exactly f + 1
        assert result.probes[0] is True and result.probes[3] is False
        # The pooled store kept every probe run, tagged and queryable.
        store = result.store
        assert store.query().where("config.extra.within_f", "==", True) \
            .aggregate(ok=("ok", "all"))["ok"] is True
        broken = store.query().where("config.extra.liars", ">=", 2)
        assert broken.aggregate(any_ok=("ok", "any"))["any_ok"] is False
        # Saved store carries the probe map for the EXPERIMENTS entry.
        from repro.runner.store import ResultStore
        saved = ResultStore.load(tmp_path / "bisect")
        assert saved.meta["bisect"]["last_pass"] == 1
        assert saved.meta["bisect"]["first_fail"] == 2

    def test_bisect_degenerate_orientations(self):
        always_pass = lambda q: True
        always_fail = lambda q: False
        result = Campaign.bisect(self.liar_config, lo=0, hi=1,
                                 passes=always_pass)
        assert (result.last_pass, result.first_fail) == (1, None)
        result = Campaign.bisect(self.liar_config, lo=0, hi=1,
                                 passes=always_fail)
        assert (result.last_pass, result.first_fail) == (None, 0)

    def test_bisect_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            Campaign.bisect(self.liar_config, lo=3, hi=1)


class TestConstruction:
    def test_from_scenarios_round_trips_builders(self):
        params = default_params(n=4, f=1)
        scenarios = [
            benign_scenario(params, duration=2.0, seed=1),
            mobile_byzantine_scenario(params, duration=4.0, seed=2),
            recovery_scenario(params, duration=4.0, seed=3),
            split_world_scenario(params, duration=4.0, seed=4),
        ]
        campaign = Campaign.from_scenarios(scenarios)
        assert len(campaign.configs) == 4
        result = campaign.run()
        assert isinstance(result, CampaignResult)
        assert result.all_ok, [r.error for r in result.errors()]

    def test_from_scenarios_rejects_raw_callables(self):
        scenario = benign_scenario(default_params(n=4, f=1), duration=1.0)
        scenario = dataclasses.replace(
            scenario, plan_builder=lambda sc, clocks: [])
        with pytest.raises(ConfigurationError, match="plan_builder"):
            Campaign.from_scenarios([scenario])

    def test_sweep_and_replicate_records(self):
        base = benign_scenario(default_params(n=4, f=1), duration=1.0, seed=0)
        records = Campaign.sweep(
            base, [{"seed": 1}, {"seed": 2}, {"duration": 2.0}]).run().records
        assert [r.seed for r in records] == [1, 2, 0]
        assert records[2].duration == 2.0
        reps = Campaign.replicate(base, seeds=[4, 5]).run().records
        assert [r.seed for r in reps] == [4, 5]
