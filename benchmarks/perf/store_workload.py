"""``store_rw``: the columnar result store, writes beside reads.

Set-up runs a small campaign and tiles its ``RunRecord`` s to the
workload's row count with distinct ``index`` / ``seed`` /
``config.seed``.  One unit appends them in chunks to a fresh store
directory, loads the directory back, answers a fixed query mix and
reassembles every tenth row, which must equal its input.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Any

from harness import (OUT, Unit, Workload, digest, mean, median, percentile,
                     record_json)
from sim_workloads import SHORT_RUN_DURATION, short_run_params
from tracing import Tracer

#: Every ``SAMPLE_STRIDE``-th row is reassembled and compared.
SAMPLE_STRIDE = 10
_SUMMARIZE = "runner.stats:summarize_grouped"


def _where_name(query, column, op="notnull", value=None) -> str:
    return "runner.store:where_eq" if op == "==" \
        else "runner.store:where_range"


class StoreRW(Workload):
    name = "store_rw"
    work_unit = "row"
    imports = ("repro.runner.store", "repro.runner.stats")

    def setup(self, seed: int, size: str, seconds: float) -> dict[str, Any]:
        from repro.runner.builders import mobile_byzantine_scenario
        from repro.runner.campaign import Campaign
        chunks, chunk_rows, per_n = (3, 100, 1) if size == "smoke" \
            else (8, 500, 2)
        configs = []
        for n in (4, 7, 10):
            params = short_run_params(n)
            for _ in range(per_n):
                configs.append(mobile_byzantine_scenario(
                    params, duration=SHORT_RUN_DURATION,
                    seed=seed * 1000 + len(configs)).to_config())
        base = Campaign(configs, stream_measures=True).run(workers=1).records
        rows = chunks * chunk_rows
        first = seed * 1000
        records = []
        for i in range(rows):
            source = base[i % len(base)]
            records.append(dataclasses.replace(
                source, index=i, seed=first + i,
                config={**source.config, "seed": first + i}))
        return {
            "chunks": [records[c * chunk_rows:(c + 1) * chunk_rows]
                       for c in range(chunks)],
            "rows": rows,
            # A narrow range: one group per selected row, and every
            # group aggregate walks whole columns again.
            "lo": first + rows // 2, "hi": first + rows // 2 + rows // 40,
            "sample": [record_json(records[i])
                       for i in range(0, rows, SAMPLE_STRIDE)],
            "f2_rows": sum(1 for r in records
                           if r.config["params"]["f"] == 2),
            "dirs": 0,
            "tmp": tempfile.TemporaryDirectory(dir=OUT),
        }

    def unit(self, state, index: int) -> Unit:
        from repro.runner import stats, store
        state["dirs"] += 1
        directory = Path(state["tmp"].name) / f"store{state['dirs']}"
        for chunk in state["chunks"]:
            store.append_to_dir(directory, chunk, meta={"unit": index})
        state["last_dir"] = directory

        loaded = store.ResultStore.load(directory)
        matched = loaded.query().where("config.params.f", "==", 2).count()
        groups = (loaded.query()
                  .where("seed", ">=", state["lo"])
                  .where("seed", "<", state["hi"])
                  .group_by("config.params.n", "config.seed")
                  .aggregate(count=("index", "count"),
                             mean=("verdict.measured_deviation", "mean"),
                             low=("verdict.measured_deviation", "min"),
                             high=("verdict.measured_deviation", "max")))
        summary = stats.summarize_grouped(loaded, "config.params.n",
                                          "verdict.measured_deviation")
        rebuilt = [record_json(loaded.record(i))
                   for i in range(0, state["rows"], SAMPLE_STRIDE)]

        wrong = sum(1 for got, want in zip(rebuilt, state["sample"])
                    if got != want)
        wrong += matched != state["f2_rows"]
        wrong += len(groups) != state["hi"] - state["lo"]
        wrong += loaded.n_runs != state["rows"]
        return Unit(
            work=state["rows"], attempted=len(rebuilt) + 3, failed=wrong,
            digest=digest([matched, groups[0], groups[-1],
                           {str(k): v.mean for k, v in summary.items()},
                           rebuilt[0]]))

    # -- traced run ----------------------------------------------------

    def install(self, tracer: Tracer, state) -> None:
        tracer.patch("repro.runner.store:append_to_dir",
                     "runner.store:append_to_dir")
        tracer.patch("repro.runner.store:ResultStore.from_records",
                     "runner.store:from_records")
        tracer.patch("repro.runner.store:ResultStore.load",
                     "runner.store:load")
        tracer.patch("repro.runner.store:Query.where", _where_name)
        tracer.patch("repro.runner.store:Query.group_by",
                     "runner.store:group_by")
        tracer.patch("repro.runner.store:GroupedQuery.aggregate",
                     "runner.store:group_aggregate")
        tracer.patch("repro.runner.stats:summarize_grouped", _SUMMARIZE)
        tracer.patch("repro.runner.store:ResultStore.record",
                     "runner.store:record")

    def layers(self, state, tracer: Tracer, ref, traced, seconds: float
               ) -> dict[str, float]:
        _, total_s, _ = tracer.layer_seconds()
        units = len(traced["units"])
        rows = state["rows"] * units
        appends = tracer.durations_ms("runner.store:append_to_dir")
        # summarize_grouped filters with == itself; only the query mix's
        # own == filter (no summarize parent) is where_ms.
        spans = tracer.spans
        own_eq = sum(
            (span[2] - span[1]) / 1e9 for span in spans
            if span is not None and span[0] == "runner.store:where_eq"
            and (span[3] < 0 or spans[span[3]][0] != _SUMMARIZE))
        grouping = (total_s.get("runner.store:where_range", 0.0)
                    + total_s.get("runner.store:group_by", 0.0)
                    + total_s.get("runner.store:group_aggregate", 0.0))
        load = total_s.get("runner.store:load", 0.0)
        summarize = total_s.get(_SUMMARIZE, 0.0)
        size = sum(f.stat().st_size
                   for f in state["last_dir"].iterdir())
        return {
            "runner.store.explode_us_per_row":
                total_s.get("runner.store:from_records", 0.0) / rows * 1e6,
            "runner.store.append_chunk_ms": median(appends),
            "runner.store.append_chunk_p95_ms": percentile(appends, 95),
            "runner.store.bytes_per_row": size / state["rows"],
            "runner.store.append_rows_per_s": rows / (sum(appends) / 1e3),
            "runner.store.load_s": load / units,
            "runner.store.where_ms": own_eq / units * 1e3,
            "runner.store.group_aggregate_ms": grouping / units * 1e3,
            "runner.stats.summarize_ms": summarize / units * 1e3,
            "runner.store.to_records_us_per_row": 1e3 * mean(
                tracer.durations_ms("runner.store:record")),
            "runner.store.query_rows_per_s":
                3 * rows / (load + own_eq + grouping + summarize),
        }
