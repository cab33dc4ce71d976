"""The benchmark's vocabulary: workloads, metrics, bounds, predictions.

``BENCHMARK.json`` at the repository root is generated from this file
(``python benchmarks/perf/catalog.py`` prints it; the smoke test holds
the two equal).  The JSON file has a fixed schema with no room for the
*why* of a layer metric, so the layer -> end-to-end predictions
("moves") live here and in ``README.md``.

Every workload emits every end-to-end metric, so each is defined per
*unit of work* — the thing a user asks for once and waits on:

=================  ============================================  =========
workload           one unit of work                              work item
=================  ============================================  =========
``scalar_byz``     one run -> post-hoc measures -> verdict       event
``scalar_stream``  one run with online measures -> verdict       event
``vector_batch``   one vector-backend campaign of K seeds        event
``campaign_sweep`` cold 2-worker campaign + cached re-run +      event
                   the builtin evaluation specs over its store
``store_rw``       append N rows in chunks, load, query mix,     row
                   round-trip sample
``live_query``     one closed-loop pass of Q ``now`` queries     query
=================  ============================================  =========
"""

from __future__ import annotations

import json
import sys
from typing import Any

RUN_SECONDS = 8

WORKLOADS: list[dict[str, str]] = [
    {"name": "scalar_byz",
     "why": "Byzantine mix on the scalar event loop, post-hoc measures: "
            "sim.engine, sim.runtime, net, clocks, core.* and adversary do "
            "~93% of the work; vector, streaming, pool, store, wire none."},
    {"name": "scalar_stream",
     "why": "Same engine, 5x finer grid, online measures: "
            "metrics.streaming.on_sample is ~40% of the wall here and absent "
            "from scalar_byz, so a gain for one use that costs the other "
            "shows."},
    {"name": "vector_batch",
     "why": "n=64 rotating-silent mega-sim seeds through Campaign(backend="
            "vector): sim.vector.simulate_run does nearly everything, the "
            "scalar engine and the pool nothing."},
    {"name": "campaign_sweep",
     "why": "Short runs (n in 4,7,10,13) on a 2-worker pool with cache, "
            "store, cached re-run and evaluation specs: per-run set-up, "
            "record assembly, pickling, persistence are a large share."},
    {"name": "store_rw",
     "why": "Only runner.store and runner.stats work: chunked appends "
            "beside load, where/group-by/summarize and a record round "
            "trip; in campaign_sweep the store is <1% of wall."},
    {"name": "live_query",
     "why": "A served `repro live --transport udp --serve` child driven "
            "over real UDP by one client socket: rt.codec, rt.transport, "
            "service.query and the event loop do all the work."},
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]

#: End-to-end metrics; every workload reports all of them, never 0.
END_TO_END: list[dict[str, Any]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median import time of the layers the workload uses + median "
             "of repeated (generate inputs, build state, discarded warm-up "
             "unit); for live_query: spawn child until first reply + "
             "warm-up queries"},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.20,
     "what": "median wall time of one unit of work (request -> verdict / "
             "last reply)"},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.20,
     "what": "median over units of work items per host second, set-up of "
             "each run and its measures included: simulated events/s on "
             "the four simulator workloads, rows/s through the whole "
             "write+read cycle on store_rw, closed-loop queries/s (window "
             "32) on live_query"},
    {"name": "cpu_us_per_work", "unit": "us", "better": "lower",
     "bound": 0.20,
     "what": "CPU time (user+system) of every process involved, per work "
             "item, over the measured phase"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10,
     "what": "largest resident set among the processes involved"},
]


def _layer(name: str, unit: str, better: str, moves: list[tuple[str, str]],
           home: list[str], what: str) -> dict[str, Any]:
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "home": home, "what": what}


_SCALAR = ["scalar_byz", "scalar_stream"]
_EV_SCALAR = [("work_per_s", "scalar_byz"), ("work_per_s", "scalar_stream")]
_EV_BYZ = [("work_per_s", "scalar_byz")]
_EV_STREAM = [("work_per_s", "scalar_stream")]
_EV_VECTOR = [("work_per_s", "vector_batch"), ("wall_s", "vector_batch")]
_SWEEP = [("work_per_s", "campaign_sweep"), ("wall_s", "campaign_sweep")]
_STORE = [("work_per_s", "store_rw"), ("wall_s", "store_rw")]
_QPS = [("work_per_s", "live_query"), ("wall_s", "live_query")]
_LIVE_CPU = [("cpu_us_per_work", "live_query"),
             ("work_per_s", "live_query")]

#: Per-layer metrics.  ``home`` lists the workloads whose traced run
#: measures the metric (it reads 0 elsewhere); ``moves`` lists the
#: (end-to-end metric, workload) pairs it should move.  ``_ns``/``_us``
#: are direct-call probes, ``_s``/counts come from the traced run.
PER_LAYER: list[dict[str, Any]] = [
    _layer("runner.experiment.build_ms", "ms", "lower", _SWEEP,
           _SCALAR + ["campaign_sweep"],
           "mean time inside experiment.run before Simulator.run starts"),
    _layer("sim.engine.run_s", "s", "lower", _EV_SCALAR, _SCALAR,
           "time inside Simulator.run over the traced pass"),
    _layer("sim.engine.self_s", "s", "lower", _EV_SCALAR, _SCALAR,
           "Simulator.run minus its callback children (heap + loop)"),
    _layer("sim.engine.events", "count", "lower", _EV_SCALAR, _SCALAR,
           "events executed in the traced pass (exact)"),
    _layer("sim.engine.heap_high_water", "count", "lower", _EV_SCALAR,
           _SCALAR, "largest event heap of any run (exact)"),
    _layer("sim.engine.cancelled_ratio", "ratio", "lower", _EV_SCALAR,
           _SCALAR, "cancelled / pushed events: wasted pushes (exact)"),
    _layer("sim.engine.chain_ns", "ns", "lower", _EV_SCALAR, _SCALAR,
           "per event, 10k chained timers on a bare Simulator"),
    _layer("sim.runtime.timer_ns", "ns", "lower", _EV_SCALAR, _SCALAR,
           "per event, same chain through SimRuntime.set_local_timer"),
    _layer("net.network.send_s", "s", "lower", _EV_BYZ, _SCALAR,
           "self time of Network.send spans"),
    _layer("net.network.sends", "count", "lower", _EV_BYZ, _SCALAR,
           "Network.send calls"),
    _layer("net.links.draw_ns", "ns", "lower", _EV_BYZ, _SCALAR,
           "one link-delay draw from the workload's delay model"),
    _layer("clocks.read_ns", "ns", "lower",
           _EV_BYZ + [("work_per_s", "scalar_stream")], _SCALAR,
           "one LogicalClock.read on the workload's clock model"),
    _layer("clocks.invert_ns", "ns", "lower", _EV_BYZ, _SCALAR,
           "one local->real inversion (real_time_after) used by timers"),
    _layer("core.estimation.s", "s", "lower", _EV_BYZ, _SCALAR,
           "self time of EstimationSession begin/on_pong/finish"),
    _layer("core.estimation.sessions", "count", "lower", _EV_BYZ, _SCALAR,
           "estimation sessions begun"),
    _layer("core.estimation.timeouts", "count", "lower", _EV_BYZ, _SCALAR,
           "peer estimates that timed out (exact)"),
    _layer("core.sync.s", "s", "lower", _EV_BYZ, _SCALAR,
           "self time of Sync timers and good-state message handling"),
    _layer("core.sync.rounds", "count", "lower", _EV_BYZ, _SCALAR,
           "completed Sync executions (exact)"),
    _layer("core.convergence.decide_s", "s", "lower", _EV_BYZ, _SCALAR,
           "time inside PaperConvergence.decide"),
    _layer("core.convergence.decides", "count", "lower", _EV_BYZ, _SCALAR,
           "convergence decisions taken"),
    _layer("core.convergence.decide_ns.w15", "ns", "lower", _EV_BYZ,
           _SCALAR, "decide_arrays on 15 estimates (n=16 less self)"),
    _layer("core.convergence.decide_ns.w63", "ns", "lower", _EV_VECTOR,
           _SCALAR + ["vector_batch"], "decide_arrays on 63 estimates"),
    _layer("core.convergence.own_discarded_share", "ratio", "lower",
           _EV_BYZ, _SCALAR, "WayOff-branch decisions / decisions (exact)"),
    _layer("adversary.s", "s", "lower", _EV_BYZ, _SCALAR,
           "self time of break-in/leave events and controlled-node "
           "message handling"),
    _layer("adversary.corruptions", "count", "lower", _EV_BYZ, _SCALAR,
           "planned corruption intervals (exact)"),
    _layer("metrics.sampler.s", "s", "lower", _EV_SCALAR, _SCALAR,
           "self time of sampling-grid events"),
    _layer("metrics.sampler.samples", "count", "lower", _EV_SCALAR,
           _SCALAR, "sampling-grid events fired"),
    _layer("metrics.measures.posthoc_s", "s", "lower",
           [("wall_s", "scalar_byz")], _SCALAR,
           "time in RunResult measure methods after the run"),
    _layer("metrics.measures.samples_per_s", "1/s", "higher",
           [("wall_s", "scalar_byz")], ["scalar_byz"],
           "recorded samples / posthoc_s"),
    _layer("metrics.streaming.on_sample_s", "s", "lower",
           _EV_STREAM + [("work_per_s", "vector_batch"),
                         ("work_per_s", "campaign_sweep")],
           ["scalar_stream", "vector_batch"],
           "time inside OnlineMeasures.on_sample"),
    _layer("metrics.streaming.us_per_sample", "us", "lower", _EV_STREAM,
           ["scalar_stream", "vector_batch"], "on_sample_s / samples"),
    _layer("metrics.streaming.finalize_ms", "ms", "lower", _EV_STREAM,
           ["scalar_stream", "vector_batch"],
           "mean OnlineMeasures.finalize per run"),
    _layer("runner.vector.spec_ms", "ms", "lower", _EV_VECTOR,
           ["vector_batch"], "mean vector_spec (scenario -> flat spec)"),
    _layer("sim.vector.simulate_s", "s", "lower", _EV_VECTOR,
           ["vector_batch"], "time inside simulate_run"),
    _layer("sim.vector.self_s", "s", "lower", _EV_VECTOR, ["vector_batch"],
           "simulate_run minus on_sample and decide_arrays children"),
    _layer("sim.vector.decide_s", "s", "lower", _EV_VECTOR,
           ["vector_batch"], "decide_arrays time under simulate_run"),
    _layer("sim.vector.events", "count", "lower", _EV_VECTOR,
           ["vector_batch"], "events processed in the traced pass (exact)"),
    _layer("sim.vector.ns_per_event", "ns", "lower", _EV_VECTOR,
           ["vector_batch"], "simulate_s / events"),
    _layer("sim.vector.record_parity", "ratio", "higher", _EV_VECTOR,
           ["vector_batch"],
           "1 when sampled seeds give byte-identical scalar records"),
    _layer("runner.campaign.fallback_share", "ratio", "lower", _EV_VECTOR,
           ["vector_batch"], "vector runs that fell back to scalar"),
    _layer("runner.campaign.runs_per_s", "1/s", "higher",
           _EV_VECTOR + _SWEEP, ["vector_batch", "campaign_sweep"],
           "runs / wall of the untraced reference pass"),
    _layer("runner.campaign.serial_run_ms", "ms", "lower", _SWEEP,
           ["campaign_sweep"], "median execute_run, workers=1"),
    _layer("runner.campaign.serial_run_p95_ms", "ms", "lower", _SWEEP,
           ["campaign_sweep"], "p95 execute_run, workers=1"),
    _layer("runner.campaign.record_ms", "ms", "lower", _SWEEP,
           ["campaign_sweep"], "mean execute_run minus experiment.run"),
    _layer("runner.campaign.pool_efficiency", "ratio", "higher", _SWEEP,
           ["campaign_sweep"],
           "serial execute_run sum / (workers x parallel wall)"),
    _layer("runner.campaign.pickle_us", "us", "lower", _SWEEP,
           ["campaign_sweep"], "pickle dumps+loads of one RunRecord"),
    _layer("runner.campaign.record_bytes", "bytes", "lower", _SWEEP,
           ["campaign_sweep"], "pickled RunRecord size"),
    _layer("runner.campaign.resume_ms", "ms", "lower", _SWEEP,
           ["campaign_sweep"], "fully cached re-run of the campaign"),
    _layer("runner.campaign.cache_hits", "count", "higher", _SWEEP,
           ["campaign_sweep"], "records served from cache on the re-run"),
    _layer("runner.campaign.cache_bytes", "bytes", "lower", _SWEEP,
           ["campaign_sweep"], "cache directory size after the cold run"),
    _layer("runner.scenario.config_us", "us", "lower", _SWEEP,
           ["campaign_sweep"], "Scenario.to_config + from_config"),
    _layer("runner.store.campaign_append_ms", "ms", "lower", _SWEEP,
           ["campaign_sweep"], "mean append_to_dir under Campaign.run"),
    _layer("runner.evaluation.evaluate_ms", "ms", "lower", _SWEEP,
           ["campaign_sweep"], "evaluate_all over the campaign store"),
    _layer("runner.evaluation.checks", "count", "higher", _SWEEP,
           ["campaign_sweep"], "checks evaluated by the builtin specs"),
    _layer("runner.store.explode_us_per_row", "us", "lower", _STORE,
           ["store_rw"], "ResultStore.from_records per row"),
    _layer("runner.store.append_chunk_ms", "ms", "lower", _STORE,
           ["store_rw"], "median append_to_dir of one chunk"),
    _layer("runner.store.append_chunk_p95_ms", "ms", "lower", _STORE,
           ["store_rw"],
           "p95 chunk append: grows with chunk count if the manifest "
           "rewrite does"),
    _layer("runner.store.bytes_per_row", "bytes", "lower", _STORE,
           ["store_rw"], "store directory size / rows"),
    _layer("runner.store.append_rows_per_s", "1/s", "higher", _STORE,
           ["store_rw"], "rows / time of the append phase"),
    _layer("runner.store.load_s", "s", "lower", _STORE, ["store_rw"],
           "ResultStore.load of the whole directory"),
    _layer("runner.store.where_ms", "ms", "lower", _STORE, ["store_rw"],
           "the == filter of the query mix"),
    _layer("runner.store.group_aggregate_ms", "ms", "lower", _STORE,
           ["store_rw"], "range filter + two-key group_by + aggregate"),
    _layer("runner.stats.summarize_ms", "ms", "lower", _STORE,
           ["store_rw"], "summarize_grouped over the store"),
    _layer("runner.store.to_records_us_per_row", "us", "lower", _STORE,
           ["store_rw"], "row -> RunRecord reassembly"),
    _layer("runner.store.query_rows_per_s", "1/s", "higher", _STORE,
           ["store_rw"],
           "rows scanned by the query mix / (load + queries) time"),
    _layer("rt.codec.encode_ns", "ns", "lower", _QPS, ["live_query"],
           "binary encode, mean over query/reply/Ping/Pong"),
    _layer("rt.codec.decode_ns", "ns", "lower", _QPS, ["live_query"],
           "binary decode, same mix"),
    _layer("rt.codec.decode_json_ns", "ns", "lower", [], ["live_query"],
           "legacy JSON wire decode, same mix (same layer, other use)"),
    _layer("rt.codec.datagram_bytes", "bytes", "lower", _QPS,
           ["live_query"], "mean binary query+reply datagram size"),
    _layer("service.query.answer_ns", "ns", "lower", _QPS, ["live_query"],
           "answer_query without sockets"),
    _layer("service.query.server_cpu_us", "us", "lower", _LIVE_CPU,
           ["live_query"], "child CPU per query over the closed loop"),
    _layer("service.query.client_cpu_us", "us", "lower", _LIVE_CPU,
           ["live_query"], "generator CPU per query over the closed loop"),
    _layer("rt.transport.residual_us", "us", "lower", _QPS, ["live_query"],
           "1/qps minus codec x2 minus answer: socket + event loop"),
    _layer("service.query.qps", "1/s", "higher", _QPS, ["live_query"],
           "closed loop, window 32, median of the reference passes"),
    _layer("service.query.mixed_qps", "1/s", "higher", _QPS,
           ["live_query"], "closed loop of the now/validate/epoch mix"),
    _layer("service.query.p50_ms.r10000", "ms", "lower", [],
           ["live_query"], "open loop at 10 000/s, from due time"),
    _layer("service.query.p999_ms", "ms", "lower", [], ["live_query"],
           "p99.9 of the 10 000/s pass"),
    _layer("service.query.p99_ms.r5000", "ms", "lower", [],
           ["live_query"], "open-loop p99 at 5 000/s"),
    _layer("service.query.p99_ms.r10000", "ms", "lower", [],
           ["live_query"], "open-loop p99 at 10 000/s"),
    _layer("service.query.p99_ms.r20000", "ms", "lower", [],
           ["live_query"], "open-loop p99 at 20 000/s"),
    _layer("service.query.p99_ms.r30000", "ms", "lower", [],
           ["live_query"], "open-loop p99 at 30 000/s"),
    _layer("service.query.rate_ok_qps", "1/s", "higher", [],
           ["live_query"],
           "highest fixed rate with p99 < delta and no growing backlog"),
    _layer("service.query.late_p99_ms", "ms", "lower", [], ["live_query"],
           "generator lateness p99 at 10 000/s (pass invalid above 0.25)"),
    _layer("service.query.backlog_max", "count", "lower", [],
           ["live_query"], "most queries in flight at 10 000/s"),
    _layer("service.query.timeouts", "count", "lower", [], ["live_query"],
           "queries never answered, all passes"),
    _layer("service.query.unmatched", "count", "lower", [], ["live_query"],
           "replies with no waiting query"),
    _layer("service.query.dropped", "count", "lower", [], ["live_query"],
           "server-side drop counters from the stats admin op"),
    _layer("rt.live.sync_rounds", "count", "higher", [], ["live_query"],
           "Sync rounds the child completed while serving"),
    _layer("rt.live.spread_over_dev", "ratio", "lower", [], ["live_query"],
           "max good-clock spread / Theorem 5 DEV (checked < 1)"),
    _layer("trace_overhead_share", "ratio", "lower", [], WORKLOAD_NAMES,
           "traced wall / untraced wall at equal size, minus 1"),
]

END_TO_END_NAMES = [m["name"] for m in END_TO_END]
PER_LAYER_NAMES = [m["name"] for m in PER_LAYER]
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict[str, Any]:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [{key: m[key] for key in
                        ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{key: m[key] for key in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
