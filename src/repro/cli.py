"""Command-line interface: run scenarios and print the verdict.

Usage (installed as ``python -m repro``)::

    python -m repro run --scenario mobile-byzantine --duration 20 --seed 1
    python -m repro run --scenario recovery --protocol minimal-correction
    python -m repro bounds --n 7 --f 2 --delta 0.005 --rho 5e-4 --pi 4
    python -m repro list

Subcommands:

* ``run`` — execute a canonical scenario and print the Theorem 5
  verdict and recovery report; ``--trace out.jsonl`` additionally
  records the run with a flight recorder and writes the observability
  event stream.
* ``trace`` — summarize a recorded event stream: span tree statistics,
  per-node metrics, and any live envelope-probe violations.
* ``bounds`` — evaluate the Theorem 5 formulas for a parameter choice
  without running anything (the deployment-planning calculator).
* ``sweep`` — run a campaign of JSON configs through the unified
  executor: ``--workers N`` fans out over a process pool (results
  byte-identical to serial), ``--cache-dir`` caches records in a result
  store keyed by config so re-invocations and interrupted campaigns
  re-execute only the missing runs (``--fresh`` ignores the cache), and
  ``--backend vector`` swaps in the vectorized batch engine (byte-identical
  records, automatic scalar fallback outside its envelope).
  ``--store DIR`` appends the results to a columnar
  :class:`~repro.runner.store.ResultStore` for later querying and
  evaluation.
* ``evaluate`` — judge a campaign's result store against registered
  :class:`~repro.runner.evaluation.EvaluationSpec` s and print a
  pass/fail report per spec; exits non-zero when any applicable spec
  fails (``--list`` shows the registry).
* ``soak`` — long randomized stress run (random f-limited plans,
  seeds advancing per segment) with per-segment invariant checks;
  exits non-zero on the first violated guarantee.
* ``live`` — deploy the same Sync protocol on real asyncio nodes
  (localhost UDP by default, ``--processes`` for one OS process per
  node) for a wall-clock duration, streaming live deviation telemetry
  through the observability bus.  Both modes print one report (per-node
  deviations, transport counters, the spread of every clock read at
  common instants); exits non-zero unless every spread stays under the
  Theorem 5 bound and no node's process failed.  With ``--serve``
  every node additionally answers client time queries on UDP port
  ``--serve-base-port + node``; ``--telemetry`` attaches the live
  telemetry plane (metrics registry + wall-clock Theorem 5 probe) and
  ``--metrics-port`` serves it as Prometheus text exposition plus JSON
  ``/health`` and ``/stats``.
* ``query`` — client side of ``live --serve``: issue ``now`` /
  ``validate`` / ``epoch`` queries against a serving node and print
  QPS and latency percentiles; exits non-zero on any failed query.
  ``--stats`` / ``--health`` instead fetch the node's introspection
  documents over the same UDP protocol.
* ``stats`` — scrape a running cluster's ``--metrics-port`` HTTP
  endpoint and print the health table (spread vs the Theorem 5 bound,
  per-node transport drop counters, query latency percentiles); exits
  non-zero unless the cluster is bounded and every ``--require`` metric
  family is present.
* ``list`` — show the available scenarios and protocols.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

from repro.core.params import ProtocolParams
from repro.metrics.report import check_mark, table

#: Scenario names of ``run --scenario``.  The builders live in
#: :data:`repro.runner.config.SCENARIOS` and are imported by the verbs
#: that run something, so the parser and the serving verbs load no
#: simulator.
SCENARIOS = ("benign", "mobile-byzantine", "recovery", "split-world")


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clock synchronization with faults and recoveries "
                    "(Barak-Halevi-Herzberg-Naor, PODC 2000) — simulator CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and print the verdict")
    run_p.add_argument("--config", default=None,
                       help="JSON scenario config file (overrides the other "
                            "run options)")
    run_p.add_argument("--json", dest="json_out", default=None,
                       help="write the run's RunRecord (a `sweep --json` "
                            "record) to this JSON file")
    run_p.add_argument("--trace", dest="trace_out", default=None,
                       help="record the run with a flight recorder and write "
                            "the observability event stream to this JSONL "
                            "file (summarize it with `repro trace`)")
    run_p.add_argument("--scenario", choices=sorted(SCENARIOS), default="mobile-byzantine")
    run_p.add_argument("--protocol", default="sync",
                       help="protocol name (see `repro list`)")
    run_p.add_argument("--duration", type=float, default=20.0,
                       help="simulated seconds")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--n", type=int, default=7)
    run_p.add_argument("--f", type=int, default=2)
    run_p.add_argument("--delta", type=float, default=0.005,
                       help="message delivery bound (s)")
    run_p.add_argument("--rho", type=float, default=5e-4, help="drift bound")
    run_p.add_argument("--pi", type=float, default=2.0,
                       help="adversary time period PI (s)")
    run_p.add_argument("--stream", action="store_true",
                       help="compute measures online during the run "
                            "(no clock trace kept; same verdict, "
                            "byte-identical measures)")

    bounds_p = sub.add_parser("bounds", help="evaluate Theorem 5 bounds only")
    for flag, kind, default in (("--n", int, 7), ("--f", int, 2),
                                ("--delta", float, 0.005),
                                ("--rho", float, 5e-4), ("--pi", float, 2.0)):
        bounds_p.add_argument(flag, type=kind, default=default)
    bounds_p.add_argument("--target-k", type=int, default=10)

    trace_p = sub.add_parser("trace", help="summarize a recorded event stream")
    trace_p.add_argument("path", help="JSONL event stream written by "
                                      "`repro run --trace`")
    trace_p.add_argument("--top", type=int, default=10,
                         help="rows in the slowest-estimations table")
    trace_p.add_argument("--chrome", default=None,
                         help="additionally write the span tree to this file "
                              "in Chrome trace_event format (about://tracing)")

    sweep_p = sub.add_parser("sweep", help="run a campaign of JSON configs "
                                           "(parallel, cached, resumable)")
    sweep_p.add_argument("configs", nargs="+",
                         help="JSON config files; each holds one config "
                              "object or a list of them")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="process count (default: serial in-process)")
    sweep_p.add_argument("--cache-dir", default=None,
                         help="result cache: one ResultStore per measurement "
                              "setting, keyed by config; repeated or "
                              "interrupted campaigns re-execute only missing "
                              "runs")
    sweep_p.add_argument("--fresh", action="store_true",
                         help="ignore existing cache entries (results are "
                              "still written back)")
    sweep_p.add_argument("--warmup-intervals", type=float, default=3.0,
                         help="warmup applied to measures, in analysis "
                              "intervals T")
    sweep_p.add_argument("--stream", action="store_true",
                         help="workers accumulate measures online instead "
                              "of keeping full clock traces (records are "
                              "byte-identical; part of the cache identity)")
    sweep_p.add_argument("--backend", choices=["scalar", "vector"],
                         default="scalar",
                         help="simulation backend: the scalar reference "
                              "engine or the vectorized batch engine "
                              "(byte-identical records, automatic scalar "
                              "fallback outside the vector envelope; part "
                              "of the cache identity)")
    sweep_p.add_argument("--json", dest="json_out", default=None,
                         help="write records and campaign summary to this "
                              "JSON file")
    sweep_p.add_argument("--store", dest="store_dir", default=None,
                         help="append results to the columnar ResultStore at "
                              "this directory (the `repro evaluate` input)")

    evaluate_p = sub.add_parser(
        "evaluate", help="judge a campaign's result store against "
                         "registered evaluation specs")
    evaluate_p.add_argument("store_dir", nargs="?", default=None,
                            help="a ResultStore directory (written by "
                                 "`repro sweep --store` or Campaign(store_dir=…))")
    evaluate_p.add_argument("--spec", action="append", default=None,
                            help="spec name to evaluate (repeatable; default: "
                                 "every registered spec, skipping the "
                                 "inapplicable ones)")
    evaluate_p.add_argument("--json", dest="json_out", default=None,
                            help="additionally write the reports to this "
                                 "JSON file")
    evaluate_p.add_argument("--list", action="store_true", dest="list_specs",
                            help="list registered specs and exit")

    soak_p = sub.add_parser("soak", help="randomized long-run invariant check")
    soak_p.add_argument("--segments", type=int, default=10,
                        help="number of independent run segments")
    soak_p.add_argument("--segment-duration", type=float, default=20.0,
                        help="simulated seconds per segment")
    soak_p.add_argument("--seed", type=int, default=0)
    soak_p.add_argument("--n", type=int, default=7)
    soak_p.add_argument("--f", type=int, default=2)

    live_p = sub.add_parser("live", help="run Sync in real time on asyncio "
                                         "nodes (localhost UDP)")
    live_p.add_argument("--nodes", type=int, default=4)
    live_p.add_argument("--f", type=int, default=1)
    live_p.add_argument("--duration", type=float, default=2.0,
                        help="wall-clock seconds to run")
    live_p.add_argument("--delta", type=float, default=0.02,
                        help="assumed delivery bound (s); keep well above "
                             "real localhost latency")
    live_p.add_argument("--rho", type=float, default=1e-4)
    live_p.add_argument("--pi", type=float, default=2.0)
    live_p.add_argument("--transport", choices=("udp", "loopback"),
                        default="udp")
    live_p.add_argument("--sample-interval", type=float, default=0.1,
                        help="telemetry sampling period (s)")
    live_p.add_argument("--seed", type=int, default=0,
                        help="seed for the per-node clock models "
                             "(rates and initial offsets)")
    live_p.add_argument("--trace", dest="trace_out", default=None,
                        help="write the live.* observability event stream "
                             "to this JSONL file")
    live_p.add_argument("--processes", action="store_true",
                        help="one OS process per node (UDP on fixed ports) "
                             "instead of n runtimes in one process")
    live_p.add_argument("--base-port", type=int, default=19200,
                        help="first UDP port for --processes mode")
    live_p.add_argument("--node-index", type=int, default=None,
                        help=argparse.SUPPRESS)  # child mode, spawned by --processes
    live_p.add_argument("--epoch", type=float, default=None,
                        help=argparse.SUPPRESS)  # shared monotonic epoch for children
    live_p.add_argument("--serve", action="store_true",
                        help="answer client time queries during the run "
                             "(one UDP endpoint per node)")
    live_p.add_argument("--serve-base-port", type=int, default=19300,
                        help="query port of node 0; node i serves on "
                             "base+i (0 = ephemeral ports)")
    live_p.add_argument("--telemetry", action="store_true",
                        help="attach the live telemetry plane (metrics "
                             "registry, span tracer, wall-clock Theorem 5 "
                             "probe); implied by --metrics-port and --trace")
    live_p.add_argument("--metrics-port", type=int, default=None,
                        help="serve Prometheus /metrics plus JSON /health "
                             "and /stats on this HTTP port while the "
                             "cluster runs (0 = ephemeral; implies "
                             "--telemetry)")
    live_p.add_argument("--json", dest="json_out", default=None,
                        help="write the full live report (incl. transport "
                             "drop counters) to this JSON file, '-' for "
                             "stdout")

    query_p = sub.add_parser("query", help="query a node served by "
                                           "`repro live --serve`")
    query_p.add_argument("--host", default="127.0.0.1")
    query_p.add_argument("--port", type=int, default=19300,
                         help="query port of the target node")
    query_p.add_argument("--count", type=int, default=10,
                         help="number of queries to issue")
    query_p.add_argument("--op", choices=("now", "validate", "epoch", "mixed"),
                         default="mixed",
                         help="operation to issue (mixed cycles all three)")
    query_p.add_argument("--max-age", type=float, default=1.0,
                         help="freshness window for validate queries (s)")
    query_p.add_argument("--epoch-length", type=float, default=10.0,
                         help="epoch length for epoch queries (s)")
    query_p.add_argument("--timeout", type=float, default=2.0,
                         help="per-query reply timeout (s)")
    query_p.add_argument("--stats", action="store_true",
                         help="fetch the node's introspection stats "
                              "document instead of issuing time queries")
    query_p.add_argument("--health", action="store_true",
                         help="fetch the node's live Theorem 5 health "
                              "document instead of issuing time queries")
    query_p.add_argument("--json", dest="json_out", default=None,
                         help="write the query/stats result to this JSON "
                              "file, '-' for stdout")

    stats_p = sub.add_parser("stats", help="scrape a running cluster's "
                                           "metrics endpoint and print a "
                                           "health table")
    stats_p.add_argument("--host", default="127.0.0.1")
    stats_p.add_argument("--port", type=int, required=True,
                         help="the cluster's --metrics-port")
    stats_p.add_argument("--timeout", type=float, default=5.0,
                         help="HTTP timeout per request (s)")
    stats_p.add_argument("--require", default=None,
                         help="comma-separated metric families that must be "
                              "present in the Prometheus exposition "
                              "(exit nonzero otherwise)")
    stats_p.add_argument("--json", dest="json_out", default=None,
                         help="write the scraped stats document to this "
                              "JSON file, '-' for stdout")

    sub.add_parser("list", help="list scenarios and protocols")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    """Run one scenario and print the Theorem 5 verdict."""
    from repro.errors import ReproError
    from repro.runner.builders import default_params
    from repro.runner.campaign import run_record
    from repro.runner.config import (
        SCENARIOS as BUILDERS,
        load_config,
        scenario_from_config,
    )
    from repro.runner.experiment import run as run_scenario

    recorder = None
    if args.trace_out is not None:
        from repro.obs import FlightRecorder
        recorder = FlightRecorder()
    try:
        if args.config is not None:
            config = load_config(args.config)
            scenario = scenario_from_config(config)
        else:
            params = default_params(n=args.n, f=args.f, delta=args.delta,
                                    rho=args.rho, pi=args.pi)
            scenario = BUILDERS[args.scenario](params, duration=args.duration,
                                               seed=args.seed,
                                               protocol=args.protocol)
            config = scenario.to_config()
        result = run_scenario(scenario, recorder=recorder,
                              stream_measures=args.stream)
        record = run_record(0, config, result, recorder=recorder)
    except ReproError as exc:
        # One line, the text a sweep keeps on its error record.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    params = scenario.params
    verdict = record.verdict
    recovery = record.recovery
    print(f"scenario={scenario.name} protocol={scenario.protocol} "
          f"n={params.n} f={params.f} duration={scenario.duration}s "
          f"seed={scenario.seed}")
    print(f"events={record.events_processed} "
          f"messages={record.messages_delivered} "
          f"corruptions={record.corruption_count}")
    if result.perf is not None:
        perf = result.perf
        print(f"perf: {perf.events_per_second:,.0f} events/s "
              f"(wall {perf.run_wall_time:.3f}s, heap high-water "
              f"{perf.heap_high_water}, cancelled {perf.cancelled_ratio:.1%})")
    print()
    print(table(
        ["guarantee", "measured", "bound", "holds"],
        [
            ["max deviation", verdict.measured_deviation,
             verdict.bounds.max_deviation, check_mark(verdict.deviation_ok)],
            ["logical drift", verdict.measured_drift,
             verdict.bounds.logical_drift, check_mark(verdict.drift_ok)],
            ["discontinuity", verdict.measured_discontinuity,
             verdict.bounds.discontinuity, check_mark(verdict.discontinuity_ok)],
        ],
        title="Theorem 5 verdict", precision=4,
    ))
    if recovery.events:
        print(f"\nrecoveries: {len(recovery.events)}, all recovered: "
              f"{recovery.all_recovered}, worst: {recovery.max_recovery_time:.3f}s")
    if recorder is not None:
        recorder.write_jsonl(args.trace_out)
        print(f"\n{len(recorder.events)} observability events "
              f"({len(recorder.spans)} spans, "
              f"{len(recorder.violations)} envelope violations) "
              f"written to {args.trace_out}")
    if args.json_out is not None:
        _write_json(args.json_out, dataclasses.asdict(record))
        print(f"\nresult record written to {args.json_out}")
    return 0 if record.ok else 1


def _write_json(destination: str, payload) -> None:
    """The encoder of every ``--json`` document: sorted keys, two-space
    indent, ``str`` for any other type; ``"-"`` writes to stdout.  The
    verb prints its own message."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if destination == "-":
        print(text)
    else:
        pathlib.Path(destination).write_text(text)


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a recorded observability event stream."""
    from repro.obs import render_summary, summarize_events
    from repro.obs.bus import read_events_jsonl
    from repro.obs.spans import SpanTracer, write_chrome_trace

    events = read_events_jsonl(args.path)
    if not events:
        print(f"{args.path}: no events")
        return 1
    summary = summarize_events(events)
    print(render_summary(summary, top=args.top))
    if args.chrome is not None:
        tracer = SpanTracer()
        tracer.replay(events)
        write_chrome_trace(tracer.spans, args.chrome)
        print(f"\nChrome trace ({len(tracer.spans)} spans) written to "
              f"{args.chrome}")
    return 0 if not summary.violations else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    """Evaluate and print the Theorem 5 bounds without simulating."""
    params = ProtocolParams.derive(n=args.n, f=args.f, delta=args.delta,
                                   rho=args.rho, pi=args.pi,
                                   target_k=args.target_k)
    bounds = params.bounds()
    print(table(
        ["quantity", "value"],
        [
            ["SyncInt", params.sync_interval],
            ["MaxWait", params.max_wait],
            ["WayOff", params.way_off],
            ["epsilon (reading error)", params.epsilon],
            ["T (analysis interval)", bounds.t_interval],
            ["K", bounds.k],
            ["C (residue)", bounds.c],
            ["max deviation (Thm 5.i)", bounds.max_deviation],
            ["logical drift (Thm 5.ii)", bounds.logical_drift],
            ["discontinuity (Thm 5.ii)", bounds.discontinuity],
            ["recovery intervals (Claim 8)", bounds.recovery_intervals],
        ],
        title=f"Theorem 5 bounds for n={args.n}, f={args.f}, "
              f"delta={args.delta}, rho={args.rho}, PI={args.pi}",
        precision=6,
    ))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a campaign of JSON configs; print one row per run record."""
    from repro.runner.campaign import Campaign

    configs = []
    for path in args.configs:
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except FileNotFoundError:
            print(f"config file not found: {path}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"invalid JSON in {path}: {exc}", file=sys.stderr)
            return 2
        if isinstance(payload, list):
            configs.extend(payload)
        elif isinstance(payload, dict):
            configs.append(payload)
        else:
            print(f"config root must be an object or list: {path}",
                  file=sys.stderr)
            return 2

    campaign = Campaign(configs=configs, warmup_intervals=args.warmup_intervals,
                        cache_dir=args.cache_dir,
                        stream_measures=args.stream,
                        backend=args.backend,
                        store_dir=args.store_dir)
    result = campaign.run(workers=args.workers, fresh=args.fresh)

    # The table and the JSON payload are both read back through the
    # columnar store — the sweep output exercises the same round trip
    # `repro evaluate` relies on.
    store = result.store()
    columns = store.query().select(
        "index", "name", "seed", "verdict.measured_deviation",
        "verdict.bound.max_deviation", "ok", "error")
    rows = []
    for position in range(store.n_runs):
        if columns["error"][position] is not None:
            rows.append([columns["index"][position], columns["name"][position],
                         columns["seed"][position], "-", "-",
                         f"ERROR: {columns['error'][position]}"])
        else:
            rows.append([columns["index"][position], columns["name"][position],
                         columns["seed"][position],
                         columns["verdict.measured_deviation"][position],
                         columns["verdict.bound.max_deviation"][position],
                         check_mark(columns["ok"][position])])
    print(table(["run", "scenario", "seed", "max dev", "bound", "ok"],
                rows, title="campaign", precision=4))
    print(f"\n{len(result.records)} runs: {result.executed} executed, "
          f"{result.cached} cached, {result.failed} failed")
    if result.scalar_fallbacks:
        print(f"{result.scalar_fallbacks} vector-backend runs fell back "
              f"to the scalar engine:")
        for reason, count in result.fallback_reasons().items():
            print(f"  {count}x {reason}")
    if args.store_dir is not None:
        print(f"results appended to store {args.store_dir}")
    if args.json_out is not None:
        payload = {
            "records": [dataclasses.asdict(record)
                        for record in store.to_records()],
            "summary": {
                "runs": len(result.records),
                "executed": result.executed,
                "cached": result.cached,
                "failed": result.failed,
                "all_ok": result.all_ok,
                "scalar_fallbacks": result.scalar_fallbacks,
                "fallback_reasons": result.fallback_reasons(),
            },
        }
        _write_json(args.json_out, payload)
        print(f"records written to {args.json_out}")
    return 0 if result.all_ok else 1


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Judge a result store against registered evaluation specs."""
    from repro.errors import EvaluationError, StoreError
    from repro.runner.evaluation import evaluate_all, registered_specs

    if args.list_specs:
        for name, spec in sorted(registered_specs().items()):
            print(f"{name}: {spec.description}")
        return 0
    from repro.runner.store import ResultStore

    if args.store_dir is None:
        print("store_dir is required (or use --list)", file=sys.stderr)
        return 2
    try:
        store = ResultStore.load(args.store_dir)
    except StoreError as exc:
        print(f"cannot load store: {exc}", file=sys.stderr)
        return 2
    try:
        reports = evaluate_all(store, names=args.spec)
    except EvaluationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for report in reports:
        print(report.render())
        print()
    judged = [report for report in reports if not report.skipped]
    failed = [report for report in judged if not report.passed]
    print(f"{len(reports)} specs: {len(judged) - len(failed)} passed, "
          f"{len(failed)} failed, {len(reports) - len(judged)} skipped "
          f"({store.n_runs} runs)")
    if args.json_out is not None:
        payload = {
            "store": str(args.store_dir),
            "runs": store.n_runs,
            "reports": [report.to_json() for report in reports],
        }
        _write_json(args.json_out, payload)
        print(f"reports written to {args.json_out}")
    if not judged:
        print("no spec applied to this store", file=sys.stderr)
        return 2
    return 1 if failed else 0


def cmd_soak(args: argparse.Namespace) -> int:
    """Run randomized f-limited segments; fail on any violated guarantee."""
    from repro.adversary.plans import PlanSpec, StrategySpec
    from repro.runner.builders import benign_scenario, default_params, warmup_for
    from repro.runner.experiment import run as run_scenario

    params = default_params(n=args.n, f=args.f, pi=2.0)
    bound = params.bounds().max_deviation
    failures = 0
    for segment in range(args.segments):
        seed = args.seed + segment
        # Declarative: the "random" kind derives its plan stream from
        # the scenario seed (salted), so each segment gets a fresh plan.
        plan = PlanSpec("random", StrategySpec("standard-mix"))
        scenario = benign_scenario(params, duration=args.segment_duration,
                                   seed=seed)
        scenario = dataclasses.replace(scenario, plan_builder=plan,
                                       name=f"soak-{segment}")
        result = run_scenario(scenario)
        verdict = result.verdict(warmup=warmup_for(params))
        recovery = result.recovery()
        ok = verdict.all_ok and recovery.all_recovered
        failures += 0 if ok else 1
        print(f"segment {segment:3d} seed={seed}: "
              f"dev={verdict.measured_deviation:.4f}/{bound:.4f} "
              f"corruptions={len(result.corruptions)} "
              f"recovered={recovery.all_recovered} "
              f"{'OK' if ok else 'VIOLATION'}")
    print(f"\n{args.segments - failures}/{args.segments} segments clean")
    return 0 if failures == 0 else 1


def cmd_live(args: argparse.Namespace) -> int:
    """Run Sync on real asyncio nodes and report live deviations.

    ``--processes`` runs one OS process per node
    (:func:`~repro.rt.live.run_processes`), and a ``--node-index`` run
    is one of them: the same run, hosting only that node.  Both print
    the same report.
    """
    from repro.errors import ConfigurationError, ReproError
    from repro.rt.live import run_live, run_processes

    try:
        if args.processes:
            unsupported = [flag for flag, given in (
                ("--trace", args.trace_out is not None),
                ("--serve", args.serve), ("--telemetry", args.telemetry),
                ("--metrics-port", args.metrics_port is not None),
                ("--transport loopback", args.transport == "loopback"))
                if given]
            if unsupported:
                raise ConfigurationError(
                    f"--processes does not support {', '.join(unsupported)}")
            report = run_processes(nodes=args.nodes, f=args.f,
                                   duration=args.duration, delta=args.delta,
                                   rho=args.rho, pi=args.pi,
                                   sample_interval=args.sample_interval,
                                   seed=args.seed, base_port=args.base_port)
        else:
            report = run_live(nodes=args.nodes, f=args.f,
                              duration=args.duration, delta=args.delta,
                              rho=args.rho, pi=args.pi,
                              transport=args.transport,
                              sample_interval=args.sample_interval,
                              seed=args.seed,
                              serve_base_port=(args.serve_base_port
                                               if args.serve else None),
                              telemetry=(args.telemetry
                                         or args.metrics_port is not None
                                         or args.trace_out is not None),
                              metrics_port=args.metrics_port,
                              node_index=args.node_index,
                              base_port=(None if args.node_index is None
                                         else args.base_port),
                              epoch=args.epoch)
    except ReproError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"live transport={report.transport} nodes={args.nodes} "
          f"f={args.f} duration={report.duration}s seed={args.seed}")
    if report.metrics_port is not None:
        print(f"metrics endpoint: http://127.0.0.1:{report.metrics_port}"
              f"/metrics (also /health, /stats)")
    if report.query_ports:
        answered = sum(report.queries_answered.values())
        failed = sum(report.queries_failed.values())
        malformed = sum(report.queries_malformed.values())
        ports = sorted(report.query_ports.values())
        print(f"time service: ports {ports[0]}-{ports[-1]}, "
              f"{answered} queries answered ({failed} failed, "
              f"{malformed} malformed dropped)")
    rows = []
    for node in sorted(report.series):
        deviations = [abs(dev) for _, dev in report.series[node]]
        rows.append([f"node {node}", report.rounds[node],
                     len(deviations), max(deviations), deviations[-1],
                     f"{report.service_readings[node]:.4f}"])
    print(table(["node", "syncs", "samples", "max |dev|", "final |dev|",
                 "service now()"], rows, title="per-node deviation series",
                precision=6))
    if report.transport_counters:
        drop_rows = [[f"node {node}" if node != "_" else "hub",
                      *_transport_cells(counters)]
                     for node, counters
                     in sorted(report.transport_counters.items())]
        print()
        print(table(["transport", *_TRANSPORT_HEADERS], drop_rows,
                    title="transport counters", precision=0))
    for node in report.failed_nodes:
        print(f"live: node {node} failed: its process exited non-zero, "
              f"was killed or left no readable trace", file=sys.stderr)
    bounded = report.bounded()
    instants = len(report.spread)
    print(f"\ncluster spread at {instants} common "
          f"instant{'' if instants == 1 else 's'}: "
          f"max {report.max_spread():.6f} "
          f"final {report.final_spread():.6f} "
          f"bound {report.bound:.6f} {check_mark(bounded)}")
    print(f"obs events published: {report.events_published}")
    if report.telemetry:
        print(f"telemetry: wall-clock Theorem 5 probe violations: "
              f"{report.probe_violations}")
    if args.trace_out is not None:
        from repro.obs.bus import events_to_jsonl

        pathlib.Path(args.trace_out).write_text(events_to_jsonl(report.events))
        print(f"{len(report.events)} live events written to "
              f"{args.trace_out} (summarize with `repro trace`)")
    if args.json_out is not None:
        _write_json(args.json_out, report.to_dict())
        if args.json_out != "-":
            print(f"JSON written to {args.json_out}")
    return 0 if bounded else 1


#: Headers of the transport columns of the ``repro live`` and ``repro
#: stats`` tables, one per :data:`repro.obs.live.TRANSPORT_COUNTERS`
#: entry, in its order.
_TRANSPORT_HEADERS = ("sent", "delivered", "malformed", "misrouted",
                      "version", "send_drop")


def _transport_cells(counters: dict[str, int]) -> list:
    """One transport's row under :data:`_TRANSPORT_HEADERS` (``-`` for
    a counter it lacks: a loopback hub drops nothing)."""
    from repro.obs.live import TRANSPORT_COUNTERS
    return [counters.get(name, "-") for name, _ in TRANSPORT_COUNTERS]


def cmd_query(args: argparse.Namespace) -> int:
    """Issue client time queries against a `live --serve` node, or with
    ``--stats`` / ``--health`` fetch its introspection document."""
    import asyncio
    from statistics import median
    from time import perf_counter

    from repro.service.query import OP_EPOCH, OP_NOW, OP_VALIDATE, QueryError, TimeQueryClient

    admin = args.stats or args.health

    async def drive():
        client = TimeQueryClient(host=args.host, port=args.port,
                                 timeout=args.timeout)
        await client.connect()
        try:
            if admin:
                return await (client.stats() if args.stats
                              else client.health())
            succeeded = failed = 0
            latencies: list[float] = []
            # Seed validate queries with a real server timestamp.
            reply, _ = await client.request(OP_NOW)
            fields = {OP_NOW: {},
                      OP_VALIDATE: {"ts_value": reply.value,
                                    "ts_issuer": reply.node,
                                    "max_age": args.max_age},
                      OP_EPOCH: {"epoch_length": args.epoch_length}}
            ops = [args.op] if args.op != "mixed" else list(fields)
            for index in range(args.count):
                op = ops[index % len(ops)]
                start = perf_counter()
                try:
                    await client.request(op, **fields[op])
                    succeeded += 1
                    latencies.append(perf_counter() - start)
                except QueryError as exc:
                    failed += 1
                    print(f"query {index} ({op}) failed: {exc}",
                          file=sys.stderr)
            return succeeded, failed, latencies
        finally:
            client.close()

    try:
        result = asyncio.run(drive())
    except QueryError as exc:
        print(f"{'admin query' if admin else 'query'} failed: {exc}",
              file=sys.stderr)
        return 1
    if admin:
        _write_json(args.json_out or "-", result)
        if args.json_out not in (None, "-"):
            print(f"JSON written to {args.json_out}")
        return 0 if result.get("health", result).get("bounded") else 1
    succeeded, failed, latencies = result
    if latencies:
        ordered = sorted(latencies)
        p50 = median(ordered)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        print(f"queries: {succeeded} ok, {failed} failed against "
              f"{args.host}:{args.port}")
        print(f"latency: p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms")
        if args.json_out is not None:
            _write_json(args.json_out, {
                "host": args.host, "port": args.port, "succeeded": succeeded,
                "failed": failed, "p50_s": p50, "p99_s": p99})
            if args.json_out != "-":
                print(f"JSON written to {args.json_out}")
    return 0 if failed == 0 and succeeded == args.count else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Scrape a running cluster's metrics endpoint; print health tables.

    Exit code 0 requires: all three documents fetched, every
    ``--require`` metric family present in the exposition, and the
    health document reporting ``bounded=true``.
    """
    import urllib.error
    import urllib.request

    from repro.obs.expo import metric_families

    base = f"http://{args.host}:{args.port}"

    def fetch(path: str) -> bytes:
        with urllib.request.urlopen(base + path,
                                    timeout=args.timeout) as response:
            return response.read()

    try:
        exposition = fetch("/metrics").decode("utf-8")
        stats = json.loads(fetch("/stats"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"scrape of {base} failed: {exc}", file=sys.stderr)
        return 1

    health = stats.get("health", {})
    bound = health.get("bound")
    spread = health.get("spread")
    bounded = bool(health.get("bounded"))
    print(f"cluster at {base}: tau={health.get('tau', 0.0):.3f}s "
          f"nodes={health.get('nodes')} f={health.get('f')} "
          f"samples={health.get('samples')}")
    print(table(
        ["quantity", "value"],
        [
            ["spread (last sample)", spread if spread is not None else "-"],
            ["max spread", health.get("max_spread") or "-"],
            ["Theorem 5 bound", bound],
            ["bounded", check_mark(bounded)],
            ["probe violations", health.get("violations", "-")],
            ["query p50 (s)", health.get("query_p50") or "-"],
            ["query p99 (s)", health.get("query_p99") or "-"],
        ],
        title="live Theorem 5 health", precision=6,
    ))
    transport = stats.get("transport", {})
    queries = stats.get("queries", {})
    if transport:
        rows = []
        for node in sorted(transport, key=lambda k: (k == "_", k)):
            counters = transport[node]
            qc = queries.get(node, {})
            rows.append([
                "hub" if node == "_" else f"node {node}",
                health.get("rounds", {}).get(node, "-"),
                *_transport_cells(counters),
                qc.get("queries_answered", "-"),
                qc.get("queries_failed", "-"),
            ])
        print()
        print(table(["node", "syncs", *_TRANSPORT_HEADERS, "answered",
                     "q_failed"],
                    rows, title="per-node transport / query counters",
                    precision=0))
    missing: list[str] = []
    if args.require:
        present = metric_families(exposition)
        missing = [family for family in
                   (f.strip() for f in args.require.split(","))
                   if family and family not in present]
        if missing:
            print(f"\nMISSING metric families: {', '.join(missing)}",
                  file=sys.stderr)
        else:
            print(f"\nall required metric families present")
    if args.json_out is not None:
        _write_json(args.json_out, stats)
        if args.json_out != "-":
            print(f"JSON written to {args.json_out}")
    return 0 if bounded and not missing else 1


def cmd_list(args: argparse.Namespace) -> int:
    """Print the available scenarios and registered protocols."""
    from repro.protocols import registered_protocols

    print("scenarios: " + ", ".join(sorted(SCENARIOS)))
    print("protocols: " + ", ".join(registered_protocols()))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "bounds": cmd_bounds, "list": cmd_list,
                "soak": cmd_soak, "trace": cmd_trace, "sweep": cmd_sweep,
                "evaluate": cmd_evaluate,
                "live": cmd_live, "query": cmd_query, "stats": cmd_stats}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
