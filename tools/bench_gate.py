#!/usr/bin/env python3
"""Performance-regression gate for the measurement engine and time service.

Runs :func:`benchmarks.bench_measures.measure` — the E1-scale analysis
benchmark (n=16, 200k samples) plus an end-to-end streamed run — and
:func:`benchmarks.bench_service.measure_service` — the time-service
load benchmark (windowed UDP query generator against a live cluster) —
writes the merged results to ``BENCH_PR4.json`` at the repository root,
and compares against the committed baseline in
``benchmarks/baseline_pr4.json``.

Only **machine-portable** figures are gated, so the gate gives the same
verdict on a laptop and a CI runner:

* ``analysis.python.speedup`` / ``analysis.numpy.speedup`` — the new
  engine's throughput relative to the frozen legacy implementation
  *measured in the same process* (the legacy path doubles as a
  machine-speed yardstick);
* ``analysis.streaming.speedup`` — :class:`OnlineMeasures` fed
  sample by sample (clock reads, accuracy captures and recovery state
  machines included), relative to the same legacy yardstick;
* ``end_to_end.normalized`` — streamed-run events/sec divided by the
  same legacy yardstick;
* ``service.normalized_qps`` — sustained time-service queries/sec
  divided by the same legacy yardstick;
* ``mega_sim.speedup`` — the vector batch engine's effective events/sec
  relative to the scalar engine on the same workload, measured
  interleaved in the same process
  (:func:`benchmarks.bench_engine.measure_mega_sim`).

On top of the baseline comparison, absolute floors are enforced: the
python-backend speedup must stay above 5x (the PR 4 acceptance bar),
the streaming measures above 3x the legacy path (they ran *below* it
until PR 12 made the per-sample cost independent of the run's history),
the time service must meet its SLO — at least 10,000 queries/sec with
p99 latency under ``delta`` and zero failed queries (the PR 6
acceptance bar) — and full live telemetry
(:func:`benchmarks.bench_obs_overhead.measure_live_overhead`) must
retain at least 90% of the uninstrumented query throughput (the PR 7
acceptance bar).  The mega-sim section additionally enforces the
vector-backend bars: batch speedup above :data:`MEGA_SPEEDUP_FLOOR`
and byte-identical scalar/vector ``RunRecord``\\ s (``record_parity``).

A baseline that predates a section (an older ``baseline_pr4.json``
without, say, the ``obs_live`` or ``mega_sim`` keys) skips that
section's baseline comparison instead of crashing; absolute limits
still apply to the measured run.

The gate fails when any gated figure drops below its tolerance —
20% for the analysis figures, 5% for the end-to-end events/sec figure
(the runtime-seam dispatch contract), 30% for the service QPS figure
(real sockets are noisier than pure computation) — or when an absolute
floor is missed.  Absolute samples/sec, events/sec and QPS are recorded
in ``BENCH_PR4.json`` for the trajectory but not baseline-gated.

Run from the repository root:

    python tools/bench_gate.py                    # exit 0 iff no regression
    python tools/bench_gate.py --update-baseline  # re-seed the baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

BASELINE_PATH = REPO / "benchmarks" / "baseline_pr4.json"
RESULT_PATH = REPO / "BENCH_PR4.json"

#: Maximum tolerated drop of a gated figure below its baseline.
TOLERANCE = 0.20

#: Tighter tolerance for the end-to-end events/sec figure: the run
#: dispatches every timer and message through the ``SimRuntime`` seam,
#: and the runtime-abstraction contract is that this indirection costs
#: less than 5% against the direct-dispatch PR 4 baseline.
DISPATCH_TOLERANCE = 0.05

#: Looser tolerance for the service QPS figure: it rides real UDP
#: sockets and an event loop shared with live Sync traffic, so run-to-
#: run spread is wider than the pure-computation figures'.
SERVICE_TOLERANCE = 0.30

#: Tolerance for the mega-sim batch speedup.  Both sides are measured
#: in the same process, but the ratio is less portable than the other
#: gated figures: machine-speed shifts hit the two engines
#: asymmetrically (the vector loop is cache-hotter than the scalar
#: call stack), and CPython versions specialize the two styles
#: differently (3.11's inline-bytecode specialization favors the
#: vector loop; the 3.10 CI leg does not have it).
MEGA_TOLERANCE = 0.40

#: Hard floor on the python-backend analysis speedup (acceptance bar).
SPEEDUP_FLOOR = 5.0

#: Hard floor on the streaming-measures speedup over the legacy path.
#: Measured ~10x; the pre-PR-12 per-sample loops sat at ~0.5-0.7x, so
#: any return of history-proportional work per grid point trips this.
STREAMING_SPEEDUP_FLOOR = 3.0

#: The time-service SLO (acceptance bar): sustained queries/sec floor
#: and the p99-latency-under-delta ratio ceiling.
SERVICE_QPS_FLOOR = 10_000.0
SERVICE_P99_CEILING = 1.0  # p99 / delta

#: Live telemetry overhead contract (PR 7 acceptance bar): a fully
#: instrumented cluster (metrics + spans + wall-clock probe + latency
#: histograms) must retain at least 90% of the uninstrumented QPS.
OBS_LIVE_RATIO_FLOOR = 0.90

#: Hard floor on the mega-sim batch speedup (vector vs scalar engine,
#: n=64, 256 batched seeds) and the record-parity requirement.  The
#: measured speedup on this workload is ~4-5x on CPython 3.11
#: depending on machine mood (and grows with n: ~8.7x at n=256); see
#: EXPERIMENTS.md for why the issue's 10x target is not reachable at
#: n=64 with byte-identical per-event semantics.  The floor sits below
#: the worst honest measurement across supported interpreters so the
#: gate trips on real regressions, not on moods or CPython versions.
MEGA_SPEEDUP_FLOOR = 2.5

#: Gated figures: (dotted path, human label, tolerated drop).
GATED = [
    ("analysis.python.speedup", "analysis speedup (python backend)",
     TOLERANCE),
    ("analysis.numpy.speedup", "analysis speedup (numpy backend)",
     TOLERANCE),
    ("analysis.streaming.speedup",
     "streaming measures speedup (OnlineMeasures vs legacy)",
     TOLERANCE),
    ("end_to_end.normalized",
     "end-to-end normalized throughput (SimRuntime dispatch)",
     DISPATCH_TOLERANCE),
    ("service.normalized_qps",
     "time-service normalized QPS (UDP loopback)",
     SERVICE_TOLERANCE),
    ("mega_sim.speedup",
     "mega-sim batch speedup (vector vs scalar engine)",
     MEGA_TOLERANCE),
]

#: Absolute floors/ceilings: (dotted path, human label, kind, limit)
#: where kind is "floor" (value must be >= limit) or "ceiling"
#: (value must be <= limit).  Unlike GATED figures these never skip:
#: a missing value is a failure, because each one is an acceptance bar.
LIMITS = [
    ("analysis.python.speedup", "python-backend analysis speedup",
     "floor", SPEEDUP_FLOOR),
    ("analysis.streaming.speedup", "streaming measures speedup",
     "floor", STREAMING_SPEEDUP_FLOOR),
    ("service.qps", "time-service sustained QPS", "floor",
     SERVICE_QPS_FLOOR),
    ("service.p99_vs_delta", "time-service p99 latency / delta",
     "ceiling", SERVICE_P99_CEILING),
    ("service.errors", "time-service failed queries", "ceiling", 0),
    ("obs_live.full_ratio", "live full-telemetry QPS retention",
     "floor", OBS_LIVE_RATIO_FLOOR),
    ("mega_sim.speedup", "mega-sim batch speedup (n=64, 256 seeds)",
     "floor", MEGA_SPEEDUP_FLOOR),
    ("mega_sim.record_parity", "mega-sim scalar/vector record parity",
     "floor", 1.0),
]


def lookup(metrics: dict, dotted: str):
    """Resolve ``a.b.c`` in nested dicts; None when any hop is missing."""
    node = metrics
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def evaluate(metrics: dict, baseline: dict) -> tuple[bool, list[str]]:
    """Judge measured ``metrics`` against limits and the ``baseline``.

    Pure function of its inputs (no benchmarking, no I/O) so the gate
    logic is testable with stubbed metrics.  Returns ``(ok, lines)``
    where ``lines`` is the human-readable verdict, one entry per check.
    A figure that is *missing* from the metrics fails its absolute
    limit with a clean message — never a formatting crash.
    """
    ok = True
    lines = []

    for dotted, label, kind, limit in LIMITS:
        value = lookup(metrics, dotted)
        if value is None:
            lines.append(f"GATE FAILURE: {dotted} is missing from the "
                         f"measured metrics (cannot check the {label} "
                         f"{kind} of {limit:g})")
            ok = False
            continue
        holds = value >= limit if kind == "floor" else value <= limit
        relation = ">=" if kind == "floor" else "<="
        verdict = "ok" if holds else "FAILED"
        lines.append(f"  {label}: {value:g} ({kind} {relation} {limit:g}) "
                     f"-- {verdict}")
        if not holds:
            ok = False

    for dotted, label, tolerance in GATED:
        base = lookup(baseline, dotted)
        current = lookup(metrics, dotted)
        if base is None or current is None:
            # The numpy leg is absent on pure-python environments; a
            # figure one side lacks is skipped, not failed.
            lines.append(f"  {label}: skipped (not measured on "
                         f"{'baseline' if base is None else 'this run'})")
            continue
        floor = base * (1.0 - tolerance)
        verdict = "ok" if current >= floor else "REGRESSION"
        lines.append(f"  {label}: {current:.2f} vs baseline {base:.2f} "
                     f"(floor {floor:.2f}) -- {verdict}")
        if current < floor:
            ok = False

    return ok, lines


def run_benchmarks() -> dict:
    """Measure everything; returns the merged metrics dict."""
    from bench_engine import measure_mega_sim, mega_table
    from bench_measures import measure, metrics_table
    from bench_obs_overhead import live_table, measure_live_overhead
    from bench_service import measure_service
    from bench_service import metrics_table as service_table

    metrics = measure()
    print(metrics_table(metrics))
    legacy_sps = lookup(metrics, "analysis.legacy_samples_per_sec")
    metrics["service"] = measure_service(legacy_sps=legacy_sps)
    print()
    print(service_table(metrics["service"]))
    metrics["obs_live"] = measure_live_overhead()
    print()
    print(live_table(metrics["obs_live"]))
    metrics["mega_sim"] = measure_mega_sim()
    print()
    print(mega_table(metrics["mega_sim"]))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the measured figures as the new baseline")
    args = parser.parse_args()

    metrics = run_benchmarks()
    RESULT_PATH.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {RESULT_PATH.relative_to(REPO)}")

    if args.update_baseline:
        # A baseline is a *floor reference*, so seed it conservatively:
        # measure twice and keep, per gated figure, the worse of the
        # two runs — an optimistic baseline would make the gate flaky.
        second = run_benchmarks()
        for dotted, _, _tol in GATED:
            a, b = lookup(metrics, dotted), lookup(second, dotted)
            if a is None or b is None:
                continue
            node = metrics
            *hops, leaf = dotted.split(".")
            for key in hops:
                node = node[key]
            node[leaf] = min(a, b)
        BASELINE_PATH.write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {BASELINE_PATH.relative_to(REPO)}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"BENCH GATE FAILURE: no baseline at "
              f"{BASELINE_PATH.relative_to(REPO)} "
              f"(seed one with --update-baseline)", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())

    ok, lines = evaluate(metrics, baseline)
    for line in lines:
        print(line, file=None if line.startswith("  ") else sys.stderr)

    if ok:
        print("bench gate passed")
        return 0
    print("BENCH GATE FAILURE: a gated figure regressed below its "
          "tolerance or missed an absolute limit", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
