#!/usr/bin/env python3
"""Check that a config run is byte-for-byte reproducible.

Five legs, over the E1 headline workload (rotating mobile-Byzantine
adversary) unless noted:

* **summary** — runs the config twice through
  :func:`repro.runner.campaign.run_config` and compares the JSON
  serialization of the two :class:`RunRecord` results;
* **trace** — runs the same scenario twice under a full
  :class:`repro.obs.FlightRecorder` and byte-diffs the serialized JSONL
  observability event streams, line by line;
* **stream** — runs the config with ``stream_measures=True`` (measures
  accumulated online, no clock trace kept) and compares the record
  byte-for-byte against the post-hoc one: the streaming engine must be
  an exact mirror of the recorded-trace pipeline, not merely
  reproducible on its own.  A second scenario repeats this on a *fine
  grid* (``sample_interval = max_wait / 5``, several rotations of a
  silent plan, wander clocks) and adds the vector backend in both
  modes: the scalar sampler's record path, the scalar streaming path
  and the vector engine all read clocks through the shared segment
  mirror (``repro.clocks.mirror``), and the four records must be equal
  byte for byte;
* **vector** — replays the same seed list through the scalar and
  vector simulation backends twice each and compares all record
  serializations per seed: the batch engine must be byte-identical to
  the reference *and* reproducible across repeats (the check first
  proves the config is inside the vector envelope, so an accidental
  scalar fallback cannot make it vacuous);
* **live** — runs a loopback cluster under the virtual-time loop twice,
  telemetry off and fully instrumented
  (:class:`repro.obs.live.LiveTelemetry`): every Figure 1 correction
  decision and every final logical clock must be float-exact identical
  — live telemetry is write-only, like the recorder — and two
  instrumented runs must serialize byte-identical JSONL event streams.

Any difference — a float that drifted in the last bit, a counter off by
one, a wall-clock quantity that leaked into an event payload — is a
determinism regression: the simulation (and its telemetry) must be a
pure function of ``(config, seed)``.

Run from the repository root:

    python tools/check_determinism.py           # exit 0 iff identical
    python tools/check_determinism.py --stream  # only the named leg(s)

The check is wired into tier-1 via ``tests/test_tools_determinism.py``
so hot-path "optimizations" that silently reorder RNG draws are caught
immediately.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.runner.campaign import run_config  # noqa: E402

# Small enough to run twice in a few seconds, big enough to exercise
# the full machinery: corruption plan, recovery, verdict, counters.
E1_CONFIG = {
    "params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
    "scenario": "mobile-byzantine",
    "duration": 8.0,
    "seed": 1,
}

# A declarative rotating-silent config inside the *vector envelope*
# (the E1 mobile-Byzantine mix uses non-silent strategies, which the
# vector backend refuses and would silently fall back to scalar —
# making the cross-backend check vacuous).  Crash, recovery, wander
# clocks, staggered phases: the full batch-engine masking machinery.
VECTOR_CONFIG = {
    "params": {"n": 5, "f": 1, "delta": 0.002, "rho": 1e-3, "pi": 1.0},
    "duration": 8.0,
    "seed": 1,
    "protocol": "sync",
    "clocks": "wander",
    "initial_offset_spread": 0.0005,
    "name": "vector-determinism",
    "plan": {"kind": "rotating", "strategy": {"name": "silent"}},
}


# The fine-grid stream scenario: the vector-envelope config above run
# for six rotations on a grid of max_wait / 5 (about 15000 grid points,
# every wander breakpoint crossed between two of them).
FINE_GRID_DURATION = 12.0


def summary_bytes(config: dict, stream_measures: bool = False,
                  backend: str = "scalar") -> bytes:
    """Run one config and serialize its summary canonically."""
    summary = run_config(config, stream_measures=stream_measures,
                         backend=backend)
    return json.dumps(dataclasses.asdict(summary), sort_keys=True).encode()


def trace_bytes(config: dict) -> bytes:
    """Run the config's scenario under a flight recorder; return the JSONL."""
    from repro.obs import FlightRecorder, ObsConfig
    from repro.runner.builders import default_params, mobile_byzantine_scenario
    from repro.runner.experiment import run

    params = default_params(**config["params"])
    scenario = mobile_byzantine_scenario(params, duration=config["duration"],
                                         seed=config["seed"])
    recorder = FlightRecorder(ObsConfig(messages=True, monitors=True))
    run(scenario, recorder=recorder)
    return recorder.events_jsonl().encode()


def diff_jsonl(first: bytes, second: bytes) -> str:
    """Describe the first differing line of two JSONL streams."""
    lines_a = first.decode().splitlines()
    lines_b = second.decode().splitlines()
    for i, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a != b:
            return f"line {i + 1}:\n  run 1: {a}\n  run 2: {b}"
    return (f"stream lengths differ: {len(lines_a)} vs {len(lines_b)} "
            f"events")


def check_summary() -> bool:
    """Summary determinism: measures identical across runs."""
    first = summary_bytes(E1_CONFIG)
    second = summary_bytes(E1_CONFIG)
    if first == second:
        print(f"deterministic: {len(first)} summary bytes identical across runs")
        return True
    print("DETERMINISM FAILURE: identical config+seed produced different measures",
          file=sys.stderr)
    print(f"run 1: {first.decode()}", file=sys.stderr)
    print(f"run 2: {second.decode()}", file=sys.stderr)
    return False


def check_trace() -> bool:
    """Trace determinism: observability JSONL byte-identical across runs."""
    first = trace_bytes(E1_CONFIG)
    second = trace_bytes(E1_CONFIG)
    if first == second:
        events = first.decode().count("\n")
        print(f"deterministic: {len(first)} trace bytes "
              f"({events} events) identical across runs")
        return True
    print("DETERMINISM FAILURE: identical config+seed produced different "
          "observability streams", file=sys.stderr)
    print(diff_jsonl(first, second), file=sys.stderr)
    return False


def check_stream() -> bool:
    """Streamed measures byte-identical to the post-hoc pipeline."""
    posthoc = summary_bytes(E1_CONFIG)
    streamed = summary_bytes(E1_CONFIG, stream_measures=True)
    if posthoc == streamed:
        print(f"deterministic: {len(streamed)} streamed summary bytes "
              f"identical to the post-hoc record")
        return True
    print("DETERMINISM FAILURE: stream_measures=True produced a different "
          "record than the post-hoc pipeline", file=sys.stderr)
    print(f"post-hoc: {posthoc.decode()}", file=sys.stderr)
    print(f"streamed: {streamed.decode()}", file=sys.stderr)
    return False


def check_stream_fine_grid() -> bool:
    """Record, stream and vector paths agree on a fine sampling grid."""
    from repro.runner.builders import default_params

    params = default_params(**VECTOR_CONFIG["params"])
    config = dict(VECTOR_CONFIG, duration=FINE_GRID_DURATION,
                  sample_interval=params.max_wait / 5.0,
                  name="fine-grid-determinism")
    runs = {
        f"{backend}/{'stream' if stream else 'record'}":
            summary_bytes(config, stream_measures=stream, backend=backend)
        for backend in ("scalar", "vector") for stream in (False, True)
    }
    reference = runs["scalar/record"]
    diverged = [label for label, blob in runs.items() if blob != reference]
    if not diverged:
        samples = int(FINE_GRID_DURATION / config["sample_interval"]) + 1
        print(f"deterministic: fine grid ({samples} samples) scalar/vector "
              f"x record/stream records identical ({len(reference)} bytes)")
        return True
    print(f"DETERMINISM FAILURE: fine-grid records diverged from "
          f"scalar/record: {', '.join(diverged)}", file=sys.stderr)
    for label in ["scalar/record", *diverged]:
        print(f"  {label}: {runs[label].decode()[:400]}", file=sys.stderr)
    return False


def check_vector() -> bool:
    """Vector backend byte-identical to scalar, and both reproducible.

    Replays the same seed list through the scalar and vector backends
    twice each (streamed measures, the campaign fast path): all four
    record serializations must match per seed — across backends *and*
    across repeats.  A vector-side RNG reorder, a masked update that
    rounds differently, or a nondeterministic dict walk all surface
    here as a one-line diff.
    """
    from repro.runner.config import scenario_from_config
    from repro.runner.vector import scalar_only_reason, vector_spec
    from repro.sim.vector import simulate_run

    # Guard against vacuity: the config must actually enter the vector
    # engine (a silent scalar fallback would compare scalar to scalar).
    scenario = scenario_from_config(dict(VECTOR_CONFIG))
    reason = scalar_only_reason(scenario)
    if reason is not None:
        print(f"DETERMINISM FAILURE: vector check config fell out of the "
              f"vector envelope: {reason}", file=sys.stderr)
        return False
    simulate_run(vector_spec(scenario, stream_measures=True))  # must not raise

    ok = True
    for seed in (1, 2, 3):
        config = dict(VECTOR_CONFIG, seed=seed)
        runs = {
            "scalar#1": summary_bytes(config, stream_measures=True,
                                      backend="scalar"),
            "scalar#2": summary_bytes(config, stream_measures=True,
                                      backend="scalar"),
            "vector#1": summary_bytes(config, stream_measures=True,
                                      backend="vector"),
            "vector#2": summary_bytes(config, stream_measures=True,
                                      backend="vector"),
        }
        reference = runs["scalar#1"]
        diverged = [label for label, blob in runs.items() if blob != reference]
        if diverged:
            print(f"DETERMINISM FAILURE: seed {seed} records diverged "
                  f"from scalar#1: {', '.join(diverged)}", file=sys.stderr)
            for label in diverged:
                print(f"  {label}: {runs[label].decode()[:400]}",
                      file=sys.stderr)
            ok = False
        else:
            print(f"deterministic: seed {seed} scalar/vector records "
                  f"byte-identical across backends and repeats "
                  f"({len(reference)} bytes)")
    return ok


def live_run(telemetry: bool, duration: float = 4.0, seed: int = 3):
    """One loopback cluster run on the simulator; returns its observables.

    Returns ``(decisions, finals, jsonl)`` where decisions maps node to
    its Figure 1 record tuples, finals maps node to the logical-clock
    reading at the horizon, and jsonl is the serialized telemetry event
    stream (``b""`` when uninstrumented).
    """
    from repro.rt.live import build_cluster, default_live_params
    from repro.sim.engine import Simulator

    params = default_live_params(n=4, f=1)
    loop = Simulator(seed=0)
    cluster = build_cluster(params, loop, seed=seed, transport="loopback",
                            telemetry=telemetry)
    cluster.start(sample_interval=0.1)
    loop.run(until=duration)
    cluster.sample_once()
    decisions = {node: [(r.round_no, r.correction, r.m, r.big_m,
                         r.own_discarded, r.replies)
                        for r in proc.sync_records]
                 for node, proc in cluster.processes.items()}
    finals = {node: clock.read(duration)
              for node, clock in cluster.clocks.items()}
    cluster.stop()  # finalizes telemetry: metrics.snapshot + run.end
    jsonl = (cluster.telemetry.events_jsonl().encode()
             if cluster.telemetry is not None else b"")
    return decisions, finals, jsonl


def check_live() -> bool:
    """Live telemetry is write-only and its event stream reproducible."""
    plain_decisions, plain_finals, _ = live_run(telemetry=False)
    decisions_a, finals_a, jsonl_a = live_run(telemetry=True)
    _, _, jsonl_b = live_run(telemetry=True)
    ok = True
    if (plain_decisions, plain_finals) != (decisions_a, finals_a):
        print("DETERMINISM FAILURE: enabling live telemetry changed a "
              "correction decision or final clock", file=sys.stderr)
        for node in plain_decisions:
            if plain_decisions[node] != decisions_a[node]:
                print(f"  node {node} decisions diverged", file=sys.stderr)
            if plain_finals[node] != finals_a[node]:
                print(f"  node {node} final clock: {plain_finals[node]!r}"
                      f" vs {finals_a[node]!r}", file=sys.stderr)
        ok = False
    if jsonl_a != jsonl_b:
        print("DETERMINISM FAILURE: two instrumented live runs produced "
              "different telemetry streams", file=sys.stderr)
        print(diff_jsonl(jsonl_a, jsonl_b), file=sys.stderr)
        ok = False
    if ok:
        events = jsonl_a.decode().count("\n")
        print(f"deterministic: live telemetry write-only, {len(jsonl_a)} "
              f"live trace bytes ({events} events) identical across runs")
    return ok


#: Leg name -> checks, in the order a full run executes them.
LEGS = {
    "summary": (check_summary,),
    "trace": (check_trace,),
    "stream": (check_stream, check_stream_fine_grid),
    "vector": (check_vector,),
    "live": (check_live,),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Byte-for-byte reproducibility checks (default: all).")
    for leg in LEGS:
        parser.add_argument(f"--{leg}", action="store_true",
                            help=f"run the {leg} leg")
    args = parser.parse_args(argv)
    chosen = [leg for leg in LEGS if getattr(args, leg)] or list(LEGS)
    ok = True
    for leg in chosen:
        for check in LEGS[leg]:
            ok = check() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
