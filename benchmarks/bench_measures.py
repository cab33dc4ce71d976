"""PR 4 measurement-engine benchmark: columnar + incremental vs legacy.

Times the analysis phase of an E1-scale workload — n=16 clocks on a
200k-point sample grid under a rotating corruption schedule — through
four pipelines:

* **legacy** — the pre-PR row-oriented path, frozen here verbatim: the
  brute O(corruptions) ``good_set`` predicate re-derived per sample
  over per-node Python lists (timed on a prefix of the grid and
  reported as throughput, so the bench stays fast);
* **python** — the new engine (:class:`GoodSetIndex` runs +
  ``spread_slice``) with the numpy backend forced off;
* **numpy** — the same engine with the numpy fast path (skipped when
  numpy is not installed);
* **streaming** — :class:`OnlineMeasures` fed sample-by-sample; it
  pays the 16 clock reads per grid point the other pipelines get for
  free and the accuracy/recovery bookkeeping they do not do, so it is
  gated on its own ratio to the legacy yardstick
  (``analysis.streaming.speedup``), not against the post-hoc engines.

Every pipeline must produce **byte-identical** deviation series, and
the streamed accuracy and recovery reports must equal the post-hoc
ones; the assertions here and ``tools/bench_gate.py`` (which imports
:func:`measure` and writes ``BENCH_PR4.json``) both enforce it.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import struct
from time import perf_counter

from _util import emit, once

from repro.metrics.columns import HAVE_NUMPY, set_numpy
from repro.metrics.measures import (
    accuracy_report,
    deviation_series,
    recovery_report,
)
from repro.metrics.report import table
from repro.metrics.sampler import ClockSamples, CorruptionInterval, GoodSetIndex, good_set
from repro.metrics.streaming import OnlineMeasures

#: E1-scale workload: n=16, 200k samples (2000 s at 10 ms), a rotating
#: one-node corruption every PI seconds.  The legacy path is timed on a
#: 5k-sample prefix — large enough for stable throughput numbers,
#: small enough that the O(samples x corruptions) scan stays tolerable.
WORKLOAD = {
    "n": 16,
    "samples": 200_000,
    "dt": 0.01,
    "pi": 2.0,
    "legacy_samples": 5_000,
    "seed": 20000806,
}


class _SynthClock:
    """Pure function of real time: linear rate plus a slow wobble."""

    __slots__ = ("offset", "rate", "amp", "freq", "phase", "adjustments")

    def __init__(self, offset, rate, amp, freq, phase):
        self.offset = offset
        self.rate = rate
        self.amp = amp
        self.freq = freq
        self.phase = phase
        self.adjustments = []

    def read(self, tau):
        return self.offset + self.rate * tau + self.amp * math.sin(self.freq * tau + self.phase)


def build_workload(spec=None):
    """Synthesize the E1-scale grid, clock rows, and corruption plan."""
    spec = dict(WORKLOAD, **(spec or {}))
    rng = random.Random(spec["seed"])
    n, count, dt, pi = spec["n"], spec["samples"], spec["dt"], spec["pi"]
    clocks = {
        node: _SynthClock(
            offset=rng.uniform(-0.5, 0.5),
            rate=1.0 + rng.uniform(-5e-4, 5e-4),
            amp=rng.uniform(0.0, 0.01),
            freq=rng.uniform(0.1, 1.0),
            phase=rng.uniform(0.0, 2 * math.pi),
        )
        for node in range(n)
    }
    times = [i * dt for i in range(count)]
    rows = {node: [clock.read(tau) for tau in times]
            for node, clock in clocks.items()}
    horizon = times[-1]
    corruptions = []
    k = 0
    while (start := k * pi + 0.25 * pi) + 0.5 * pi < horizon:
        corruptions.append(CorruptionInterval(k % n, start, start + 0.5 * pi))
        k += 1
    return spec, times, rows, clocks, corruptions


# ---------------------------------------------------------------------------
# The frozen legacy analysis path (pre-PR measures.py, verbatim shape)
# ---------------------------------------------------------------------------


def legacy_deviation_series(times, rows, corruptions, pi, n):
    """Row-oriented deviation series with per-sample good-set derivation."""
    series = []
    for i, tau in enumerate(times):
        good = good_set(corruptions, tau, pi, n)
        if len(good) < 2:
            continue
        values = [rows[node][i] for node in good]
        series.append((tau, max(values) - min(values)))
    return series


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _series_bytes(series):
    flat = [x for pair in series for x in pair]
    return struct.pack(f"<{len(flat)}d", *flat)


#: Timed regions run this many times; the best rep is reported.  The
#: gate compares figures against a committed baseline with a 20%
#: tolerance; best-of-N (interference only ever slows a rep down) plus
#: *interleaving* — every pipeline is timed once per round, so a slow
#: system phase hits the speedup ratio's numerator and denominator
#: alike — is what makes single-process timings stable enough for that.
REPS = 4


def _interleaved(pipelines):
    """Time ``{name: (work, units)}`` in rounds; best units/sec each.

    Returns:
        ``(results, throughput)`` — each pipeline's last result and its
        best observed units/sec.
    """
    results = {}
    throughput = {name: 0.0 for name in pipelines}
    for _ in range(REPS):
        for name, (work, units) in pipelines.items():
            gc.collect()
            t0 = perf_counter()
            results[name] = work()
            throughput[name] = max(throughput[name],
                                   units / (perf_counter() - t0))
    return results, throughput


def measure():
    """Run every pipeline once; return the metrics dict for the gate.

    Raises:
        AssertionError: If any pipeline's deviation series is not
            byte-identical to the others.
    """
    spec, times, rows, clocks, corruptions = build_workload()
    n, pi = spec["n"], spec["pi"]
    legacy_n = spec["legacy_samples"]

    legacy_times, legacy_rows = times[:legacy_n], {
        node: column[:legacy_n] for node, column in rows.items()}
    samples = ClockSamples(times=list(times),
                           clocks={node: list(col) for node, col in rows.items()})

    def analysis(force_numpy):
        set_numpy(force_numpy)
        try:
            return deviation_series(samples, corruptions, pi, n,
                                    index=GoodSetIndex(corruptions, pi, n))
        finally:
            set_numpy(None)

    # End-to-end: a full streamed E1 run, normalized by the legacy
    # analysis throughput measured interleaved on this same machine, so
    # the figure is comparable across hosts.
    from repro.runner.campaign import run_config
    e1_config = {
        "params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
        "scenario": "mobile-byzantine",
        "duration": 60.0,
        "seed": 1,
    }

    def streamed():
        stream = OnlineMeasures(clocks, corruptions, pi=pi, n=n,
                                recovery_tolerance=1.0, recovery_settle=pi)
        on_sample = stream.on_sample
        for i, tau in enumerate(times):
            on_sample(tau, i)
        stream.finalize()
        return stream

    pipelines = {
        "legacy": (lambda: legacy_deviation_series(
            legacy_times, legacy_rows, corruptions, pi, n), legacy_n),
        "python": (lambda: analysis(False), len(times)),
        "streaming": (streamed, len(times)),
        "e2e": (lambda: run_config(e1_config, stream_measures=True), 1.0),
    }
    if HAVE_NUMPY:
        pipelines["numpy"] = (lambda: analysis(True), len(times))
    results, throughput = _interleaved(pipelines)

    legacy_series, legacy_sps = results["legacy"], throughput["legacy"]
    python_series, python_sps = results["python"], throughput["python"]
    numpy_sps = throughput.get("numpy")
    if HAVE_NUMPY:
        assert _series_bytes(results["numpy"]) == _series_bytes(python_series), \
            "numpy backend diverged from the python backend"

    # Legacy prefix must be a byte-identical prefix of the new series.
    cut = bisect.bisect_right([tau for tau, _ in python_series],
                              legacy_times[-1])
    assert _series_bytes(python_series[:cut]) == _series_bytes(legacy_series), \
        "new engine diverged from the legacy row-oriented path"

    # Streaming: all three reports byte-identical to the post-hoc path.
    stream, stream_sps = results["streaming"], throughput["streaming"]
    index = GoodSetIndex(corruptions, pi, n)
    assert _series_bytes(stream.deviations.series()) == _series_bytes(python_series), \
        "streamed deviation series diverged from the post-hoc series"
    assert stream.accuracy() == accuracy_report(
        samples, corruptions, clocks, pi, n, index=index), \
        "streamed accuracy report diverged from the post-hoc report"
    assert stream.recovery() == recovery_report(
        samples, corruptions, pi, n, 1.0, pi, index=index), \
        "streamed recovery events diverged from the post-hoc events"

    record = results["e2e"]
    events_per_sec = record.events_processed * throughput["e2e"]

    return {
        "workload": {**spec, "corruptions": len(corruptions)},
        "analysis": {
            "legacy_samples_per_sec": legacy_sps,
            "python": {"samples_per_sec": python_sps,
                       "speedup": python_sps / legacy_sps},
            "numpy": ({"samples_per_sec": numpy_sps,
                       "speedup": numpy_sps / legacy_sps}
                      if numpy_sps is not None else None),
            "streaming_samples_per_sec": stream_sps,
            "streaming": {"speedup": stream_sps / legacy_sps},
        },
        "end_to_end": {
            "events_per_sec": events_per_sec,
            "normalized": events_per_sec / legacy_sps,
        },
        "identical": True,
    }


def metrics_table(metrics):
    analysis = metrics["analysis"]
    rows = [
        ("legacy (rows + brute good_set)",
         f"{analysis['legacy_samples_per_sec']:,.0f}", "1.0x"),
        ("GoodSetIndex + python columns",
         f"{analysis['python']['samples_per_sec']:,.0f}",
         f"{analysis['python']['speedup']:.1f}x"),
    ]
    if analysis["numpy"] is not None:
        rows.append(("GoodSetIndex + numpy columns",
                     f"{analysis['numpy']['samples_per_sec']:,.0f}",
                     f"{analysis['numpy']['speedup']:.1f}x"))
    rows.append(("streaming (incl. clock reads)",
                 f"{analysis['streaming_samples_per_sec']:,.0f}",
                 f"{analysis['streaming']['speedup']:.1f}x"))
    rows.append(("end-to-end streamed E1 (events/s)",
                 f"{metrics['end_to_end']['events_per_sec']:,.0f}", "-"))
    return table(
        ["pipeline", "samples/s", "speedup"], rows,
        title=(f"Analysis throughput, E1-scale workload "
               f"(n={metrics['workload']['n']}, "
               f"{metrics['workload']['samples']:,} samples, "
               f"{metrics['workload']['corruptions']} corruptions)"))


def test_measurement_engine_speedup(benchmark):
    """The new analysis engine is >=5x the legacy path, byte-identically."""
    metrics = once(benchmark, measure)
    emit("bench_measures", metrics_table(metrics))
    assert metrics["identical"]
    assert metrics["analysis"]["python"]["speedup"] >= 5.0
