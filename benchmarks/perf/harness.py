"""Plumbing shared by every workload: paths, timing, CPU, environment.

Importing this file does nothing but define names; ``bootstrap()`` is
what makes ``repro`` importable (from the checkout's ``src/``) and is
called by the entry points only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Repetitions of the set-up phase; ``setup_s`` is their median.
SETUP_REPS = 3
#: A run always measures at least this many units, however slow.
MIN_UNITS = 3

_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def bootstrap() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` or exit non-zero.

    The benchmark measures the program beside it; in a directory that
    holds only the benchmark there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmarks/perf: no program to measure "
                         f"({SRC / 'repro'} is missing)\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: same ``repro`` as ours."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def digest(payload: Any) -> str:
    """sha256 of canonical JSON (keys sorted)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def record_json(record: Any) -> str:
    """Canonical JSON of one ``RunRecord`` (the byte-parity form)."""
    return json.dumps(dataclasses.asdict(record), sort_keys=True,
                      default=repr)


# ----------------------------------------------------------------------
# CPU and memory over several processes
# ----------------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """user+system seconds of a live process (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def live_cpu_seconds(pids: Sequence[int]) -> float:
    """CPU consumed so far by still-running child processes."""
    return sum(_proc_cpu_seconds(pid) for pid in pids)


def cpu_seconds(live_pids: Sequence[int] = ()) -> float:
    """CPU consumed so far by this process, its reaped children and the
    given still-running children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            + live_cpu_seconds(live_pids))


def peak_rss_mib(who: int) -> float:
    """Largest resident set so far of ``RUSAGE_SELF`` or of the reaped
    ``RUSAGE_CHILDREN`` (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Environment capture
# ----------------------------------------------------------------------


def environment(seed: int, seconds: float, size: str) -> dict[str, Any]:
    """What a reader needs to judge a result file's numbers."""
    from repro._version import __version__
    from repro.metrics.columns import backend_name
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    noisy = load1 > nproc
    if noisy:
        sys.stderr.write(f"benchmarks/perf: 1-min load {load1:.2f} exceeds "
                         f"nproc={nproc}; marking the run noisy\n")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columns_backend": backend_name(),
        "repro_version": __version__,
        "load1_at_start": load1,
        "noisy": noisy,
        "seed": seed,
        "seconds": seconds,
        "size": size,
    }


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------


@dataclass
class Unit:
    """Outcome of one unit of work.

    Attributes:
        work: Work items completed (events, rows or queries).
        attempted: Operations whose outcome was checked.
        failed: How many of those failed their check.
        digest: sha256 of the unit's deterministic output, or ``None``
            where the output depends on the wall clock.
        detail: Exact counts worth keeping beside the timings.
        records: The ``RunRecord`` s the unit produced, for the traced
            run's exact counts (never serialised).
    """

    work: float
    attempted: int
    failed: int
    digest: str | None = None
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)
    records: Sequence[Any] = ()


class Workload:
    """What the measuring loops call on a workload, with the defaults
    of one that runs in this process and keeps no child alive.

    Subclasses give ``name``, ``setup(seed, size, seconds) -> state``,
    ``unit(state, index) -> Unit`` and, for the traced run,
    ``install(tracer, state)`` and ``layers(state, tracer, ref, traced,
    seconds) -> {metric: value}``.
    """

    #: What ``work_per_s`` counts.
    work_unit = "event"
    #: Modules whose import time is booked to ``setup_s``.
    imports: Sequence[str] = ()
    #: Share of ``--seconds`` the traced run's untraced reference takes.
    trace_share = 0.25
    #: How much longer than ``--seconds`` the traced run keeps a served
    #: child alive (only ``live_query`` has one).
    serve_factor_traced = 1.0

    def live_pids(self, state) -> tuple[int, ...]:
        return ()

    def finish(self, state) -> Unit:
        return Unit(work=0, attempted=0, failed=0)

    def teardown(self, state) -> None:
        tmp = state.get("tmp")
        if tmp is not None:
            tmp.cleanup()

    def trace_unit(self, state, index: int) -> Unit:
        return self.unit(state, index)

    def finish_layers(self, state, checks: Unit) -> dict[str, float]:
        """Layer metrics that only exist once ``finish`` has run."""
        return {}


def import_seconds(modules: Sequence[str], reps: int) -> float:
    """Median wall time of a fresh interpreter importing ``modules``,
    minus that of a fresh interpreter importing nothing."""
    def once(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=child_env(), cwd=str(ROOT))
        return time.perf_counter() - start

    imports = "import " + ", ".join(modules)
    bare = median([once("pass") for _ in range(reps)])
    loaded = median([once(imports) for _ in range(reps)])
    return max(loaded - bare, 0.0)


@contextlib.contextmanager
def gc_paused():
    """Collect once, then keep the collector off over a timed phase."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed_unit(run_unit, state, index: int) -> tuple[Unit, float]:
    """``run_unit(state, index)`` with the collector paused; returns
    (unit, wall)."""
    with gc_paused():
        start = time.perf_counter()
        unit = run_unit(state, index)
        wall = time.perf_counter() - start
    return unit, wall


def run_units(run_unit, state, seconds: float, min_units: int = MIN_UNITS
              ) -> tuple[list[Unit], list[float]]:
    """Units 0, 1, 2, ... until ``seconds`` have passed."""
    units: list[Unit] = []
    walls: list[float] = []
    started = time.perf_counter()
    while (len(units) < min_units
           or time.perf_counter() - started < seconds):
        unit, wall = timed_unit(run_unit, state, len(units))
        units.append(unit)
        walls.append(wall)
    return units, walls


def measure_end_to_end(workload, seed: int, seconds: float, size: str
                       ) -> dict[str, Any]:
    """Set up (several times), measure for ``seconds``, check, tear down.

    Returns the result block of one workload: the end-to-end metrics
    plus ``attempted`` / ``failed`` / ``correct`` / ``record_digest``.
    """
    reps = 1 if size == "smoke" else SETUP_REPS
    import_s = import_seconds(workload.imports, reps)
    setup_walls = []
    problems = []
    warm_digest = None
    state = None
    for _ in range(reps):
        if state is not None:
            workload.teardown(state)
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, size, seconds)
        warm, _ = timed_unit(workload.unit, state, 0)
        setup_walls.append(time.perf_counter() - start)
        # The discarded warm-up is still checked: the same inputs must
        # give the same bytes every time they are run.
        if warm.failed:
            problems.append("warm-up unit failed")
        if warm_digest is not None and warm.digest != warm_digest:
            problems.append("warm-up digest changed between set-ups")
        warm_digest = warm.digest
    try:
        cpu_before = cpu_seconds(workload.live_pids(state))
        units, walls = run_units(workload.unit, state, seconds)
        cpu = cpu_seconds(workload.live_pids(state)) - cpu_before
        # Before the checks: they may run reference code (the scalar
        # parity re-run) whose memory is not the workload's.
        own_rss = peak_rss_mib(resource.RUSAGE_SELF)
        checks = workload.finish(state)
    finally:
        workload.teardown(state)

    if units[0].digest != warm_digest:
        problems.append("unit 0 digest differs from its warm-up")
    work = sum(unit.work for unit in units)
    attempted = sum(unit.attempted for unit in units) + checks.attempted
    failed = sum(unit.failed for unit in units) + checks.failed
    metrics = {
        "setup_s": import_s + median(setup_walls),
        "wall_s": median(walls),
        "work_per_s": median([unit.work / wall
                              for unit, wall in zip(units, walls)]),
        "cpu_us_per_work": cpu / work * 1e6,
        "peak_rss_mb": max(own_rss,
                           peak_rss_mib(resource.RUSAGE_CHILDREN)),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems + checks.detail.get("problems", []),
        "record_digest": units[0].digest,
        "units": len(units),
        "unit_walls_s": walls,
        "work_unit": workload.work_unit,
        "detail": {**units[0].detail, **checks.detail},
    }


def measure_per_layer(workload, seed: int, seconds: float, size: str
                      ) -> dict[str, Any]:
    """The traced run: reference units untraced, the same units again
    with the workload's wrappers installed, then its probes.

    The reference takes ``trace_share`` of ``seconds`` (a quarter), so
    the traced pass is the workload at about quarter size.  Returns the
    per-layer metrics (0 for layers the workload does not exercise).
    """
    from catalog import PER_LAYER_NAMES
    from tracing import Tracer

    state = workload.setup(seed, size,
                           seconds * workload.serve_factor_traced)
    tracer = Tracer()
    try:
        warm, _ = timed_unit(workload.trace_unit, state, 0)
        self_cpu, live_cpu = time.process_time(), live_cpu_seconds(
            workload.live_pids(state))
        ref_units, ref_walls = run_units(
            workload.trace_unit, state, seconds * workload.trace_share,
            min_units=1)
        ref = {"units": ref_units, "walls": ref_walls,
               "self_cpu": time.process_time() - self_cpu,
               "live_cpu": live_cpu_seconds(workload.live_pids(state))
               - live_cpu}
        workload.install(tracer, state)
        try:
            traced_units, traced_walls = [], []
            for index in range(len(ref_units)):
                tracer.run_id = index
                unit, wall = timed_unit(workload.trace_unit, state, index)
                traced_units.append(unit)
                traced_walls.append(wall)
        finally:
            tracer.uninstall()
        traced = {"units": traced_units, "walls": traced_walls,
                  "records": [record for unit in traced_units
                              for record in unit.records]}
        layers = workload.layers(state, tracer, ref, traced, seconds)
        checks = workload.finish(state)
        layers.update(workload.finish_layers(state, checks))
    finally:
        workload.teardown(state)
    layers["trace_overhead_share"] = sum(traced_walls) / sum(ref_walls) - 1.0
    trace_file = OUT / f"trace_{workload.name}.json"
    tracer.write_chrome_trace(trace_file, workload.name)

    problems = list(checks.detail.get("problems", []))
    if warm.failed:
        problems.append("warm-up unit failed")
    for ref_unit, traced_unit in zip(ref_units, traced_units):
        if ref_unit.digest != traced_unit.digest:
            problems.append("traced unit digest differs from untraced")
            break
    every = ref_units + traced_units + [checks]
    failed = sum(unit.failed for unit in every)
    return {
        "metrics": {name: float(layers.get(name, 0.0))
                    for name in PER_LAYER_NAMES},
        "attempted": sum(unit.attempted for unit in every),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "record_digest": ref_units[0].digest,
        "units": len(ref_units),
        "spans": len(tracer.spans),
        "targets_missing": tracer.missing,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
