"""The discrete-event simulation engine.

:class:`Simulator` owns simulated real time (the paper's ``tau``), the
event heap (its two entry shapes are described in
:mod:`repro.sim.events`), and the registry of named random streams.  Everything else
in the package — clocks, links, protocol processes, the adversary — is
driven by callbacks scheduled here.

Simulated time is a float in *seconds of real time*.  The paper treats
real time as "just another clock"; in this reproduction the simulator
clock *is* real time, and every hardware clock is defined as a function
of it (see :mod:`repro.clocks.hardware`).

Time is **monotone across runs**: :meth:`Simulator.run` only advances
``now`` to an ``until`` horizon when the event queue was actually
drained up to that horizon.  An early exit — :meth:`Simulator.stop` or
a ``max_events`` limit — leaves ``now`` at the last executed event, so
a follow-up ``run()`` resumes without jumping over (and then time-
travelling back to) still-pending events.

The engine keeps lifetime performance counters (events/sec, heap
high-water mark, cancelled-event ratio), exposed as
:class:`EnginePerfCounters` via :meth:`Simulator.perf_counters` and
re-exported through :mod:`repro.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class EnginePerfCounters:
    """Lifetime performance counters of one :class:`Simulator`.

    Attributes:
        events_processed: Events executed since construction.
        events_pushed: Events ever scheduled (live + fired + cancelled).
        events_cancelled: Events cancelled while still pending.
        cancelled_ratio: ``events_cancelled / events_pushed`` (0 when
            nothing was pushed); high values mean the schedule churns.
        heap_high_water: Largest event-heap size observed, including
            lazily-collected cancelled entries — the queue's real
            memory/compare footprint.
        run_wall_time: Wall-clock seconds spent inside ``run()`` loops.
        events_per_second: ``events_processed / run_wall_time`` (0 before
            the first ``run()``); the engine's throughput.
        pending_events: Live events still scheduled.
    """

    events_processed: int
    events_pushed: int
    events_cancelled: int
    cancelled_ratio: float
    heap_high_water: int
    run_wall_time: float
    events_per_second: float
    pending_events: int


class Simulator:
    """Deterministic discrete-event simulator.

    Attributes:
        now: Current simulated real time (``tau``).
        rngs: Registry of named deterministic random streams.
        obs: Observability event bus, or ``None`` (the default) when no
            flight recorder is attached; advisory only.

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
        >>> sim.run()
        1
        >>> fired
        [2.0]
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rngs = RngRegistry(seed)
        # One heap of (time, seq, fn, arg) entries; see repro.sim.events.
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._next_seq = 0
        self._live = 0
        self._cancelled_total = 0
        self._heap_high_water = 0
        self._events_processed = 0
        self._run_wall_time = 0.0
        self._running = False
        self._stop_requested = False
        # Observability bus (set by repro.obs.recorder.FlightRecorder);
        # None means no recorder is attached and publishes are skipped.
        self.obs = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None], tag: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds of real time from now.

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self._push(self.now + delay, callback, tag)

    def schedule_at(self, time: float, callback: Callable[[], None], tag: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``.

        Raises:
            SimulationError: If ``time`` is earlier than ``now``.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}; simulator time is already {self.now!r}"
            )
        return self._push(time, callback, tag)

    def time(self) -> float:
        """asyncio's ``loop.time()``: the current simulated time ``now``."""
        return self.now

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """asyncio's ``loop.call_at``: schedule ``callback`` at ``when``.

        Unlike :meth:`schedule_at`, a ``when`` in the past fires at
        ``now`` (asyncio semantics) and never rewinds the clock.  With
        :meth:`time` this is the loop surface :mod:`repro.rt` uses, so
        :class:`~repro.rt.runtime.AsyncioRuntime` and its transports run
        deterministically on the simulator.
        """
        return self._push(max(when, self.now), callback, "")

    def post(self, time: float, fn: Callable[[Any], None] | None, arg: Any) -> None:
        """Schedule the uncancellable call ``fn(arg)`` at ``time``.

        The message-delivery push: no :class:`Event` is built and no
        handle returned.  Every heap entry goes through here and shares
        one ``seq`` counter and every counter of :meth:`perf_counters`;
        ``fn=None`` marks ``arg`` as a cancellable :class:`Event`
        (:meth:`schedule_at` and friends).  The caller guarantees
        ``time >= now``.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        heap = self._heap
        heappush(heap, (time, seq, fn, arg))
        self._live += 1
        if len(heap) > self._heap_high_water:
            self._heap_high_water = len(heap)

    def _push(self, time: float, callback: Callable[[], None], tag: str) -> Event:
        event = Event(time, self._next_seq, callback, tag, self)
        self.post(event.time, None, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (no-op if already fired).

        Equivalent to ``event.cancel()``: cancellation is queue-honest
        either way (see :mod:`repro.sim.events`).
        """
        event.cancel()

    def _note_cancel(self) -> None:
        """Accounting hook called by :meth:`Event.cancel` exactly once."""
        self._live -= 1
        self._cancelled_total += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single earliest pending event: ``run(max_events=1)``.

        Returns:
            ``True`` if an event was executed, ``False`` if the queue was
            empty.
        """
        return self.run(max_events=1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events in time order.

        Args:
            until: If given, stop once the next event would fire strictly
                after ``until``.  The simulator clock is advanced to
                exactly ``until`` on return *only* when the queue was
                drained up to the horizon; an early exit via
                :meth:`stop` or ``max_events`` leaves ``now`` at the
                last executed event so a later ``run()`` resumes without
                time regression.
            max_events: If given, stop after this many events (safety
                valve for runaway schedules).

        Returns:
            Number of events executed by this call.

        Raises:
            SimulationError: On re-entrant ``run`` calls.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stop_requested = False
        executed = 0
        exhausted = False
        heap = self._heap
        horizon = inf if until is None else until
        limit = inf if max_events is None else max_events
        wall_start = perf_counter()
        try:
            while executed < limit and not self._stop_requested:
                if not heap:
                    exhausted = True
                    break
                time, _, fn, arg = heap[0]
                if fn is None and arg._cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    exhausted = True
                    break
                heappop(heap)
                self._live -= 1
                self.now = time
                executed += 1
                if fn is None:
                    arg._fired = True
                    arg.callback()
                else:
                    fn(arg)
        finally:
            self._events_processed += executed
            self._run_wall_time += perf_counter() - wall_start
            self._running = False
        if exhausted and until is not None and self.now < until:
            self.now = until
        if self.obs is not None:
            # Deterministic counters only: wall-clock quantities would
            # break byte-identical event streams across identical runs.
            self.obs.publish("engine.run_end", executed=executed,
                             events_processed=self._events_processed,
                             pending_events=self._live)
        return executed

    def stop(self) -> None:
        """Request that the current :meth:`run` loop exits after this event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled, not yet fired) events."""
        return self._live

    def perf_counters(self) -> EnginePerfCounters:
        """Snapshot the engine's lifetime performance counters."""
        pushed = self._next_seq
        cancelled = self._cancelled_total
        wall = self._run_wall_time
        return EnginePerfCounters(
            events_processed=self._events_processed,
            events_pushed=pushed,
            events_cancelled=cancelled,
            cancelled_ratio=(cancelled / pushed) if pushed else 0.0,
            heap_high_water=self._heap_high_water,
            run_wall_time=wall,
            events_per_second=(self._events_processed / wall) if wall > 0.0 else 0.0,
            pending_events=self._live,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
