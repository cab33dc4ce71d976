"""The vectorized mega-sim: a batch backend for cross-seed campaigns.

The scalar engine (:mod:`repro.sim.engine` + :mod:`repro.runner`)
dispatches one Python callback per event through ``Event`` objects,
``Message`` dataclasses, and the ``SimRuntime`` seam — roughly 12µs per
event.  For campaign-scale work (10^5–10^6 runs mapping resilience
boundaries) that dispatch overhead dominates.  This module executes the
same simulation as a tight loop over plain tuples and flat
struct-of-arrays state, at an order of magnitude more events per
second, while remaining **byte-identical** to the scalar reference:

* the event schedule is replayed exactly — same push order, same
  ``(time, seq)`` tie-breaking, same lazy cancellation accounting, so
  even the engine perf counters (pushed/fired/cancelled/high-water)
  match the scalar run;
* every random draw comes from the same named streams
  (:mod:`repro.sim.rng`) in the same order;
* all clock/estimation/convergence arithmetic reuses the *real*
  objects and kernels (:class:`~repro.clocks.logical.LogicalClock`,
  :func:`~repro.core.convergence.decide_arrays`), so floats are
  bit-exact, not merely close.

Per-node protocol state lives in flat struct-of-arrays columns: one
``array('d')`` row of ``(distance, accuracy)`` per (node, peer) pair, a
``bytearray`` reply mask, and per-node adjustment/ session/round
columns.  Every Sync completion calls the one Figure 1 kernel,
:func:`~repro.core.convergence.decide_arrays`, that the scalar engine
calls too, so the two engines agree on decisions by construction.

The engine supports the *vector envelope*: the ``"sync"`` protocol with
its default convergence function, any clock model / topology / delay
model / loss rate / initial offsets, and corruption plans whose
strategies are all :class:`~repro.adversary.strategies.SilentStrategy`
(crash / napping faults, including recovery after release).  Anything
else raises :class:`VectorUnsupported`, and the runner-side wrapper
(:mod:`repro.runner.vector`) falls back to the scalar engine — so the
``vector`` backend is *always* correct, merely not always fast.

Within one run, Sync decisions are inherently sequential — each round's
ping/pong estimates read clocks already corrected by the previous
round — so the per-run loop applies the decision kernel round by
round, and a batch of runs is :func:`simulate_run` called once per
spec.  DESIGN.md §12 documents the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import insort
from hashlib import sha256
from time import perf_counter
from typing import Any, Callable, Sequence

try:  # the raw C generator: same MT19937 stream, ~35% cheaper to seed
    from _random import Random as _CoreRandom
except ImportError:  # pragma: no cover - non-CPython fallback
    from random import Random as _CoreRandom

from repro.adversary.mobile import PlannedCorruption, audit_f_limited
from repro.adversary.strategies import SilentStrategy
from repro.clocks.logical import LogicalClock
from repro.clocks.mirror import ClockMirror
from repro.core.convergence import decide_arrays
from repro.core.params import ProtocolParams
from repro.core.sync import SyncRecord
from repro.errors import AdversaryError, SimulationError
from repro.metrics.columns import new_column
from repro.metrics.sampler import ClockSamples, CorruptionInterval
from repro.metrics.streaming import OnlineMeasures
from repro.net.links import UniformDelay
from repro.sim.engine import EnginePerfCounters
from repro.sim.rng import RngRegistry

__all__ = [
    "VectorUnsupported",
    "VectorSpec",
    "VectorRunOutput",
    "simulate_run",
]

_INF = math.inf
_NEG_INF = -math.inf

# Event kinds in the shadow heap (plain tuples, compared on (time, seq)):
#   (t, seq, SAMPLE)
#   (t, seq, ALARM, node)
#   (t, seq, DEADLINE, node, session)
#   (t, seq, PING, recipient, sender, session)
#   (t, seq, PONG, recipient, sender, session, clock_value)
#   (t, seq, BREAK, plan_index)
#   (t, seq, LEAVE, plan_index)
_SAMPLE, _ALARM, _DEADLINE, _PING, _PONG, _BREAK, _LEAVE = range(7)


class VectorUnsupported(Exception):
    """The scenario falls outside the vector envelope.

    Raised by :func:`simulate_run` when a feature it cannot replicate
    byte-exactly is requested (non-silent Byzantine strategies, a
    non-``"sync"`` protocol, message recording, ...).  The runner-side
    wrapper catches this and falls back to the scalar engine.
    """


@dataclass
class VectorSpec:
    """Resolved inputs of one batch run (a :class:`Scenario`, flattened).

    The engine lives below the runner layer, so it cannot import
    :class:`~repro.runner.scenario.Scenario`; the wrapper resolves the
    scenario's factories/specs into concrete objects and passes them
    here.  ``plan_context`` is the opaque first argument handed to
    ``plan_builder`` (the scenario itself when coming from the runner).

    Attributes:
        params: Protocol parameters.
        duration: Simulated real-time horizon.
        seed: Root seed of the named random streams.
        topology: Resolved topology object (``neighbors`` per node).
        delay_model: Resolved :class:`~repro.net.links.DelayModel`.
        clock_factory: ``(node, params, rng, horizon) -> HardwareClock``.
        initial_offsets: Explicit per-node initial ``adj``, or ``None``.
        initial_offset_spread: Uniform initial-offset spread when no
            explicit offsets are given.
        plan_builder: ``(plan_context, clocks) -> [PlannedCorruption]``
            or ``None`` for a fault-free run.
        plan_context: Opaque first argument for ``plan_builder``.
        enforce_f_limit: Audit the plan against Definition 2.
        sample_interval: Resolved sampling grid step.
        loss_rate: Per-message loss probability.
        stagger_phases: Randomize first-sync phases per node.
        stream_measures: Accumulate Definition 3 measures online
            (``samples`` stay empty) instead of recording the trace.
    """

    params: ProtocolParams
    duration: float
    seed: int
    topology: Any
    delay_model: Any
    clock_factory: Callable[..., Any]
    initial_offsets: Sequence[float] | None = None
    initial_offset_spread: float = 0.0
    plan_builder: Callable[..., Sequence[PlannedCorruption]] | None = None
    plan_context: Any = None
    enforce_f_limit: bool = True
    sample_interval: float = 0.0
    loss_rate: float = 0.0
    stagger_phases: bool = True
    stream_measures: bool = False


@dataclass
class VectorRunOutput:
    """Everything the runner needs to assemble a ``RunResult``.

    Field-for-field byte-identical to what the scalar engine produces
    for the same spec: real clocks with full adjustment histories, the
    same Sync records, the same sample columns (or the same finalized
    online measures), and the same deterministic engine counters.
    """

    clocks: dict[int, LogicalClock]
    corruptions: list[CorruptionInterval]
    syncs: list[SyncRecord]
    samples: ClockSamples
    stream: OnlineMeasures | None
    events_processed: int
    messages_delivered: int
    perf: EnginePerfCounters


def simulate_run(spec: VectorSpec) -> VectorRunOutput:
    """Execute one run of the vector envelope, byte-identical to scalar.

    Args:
        spec: Resolved scenario inputs.

    Raises:
        VectorUnsupported: When the spec falls outside the envelope
            (non-silent strategies, non-positive sample interval).
        Same exceptions as the scalar engine otherwise — adversary
        audit failures, clock domain errors, parameter errors — with
        identical messages, so error records also match.
    """
    params = spec.params
    n = params.n
    duration = spec.duration
    interval = spec.sample_interval
    if interval <= 0:
        raise VectorUnsupported(f"non-positive sample interval {interval}")

    rngs = RngRegistry(spec.seed)
    stream_fn = rngs.stream
    syncs: list[SyncRecord] = []

    # -- clocks (real factories, real streams, same draw order) ---------
    clocks: dict[int, LogicalClock] = {}
    offsets_rng = stream_fn("initial-offsets")
    offsets = spec.initial_offsets
    spread = spec.initial_offset_spread
    for node in range(n):
        hardware = spec.clock_factory(node, params, stream_fn(f"clock:{node}"),
                                      duration)
        if offsets is not None:
            adj0 = float(offsets[node])
        elif spread > 0.0:
            adj0 = offsets_rng.uniform(-spread / 2.0, spread / 2.0)
        else:
            adj0 = 0.0
        clocks[node] = LogicalClock(hardware, adj=adj0)

    phase_rng = stream_fn("phases")
    sync_interval = params.sync_interval
    if spec.stagger_phases:
        phases = [phase_rng.uniform(0.0, sync_interval) for _ in range(n)]
    else:
        phases = [0.0] * n

    # -- corruption plan (silent strategies only) -----------------------
    plan: list[PlannedCorruption] = []
    corruptions: list[CorruptionInterval] = []
    if spec.plan_builder is not None:
        plan = list(spec.plan_builder(spec.plan_context, clocks))
        for corruption in plan:
            if type(corruption.strategy) is not SilentStrategy:
                raise VectorUnsupported(
                    f"strategy {corruption.strategy.name!r} is not in the "
                    f"vector envelope (silent crash faults only)")
        if spec.enforce_f_limit:
            audit_f_limited(plan, params.f, params.pi)
        corruptions = [c.interval() for c in plan]

    # -- measurement sinks ----------------------------------------------
    record = not spec.stream_measures
    samples = ClockSamples(times=new_column(),
                           clocks={node: new_column() for node in range(n)})
    stream: OnlineMeasures | None = None
    if spec.stream_measures:
        stream = OnlineMeasures(
            clocks, corruptions, pi=params.pi, n=params.n,
            recovery_tolerance=params.bounds().max_deviation,
            recovery_settle=params.pi,
        )

    # -- struct-of-arrays node state ------------------------------------
    nn = n * n
    est_d = [0.0] * nn                    # per (node, peer) distance
    est_a = [0.0] * nn                    # per (node, peer) accuracy
    replied = bytearray(nn)               # per (node, peer) reply mask
    zero_row = bytes(n)
    adj = [clocks[node].adj for node in range(n)]  # mirror of clocks[i].adj
    sess_send = [0.0] * n                 # send-local of the open session
    controlled = bytearray(n)             # adversary occupation mask
    sess_active = [-1] * n                # open session token, -1 = none
    awaiting = [0] * n                    # outstanding pongs this session
    round_no = [0] * n
    node_timer = [-1] * n                 # seq of the pending local timer

    topology = spec.topology
    neighbor_list = [topology.neighbors(node) for node in range(n)]
    afters = [clocks[node].hardware.real_time_after for node in range(n)]
    times_append = samples.times.append
    sample_appends = [samples.clocks[node].append for node in range(n)]
    on_sync = syncs.append
    on_sample = stream.on_sample if stream is not None else None

    # -- inlined clock reads --------------------------------------------
    # Hardware reads dominate message handling, so every read below is
    # inlined against the shared segment mirror (repro.clocks.mirror):
    # the current linear piece of each clock in flat columns, evaluated
    # with the *identical* float expression (``h + (tau - start) *
    # rate``, then ``+ adj``).  Event times pop in non-decreasing order,
    # which is the mirror's contract; ``read_slow`` re-anchors a clock
    # when ``t`` crosses one of its breakpoints and serves clock shapes
    # with no linear form (quantized, custom) through their real
    # ``read`` (their ``ck_next`` stays ``-inf``).
    mirror = ClockMirror([clocks[node] for node in range(n)])
    ck_h, ck_s, ck_r, ck_next = mirror.h, mirror.s, mirror.r, mirror.next
    read_slow = mirror.read_slow

    # -- per-link random streams ----------------------------------------
    # Byte-parity pins the *values*: each link/loss stream is the
    # MT19937 sequence of ``random.Random(derive_seed(seed, name))``.
    # The loop consumes them through raw ``_random.Random`` instances
    # (cheaper to seed, identical output) and applies CPython's
    # ``uniform`` formula ``a + (b - a) * random()`` inline on the
    # bound C ``random`` method.
    seed_prefix = f"{spec.seed}:".encode()

    def _link_random(sender: int, recipient: int) -> Callable[[], float]:
        digest = sha256(seed_prefix + b"link:%d->%d"
                        % (sender, recipient)).digest()
        return _CoreRandom(int.from_bytes(digest[:8], "big")).random

    def _loss_random(sender: int, recipient: int) -> Callable[[], float]:
        digest = sha256(seed_prefix + b"loss:%d->%d"
                        % (sender, recipient)).digest()
        return _CoreRandom(int.from_bytes(digest[:8], "big")).random

    delay_model = spec.delay_model
    link_draw = delay_model.link_draw
    uniform_fast = type(delay_model) is UniformDelay
    if uniform_fast:
        dm_lo, dm_hi, dm_delta = delay_model.lo, delay_model.hi, delay_model.delta
    else:
        dm_lo = dm_hi = dm_delta = 0.0
    dm_span = dm_hi - dm_lo
    loss_rate = spec.loss_rate
    draw_fast: list[Callable[[], float] | None] = [None] * nn
    link_draws: list[Callable[[], float] | None] = [None] * nn
    loss_draws: list[Callable[[], float] | None] = [None] * nn

    include_self = params.include_self
    f_param = params.f
    way_off = params.way_off
    max_wait = params.max_wait
    decide = decide_arrays

    # -- calendar event queue: exact heap order, O(1) amortized ---------
    # Replays the scalar heap's total order exactly.  Events are
    # bucketed by time (equal times always share a bucket); a bucket is
    # sorted in bulk when the cursor enters it — full-tuple comparison
    # with unique ``seq`` numbers reproduces heapq's ``(time, seq)``
    # tie-breaking — and pushes that land in the bucket currently being
    # drained insert in sorted position past the read cursor.  ``hsize``
    # tracks the number of *pending* entries (lazily cancelled
    # included), which is exactly the scalar heap's size, so the
    # high-water and pending counters stay byte-identical.
    cancelled: set[int] = set()
    cancelled_add = cancelled.add
    cancelled_discard = cancelled.discard
    avg_degree = (sum(len(peers) for peers in neighbor_list) / n) if n else 0.0
    rounds_est = duration / sync_interval if sync_interval > 0.0 else 0.0
    est_events = (n * rounds_est * (2.0 * avg_degree + 2.0)
                  + duration / interval + 2.0 * len(plan) + n)
    nb = int(est_events / 8.0)
    if nb < 16:
        nb = 16
    elif nb > 131072:
        nb = 131072
    inv_w = nb / duration if duration > 0.0 else 0.0
    buckets: list[list[tuple] | None] = [[] for _ in range(nb)]
    last_b = nb - 1
    cur_b = -1
    cl: list[tuple] = []                  # the bucket being drained
    ci = 0                                # read cursor into ``cl``
    nseq = 0
    hsize = 0
    high_water = 0
    fired = 0
    ncancelled = 0
    delivered = 0
    sample_count = 0

    def _seed_push(event: tuple) -> None:
        b = int(event[0] * inv_w)
        bucket = buckets[b if b < last_b else last_b]
        assert bucket is not None
        bucket.append(event)

    # Push order mirrors repro.runner.experiment.run: adversary install
    # (plan order: break-in, then finite release), then the sample grid,
    # then each node's first sync alarm.
    for idx, corruption in enumerate(plan):
        if corruption.start < 0.0:
            raise SimulationError(
                f"cannot schedule at t={corruption.start!r}; "
                f"simulator time is already 0.0")
        _seed_push((corruption.start, nseq, _BREAK, idx))
        nseq += 1
        hsize += 1
        if math.isfinite(corruption.end):
            _seed_push((corruption.end, nseq, _LEAVE, idx))
            nseq += 1
            hsize += 1
    grid_t = 0.0
    while grid_t <= duration + 1e-12:
        _seed_push((grid_t, nseq, _SAMPLE))
        nseq += 1
        hsize += 1
        grid_t += interval
    for node in range(n):
        fire = afters[node](0.0, phases[node])
        _seed_push((fire, nseq, _ALARM, node))
        node_timer[node] = nseq
        nseq += 1
        hsize += 1
    high_water = hsize

    sess_counter = 0
    complete_node = -1
    wall_start = perf_counter()
    cn = 0                                # cached len(cl); insort bumps it
    while True:
        if ci == cn:
            b = cur_b + 1
            while b < nb and not buckets[b]:
                b += 1
            if b == nb:
                break
            if cur_b >= 0:
                buckets[cur_b] = None     # free drained buckets early
            cur_b = b
            cl = buckets[b]
            cl.sort()
            cn = len(cl)
            ci = 0
            continue
        ev = cl[ci]
        if cancelled and ev[1] in cancelled:
            ci += 1
            hsize -= 1
            cancelled_discard(ev[1])
            continue
        t = ev[0]
        if t > duration:
            break
        ci += 1
        hsize -= 1
        fired += 1
        kind = ev[2]

        if kind == _PING:
            # Deliver a ping: a good node always answers with a pong
            # carrying its current logical clock; a controlled (silent)
            # node drops it after the delivery is counted.
            r = ev[3]
            delivered += 1
            if controlled[r]:
                continue
            if t < ck_next[r]:
                clock_value = ck_h[r] + (t - ck_s[r]) * ck_r[r] + adj[r]
            else:
                clock_value = read_slow(r, t)
            s_node = ev[4]
            key = r * n + s_node
            if loss_rate > 0.0:
                loss = loss_draws[key]
                if loss is None:
                    loss = loss_draws[key] = _loss_random(r, s_node)
                if loss() < loss_rate:
                    continue
            if uniform_fast:
                draw = draw_fast[key]
                if draw is None:
                    draw = draw_fast[key] = _link_random(r, s_node)
                delay = dm_lo + dm_span * draw()
                if delay > dm_delta:
                    delay = dm_delta
            else:
                draw = link_draws[key]
                if draw is None:
                    draw = link_draws[key] = link_draw(
                        r, s_node, stream_fn(f"link:{r}->{s_node}"))
                delay = draw()
            tm = t + delay
            event = (tm, nseq, _PONG, s_node, r, ev[5], clock_value)
            b = int(tm * inv_w)
            if b >= last_b:
                b = last_b
            if b != cur_b:
                buckets[b].append(event)
            else:
                insort(cl, event, ci)
                cn += 1
            nseq += 1
            hsize += 1
            if hsize > high_water:
                high_water = hsize

        elif kind == _PONG:
            # Deliver a pong: accepted only by the session that sent the
            # matching ping (stale/duplicate replies are no-ops, exactly
            # like the scalar nonce check).
            o = ev[3]
            delivered += 1
            if controlled[o]:
                continue
            if ev[5] != sess_active[o]:
                continue
            base = o * n + ev[4]
            if replied[base]:
                continue
            if t < ck_next[o]:
                receive_local = ck_h[o] + (t - ck_s[o]) * ck_r[o] + adj[o]
            else:
                receive_local = read_slow(o, t)
            sent_local = sess_send[o]
            est_d[base] = ev[6] - (receive_local + sent_local) / 2.0
            est_a[base] = (receive_local - sent_local) / 2.0
            replied[base] = 1
            remaining = awaiting[o] - 1
            awaiting[o] = remaining
            if remaining == 0:
                cancelled_add(node_timer[o])
                ncancelled += 1
                node_timer[o] = -1
                complete_node = o

        elif kind == _SAMPLE:
            if record:
                times_append(t)
                for node in range(n):
                    if t < ck_next[node]:
                        value = (ck_h[node] + (t - ck_s[node]) * ck_r[node]
                                 + adj[node])
                    else:
                        value = read_slow(node, t)
                    sample_appends[node](value)
            else:
                on_sample(t, sample_count)
            sample_count += 1

        elif kind == _ALARM:
            # Begin a Sync round: one send-local read, a ping per peer
            # (loss then delay draw, per-link streams, peer order), then
            # the max-wait deadline.
            node = ev[3]
            if node_timer[node] == ev[1]:
                node_timer[node] = -1
            round_no[node] += 1
            sess_counter += 1
            token = sess_counter
            sess_active[node] = token
            if t < ck_next[node]:
                send_local = ck_h[node] + (t - ck_s[node]) * ck_r[node] \
                    + adj[node]
            else:
                send_local = read_slow(node, t)
            sess_send[node] = send_local
            row = node * n
            peers = neighbor_list[node]
            replied[row:row + n] = zero_row
            awaiting[node] = len(peers)
            nseq_before = nseq
            for peer in peers:
                key = row + peer
                if loss_rate > 0.0:
                    loss = loss_draws[key]
                    if loss is None:
                        loss = loss_draws[key] = _loss_random(node, peer)
                    if loss() < loss_rate:
                        continue
                if uniform_fast:
                    draw = draw_fast[key]
                    if draw is None:
                        draw = draw_fast[key] = _link_random(node, peer)
                    delay = dm_lo + dm_span * draw()
                    if delay > dm_delta:
                        delay = dm_delta
                else:
                    draw = link_draws[key]
                    if draw is None:
                        draw = link_draws[key] = link_draw(
                            node, peer, stream_fn(f"link:{node}->{peer}"))
                    delay = draw()
                tm = t + delay
                event = (tm, nseq, _PING, peer, node, token)
                b = int(tm * inv_w)
                if b >= last_b:
                    b = last_b
                if b != cur_b:
                    buckets[b].append(event)
                else:
                    insort(cl, event, ci)
                    cn += 1
                nseq += 1
            fire = afters[node](t, max_wait)
            event = (fire, nseq, _DEADLINE, node, token)
            b = int(fire * inv_w)
            if b >= last_b:
                b = last_b
            if b != cur_b:
                buckets[b].append(event)
            else:
                insort(cl, event, ci)
                cn += 1
            node_timer[node] = nseq
            nseq += 1
            # hsize rises monotonically through this handler (every
            # push bumps nseq, lost pings bump neither), so one
            # high-water check after the deadline push is exact.
            hsize += nseq - nseq_before
            if hsize > high_water:
                high_water = hsize

        elif kind == _DEADLINE:
            node = ev[3]
            if node_timer[node] == ev[1]:
                node_timer[node] = -1
            if ev[4] == sess_active[node]:
                complete_node = node

        elif kind == _BREAK:
            corruption = plan[ev[3]]
            node = corruption.node
            if controlled[node]:
                raise AdversaryError(
                    f"node {node} is already controlled at break-in")
            controlled[node] = 1
            timer = node_timer[node]
            if timer >= 0:
                cancelled_add(timer)
                ncancelled += 1
                node_timer[node] = -1

        else:  # _LEAVE
            corruption = plan[ev[3]]
            node = corruption.node
            if not controlled[node]:
                raise AdversaryError(
                    f"release of node {node} that is not controlled")
            controlled[node] = 0
            # Recovery restart: fresh session, first delay is the start
            # phase when the node never ran a round, else SyncInt.
            sess_active[node] = -1
            first_delay = phases[node] if round_no[node] == 0 else sync_interval
            fire = afters[node](t, first_delay)
            event = (fire, nseq, _ALARM, node)
            b = int(fire * inv_w)
            if b >= last_b:
                b = last_b
            if b != cur_b:
                buckets[b].append(event)
            else:
                insort(cl, event, ci)
                cn += 1
            node_timer[node] = nseq
            nseq += 1
            hsize += 1
            if hsize > high_water:
                high_water = hsize

        if complete_node >= 0:
            # Complete the Sync: estimates in sorted-peer order (timeout
            # = (0, inf)), optional self estimate, one decision-kernel
            # call, real clock adjustment, real Sync record, next alarm.
            o = complete_node
            complete_node = -1
            sess_active[o] = -1
            row = o * n
            overs: list[float] = []
            unders: list[float] = []
            replies = 0
            for peer in neighbor_list[o]:
                base = row + peer
                if replied[base]:
                    distance = est_d[base]
                    accuracy = est_a[base]
                    overs.append(distance + accuracy)
                    unders.append(distance - accuracy)
                    replies += 1
                else:
                    overs.append(_INF)
                    unders.append(_NEG_INF)
            if include_self:
                overs.append(0.0)
                unders.append(0.0)
            if t < ck_next[o]:
                local_before = ck_h[o] + (t - ck_s[o]) * ck_r[o] + adj[o]
            else:
                local_before = read_slow(o, t)
            decision = decide(overs, unders, f_param, way_off)
            clock = clocks[o]
            clock.adjust(t, decision.correction)
            adj[o] = clock.adj
            on_sync(SyncRecord(o, round_no[o], t, local_before,
                               decision.correction, decision.m,
                               decision.big_m, decision.own_discarded,
                               replies))
            fire = afters[o](t, sync_interval)
            event = (fire, nseq, _ALARM, o)
            b = int(fire * inv_w)
            if b >= last_b:
                b = last_b
            if b != cur_b:
                buckets[b].append(event)
            else:
                insort(cl, event, ci)
                cn += 1
            node_timer[o] = nseq
            nseq += 1
            hsize += 1
            if hsize > high_water:
                high_water = hsize

    wall = perf_counter() - wall_start
    if stream is not None:
        stream.finalize()

    perf = EnginePerfCounters(
        events_processed=fired,
        events_pushed=nseq,
        events_cancelled=ncancelled,
        cancelled_ratio=(ncancelled / nseq) if nseq else 0.0,
        heap_high_water=high_water,
        run_wall_time=wall,
        events_per_second=(fired / wall) if wall > 0.0 else 0.0,
        pending_events=nseq - fired - ncancelled,
    )
    return VectorRunOutput(
        clocks=clocks,
        corruptions=corruptions,
        syncs=syncs,
        samples=samples,
        stream=stream,
        events_processed=fired,
        messages_delivered=delivered,
        perf=perf,
    )

