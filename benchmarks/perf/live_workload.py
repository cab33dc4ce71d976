"""``live_query``: one served cluster child, one client socket.

The server is a separate ``python -m repro live --transport udp
--serve`` process (the deployed shape), so latency is a property of the
server and not of the generator's own backlog; the generator is this
process, which makes two busy processes on a two-core box.

Closed loop: ``WINDOW`` queries in flight, the next sent when the
oldest completes.  Open loop: query ``i`` is *due* at ``t0 + i / rate``
whatever the server does, is sent as soon as the generator notices, and
its latency is taken from its due time, so the wait a stall imposes on
later queries is counted.  A pass whose generator lateness p99 exceeds
``LATE_LIMIT_S`` measured the generator, not the server, and is reported
invalid for that rate.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Any

from harness import (OUT, ROOT, Unit, Workload, child_env, gc_paused, mean,
                     median, percentile)
from tracing import Tracer

NODES, F, DELTA = 4, 1, 0.02
WINDOW = 32
RATES = (5_000, 10_000, 20_000, 30_000)
HEADLINE_RATE = 10_000
LATE_LIMIT_S = 0.25e-3
READY_TIMEOUT_S = 30.0
PASS_TIMEOUT_S = 5.0
#: After an open-loop schedule ends, how long a reply may still arrive.
DRAIN_S = 0.25
SPAWN_ATTEMPTS = 3


class ChildGone(RuntimeError):
    """The served child exited before answering a query."""


def _free_udp_base(count: int) -> int:
    """A port ``p`` with ``p .. p+count-1`` all bindable right now."""
    for _ in range(50):
        held = []
        try:
            first = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            held.append(first)
            first.bind(("127.0.0.1", 0))
            base = first.getsockname()[1]
            if base + count > 65535:
                continue
            for offset in range(1, count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                held.append(sock)
                sock.bind(("127.0.0.1", base + offset))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise RuntimeError("no run of free localhost UDP ports")


class LiveQuery(Workload):
    name = "live_query"
    work_unit = "query"
    imports = ("repro.service.query", "repro.rt.codec")
    #: The traced run serves reference + traced passes + the rate
    #: ladder + the mixed pass: about 1.3x ``--seconds``.
    serve_factor_traced = 1.5

    # -- set-up: spawn the child, wait for its first reply ------------

    def setup(self, seed: int, size: str, seconds: float) -> dict[str, Any]:
        # Another process may take a probed port before the child binds
        # it; the child then dies at once and a new base is tried.
        for attempt in range(SPAWN_ATTEMPTS):
            state = self._spawn(seed, size, seconds)
            try:
                state["client"] = state["loop"].run_until_complete(
                    self._ready(state))
                return state
            except BaseException as exc:
                self.teardown(state)
                if not isinstance(exc, ChildGone) \
                        or attempt == SPAWN_ATTEMPTS - 1:
                    raise

    def _spawn(self, seed: int, size: str, seconds: float) -> dict[str, Any]:
        tmp = tempfile.TemporaryDirectory(dir=OUT)
        report = Path(tmp.name) / "report.json"
        log = open(Path(tmp.name) / "child.log", "w")
        port = _free_udp_base(NODES)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "live", "--nodes", str(NODES),
             "--f", str(F), "--delta", str(DELTA), "--transport", "udp",
             "--serve", "--serve-base-port", str(port),
             "--duration", f"{seconds + 1.5:.3f}",
             "--seed", str(seed % 2**31), "--json", str(report)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(),
            cwd=str(ROOT))
        return {"tmp": tmp, "log": log, "report": report, "child": child,
                "loop": asyncio.new_event_loop(), "port": port,
                "client": None, "lost": 0,
                "queries": 1_000 if size == "smoke" else 10_000}

    async def _ready(self, state):
        """Connect and poll until the child answers its first query."""
        from repro.service.query import OP_NOW, QueryError, TimeQueryClient
        client = TimeQueryClient(port=state["port"], timeout=0.05)
        await client.connect()
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                reply, _ = await client.request(OP_NOW)
                break
            except QueryError:
                if state["child"].poll() is not None:
                    raise ChildGone("live child exited before serving")
                if time.perf_counter() > deadline:
                    raise RuntimeError("live child never answered")
        client.timeout = 2.0
        state["anchor"] = (reply.value, reply.node)
        return client

    def live_pids(self, state) -> tuple[int, ...]:
        return (state["child"].pid,)

    # -- closed loop ---------------------------------------------------

    async def _closed_loop(self, state, total: int, ops, done: list[int]
                           ) -> int:
        """``total`` queries, ``WINDOW`` in flight; returns ok replies."""
        client = state["client"]
        pending: deque = deque()
        ok = 0
        for i in range(total):
            if len(pending) >= WINDOW:
                reply, _ = await pending.popleft()
                ok += reply.ok
                done[0] += 1
            op, fields = ops[i % len(ops)]
            pending.append(client.submit(op, **fields))
        while pending:
            reply, _ = await pending.popleft()
            ok += reply.ok
            done[0] += 1
        return ok

    def _pass(self, state, total: int, ops) -> tuple[int, int]:
        """One closed-loop pass -> ``(attempted, failed)``.  A pass that
        stalls (a lost datagram never completes its future) is cut at
        ``PASS_TIMEOUT_S``; what had not completed counts as failed."""
        loop, done = state["loop"], [0]
        try:
            ok = loop.run_until_complete(asyncio.wait_for(
                self._closed_loop(state, total, ops, done), PASS_TIMEOUT_S))
        except asyncio.TimeoutError:
            state["lost"] += total - done[0]
            state["client"].close()
            state["client"] = loop.run_until_complete(self._ready(state))
            return total, total - done[0]
        return total, total - ok

    def unit(self, state, index: int) -> Unit:
        from repro.service.query import OP_NOW
        attempted, failed = self._pass(state, state["queries"],
                                       [(OP_NOW, {})])
        return Unit(work=attempted, attempted=attempted, failed=failed)

    # -- open loop -----------------------------------------------------

    async def _open_loop(self, state, rate: int, seconds: float
                         ) -> dict[str, Any]:
        from repro.service.query import OP_NOW
        client = state["client"]
        clock = time.perf_counter
        total = max(int(rate * seconds), 100)
        interval = 1.0 / rate
        latencies: list[float] = []
        lateness: list[float] = []
        backlog: list[int] = []
        failed = [0]

        def on_reply(future) -> None:
            if future.cancelled() or future.exception() is not None:
                failed[0] += 1
                return
            reply, _ = future.result()
            latencies.append(clock() - future.due)
            if not reply.ok:
                failed[0] += 1

        start = clock() + 0.005
        sent = 0
        while sent < total:
            now = clock()
            due = start + sent * interval
            if now < due:
                # Spin, but give the core away first: a woken server
                # placed behind a spinning generator waits a whole
                # scheduler tick (4 ms here) and that reads as its p99.
                os.sched_yield()
                await asyncio.sleep(0)  # let replies in, then look again
                continue
            future = client.submit(OP_NOW)
            future.due = due
            future.add_done_callback(on_reply)
            lateness.append(now - due)
            sent += 1
            backlog.append(sent - len(latencies) - failed[0])
            if sent % 16 == 0:
                await asyncio.sleep(0)  # never starve the receive path
        drain_until = clock() + DRAIN_S
        while len(latencies) + failed[0] < total and clock() < drain_until:
            await asyncio.sleep(0.001)
        timeouts = total - len(latencies) - failed[0]

        quarter = max(len(backlog) // 4, 1)
        growing = mean(backlog[-quarter:]) > 2 * mean(backlog[:quarter]) + 32
        late_p99 = percentile(lateness, 99)
        p99 = percentile(latencies, 99) if latencies else float("inf")
        return {
            "rate": rate, "queries": total,
            "p50_ms": 1e3 * median(latencies),
            "p99_ms": 1e3 * p99,
            "p999_ms": 1e3 * (percentile(latencies, 99.9)
                              if latencies else float("inf")),
            "late_p99_ms": 1e3 * late_p99,
            "backlog_max": max(backlog),
            "timeouts": timeouts, "failed": failed[0],
            "valid": late_p99 <= LATE_LIMIT_S,
            "ok": (late_p99 <= LATE_LIMIT_S and p99 < DELTA and not growing
                   and timeouts == 0 and failed[0] == 0),
        }

    # -- after the measured phase --------------------------------------

    def finish(self, state) -> Unit:
        """Wait for the child to end on its own; it must exit 0 with the
        cluster bounded and no failed query on its side."""
        if state["client"] is not None:
            state["client"].close()
            state["client"] = None
        child = state["child"]
        problems = []
        try:
            code = child.wait(timeout=READY_TIMEOUT_S + PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            problems.append(f"live child exit code {code}")
        detail: dict[str, Any] = {}
        try:
            report = json.loads(state["report"].read_text())
        except (OSError, ValueError):
            report = None
            problems.append("live child wrote no report")
        if report is not None:
            if not report["bounded"]:
                problems.append("cluster spread left the Theorem 5 bound")
            if sum(report["queries_failed"].values()):
                problems.append("server answered queries with ok=False")
            detail = {
                "spread_over_dev": report["max_spread"] / report["bound"],
                "sync_rounds": sum(report["rounds"].values()),
                "server_malformed": sum(
                    report["queries_malformed"].values()),
            }
        if state["lost"]:
            problems.append(f"{state['lost']} queries never answered")
        if state.get("ladder_failed"):
            problems.append(f"{state['ladder_failed']} open-loop or mixed "
                            f"queries failed")
        detail["problems"] = problems
        return Unit(work=0, attempted=1, failed=1 if problems else 0,
                    detail=detail)

    def teardown(self, state) -> None:
        if state["client"] is not None:
            state["client"].close()
            state["client"] = None
        child = state["child"]
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        loop = state["loop"]
        if not loop.is_closed():
            loop.run_until_complete(asyncio.sleep(0))
            loop.close()
        state["log"].close()
        state["tmp"].cleanup()

    # -- traced run ----------------------------------------------------

    def finish_layers(self, state, checks: Unit) -> dict[str, float]:
        return {"rt.live.sync_rounds": checks.detail.get("sync_rounds", 0),
                "rt.live.spread_over_dev": checks.detail.get(
                    "spread_over_dev", 0.0)}

    def install(self, tracer: Tracer, state) -> None:
        tracer.patch("repro.service.query:TimeQueryClient.submit",
                     "service.query:submit")
        tracer.patch("repro.service.query:encode_datagram",
                     "rt.codec:encode")
        tracer.patch("repro.service.query:decode_datagram",
                     "rt.codec:decode")

    def layers(self, state, tracer: Tracer, ref, traced, seconds: float
               ) -> dict[str, float]:
        import probes
        from repro.service.query import OP_EPOCH, OP_NOW, OP_VALIDATE
        loop = state["loop"]
        queries = sum(unit.work for unit in ref["units"])
        qps = median([unit.work / wall
                      for unit, wall in zip(ref["units"], ref["walls"])])

        ladder = {}
        for rate in RATES:
            with gc_paused():
                ladder[rate] = loop.run_until_complete(
                    self._open_loop(state, rate, seconds / 8.0))
        value, node = state["anchor"]
        mixed = [(OP_NOW, {}),
                 (OP_VALIDATE, {"ts_value": value, "ts_issuer": node,
                                "max_age": 3600.0}),
                 (OP_EPOCH, {"epoch_length": 60.0})]
        mixed_total = state["queries"] * 3 // 5
        with gc_paused():
            start = time.perf_counter()
            attempted, failed = self._pass(state, mixed_total, mixed)
            mixed_qps = attempted / (time.perf_counter() - start)
        stats = loop.run_until_complete(state["client"].stats())
        dropped = sum(
            value for counters in list(stats["queries"].values())
            + list(stats["transport"].values())
            for key, value in counters.items() if key.endswith("dropped"))
        # A query lost at a fixed rate misses the latency limit: the
        # rate is not ok.  Only a reply with ok=False is a failed check.
        ladder_lost = sum(p["timeouts"] for p in ladder.values())
        state["ladder_failed"] = failed + sum(
            p["failed"] for p in ladder.values())

        codec = probes.codec_probes()
        answer = probes.answer_ns(NODES, F, DELTA)
        head = ladder[HEADLINE_RATE]
        out = {
            **codec,
            "service.query.answer_ns": answer,
            "service.query.server_cpu_us": ref["live_cpu"] / queries * 1e6,
            "service.query.client_cpu_us": ref["self_cpu"] / queries * 1e6,
            "rt.transport.residual_us": (
                1e6 / qps - 2 * (codec["rt.codec.encode_ns"]
                                 + codec["rt.codec.decode_ns"]) / 1e3
                - answer / 1e3),
            "service.query.qps": qps,
            "service.query.mixed_qps": mixed_qps,
            "service.query.p50_ms.r10000": head["p50_ms"],
            "service.query.p999_ms": head["p999_ms"],
            "service.query.rate_ok_qps": max(
                [rate for rate, p in ladder.items() if p["ok"]], default=0),
            "service.query.late_p99_ms": head["late_p99_ms"],
            "service.query.backlog_max": head["backlog_max"],
            "service.query.timeouts": state["lost"] + ladder_lost,
            "service.query.unmatched": state["client"].replies_unmatched,
            "service.query.dropped": dropped,
        }
        for rate, result in ladder.items():
            out[f"service.query.p99_ms.r{rate}"] = result["p99_ms"]
        return out
