"""Live telemetry plane: the flight recorder on a real cluster.

:class:`LiveTelemetry` is a substrate adapter over
:class:`~repro.obs.recorder.FlightRecorder`, not a second obs stack:
same subsystems, same :class:`~repro.obs.recorder.ObsConfig` meaning
and same event schema, so a live JSONL stream replays through
``repro trace`` like a simulator trace.  It keeps only what differs: it
attaches to a (duck-typed) :class:`~repro.rt.live.LiveCluster`, sets
the spread gauges from the cluster's sampler, and *pulls* the
transports' and query servers' bare-int counters into the registry on
each sample and before the final snapshot, so the datagram hot path
stays untouched.  ``ObsConfig.messages`` does nothing here: a live
cluster has no :class:`~repro.net.network.Network` to tap.

:class:`ClusterIntrospection` is the read side: the ``stats`` /
``health`` documents served by the admin endpoints
(:class:`~repro.service.query.TimeQueryServer` query kinds and the
Prometheus scrape port — :mod:`repro.obs.expo`).  It works with or
without telemetry attached; without it the metrics section is absent
but spread-vs-bound health still answers.

This module never imports :mod:`repro.rt` at runtime (the rt layer
imports obs, not vice versa); the cluster is duck-typed on the handful
of attributes it actually reads.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metricsreg import MetricsRegistry
from repro.obs.recorder import FlightRecorder


#: Transport counter attributes pulled into the registry, in metric
#: name order: ``(registry counter name, transport attribute)``.
TRANSPORT_COUNTERS = (
    ("transport_sent", "messages_sent"),
    ("transport_delivered", "messages_delivered"),
    ("transport_malformed_dropped", "malformed_dropped"),
    ("transport_misrouted_dropped", "misrouted_dropped"),
    ("transport_version_dropped", "version_dropped"),
    ("transport_send_dropped", "send_dropped"),
)

#: Query-server counter attributes pulled into the registry.
QUERY_COUNTERS = (
    ("queries_answered", "queries_answered"),
    ("queries_failed", "queries_failed"),
    ("queries_malformed", "malformed_dropped"),
    ("queries_send_dropped", "send_dropped"),
)

#: The query-latency histogram family (log-spaced latency buckets),
#: populated by :class:`~repro.service.query.TimeQueryServer`.
QUERY_LATENCY_METRIC = "query_latency_seconds"


def spread_bounded(spread: list[tuple[float, float]], bound: float) -> bool:
    """The live verdict: at least one ``(tau, spread)`` sample, and every
    spread within the Theorem 5(i) deviation ``bound``.

    The one rule behind ``LiveReport.bounded()`` (in process and with
    ``--processes``) and the ``health`` document.  No per-node check is
    needed: each sample reads every clock the cluster hosts.
    """
    return bool(spread) and all(s <= bound for _, s in spread)


def _transport_counters(transports: dict[int, Any]
                        ) -> dict[int | None, dict[str, int]]:
    """The bare-int counters of each distinct transport, by owner.

    The owner is the node of a per-node transport (one with a
    ``node_id``) and ``None`` for a loopback hub shared by every node,
    which is counted once.  Missing attributes are skipped (loopback
    has no drop counters).
    """
    out: dict[int | None, dict[str, int]] = {}
    seen: set[int] = set()
    for node, transport in transports.items():
        if id(transport) in seen:
            continue
        seen.add(id(transport))
        owner = node if getattr(transport, "node_id", None) is not None else None
        out[owner] = {name: int(getattr(transport, attr))
                      for name, attr in TRANSPORT_COUNTERS
                      if getattr(transport, attr, None) is not None}
    return out


class LiveTelemetry(FlightRecorder):
    """The flight recorder on a live cluster.

    Construct it like a :class:`~repro.obs.recorder.FlightRecorder`,
    passing the cluster's bus, then :meth:`attach` the cluster.
    """

    _cluster: Any = None

    def attach(self, cluster: Any) -> None:
        """Point the cluster's processes at the bus; emit ``run.start``.

        ``cluster`` is duck-typed (needs ``params``, ``clocks``,
        ``processes``, ``transports``, ``query_servers``); called by
        ``build_cluster`` when telemetry is enabled.
        """
        self._cluster = cluster
        self._attach_processes(cluster.processes, cluster.clocks,
                               cluster.params)

    def on_sample(self, tau: float, spread: float | None = None) -> None:
        """Sampler hook: drive the probe, then refresh the spread
        gauges and the pulled counters."""
        super().on_sample(tau)
        if self.collector is not None:
            registry = self.collector.registry
            if spread is not None:
                registry.gauge("cluster_spread").set(spread)
                registry.gauge("cluster_spread_bound").set(
                    self._cluster.params.bounds().max_deviation)
            self.pull_counters()

    def pull_counters(self) -> None:
        """Fold transport / query-server bare-int counters into the
        registry (idempotent: counters are *set*, not incremented)."""
        if self.collector is None or self._cluster is None:
            return
        registry = self.collector.registry
        for owner, counters in _transport_counters(
                self._cluster.transports).items():
            for name, value in counters.items():
                registry.counter(name, owner).value = float(value)
        for node, server in self._cluster.query_servers.items():
            for name, attr in QUERY_COUNTERS:
                registry.counter(name, node).value = float(getattr(server, attr))

    def finalize(self, sim: Any = None) -> None:
        """Pull the counters once more, then emit the end-of-run
        snapshot events (idempotent)."""
        if not self._finalized:
            self.pull_counters()
        super().finalize()


def merged_latency(snapshot: dict[str, Any],
                   name: str = QUERY_LATENCY_METRIC) -> dict[str, Any] | None:
    """Merge a snapshot histogram family across nodes into one entry.

    All per-node query-latency histograms share the same bucket bounds,
    so their bucket counts add; the merged entry feeds the cluster-wide
    p50/p99 in :meth:`ClusterIntrospection.health`.  Returns ``None``
    when the family is absent or empty.
    """
    series = snapshot.get("histograms", {}).get(name, {})
    merged: dict[str, Any] | None = None
    for entry in series.values():
        if not entry.get("count") or not entry.get("bucket_bounds"):
            continue
        if merged is None:
            merged = {
                "count": 0, "sum": 0.0, "min": entry["min"],
                "max": entry["max"],
                "bucket_bounds": list(entry["bucket_bounds"]),
                "bucket_counts": [0] * len(entry["bucket_counts"]),
            }
        merged["count"] += entry["count"]
        merged["sum"] += entry["sum"]
        merged["min"] = min(merged["min"], entry["min"])
        merged["max"] = max(merged["max"], entry["max"])
        for i, count in enumerate(entry["bucket_counts"]):
            merged["bucket_counts"][i] += count
    return merged


class ClusterIntrospection:
    """Read-only stats/health view over a running (duck-typed) cluster.

    The single source behind every admin surface: the ``stats`` /
    ``health`` query kinds of
    :class:`~repro.service.query.TimeQueryServer`, the scrape port's
    ``/stats`` and ``/health`` documents, and ``repro stats``.

    Args:
        cluster: Duck-typed live cluster (``params``, ``spread``,
            ``processes``, ``transports``, ``query_servers``, ``now``).
        telemetry: The cluster's :class:`LiveTelemetry`, or ``None``
            for an uninstrumented cluster (health still answers from
            the sampler's spread series; the metrics section is empty).
    """

    def __init__(self, cluster: Any,
                 telemetry: LiveTelemetry | None = None) -> None:
        self.cluster = cluster
        self.telemetry = telemetry

    @property
    def registry(self) -> MetricsRegistry | None:
        """The live registry, or ``None`` without metrics telemetry."""
        if self.telemetry is None or self.telemetry.collector is None:
            return None
        return self.telemetry.collector.registry

    def metrics_snapshot(self) -> dict[str, Any]:
        """Current registry snapshot (fresh counter pull first)."""
        if self.telemetry is None:
            return MetricsRegistry().snapshot()
        self.telemetry.pull_counters()
        return self.telemetry.metrics.snapshot()

    def transport_counters(self) -> dict[str, dict[str, int]]:
        """Per-node transport counters straight off the transports.

        Keys are stringified node ids (``"_"`` for a shared loopback
        hub), mirroring the registry snapshot convention.
        """
        return {"_" if owner is None else str(owner): counters
                for owner, counters
                in _transport_counters(self.cluster.transports).items()}

    def query_counters(self) -> dict[str, dict[str, int]]:
        """Per-node query-server counters (empty when not serving)."""
        return {
            str(node): {name: int(getattr(server, attr))
                        for name, attr in QUERY_COUNTERS}
            for node, server in self.cluster.query_servers.items()
        }

    def health(self) -> dict[str, Any]:
        """The operator's one-look document: is Theorem 5 holding?

        ``bounded`` is :func:`spread_bounded` over the spread samples
        so far, answered while the cluster runs.
        """
        cluster = self.cluster
        bound = cluster.params.bounds().max_deviation
        spreads = [s for _, s in cluster.spread]
        telemetry = self.telemetry
        doc: dict[str, Any] = {
            "tau": cluster.now(),
            "nodes": cluster.params.n,
            "f": cluster.params.f,
            "bound": bound,
            "samples": len(spreads),
            "spread": spreads[-1] if spreads else None,
            "max_spread": max(spreads) if spreads else None,
            "bounded": spread_bounded(cluster.spread, bound),
            "rounds": {str(node): proc.rounds_completed
                       for node, proc in cluster.processes.items()},
            "telemetry": telemetry is not None,
            "violations": (len(telemetry.violations)
                           if telemetry is not None else None),
        }
        entry = merged_latency(self.metrics_snapshot())
        if entry is not None:
            from repro.obs.expo import snapshot_percentile

            doc["query_p50"] = snapshot_percentile(entry, 0.50)
            doc["query_p99"] = snapshot_percentile(entry, 0.99)
        else:
            doc["query_p50"] = None
            doc["query_p99"] = None
        return doc

    def stats(self) -> dict[str, Any]:
        """The full introspection document: health + raw counters +
        metrics snapshot."""
        return {
            "health": self.health(),
            "transport": self.transport_counters(),
            "queries": self.query_counters(),
            "metrics": self.metrics_snapshot(),
        }
