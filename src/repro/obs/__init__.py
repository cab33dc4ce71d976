"""Observability: event bus, span tracing, metrics, live envelope probes.

The flight-recorder layer of the reproduction: a single typed event bus
that the engine, network, protocol, adversary, and health monitor
publish into, with span tracing (Sync executions and their per-peer
estimations), a per-node metrics registry, and live Theorem 5 envelope
probes that flag a violated bound the moment it happens instead of at
verdict time.

Everything here is advisory and deterministic: no protocol decision
reads observability state (the paper's no-detection property), and the
serialized event stream is byte-identical across identical-seed runs.
See ``DESIGN.md`` ("Observability") for the contract.
"""

from repro import _lazy

__all__ = [
    "EventBus",
    "ObsEvent",
    "event_to_json",
    "event_from_json",
    "events_to_jsonl",
    "read_events_jsonl",
    "Span",
    "SpanTracer",
    "chrome_trace",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "MetricsCollector",
    "LiveTelemetry",
    "ClusterIntrospection",
    "merged_latency",
    "MetricsHttpServer",
    "render_prometheus",
    "metric_families",
    "snapshot_percentile",
    "Theorem5Probe",
    "ProbeViolation",
    "violations_from_events",
    "FlightRecorder",
    "ObsConfig",
    "TraceSummary",
    "summarize_events",
    "render_summary",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.obs.bus": (
        "EventBus", "ObsEvent", "event_from_json", "event_to_json",
        "events_to_jsonl", "read_events_jsonl",
    ),
    "repro.obs.expo": (
        "MetricsHttpServer", "metric_families", "render_prometheus",
        "snapshot_percentile",
    ),
    "repro.obs.live": (
        "ClusterIntrospection", "LiveTelemetry", "merged_latency",
    ),
    "repro.obs.metricsreg": (
        "LATENCY_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsCollector",
        "MetricsRegistry",
    ),
    "repro.obs.probes": (
        "ProbeViolation", "Theorem5Probe", "violations_from_events",
    ),
    "repro.obs.recorder": (
        "FlightRecorder", "ObsConfig",
    ),
    "repro.obs.spans": (
        "Span", "SpanTracer", "chrome_trace", "write_chrome_trace",
    ),
    "repro.obs.summary": (
        "TraceSummary", "render_summary", "summarize_events",
    ),
})
