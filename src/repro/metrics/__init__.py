"""Measurement pipeline: sampling, Definition 3 measures, tables, plots.

Also re-exports the engine's performance-counter surface
(:class:`~repro.sim.engine.EnginePerfCounters`): events/sec, heap
high-water mark, and cancelled-event ratio are measurements too, and the
benchmark harness consumes them from here.
"""

from repro import _lazy

__all__ = [
    "EnginePerfCounters",
    "ClockSampler",
    "ClockSamples",
    "CorruptionInterval",
    "GoodSetIndex",
    "WindowIndex",
    "OnlineMeasures",
    "HAVE_NUMPY",
    "backend_name",
    "numpy_active",
    "set_numpy",
    "good_set",
    "faulty_at",
    "DeviationSeries",
    "deviation_series",
    "accuracy_report",
    "AccuracyReport",
    "good_stretches",
    "stretch_accuracy",
    "recovery_report",
    "RecoveryReport",
    "RecoveryEvent",
    "table",
    "sparkline",
    "strip_chart",
    "bias_plane",
    "format_value",
    "ratio",
    "check_mark",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.sim.engine": (
        "EnginePerfCounters",
    ),
    "repro.metrics.columns": (
        "HAVE_NUMPY", "backend_name", "numpy_active", "set_numpy",
    ),
    "repro.metrics.measures": (
        "AccuracyReport", "DeviationSeries", "RecoveryEvent", "RecoveryReport",
        "accuracy_report", "deviation_series", "good_stretches",
        "recovery_report", "stretch_accuracy",
    ),
    "repro.metrics.plots": (
        "bias_plane", "sparkline", "strip_chart",
    ),
    "repro.metrics.report": (
        "check_mark", "format_value", "ratio", "table",
    ),
    "repro.metrics.sampler": (
        "ClockSampler", "ClockSamples", "CorruptionInterval", "GoodSetIndex",
        "WindowIndex", "faulty_at", "good_set",
    ),
    "repro.metrics.streaming": (
        "OnlineMeasures",
    ),
})
