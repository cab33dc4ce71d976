"""Measurement pipeline: sampling, Definition 3 measures, traces, tables.

Also re-exports the engine's performance-counter surface
(:class:`~repro.sim.engine.EnginePerfCounters`): events/sec, heap
high-water mark, and cancelled-event ratio are measurements too, and the
benchmark harness consumes them from here.
"""

from repro.sim.engine import EnginePerfCounters
from repro.metrics.columns import HAVE_NUMPY, backend_name, numpy_active, set_numpy
from repro.metrics.measures import (
    AccuracyReport,
    DeviationSeries,
    RecoveryEvent,
    RecoveryReport,
    accuracy_report,
    deviation_series,
    good_stretches,
    recovery_report,
    stretch_accuracy,
)
from repro.metrics.export import result_to_dict, write_result
from repro.metrics.plots import bias_plane, sparkline, strip_chart
from repro.metrics.report import check_mark, format_value, ratio, table
from repro.metrics.sampler import (
    ClockSampler,
    ClockSamples,
    CorruptionInterval,
    GoodSetIndex,
    WindowIndex,
    faulty_at,
    good_set,
)
from repro.metrics.streaming import OnlineMeasures
from repro.metrics.trace import CorruptionRecord, MessageRecord, TraceRecorder

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
    "TraceRecorder",
    "MessageRecord",
    "CorruptionRecord",
    "table",
    "sparkline",
    "strip_chart",
    "bias_plane",
    "result_to_dict",
    "write_result",
    "format_value",
    "ratio",
    "check_mark",
]
