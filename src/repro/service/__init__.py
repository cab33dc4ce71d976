"""Application-facing secure time services built on Sync.

The paper's Section 1 applications (proactive maintenance epochs,
freshness validation, expirations) expressed as an API whose tolerances
derive from the Theorem 5 bounds.
"""

from repro import _lazy

__all__ = [
    "SecureTimeService",
    "Timestamp",
    "TimeQuery",
    "TimeReply",
    "TimeQueryServer",
    "TimeQueryClient",
    "QueryError",
    "answer_query",
    "SyncHealthMonitor",
    "MonitorThresholds",
    "Alert",
    "RefreshingSyncProcess",
    "make_refreshing",
    "KeyAnnouncement",
    "RotationRecord",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.service.monitor": (
        "Alert", "MonitorThresholds", "SyncHealthMonitor",
    ),
    "repro.service.query": (
        "QueryError", "TimeQuery", "TimeQueryClient", "TimeQueryServer",
        "TimeReply", "answer_query",
    ),
    "repro.service.refresh": (
        "KeyAnnouncement", "RefreshingSyncProcess", "RotationRecord",
        "make_refreshing",
    ),
    "repro.service.timeservice": (
        "SecureTimeService", "Timestamp",
    ),
})
