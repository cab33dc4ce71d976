"""Columnar float storage and the optional numpy fast path.

The measurement pipeline stores every clock trace as a flat
``array('d')`` column (half the memory of a list of boxed floats, and a
buffer numpy can view zero-copy).  All bulk reductions used by the
measures are restricted to **max / min / subtraction** — operations
that are exact in IEEE-754 regardless of evaluation order — so the
pure-Python fallback and the numpy fast path produce *byte-identical*
results.  The one tie the two break differently is ``+0.0`` against
``-0.0`` (Python's ``min``/``max`` keep the first of equal values,
``np.minimum``/``np.maximum`` the second), so wherever a backend could
emit ``-0.0`` the result is canonicalised with ``+ 0.0``: a zero always
comes out as ``+0.0`` and every other value is unchanged.  numpy is a test/perf extra, never a
hard dependency: it is auto-detected at import time and every caller
degrades gracefully.

Backend selection:

* default — use numpy when importable (:data:`HAVE_NUMPY`);
* :func:`set_numpy` — force the pure-Python path (``False``), force
  numpy (``True``, raises if absent), or restore auto-detection
  (``None``).  The equivalence test suite uses this seam to run both
  backends on the same inputs and compare bytes.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from repro.errors import MeasurementError

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

#: Whether numpy was importable in this environment.
HAVE_NUMPY = _np is not None

#: Tri-state override: None = auto (use numpy iff available).
_FORCED: bool | None = None


def set_numpy(enabled: bool | None) -> None:
    """Force the reduction backend: True/False, or None for auto-detect.

    Raises:
        MeasurementError: When forcing numpy in an environment
            without it.
    """
    global _FORCED
    if enabled is True and not HAVE_NUMPY:
        raise MeasurementError("cannot force the numpy backend: numpy is not installed")
    _FORCED = enabled


def numpy_active() -> bool:
    """Whether reductions will take the numpy fast path right now."""
    if _FORCED is None:
        return HAVE_NUMPY
    return _FORCED


def backend_name() -> str:
    """``"numpy"`` or ``"python"`` — the active reduction backend."""
    return "numpy" if numpy_active() else "python"


def new_column() -> array:
    """An empty float column."""
    return array("d")


def as_column(values: Iterable[float]) -> array:
    """Coerce any float iterable into a column (no copy if already one)."""
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", values)


def spread_slice(columns: Sequence[Sequence[float]], lo: int, hi: int) -> list[float]:
    """Per-index ``max - min`` across ``columns`` over ``[lo, hi)``.

    The workhorse of the deviation series: given the clock columns of a
    constant good set and a sample-index slice, return the pairwise
    spread at each sample.  Exact: max/min pick an input value, a single
    IEEE subtraction is deterministic and zeros are canonicalised to
    ``+0.0``, so both backends return identical bytes.  Only the numpy
    path needs the ``+ 0.0``: Python's ``max`` and ``min`` both return
    the first of tied values, so when both are zero they are the same
    element and their difference is already ``+0.0``.

    Args:
        columns: At least two equal-length float sequences.
        lo: First sample index (inclusive).
        hi: Last sample index (exclusive).
    """
    if numpy_active():
        rows = [_np.frombuffer(col, dtype=_np.float64, offset=8 * lo, count=hi - lo)
                if isinstance(col, array)
                else _np.asarray(col, dtype=_np.float64)[lo:hi]
                for col in columns]
        stacked_max = _np.maximum.reduce(rows)
        stacked_min = _np.minimum.reduce(rows)
        return (stacked_max - stacked_min + 0.0).tolist()
    out = []
    for i in range(lo, hi):
        values = [col[i] for col in columns]
        out.append(max(values) - min(values))
    return out

