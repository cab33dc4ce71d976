"""Replication statistics: mean ± confidence interval over seeds.

A single seeded run is a point estimate; the benchmark tables report
several seeds where it matters, and this module provides the standard
machinery — sample mean, standard deviation, and a Student-t confidence
interval — for summarizing a measure across replications.  The t
critical value is computed here, with the standard library only:
Newton's method on the Student-t distribution function, written as a
regularized incomplete beta function and summed by its hypergeometric
series (see :func:`_t_critical`).  Used by the statistics bench and
available to downstream experiment pipelines.

The store-backed entry points (:func:`summarize_column`,
:func:`summarize_grouped`) run the *same* reduction over columns of a
:class:`~repro.runner.store.ResultStore`: because the store preserves
measure floats bit-exactly and the reduction code is shared, a campaign
summarized through its store is byte-identical to summarizing the
in-memory records directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import MeasurementError
from repro.runner.store import Query, ResultStore


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and confidence interval of a measure over replications.

    Attributes:
        n: Number of replications.
        mean: Sample mean.
        std: Sample standard deviation (ddof=1; 0 for n=1).
        ci_low: Lower end of the confidence interval.
        ci_high: Upper end.
        confidence: The confidence level used.
        values: The raw per-replication values.
    """

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float
    values: tuple[float, ...]

    @property
    def half_width(self) -> float:
        """Half the CI width (the "±" in mean ± x)."""
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return (f"{self.mean:.6g} ± {self.half_width:.3g} "
                f"({self.confidence * 100:g}% CI, n={self.n})")


def _series(p: float, q: float, z: float) -> float:
    """Gauss's hypergeometric 2F1(p, 1; q; z): a sum of positive terms."""
    total = term = 1.0
    n = 0
    while term > 1e-17 * total:
        term *= (p + n) / (q + n) * z
        total += term
        n += 1
    return total


def _stirling(z: float) -> float:
    """Stirling's series: log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2)."""
    w = 1.0 / (z * z)
    return (1 / 12 - (1 / 360 - (1 / 1260 - w / 1680) * w) * w) / z


def _t_critical(confidence: float, df: int) -> float:
    """The ``t`` with ``P(|T| <= t) = confidence`` for Student's T on ``df``.

    With ``x = df / (df + t^2)`` the tail ``P(|T| > t)`` is the
    regularized incomplete beta function ``I_x(df/2, 1/2)``, which is
    ``1 - I_(1-x)(1/2, df/2)``; whichever argument is at most 1/2 is
    summed as a series of positive terms (tail or central mass), so no
    digit is lost to cancellation.  The tail is decreasing and convex in
    ``t``, so Newton's method started at the normal quantile (always
    below the root) climbs to it monotonically; a step that would go
    down is rounding noise and ends the climb.  For ``confidence <=
    0.999`` and ``df`` from 1 to 10^6 the result is within 1e-13
    (relative) of the exact quantile, and within a few ulp of the
    closed forms at ``df = 1`` and ``df = 2``.
    """
    # Imported here: statistics pulls in decimal and fractions, which
    # nothing else on the import path of repro.runner needs.
    from statistics import NormalDist

    a = df / 2.0
    if df < 40:  # B(a + 1, 1/2) = B(a, 1/2) * a / (a + 1/2), from B(1/2 or 1, 1/2)
        beta = math.pi if df % 2 else 2.0
        for k in range(2 - df % 2, df, 2):
            beta *= k / (k + 1.0)
    else:  # Stirling's series, cut after z^-7, is good to 1e-16 from z = 20
        beta = math.sqrt(math.pi / a) * math.exp(
            0.5 - a * math.log1p(0.5 / a) + _stirling(a) - _stirling(a + 0.5))
    t = abs(NormalDist().inv_cdf((1.0 - confidence) / 2.0))
    step = t
    while step > 1e-9 * t:
        u = t * t / df
        x, y = 1.0 / (1.0 + u), u / (1.0 + u)
        if x <= 0.5:  # x^a y^(1/2) / B(a, 1/2), then the tail I_x(a, 1/2)
            front = x ** a * math.sqrt(y) / beta
            miss = front / a * _series(a + 0.5, a + 1.0, x) - (1.0 - confidence)
        else:  # the same front, then the central mass I_y(1/2, a)
            front = math.exp(-a * math.log1p(u)) * math.sqrt(y) / beta
            miss = confidence - 2.0 * front * _series(a + 0.5, 1.5, y)
        step = miss * t / (2.0 * front)  # d(tail)/dt = -2 front / t
        t += max(step, 0.0)
    return t


def summarize_replications(values: Sequence[float],
                           confidence: float = 0.95) -> ReplicationSummary:
    """Student-t confidence interval for the mean of ``values``.

    Args:
        values: Per-replication measurements (at least one; with one
            value the CI degenerates to the point).
        confidence: Two-sided confidence level in (0, 1).

    Raises:
        MeasurementError: On empty input or a bad confidence level.
    """
    if not values:
        raise MeasurementError("cannot summarize zero replications")
    if not (0.0 < confidence < 1.0):
        raise MeasurementError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return ReplicationSummary(n=1, mean=mean, std=0.0, ci_low=mean,
                                  ci_high=mean, confidence=confidence,
                                  values=tuple(values))
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(variance)
    half = _t_critical(confidence, n - 1) * std / math.sqrt(n)
    return ReplicationSummary(n=n, mean=mean, std=std, ci_low=mean - half,
                              ci_high=mean + half, confidence=confidence,
                              values=tuple(values))


def replicate_measure(scenario_builder: Callable[[int], object],
                      measure: Callable[[object], float],
                      seeds: Sequence[int],
                      confidence: float = 0.95) -> ReplicationSummary:
    """Run ``scenario_builder(seed)`` per seed and summarize ``measure``.

    Args:
        scenario_builder: Maps a seed to a runnable scenario.
        measure: Extracts the statistic from each
            :class:`~repro.runner.experiment.RunResult`.
        seeds: Replication seeds.
        confidence: CI level.
    """
    from repro.runner.experiment import run

    values = [measure(run(scenario_builder(seed))) for seed in seeds]
    return summarize_replications(values, confidence)


def summarize_column(source: ResultStore | Query, column: str,
                     confidence: float = 0.95) -> ReplicationSummary:
    """Summarize one store column across its present rows.

    ``source`` is a whole :class:`~repro.runner.store.ResultStore` or a
    pre-filtered :class:`~repro.runner.store.Query` (e.g.
    ``store.query().where("error", "isnull")``).  Absent cells are
    dropped; the present values feed :func:`summarize_replications`
    unchanged, so the result is byte-identical to summarizing the same
    runs' records by hand.

    Raises:
        MeasurementError: When no selected row has the column present.
    """
    query = source.query() if isinstance(source, ResultStore) else source
    return summarize_replications(query.values(column), confidence)


def summarize_grouped(source: ResultStore | Query, key: str, column: str,
                      confidence: float = 0.95
                      ) -> dict[object, ReplicationSummary]:
    """Per-group :func:`summarize_column`, keyed by a group-by column.

    The sweep-analysis staple: one CI per parameter value, e.g.
    ``summarize_grouped(store, "config.params.f",
    "verdict.measured_deviation")``.  Groups are those of
    :meth:`~repro.runner.store.Query.group_by`, built in one pass; rows
    with an absent or nan key belong to no group, and groups whose rows
    have no present ``column`` cell are omitted (instead of raising).
    """
    query = source.query() if isinstance(source, ResultStore) else source
    groups = sorted(query.group_by(key).values(column).items(),
                    key=lambda item: (str(type(item[0][0])), str(item[0][0])))
    return {group_key: summarize_replications(values, confidence)
            for (group_key,), values in groups
            if values and group_key is not None and group_key == group_key}
