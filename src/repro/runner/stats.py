"""Replication statistics: mean ± confidence interval over seeds.

A single seeded run is a point estimate; the benchmark tables report
several seeds where it matters, and this module provides the standard
machinery — sample mean, standard deviation, and a Student-t confidence
interval (via scipy) — for summarizing a measure across replications.
Used by the statistics bench and available to downstream experiment
pipelines.

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
                f"({int(self.confidence * 100)}% CI, n={self.n})")


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
    from scipy import stats as scipy_stats

    t_crit = scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
    half = t_crit * std / math.sqrt(n)
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
