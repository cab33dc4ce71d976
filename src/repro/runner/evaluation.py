"""Declarative evaluation specs: machine-checked pass criteria.

The paper's claims — the Theorem 5 deviation/accuracy envelope, the
Claim 8 recovery bound, the Definition 2 resilience limit — deserve
pass/fail criteria that live next to the experiments instead of inside
ad-hoc analysis scripts.  An :class:`EvaluationSpec` is a picklable,
registered description of what a campaign's
:class:`~repro.runner.store.ResultStore` must look like for an
experiment to count as reproduced:

* ``required_columns`` — fields the store must carry at all,
* ``where`` — which rows the spec judges (e.g. only the runs whose
  corruption stayed within the Definition 2 ``f`` limit),
* ``checks`` — per-row comparisons, each either against a constant
  (``envelope_occupancy >= 0.95``) or against another column
  (``recovery.max_recovery_time <= verdict.bound.recovery_seconds``,
  the measured-vs-bound shape), with an optional additive tolerance.

:func:`evaluate` runs one spec against a store and returns a rich
:class:`EvaluationReport`; ``repro evaluate <campaign-dir>`` is the
CLI face.  Specs whose ``where`` selects no rows are *skipped*, not
failed, so ``repro evaluate`` can run the whole registry against any
campaign and judge only the applicable experiments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - numpy-free import for `--list`
    from repro.runner.store import Query, ResultStore

__all__ = [
    "Check",
    "EvaluationSpec",
    "CheckResult",
    "EvaluationReport",
    "evaluate",
    "evaluate_all",
    "register_spec",
    "get_spec",
    "registered_specs",
]

_CHECK_OPS = ("==", "!=", "<", "<=", ">", ">=", "isnull", "notnull")


@dataclass(frozen=True)
class Check:
    """One per-row criterion of an :class:`EvaluationSpec`.

    Every selected row must satisfy ``column <op> rhs``, where the
    right-hand side is either the constant ``value`` or the row's own
    ``bound_column`` cell times ``scale`` — the latter is how
    measured-vs-bound claims are written without precomputed flag
    columns.  ``tolerance`` adds slack in the direction of the
    operator (``<=`` allows ``lhs <= rhs + tolerance``, ``>=`` allows
    ``lhs >= rhs - tolerance``, ``==`` becomes
    ``|lhs - rhs| <= tolerance`` when nonzero).

    Rows whose left (or bound) cell is absent, or ``nan``, fail the
    check — a claim that cannot be verified is not verified.  The
    ``isnull`` / ``notnull`` operators check presence itself and take
    no right-hand side.
    """

    column: str
    op: str
    value: Any = None
    bound_column: str | None = None
    scale: float = 1.0
    tolerance: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _CHECK_OPS:
            raise EvaluationError(
                f"check on {self.column!r}: unknown op {self.op!r}; "
                f"known: {_CHECK_OPS}")
        if self.bound_column is not None and self.value is not None:
            raise EvaluationError(
                f"check on {self.column!r}: value and bound_column are "
                f"mutually exclusive")

    def label(self) -> str:
        """Compact one-line rendering (``lhs <= 1.0*rhs (+tol)``)."""
        if self.op in ("isnull", "notnull"):
            return f"{self.column} {self.op}"
        if self.bound_column is not None:
            rhs = self.bound_column if self.scale == 1.0 \
                else f"{self.scale:g}*{self.bound_column}"
        else:
            rhs = repr(self.value)
        tol = f" (tol {self.tolerance:g})" if self.tolerance else ""
        return f"{self.column} {self.op} {rhs}{tol}"


@dataclass(frozen=True)
class EvaluationSpec:
    """A registered, picklable pass criterion for one experiment.

    Attributes:
        name: Registry key (``repro evaluate --spec <name>``).
        description: What claim of the paper this spec verifies.
        where: Row filters selecting the runs the spec judges, as
            ``(column, op, value)`` triples combined with AND (the
            :meth:`~repro.runner.store.Query.where` vocabulary).  An
            empty selection *skips* the spec.
        required_columns: Columns the store must have for the spec to
            be judgeable; missing ones fail the evaluation outright.
        checks: Per-row criteria; all must hold on every selected row.
        min_runs: Fewer selected runs than this fails the evaluation
            (a claim "verified" on one lucky seed is not verified).
    """

    name: str
    description: str
    where: tuple[tuple[str, str, Any], ...] = ()
    required_columns: tuple[str, ...] = ()
    checks: tuple[Check, ...] = ()
    min_runs: int = 1

    def select(self, store: ResultStore) -> Query:
        """The spec's row selection over ``store``."""
        from repro.runner.store import Query

        query = store.query()
        for column, op, value in self.where:
            if not store.has_column(column):
                return Query(store, [])
            query = query.where(column, op, value)
        return query


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one :class:`Check` over the selected rows.

    Attributes:
        label: The check's one-line rendering.
        description: The check's own description.
        passed: Whether every checked row satisfied the criterion.
        checked: Number of rows judged.
        failures: Number of rows that failed.
        worst: ``(row, lhs, rhs)`` of the worst offender — largest
            violation margin for ordered ops, first failure otherwise
            (``None`` when all passed).
    """

    label: str
    description: str
    passed: bool
    checked: int
    failures: int
    worst: tuple[int, Any, Any] | None = None


@dataclass(frozen=True)
class EvaluationReport:
    """Outcome of evaluating one spec against one store.

    ``status`` is ``"pass"``, ``"fail"``, or ``"skipped"`` (the spec's
    ``where`` matched no rows — the campaign does not exercise this
    experiment).
    """

    spec: str
    description: str
    status: str
    total: int
    selected: int
    missing_columns: tuple[str, ...] = ()
    checks: tuple[CheckResult, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"

    def to_json(self) -> dict[str, Any]:
        """JSON-serializable report (the ``repro evaluate --json`` shape)."""
        return {
            "spec": self.spec,
            "description": self.description,
            "status": self.status,
            "total": self.total,
            "selected": self.selected,
            "missing_columns": list(self.missing_columns),
            "checks": [
                {
                    "label": c.label,
                    "description": c.description,
                    "passed": c.passed,
                    "checked": c.checked,
                    "failures": c.failures,
                    "worst": None if c.worst is None else list(c.worst),
                }
                for c in self.checks
            ],
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        head = {"pass": "PASS", "fail": "FAIL",
                "skipped": "SKIP"}[self.status]
        lines = [f"{head} {self.spec}: {self.description} "
                 f"[{self.selected}/{self.total} runs]"]
        for column in self.missing_columns:
            lines.append(f"  !! missing column {column!r}")
        for check in self.checks:
            mark = "ok" if check.passed else "FAIL"
            line = f"  [{mark}] {check.label}"
            if check.description:
                line += f" — {check.description}"
            line += f" ({check.checked - check.failures}/{check.checked})"
            if check.worst is not None:
                row, lhs, rhs = check.worst
                line += f"; worst row {row}: {lhs!r} vs {rhs!r}"
            lines.append(line)
        return "\n".join(lines)


def _violation_margin(op: str, lhs: Any, rhs: Any) -> float:
    """How badly an ordered comparison failed (for worst-offender
    ranking); 0.0 when not rankable."""
    try:
        if op in ("<", "<="):
            return float(lhs) - float(rhs)
        if op in (">", ">="):
            return float(rhs) - float(lhs)
        if op in ("==",):
            return abs(float(lhs) - float(rhs))
    except (TypeError, ValueError):
        pass
    return 0.0


def _cell_ok(check: Check, lhs: Any, rhs: Any) -> bool:
    if check.op == "isnull":
        return lhs is None
    if check.op == "notnull":
        return lhs is not None
    if lhs is None or rhs is None:
        return False
    try:
        if isinstance(lhs, float) and math.isnan(lhs):
            return False
        if check.op == "==":
            if check.tolerance:
                return abs(lhs - rhs) <= check.tolerance
            return lhs == rhs
        if check.op == "!=":
            return lhs != rhs
        if check.op == "<":
            return lhs < rhs
        if check.op == "<=":
            return lhs <= rhs + check.tolerance
        if check.op == ">":
            return lhs > rhs
        return lhs >= rhs - check.tolerance
    except TypeError:
        return False


def _run_check(check: Check, store: ResultStore,
               rows: Sequence[int]) -> CheckResult:
    lhs_cells = store.values(check.column) if store.has_column(check.column) \
        else [None] * store.n_runs
    rhs_cells = None
    if check.bound_column is not None:
        rhs_cells = store.values(check.bound_column) \
            if store.has_column(check.bound_column) else [None] * store.n_runs
    failures = 0
    worst: tuple[int, Any, Any] | None = None
    worst_margin = -math.inf
    for row in rows:
        lhs = lhs_cells[row]
        if rhs_cells is not None:
            rhs = rhs_cells[row]
            if rhs is not None:
                rhs = rhs * check.scale
        else:
            rhs = check.value
        if _cell_ok(check, lhs, rhs):
            continue
        failures += 1
        margin = _violation_margin(check.op, lhs, rhs)
        if worst is None or margin > worst_margin:
            worst = (row, lhs, rhs)
            worst_margin = margin
    return CheckResult(
        label=check.label(),
        description=check.description,
        passed=failures == 0,
        checked=len(rows),
        failures=failures,
        worst=worst,
    )


def evaluate(spec: EvaluationSpec | str,
             store: ResultStore) -> EvaluationReport:
    """Judge ``store`` against ``spec`` (a spec or a registered name).

    Raises:
        EvaluationError: On an unregistered spec name.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    missing = tuple(column for column in spec.required_columns
                    if not store.has_column(column))
    selection = spec.select(store)
    rows = selection.indices()
    if not rows and not missing:
        return EvaluationReport(spec=spec.name, description=spec.description,
                                status="skipped", total=store.n_runs,
                                selected=0)
    results = tuple(_run_check(check, store, rows) for check in spec.checks)
    passed = (not missing and len(rows) >= spec.min_runs
              and all(result.passed for result in results))
    return EvaluationReport(
        spec=spec.name,
        description=spec.description,
        status="pass" if passed else "fail",
        total=store.n_runs,
        selected=len(rows),
        missing_columns=missing,
        checks=results,
    )


def evaluate_all(store: ResultStore,
                 names: Iterable[str] | None = None) -> list[EvaluationReport]:
    """Evaluate ``store`` against every named (or every registered)
    spec, in registry order."""
    if names is None:
        names = list(registered_specs())
    return [evaluate(name, store) for name in names]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, EvaluationSpec] = {}


def register_spec(spec: EvaluationSpec) -> EvaluationSpec:
    """Register a spec under its name (idempotent for equal specs).

    Raises:
        EvaluationError: When a *different* spec already owns the name.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise EvaluationError(f"evaluation spec {spec.name!r} is already "
                              f"registered with a different definition")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> EvaluationSpec:
    """Look up a registered spec.

    Raises:
        EvaluationError: On an unknown name, listing what exists.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise EvaluationError(f"unknown evaluation spec {name!r}; "
                              f"registered: {sorted(_REGISTRY)}")
    return spec


def registered_specs() -> dict[str, EvaluationSpec]:
    """Name → spec of every registered evaluation spec (a copy)."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Built-in specs for the repo's experiments
# ----------------------------------------------------------------------

#: E1 / Theorem 5(i): on every clean run, the measured good-set
#: deviation stays within the theoretical envelope, and the envelope
#: holds sample-by-sample (occupancy 1.0), not just at the max.
register_spec(EvaluationSpec(
    name="theorem5-envelope",
    description="Theorem 5(i): measured deviation within the bound on "
                "every clean run",
    where=(("error", "isnull", None),),
    required_columns=("verdict.measured_deviation",
                      "verdict.bound.max_deviation",
                      "envelope_occupancy"),
    checks=(
        Check(column="verdict.measured_deviation", op="<=",
              bound_column="verdict.bound.max_deviation",
              description="max good-set deviation vs. the 5(i) bound"),
        Check(column="envelope_occupancy", op=">=", value=1.0,
              description="every post-warmup sample inside the envelope"),
    ),
))

#: E2 / Theorem 5(ii): accuracy — logical drift and discontinuity
#: within their bounds on every clean run.
register_spec(EvaluationSpec(
    name="theorem5-accuracy",
    description="Theorem 5(ii): implied drift and discontinuity within "
                "their bounds on every clean run",
    where=(("error", "isnull", None),),
    required_columns=("accuracy.implied_drift",
                      "verdict.bound.logical_drift",
                      "accuracy.max_discontinuity",
                      "verdict.bound.discontinuity"),
    checks=(
        Check(column="accuracy.implied_drift", op="<=",
              bound_column="verdict.bound.logical_drift",
              description="implied logical drift vs. the 5(ii) drift bound"),
        Check(column="accuracy.max_discontinuity", op="<=",
              bound_column="verdict.bound.discontinuity",
              description="largest good-state correction vs. the 5(ii) "
                          "discontinuity bound"),
    ),
))

#: E4 / Claim 8(iii): every released node stably rejoins, within the
#: O(1) recovery bound (recovery_intervals * T, in seconds).
register_spec(EvaluationSpec(
    name="claim8-recovery",
    description="Claim 8(iii): every recovering node rejoins within the "
                "recovery bound",
    where=(("error", "isnull", None), ("recovery.count", ">", 0)),
    required_columns=("recovery.all_recovered",
                      "recovery.max_recovery_time",
                      "verdict.bound.recovery_seconds"),
    checks=(
        Check(column="recovery.all_recovered", op="==", value=True,
              description="no released node stayed lost"),
        Check(column="recovery.max_recovery_time", op="<=",
              bound_column="verdict.bound.recovery_seconds",
              description="worst rejoin time vs. Claim 8's bound"),
    ),
))

#: E7 / Definition 2: with at most f concurrently-corrupted processors
#: (configs tag themselves via ``extra.within_f``), every guarantee
#: holds — the resilience boundary experiment's "good side".
register_spec(EvaluationSpec(
    name="e7-resilience",
    description="Definition 2: all Theorem 5 guarantees hold while "
                "corruption stays within the f limit",
    where=(("config.extra.within_f", "==", True),),
    required_columns=("ok",),
    checks=(
        Check(column="error", op="isnull",
              description="within-f runs execute cleanly"),
        Check(column="ok", op="==", value=True,
              description="all Theorem 5 guarantees held"),
    ),
))

#: Campaign hygiene: no run errored, independent of any bound.
register_spec(EvaluationSpec(
    name="campaign-clean",
    description="No run in the campaign ended in an error record",
    required_columns=("error",),
    checks=(
        Check(column="error", op="isnull",
              description="error column empty on every run"),
    ),
))
