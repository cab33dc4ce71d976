"""Declarative adversary plans: picklable specs for corruption schedules.

The plan generators in :mod:`repro.adversary.mobile` take strategy
*factories* — closures that don't cross process boundaries and can't be
written in a JSON config.  A :class:`PlanSpec` is the declarative
counterpart: a plan kind (``rotating``, ``single-burst``, ...), a
:class:`StrategySpec` naming the per-victim behaviour, and plain-data
options.  Specs cross process pools, round-trip through JSON, and build
the exact same :class:`~repro.adversary.mobile.PlannedCorruption` lists
the old closures did — which is what lets *any* scenario fan out over a
process pool, not just the four canned config scenarios.

A ``PlanSpec`` is itself callable with the ``(scenario, clocks)``
plan-builder signature, so it drops into ``Scenario.plan_builder``
unchanged.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.adversary.mobile import (
    PlannedCorruption,
    random_plan,
    rotating_plan,
    round_robin_plan,
    single_burst_plan,
)
from repro.adversary.strategies import (
    STRATEGIES,
    STRATEGY_FACTORIES,
    StrategyFactory,
    build_strategy_factory,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clocks.logical import LogicalClock
    from repro.core.params import ProtocolParams
    from repro.runner.scenario import Scenario


SOAK_RNG_SALT = 0x50AC
"""Seed salt for the ``random`` plan kind's private stream (kept apart
from the simulation's root seed so plan shape and run randomness are
independent)."""


@dataclass(frozen=True)
class PlanContext:
    """Everything a plan builder may consult at build time.

    Attributes:
        params: The scenario's protocol parameterization.
        seed: The scenario's root seed (factories derive their own
            streams from it).
        duration: Real-time length of the run (plans stop before it).
        clocks: The logical clock registry, for omniscient strategies;
            ``None`` during validation-only builds.
    """

    params: "ProtocolParams"
    seed: int
    duration: float
    clocks: dict[int, "LogicalClock"] | None = None


@dataclass(frozen=True)
class StrategySpec:
    """A named strategy (or strategy factory) plus its options.

    ``name`` may be a registered strategy class name (``"liar"``,
    ``"silent"``, ...) — built fresh per episode with ``kwargs`` — or a
    registered factory name (``"standard-mix"``, ``"alternating-reset"``)
    for rotations that vary per (node, episode).

    Attributes:
        name: Key of ``STRATEGIES`` or ``STRATEGY_FACTORIES``.
        kwargs: Constructor / factory-builder keyword options.
    """

    name: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in STRATEGIES and self.name not in STRATEGY_FACTORIES:
            raise ConfigurationError(
                f"unknown strategy {self.name!r}; known strategies: "
                f"{sorted(STRATEGIES)}, factories: {sorted(STRATEGY_FACTORIES)}")

    def resolve(self, ctx: PlanContext) -> StrategyFactory:
        """Build the ``(node, episode) -> strategy`` factory."""
        return build_strategy_factory(self.name, self.kwargs, params=ctx.params,
                                      seed=ctx.seed, clocks=ctx.clocks)

    def to_config(self) -> dict[str, Any]:
        """The JSON form: ``{"name": ..., **kwargs}``."""
        return {"name": self.name, **self.kwargs}

    @classmethod
    def from_config(cls, spec: dict[str, Any]) -> "StrategySpec":
        """Parse the JSON ``strategy`` section.

        Raises:
            ConfigurationError: On a missing ``name`` key or an unknown
                strategy.
        """
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigurationError(
                "plan strategy config requires a 'name' key; got "
                f"{sorted(spec) if isinstance(spec, dict) else type(spec).__name__}")
        kwargs = {key: value for key, value in spec.items() if key != "name"}
        return cls(name=spec["name"], kwargs=kwargs)


PlanKind = Callable[..., "Sequence[PlannedCorruption]"]

PLAN_KINDS: dict[str, PlanKind] = {}
"""Registered plan kinds; each is called as ``kind(ctx,
strategy_factory, **options)`` with keyword-only options."""


def register_plan_kind(name: str) -> Callable[[PlanKind], PlanKind]:
    """Register a plan-kind builder under ``name`` (decorator)."""

    def decorator(builder: PlanKind) -> PlanKind:
        PLAN_KINDS[name] = builder
        return builder

    return decorator


def _keyword_options(builder: PlanKind) -> set[str]:
    return {p.name for p in inspect.signature(builder).parameters.values()
            if p.kind == p.KEYWORD_ONLY}


@dataclass(frozen=True)
class PlanSpec:
    """Declarative, picklable adversary plan.

    Attributes:
        kind: Registered plan kind (a key of :data:`PLAN_KINDS`).
        strategy: What each victim does while controlled.
        options: Keyword options of the plan kind (e.g. ``first_start``
            for ``rotating``; ``victims``/``start``/``dwell`` for
            ``single-burst``).  Validated eagerly against the kind's
            signature so a typo fails at parse time, not mid-campaign.
    """

    kind: str
    strategy: StrategySpec
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ConfigurationError(
                f"unknown plan kind {self.kind!r}; known: {sorted(PLAN_KINDS)}")
        known = _keyword_options(PLAN_KINDS[self.kind])
        unknown = set(self.options) - known
        if unknown:
            raise ConfigurationError(
                f"unknown options {sorted(unknown)} for plan kind "
                f"{self.kind!r}; known: {sorted(known)}")

    def build(self, ctx: PlanContext) -> "Sequence[PlannedCorruption]":
        """Materialize the corruption schedule for one run."""
        factory = self.strategy.resolve(ctx)
        try:
            return PLAN_KINDS[self.kind](ctx, factory, **self.options)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid options for plan kind {self.kind!r}: {exc}") from None

    def __call__(self, scenario: "Scenario",
                 clocks: dict[int, "LogicalClock"]) -> "Sequence[PlannedCorruption]":
        """The ``Scenario.plan_builder`` calling convention."""
        ctx = PlanContext(params=scenario.params, seed=scenario.seed,
                          duration=scenario.duration, clocks=clocks)
        return self.build(ctx)

    def to_config(self) -> dict[str, Any]:
        """The JSON ``plan`` section:
        ``{"kind": ..., "strategy": {...}, **options}``."""
        return {"kind": self.kind, "strategy": self.strategy.to_config(),
                **self.options}

    @classmethod
    def from_config(cls, spec: dict[str, Any]) -> "PlanSpec":
        """Parse the JSON ``plan`` section.

        Raises:
            ConfigurationError: On missing ``kind``/``strategy`` keys,
                unknown names, or options the kind does not accept.
        """
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigurationError(
                "plan config requires a 'kind' key; got "
                f"{sorted(spec) if isinstance(spec, dict) else type(spec).__name__}")
        if "strategy" not in spec:
            raise ConfigurationError(
                f"plan config requires a 'strategy' section; got {sorted(spec)}")
        options = {key: value for key, value in spec.items()
                   if key not in ("kind", "strategy")}
        return cls(kind=spec["kind"],
                   strategy=StrategySpec.from_config(spec["strategy"]),
                   options=options)


# ----------------------------------------------------------------------
# Plan kinds (thin shims over the mobile.py generators)
# ----------------------------------------------------------------------


@register_plan_kind("rotating")
def _rotating(ctx: PlanContext, strategy_factory: StrategyFactory, *,
              dwell: float | None = None, margin: float | None = None,
              first_start: float = 0.0) -> "Sequence[PlannedCorruption]":
    """f nodes at a time, hopping groups forever (the headline threat)."""
    return rotating_plan(n=ctx.params.n, f=ctx.params.f, pi=ctx.params.pi,
                         duration=ctx.duration, strategy_factory=strategy_factory,
                         dwell=dwell, margin=margin, first_start=first_start)


@register_plan_kind("single-burst")
def _single_burst(ctx: PlanContext, strategy_factory: StrategyFactory, *,
                  victims: Sequence[int], start: float,
                  dwell: float) -> "Sequence[PlannedCorruption]":
    """One simultaneous corruption episode (focused recovery workload)."""
    return single_burst_plan(list(victims), start=start, dwell=dwell,
                             strategy_factory=strategy_factory)


@register_plan_kind("round-robin")
def _round_robin(ctx: PlanContext, strategy_factory: StrategyFactory, *,
                 dwell: float | None = None,
                 margin: float | None = None) -> "Sequence[PlannedCorruption]":
    """One node at a time, hopping as fast as Definition 2 allows."""
    return round_robin_plan(n=ctx.params.n, pi=ctx.params.pi, duration=ctx.duration,
                            strategy_factory=strategy_factory, dwell=dwell,
                            margin=margin)


@register_plan_kind("random")
def _random(ctx: PlanContext, strategy_factory: StrategyFactory, *,
            rng_seed: int | None = None,
            intensity: float = 0.7) -> "Sequence[PlannedCorruption]":
    """Randomized f-limited fuzzing plan on a private salted stream."""
    seed = (ctx.seed ^ SOAK_RNG_SALT) if rng_seed is None else rng_seed
    return random_plan(n=ctx.params.n, f=ctx.params.f, pi=ctx.params.pi,
                       duration=ctx.duration, strategy_factory=strategy_factory,
                       rng=random.Random(seed), intensity=intensity)
