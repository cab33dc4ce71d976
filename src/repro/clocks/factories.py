"""Named hardware-clock populations (the clock-model registry).

A *clock model* is a factory ``(node, params, rng, horizon) ->
HardwareClock`` building node ``i``'s hardware clock for one run.  The
models here are registered by name so scenarios and JSON configs can
select them declaratively (``"clocks": "wander"``) and remain picklable
for process-pool fan-out; arbitrary callables remain usable from Python
for one-off experiments.

Registered models:

* ``wander`` — independent bounded random-walk drift (the realistic
  crystal-oscillator model; the default population).
* ``extremal`` — clocks pinned at alternating drift extremes, the
  worst case eq. (2) permits.
* ``perfect`` — driftless clocks (the Section 4.3 simplified setting).
* ``clique-extremal`` — the Section 5 two-clique population: the first
  half of the nodes runs fast, the second half slow, so the cliques'
  clocks diverge at the maximal mutual rate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.clocks.drift import wander_schedule
from repro.clocks.hardware import FixedRateClock, HardwareClock, PiecewiseRateClock
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.core.params import ProtocolParams


ClockFactory = Callable[[int, "ProtocolParams", "random.Random", float], HardwareClock]
"""Builds node ``i``'s hardware clock: ``(node, params, rng, horizon)``."""


CLOCK_MODELS: dict[str, ClockFactory] = {}
"""Registry of named clock populations (see :func:`register_clock_model`)."""


def register_clock_model(name: str) -> Callable[[ClockFactory], ClockFactory]:
    """Register a clock factory under ``name`` (decorator).

    Registered models are reachable from declarative scenarios and JSON
    configs; re-registering a name overwrites it (deliberate, so tests
    can shadow models).
    """

    def decorator(factory: ClockFactory) -> ClockFactory:
        CLOCK_MODELS[name] = factory
        return factory

    return decorator


def clock_model(name: str) -> ClockFactory:
    """Look up a registered clock model by name.

    Raises:
        ConfigurationError: Naming the unknown model and listing the
            known ones.
    """
    try:
        return CLOCK_MODELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown clock model {name!r}; known: {sorted(CLOCK_MODELS)}"
        ) from None


@register_clock_model("wander")
def wander_clocks(node: int, params: "ProtocolParams", rng: "random.Random",
                  horizon: float) -> HardwareClock:
    """Default clock population: independent bounded random-walk drift."""
    schedule = wander_schedule(params.rho, step=params.sync_interval, horizon=horizon, rng=rng)
    return PiecewiseRateClock(params.rho, schedule)


@register_clock_model("extremal")
def extremal_clocks(node: int, params: "ProtocolParams", rng: "random.Random",
                    horizon: float) -> HardwareClock:
    """Worst-case population: clocks pinned at alternating drift extremes.

    Even nodes run at ``1 + rho``, odd nodes at ``1/(1+rho)`` — the
    maximum mutual drift eq. (2) permits, sustained forever.
    """
    rate = (1.0 + params.rho) if node % 2 == 0 else 1.0 / (1.0 + params.rho)
    return FixedRateClock(params.rho, rate=rate)


@register_clock_model("perfect")
def perfect_clocks(node: int, params: "ProtocolParams", rng: "random.Random",
                   horizon: float) -> HardwareClock:
    """Driftless clocks (the Section 4.3 simplified analysis setting)."""
    return FixedRateClock(params.rho, rate=1.0)


@register_clock_model("clique-extremal")
def clique_extremal_clocks(node: int, params: "ProtocolParams", rng: "random.Random",
                           horizon: float) -> HardwareClock:
    """Per-clique drift extremes for the Section 5 counterexample.

    Nodes in the first half of the id space (the first clique) run at
    ``1 + rho``; the rest run at ``1/(1+rho)``, so the two cliques'
    clocks diverge at the maximal mutual rate while each clique stays
    internally synchronized.
    """
    rate = (1.0 + params.rho) if node < params.n // 2 else 1.0 / (1.0 + params.rho)
    return FixedRateClock(params.rho, rate=rate)
