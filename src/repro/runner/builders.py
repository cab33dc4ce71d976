"""Canonical scenario builders used by tests, examples, and benchmarks.

These encode the standard workloads of the evaluation:

* :func:`default_params` — a laptop-scale parameterization with visible
  drift (``rho`` inflated vs. real crystals so effects show up in
  seconds of simulated time).
* :func:`benign_scenario` — drift only, no adversary.
* :func:`mobile_byzantine_scenario` — the headline workload: a rotating
  f-limited adversary corrupting every node over time with a mix of
  strategies.
* :func:`recovery_scenario` — one corruption burst, for focused
  recovery measurement.
* :func:`split_world_scenario` — the omniscient spreading attack, for
  probing the tightness of the deviation bound.
"""

from __future__ import annotations

from typing import Sequence

from repro.adversary.plans import PlanSpec, StrategySpec
from repro.adversary.strategies import standard_strategy_mix  # noqa: F401  -- re-export
from repro.core.params import ProtocolParams
from repro.net.topology import TopologySpec
from repro.runner.scenario import Scenario


def default_params(n: int = 7, f: int = 2, delta: float = 0.005, rho: float = 5e-4,
                   pi: float = 2.0, target_k: int = 10) -> ProtocolParams:
    """A laptop-scale parameterization with strict validation.

    ``rho = 5e-4`` is deliberately ~100x a real crystal's drift so that
    drift effects are visible within seconds of simulated time; the
    protocol's guarantees are drift-scale-free, so this only compresses
    the experiment timescale.
    """
    return ProtocolParams.derive(n=n, f=f, delta=delta, rho=rho, pi=pi, target_k=target_k)


def benign_scenario(params: ProtocolParams | None = None, duration: float = 10.0,
                    seed: int = 0, **kwargs) -> Scenario:
    """Drift and jitter only — no adversary."""
    params = params if params is not None else default_params()
    return Scenario(params=params, duration=duration, seed=seed,
                    name="benign", **kwargs)


def mobile_byzantine_scenario(params: ProtocolParams | None = None,
                              duration: float = 30.0, seed: int = 0,
                              dwell: float | None = None, **kwargs) -> Scenario:
    """The headline workload: rotating f-limited Byzantine corruption.

    Over the run, the adversary corrupts group after group of ``f``
    processors (eventually all of them, repeatedly), each episode using
    the :func:`standard_strategy_mix`.
    """
    params = params if params is not None else default_params()
    options = {"first_start": 2.0 * params.t_interval}  # let startup converge
    if dwell is not None:
        options["dwell"] = dwell
    plan = PlanSpec("rotating", StrategySpec("standard-mix"), options)
    return Scenario(params=params, duration=duration, seed=seed,
                    plan_builder=plan, name="mobile-byzantine", **kwargs)


def recovery_scenario(params: ProtocolParams | None = None, duration: float = 12.0,
                      seed: int = 0, victims: Sequence[int] | None = None,
                      displacement: float | None = None, burst_at: float | None = None,
                      dwell: float | None = None, **kwargs) -> Scenario:
    """One corruption burst that scrambles the victims' clocks.

    After release the victims must recover through Sync alone; the
    displacement defaults to ``4 * WayOff`` (well into the "ignore own
    clock" branch of Figure 1).
    """
    params = params if params is not None else default_params()
    victims = list(victims) if victims is not None else list(range(params.f))
    if len(victims) > params.f:
        raise ValueError(f"at most f={params.f} simultaneous victims allowed")
    displacement = 4.0 * params.way_off if displacement is None else displacement
    burst_at = 2.0 * params.t_interval if burst_at is None else burst_at
    dwell = params.t_interval if dwell is None else dwell

    plan = PlanSpec("single-burst",
                    StrategySpec("alternating-reset", {"offset": displacement}),
                    {"victims": victims, "start": burst_at, "dwell": dwell})
    return Scenario(params=params, duration=duration, seed=seed,
                    plan_builder=plan, name="recovery", **kwargs)


def split_world_scenario(params: ProtocolParams | None = None, duration: float = 20.0,
                         seed: int = 0, **kwargs) -> Scenario:
    """Omniscient spread-maximizing attack (bound-tightness probe)."""
    params = params if params is not None else default_params()
    plan = PlanSpec("rotating",
                    StrategySpec("split-world", {"push": 50.0 * params.way_off}),
                    {"first_start": 2.0 * params.t_interval})
    return Scenario(params=params, duration=duration, seed=seed,
                    plan_builder=plan, name="split-world", **kwargs)


def two_clique_scenario(f: int = 1, duration: float = 40.0, seed: int = 0,
                        pi: float = 2.0, rho: float = 2e-3, **kwargs) -> Scenario:
    """The Section 5 counterexample: two cliques joined by a matching.

    No adversary is even needed — with clocks drifting at opposite
    extremes per clique, the cliques' internal synchronization is
    perfect while the inter-clique deviation grows without bound (at
    the mutual drift rate ``(1+rho) - 1/(1+rho) ~ 2*rho``, so the
    default ``rho`` is chosen to cross the Theorem 5 bound within the
    default duration).
    """
    n = 2 * (3 * f + 1)
    params = ProtocolParams.derive(n=n, f=f, delta=0.005, rho=rho, pi=pi)
    return Scenario(params=params, duration=duration, seed=seed,
                    topology=TopologySpec("two-cliques", {"f": f}),
                    clock_factory="clique-extremal",
                    name="two-clique", **kwargs)


def warmup_for(params: ProtocolParams, intervals: float = 3.0) -> float:
    """A standard warmup: a few analysis intervals of settling time."""
    return intervals * params.t_interval

