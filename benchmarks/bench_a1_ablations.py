"""A1 — ablations of the design choices DESIGN.md calls out.

Not a paper table; this quantifies the protocol's own knobs:

* **include_self** — Figure 1's loop formally includes ``q = p`` (a
  ``(0, 0)`` self-estimate); how much does dropping it matter?
* **WayOff setting** — Appendix A prescribes
  ``WayOff = 16e + 18pT + Delta``; what happens when it is set smaller
  (own clock discarded too eagerly) or much larger (recovery jump fires
  too late / never for moderate displacements)?
* **stagger vs lockstep** — the paper assumes nothing about relative
  Sync times; is lockstep actually different?
* **drift compensation** — the Section 5 extension vs plain Sync on
  worst-case (extremal) clocks.

Expected shape: include_self and stagger are second-order; WayOff is
empirically insensitive over four orders of magnitude — it only gates
the own-clock-discard branch, which good clocks never approach, so the
Appendix A prescription is a *lower* bound the practice is forgiving
about (an extreme WayOff x 0.01 merely makes a displaced node jump
immediately instead of after one interval); compensation visibly
tightens extremal-clock deviation.
"""

from __future__ import annotations

import dataclasses

from _util import emit, once

from repro.metrics.report import table
from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
    recovery_scenario,
    warmup_for,
)
from repro.runner.experiment import run
from repro.runner.scenario import extremal_clocks


def measure(params, *, seed=12, **scenario_kwargs):
    byz = run(mobile_byzantine_scenario(params, duration=12.0, seed=seed,
                                        **scenario_kwargs))
    rec = run(recovery_scenario(params, duration=12.0, seed=seed,
                                **scenario_kwargs))
    report = rec.recovery(tolerance=default_params(n=params.n, f=params.f,
                                                   pi=params.pi).bounds().max_deviation)
    discards = len([r for r in byz.syncs if r.own_discarded])
    return (byz.max_deviation(warmup_for(params)),
            report.max_recovery_time if report.events else float("nan"),
            discards)


def run_a1():
    base = default_params(n=7, f=2, pi=4.0)
    rows = []

    dev, rec, disc = measure(base)
    rows.append(["baseline (paper settings)", dev, rec, disc])

    no_self = dataclasses.replace(base, include_self=False)
    dev, rec, disc = measure(no_self)
    rows.append(["include_self = False", dev, rec, disc])

    for factor in (0.01, 0.25, 4.0, 16.0):
        tweaked = dataclasses.replace(base, way_off=base.way_off * factor,
                                      strict=False)
        dev, rec, disc = measure(tweaked)
        rows.append([f"WayOff x {factor:g}", dev, rec, disc])

    dev, rec, disc = measure(base, stagger_phases=False)
    rows.append(["lockstep sync phases", dev, rec, disc])

    # Clock-reading quantization: epsilon effectively grows by the tick.
    import dataclasses as _dc
    from repro.clocks.hardware import QuantizedClock
    from repro.runner.scenario import wander_clocks

    tick = 0.002

    def quantized(node, p, rng, horizon):
        return QuantizedClock(wander_clocks(node, p, rng, horizon), tick)

    q_params = _dc.replace(base, epsilon=base.epsilon + tick, strict=False)
    q_result = run(benign_scenario(q_params, duration=12.0, seed=12,
                                   clock_factory=quantized))
    rows.append([f"quantized readings (tick {tick:g})",
                 q_result.max_deviation(6.0), "-", "-"])

    plain = run(benign_scenario(base, duration=12.0, seed=12,
                                clock_factory=extremal_clocks))
    comp = run(benign_scenario(base, duration=12.0, seed=12,
                               clock_factory=extremal_clocks,
                               protocol="drift-compensating"))
    rows.append(["extremal clocks, plain sync", plain.max_deviation(6.0), "-", "-"])
    rows.append(["extremal clocks, drift-compensating", comp.max_deviation(6.0), "-", "-"])
    return rows, base


def test_a1_ablations(benchmark):
    rows, params = once(benchmark, run_a1)
    bound = params.bounds().max_deviation
    emit("a1_ablations", table(
        ["variant", "byzantine_max_dev", "recovery_time", "own_discards"],
        rows,
        title=f"A1: design-choice ablations (deviation bound {bound:.4g}, "
              f"PI={params.pi:g})",
        precision=4,
    ))
    by_name = {row[0]: row for row in rows}
    # Baseline and benign-knob variants stay within the bound.
    for name in ("baseline (paper settings)", "include_self = False",
                 "lockstep sync phases", "WayOff x 4", "WayOff x 16",
                 "WayOff x 0.01"):
        assert by_name[name][1] <= bound, name
    # Every variant with a WayOff >= bound still recovers within PI.
    for name in ("baseline (paper settings)", "WayOff x 4"):
        assert by_name[name][2] < params.pi
    # Compensation helps on extremal clocks.
    assert (by_name["extremal clocks, drift-compensating"][1]
            < by_name["extremal clocks, plain sync"][1])
