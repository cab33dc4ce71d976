"""Clock substrate: drift-bounded hardware clocks and logical clocks.

Implements Definition 1 and eq. (2) of the paper: hardware clocks are
smooth monotone functions of real time with rate confined to
``[1/(1+rho), 1+rho]``; logical clocks add a resettable adjustment.
"""

from repro.clocks.drift import (
    alternating_schedule,
    clamp_rate,
    constant_rate,
    wander_schedule,
)
from repro.clocks.factories import (
    CLOCK_MODELS,
    ClockFactory,
    clique_extremal_clocks,
    clock_model,
    extremal_clocks,
    perfect_clocks,
    register_clock_model,
    wander_clocks,
)
from repro.clocks.hardware import (
    FixedRateClock,
    HardwareClock,
    PiecewiseRateClock,
    QuantizedClock,
)
from repro.clocks.logical import LogicalClock
from repro.clocks.mirror import ClockMirror

__all__ = [
    "HardwareClock",
    "FixedRateClock",
    "PiecewiseRateClock",
    "QuantizedClock",
    "LogicalClock",
    "ClockMirror",
    "constant_rate",
    "alternating_schedule",
    "wander_schedule",
    "clamp_rate",
    "CLOCK_MODELS",
    "ClockFactory",
    "clock_model",
    "register_clock_model",
    "wander_clocks",
    "extremal_clocks",
    "perfect_clocks",
    "clique_extremal_clocks",
]
