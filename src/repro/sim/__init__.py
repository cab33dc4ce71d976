"""Discrete-event simulation substrate.

This subpackage is the foundation everything else runs on: a
deterministic event queue (:mod:`repro.sim.events`), the simulation
engine that owns real time (:mod:`repro.sim.engine`), named random
streams (:mod:`repro.sim.rng`), and the simulator-backed runtime
adapter (:mod:`repro.sim.runtime`) that plugs the engine into the
:mod:`repro.runtime` seam.
"""

from repro.sim.engine import EnginePerfCounters, Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.runtime import LocalTimer, SimRuntime
from repro.sim.vector import (
    VectorRunOutput,
    VectorSpec,
    VectorUnsupported,
    simulate_run,
)
from repro.runtime.process import Process

__all__ = [
    "Simulator",
    "EnginePerfCounters",
    "Event",
    "EventQueue",
    "Process",
    "LocalTimer",
    "SimRuntime",
    "RngRegistry",
    "derive_seed",
    "VectorSpec",
    "VectorRunOutput",
    "VectorUnsupported",
    "simulate_run",
]
