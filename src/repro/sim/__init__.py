"""Discrete-event simulation substrate.

This subpackage is the foundation everything else runs on: cancellable
events (:mod:`repro.sim.events`), the simulation engine that owns real
time and the deterministic event heap (:mod:`repro.sim.engine`), named
random streams (:mod:`repro.sim.rng`), and the simulator-backed runtime
adapter (:mod:`repro.sim.runtime`) that plugs the engine into the
:mod:`repro.runtime` seam.
"""

from repro import _lazy

__all__ = [
    "Simulator",
    "EnginePerfCounters",
    "Event",
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

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.sim.engine": (
        "EnginePerfCounters", "Simulator",
    ),
    "repro.sim.events": (
        "Event",
    ),
    "repro.sim.rng": (
        "RngRegistry", "derive_seed",
    ),
    "repro.sim.runtime": (
        "LocalTimer", "SimRuntime",
    ),
    "repro.sim.vector": (
        "VectorRunOutput", "VectorSpec", "VectorUnsupported", "simulate_run",
    ),
    "repro.runtime.process": (
        "Process",
    ),
})
