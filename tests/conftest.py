"""Shared fixtures for the test suite.

Hypothesis profiles: ``tier1`` (the default) derandomizes every
property test and keeps no example database, so a run's verdict is a
function of the source tree alone.  ``explore`` draws fresh random
examples, more of them where a test does not pin ``max_examples``; it
is the profile that finds new counterexamples, which then become
``@example`` s.  Select it with ``--hypothesis-profile=explore``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.params import ProtocolParams
from repro.runner.builders import default_params
from repro.sim.engine import Simulator

settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("explore", derandomize=False, max_examples=500,
                          deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=1234)


@pytest.fixture
def params() -> ProtocolParams:
    """The canonical laptop-scale parameterization (n=7, f=2)."""
    return default_params()


@pytest.fixture
def small_params() -> ProtocolParams:
    """Minimum-size network (n=4, f=1)."""
    return default_params(n=4, f=1)


def make_fast_params(n: int = 4, f: int = 1) -> ProtocolParams:
    """Parameters tuned for very short integration runs."""
    return default_params(n=n, f=f, delta=0.002, rho=1e-3, pi=1.0, target_k=8)
