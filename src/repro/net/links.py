"""Link delay models.

The paper's network assumption is a single bound ``delta``: a message
between good processors is delivered within ``[tau, tau + delta]``.
*Which* delay inside that bound each message experiences is left to the
environment — and a malicious network can pick delays adversarially to
skew ping/pong estimates (the estimate's error bound ``(R-S)/2`` still
holds, but the actual error is maximized by asymmetric delays).

Each :class:`DelayModel` gives every directed link one bound delay
draw (:meth:`DelayModel.link_draw`): a zero-argument function, built
once per link over the link's own random stream, whose every call is
one message's delay in ``(0, delta]``.  A draw uses the float
operations of :mod:`random` itself (``lo + (hi - lo) * random()`` is
``random.uniform``), so the delays and the RNG draw order do not
depend on how they are called.  Models provided:

* :class:`FixedDelay` — every message takes the same time; symmetric
  round trips make ping/pong exact.
* :class:`UniformDelay` — i.i.d. uniform in ``[lo, hi]``.
* :class:`AsymmetricDelay` — direction-dependent fixed delays; the
  classic worst case for round-trip estimation.
* :class:`JitteredDelay` — a base delay plus heavy one-sided jitter,
  modelling congested links; motivates the min-of-k RTT optimization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from math import log
from typing import Any, Callable

from repro.errors import ConfigurationError


class DelayModel:
    """Abstract per-link delay chooser, bounded by ``delta``.

    Attributes:
        delta: The paper's message delivery bound; every drawn delay
            is validated against it.
    """

    def __init__(self, delta: float) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.delta = float(delta)

    def link_draw(self, sender: int, recipient: int,
                  rng: random.Random) -> Callable[[], float]:
        """The delay draw of the link ``sender -> recipient``.

        Built once per link (:class:`~repro.net.network.Network` caches
        it beside the link's stream ``rng``); each call returns the next
        message's delay in ``(0, delta]``, or raises
        :class:`ConfigurationError` for a delay outside it.
        """
        raise NotImplementedError

    def sample(self, sender: int, recipient: int, rng: random.Random) -> float:
        """One delay from ``sender`` to ``recipient``: a link draw built for one call.

        Simulations draw through :meth:`link_draw`, built once per link.
        """
        return self.link_draw(sender, recipient, rng)()

    def _bounded(self, delay: float) -> None:
        if not (0.0 < delay <= self.delta * (1.0 + 1e-12)):
            raise ConfigurationError(
                f"delay model produced {delay}, outside (0, delta={self.delta}]"
            )


def _constant_draw(delay: float) -> Callable[[], float]:
    """A draw returning ``delay``, checked by the model's constructor."""
    return repeat(delay).__next__  # a C-level function, no Python frame


def _uniform_draw(lo: float, hi: float, delta: float,
                  rng: random.Random) -> Callable[[], float]:
    """``rng.uniform(lo, hi)`` per call, checked into ``(0, delta]``."""
    span = hi - lo
    limit = delta * (1.0 + 1e-12)
    uniform = rng.random

    def draw() -> float:
        delay = lo + span * uniform()
        if not 0.0 < delay <= limit:
            raise ConfigurationError(
                f"delay model produced {delay}, outside (0, delta={delta}]")
        return delay if delay <= delta else delta

    return draw


class FixedDelay(DelayModel):
    """Every message takes exactly ``value`` (default ``delta / 2``)."""

    def __init__(self, delta: float, value: float | None = None) -> None:
        super().__init__(delta)
        self.value = self.delta / 2.0 if value is None else float(value)
        self._bounded(self.value)

    def link_draw(self, sender: int, recipient: int,
                  rng: random.Random) -> Callable[[], float]:
        return _constant_draw(self.value)


class UniformDelay(DelayModel):
    """I.i.d. uniform delay in ``[lo, hi]`` with ``hi <= delta``.

    Defaults to ``[0.1 * delta, delta]``.
    """

    def __init__(self, delta: float, lo: float | None = None, hi: float | None = None) -> None:
        super().__init__(delta)
        self.lo = 0.1 * self.delta if lo is None else float(lo)
        self.hi = self.delta if hi is None else float(hi)
        if not (0.0 < self.lo <= self.hi <= self.delta):
            raise ConfigurationError(
                f"uniform delay range [{self.lo}, {self.hi}] invalid for delta={self.delta}"
            )

    def link_draw(self, sender: int, recipient: int,
                  rng: random.Random) -> Callable[[], float]:
        return _uniform_draw(self.lo, self.hi, self.delta, rng)


class AsymmetricDelay(DelayModel):
    """Direction-dependent fixed delays: worst case for RTT estimation.

    Messages from a lower-numbered to a higher-numbered node take
    ``forward``; the reverse direction takes ``backward``.  With
    ``forward != backward`` a ping/pong estimate is off by
    ``(backward - forward) / 2`` — still within its self-reported error
    bound, but maximally biased.
    """

    def __init__(self, delta: float, forward: float | None = None,
                 backward: float | None = None) -> None:
        super().__init__(delta)
        self.forward = self.delta if forward is None else float(forward)
        self.backward = 0.05 * self.delta if backward is None else float(backward)
        self._bounded(self.forward)
        self._bounded(self.backward)

    def link_draw(self, sender: int, recipient: int,
                  rng: random.Random) -> Callable[[], float]:
        return _constant_draw(self.forward if sender < recipient else self.backward)


class JitteredDelay(DelayModel):
    """Base delay plus exponential one-sided jitter, truncated at ``delta``.

    Most messages arrive near ``base``; a tail of them arrive late.  The
    min-of-k round-trip optimization (Section 3.1) exists exactly to cut
    through this tail, and experiment E10 measures how well it does.
    """

    def __init__(self, delta: float, base: float | None = None,
                 jitter_mean: float | None = None) -> None:
        super().__init__(delta)
        self.base = 0.1 * self.delta if base is None else float(base)
        self.jitter_mean = 0.3 * self.delta if jitter_mean is None else float(jitter_mean)
        if self.base <= 0 or self.base > self.delta:
            raise ConfigurationError(f"base delay {self.base} invalid for delta={self.delta}")

    def link_draw(self, sender: int, recipient: int,
                  rng: random.Random) -> Callable[[], float]:
        base, delta = self.base, self.delta
        lambd = 1.0 / self.jitter_mean
        uniform = rng.random

        def draw() -> float:
            # ``rng.expovariate(lambd)``'s own formula, truncated at delta.
            delay = base + -log(1.0 - uniform()) / lambd
            if not delay < delta:
                delay = delta
            if not 0.0 < delay:
                raise ConfigurationError(
                    f"delay model produced {delay}, outside (0, delta={delta}]")
            return delay

        return draw


class HeterogeneousDelay(DelayModel):
    """Per-link delay classes: a LAN/WAN mix under one global bound.

    The paper's model has a single ``delta`` for every link; real
    deployments mix fast local links with slow wide-area ones.  This
    model assigns each (unordered) node pair a delay class and keeps
    every draw under the global ``delta``, so the paper's analysis
    still applies with ``epsilon`` driven by the *slowest* links —
    which the heterogeneous-deployment tests measure.

    Args:
        delta: Global delivery bound (the slowest class's ceiling).
        classifier: Maps an unordered pair ``(min_id, max_id)`` to a
            ``(lo, hi)`` uniform delay range, once per directed link;
            defaults to "same parity = fast LAN (5-10% of delta),
            different parity = slow WAN (50-100% of delta)".
    """

    def __init__(self, delta: float, classifier=None) -> None:
        super().__init__(delta)

        def default_classifier(a: int, b: int) -> tuple[float, float]:
            if a % 2 == b % 2:
                return (0.05 * self.delta, 0.10 * self.delta)
            return (0.5 * self.delta, self.delta)

        self.classifier = classifier if classifier is not None else default_classifier

    def link_draw(self, sender: int, recipient: int,
                  rng: random.Random) -> Callable[[], float]:
        lo, hi = self.classifier(min(sender, recipient), max(sender, recipient))
        if not (0.0 < lo <= hi <= self.delta):
            raise ConfigurationError(
                f"classifier returned invalid range ({lo}, {hi}) for "
                f"delta={self.delta}")
        return _uniform_draw(lo, hi, self.delta, rng)


# ----------------------------------------------------------------------
# Delay-model registry and declarative specs
# ----------------------------------------------------------------------

DELAY_MODELS: dict[str, Callable[..., DelayModel]] = {}
"""Named delay-model constructors; each takes ``delta`` first, then
model-specific keyword options (see :func:`register_delay_model`)."""


def register_delay_model(name: str) -> Callable[[Callable[..., DelayModel]],
                                                Callable[..., DelayModel]]:
    """Register a delay-model constructor under ``name`` (decorator)."""

    def decorator(ctor: Callable[..., DelayModel]) -> Callable[..., DelayModel]:
        DELAY_MODELS[name] = ctor
        return ctor

    return decorator


for _name, _ctor in (("fixed", FixedDelay), ("uniform", UniformDelay),
                     ("asymmetric", AsymmetricDelay), ("jittered", JitteredDelay),
                     ("heterogeneous", HeterogeneousDelay)):
    register_delay_model(_name)(_ctor)
del _name, _ctor


@dataclass(frozen=True)
class DelaySpec:
    """Declarative, picklable description of a delay model.

    A spec is a registered model name plus its keyword options (minus
    ``delta``, which comes from the scenario's parameters at build
    time), so scenarios carry *what* delay distribution to use without
    holding a live model object — the piece that lets any scenario
    cross a process boundary.

    Attributes:
        model: Registered model name (a key of :data:`DELAY_MODELS`).
        options: Constructor keyword arguments (e.g. ``lo``/``hi``).
    """

    model: str
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in DELAY_MODELS:
            raise ConfigurationError(
                f"unknown delay model {self.model!r}; known: {sorted(DELAY_MODELS)}")

    def build(self, delta: float) -> DelayModel:
        """Instantiate the model under the given delivery bound."""
        try:
            return DELAY_MODELS[self.model](delta, **self.options)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid options for delay model {self.model!r}: {exc}") from None

    def to_config(self) -> dict[str, Any]:
        """The JSON ``delay`` section: ``{"model": ..., **options}``."""
        return {"model": self.model, **self.options}

    @classmethod
    def from_config(cls, spec: dict[str, Any]) -> "DelaySpec":
        """Parse the JSON ``delay`` section.

        Raises:
            ConfigurationError: On a missing or unknown ``model`` key.
        """
        if "model" not in spec:
            raise ConfigurationError(
                f"delay config requires a 'model' key; got {sorted(spec)}")
        options = {key: value for key, value in spec.items() if key != "model"}
        return cls(model=spec["model"], options=options)
