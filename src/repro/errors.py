"""Exception hierarchy for the ``repro`` package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
violations of the paper's model assumptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A scenario, protocol, or network was configured inconsistently.

    Raised eagerly, at construction time, so that a misconfigured
    experiment fails before any simulation work is done.
    """


class ParameterError(ConfigurationError):
    """Protocol parameters violate the constraints of Section 3.2.

    Examples: ``n < 3f + 1``, ``SyncInt < 2 * MaxWait``,
    ``MaxWait < 2 * delta``, or ``K < 5`` when Theorem 5 bounds are
    requested.
    """


class TopologyError(ConfigurationError):
    """A topology operation referenced a missing node or edge."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state.

    Examples: scheduling an event in the past, or running a simulator
    that was already finalized.
    """


class ClockError(ReproError):
    """A hardware-clock model was queried outside its valid domain.

    Examples: reading a clock before its origin time, or asking for the
    inverse of a hardware value the clock never reaches within its
    generated horizon.
    """


class AdversaryError(ReproError):
    """An adversary plan violates the model of Definition 2.

    Raised by the f-limit auditor when a corruption plan controls more
    than ``f`` processors within some window of length ``PI``, or when a
    strategy touches a processor it does not currently control.
    """


class MeasurementError(ReproError):
    """A metric was requested over an empty or inconsistent sample set."""


class StoreError(ReproError):
    """A result store could not be built, persisted, or loaded.

    Examples: a record whose config does not round-trip through JSON,
    a store directory written by a newer format version, a chunk of an
    unknown format, or a query naming a column the store does not
    have.
    """


class EvaluationError(ReproError):
    """An evaluation spec is malformed or cannot run against a store.

    Examples: an unknown check kind or comparison operator, a spec
    registered twice under one name, or evaluating a spec whose
    required columns are absent in strict mode.
    """


class CampaignError(ReproError):
    """A campaign run failed and failure isolation was off.

    Carries which run died so a sweep over hundreds of configs reports
    the culprit instead of a bare worker traceback.

    Attributes:
        index: Position of the failed run in the campaign.
        config: The failed run's config dict (``None`` if the scenario
            could not even be serialized).
    """

    def __init__(self, message: str, index: int | None = None,
                 config: dict | None = None) -> None:
        super().__init__(message)
        self.index = index
        self.config = config
