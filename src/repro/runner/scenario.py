"""Scenario descriptions: everything a run is a function of.

A :class:`Scenario` fully determines a simulation run (together with
its ``seed``): protocol, network model, clock population, adversary
plan, and sampling grid.  Every behavioral field is *declarative* — a
registered name or spec object (clock model name, :class:`DelaySpec`,
:class:`TopologySpec`, :class:`~repro.adversary.plans.PlanSpec`) — so
scenarios cross process pools and round-trip losslessly through
JSON via :meth:`Scenario.to_config` / :meth:`Scenario.from_config`.

Raw callables and model instances are still accepted in every slot as a
Python-only escape hatch (one-off experiments, tests); such scenarios
run fine but refuse ``to_config()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from repro.adversary.plans import PlanSpec
from repro.clocks.factories import (
    CLOCK_MODELS,
    ClockFactory,
    clock_model,
    extremal_clocks,
    perfect_clocks,
    wander_clocks,
)
from repro.core.params import ProtocolParams
from repro.errors import ConfigurationError
from repro.net.links import DelayModel, DelaySpec, UniformDelay
from repro.net.topology import Topology, TopologySpec, full_mesh
from repro.protocols.base import ProtocolFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.adversary.mobile import PlannedCorruption
    from repro.clocks.logical import LogicalClock

__all__ = [
    "Scenario",
    "ClockFactory",
    "PlanBuilder",
    "wander_clocks",
    "extremal_clocks",
    "perfect_clocks",
]


PlanBuilder = Callable[["Scenario", dict[int, "LogicalClock"]], "Sequence[PlannedCorruption]"]
"""Builds the adversary plan once the clocks exist (omniscient
strategies need the clock registry).  :class:`PlanSpec` implements this
signature; raw closures remain accepted but are not serializable."""


@dataclass
class Scenario:
    """Complete description of one simulation run.

    Attributes:
        params: Protocol parameterization (also carries ``n``, ``f``,
            ``delta``, ``rho``, ``pi``).
        duration: Real-time length of the run.
        seed: Root seed for every random stream.
        protocol: Registered protocol name, or a factory callable.
        topology: A :class:`TopologySpec`, an explicit topology, or
            ``None`` for the full mesh on ``n``.
        delay_model: A :class:`DelaySpec`, an explicit delay model, or
            ``None`` for ``UniformDelay(delta)``.
        clock_factory: Registered clock-model name (see
            :data:`~repro.clocks.factories.CLOCK_MODELS`) or a raw
            factory callable; defaults to ``"wander"``.
        initial_offset_spread: Initial clock values are uniform in
            ``[-spread/2, +spread/2]`` (applied via ``adj``); keep below
            ``WayOff`` unless deliberately testing cold-start.
        initial_offsets: Explicit per-node initial clock offsets,
            overriding the spread.
        plan_builder: A :class:`~repro.adversary.plans.PlanSpec` or a
            raw plan-builder callable; ``None`` = no faults.
        enforce_f_limit: Audit the plan against Definition 2 (E7
            disables this deliberately).
        sample_interval: Clock sampling grid spacing; defaults to
            ``max_wait`` (several samples per sync interval).
        record_messages: Keep per-message trace records (memory-heavy).
        loss_rate: Probability of independent message loss (beyond the
            paper's reliable-link model; lost messages surface as
            estimation timeouts).
        stagger_phases: Randomize each node's first-sync phase within
            one sync interval (the paper assumes nothing about relative
            Sync times); when False all nodes sync in lockstep.
        name: Label for reports.
    """

    params: ProtocolParams
    duration: float
    seed: int = 0
    protocol: Union[str, ProtocolFactory] = "sync"
    topology: TopologySpec | Topology | None = None
    delay_model: DelaySpec | DelayModel | None = None
    clock_factory: str | ClockFactory = "wander"
    initial_offset_spread: float = 0.0
    initial_offsets: Sequence[float] | None = None
    plan_builder: PlanSpec | PlanBuilder | None = None
    enforce_f_limit: bool = True
    sample_interval: float | None = None
    record_messages: bool = False
    loss_rate: float = 0.0
    stagger_phases: bool = True
    name: str = "scenario"
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Resolution (spec -> live object)
    # ------------------------------------------------------------------

    def resolved_topology(self) -> Topology:
        """The scenario topology (full mesh by default)."""
        if self.topology is None:
            return full_mesh(self.params.n)
        if isinstance(self.topology, TopologySpec):
            return self.topology.build(self.params)
        return self.topology

    def resolved_delay_model(self) -> DelayModel:
        """The scenario delay model (uniform by default)."""
        if self.delay_model is None:
            return UniformDelay(self.params.delta)
        if isinstance(self.delay_model, DelaySpec):
            return self.delay_model.build(self.params.delta)
        return self.delay_model

    def resolved_clock_factory(self) -> ClockFactory:
        """The clock factory (registry lookup for named models)."""
        if isinstance(self.clock_factory, str):
            return clock_model(self.clock_factory)
        return self.clock_factory

    def resolved_sample_interval(self) -> float:
        """The sampling grid spacing (``max_wait`` by default)."""
        if self.sample_interval is not None:
            return self.sample_interval
        return self.params.max_wait

    def initial_offset_for(self, node: int, rng: "random.Random") -> float:
        """Initial clock offset of ``node`` (explicit list or sampled)."""
        if self.initial_offsets is not None:
            return float(self.initial_offsets[node])
        if self.initial_offset_spread > 0.0:
            return rng.uniform(-self.initial_offset_spread / 2.0,
                               self.initial_offset_spread / 2.0)
        return 0.0

    # ------------------------------------------------------------------
    # Config round-tripping
    # ------------------------------------------------------------------

    def is_declarative(self) -> bool:
        """Whether every behavioral field is a spec (so the scenario
        crosses process pools and serializes; raw callables/instances
        fail this)."""
        return (isinstance(self.protocol, str)
                and isinstance(self.clock_factory, str)
                and (self.topology is None
                     or isinstance(self.topology, TopologySpec))
                and (self.delay_model is None
                     or isinstance(self.delay_model, DelaySpec))
                and (self.plan_builder is None
                     or isinstance(self.plan_builder, PlanSpec)))

    def to_config(self) -> dict[str, Any]:
        """Lossless JSON form (round-trips through :meth:`from_config`).

        Raises:
            ConfigurationError: If any behavioral field holds a raw
                callable or model instance instead of a spec.
        """
        if not self.is_declarative():
            offenders = [fname for fname, ok in (
                ("protocol", isinstance(self.protocol, str)),
                ("clock_factory", isinstance(self.clock_factory, str)),
                ("topology", self.topology is None
                 or isinstance(self.topology, TopologySpec)),
                ("delay_model", self.delay_model is None
                 or isinstance(self.delay_model, DelaySpec)),
                ("plan_builder", self.plan_builder is None
                 or isinstance(self.plan_builder, PlanSpec)),
            ) if not ok]
            raise ConfigurationError(
                f"scenario {self.name!r} is not declarative: fields "
                f"{offenders} hold raw callables/instances; use registered "
                f"names or spec objects to serialize")
        config: dict[str, Any] = {
            "params": self.params.to_config(),
            "duration": self.duration,
            "seed": self.seed,
            "protocol": self.protocol,
            "clocks": self.clock_factory,
            "initial_offset_spread": self.initial_offset_spread,
            "enforce_f_limit": self.enforce_f_limit,
            "record_messages": self.record_messages,
            "loss_rate": self.loss_rate,
            "stagger_phases": self.stagger_phases,
            "name": self.name,
        }
        if self.topology is not None:
            config["topology"] = self.topology.to_config()
        if self.delay_model is not None:
            config["delay"] = self.delay_model.to_config()
        if self.plan_builder is not None:
            config["plan"] = self.plan_builder.to_config()
        if self.initial_offsets is not None:
            config["initial_offsets"] = list(self.initial_offsets)
        if self.sample_interval is not None:
            config["sample_interval"] = self.sample_interval
        if self.extra:
            config["extra"] = dict(self.extra)
        return config

    #: Top-level config keys understood by :meth:`from_config` (the
    #: config layer adds ``"scenario"`` for builder shorthands).
    CONFIG_KEYS = frozenset({
        "params", "duration", "seed", "protocol", "clocks", "topology",
        "delay", "plan", "initial_offset_spread", "initial_offsets",
        "enforce_f_limit", "sample_interval", "record_messages",
        "loss_rate", "stagger_phases", "name", "extra",
    })

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "Scenario":
        """Build a scenario from its JSON form.

        Raises:
            ConfigurationError: Naming any unknown top-level key, and on
                any invalid section (params, clocks, delay, topology,
                plan).
        """
        unknown = config.keys() - cls.CONFIG_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown config keys {sorted(unknown)}; known: "
                f"{sorted(cls.CONFIG_KEYS)}")
        if "params" not in config:
            raise ConfigurationError("config requires a 'params' section")
        params = ProtocolParams.from_config(config["params"])

        clocks_name = config.get("clocks", "wander")
        if clocks_name not in CLOCK_MODELS:
            raise ConfigurationError(
                f"unknown clock model {clocks_name!r}; known: "
                f"{sorted(CLOCK_MODELS)}")

        scenario = cls(
            params=params,
            duration=float(config.get("duration", 20.0)),
            seed=int(config.get("seed", 0)),
            protocol=config.get("protocol", "sync"),
            clock_factory=clocks_name,
            initial_offset_spread=float(config.get("initial_offset_spread", 0.0)),
            enforce_f_limit=bool(config.get("enforce_f_limit", True)),
            record_messages=bool(config.get("record_messages", False)),
            loss_rate=float(config.get("loss_rate", 0.0)),
            stagger_phases=bool(config.get("stagger_phases", True)),
            name=str(config.get("name", "scenario")),
            extra=dict(config.get("extra", {})),
        )
        if "topology" in config:
            scenario.topology = TopologySpec.from_config(config["topology"])
        if "delay" in config:
            scenario.delay_model = DelaySpec.from_config(config["delay"])
        if "plan" in config:
            scenario.plan_builder = PlanSpec.from_config(config["plan"])
        if "initial_offsets" in config:
            scenario.initial_offsets = [float(x) for x in config["initial_offsets"]]
        if "sample_interval" in config:
            scenario.sample_interval = float(config["sample_interval"])
        return scenario


# Sanity: CONFIG_KEYS must track the dataclass (every key maps to a
# field modulo the clocks/delay/plan renames), so a field added without
# a config form fails loudly at import time rather than silently
# de-syncing to_config/from_config.
_FIELD_TO_KEY = {"clock_factory": "clocks", "delay_model": "delay",
                 "plan_builder": "plan"}
assert Scenario.CONFIG_KEYS == {
    _FIELD_TO_KEY.get(f.name, f.name) for f in fields(Scenario)
}, "Scenario.CONFIG_KEYS out of sync with Scenario fields"
