"""The simulated network: delivery, authentication, failure injection.

Implements the link model of Section 2.2: between non-faulty processors
connected by an (up) link, a message sent at real time ``tau`` is
delivered exactly once at some time in ``(tau, tau + delta]``, carrying
the true sender identity.  The adversary cannot modify messages in
flight (it corrupts *processors*, not links), but link outages can be
injected for robustness experiments beyond the paper's model — a down
link silently drops messages, which the estimation procedure of
Definition 4 tolerates via its timeout.

A message costs two heap operations and no per-message objects beyond
its :class:`~repro.runtime.messages.Message` tuple and heap entry.
The send looks up its link's cached state — the edge check and the
delay model's bound draw over the link's RNG stream — draws the delay,
builds the ``Message`` with ``tuple.__new__`` and posts the delivery
``(time, seq, Network._deliver, message)`` through
:meth:`~repro.sim.engine.Simulator.post`, which builds no
:class:`~repro.sim.events.Event`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError, TopologyError
from repro.net.links import DelayModel
from repro.runtime.messages import Message
from repro.net.topology import Topology

_new_message = tuple.__new__

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.api import MessageHandler
    from repro.sim.engine import Simulator


class Network:
    """Message fabric connecting node processes over a topology.

    Args:
        sim: The owning simulator.
        topology: Which pairs of nodes may exchange messages.
        delay_model: Per-link delay draws bounded by ``delta``.

    Attributes:
        messages_sent: Count of send attempts.
        messages_delivered: Count of actual deliveries.
        messages_dropped: Count of drops (down links / missing edges).
        obs: Observability event bus, or ``None`` (the default); set by
            the flight recorder when per-message events are requested.
    """

    def __init__(self, sim: "Simulator", topology: Topology, delay_model: DelayModel,
                 loss_rate: float = 0.0) -> None:
        if not (0.0 <= loss_rate < 1.0):
            raise ConfigurationError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.topology = topology
        self.delay_model = delay_model
        self.delta = delay_model.delta
        self.loss_rate = float(loss_rate)
        self._processes: dict[int, "MessageHandler"] = {}
        self._down_links: set[frozenset[int]] = set()
        self._next_msg_id = 0
        # Per-link caches: the edge check and the delay model's bound
        # draw over the link's RNG stream never change, so they are
        # resolved once instead of per message.  Stream names are
        # unchanged, so draws stay byte-identical per seed (streams are
        # independent by name, so eagerly creating one for an edge-less
        # pair perturbs nothing).
        self._link_state: dict[tuple[int, int], tuple[bool, Callable[[], float] | None]] = {}
        self._loss_rngs: dict[tuple[int, int], random.Random] = {}
        self._taps: list[Callable[[Message], None]] = []
        self.obs = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, process: "MessageHandler") -> None:
        """Attach ``process`` as the handler for its node id.

        Raises:
            ConfigurationError: If the node already has a process or the
                id is outside the topology.
        """
        node = process.node_id
        if not (0 <= node < self.topology.n):
            raise ConfigurationError(f"node {node} outside topology of size {self.topology.n}")
        if node in self._processes:
            raise ConfigurationError(f"node {node} already has a bound process")
        self._processes[node] = process

    def process_for(self, node: int) -> "MessageHandler":
        """Return the process bound to ``node``.

        Raises:
            ConfigurationError: If no process is bound.
        """
        try:
            return self._processes[node]
        except KeyError:
            raise ConfigurationError(f"no process bound to node {node}") from None

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Register a callback invoked on every delivered message.

        Taps model the paper's adversary, who "can see (but not modify)
        all the communication in the network"; they also fill
        ``RunResult.messages`` under ``record_messages``.
        """
        self._taps.append(tap)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, sender: int, recipient: int, payload: object) -> None:
        """Send ``payload`` from ``sender`` to ``recipient``.

        Drops silently (counting the drop) when there is no edge or the
        link is down; otherwise schedules delivery within ``delta``.

        Raises:
            ConfigurationError: On a self-send; no counter is mutated on
                this error path.
        """
        if sender == recipient:
            raise ConfigurationError(f"node {sender} attempted to message itself")
        self.messages_sent += 1
        key = (sender, recipient)
        state = self._link_state.get(key)
        if state is None:
            connected = self.topology.has_edge(sender, recipient)
            rng = self.sim.rngs.stream(f"link:{sender}->{recipient}")
            state = self._link_state[key] = (
                connected,
                self.delay_model.link_draw(sender, recipient, rng) if connected else None)
        if not state[0] or (self._down_links and self.link_is_down(sender, recipient)):
            self.messages_dropped += 1
            if self.obs is not None:
                self.obs.publish("net.drop", node=sender, recipient=recipient,
                                 reason="no-edge" if not state[0] else "down-link")
            return
        if self.loss_rate > 0.0:
            # Random loss is outside the paper's link model (Section 2.2
            # links are reliable); it exists for robustness experiments —
            # a lost message surfaces as an estimation timeout.
            loss_rng = self._loss_rngs.get(key)
            if loss_rng is None:
                loss_rng = self.sim.rngs.stream(f"loss:{sender}->{recipient}")
                self._loss_rngs[key] = loss_rng
            if loss_rng.random() < self.loss_rate:
                self.messages_dropped += 1
                if self.obs is not None:
                    self.obs.publish("net.drop", node=sender,
                                     recipient=recipient, reason="loss")
                return
        sim = self.sim
        now = sim.now
        arrival = now + state[1]()
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        sim.post(arrival, self._deliver, _new_message(
            Message, (sender, recipient, payload, now, arrival, msg_id)))

    def broadcast(self, sender: int, payload: object) -> None:
        """Send ``payload`` to every neighbor of ``sender``."""
        for neighbor in self.topology.neighbors(sender):
            self.send(sender, neighbor, payload)

    def _deliver(self, message: Message) -> None:
        if self._down_links and self.link_is_down(message.sender, message.recipient):
            # Link failed while the message was in flight.
            self.messages_dropped += 1
            if self.obs is not None:
                self.obs.publish("net.drop", node=message.sender,
                                 recipient=message.recipient, reason="in-flight")
            return
        self.messages_delivered += 1
        if self.obs is not None:
            self.obs.publish("net.deliver", node=message.sender,
                             recipient=message.recipient,
                             kind=type(message.payload).__name__,
                             sent_at=message.sent_at)
        for tap in self._taps:
            tap(message)
        if message.recipient in self._processes:
            self._processes[message.recipient].deliver(message)

    # ------------------------------------------------------------------
    # Link failure injection (beyond the paper's model)
    # ------------------------------------------------------------------

    def fail_link(self, u: int, v: int) -> None:
        """Mark the link ``{u, v}`` down; messages on it are dropped."""
        if not self.topology.has_edge(u, v):
            raise TopologyError(f"cannot fail non-existent link {{{u}, {v}}}")
        self._down_links.add(frozenset((u, v)))

    def restore_link(self, u: int, v: int) -> None:
        """Mark the link ``{u, v}`` up again (no-op if it was up)."""
        self._down_links.discard(frozenset((u, v)))

    def link_is_down(self, u: int, v: int) -> bool:
        """Whether the link ``{u, v}`` is currently down."""
        down = self._down_links
        if not down:
            return False
        return frozenset((u, v)) in down

    def schedule_outage(self, u: int, v: int, start: float, end: float) -> None:
        """Schedule a link outage over the real-time window ``[start, end]``."""
        if end <= start:
            raise ConfigurationError(f"outage window [{start}, {end}] is empty")
        self.sim.schedule_at(start, lambda: self.fail_link(u, v), tag=f"outage:{u}-{v}")
        self.sim.schedule_at(end, lambda: self.restore_link(u, v), tag=f"restore:{u}-{v}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(n={self.topology.n}, delta={self.delta}, "
            f"sent={self.messages_sent}, delivered={self.messages_delivered})"
        )
