"""Communication topologies.

The paper's model is a fully connected graph (Section 2.1), but its
Section 5 discusses which *incomplete* graphs the protocol can and
cannot survive — including an explicit counterexample: a
``(3f+1)``-connected graph of ``6f+2`` nodes (two ``(3f+1)``-cliques
joined by a perfect matching) on which the protocol fails.  Topologies
here support both, plus arbitrary undirected graphs for exploration.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.params import ProtocolParams


class Topology:
    """An undirected communication graph over nodes ``0..n-1``.

    Attributes:
        n: Number of nodes.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise TopologyError(f"topology needs at least one node, got n={n}")
        self.n = int(n)
        self._adj: list[set[int]] = [set() for _ in range(self.n)]

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}``.

        Raises:
            TopologyError: On self-loops or out-of-range nodes.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-loop at node {u} is not allowed")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are directly connected."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def neighbors(self, u: int) -> list[int]:
        """Sorted neighbor list of ``u``."""
        self._check_node(u)
        return sorted(self._adj[u])

    def degree(self, u: int) -> int:
        """Number of neighbors of ``u``."""
        self._check_node(u)
        return len(self._adj[u])

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def is_connected(self) -> bool:
        """Whether the graph is connected (BFS from node 0)."""
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == self.n

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise TopologyError(f"node {u} out of range for n={self.n}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(n={self.n}, edges={self.edge_count()})"


def full_mesh(n: int) -> Topology:
    """The paper's standard model: a complete graph on ``n`` nodes."""
    topo = Topology(n)
    for u in range(n):
        for v in range(u + 1, n):
            topo.add_edge(u, v)
    return topo


def two_cliques(f: int) -> Topology:
    """The Section 5 counterexample graph.

    Two cliques of ``3f+1`` nodes each (nodes ``0..3f`` and
    ``3f+1..6f+1``), with node ``i`` of the first clique joined to node
    ``i`` of the second.  The graph is ``(3f+1)``-connected, yet the
    Sync protocol cannot stop the cliques' clocks from drifting apart.

    Returns:
        A :class:`Topology` on ``6f+2`` nodes.
    """
    if f < 1:
        raise TopologyError(f"two_cliques needs f >= 1, got f={f}")
    size = 3 * f + 1
    topo = Topology(2 * size)
    for base in (0, size):
        for u in range(base, base + size):
            for v in range(u + 1, base + size):
                topo.add_edge(u, v)
    for i in range(size):
        topo.add_edge(i, size + i)
    return topo


def ring(n: int) -> Topology:
    """A cycle on ``n`` nodes — far below the connectivity the protocol
    needs; used in negative tests."""
    topo = Topology(n)
    for u in range(n):
        topo.add_edge(u, (u + 1) % n)
    return topo


def from_edges(n: int, edges: list[tuple[int, int]]) -> Topology:
    """Build a topology from an explicit undirected edge list."""
    topo = Topology(n)
    for u, v in edges:
        topo.add_edge(u, v)
    return topo


def random_connected(n: int, p: float, rng, min_degree: int = 1,
                     max_tries: int = 200) -> Topology:
    """A connected Erdos-Renyi-style graph with a minimum-degree floor.

    Used by the Section 5 connectivity study (experiment E13): the paper
    conjectures the protocol works when the non-faulty processors form a
    "sufficiently connected" subgraph; this generator produces the
    random test topologies.

    Args:
        n: Number of nodes.
        p: Independent edge probability.
        rng: Random stream (``random.Random``).
        min_degree: Resample until every node has at least this degree.
        max_tries: Give up after this many attempts.

    Raises:
        TopologyError: If no graph satisfying the constraints is found
            (``p`` too small for the requested degree floor).
    """
    for _ in range(max_tries):
        topo = Topology(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    topo.add_edge(u, v)
        if topo.is_connected() and all(topo.degree(u) >= min_degree
                                       for u in range(n)):
            return topo
    raise TopologyError(
        f"could not sample a connected graph with min degree {min_degree} "
        f"at p={p} after {max_tries} tries"
    )


# ----------------------------------------------------------------------
# Topology registry and declarative specs
# ----------------------------------------------------------------------

TOPOLOGIES: dict[str, Callable[..., Topology]] = {}
"""Named topology builders reachable from declarative scenarios.

Builders that take an ``n`` parameter get it injected from the
scenario's ``params.n`` unless the spec supplies it explicitly."""


def register_topology(name: str) -> Callable[[Callable[..., Topology]],
                                             Callable[..., Topology]]:
    """Register a topology builder under ``name`` (decorator)."""

    def decorator(builder: Callable[..., Topology]) -> Callable[..., Topology]:
        TOPOLOGIES[name] = builder
        return builder

    return decorator


for _name, _builder in (("full-mesh", full_mesh), ("two-cliques", two_cliques),
                        ("ring", ring), ("from-edges", from_edges)):
    register_topology(_name)(_builder)
del _name, _builder


@dataclass(frozen=True)
class TopologySpec:
    """Declarative, picklable description of a communication graph.

    Attributes:
        kind: Registered builder name (a key of :data:`TOPOLOGIES`).
        options: Builder keyword arguments; ``n`` is injected from the
            scenario parameters when the builder wants one and the spec
            does not pin it.  JSON configs supply edge lists for
            ``from-edges`` as ``[[u, v], ...]``.
    """

    kind: str
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.kind!r}; known: {sorted(TOPOLOGIES)}")

    def build(self, params: "ProtocolParams") -> Topology:
        """Instantiate the graph for the given parameterization."""
        builder = TOPOLOGIES[self.kind]
        kwargs = dict(self.options)
        if "edges" in kwargs:
            kwargs["edges"] = [tuple(edge) for edge in kwargs["edges"]]
        if "n" not in kwargs and "n" in inspect.signature(builder).parameters:
            kwargs["n"] = params.n
        try:
            return builder(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid options for topology {self.kind!r}: {exc}") from None

    def to_config(self) -> dict[str, Any]:
        """The JSON ``topology`` section: ``{"kind": ..., **options}``."""
        options = {
            key: ([list(edge) for edge in value] if key == "edges" else value)
            for key, value in self.options.items()
        }
        return {"kind": self.kind, **options}

    @classmethod
    def from_config(cls, spec: dict[str, Any]) -> "TopologySpec":
        """Parse the JSON ``topology`` section.

        Raises:
            ConfigurationError: On a missing or unknown ``kind`` key.
        """
        if "kind" not in spec:
            raise ConfigurationError(
                f"topology config requires a 'kind' key; got {sorted(spec)}")
        options = {key: value for key, value in spec.items() if key != "kind"}
        return cls(kind=spec["kind"], options=options)
