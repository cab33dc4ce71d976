"""Network substrate: authenticated bounded-delay links over topologies.

Implements the communication model of Section 2 of the paper: reliable
authenticated point-to-point links with delivery bound ``delta``, over a
full mesh or any explicit graph (including the Section 5 two-clique
counterexample).
"""

from repro.net.links import (
    DELAY_MODELS,
    AsymmetricDelay,
    DelayModel,
    DelaySpec,
    FixedDelay,
    HeterogeneousDelay,
    JitteredDelay,
    UniformDelay,
    register_delay_model,
)
from repro.net.network import Network
from repro.net.topology import (
    TOPOLOGIES,
    Topology,
    TopologySpec,
    from_edges,
    full_mesh,
    register_topology,
    ring,
    two_cliques,
)

__all__ = [
    "Network",
    "Topology",
    "TopologySpec",
    "TOPOLOGIES",
    "register_topology",
    "full_mesh",
    "two_cliques",
    "ring",
    "from_edges",
    "DelayModel",
    "DelaySpec",
    "DELAY_MODELS",
    "register_delay_model",
    "FixedDelay",
    "UniformDelay",
    "AsymmetricDelay",
    "JitteredDelay",
    "HeterogeneousDelay",
]
