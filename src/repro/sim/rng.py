"""Named deterministic random streams.

Every stochastic component of a simulation (per-link delays, per-clock
wander, adversary choices, workload generators) draws from its own
named stream, derived from a single scenario seed.  This gives two
properties the experiment harness relies on:

* **Reproducibility** — a run is a pure function of ``(scenario, seed)``.
* **Variance isolation** — changing one component (say, adding a clock)
  does not perturb the random draws seen by unrelated components, so
  parameter sweeps compare like with like.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 over the pair so that distinct names give independent,
    platform-stable streams (``hash()`` is salted per process and must
    not be used here).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named, independently seeded ``random.Random`` streams.

    Example:
        >>> rngs = RngRegistry(seed=7)
        >>> a = rngs.stream("link:0->1")
        >>> b = rngs.stream("link:0->1")
        >>> a is b
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
