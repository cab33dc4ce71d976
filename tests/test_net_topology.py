"""Unit tests for topologies, including the Section 5 counterexample."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.net.topology import Topology, from_edges, full_mesh, ring, two_cliques


class TestTopology:
    def test_add_and_query_edge(self):
        topo = Topology(3)
        topo.add_edge(0, 1)
        assert topo.has_edge(0, 1)
        assert topo.has_edge(1, 0)
        assert not topo.has_edge(0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3).add_edge(1, 1)

    def test_out_of_range_node_rejected(self):
        topo = Topology(3)
        with pytest.raises(TopologyError):
            topo.add_edge(0, 3)
        with pytest.raises(TopologyError):
            topo.has_edge(-1, 0)

    def test_neighbors_sorted(self):
        topo = Topology(4)
        topo.add_edge(2, 3)
        topo.add_edge(2, 0)
        topo.add_edge(2, 1)
        assert topo.neighbors(2) == [0, 1, 3]

    def test_degree_and_edge_count(self):
        topo = Topology(4)
        topo.add_edge(0, 1)
        topo.add_edge(0, 2)
        assert topo.degree(0) == 2
        assert topo.degree(3) == 0
        assert topo.edge_count() == 2

    def test_zero_nodes_rejected(self):
        with pytest.raises(TopologyError):
            Topology(0)

    def test_connectivity(self):
        topo = Topology(4)
        topo.add_edge(0, 1)
        topo.add_edge(2, 3)
        assert not topo.is_connected()
        topo.add_edge(1, 2)
        assert topo.is_connected()


class TestGenerators:
    def test_full_mesh_has_all_edges(self):
        topo = full_mesh(5)
        assert topo.edge_count() == 10
        assert all(topo.degree(u) == 4 for u in range(5))
        assert topo.is_connected()

    def test_ring_structure(self):
        topo = ring(5)
        assert topo.edge_count() == 5
        assert all(topo.degree(u) == 2 for u in range(5))

    def test_from_edges(self):
        topo = from_edges(3, [(0, 1), (1, 2)])
        assert topo.has_edge(0, 1)
        assert topo.has_edge(1, 2)
        assert not topo.has_edge(0, 2)

    def test_two_cliques_size_and_structure(self):
        f = 2
        topo = two_cliques(f)
        size = 3 * f + 1
        assert topo.n == 2 * size
        # Within-clique edges are complete.
        for u in range(size):
            for v in range(u + 1, size):
                assert topo.has_edge(u, v)
        # Matching edges connect clique positions.
        for i in range(size):
            assert topo.has_edge(i, size + i)
        # No other cross edges.
        assert not topo.has_edge(0, size + 1)

    def test_two_cliques_is_3f_plus_1_connected_by_degree(self):
        """Each node's degree is (3f) within-clique + 1 matching, giving
        min degree 3f+1 — consistent with the paper's claim that the
        graph is (3f+1)-connected."""
        f = 2
        topo = two_cliques(f)
        assert all(topo.degree(u) == 3 * f + 1 for u in range(topo.n))

    def test_two_cliques_requires_positive_f(self):
        with pytest.raises(TopologyError):
            two_cliques(0)

    def test_two_cliques_connectivity_witness(self):
        """Removing the 3f+1 matching endpoints in one clique still
        leaves the survivors of that clique connected (clique edges),
        matching (3f+1)-connectivity rather than less."""
        topo = two_cliques(1)
        assert topo.is_connected()


class TestRandomConnected:
    def test_respects_min_degree_and_connectivity(self):
        import random
        from repro.net.topology import random_connected

        topo = random_connected(12, p=0.4, rng=random.Random(1), min_degree=3)
        assert topo.is_connected()
        assert all(topo.degree(u) >= 3 for u in range(12))

    def test_deterministic_per_rng(self):
        import random
        from repro.net.topology import random_connected

        a = random_connected(8, 0.5, random.Random(2), min_degree=2)
        b = random_connected(8, 0.5, random.Random(2), min_degree=2)
        assert all(a.neighbors(u) == b.neighbors(u) for u in range(8))

    def test_impossible_constraints_raise(self):
        import random
        from repro.net.topology import random_connected

        with pytest.raises(TopologyError):
            random_connected(10, p=0.01, rng=random.Random(3), min_degree=5,
                             max_tries=5)
