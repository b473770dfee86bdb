"""Placement-policy unit coverage: fragmentation scores across
topologies, packed-vs-spread behavior and tie-breaks, exhaustion and
error edges.
"""

import random

import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.serve import (
    PlacementError,
    domains_of,
    fragmentation,
    placement_score,
    select_nodes,
)
from repro.sim import Simulator

KB = 1024


def topo(kind="fattree", nodes=16, **kw):
    sim = Simulator()
    spec = ClusterSpec(
        nodes=nodes, gpus_per_node=0, topology=TopologySpec(kind=kind, **kw)
    )
    return build_cluster(sim, spec).topology


@pytest.fixture(scope="module")
def ft16():
    """16 nodes, 4 pods of 4, oversubscribed 4x."""
    return topo("fattree", nodes=16, pod_size=4, oversubscription=4.0)


# ---------------------------------------------------------------------------
# Fragmentation and scores
# ---------------------------------------------------------------------------

class TestFragmentation:
    def test_fattree_contiguous_pod(self, ft16):
        assert domains_of(ft16, [0, 1, 2, 3]) == {0: [0, 1, 2, 3]}
        assert fragmentation(ft16, [0, 1, 2, 3]) == (1, 0)

    def test_fattree_two_pods(self, ft16):
        # Two contiguous halves: 2 domains, 2 ring crossings.
        assert fragmentation(ft16, [0, 1, 4, 5]) == (2, 2)

    def test_fattree_fully_scattered(self, ft16):
        # One node per pod: every ring hop crosses.
        assert fragmentation(ft16, [0, 4, 8, 12]) == (4, 4)

    def test_singleton_has_no_crossings(self, ft16):
        assert fragmentation(ft16, [5]) == (1, 0)
        assert placement_score(ft16, [5]) == 0.0

    def test_empty_set_rejected(self, ft16):
        with pytest.raises(PlacementError):
            fragmentation(ft16, [])
        with pytest.raises(PlacementError):
            placement_score(ft16, [])

    def test_torus_domains_are_singletons(self):
        t = topo("torus2d", nodes=16, torus_x=4, torus_y=4)
        k = [0, 1, 5, 6]
        n_domains, crossings = fragmentation(t, k)
        assert n_domains == 4
        assert crossings == 4  # every hop of the sorted ring crosses

    def test_fattree_packed_scores_below_spread(self, ft16):
        packed_score = placement_score(ft16, [0, 1, 2, 3])
        spread_score = placement_score(ft16, [0, 4, 8, 12])
        # Oversubscribed uplinks make the scattered ring strictly
        # slower; the gap is the whole premise of the serving gate.
        assert spread_score > 1.5 * packed_score

    def test_score_scales_with_payload(self, ft16):
        small = placement_score(ft16, [0, 4, 8, 12], nbytes=1 * KB)
        large = placement_score(ft16, [0, 4, 8, 12], nbytes=1024 * KB)
        assert large > small

    def test_multirail_is_placement_indifferent(self):
        # Flat fabrics price crossings exactly like local hops, so
        # packed and scattered sets of equal size score identically.
        t = topo("multirail", nodes=16, rails=2)
        assert placement_score(t, [0, 1, 2, 3]) == pytest.approx(
            placement_score(t, [0, 5, 10, 15])
        )


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class TestPolicies:
    def rng(self):
        return random.Random(42)

    def test_packed_whole_pod(self, ft16):
        got = select_nodes("packed", ft16, range(16), 4, self.rng())
        assert got == [0, 1, 2, 3]
        assert fragmentation(ft16, got) == (1, 0)

    def test_packed_prefers_fullest_domain(self, ft16):
        # Pod 0 has 2 free, pod 1 has 4: a 4-node job takes pod 1.
        free = [0, 1, 4, 5, 6, 7]
        assert select_nodes("packed", ft16, free, 4, self.rng()) == [
            4, 5, 6, 7
        ]

    def test_packed_tie_breaks_to_lowest_pod(self, ft16):
        # Pods 1 and 2 both fully free: pod 1 wins the tie.
        free = [4, 5, 6, 7, 8, 9, 10, 11]
        assert select_nodes("packed", ft16, free, 4, self.rng()) == [
            4, 5, 6, 7
        ]

    def test_packed_spills_in_domain_order(self, ft16):
        # 6 nodes from pods of 4: the fullest pod plus the next one.
        got = select_nodes("packed", ft16, range(16), 6, self.rng())
        assert got == [0, 1, 2, 3, 4, 5]
        assert fragmentation(ft16, got)[0] == 2

    def test_spread_round_robins_pods(self, ft16):
        got = select_nodes("spread", ft16, range(16), 4, self.rng())
        assert got == [0, 4, 8, 12]
        assert fragmentation(ft16, got) == (4, 4)

    def test_spread_wraps_after_one_per_pod(self, ft16):
        got = select_nodes("spread", ft16, range(16), 6, self.rng())
        assert got == [0, 1, 4, 5, 8, 12]

    def test_spread_skips_exhausted_domains(self, ft16):
        # Pod 0 offers one node; the rotation drops it once taken.
        free = [0, 4, 5, 8, 9]
        got = select_nodes("spread", ft16, free, 5, self.rng())
        assert got == sorted(free)

    def test_random_is_seeded_and_sorted(self, ft16):
        a = select_nodes("random", ft16, range(16), 6, random.Random(7))
        b = select_nodes("random", ft16, range(16), 6, random.Random(7))
        c = select_nodes("random", ft16, range(16), 6, random.Random(8))
        assert a == b
        assert a == sorted(a)
        assert set(a) <= set(range(16))
        assert a != c  # overwhelmingly likely; fixed seeds make it exact

    def test_policies_return_exactly_k(self, ft16):
        for policy in ("packed", "spread", "random"):
            got = select_nodes(policy, ft16, range(16), 5, self.rng())
            assert len(got) == 5
            assert len(set(got)) == 5

    def test_exhaustion_raises(self, ft16):
        with pytest.raises(PlacementError):
            select_nodes("packed", ft16, [1, 2], 3, self.rng())

    def test_bad_policy_and_k(self, ft16):
        with pytest.raises(PlacementError):
            select_nodes("best-fit", ft16, range(16), 2, self.rng())
        with pytest.raises(PlacementError):
            select_nodes("packed", ft16, range(16), 0, self.rng())
