"""Unit tests of the percolation rules: criterion, contraction, isolation, reduction."""

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (D0, assert_same_start, certificate_outcomes, certificate_refused,
                      cut_start_reference, disk_percolation_oracle, linkage_joinable_pairs,
                      members_of, nearest_scale, params_for_r0, random_instance,
                      reference_schedule, report_outcome)
from qnetperc import engine
from qnetperc.analysis import Scenario, scenario_params
from qnetperc.engine import (INF, Component, MergeEvent, PercolationState, ReduceEvent,
                             _cloud_distances, events_to_dicts, init_state,
                             partition_to_lists, run, verify_report)
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams
from qnetperc.topology import (PointCloud, RepeaterConfig, build_network,
                               generate_fiber_network, generate_uniform_points,
                               insert_repeaters, single_linkage_labels)


def two_nodes(d: float):
    return build_network([("a", "b", d)])


class TestInit:
    def test_single_node(self):
        cloud = generate_uniform_points(1, seed=0)
        state = init_state(cloud, params_for_r0(1.0, 0.585))
        assert state.active_ids() == [0]
        assert state.connectable_pairs() == []

    def test_two_nodes_within_range(self):
        state = init_state(two_nodes(0.5), params_for_r0(1.0, 0.585))
        assert state.connectable_pairs() == [(0, 1, 0.5)]

    def test_path_graph_has_four_finite_distances(self):
        net = build_network([(f"n{i}", f"n{i+1}", 1.0) for i in range(4)])
        state = init_state(net, params_for_r0(0.1, 0.585))
        finite = [(i, j) for i in range(5) for j in range(i + 1, 5)
                  if math.isfinite(state.distance(i, j))]
        assert len(finite) == 4

    def test_singleton_range_is_base_range(self):
        params = params_for_r0(0.7, 0.585, m=4)
        state = init_state(two_nodes(5.0), params)
        assert state.comps[0].range_km == params.base_range_km()

    def test_rejects_unknown_store(self):
        with pytest.raises(ValueError):
            init_state(two_nodes(1.0), params_for_r0(1.0, 0.5), store="magnetic")


def _coincident_cloud():
    # three points twice over and one pair at distance 0.01
    pos = np.array([[0.2, 0.2], [0.2, 0.2], [0.7, 0.3], [0.7, 0.3], [0.5, 0.8],
                    [0.5, 0.8], [0.1, 0.9], [0.11, 0.9], [0.9, 0.9]])
    return PointCloud(pos), 0.05


CUT_INSTANCES = {
    "cloud": lambda: (generate_uniform_points(40, seed=3), None),
    "coincident_points": _coincident_cloud,
    # an edge list whose closure leaves 7 of the cut's 9 clusters, so that
    # distances between live blocks stay to check
    "edge_list": lambda: (random_instance(13, max_n=40), None),
    "edge_list_with_islands": lambda: (random_instance(37, max_n=40), None),
}


class TestCutStart:
    """Without an event log a run starts from the contraction closure of the
    single-linkage cut at r0, on both kinds of network."""

    @pytest.mark.parametrize("store", ["dense", "sparse"])
    @pytest.mark.parametrize("name", sorted(CUT_INSTANCES))
    def test_cut_holds_the_distances_merges_reach(self, name, store):
        # the reference merges every pair that a linkage edge joins below
        # both ranges, then reduces each singleton left in node order,
        # through the public rules alone
        network, r0 = CUT_INSTANCES[name]()
        params = params_for_r0(r0 or 1.5 * nearest_scale(network), 0.585)
        r0 = params.base_range_km()
        cut = init_state(network, params, store=store, record_events=False)
        assert_same_start(cut, cut_start_reference(network, params, store))
        # only clusters stay live; every cut singleton is retired
        members = members_of(cut)
        assert all(len(members[a]) > 1 for a in cut.comps)
        live = set().union(*(members[a] for a in cut.comps))
        assert cut.removed == [Component(size=1, range_km=r0)] * (network.n_nodes - len(live))
        assert cut.removed and 1 < len(cut.comps)
        for a in cut.comps:
            assert cut.store.min_distance(a) == min(cut.store.distance(a, b)
                                                    for b in cut.comps if b != a)
        for a, b in itertools.permutations(cut.comps, 2):
            assert cut.store.distance(a, b) >= r0
        # the closure is a fixpoint: no linkage edge joins two live blocks
        # below both ranges, and on an edge list no pair is left to merge
        assert linkage_joinable_pairs(cut, network) == []
        if not isinstance(network, PointCloud):
            assert cut.connectable_pairs() == []
        from_singletons = run(init_state(network, params, store=store))
        assert run(cut).partition == from_singletons.partition

    @pytest.mark.parametrize("name", sorted(CUT_INSTANCES))
    def test_singletons_take_the_lowest_ids(self, name):
        # on both kinds of network: singletons 0..k1-1 in node order, then clusters
        network, r0 = CUT_INSTANCES[name]()
        params = params_for_r0(r0 or 1.5 * nearest_scale(network), 0.585)
        state = init_state(network, params, record_events=False)
        assert state.holders().min() >= 0  # every node has a starting id
        comps, members = state.comps, members_of(state)
        live = sorted(comps)
        # the live ids are the clusters, in order of their smallest member
        assert all(comps[a].size > 1 for a in live)
        heads = [min(members[a]) for a in live]
        assert heads == sorted(heads)
        singles = sorted(set(range(network.n_nodes))
                         - set().union(*(members[a] for a in live)))
        k1 = len(singles)
        assert singles and len(state.removed) == k1
        assert live == list(range(k1, k1 + len(live)))
        assert sorted(members) == list(range(k1 + len(live)))
        assert [members[a] for a in range(k1)] == [frozenset((x,)) for x in singles]
        if isinstance(network, PointCloud):  # its singletons never enter the store
            assert state.store.ids.tolist() == live

    @pytest.mark.parametrize("store", ["dense", "sparse"])
    def test_exact_tie_with_r0_does_not_join(self, store):
        params = params_for_r0(0.1875, 0.585)
        r0 = params.base_range_km()
        assert r0 == 0.1875
        # dyadic points: the cloud's distances 0.1875 and 0.125 are exact
        cloud = PointCloud(np.array([[0.25, 0.5], [0.4375, 0.5], [0.5625, 0.5]]))
        edges = build_network([("a", "b", r0), ("b", "c", 0.125)])
        for network in (cloud, edges):
            state = init_state(network, params, store=store, record_events=False)
            assert_same_start(state, cut_start_reference(network, params, store))
            assert state.holders().min() >= 0
            # node 0 is a singleton of the cut: id 0, retired, and its tie
            # with r0 leaves the cluster with no partner at all
            assert members_of(state) == {0: {0}, 1: {1, 2}}
            assert list(state.comps) == [1]
            assert state.removed == [Component(size=1, range_km=r0)]
            assert state.store.min_distance(1) == INF
            # a cloud's never enters the store, an edge list's is reduced out of it
            with pytest.raises(KeyError):
                state.store.distance(0, 1)
            from_singletons = run(init_state(network, params, store=store))
            assert run(state).partition == from_singletons.partition

    @pytest.mark.parametrize("store", ["dense", "sparse"])
    @pytest.mark.parametrize("case", ["all_singletons", "one_block", "coincident_points"])
    def test_cloud_cut_edge_cases(self, case, store):
        if case == "coincident_points":
            cloud, _ = _coincident_cloud()
            r0 = 0.005  # only the coincident pairs, at distance 0, join
        else:
            cloud = generate_uniform_points(12, seed=8)
            scale = float(cloud.linkage_edges[0][0 if case == "all_singletons" else -1])
            r0 = scale / 2 if case == "all_singletons" else 2 * scale
        params = params_for_r0(r0, 0.585)
        state = init_state(cloud, params, store=store, record_events=False)
        blocks = {"all_singletons": [],
                  "one_block": [set(range(12))],
                  "coincident_points": [{0, 1}, {2, 3}, {4, 5}]}[case]
        members = members_of(state)
        assert [set(members[a]) for a in state.comps] == blocks
        assert len(state.removed) == cloud.n_nodes - sum(map(len, blocks))
        from_singletons = run(init_state(cloud, params, store=store))
        assert run(state).partition_sets() == from_singletons.partition_sets()

    @pytest.mark.parametrize("store", ["dense", "sparse"])
    def test_the_last_reduction_has_no_future_range_left(self, store):
        # the future-range cap comes from the pooled size of the live
        # components; retired singletons are not among them.  The no-merge
        # certificate is refused: it holds here and would retire the one
        # live block without a reduction, leaving no cap to check
        cloud = generate_uniform_points(40, seed=3)
        params = params_for_r0(1.5 * nearest_scale(cloud), 0.585, cap=False)
        state = init_state(cloud, params, store=store, record_events=False)
        retired = len(state.removed)
        assert retired
        caps = []
        reduce_and_remove = state.reduce_and_remove

        def spy(a, future_cap=None):
            caps.append(future_cap)
            return reduce_and_remove(a, future_cap=future_cap)

        state.reduce_and_remove = spy
        with certificate_refused():
            run(state)
        assert len(caps) == len(state.removed) - retired
        assert caps[-1] == 0.0

    def test_an_event_log_starts_from_singletons(self):
        cloud = generate_uniform_points(30, seed=5)
        params = params_for_r0(0.15, 0.585)
        state = init_state(cloud, params)
        members = members_of(state)
        assert [set(members[a]) for a in state.comps] == [{i} for i in range(30)]
        report = run(state)
        assert report.merge_count == sum(isinstance(e, MergeEvent) for e in report.events)


def folded_distance_matrix(positions: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The minimum of distance_matrix() over each pair of blocks, by reduceat; diagonal INF."""
    k = len(starts) - 1
    expected = np.full((k, k), INF)
    if k:
        full = PointCloud(positions=positions).distance_matrix()
        expected = np.minimum.reduceat(np.minimum.reduceat(full, starts[:-1], axis=0),
                                       starts[:-1], axis=1)
        np.fill_diagonal(expected, INF)
    return expected


CLUSTER_SIZES = [
    [],  # K = 0
    [7], [300],  # K = 1: no distances at all
    [300, 2, 5],  # a block that spans several reads
    [2, 3] * 120,  # small blocks, some cut by a read boundary
    [1] * 300,  # all singletons: rows written straight into the matrix
]


class TestCloudDistances:
    """Block distances from folded squared distances and one root equal the fold of the full matrix.

    The squared rows are read about _BLOCK_ENTRIES entries at a time; the
    small budgets put the read boundaries where the default budget does not
    reach on a test-sized cloud.
    """

    @staticmethod
    def check(sizes):
        base = generate_uniform_points(640, seed=len(sizes)).positions
        cloud = PointCloud(positions=np.vstack([base, base[:40]]))  # coincident points
        k, m = len(sizes), sum(sizes)
        nodes = np.random.default_rng(k).permutation(cloud.n_nodes)[:m]
        starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        got = _cloud_distances(cloud, nodes, starts)
        assert got.shape == (k, k)
        assert got.tobytes() == folded_distance_matrix(cloud.positions[nodes], starts).tobytes()

    @pytest.mark.parametrize("sizes", CLUSTER_SIZES)
    def test_equal_to_the_fold_of_distance_matrix(self, sizes):
        self.check(sizes)

    @pytest.mark.parametrize("entries", [
        1,  # one row per read: every block of several points spans reads
        2000,  # a few rows per read: read boundaries fall inside blocks
    ])
    @pytest.mark.parametrize("sizes", CLUSTER_SIZES)
    def test_small_read_budgets_give_the_same_floats(self, monkeypatch, entries, sizes):
        monkeypatch.setattr(engine, "_BLOCK_ENTRIES", entries)
        self.check(sizes)


@st.composite
def clustered_clouds(draw):
    """A cloud on a coarse grid or a line, with contiguous blocks of random sizes."""
    m = draw(st.integers(1, 60))
    grid = draw(st.sampled_from([3, 8, 1000]))
    cells = draw(st.lists(st.integers(0, grid - 1), min_size=2 * m, max_size=2 * m))
    pos = np.array(cells, dtype=float).reshape(m, 2) / grid
    if draw(st.booleans()):  # collinear: every point on one diagonal
        pos[:, 1] = pos[:, 0]
    sizes = []
    while sum(sizes) < m:
        sizes.append(draw(st.integers(1, m - sum(sizes))))
    return pos, sizes


@pytest.mark.oracle
class TestCloudDistancesOracle:
    """_cloud_distances against the reduceat fold of distance_matrix(), byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(case=clustered_clouds(), entries=st.integers(1, 400))
    def test_equal_to_the_fold_of_distance_matrix(self, case, entries):
        pos, sizes = case
        starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        # not monkeypatch: a function-scoped fixture would span every example
        with mock.patch.object(engine, "_BLOCK_ENTRIES", entries):
            got = _cloud_distances(PointCloud(positions=pos), np.arange(len(pos)), starts)
        assert got.tobytes() == folded_distance_matrix(pos, starts).tobytes()


class TestConnectionCriterion:
    """merge() checks the criterion d < min(r_a, r_b); connectable_pairs() lists
    the pairs that meet it."""

    def test_within_both_ranges(self):
        state = init_state(two_nodes(0.5), params_for_r0(1.0, 0.0))
        assert state.connectable_pairs() == [(0, 1, 0.5)]
        c = state.merge(0, 1)
        assert state.comps[c].size == 2

    def test_tie_is_limited_by_smaller_range(self):
        # sizes 1 and 2 with alpha=1: ranges 1 and 2; d=1 fails strictly
        net = build_network([("a", "b", 0.5), ("b", "c", 1.0), ("a", "c", 1.4)])
        state = init_state(net, params_for_r0(1.0, 1.0, cap=False))
        ab = state.merge(0, 1)
        assert state.comps[ab].range_km == pytest.approx(2.0, rel=1e-12)
        assert state.distance(ab, 2) == 1.0
        assert state.connectable_pairs() == []
        with pytest.raises(ValueError, match="connection criterion"):
            state.merge(ab, 2)
        assert sorted(state.comps) == [2, ab]  # a refused merge changes nothing

    def test_unreachable_pair(self):
        net = build_network([], extra_nodes=["a", "b"])
        state = init_state(net, params_for_r0(1.0, 0.5))
        assert state.connectable_pairs() == []
        with pytest.raises(ValueError, match="connection criterion"):
            state.merge(0, 1)

    def test_inactive_id_rejected(self):
        state = init_state(two_nodes(0.5), params_for_r0(1.0, 0.0))
        c = state.merge(0, 1)
        assert state.connectable_pairs() == []
        with pytest.raises(ValueError, match="component 0 is not active"):
            state.merge(0, c)
        with pytest.raises(ValueError, match="two distinct components"):
            state.merge(c, c)


class TestConnectablePairs:
    @pytest.mark.parametrize("store", ["dense", "sparse"])
    def test_every_pair_meeting_the_criterion_once_by_id(self, store):
        cloud = generate_uniform_points(30, seed=5)
        state = init_state(cloud, params_for_r0(0.15, 0.585), store=store)
        for _ in range(6):
            ids, comps = state.active_ids(), state.comps
            expected = [(a, b, state.distance(a, b)) for i, a in enumerate(ids)
                        for b in ids[i + 1:] if state.distance(a, b)
                        < min(comps[a].range_km, comps[b].range_km)]
            assert len(expected) >= 2
            assert state.connectable_pairs() == expected
            # a merged id takes a's row slot: slot order stops being id order
            state.merge(*expected[0][:2])


class TestMerge:
    def test_additive_alpha_one(self):
        # r(s) = s with alpha=1, r0=1: merging sizes 1 and 2 gives range 3
        net = build_network([("a", "b", 0.5), ("b", "c", 0.9)])
        state = init_state(net, params_for_r0(1.0, 1.0, cap=False))
        ab = state.merge(0, 1)
        abc = state.merge(ab, 2)
        assert state.comps[abc].range_km == pytest.approx(3.0, rel=1e-12)

    def test_sqrt2_alpha_half(self):
        state = init_state(two_nodes(0.5), params_for_r0(1.0, 0.5, cap=False))
        c = state.merge(0, 1)
        assert state.comps[c].range_km == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_memory_backed_pair_range(self):
        # s=1+1, m=102, alpha=0.585, eps=0.01: r' = (4/3)*0.01*204^0.585*d0
        params = ModelParams(channel=ChannelModel(d0_km=D0, epsilon=0.01),
                             distill=DistillationParams(m=102, alpha=0.585),
                             beta_cap=False)
        state = init_state(two_nodes(1.0), params)
        c = state.merge(0, 1)
        expected = (4 / 3) * 0.01 * 204 ** 0.585 * D0
        assert state.comps[c].range_km == pytest.approx(expected, rel=1e-12)
        assert state.comps[c].range_km / D0 == pytest.approx(0.3, abs=2e-3)

    def test_merge_requires_criterion(self):
        state = init_state(two_nodes(5.0), params_for_r0(1.0, 0.585))
        with pytest.raises(ValueError):
            state.merge(0, 1)

    def test_min_rule_on_third_party(self):
        net = build_network([("a", "b", 0.5), ("a", "c", 7.0), ("b", "c", 4.0)])
        state = init_state(net, params_for_r0(1.0, 0.585))
        c = state.merge(0, 1)
        assert state.distance(c, 2) == 4.0


class TestIsolation:
    def test_sole_component(self):
        cloud = generate_uniform_points(1, seed=0)
        state = init_state(cloud, params_for_r0(1.0, 0.585))
        assert state.is_isolated(0)

    def test_near_neighbor_blocks_isolation(self):
        state = init_state(two_nodes(0.9), params_for_r0(1.0, 0.585))
        assert not state.is_isolated(0)

    def test_exact_tie_counts_as_isolated(self):
        # strict criterion cannot fire at d == r, so the component is stuck
        state = init_state(two_nodes(1.0), params_for_r0(1.0, 0.585))
        assert state.is_isolated(0)
        assert state.is_isolated(1)


class TestReduction:
    def test_shortcut_improves(self):
        # d_ab=3, d_ac=4, d_bc=10: reduction of a lowers bc to 7
        net = build_network([("m", "b", 3.0), ("m", "c", 4.0), ("b", "c", 10.0)])
        state = init_state(net, params_for_r0(0.5, 0.585))
        added = state.reduce_and_remove(2)  # node "m" sorts last
        assert added == [(0, 1, 7.0)]
        assert state.distance(0, 1) == 7.0

    def test_shortcut_not_better(self):
        net = build_network([("m", "b", 3.0), ("m", "c", 4.0), ("b", "c", 5.0)])
        state = init_state(net, params_for_r0(0.5, 0.585))
        added = state.reduce_and_remove(2)
        assert added == []
        assert state.distance(0, 1) == 5.0

    def test_shortcut_creates_reachability(self):
        # b and c unreachable; relay at distances 1 and 2 creates d=3
        net = build_network([("m", "b", 1.0), ("m", "c", 2.0)])
        state = init_state(net, params_for_r0(0.5, 0.585))
        assert state.distance(0, 1) == INF
        added = state.reduce_and_remove(2)
        assert added == [(0, 1, 3.0)]
        assert state.distance(0, 1) == 3.0

    def test_reducing_non_isolated_rejected(self):
        state = init_state(two_nodes(0.5), params_for_r0(1.0, 0.585))
        with pytest.raises(ValueError):
            state.reduce_and_remove(0)


class TestRun:
    def test_two_node_merge(self):
        report = run(init_state(two_nodes(0.5), params_for_r0(1.0, 0.585)))
        assert report.p_inf == 1.0
        assert report.partition == (("a", "b"),)
        verify_report(report)

    def test_classical_limit_matches_disk_percolation(self):
        cloud = generate_uniform_points(35, seed=11)
        params = params_for_r0(0.18, 0.0)
        report = run(init_state(cloud, params))
        assert report.partition_sets() == disk_percolation_oracle(cloud, 0.18)
        verify_report(report)

    def test_policies_share_partition(self):
        cloud = generate_uniform_points(30, seed=5)
        params = params_for_r0(0.15, 0.585)
        lexicographic = run(init_state(cloud, params)).partition_sets()
        shuffled = reference_schedule(init_state(cloud, params),
                                      choose=random.Random(3).choice)
        assert shuffled.partition_sets() == lexicographic

    def test_report_requires_finished_run(self):
        state = init_state(two_nodes(0.5), params_for_r0(1.0, 0.0))
        with pytest.raises(ValueError):
            state.report()


def four_runs_agree(network, params) -> list[bool]:
    """The harness run, the logged run, a harness run under the full
    contract (future_cap patched to inf) and a harness run with the no-merge
    certificate refused give equal partitions, p_inf and counts.

    Returns the outcome of each certificate the harness run tried.
    """
    with certificate_outcomes() as certified:
        harness = run(init_state(network, params, record_events=False))
    logged = run(init_state(network, params))
    # not monkeypatch: a function-scoped fixture would span every example
    with mock.patch.object(PercolationState, "future_cap", lambda self, pool: INF):
        uncapped = run(init_state(network, params, record_events=False))
    with certificate_refused():
        reducing = run(init_state(network, params, record_events=False))
    expected = report_outcome(harness)
    for other in (logged, uncapped, reducing):
        assert report_outcome(other) == expected
    return certified


SCALE_R0 = 0.0139  # near the alpha=0.585 threshold of a 2000-point cloud
SCALE_R0_5000 = 0.0088  # near the alpha=0.585 threshold of a 5000-point cloud


class TestExactnessAtScale:
    """four_runs_agree where only large inputs reach: a cloud's closure
    start past its r0 cut and its fold past one read, and a repeater fiber
    of 8,039 nodes near its distributed minimum.  The cloud's harness run
    ends at the no-merge certificate, so its run with the certificate
    refused is the one that reduces at scale."""

    def test_cloud_near_threshold(self):
        cloud = generate_uniform_points(2000, seed=101)
        params = params_for_r0(SCALE_R0, 0.585)
        reads = []
        squared = engine.squared_distance_rows

        def counted(*args, **kwargs):
            reads.append(args)
            return squared(*args, **kwargs)

        with mock.patch.object(engine, "squared_distance_rows", counted):
            state = init_state(cloud, params, record_events=False)
        # floors: the closure merges past the cut, and the fold takes several reads
        cut = np.bincount(single_linkage_labels(cloud, params.base_range_km()))
        assert len(state.comps) < np.count_nonzero(cut > 1)
        assert len(reads) > 1
        # floor: the harness run ends at the certificate
        assert four_runs_agree(cloud, params) == [True]

    def test_repeater_fiber_near_its_distributed_minimum(self):
        fiber = generate_fiber_network(692, 733, mean_length_km=500.0, seed=1)
        network = insert_repeaters(fiber, RepeaterConfig(mean_segment_km=50.0, seed=11))
        assert network.n_nodes == 8039
        params = scenario_params(
            ModelParams(channel=ChannelModel(d0_km=557.0, epsilon=0.01),
                        distill=DistillationParams(m=102, alpha=0.585)),
            Scenario.DISTRIBUTED)
        # the sparse store never tries the certificate
        assert four_runs_agree(network, params) == []


@pytest.mark.oracle
class TestExactnessAtScaleFreshSeed:
    """TestExactnessAtScale's cloud check on clouds and ranges drawn afresh,
    at N=2000 and at N=5000."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.9, 1.1))
    def test_cloud_near_threshold(self, seed, scale):
        four_runs_agree(generate_uniform_points(2000, seed=seed),
                        params_for_r0(SCALE_R0 * scale, 0.585))

    @settings(max_examples=1, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.9, 1.1))
    def test_5000_point_cloud_near_threshold(self, seed, scale):
        # the harness run, the run with the certificate refused and the
        # logged run; the logged run's 5000 x 5000 store sets the memory
        cloud = generate_uniform_points(5000, seed=seed)
        params = params_for_r0(SCALE_R0_5000 * scale, 0.585)
        harness = run(init_state(cloud, params, record_events=False))
        with certificate_refused():
            reducing = run(init_state(cloud, params, record_events=False))
        logged = run(init_state(cloud, params))
        assert report_outcome(harness) == report_outcome(reducing) == report_outcome(logged)


class TestGiantFraction:
    def test_single_node(self):
        report = run(init_state(generate_uniform_points(1, seed=0),
                                params_for_r0(1.0, 0.585)))
        assert report.p_inf == 1.0

    def test_all_singletons(self):
        net = build_network([], extra_nodes=["a", "b", "c", "d"])
        report = run(init_state(net, params_for_r0(1.0, 0.585)))
        assert report.p_inf == 0.25

    def test_mixed_blocks(self):
        # blocks {3, 2, 1} out of six nodes: giant fraction 0.5
        net = build_network([("a", "b", 0.1), ("b", "c", 0.1), ("d", "e", 0.1)],
                            extra_nodes=["f"])
        report = run(init_state(net, params_for_r0(1.0, 0.0)))
        sizes = sorted(len(b) for b in report.partition)
        assert sizes == [1, 2, 3]
        assert report.p_inf == 0.5


class TestExports:
    def test_event_dicts(self):
        report = run(init_state(two_nodes(0.5), params_for_r0(1.0, 0.585)))
        dicts = events_to_dicts(report)
        assert dicts[0]["type"] == "merge"
        assert dicts[-1]["type"] == "reduce"
        assert {d["type"] for d in dicts} == {"merge", "reduce"}

    def test_partition_lists(self):
        report = run(init_state(two_nodes(5.0), params_for_r0(1.0, 0.585)))
        assert partition_to_lists(report) == [["a"], ["b"]]

    def test_event_sequence_types(self):
        cloud = generate_uniform_points(12, seed=2)
        report = run(init_state(cloud, params_for_r0(0.3, 0.585)))
        assert all(isinstance(e, (MergeEvent, ReduceEvent)) for e in report.events)
        assert report.merge_count + report.reduce_count == len(report.events)
