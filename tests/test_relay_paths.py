"""Relay paths: an independent oracle for alpha > 0 and the singleton-relay contract.

The oracle shares no code with qnetperc.engine.  It keeps the active
components and the removed relays as member sets, measures a distance as the
shortest path over raw member-to-member distances whose inner hops pass only
through removed relays (a relay is crossed at no cost between its members),
and fires merges and reductions in a seeded random order, with no range cap
and no distance store.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (assert_same_start, cut_start_reference, members_of, nearest_scale,
                      params_for_r0, random_instance)
from test_acceptance import HOP_BLOCK_A, HOP_BLOCK_B, HOP_PARAMS, HOP_SEED, replay_members
from test_engine_properties import relay_chain_instance
from qnetperc.engine import Component, MergeEvent, ReduceEvent, init_state, run
from qnetperc.quantum import (ChannelModel, DistillationParams, ModelParams,
                              component_range)
from qnetperc.topology import PointCloud, build_network, generate_uniform_points

pytestmark = pytest.mark.oracle


def raw_distances(network):
    """Euclidean distances on a cloud; edge lengths, else inf, on an edge list."""
    if isinstance(network, PointCloud):
        return network.distance_matrix().tolist()
    index = network.index_of()
    raw = [[math.inf] * network.n_nodes for _ in range(network.n_nodes)]
    for u, v, length in network.edges:
        raw[index[u]][index[v]] = raw[index[v]][index[u]] = length
    return raw


def oracle_partition(network, params, seed):
    """Final partition after every rule has fired, in a seeded random order."""
    raw = raw_distances(network)
    labels = (list(range(network.n_nodes)) if isinstance(network, PointCloud)
              else list(network.node_ids))
    comps = [frozenset([i]) for i in range(network.n_nodes)]
    relays: list[frozenset] = []
    rng = random.Random(seed)

    def reach(c):
        return component_range(len(c), params.channel, params.distill,
                               mode=params.range_mode, beta_cap=params.beta_cap,
                               size_growth=params.size_growth)

    def paths_from(src):
        # Dijkstra over member sets; only the source and relays pass a path on
        dist, done = {src: 0.0}, set()
        while len(done) < len(dist):
            x = min((v for v in dist if v not in done), key=dist.get)
            done.add(x)
            if x is not src and x not in relays:
                continue
            for y in comps + relays:
                d = dist[x] + min(raw[i][j] for i in x for j in y)
                if y not in done and d < dist.get(y, math.inf):
                    dist[y] = d
        return dist

    while comps:
        d = {c: paths_from(c) for c in comps}
        r = {c: reach(c) for c in comps}
        rules = [(a, b) for a, b in itertools.combinations(comps, 2)
                 if d[a].get(b, math.inf) < min(r[a], r[b])]
        rules += [(a,) for a in comps
                  if not any(d[a].get(b, math.inf) < r[a] for b in comps if b != a)]
        rule = rng.choice(rules)
        comps = [c for c in comps if c not in rule]
        if len(rule) == 2:
            comps.append(rule[0] | rule[1])
        else:
            relays.append(rule[0])
    return {frozenset(labels[i] for i in block) for block in relays}


def oracle_params(r0, alpha, mode, cap):
    """Base range r0, where components of up to 14 nodes can reach beta = d0 ln 3.

    Exact ranges become infinite once x s^alpha reaches 1; x keeps 14 nodes
    below that point, so uncapped ranges stay finite.
    """
    x = math.log(3.0) / 8 if mode == "asymptotic" else 0.9 / 14 ** alpha
    d0 = r0 / x if mode == "asymptotic" else -r0 / math.log1p(-x)
    return ModelParams(channel=ChannelModel(d0_km=d0, epsilon=0.75 * x),
                       distill=DistillationParams(m=1, alpha=alpha),
                       range_mode=mode, beta_cap=cap)


def _random(seed):
    network = random_instance(seed, max_n=14)
    factor = np.random.default_rng(seed + 1).uniform(0.6, 1.8)
    return network, float(factor * nearest_scale(network))


def _dyadic_line(seed):
    # x = k/16 on y = 1/2: every distance and every path sum is exact, so
    # the plane's triangle inequality holds in floats as well
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 16, size=int(rng.integers(2, 15))) / 16
    cloud = PointCloud(np.column_stack([x, np.full_like(x, 0.5)]))
    return cloud, float(rng.uniform(1.0, 4.0)) / 16


def _relay_cluster(seed):
    # clusters B and C meet only through a two-node cluster R whose hooks lie
    # past R's own range; at alpha = 1 the grown B and C often reach each
    # other through R, which only a multi-member relay shortcut provides
    rng = np.random.default_rng(seed)
    edges = []

    def cluster(tag, k):
        nodes = [f"{tag}{i}" for i in range(k)]
        for i in range(1, k):
            edges.append((nodes[i], nodes[int(rng.integers(i))], float(rng.uniform(0.1, 0.9))))
        return nodes

    b, r, c = (cluster("b", int(rng.integers(4, 7))), cluster("r", 2),
               cluster("c", int(rng.integers(4, 7))))
    for side in (b, c):
        edges.append((side[int(rng.integers(len(side)))], r[int(rng.integers(2))],
                      float(rng.uniform(2.0, 3.0))))
    return build_network(edges), 1.0


FAMILIES = {
    "random": _random,
    "relay_cluster": _relay_cluster,
    "relay_chain": lambda seed: (relay_chain_instance(seed, max_n=14)[0], 1.0),
    "dyadic_line": _dyadic_line,
}


@given(seed=st.integers(0, 40_000), family=st.sampled_from(sorted(FAMILIES)),
       alpha=st.sampled_from((0.3, 0.585, 1.0)),
       mode=st.sampled_from(("asymptotic", "exact")), cap=st.booleans())
@settings(max_examples=150, deadline=None)
@example(seed=3, family="relay_cluster", alpha=1.0, mode="asymptotic", cap=True)
def test_engine_matches_relay_path_oracle(seed, family, alpha, mode, cap):
    # without an event log the engine starts from the single-linkage cut at r0
    network, r0 = FAMILIES[family](seed)
    assert network.n_nodes <= 14
    params = oracle_params(r0, alpha, mode, cap)
    expected = oracle_partition(network, params, seed)
    for store, record_events in itertools.product(("dense", "sparse"), (True, False)):
        report = run(init_state(network, params, store=store, record_events=record_events))
        assert report.partition_sets() == expected, f"{store} store, {record_events=}"


@pytest.mark.parametrize("store", ["dense", "sparse"])
def test_uncapped_exact_ranges_past_the_fall(store):
    # x = 1 - 3^(-1/4) gives r0 = 1, beta = 4, r(4) ~ 11.78 and r(5) past the
    # fall; a range that fell back to beta there would let the engine's
    # future-range cap prune the shortcut that joins v00-v02 to v03-v05
    network, _ = relay_chain_instance(11956, max_n=14)
    x = 1 - 3 ** -0.25
    params = ModelParams(channel=ChannelModel(d0_km=4 / math.log(3), epsilon=0.75 * x),
                         distill=DistillationParams(m=1, alpha=1.0),
                         range_mode="exact", beta_cap=False)
    assert params.component_range_km(4) == pytest.approx(11.78, abs=0.01)
    assert params.component_range_km(5) == math.inf
    report = run(init_state(network, params, store=store))
    assert report.partition_sets() == oracle_partition(network, params, 0)


class TestSingletonRelays:
    """On a point cloud a one-point relay inserts no shortcut; elsewhere it does."""

    def test_near_collinear_cloud_singletons_write_nothing(self):
        # on y = 0.3 x + 0.1 rounding puts some d_ab + d_ac an ulp below d_bc
        x = np.sort(np.random.default_rng(18).uniform(0.0, 1.0, 14))
        cloud = PointCloud(np.column_stack([x, 0.3 * x + 0.1]))
        params = params_for_r0(1.04 * float(np.median(np.diff(x))), 1.0)
        mat = cloud.distance_matrix()
        complete = build_network([(f"{i:02d}", f"{j:02d}", mat[i, j])
                                  for i, j in itertools.combinations(range(14), 2)])
        as_edges = run(init_state(complete, params))
        # the same distances as an edge list: its singletons do log ulp shortcuts
        ulp_shortcuts = [s for ev in as_edges.events
                         if isinstance(ev, ReduceEvent) and ev.size == 1
                         for s in ev.shortcuts]
        assert ulp_shortcuts
        members = replay_members(as_edges)  # ids 00..13 sort like the indices
        for b, c, s in ulp_shortcuts:
            raw = mat[np.ix_(sorted(members[b]), sorted(members[c]))].min()
            assert 0 < raw - s <= 4 * np.spacing(raw)
        relabel = {frozenset(map(int, block)) for block in as_edges.partition_sets()}
        for store in ("dense", "sparse"):
            report = run(init_state(cloud, params, store=store))
            singles = [ev for ev in report.events if isinstance(ev, ReduceEvent)
                       and ev.size == 1]
            assert singles and all(ev.shortcuts == () for ev in singles)
            assert report.partition_sets() == relabel

    @staticmethod
    def stranded_relay():
        # clusters U = {u, u2, u3} and V = {v, v2, v3} meet only through r,
        # which is stranded past the base range 1; U and V reach 3 > 1.2 + 1.2
        return build_network([("u", "u2", 0.1), ("u2", "u3", 0.1), ("v", "v2", 0.1),
                              ("v2", "v3", 0.1), ("u", "r", 1.2), ("r", "v", 1.2)])

    @pytest.mark.parametrize("store", ["dense", "sparse"])
    def test_edge_list_singleton_relay_writes_its_path(self, store):
        net = self.stranded_relay()
        report = run(init_state(net, params_for_r0(1.0, 1.0), store=store))
        members = replay_members(report)
        relay = net.index_of()["r"]
        i = next(k for k, ev in enumerate(report.events)
                 if isinstance(ev, ReduceEvent) and ev.comp == relay)
        reduce_r, merge_uv = report.events[i], report.events[i + 1]
        assert reduce_r.size == 1
        ((a, b, d),) = reduce_r.shortcuts
        assert d == 2.4
        assert isinstance(merge_uv, MergeEvent) and {merge_uv.a, merge_uv.b} == {a, b}
        assert {len(members[a]), len(members[b])} == {3}
        assert report.partition == (("r",), ("u", "u2", "u3", "v", "v2", "v3"))

    @pytest.mark.parametrize("store", ["dense", "sparse"])
    def test_edge_list_cut_keeps_its_singleton_relays(self, store):
        # r is a singleton of the cut at r0 = 1, reduced by init_state; the
        # 2.4 shortcut it leaves in the store is all that joins U and V
        net = self.stranded_relay()
        params = params_for_r0(1.0, 1.0)
        state = init_state(net, params, store=store, record_events=False)
        reference = cut_start_reference(net, params, store)
        assert_same_start(state, reference)
        assert state.removed == [Component(size=1, range_km=params.base_range_km())]
        members = members_of(state)
        assert members[0] == {net.index_of()["r"]} and 0 not in state.comps
        ids = {members[a]: a for a in state.comps}
        assert set(ids) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}  # U, V
        assert state.distance(*ids.values()) == 2.4
        partition = (("r",), ("u", "u2", "u3", "v", "v2", "v3"))
        assert run(state).partition == partition
        assert run(init_state(net, params, store=store)).partition == partition

    def test_c10_hop_comes_from_its_two_node_chain(self):
        cloud = generate_uniform_points(20, box_side=1.0, seed=HOP_SEED)
        params = ModelParams(channel=ChannelModel(**HOP_PARAMS),
                             distill=DistillationParams(m=1, alpha=0.585),
                             range_mode="exact", beta_cap=True)
        report = run(init_state(cloud, params))
        members = replay_members(report)
        hop = next(ev for ev in report.events if isinstance(ev, MergeEvent)
                   and {members[ev.a], members[ev.b]} == {HOP_BLOCK_A, HOP_BLOCK_B})
        upto = report.events[:report.events.index(hop)]
        sources = [ev for ev in upto if isinstance(ev, ReduceEvent)
                   and any(d == hop.distance for _, _, d in ev.shortcuts)]
        assert [members[ev.comp] for ev in sources] == [frozenset({11, 17})]
        assert all(ev.shortcuts == () for ev in upto
                   if isinstance(ev, ReduceEvent) and ev.size == 1)
