"""Property tests: order invariance, monotone coupling, conservation, tie handling,
and the event-log writer against the stdlib json encoder."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (assert_same_start, cut_start_reference, disk_percolation_oracle,
                      is_refinement, params_for_r0, random_edge_list, random_instance,
                      random_params, reference_schedule)
from test_acceptance import replay_members
from qnetperc.engine import (MergeEvent, ReduceEvent, RunReport, events_to_dicts,
                             init_state, run, save_event_log, verify_report)
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams
from qnetperc.topology import (PointCloud, RepeaterConfig, build_network,
                               generate_fiber_network, insert_repeaters)


def run_variant(network, params, *, order=None, store="auto", prune=True):
    """One run; an order seed fires the rules in that seeded random order.

    prune applies to the random orders only: run() always prunes.
    """
    state = init_state(network, params, store=store)
    if order is not None:
        report = reference_schedule(state, prune, choose=random.Random(order).choice)
    else:
        report = run(state)
    verify_report(report)
    return report


class TestOrderInvariance:
    @given(seed=st.integers(0, 40_000), relay_chains=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_policies_stores_reductions_agree(self, seed, relay_chains):
        # the lexicographic run, random rule orders, both stores, and
        # reductions with and without the pruning cap; relay chains reach merges that exist only
        # through a reduction's shortcuts, which random instances almost
        # never do
        if relay_chains:
            network, params = relay_chain_instance(seed)
        else:
            network = random_instance(seed, max_n=30)
            params = random_params(seed, network)
        reference = run_variant(network, params).partition_sets()
        variants = [
            dict(order=seed),
            dict(order=seed + 1),
            dict(order=seed + 3, prune=False),
            dict(store="sparse", order=seed + 2),
            dict(store="dense"),
        ]
        for kwargs in variants:
            assert run_variant(network, params, **kwargs).partition_sets() == reference

    @given(seed=st.integers(0, 40_000))
    @settings(max_examples=20, deadline=None)
    def test_random_orders_share_partition(self, seed):
        network = random_instance(seed + 70_000, max_n=25)
        params = random_params(seed + 70_000, network)
        parts = {frozenset(run_variant(network, params, order=k).partition_sets())
                 for k in range(6)}
        assert len(parts) == 1


def assert_lexicographic_matches_reference(network, params):
    logs = {}
    for store in ("dense", "sparse"):
        def fresh():
            return init_state(network, params, store=store)
        expected = events_to_dicts(reference_schedule(fresh()))
        got = events_to_dicts(run(fresh()))
        assert got == expected, f"event logs differ on the {store} store"
        logs[store] = got
    # the reference shares the store, so only the other store can tell
    # whether a store lists its shortcuts in id order
    assert logs["dense"] == logs["sparse"], "stores disagree"


def relay_chain_instance(seed: int, max_n: int = 30):
    """Tight clusters joined by chains of long relay edges, and its params.

    Base range 1: cluster edges lie well inside it and relay edges at or
    beyond it, so a relay is isolated while the grown clusters on either side
    can still connect through its reduction shortcut.
    """
    rng = np.random.default_rng(seed)
    names: list[str] = []
    edges = []

    def new_node():
        names.append(f"v{len(names):02d}")
        return names[-1]

    reachable: list[str] = []
    while len(names) < max_n - 8:
        cluster = [new_node()]
        for _ in range(int(rng.integers(0, 6))):
            v = new_node()
            edges.append((v, cluster[int(rng.integers(len(cluster)))],
                          float(rng.uniform(0.05, 0.6))))
            cluster.append(v)
        if reachable:
            hook = reachable[int(rng.integers(len(reachable)))]
            for _ in range(int(rng.integers(1, 3))):
                relay = new_node()
                edges.append((hook, relay, float(rng.uniform(0.9, 2.5))))
                hook = relay
            edges.append((hook, cluster[int(rng.integers(len(cluster)))],
                          float(rng.uniform(0.9, 2.5))))
        reachable = cluster if rng.random() < 0.7 else reachable + cluster
    network = build_network(edges, extra_nodes=names)
    return network, params_for_r0(1.0, float(rng.choice([0.585, 1.0])))


CUT_SHAPES = ("junction", "dead_end", "closed_chain", "long_cable")


def cut_singleton_shape(shape: str, seed: int):
    """Clusters around cut singletons, whose cables all reach r0 = 1, and params.

    - junction: one singleton j cabled to three or four clusters;
    - dead_end: a chain of singletons that leaves cluster a and ends, beside
      a chain from a to cluster b;
    - closed_chain: a chain of singletons that leaves a and returns to it,
      beside a chain from a to b;
    - long_cable: one 40 km cable from a to b, cut by insert_repeaters at a
      2 km mean, so usually at 11 or more points; its singletons' ids are
      then not monotone along it (rep__a0__b0__10 sorts before
      rep__a0__b0__2).
    """
    rng = np.random.default_rng(seed)
    edges = []

    def cluster(tag):
        nodes = [f"{tag}{i}" for i in range(int(rng.integers(2, 6)))]
        for i in range(1, len(nodes)):
            edges.append((nodes[i], nodes[int(rng.integers(i))], float(rng.uniform(0.05, 0.6))))
        return nodes

    def hop():
        return float(rng.uniform(1.0, 2.0))  # at or past r0

    def chain(u, v, tag, k):
        # u to v (None: a dead end) through k singletons
        hops = [u, *(f"{tag}{i}" for i in range(k)), *([v] if v else [])]
        edges.extend((x, y, hop()) for x, y in zip(hops, hops[1:]))

    a, b = cluster("a"), cluster("b")
    params = params_for_r0(1.0, float(rng.choice([0.585, 1.0])))
    if shape == "long_cable":
        edges.append((a[0], b[0], 40.0))
        cable = build_network(edges)
        return insert_repeaters(cable, RepeaterConfig(mean_segment_km=2.0, seed=seed)), params
    if shape == "junction":
        for c in (a, b, *(cluster(t) for t in "cd"[:int(rng.integers(1, 3))])):
            edges.append(("j", c[int(rng.integers(len(c)))], hop()))
    else:
        chain(a[-1], b[0], "t", int(rng.integers(1, 3)))
        end = None if shape == "dead_end" else a[0]
        chain(a[-1], end, "s", int(rng.integers(2, 5)))
    return build_network(edges), params


def reduction_borne_merges(report) -> int:
    """Merges that directly follow a reduction.

    A reduction only happens when no pair connects, so such a merge uses a
    pair that the reduction's shortcuts created.
    """
    ev = report.events
    return sum(isinstance(x, ReduceEvent) and not isinstance(y, ReduceEvent)
               for x, y in zip(ev, ev[1:]))


class TestLexicographicSchedule:
    """The incremental lexicographic schedule fires the brute-force rule order."""

    @given(seed=st.integers(0, 40_000), relay_chains=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_event_log_matches_rescan_reference(self, seed, relay_chains):
        if relay_chains:
            network, params = relay_chain_instance(seed)
        else:
            network = random_instance(seed + 123_000, max_n=30)
            params = random_params(seed + 123_000, network)
        assert_lexicographic_matches_reference(network, params)

    def test_relay_chains_exercise_reduction_borne_merges(self):
        # the generator behind half of the examples above reaches the case
        # where a reduction creates the next connectable pair
        hits = sum(reduction_borne_merges(run(init_state(*relay_chain_instance(s)))) > 0
                   for s in range(40))
        assert hits >= 5

    def test_fiber_with_repeaters(self):
        fiber = generate_fiber_network(40, 44, mean_length_km=500.0, seed=1)
        network = insert_repeaters(fiber, RepeaterConfig(mean_segment_km=150.0,
                                                         seed=3))
        assert network.n_nodes == 182
        params = ModelParams(channel=ChannelModel(d0_km=700.0, epsilon=0.01),
                             distill=DistillationParams(m=102, alpha=0.585))
        report = run(init_state(network, params))
        assert report.merge_count > 100 and report.reduce_count > 20
        assert reduction_borne_merges(report) >= 1
        assert_lexicographic_matches_reference(network, params)


class TestMonotoneCoupling:
    @given(seed=st.integers(0, 40_000))
    @settings(max_examples=25, deadline=None)
    def test_larger_ranges_coarsen_partition(self, seed):
        network = random_instance(seed, max_n=30)
        params = random_params(seed, network)
        bigger = dataclasses.replace(
            params, channel=dataclasses.replace(
                params.channel, epsilon=min(0.9, params.channel.epsilon * 1.5)))
        fine = run_variant(network, params).partition_sets()
        coarse = run_variant(network, bigger).partition_sets()
        assert is_refinement(fine, coarse)

    @given(seed=st.integers(0, 40_000))
    @settings(max_examples=25, deadline=None)
    def test_p_inf_monotone_in_epsilon(self, seed):
        network = random_instance(seed + 3, max_n=30)
        params = random_params(seed + 3, network)
        scales = (0.6, 1.0, 1.7)
        values = []
        for s in scales:
            p = dataclasses.replace(params, channel=dataclasses.replace(
                params.channel, epsilon=min(0.9, params.channel.epsilon * s)))
            values.append(run_variant(network, p).p_inf)
        assert values == sorted(values)


class TestScenarioDominance:
    @given(seed=st.integers(0, 40_000))
    @settings(max_examples=20, deadline=None)
    def test_pointwise_ordering(self, seed):
        from qnetperc.analysis import Scenario, scenario_params
        network = random_instance(seed + 9, max_n=30)
        base = random_params(seed + 9, network)
        base = dataclasses.replace(
            base, distill=dataclasses.replace(base.distill, m=16))
        values = {
            sc: run_variant(network, scenario_params(base, sc)).p_inf
            for sc in Scenario
        }
        assert values[Scenario.NO_MEMORY] <= values[Scenario.POINT_TO_POINT]
        assert values[Scenario.POINT_TO_POINT] <= values[Scenario.DISTRIBUTED]


class TestStrictTies:
    def test_exact_tie_never_connects(self):
        net = build_network([("a", "b", 1.0)])
        params = params_for_r0(1.0, 0.585)
        report = run_variant(net, params)
        assert report.partition == (("a",), ("b",))

    def test_tie_perturbation_is_stable(self):
        # shifting an exact-tie distance up by 1e-12 changes nothing
        for bump in (0.0, 1e-12):
            net = build_network([("a", "b", 1.0 + bump), ("b", "c", 0.4)])
            report = run_variant(net, params_for_r0(1.0, 0.585))
            assert report.partition_sets() == {frozenset(("a",)),
                                               frozenset(("b", "c"))}

    def test_classical_limit_on_tie_grid(self):
        # nodes on a unit grid with r0 exactly 1: nothing connects
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)]
        report = run_variant(build_network(edges), params_for_r0(1.0, 0.0))
        assert report.p_inf == 0.25


class TestClassicalLimit:
    @given(seed=st.integers(0, 40_000))
    @settings(max_examples=30, deadline=None)
    def test_alpha_zero_equals_disk_graph(self, seed):
        network = random_instance(seed + 31, max_n=30)
        params = random_params(seed + 31, network)
        params = dataclasses.replace(
            params, distill=dataclasses.replace(params.distill, alpha=0.0))
        report = run_variant(network, params)
        assert report.partition_sets() == disk_percolation_oracle(
            network, params.base_range_km())


class TestEventMonotonicity:
    @given(seed=st.integers(0, 40_000))
    @settings(max_examples=20, deadline=None)
    def test_ranges_grow_and_distances_shrink(self, seed):
        from qnetperc.engine import MergeEvent, ReduceEvent
        network = random_instance(seed + 55, max_n=30)
        params = random_params(seed + 55, network)
        report = run_variant(network, params)
        for ev in report.events:
            if isinstance(ev, MergeEvent):
                assert ev.new_range >= max(ev.range_a, ev.range_b) * (1 - 1e-12)
            else:
                assert isinstance(ev, ReduceEvent)

    @given(seed=st.integers(0, 40_000))
    @settings(max_examples=15, deadline=None)
    def test_tracked_pair_distance_never_increases(self, seed):
        # follow one node pair through the run via a probing state copy
        network = random_instance(seed + 91, max_n=20)
        params = random_params(seed + 91, network)
        state = init_state(network, params)
        rng = np.random.default_rng(seed)
        i, j = sorted(rng.choice(state.n_nodes, size=2, replace=False))
        last = math.inf
        guard = 4 * state.n_nodes + 16
        for _ in range(guard):
            if not state.comps:
                break
            held = state.holders().tolist()
            holders = {k: held[x] for k, x in (("i", i), ("j", j))
                       if held[x] in state.comps}
            if len(holders) == 2 and holders["i"] != holders["j"]:
                d = state.store.distance(holders["i"], holders["j"])
                assert d <= last * (1 + 1e-12)
                last = d
            pairs = state.connectable_pairs()
            if pairs:
                a, b, _ = pairs[0]
                state.merge(a, b)
                continue
            isolated = [a for a in state.active_ids() if state.is_isolated(a)]
            state.reduce_and_remove(isolated[0])


@st.composite
def logged_runs(draw):
    """A small cloud (dense store) or edge list (sparse store) and params near its scale."""
    n = draw(st.integers(1, 20))
    if draw(st.booleans()):
        coord = st.floats(0.0, 1.0, exclude_max=True)
        points = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        network = PointCloud(positions=np.array(points, dtype=float).reshape(n, 2))
    else:
        names = [f"v{i:02d}" for i in range(n)]
        cable = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)),
                          st.floats(0.01, 2.0))
        cables = draw(st.lists(cable, max_size=3 * n if n > 1 else 0))
        network = build_network([(names[i], names[(i + k) % n], d) for i, k, d in cables],
                                extra_nodes=names)
    params = params_for_r0(draw(st.floats(0.05, 1.5)), draw(st.sampled_from([0.0, 0.585, 1.0])),
                           m=draw(st.sampled_from([1, 4, 102])), cap=draw(st.booleans()),
                           mode=draw(st.sampled_from(["asymptotic", "exact"])))
    return network, params


# b relays between the clusters {a, x} and {y, z}; reduced, it writes a shortcut between them
RELAY_WITH_SHORTCUT = (build_network([("a", "x", 0.1), ("x", "b", 1.2), ("b", "y", 1.2),
                                      ("y", "z", 0.1)]),
                       params_for_r0(1.0, 1.0, cap=False))


def stdlib_event_log(report) -> str:
    return json.dumps(events_to_dicts(report), indent=2, allow_nan=False) + "\n"


def report_of(events) -> RunReport:
    return RunReport(n_nodes=5, node_labels=tuple(range(5)), holders=np.zeros(5, dtype=np.intp),
                     p_inf=1.0, events=tuple(events), merge_count=1, reduce_count=1)


@pytest.mark.oracle
class TestEventLogWriter:
    """save_event_log writes what the stdlib encoder writes, byte for byte."""

    # random instances seldom reduce a relay that writes shortcuts; relay chains always do
    @given(instance=st.one_of(logged_runs(),
                              st.builds(relay_chain_instance, st.integers(0, 40_000))))
    @example(instance=(PointCloud(positions=np.array([[0.5, 0.5]])), params_for_r0(1.0, 0.585)))
    @example(instance=RELAY_WITH_SHORTCUT)
    @settings(max_examples=60, deadline=None)
    def test_file_equals_the_stdlib_encoding(self, tmp_path_factory, instance):
        network, params = instance
        report = run(init_state(network, params))
        path = tmp_path_factory.mktemp("log") / "events.json"
        save_event_log(report, path)
        assert path.read_bytes() == stdlib_event_log(report).encode("utf-8")

    def test_relay_example_writes_a_shortcut(self):
        report = run(init_state(*RELAY_WITH_SHORTCUT))
        assert any(isinstance(ev, ReduceEvent) and ev.shortcuts for ev in report.events)

    def test_empty_log(self, tmp_path):
        path = tmp_path / "events.json"
        save_event_log(report_of(()), path)
        assert path.read_text(encoding="utf-8") == stdlib_event_log(report_of(())) == "[]\n"

    def test_a_refused_log_leaves_no_file(self, tmp_path):
        events = (MergeEvent(0, 1, 2, 2, 1.0, 0.5, 0.5, 0.25), ReduceEvent(2, 2, math.nan, ()))
        path = tmp_path / "events.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_event_log(report_of(events), path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise_like_the_stdlib(self, tmp_path, bad):
        merge = MergeEvent(a=0, b=1, new_id=2, size=2, new_range=1.5, range_a=1.0,
                           range_b=1.0, distance=0.5)
        reduce = ReduceEvent(comp=2, size=2, range_km=1.5, shortcuts=((3, 4, 0.75),))
        path = tmp_path / "events.json"
        save_event_log(report_of((merge, reduce)), path)
        assert path.read_text(encoding="utf-8") == stdlib_event_log(report_of((merge, reduce)))
        logs = [(merge._replace(**{name: bad}), reduce)
                for name in ("new_range", "range_a", "range_b", "distance")]
        logs += [(merge, reduce._replace(range_km=bad)),
                 (merge, reduce._replace(shortcuts=((3, 4, 0.75), (3, 5, bad))))]
        for events in logs:
            with pytest.raises(ValueError):
                stdlib_event_log(report_of(events))
            with pytest.raises(ValueError, match="not JSON compliant"):
                save_event_log(report_of(events), path)


@pytest.mark.oracle
class TestPartitionFromParents:
    """A report builds its partition from the merge-parent list alone, when the
    partition is first read; p_inf is the largest retired size without it."""

    @given(instance=st.one_of(logged_runs(),
                              st.builds(relay_chain_instance, st.integers(0, 40_000))),
           store=st.sampled_from(["dense", "sparse"]))
    @example(instance=RELAY_WITH_SHORTCUT, store="dense")
    @settings(max_examples=60, deadline=None)
    def test_partition_equals_the_replayed_unions(self, instance, store):
        network, params = instance
        state = init_state(network, params, store=store)
        report = run(state)
        # the set-union replay of the log: each reduced id holds its block
        members = replay_members(report)
        reduced = [ev.comp for ev in report.events if isinstance(ev, ReduceEvent)]
        labels = report.node_labels
        blocks = sorted(tuple(sorted(labels[i] for i in members[c])) for c in reduced)
        assert report.partition == tuple(blocks)
        held = state.holders().tolist()
        assert all(node in members[held[node]] for node in range(report.n_nodes))
        # a run without a log starts from the cut at r0 and ends the same
        cut = run(init_state(network, params, store=store, record_events=False))
        assert "partition" not in vars(cut)  # not built until it is read
        assert cut.partition == report.partition
        assert cut.p_inf == report.p_inf
        for rep in (report, cut):
            assert rep.p_inf == max(map(len, rep.partition)) / rep.n_nodes
            assert rep.partition is rep.partition  # built once


def random_edge_list_instance(seed: int):
    network = random_edge_list(seed, max_n=30)
    return network, random_params(seed, network)


@pytest.mark.oracle
class TestEdgeListCutStart:
    """init_state reduces an edge list's cut singletons as the public rules do."""

    @given(instance=st.one_of(
        st.builds(random_edge_list_instance, st.integers(0, 40_000)),
        st.builds(relay_chain_instance, st.integers(0, 40_000)),
        st.builds(cut_singleton_shape, st.sampled_from(CUT_SHAPES), st.integers(0, 40_000))))
    @example(instance=cut_singleton_shape("junction", 0))
    @example(instance=cut_singleton_shape("dead_end", 0))
    @example(instance=cut_singleton_shape("closed_chain", 0))
    @example(instance=cut_singleton_shape("long_cable", 0))
    @settings(max_examples=60, deadline=None)
    def test_start_equals_the_public_rule_reference(self, instance):
        network, params = instance
        for store in ("dense", "sparse"):
            state = init_state(network, params, store=store, record_events=False)
            assert_same_start(state, cut_start_reference(network, params, store))
            report = run(state)
            logged = run(init_state(network, params, store=store))
            assert report.partition == logged.partition
            assert report.p_inf == logged.p_inf
            assert report.merge_count == logged.merge_count
            assert report.reduce_count == logged.reduce_count

    def test_the_examples_have_their_shapes(self):
        for shape in CUT_SHAPES:
            network, params = cut_singleton_shape(shape, 0)
            state = init_state(network, params, record_events=False)
            held = dict(zip(network.node_ids, state.holders().tolist()))
            singles = {x for x, a in held.items() if a not in state.comps}
            nbrs = {x: set() for x in network.node_ids}
            for u, v, _ in network.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            if shape == "junction":
                assert "j" in singles and len(nbrs["j"]) >= 3
            elif shape == "long_cable":
                cuts = [f"rep__a0__b0__{j}" for j in range(sum(
                    x.startswith("rep__a0__b0__") for x in nbrs))]
                assert len(cuts) >= 11
                along = [held[x] for x in cuts if x in singles]  # singleton ids
                assert along != sorted(along)
            else:  # the s chain leaves cluster a
                hops = sorted(x for x in nbrs if x.startswith("s"))
                assert set(hops) <= singles
                (leaves,), returns = (nbrs[x] - set(hops) for x in (hops[0], hops[-1]))
                assert leaves.startswith("a") and held[leaves] in state.comps
                if shape == "dead_end":
                    assert not returns
                else:
                    assert {held[x] for x in returns} == {held[leaves]}
