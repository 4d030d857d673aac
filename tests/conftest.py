"""Shared instance generators and oracles for the engine test suites."""

import itertools
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qnetperc import engine, topology
from qnetperc.engine import MergeEvent, init_state
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams
from qnetperc.topology import PointCloud, build_network, generate_uniform_points

D0 = 100.0


@pytest.fixture(autouse=True)
def cold_network_memo():
    """Every test starts with empty constructor memos, so no test's outcome
    depends on the networks an earlier test built."""
    topology.generate_uniform_points.cache_clear()
    topology.insert_repeaters.cache_clear()


def params_for_r0(r0: float, alpha: float, m: int = 1, cap: bool = True,
                  mode: str = "asymptotic", eta: float = 1.0,
                  growth: bool = True) -> ModelParams:
    """Parameters whose base range is exactly r0 (asymptotic mode, d0=100)."""
    eps = 0.75 * r0 / (D0 * m ** (eta * alpha))
    return ModelParams(channel=ChannelModel(d0_km=D0, epsilon=eps),
                       distill=DistillationParams(m=m, alpha=alpha, eta=eta),
                       range_mode=mode, beta_cap=cap, size_growth=growth)


def random_instance(seed: int, max_n: int = 50):
    """A random point cloud or random geometric edge list, seeded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    if rng.random() < 0.5:
        return generate_uniform_points(n, box_side=1.0, seed=seed)
    return _geometric_edge_list(rng, n)


def random_edge_list(seed: int, max_n: int = 50):
    """A random geometric edge list, seeded."""
    rng = np.random.default_rng(seed)
    return _geometric_edge_list(rng, int(rng.integers(2, max_n + 1)))


def _geometric_edge_list(rng, n: int):
    """n uniform points of the unit square, cabled when closer than a drawn radius."""
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    radius = rng.uniform(0.25, 0.6)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(pts[i] - pts[j])))
            if d < radius:
                edges.append((f"v{i:03d}", f"v{j:03d}", d))
    return build_network(edges, extra_nodes=[f"v{i:03d}" for i in range(n)])


def relay_cluster_instance(seed: int):
    """An edge list whose clusters B and C meet only through a two-node
    cluster R, and its base range 1.

    R's hooks lie past R's own range; at alpha = 1 the grown B and C often
    reach each other through R, which only a multi-member relay shortcut
    provides.
    """
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


def nearest_scale(network) -> float:
    """Median nearest-neighbor distance, the natural range scale of an instance."""
    if isinstance(network, PointCloud):
        if network.n_nodes < 2:
            return 1.0  # a lone point has no neighbor
        mat = network.distance_matrix()
        np.fill_diagonal(mat, np.inf)
        return float(np.median(mat.min(axis=1)))
    best: dict[str, float] = {}
    for u, v, length in network.edges:
        best[u] = min(best.get(u, np.inf), length)
        best[v] = min(best.get(v, np.inf), length)
    finite = [x for x in best.values() if np.isfinite(x)]
    return float(np.median(finite)) if finite else 1.0


def random_params(seed: int, network) -> ModelParams:
    rng = np.random.default_rng(seed + 977)
    alpha = float(rng.choice([0.0, 0.3, 0.585, 1.0]))
    r0 = float(rng.uniform(0.4, 1.6)) * nearest_scale(network)
    m = int(rng.choice([1, 4, 102]))
    cap = bool(rng.random() < 0.5)
    return params_for_r0(min(r0, 100.0), alpha, m=m, cap=cap)


def disk_percolation_oracle(network, r0: float) -> set[frozenset]:
    """Brute-force transitive closure of the strict criterion d < r0 on raw nodes."""
    if isinstance(network, PointCloud):
        mat = network.distance_matrix()
        labels = list(range(network.n_nodes))
        adj = mat < r0
        np.fill_diagonal(adj, False)  # coincident points (distance 0) do join
    else:
        labels = list(network.node_ids)
        index = {x: i for i, x in enumerate(labels)}
        n = len(labels)
        adj = np.zeros((n, n), dtype=bool)
        for u, v, length in network.edges:
            if length < r0:
                adj[index[u], index[v]] = adj[index[v], index[u]] = True
    _, comp = connected_components(csr_matrix(adj), directed=False)
    blocks: dict[int, set] = {}
    for i, c in enumerate(comp):
        blocks.setdefault(c, set()).add(labels[i])
    return {frozenset(b) for b in blocks.values()}


def members_of(state) -> dict[int, frozenset[int]]:
    """The nodes of every component id, live or retired, from state.holders().

    The cut's singletons keep their ids (the lowest, in node order), though
    init_state has already retired them, so they are here but not in
    state.comps.
    """
    members: dict[int, set[int]] = {}
    for node, cid in enumerate(state.holders().tolist()):
        members.setdefault(cid, set()).add(node)
    return {cid: frozenset(nodes) for cid, nodes in members.items()}


def replay_members(report) -> dict[int, frozenset[int]]:
    """The nodes of every component id of a logged run, replayed from its merges."""
    members = {i: frozenset((i,)) for i in range(report.n_nodes)}
    for ev in report.events:
        if isinstance(ev, MergeEvent):
            members[ev.new_id] = members[ev.a] | members[ev.b]
    return members


def linkage_joinable_pairs(state, network) -> list[tuple[int, int]]:
    """Every pair a < b of live ids that a linkage edge joins below both ranges, sorted.

    On an edge list these are its connectable pairs while no reduction has
    written a shortcut; on a point cloud the edges are its minimum spanning
    tree, so a connectable pair whose closest member pair is no tree edge
    is not among them.
    """
    comps, held = state.comps, state.holders()
    lengths, ii, jj = network.linkage_edges
    return sorted({(min(a, b), max(a, b))
                   for d, a, b in zip(lengths.tolist(), held[ii].tolist(), held[jj].tolist())
                   if a != b and a in comps and b in comps
                   and d < comps[a].range_km and d < comps[b].range_km})


def merged_start(network, params, store):
    """Singletons, then state.merge on a pair that a linkage edge joins below
    both ranges, until none is left: the contraction closure of the cut at r0."""
    state = init_state(network, params, store=store)
    while pairs := linkage_joinable_pairs(state, network):
        state.merge(*pairs[0])
    return state


def cut_start_reference(network, params, store):
    """The start of a run without an event log, from the public rules alone.

    merged_start, then every singleton left reduced in node order (its id
    is its node index) under future_cap of the clusters' pooled size.
    """
    state = merged_start(network, params, store)
    singles = [a for a in state.active_ids() if state.comps[a].size == 1]
    cap = state.future_cap(network.n_nodes - len(singles))
    for a in singles:
        state.reduce_and_remove(a, future_cap=cap)
    return state


def assert_same_start(state, reference):
    """state holds the reference's live components and distances, bit for bit,
    and has retired the same components."""
    members, ref_members = members_of(state), members_of(reference)
    ids = {ref_members[a]: a for a in reference.comps}
    assert {members[a] for a in state.comps} == set(ids)
    assert state.removed == reference.removed
    for a, comp in state.comps.items():
        assert comp == reference.comps[ids[members[a]]]
    for a, b in itertools.permutations(state.comps, 2):
        assert state.store.distance(a, b) == reference.store.distance(
            ids[members[a]], ids[members[b]])


def reference_schedule(state, prune: bool = True, choose=lambda xs: xs[0]):
    """Any rule order by brute force: rescan everything before each rule.

    choose picks the next rule from a sorted list: a connectable (a, b, d)
    pair while one exists, else an isolated id, reduced with the pruning cap
    taken from the pool of non-isolated components.  The default takes the
    first of each, which is the lexicographic order; random.Random(k).choice
    gives a seeded random order.
    """
    while state.comps:
        pairs = state.connectable_pairs()
        if pairs:
            a, b, _ = choose(pairs)
            state.merge(a, b)
            continue
        isolated = [a for a in state.active_ids() if state.is_isolated(a)]
        assert isolated, "no merges possible yet no component is isolated"
        cap = None
        if prune:
            cap = state.future_cap(sum(c.size for a, c in state.comps.items()
                                       if a not in isolated))
        state.reduce_and_remove(choose(isolated), future_cap=cap)
    return state.report()


def report_outcome(report):
    """What every run order must agree on: partition, p_inf and the counts."""
    return report.partition, report.p_inf, report.merge_count, report.reduce_count


def certificate_refused():
    """Patches run()'s no-merge certificate to refuse, so every run reduces
    its components one at a time as it would without the certificate.
    (mock, not monkeypatch: a function-scoped fixture would span every
    hypothesis example.)"""
    return mock.patch.object(engine, "_no_merge_left", lambda store: False)


@contextmanager
def certificate_outcomes():
    """Records the outcome of each no-merge certificate that run() tries."""
    outcomes: list[bool] = []
    certify = engine._no_merge_left

    def recorded(store):
        outcomes.append(certify(store))
        return outcomes[-1]

    with mock.patch.object(engine, "_no_merge_left", recorded):
        yield outcomes


def is_refinement(fine: set[frozenset], coarse: set[frozenset]) -> bool:
    """Every fine block is contained in some coarse block."""
    return all(any(f <= c for c in coarse) for f in fine)


