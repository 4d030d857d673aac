"""Topology generation, ingestion, and repeater-insertion tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import Delaunay

from qnetperc.topology import (REPEATER, STATION, EdgeListNetwork, PointCloud,
                               RepeaterConfig, build_network, generate_fiber_network,
                               generate_uniform_points, insert_repeaters,
                               load_edge_list, load_network, load_point_cloud,
                               network_to_json, save_edge_list,
                               save_point_cloud, single_linkage_labels)


class TestPointClouds:
    def test_single_point(self):
        cloud = generate_uniform_points(1, seed=0)
        assert cloud.n_nodes == 1

    def test_determinism(self):
        a = generate_uniform_points(100, seed=42)
        b = generate_uniform_points(100, seed=42)
        assert np.array_equal(a.positions, b.positions)
        c = generate_uniform_points(100, seed=43)
        assert not np.array_equal(a.positions, c.positions)

    def test_uniform_mean(self):
        # mean of 1e4 uniforms lies within 3 standard errors of 1/2
        cloud = generate_uniform_points(10_000, seed=7)
        se = (1 / math.sqrt(12)) / 100
        assert abs(cloud.positions[:, 0].mean() - 0.5) <= 3 * se
        assert abs(cloud.positions[:, 1].mean() - 0.5) <= 3 * se

    def test_rejects_non_finite_coordinates(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                PointCloud(positions=np.array([[0.1, 0.2], [bad, 0.5]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_uniform_points(0)

    @pytest.mark.parametrize("box", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_box_side(self, tmp_path, box):
        from qnetperc.topology import PointCloud
        with pytest.raises(ValueError, match="box_side"):
            generate_uniform_points(5, box_side=box)
        with pytest.raises(ValueError, match="box_side"):
            PointCloud(np.array([[0.1, 0.2]]), box_side=box)
        path = tmp_path / "cloud.csv"
        path.write_text("id,x,y\n0,0.1,0.2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="box_side"):
            load_point_cloud(path, box_side=box)

    @pytest.mark.parametrize("row, message", [
        ("1,nan,0.3", ":3: coordinate x = nan is not finite"),
        ("1,0.3,inf", ":3: coordinate y = inf is not finite"),
    ])
    def test_load_rejects_a_non_finite_coordinate_by_line(self, tmp_path, row, message):
        path = tmp_path / "cloud.csv"
        path.write_text(f"id,x,y\n0,0.1,0.2\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_point_cloud(path)

    def test_distance_basics(self):
        mat = generate_uniform_points(10, seed=1).distance_matrix()
        assert np.all(np.diag(mat) == 0.0)
        assert np.array_equal(mat, mat.T)

    def test_pythagorean(self):
        cloud = PointCloud(positions=np.array([[0.0, 0.0], [3.0, 4.0]]), box_side=5.0)
        assert cloud.distance_matrix()[0, 1] == 5.0

    def test_csv_round_trip(self, tmp_path):
        cloud = generate_uniform_points(50, seed=3)
        path = tmp_path / "cloud.csv"
        save_point_cloud(cloud, path)
        back = load_point_cloud(path, box_side=cloud.box_side)
        assert np.array_equal(back.positions, cloud.positions)

    @pytest.mark.parametrize("ids, line, message", [
        ((10, 3, 7, 7), 2, "outside 0..3"),
        ((0, 2, 1, 2), 5, "duplicate id 2"),
        ((1, 2, 3, 0, -1), 6, "outside 0..4"),
    ])
    def test_ids_must_be_zero_to_n_minus_one(self, tmp_path, ids, line, message):
        path = tmp_path / "cloud.csv"
        path.write_text("id,x,y\n" + "".join(f"{i},0.{k + 1},0.5\n"
                                             for k, i in enumerate(ids)),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f":{line}: .*{message}"):
            load_point_cloud(path)

    def test_ids_in_any_order_load_by_id(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("id,x,y\n2,0.3,0.1\n0,0.1,0.1\n1,0.2,0.1\n",
                        encoding="utf-8")
        assert load_point_cloud(path).positions[:, 0].tolist() == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("n", [1, 2, 50, 800])
    def test_distance_matrix_bytes_match_the_stacked_form(self, n):
        # the stacked (N, N, 2) form is the reference: the engine, the
        # Kruskal curve and the oracles must all compare the same floats
        base = generate_uniform_points(n, seed=n).positions
        cloud = PointCloud(positions=np.vstack([base, base[: n // 2], base[:1]]))
        diff = cloud.positions[:, None, :] - cloud.positions[None, :, :]
        stacked = np.sqrt((diff * diff).sum(axis=2))
        assert cloud.distance_matrix().tobytes() == stacked.tobytes()


def all_pairs_blocks(mat: np.ndarray, r0: float) -> set[frozenset]:
    """Blocks of the graph of pairs closer than r0, by breadth-first search."""
    blocks, seen = set(), set()
    for start in range(len(mat)):
        if start in seen:
            continue
        block, frontier = {start}, [start]
        while frontier:
            near = {int(j) for i in frontier for j in np.flatnonzero(mat[i] < r0)}
            frontier = list(near - block)
            block |= near
        seen |= block
        blocks.add(frozenset(block))
    return blocks


def label_blocks(labels) -> set[frozenset]:
    return {frozenset(np.flatnonzero(labels == x).tolist()) for x in set(labels.tolist())}


class TestSingleLinkage:
    """The cut from the linkage edges equals the cut of all pairs."""

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_cloud_cut_equals_all_pairs(self, n):
        base = generate_uniform_points(n, seed=n).positions
        # coincident points are zero-length pairs like any other
        cloud = PointCloud(positions=np.vstack([base, base[: n // 3]]))
        mat = cloud.distance_matrix()
        lengths = cloud.linkage_edges[0]
        assert len(lengths) == cloud.n_nodes - 1
        # at, just above and between the tree's own lengths, and beyond them
        cuts = [0.0, 1e-300, 0.05, 0.1, 0.2, 2.0, *lengths.tolist(),
                *np.nextafter(lengths, np.inf).tolist()]
        for r0 in cuts:
            labels = single_linkage_labels(cloud, r0)
            assert label_blocks(labels) == all_pairs_blocks(mat, r0)

    def test_edge_list_cut_is_strict(self):
        net = build_network([("a", "b", 1.0), ("b", "c", 2.0), ("d", "e", 2.0)],
                            extra_nodes=["f"])
        assert label_blocks(single_linkage_labels(net, 2.0)) == {
            frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset({4}),
            frozenset({5})}
        assert label_blocks(single_linkage_labels(net, np.nextafter(2.0, 3.0))) == {
            frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5})}


def scipy_blocks(n: int, ii, jj) -> set[frozenset]:
    """Connected components of the pairs (ii, jj), by scipy: an independent oracle."""
    graph = coo_matrix((np.ones(len(ii), dtype=bool), (ii, jj)), shape=(n, n))
    return label_blocks(connected_components(graph, directed=False)[1])


@st.composite
def cloud_and_cuts(draw):
    """A cloud on a coarse grid, so coincident points and tied distances occur."""
    n = draw(st.integers(1, 40))
    grid = draw(st.sampled_from([4, 16, 1000]))
    cells = draw(st.lists(st.tuples(st.integers(0, grid - 1), st.integers(0, grid - 1)),
                          min_size=n, max_size=n))
    cloud = PointCloud(positions=np.array(cells, dtype=float) / grid)
    return cloud, draw(st.lists(st.sampled_from(sorted(set(
        cloud.distance_matrix().ravel().tolist()))), min_size=1, max_size=6))


@st.composite
def edge_list_and_cuts(draw):
    """An edge list with isolated nodes and tied lengths."""
    n = draw(st.integers(1, 30))
    names = [f"v{i:02d}" for i in range(n)]
    pairs = [(u, v) for u in names for v in names if u < v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=min(len(pairs), 60))) if pairs else []
    lengths = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 7.25])
    net = build_network([(u, v, draw(lengths)) for u, v in chosen], extra_nodes=names)
    return net, draw(st.lists(st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5,
                                               7.25, 8.0]), min_size=1, max_size=6))


@pytest.mark.oracle
class TestMergeForestOracle:
    """The forest's cut against scipy's connected components of all pairs below r0."""

    @settings(max_examples=80, deadline=None)
    @given(cloud_and_cuts())
    def test_cloud_cut(self, case):
        cloud, cuts = case
        mat = cloud.distance_matrix()
        for r0 in cuts + [float(np.nextafter(r0, np.inf)) for r0 in cuts]:
            ii, jj = np.nonzero(mat < r0)
            labels = single_linkage_labels(cloud, r0)
            assert label_blocks(labels) == scipy_blocks(cloud.n_nodes, ii, jj)

    @settings(max_examples=80, deadline=None)
    @given(edge_list_and_cuts())
    def test_edge_list_cut(self, case):
        net, cuts = case
        index = net.index_of()
        for r0 in cuts + [float(np.nextafter(r0, np.inf)) for r0 in cuts]:
            below = np.array([(index[u], index[v]) for u, v, length in net.edges
                              if length < r0], dtype=np.intp).reshape(-1, 2)
            labels = single_linkage_labels(net, r0)
            assert label_blocks(labels) == scipy_blocks(net.n_nodes, *below.T)


class TestEdgeLists:
    def test_min_collapse(self):
        net = build_network([("a", "b", 50.0), ("b", "a", 40.0), ("a", "b", 50.0)])
        assert net.edges == (("a", "b", 40.0),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            build_network([("a", "a", 1.0)])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            build_network([("a", "b", 0.0)])

    def test_rejects_infinite_length(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_network([("a", "b", 1.0), ("b", "c", float("inf"))])

    def test_empty_edge_set_keeps_nodes(self):
        net = build_network([], extra_nodes=["x", "y", "z"])
        assert net.n_nodes == 3 and net.n_edges == 0
        assert len(net.merge_forest.lengths) != net.n_nodes - 1

    def test_load_save_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.write_text("u,v,length_km\nparis,lyon,430.5\nlyon,nice,470.0\n"
                      "paris,lyon,500.0\n", encoding="utf-8")
        net = load_edge_list(p1)
        assert net.edges == (("lyon", "nice", 470.0), ("lyon", "paris", 430.5))
        save_edge_list(net, p2)
        assert load_edge_list(p2) == net

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u,v,length_km\na,b,12.0\na,c,notanumber\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3"):
            load_edge_list(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("from,to,km\na,b,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_edge_list(p)

    def test_negative_length_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u,v,length_km\na,b,-5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-positive"):
            load_edge_list(p)

    def test_duplicate_pair_keeps_an_invalid_length(self):
        for lengths in ((5.0, math.nan), (math.nan, 5.0), (math.inf, 5.0)):
            with pytest.raises(ValueError, match="non-finite"):
                build_network([("a", "b", lengths[0]), ("b", "a", lengths[1])])

    def test_json_export_schema(self):
        net = build_network([("a", "b", 10.0)],
                            positions={"a": (0.0, 0.0), "b": (1.0, 1.0)})
        doc = network_to_json(net)
        assert doc["nodes"][0] == {"id": "a", "kind": "station", "x": 0.0, "y": 0.0}
        assert doc["edges"] == [{"u": "a", "v": "b", "length_km": 10.0}]


class TestRepeaters:
    def test_zero_cuts_possible(self):
        # short edge, huge mean segment: overwhelmingly no cuts
        net = build_network([("a", "b", 1.0)])
        out = insert_repeaters(net, RepeaterConfig(mean_segment_km=1e6, seed=0))
        assert out.edges == net.edges

    @pytest.mark.parametrize("mean", [0.0, math.nan, math.inf])
    def test_rejects_bad_mean_segment(self, mean):
        with pytest.raises(ValueError, match="mean_segment_km"):
            RepeaterConfig(mean_segment_km=mean)

    def test_length_conservation(self):
        net = generate_fiber_network(60, 80, mean_length_km=400.0, seed=5)
        out = insert_repeaters(net, RepeaterConfig(mean_segment_km=50.0, seed=9))
        assert out.total_length_km() == pytest.approx(net.total_length_km(), rel=1e-12)
        # every repeater adds exactly one node and one edge
        assert out.n_edges - out.n_nodes == net.n_edges - net.n_nodes

    def test_determinism(self):
        net = generate_fiber_network(40, 50, seed=2)
        cfg = RepeaterConfig(mean_segment_km=50.0, seed=17)
        assert insert_repeaters(net, cfg) == insert_repeaters(net, cfg)

    def test_connectivity_preserved(self):
        net = generate_fiber_network(80, 95, seed=3)
        assert len(net.merge_forest.lengths) == net.n_nodes - 1
        out = insert_repeaters(net, RepeaterConfig(mean_segment_km=40.0, seed=1))
        assert len(out.merge_forest.lengths) == out.n_nodes - 1

    def test_poisson_cut_statistics(self):
        # one 500 km cable, mean segment 50 km: cut count is Poisson(10);
        # over 1e4 seeded trials the sample mean sits within 3 sigma of 10
        net = build_network([("a", "b", 500.0)])
        trials = 10_000
        counts = np.empty(trials)
        for k in range(trials):
            out = insert_repeaters(net, RepeaterConfig(mean_segment_km=50.0, seed=k))
            counts[k] = out.n_nodes - 2
        tol = 3 * math.sqrt(10.0 / trials)
        assert abs(counts.mean() - 10.0) <= tol

    @pytest.mark.parametrize("edges, taken", [
        # both cables' first cut is named rep__a__b__c__0
        ([("a", "b__c", 500.0), ("a__b", "c", 500.0)], "rep__a__b__c__0"),
        # a station already holds the first cut's name of cable (a, b)
        ([("a", "b", 500.0), ("rep__a__b__0", "x", 5.0)], "rep__a__b__0"),
    ])
    def test_rejects_repeater_id_already_taken(self, edges, taken):
        with pytest.raises(ValueError, match=f"repeater id '{taken}'"):
            insert_repeaters(build_network(edges), RepeaterConfig(100.0, 0))

    def test_repeater_kind_and_station_preserved(self):
        net = build_network([("a", "b", 500.0)])
        out = insert_repeaters(net, RepeaterConfig(mean_segment_km=50.0, seed=4))
        kinds = dict(zip(out.node_ids, out.kinds))
        assert kinds["a"] == "station" and kinds["b"] == "station"
        assert all(kinds[n] == "repeater" for n in out.node_ids if n not in ("a", "b"))


def reference_insert_repeaters(net: EdgeListNetwork, cfg: RepeaterConfig) -> EdgeListNetwork:
    """A cable at a time, with a branch for an uncut cable and a repeater at a time."""
    have_pos = net.positions is not None
    rate = 1.0 / cfg.mean_segment_km
    new_edges = []
    kinds = {nid: net.kinds[i] for i, nid in enumerate(net.node_ids)}
    positions = ({nid: net.positions[i] for i, nid in enumerate(net.node_ids)}
                 if have_pos else None)
    for edge_index, (u, v, length) in enumerate(net.edges):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, edge_index)))
        k = int(rng.poisson(length * rate))
        if k == 0:
            new_edges.append((u, v, length))
            continue
        cuts = np.sort(rng.uniform(0.0, length, size=k))
        names = [f"rep__{u}__{v}__{j}" for j in range(k)]
        chain = [u] + names + [v]
        offsets = np.concatenate(([0.0], cuts, [length]))
        for j, name in enumerate(names):
            if name in kinds:
                raise ValueError(f"repeater id {name!r} on cable ({u!r}, {v!r}) "
                                 "is already a node id")
            kinds[name] = REPEATER
            if have_pos:
                t = cuts[j] / length
                pu, pv = positions[u], positions[v]
                positions[name] = (pu[0] + t * (pv[0] - pu[0]),
                                   pu[1] + t * (pv[1] - pu[1]))
        for a, b, lo, hi in zip(chain[:-1], chain[1:], offsets[:-1], offsets[1:]):
            new_edges.append((a, b, float(hi - lo)))
    return build_network(new_edges, kinds=kinds, extra_nodes=net.node_ids,
                         positions=positions)


# ids holding "__", and a station named like the first cut of cable (a, b), so
# that repeater ids collide now and then
_IDS = ["a", "b", "c", "d", "a__b", "b__c", "rep__a__b__0"]


@st.composite
def cable_networks(draw):
    """A small edge list, some nodes isolated, some repeaters, with or without positions."""
    pairs = [(u, v) for u in _IDS for v in _IDS if u < v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    lengths = st.floats(0.5, 400.0, allow_nan=False)
    extra = draw(st.lists(st.sampled_from(_IDS + ["z"]), max_size=3))
    nodes = sorted({n for pair in chosen for n in pair} | set(extra)) or ["z"]
    kinds = {n: draw(st.sampled_from([STATION, REPEATER])) for n in nodes}
    positions = None
    if draw(st.booleans()):
        coords = st.floats(-1e3, 1e3, allow_nan=False)
        positions = {n: (draw(coords), draw(coords)) for n in nodes}
    return build_network([(u, v, draw(lengths)) for u, v in chosen], kinds=kinds,
                         extra_nodes=nodes, positions=positions)


def _outcome(insert, net, cfg):
    try:
        out = insert(net, cfg)
    except ValueError as exc:
        return str(exc)
    return out.node_ids, out.kinds, out.edges, out.positions


@pytest.mark.oracle
class TestRepeaterOracle:
    """insert_repeaters against the reference above, field by field."""

    @settings(max_examples=150, deadline=None)
    @given(net=cable_networks(), seed=st.integers(0, 2**32 - 1),
           mean=st.sampled_from([5.0, 50.0, 100.0, 1e6]) | st.floats(5.0, 1e6))
    # an uncut cable
    @example(net=build_network([("a", "b", 1.0)], positions={"a": (0.0, 0.0),
                                                            "b": (3.0, 4.0)}),
             seed=0, mean=1e6)
    # an isolated node, cut and uncut cables
    @example(net=build_network([("a", "b", 120.0), ("b", "c", 3.5)], extra_nodes=["z"]),
             seed=11, mean=50.0)
    # both cables' first cut is named rep__a__b__c__0
    @example(net=build_network([("a", "b__c", 500.0), ("a__b", "c", 500.0)]),
             seed=0, mean=100.0)
    def test_matches_the_reference(self, net, seed, mean):
        cfg = RepeaterConfig(mean_segment_km=mean, seed=seed)
        assert (_outcome(insert_repeaters, net, cfg)
                == _outcome(reference_insert_repeaters, net, cfg))


def reference_fiber_network(n_nodes: int, n_edges: int, mean_length_km: float,
                            seed: int) -> EdgeListNetwork:
    """A simplex and a pair at a time, each length from its own np.hypot."""
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_nodes, 2))
    pairs = set()
    for simplex in Delaunay(pts).simplices:
        for a in range(3):
            i, j = int(simplex[a]), int(simplex[(a + 1) % 3])
            pairs.add((min(i, j), max(i, j)))
    pairs = sorted(pairs)
    lengths = np.array([np.hypot(*(pts[i] - pts[j])) for i, j in pairs])
    graph = coo_matrix((lengths, ([i for i, _ in pairs], [j for _, j in pairs])),
                       shape=(n_nodes, n_nodes))
    mst = minimum_spanning_tree(graph).tocoo()
    chosen = {(min(int(r), int(c)), max(int(r), int(c))) for r, c in zip(mst.row, mst.col)}
    for k in np.argsort(lengths, kind="stable"):
        if len(chosen) >= n_edges:
            break
        chosen.add(pairs[k])
    scale = mean_length_km / float(np.mean([np.hypot(*(pts[i] - pts[j]))
                                            for i, j in sorted(chosen)]))
    width = max(len(str(n_nodes - 1)), 3)
    names = [f"n{i:0{width}d}" for i in range(n_nodes)]
    edges = [(names[i], names[j], float(np.hypot(*(pts[i] - pts[j])) * scale))
             for i, j in sorted(chosen)]
    positions = {names[i]: (float(pts[i, 0] * scale), float(pts[i, 1] * scale))
                 for i in range(n_nodes)}
    return build_network(edges, positions=positions)


class TestFiberOracle:
    @pytest.mark.parametrize("n_nodes, n_edges, seed", [(346, 367, 1), (60, 63, 1),
                                                         (100, 120, 8)])
    def test_matches_the_reference(self, n_nodes, n_edges, seed):
        net = generate_fiber_network(n_nodes, n_edges, mean_length_km=500.0, seed=seed)
        ref = reference_fiber_network(n_nodes, n_edges, 500.0, seed)
        assert (net.node_ids, net.kinds, net.edges, net.positions) == (
            ref.node_ids, ref.kinds, ref.edges, ref.positions)


class TestSyntheticFiber:
    def test_exact_counts_and_mean_length(self):
        net = generate_fiber_network(692, 733, mean_length_km=500.0, seed=1)
        assert net.n_nodes == 692
        assert net.n_edges == 733
        assert net.total_length_km() / net.n_edges == pytest.approx(500.0, rel=1e-9)
        assert len(net.merge_forest.lengths) == net.n_nodes - 1

    def test_round_trip_of_synthetic(self, tmp_path):
        net = generate_fiber_network(692, 733, seed=1)
        path = tmp_path / "fiber.csv"
        save_edge_list(net, path)
        back = load_edge_list(path)
        assert back.node_ids == net.node_ids
        assert back.edges == net.edges

    def test_determinism(self):
        assert (generate_fiber_network(100, 120, seed=8).edges
                == generate_fiber_network(100, 120, seed=8).edges)

    def test_rejects_unbuildable(self):
        with pytest.raises(ValueError):
            generate_fiber_network(10, 5, seed=0)


class TestLoadNetwork:
    @pytest.mark.parametrize("header", ["id,x,y", "id, x, y", '"id","x","y"', " id ,x,y"])
    def test_point_cloud_headers_the_loader_reads(self, tmp_path, header):
        path = tmp_path / "pts.csv"
        path.write_text(f"{header}\n1,0.3,0.2\n0,0.1,0.2\n", encoding="utf-8")
        net = load_network(path)
        assert isinstance(net, PointCloud)
        assert net.positions.tolist() == load_point_cloud(path).positions.tolist()

    @pytest.mark.parametrize("header", ["u,v,length_km", "u, v, length_km"])
    def test_an_edge_list_takes_the_edge_list_path(self, tmp_path, header):
        path = tmp_path / "net.csv"
        path.write_text(f"{header}\nb,a,5.0\n", encoding="utf-8")
        assert load_network(path) == load_edge_list(path)

    @pytest.mark.parametrize("body", ["", "id,x\n0,1\n", "x,y,id\n"])
    def test_any_other_file_is_refused_by_the_edge_list_reader(self, tmp_path, body):
        path = tmp_path / "net.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError, match="expected header 'u,v,length_km'"):
            load_network(path)


class TestEdgeListNetworkChecks:
    """A directly built network rejects what build_network would never make."""

    @staticmethod
    def network(node_ids=("a", "b", "c"), edges=(("a", "b", 1.0),)):
        return EdgeListNetwork(node_ids=node_ids, kinds=(STATION,) * len(node_ids),
                               edges=edges)

    def test_accepts_a_canonical_network(self):
        assert self.network() == build_network([("a", "b", 1.0)], extra_nodes=["c"])

    @pytest.mark.parametrize("node_ids", [("a", "b", "a"), ("b", "a", "c"), ("a", "a", "b")])
    def test_rejects_node_ids_not_strictly_ascending(self, node_ids):
        with pytest.raises(ValueError, match="strictly ascending"):
            self.network(node_ids=node_ids)

    def test_rejects_a_non_canonical_edge(self):
        with pytest.raises(ValueError, match="canonical"):
            self.network(edges=(("b", "a", 1.0),))

    def test_rejects_a_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            self.network(edges=(("a", "a", 1.0),))

    def test_rejects_an_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node"):
            self.network(edges=(("a", "z", 1.0),))

    @pytest.mark.parametrize("length", [-10.0, 0.0, math.nan, math.inf])
    def test_rejects_a_bad_length(self, length):
        with pytest.raises(ValueError, match="non-positive or non-finite"):
            self.network(edges=(("a", "b", length),))

    def test_rejects_a_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            self.network(edges=(("a", "b", 5.0), ("a", "b", 1.0)))

    def test_rejects_edges_out_of_order(self):
        # insert_repeaters seeds each cable by its index, so this order would
        # give the cables other repeaters than build_network's order does
        edges = (("b", "c", 100.0), ("a", "b", 200.0))
        with pytest.raises(ValueError, match="sorted by node pair"):
            self.network(edges=edges)
        canonical = build_network(edges)
        assert canonical.edges == edges[::-1]
        assert insert_repeaters(canonical, RepeaterConfig(50.0, 1)).n_nodes == 10

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown node kind 'bogus'"):
            EdgeListNetwork(node_ids=("a", "b"), kinds=("bogus", STATION), edges=())
        with pytest.raises(ValueError, match="unknown node kind"):
            build_network([("a", "b", 1.0)], kinds={"a": "bogus"})

    def test_rejects_an_empty_id(self):
        with pytest.raises(ValueError, match="must not be empty"):
            self.network(node_ids=("", "b"), edges=(("", "b", 1.0),))
        with pytest.raises(ValueError, match="must not be empty"):
            build_network([("a", "b", 1.0)], extra_nodes=[""])
