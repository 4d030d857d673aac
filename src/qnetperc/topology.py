"""Spatial network construction and ingestion.

Two network flavors feed the percolation engine:

- PointCloud: nodes embedded in a 2D box, every pair at its Euclidean
  distance (the random-geometric setting);
- EdgeListNetwork: nodes connected by explicit fiber links, every pair
  without a cable at unreachable distance.

Both give their single-linkage cut at a range r0, the blocks of the pairs
closer than r0, from one cached merge forest per network: one Kruskal pass
over its linkage edges (an edge list's own edges, a point cloud's minimum
spanning tree, found by Prim one distance row at a time) records every join
with its length and the running maximum of the block sizes.  A cut
at r0 keeps the joins shorter than r0 (MergeForest.joins_below); the engine
starts harness runs from it, and the harness reads the largest block of a
fixed-range probe from the same count.  Neither needs an N x N matrix.

scipy is imported only inside generate_fiber_network, so the other callers
of this module never load it.

load_network reads a CSV file as the format its header names.  Also provides
the repeater-insertion transform (cut each cable at the points of a Poisson
process, mean segment 50 km by default) and a synthetic planar fiber-network
generator used as a stand-in for proprietary operator topologies.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

STATION = "station"
REPEATER = "repeater"

# the header row of each CSV format; fields are compared with whitespace stripped
_POINT_CLOUD_HEADER = ("id", "x", "y")
_EDGE_LIST_HEADER = ("u", "v", "length_km")


def _has_header(row, header: tuple[str, ...]) -> bool:
    return row is not None and tuple(field.strip() for field in row) == header


def _read_header(reader, path, header: tuple[str, ...]) -> None:
    row = next(reader, None)
    if not _has_header(row, header):
        raise ValueError(f"{path}: expected header '{','.join(header)}', got {row}")


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

def _check_box_side(box_side: float) -> None:
    if not (math.isfinite(box_side) and box_side > 0):
        raise ValueError(f"box_side must be finite and positive, got {box_side}")


@dataclass(frozen=True)
class PointCloud:
    """Uniform 2D point set; positions is an (N, 2) float array."""

    positions: np.ndarray
    box_side: float = 1.0

    def __post_init__(self):
        _check_box_side(self.box_side)
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must be a non-empty (N, 2) array, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("all coordinates must be finite")
        if np.any(pos < 0) or np.any(pos >= self.box_side):
            raise ValueError("all coordinates must lie in [0, box_side)")
        object.__setattr__(self, "positions", pos)

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """Dense pairwise Euclidean distances, diagonal zero; see distance_rows.

        The engine never builds this matrix.  It stays because the test
        oracles compute from it and the benchmark's tracer wraps it, to count
        any full matrix that a change brings back onto the run path.
        """
        return distance_rows(self.positions, 0, self.n_nodes)

    @functools.cached_property
    def linkage_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The minimum spanning tree as arrays (lengths, i, j); see single_linkage_labels.

        Cached: the harness cuts one cloud at many r0.
        """
        return _sorted_edges(*_mst_edges(self.positions))

    @functools.cached_property
    def merge_forest(self) -> MergeForest:
        """The single-linkage merge forest of linkage_edges; cached with them."""
        return _merge_forest(self.n_nodes, self.linkage_edges)


def distance_rows(positions: np.ndarray, a: int, b: int, out=None) -> np.ndarray:
    """Rows a:b of the Euclidean distance matrix of the points positions.

    Entry (i, j) is sqrt(dx*dx + dy*dy) with dx = x[i] - x[j], summed in
    that order: the one distance formula, so every caller compares the same
    floats.  The rows are written into out when given; one more array of
    their shape is alive while they are built.
    """
    x, y = positions[:, 0], positions[:, 1]
    out = np.subtract(x[a:b, None], x, out=out)
    out *= out
    dy = y[a:b, None] - y
    dy *= dy
    out += dy
    return np.sqrt(out, out=out)


def generate_uniform_points(n: int, box_side: float = 1.0, seed: int = 0) -> PointCloud:
    """N i.i.d. uniform points in [0, box_side)^2, bit-reproducible per seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_box_side(box_side)  # before the draw, which cannot span a bad box
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, box_side, size=(n, 2))
    return PointCloud(positions=pos, box_side=box_side)


def save_point_cloud(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_POINT_CLOUD_HEADER) + "\n")
        for i, (x, y) in enumerate(cloud.positions):
            fh.write(f"{i},{float(x)!r},{float(y)!r}\n")


def load_point_cloud(path, box_side: float | None = None) -> PointCloud:
    """Parse the point-cloud CSV format: header 'id,x,y', ids exactly 0..N-1."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _read_header(reader, path, _POINT_CLOUD_HEADER)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                rows.append((int(row[0]), float(row[1]), float(row[2]), lineno))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            for axis, value in zip("xy", rows[-1][1:3]):
                if not math.isfinite(value):  # before it can reach box_side
                    raise ValueError(f"{path}:{lineno}: coordinate {axis} = {value} "
                                     f"is not finite")
    seen: set[int] = set()
    for i, _, _, lineno in rows:
        if not 0 <= i < len(rows):
            raise ValueError(f"{path}:{lineno}: id {i} outside 0..{len(rows) - 1}")
        if i in seen:
            raise ValueError(f"{path}:{lineno}: duplicate id {i}")
        seen.add(i)
    rows.sort()
    pos = np.array([(x, y) for _, x, y, _ in rows], dtype=float)
    if box_side is None:
        box_side = float(np.nextafter(pos.max(), np.inf)) if len(pos) else 1.0
    return PointCloud(positions=pos, box_side=box_side)


# ---------------------------------------------------------------------------
# Single-linkage cuts
# ---------------------------------------------------------------------------

def _mst_edges(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prim's minimum spanning tree of a point set, as (lengths, i, j).

    Each point's distance row is computed when it joins the tree, so every
    length is an entry of the distance matrix without the matrix: only O(N)
    arrays are allocated.  Zero distances (coincident points) are edges like
    any other.
    """
    n = len(positions)
    lengths = np.empty(n - 1)
    ii = np.empty(n - 1, dtype=np.intp)
    jj = np.empty(n - 1, dtype=np.intp)
    best = distance_rows(positions, 0, 1)[0]
    best[0] = np.inf
    nearest = np.zeros(n, dtype=np.intp)
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    for k in range(n - 1):
        j = int(np.argmin(best))
        lengths[k], ii[k], jj[k] = best[j], nearest[j], j
        outside[j] = False
        best[j] = np.inf
        row = distance_rows(positions, j, j + 1)[0]
        closer = outside & (row < best)
        np.copyto(best, row, where=closer)
        nearest[closer] = j
    return lengths, ii, jj


def _sorted_edges(lengths, ii, jj):
    order = np.lexsort((jj, ii, lengths))  # by length, then by index pair
    return lengths[order], ii[order], jj[order]


class MergeForest(NamedTuple):
    """The single-linkage merge forest (dendrogram) of a network's linkage edges.

    Nodes 0..N-1 are the network's nodes.  Merge node N+t is made by the t-th
    edge that joins two blocks, in ascending order of length: it joins them
    at lengths[t].  parent[x] is the merge node that absorbed x, or x itself
    when no edge joins its block further.  largest[t] is the largest block
    after the first t joins: the running maximum of the joined blocks' sizes,
    after a leading 1.
    """

    parent: np.ndarray
    lengths: np.ndarray
    largest: np.ndarray

    def joins_below(self, r0: float) -> int:
        """How many joins are strictly shorter than r0: the cut d < r0 keeps them."""
        return int(np.searchsorted(self.lengths, r0))


def _merge_forest(n: int, edges) -> MergeForest:
    """One Kruskal pass over edges (lengths, i, j) sorted by length.

    A union-find over the forest's nodes, with path halving, finds the
    current top node of each endpoint's block; the new merge node becomes
    the top of both.
    """
    parent = list(range(n))
    link = list(range(n))  # the union-find
    size = [1] * n
    joins = []
    for length, i, j in zip(*(a.tolist() for a in edges)):
        while link[i] != i:
            link[i] = i = link[link[i]]
        while link[j] != j:
            link[j] = j = link[link[j]]
        if i == j:
            continue
        node = len(parent)
        parent[i] = parent[j] = link[i] = link[j] = node
        parent.append(node)
        link.append(node)
        size.append(size[i] + size[j])
        joins.append(length)
    return MergeForest(np.array(parent, dtype=np.intp), np.array(joins, dtype=float),
                       np.maximum.accumulate(np.array([1, *size[n:]], dtype=np.intp)))


def single_linkage_labels(network, r0: float) -> np.ndarray:
    """Block label of each node in the single-linkage cut at r0.

    The blocks are the connected components of the pairs strictly closer
    than r0.  At every cut a network's linkage_edges join the same blocks as
    all of its pairs: they are an edge list's own edges, or a point cloud's
    minimum spanning tree.  The merge forest holds their joins in order of
    length, so the cut keeps the merge nodes of the joins shorter than r0
    and labels each node with the highest of them above it.
    """
    forest = network.merge_forest
    top = network.n_nodes + forest.joins_below(r0)
    p = forest.parent[:top]
    p = np.where(p < top, p, np.arange(top))  # a join at or above r0 is cut
    while True:  # pointer jumping: each pass halves the distance to the root
        q = p[p]
        if np.array_equal(q, p):
            return p[:network.n_nodes]
        p = q


# ---------------------------------------------------------------------------
# Edge-list networks
# ---------------------------------------------------------------------------

def _is_length(length: float) -> bool:
    return 0 < length < math.inf


@dataclass(frozen=True)
class EdgeListNetwork:
    """Sparse fiber network: canonical sorted nodes and (u, v, length_km) edges.

    Node ids are non-empty and kinds are STATION or REPEATER.  Edges are
    stored with u < v lexicographically, in strictly ascending (u, v) order,
    so at most one per pair (build_network collapses duplicates to the
    minimum length); insert_repeaters seeds each cable by its index.  Pairs
    without an edge are unreachable.  positions, when present, align with node_ids and exist
    purely for export and plotting.
    """

    node_ids: tuple[str, ...]
    kinds: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    positions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        ids = self.node_ids
        if len(ids) < 1:
            raise ValueError("network must contain at least one node")
        if not all(a < b for a, b in zip(ids, ids[1:])):
            raise ValueError("node_ids must be strictly ascending")
        if ids[0] == "":  # the smallest id, since they ascend
            raise ValueError("node ids must not be empty")
        if len(self.kinds) != len(ids):
            raise ValueError("kinds must align with node_ids")
        for kind in self.kinds:
            if kind not in (STATION, REPEATER):
                raise ValueError(f"unknown node kind {kind!r}")
        if self.positions is not None and len(self.positions) != len(ids):
            raise ValueError("positions must align with node_ids")
        known = set(ids)
        prev = None
        for u, v, length in self.edges:
            if prev is not None and not prev < (u, v):
                if prev == (u, v):
                    raise ValueError(f"duplicate edge ({u}, {v}): at most one per pair")
                raise ValueError(f"edge ({u}, {v}) follows {prev}: edges must be "
                                 f"sorted by node pair")
            prev = (u, v)
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            if not u < v:
                raise ValueError(f"edge ({u}, {v}) is not canonical: need u < v")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) joins an unknown node")
            if not _is_length(length):
                raise ValueError(f"edge ({u}, {v}) has non-positive or non-finite "
                                 f"length {length}")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def total_length_km(self) -> float:
        return float(sum(l for _, _, l in self.edges))

    def index_of(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}

    @functools.cached_property
    def linkage_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as arrays (lengths, i, j) of node indices; see single_linkage_labels."""
        index = self.index_of()
        return _sorted_edges(np.array([length for *_, length in self.edges], dtype=float),
                             np.array([index[u] for u, _, _ in self.edges], dtype=np.intp),
                             np.array([index[v] for _, v, _ in self.edges], dtype=np.intp))

    @functools.cached_property
    def merge_forest(self) -> MergeForest:
        """The single-linkage merge forest of linkage_edges; cached with them."""
        return _merge_forest(self.n_nodes, self.linkage_edges)


def build_network(edges, kinds: dict[str, str] | None = None,
                  extra_nodes=(), positions: dict[str, tuple[float, float]] | None = None,
                  ) -> EdgeListNetwork:
    """Canonicalize raw (u, v, length) triples into an EdgeListNetwork.

    Duplicate pairs keep the minimum length.  EdgeListNetwork rejects
    empty ids, unknown kinds, self-loops and non-positive or non-finite
    lengths.
    """
    best: dict[tuple[str, str], float] = {}
    nodes = set(map(str, extra_nodes))
    for u, v, length in edges:
        u, v = str(u), str(v)
        length = float(length)
        key = (u, v) if u < v else (v, u)
        if key not in best:
            best[key] = length
        else:  # the shorter length, but an invalid one wins so the network rejects it
            best[key] = min(best[key], length, key=lambda x: (_is_length(x), x))
        nodes.add(u)
        nodes.add(v)
    node_ids = tuple(sorted(nodes))
    kinds = kinds or {}
    kind_tuple = tuple(kinds.get(nid, STATION) for nid in node_ids)
    edge_tuple = tuple(sorted((u, v, best[(u, v)]) for (u, v) in best))
    pos_tuple = None
    if positions is not None:
        pos_tuple = tuple((float(positions[nid][0]), float(positions[nid][1]))
                          for nid in node_ids)
    return EdgeListNetwork(node_ids=node_ids, kinds=kind_tuple, edges=edge_tuple,
                           positions=pos_tuple)


def load_edge_list(path) -> EdgeListNetwork:
    """Parse the edge-list CSV format: header 'u,v,length_km', opaque string ids."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _read_header(reader, path, _EDGE_LIST_HEADER)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            u, v, raw = row
            try:
                length = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad length {raw!r}") from None
            edges.append((u.strip(), v.strip(), length))
    try:
        return build_network(edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_network(path) -> PointCloud | EdgeListNetwork:
    """A point cloud if the file has the point-cloud header, else an edge list.

    The header is read as the loaders read it, so each loader gets every file it accepts.
    """
    with open(path, encoding="utf-8") as fh:
        is_cloud = _has_header(next(csv.reader(fh), None), _POINT_CLOUD_HEADER)
    return load_point_cloud(path) if is_cloud else load_edge_list(path)


def save_edge_list(net: EdgeListNetwork, path) -> None:
    """Write the edge-list CSV; ids holding commas or quotes are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_EDGE_LIST_HEADER)
        for u, v, length in net.edges:
            writer.writerow((u, v, repr(length)))


def network_to_json(net: EdgeListNetwork) -> dict:
    """Export schema: {nodes: [{id, kind, x?, y?}], edges: [{u, v, length_km}]}."""
    nodes = []
    for i, nid in enumerate(net.node_ids):
        entry: dict = {"id": nid, "kind": net.kinds[i]}
        if net.positions is not None:
            entry["x"], entry["y"] = net.positions[i]
        nodes.append(entry)
    edges = [{"u": u, "v": v, "length_km": l} for u, v, l in net.edges]
    return {"nodes": nodes, "edges": edges}


def save_network_json(net: EdgeListNetwork, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(network_to_json(net), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Repeater insertion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepeaterConfig:
    """Poisson cutting of cables into ~mean_segment_km pieces."""

    mean_segment_km: float = 50.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.mean_segment_km) and self.mean_segment_km > 0):
            raise ValueError(f"mean_segment_km must be finite and positive, "
                             f"got {self.mean_segment_km}")


def insert_repeaters(net: EdgeListNetwork, cfg: RepeaterConfig) -> EdgeListNetwork:
    """Cut every cable at the points of a homogeneous Poisson process.

    Along a cable of length L the cut count is Poisson(L/mean) with positions
    i.i.d. uniform, so segment lengths are exponential with the configured
    mean.  Each cable becomes a chain of segments between its sorted cuts,
    joined by new repeater nodes, so an uncut cable is a chain of one segment.
    Deterministic per (seed, edge): each edge draws from a child seed derived
    from its index in the canonical edge order.

    The j-th cut of cable (u, v) is named rep__{u}__{v}__{j}.  A name that is
    already a node id (a station, or a cut of another cable when ids hold
    "__") raises ValueError: the two nodes would silently become one.
    """
    rate = 1.0 / cfg.mean_segment_km
    new_edges: list[tuple[str, str, float]] = []
    kinds = dict(zip(net.node_ids, net.kinds))
    positions = None if net.positions is None else dict(zip(net.node_ids, net.positions))
    for edge_index, (u, v, length) in enumerate(net.edges):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, edge_index)))
        cuts = np.sort(rng.uniform(0.0, length, size=int(rng.poisson(length * rate))))
        names = [f"rep__{u}__{v}__{j}" for j in range(len(cuts))]
        for name in names:
            if name in kinds:
                raise ValueError(f"repeater id {name!r} on cable ({u!r}, {v!r}) "
                                 "is already a node id")
            kinds[name] = REPEATER
        if positions is not None:
            (xu, yu), (xv, yv) = positions[u], positions[v]
            t = cuts / length  # each cut's fraction of the way from u to v
            positions.update(zip(names, zip((xu + t * (xv - xu)).tolist(),
                                            (yu + t * (yv - yu)).tolist())))
        chain, offsets = [u, *names, v], [0.0, *cuts.tolist(), length]
        new_edges += zip(chain, chain[1:], [hi - lo for lo, hi in zip(offsets, offsets[1:])])
    return build_network(new_edges, kinds=kinds, extra_nodes=net.node_ids,
                         positions=positions)


# ---------------------------------------------------------------------------
# Synthetic fiber network
# ---------------------------------------------------------------------------

def generate_fiber_network(n_nodes: int = 692, n_edges: int = 733,
                           mean_length_km: float = 500.0, seed: int = 0,
                           ) -> EdgeListNetwork:
    """Synthetic planar stand-in for a national fiber topology.

    Scatters n_nodes points, takes the Euclidean minimum spanning tree plus
    the shortest extra Delaunay edges up to n_edges total, then rescales
    coordinates so the mean cable length is exactly mean_length_km; each edge
    length is computed once and serves all three steps.  The result is
    connected, planar, and clearly labeled synthetic; it matches the
    reference operator network's node/edge counts and length scale but not its
    (non-public) geometry.
    """
    if n_nodes < 3:
        raise ValueError(f"n_nodes must be >= 3, got {n_nodes}")
    if n_edges < n_nodes - 1:
        raise ValueError(f"n_edges must be >= n_nodes - 1 to stay connected, got {n_edges}")
    # scipy is loaded here only, so that no other caller pays for its import
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n_nodes, 2))
    sides = Delaunay(pts).simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = np.unique(np.sort(sides, axis=1), axis=0)  # (i, j), i < j, ascending
    if len(pairs) < n_edges:
        raise ValueError(f"Delaunay graph has only {len(pairs)} edges, need {n_edges}")
    i, j = pairs.T
    shape = (n_nodes, n_nodes)
    lengths = np.hypot(*(pts[i] - pts[j]).T)
    # MST guarantees connectivity; it is a subgraph of the Delaunay graph.
    mst = minimum_spanning_tree(coo_matrix((lengths, (i, j)), shape=shape)).tocoo()
    keep = np.isin(np.ravel_multi_index((i, j), shape), np.ravel_multi_index(
        (np.minimum(mst.row, mst.col), np.maximum(mst.row, mst.col)), shape))
    order = np.argsort(lengths, kind="stable")
    keep[order[~keep[order]][:n_edges - np.count_nonzero(keep)]] = True
    scale = mean_length_km / float(np.mean(lengths[keep]))
    width = max(len(str(n_nodes - 1)), 3)
    names = [f"n{k:0{width}d}" for k in range(n_nodes)]
    edges = [(names[a], names[b], length) for a, b, length
             in zip(i[keep].tolist(), j[keep].tolist(), (lengths[keep] * scale).tolist())]
    positions = dict(zip(names, map(tuple, (pts * scale).tolist())))
    return build_network(edges, positions=positions)
