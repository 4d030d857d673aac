"""Fixed-point percolation machine with contraction and reduction rules.

Components carry a size-dependent range r(s).  Two active components with
effective distance d connect when d < min(r_a, r_b) strictly; connecting
merges them into one component whose range is recomputed from the summed
size (contraction).  A component whose range reaches no other active
component is isolated; it is then removed after leaving a shortcut
d'_bc = min(d_bc, d_ab + d_ac) between every pair of its reachable
neighbors (reduction).  Isolation is permanent, so each component is
reduced exactly once, and the final partition does not depend on the
order in which the rules fire.

Distance bookkeeping behind the rules lives in one of two stores:

- dense: an N x N numpy matrix with +inf for unreachable pairs; the right
  choice for point clouds where every pair starts at a finite distance;
- sparse: dict-of-dicts adjacency; the right choice for fiber edge lists.

Reduction inserts explicit shortcuts (O(k^2) per removal).  On a point
cloud a one-point relay inserts none: the plane's triangle inequality gives
d_bc <= d_ab + d_ac at the point, so such a removal only drops its row.  On
an edge list a single node (a repeater) is the relay path and keeps its
shortcuts.

init_state() starts a run that records events from one singleton per node.
A run without an event log (every harness run) starts from the single-linkage
cut at the base range r0 = r(1) instead: each connected component of the
pairs with d < r0 is one component, because every order of the rules merges
such a pair, and its distance to another is the minimum over member pairs,
the float the merges would leave.  On a point cloud the cut's singletons
start retired, since each is isolated from the start and writes no shortcut,
so only the clusters enter the store.

run() fires the rules in lexicographic order: it always takes the smallest
connectable id pair and otherwise reduces the smallest isolated id.  It is
scheduled incrementally from a heap of ids that may have a connectable
partner above them and a worklist of components whose isolation may have
changed, fires exactly the order a full rescan before every rule would, and
skips shortcut sums that no future merge can use.  Other orders are
reachable through the public rules of PercolationState, and all reach the
same partition:

- connectable_pairs(): every pair (a, b, d) that meets the criterion now;
- connection_ok(a, b) and merge(a, b): the criterion and contraction;
- is_isolated(a) and reduce_and_remove(a): isolation and reduction.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quantum import ModelParams
from .topology import EdgeListNetwork, PointCloud, distance_rows, single_linkage_labels

INF = math.inf


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class Component(NamedTuple):
    members: frozenset[int]
    size: int
    range_km: float


class MergeEvent(NamedTuple):
    a: int
    b: int
    new_id: int
    size: int
    new_range: float
    range_a: float
    range_b: float
    distance: float


class ReduceEvent(NamedTuple):
    comp: int
    size: int
    range_km: float
    shortcuts: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class RunReport:
    """Outcome of a full percolation run."""

    n_nodes: int
    node_labels: tuple
    partition: tuple[tuple, ...]
    p_inf: float
    events: tuple
    merge_count: int
    reduce_count: int

    def partition_sets(self) -> set[frozenset]:
        return {frozenset(block) for block in self.partition}


# ---------------------------------------------------------------------------
# Distance stores
# ---------------------------------------------------------------------------

class _DenseStore:
    """Symmetric N x N distance matrix; component ids map to reusable row slots.

    A slot whose component is gone has an all-INF row and column, as does
    the diagonal, so a row read in full sees only live partners.
    """

    def __init__(self, matrix: np.ndarray, reach):
        n = matrix.shape[0]
        self.D = matrix
        self.slot = {i: i for i in range(n)}
        self.ids = np.arange(n)  # component id held by each slot
        self.reach = np.array(reach, dtype=float)  # range of each slot's component

    def distance(self, a: int, b: int) -> float:
        return float(self.D[self.slot[a], self.slot[b]])

    def min_distance(self, a: int) -> float:
        return float(self.D[self.slot[a]].min())

    def partners(self, a: int, radius: float = INF) -> list[int]:
        """Live x with d_ax < radius and d_ax < r_x, in no particular order."""
        row = self.D[self.slot[a]]
        return self.ids[(row < radius) & (row < self.reach)].tolist()

    def merge(self, a: int, b: int, c: int, range_c: float) -> None:
        sa, sb = self.slot.pop(a), self.slot.pop(b)
        row = np.minimum(self.D[sa], self.D[sb])
        row[sa] = INF
        row[sb] = INF
        self.D[sa, :] = row
        self.D[:, sa] = row
        self.D[sb, :] = INF
        self.D[:, sb] = INF
        self.slot[c] = sa
        self.ids[sa] = c
        self.reach[sa] = range_c

    def apply_reduction(self, a: int, cap: float):
        """Insert min(d_bc, d_ab + d_ac) shortcuts among a's neighbors, drop a.

        Sums at or above cap are skipped: they can never satisfy a strict
        connection criterion nor shorten a path below cap.  Returns the
        shortcuts written, as (b, c, d) with b < c, in id order.
        """
        sa = self.slot.pop(a)
        row = self.D[sa]
        legs = np.nonzero(row < cap)[0]
        shortcuts: list[tuple[int, int, float]] = []
        if len(legs) >= 2:
            leg_ids = self.ids[legs]
            order = np.argsort(leg_ids)  # shortcuts are listed by id pair
            legs, leg_ids = legs[order], leg_ids[order]
            d = row[legs]
            sums = d[:, None] + d[None, :]
            ix = np.ix_(legs, legs)
            sub = self.D[ix]
            improved = sums < np.minimum(sub, cap)
            np.fill_diagonal(improved, False)
            if improved.any():
                self.D[ix] = np.where(improved, sums, sub)
                iu, ju = np.nonzero(np.triu(improved, k=1))
                shortcuts = list(zip(leg_ids[iu].tolist(), leg_ids[ju].tolist(),
                                     sums[iu, ju].tolist()))
        self.D[sa, :] = INF
        self.D[:, sa] = INF
        return shortcuts


class _SparseStore:
    """Dict-of-dicts adjacency over the active components."""

    def __init__(self, adj: dict[int, dict[int, float]], reach):
        self.adj = adj
        # range of each component; a dead id is never read, so never dropped
        self.reach = dict(enumerate(reach))

    def distance(self, a: int, b: int) -> float:
        return self.adj[a].get(b, INF)

    def min_distance(self, a: int) -> float:
        return min(self.adj[a].values(), default=INF)

    def partners(self, a: int, radius: float = INF) -> list[int]:
        """Live x with d_ax < radius and d_ax < r_x, in no particular order."""
        reach = self.reach
        return [x for x, d in self.adj[a].items() if d < radius and d < reach[x]]

    def merge(self, a: int, b: int, c: int, range_c: float) -> None:
        da, db = self.adj.pop(a), self.adj.pop(b)
        if len(da) < len(db):
            da, db = db, da
        base = da
        for x, d in db.items():
            if d < base.get(x, INF):
                base[x] = d
        base.pop(a, None)
        base.pop(b, None)
        for x, d in base.items():
            row = self.adj[x]
            row.pop(a, None)
            row.pop(b, None)
            row[c] = d
        self.adj[c] = base
        self.reach[c] = range_c

    def apply_reduction(self, a: int, cap: float):
        row = self.adj.pop(a)
        for x in row:
            self.adj[x].pop(a, None)
        legs = sorted((b, d) for b, d in row.items() if d < cap)
        shortcuts: list[tuple[int, int, float]] = []
        for i, (b, d_ab) in enumerate(legs):
            for c, d_ac in legs[i + 1:]:
                s = d_ab + d_ac
                if s >= cap:
                    continue
                if s < self.adj[b].get(c, INF):
                    self.adj[b][c] = s
                    self.adj[c][b] = s
                    shortcuts.append((b, c, s))
        return shortcuts


# ---------------------------------------------------------------------------
# State and rules
# ---------------------------------------------------------------------------

class PercolationState:
    """Single-writer mutable state: active components by id, distances, event log."""

    def __init__(self, store, n_nodes: int, node_labels, params: ModelParams,
                 comps: dict[int, Component], record_events: bool = True,
                 point_cloud: bool = False):
        self.store = store
        self.point_cloud = point_cloud  # nodes are points of the plane
        self.params = params
        self.node_labels = tuple(node_labels)
        self.n_nodes = n_nodes
        self.record_events = record_events
        self.comps = comps  # the starting components, ids 0..K-1
        self._ranges = {c.size: c.range_km for c in comps.values()}  # by size
        self.removed: list[Component] = []
        self.events: list = []
        self._next_id = len(comps)

    # -- queries ------------------------------------------------------------

    def _range_of_size(self, size: int) -> float:
        r = self._ranges.get(size)
        if r is None:
            r = self._ranges[size] = self.params.component_range_km(size)
        return r

    def active_ids(self) -> list[int]:
        return sorted(self.comps)

    def _require_active(self, *ids) -> None:
        for a in ids:
            if a not in self.comps:
                raise ValueError(f"component {a} is not active")

    def distance(self, a: int, b: int) -> float:
        self._require_active(a, b)
        return self.store.distance(a, b)

    def connectable_pairs(self) -> list[tuple[int, int, float]]:
        """Every (a, b, d_ab) with a < b that meets the criterion, sorted by id pair."""
        comps, store = self.comps, self.store
        return sorted((a, b, store.distance(a, b)) for a in comps
                      for b in store.partners(a, comps[a].range_km) if b > a)

    # -- rules --------------------------------------------------------------

    def connection_ok(self, a: int, b: int) -> bool:
        """True iff d_ab is reachable and strictly below both ranges."""
        self._require_active(a, b)
        if a == b:
            raise ValueError("connection criterion needs two distinct components")
        d = self.store.distance(a, b)
        return d < min(self.comps[a].range_km, self.comps[b].range_km)

    def merge(self, a: int, b: int) -> int:
        """Contract a and b into a fresh component with the pooled-size range."""
        if not self.connection_ok(a, b):
            raise ValueError(f"components {a} and {b} do not satisfy the connection criterion")
        ca, cb = self.comps[a], self.comps[b]
        d_ab = self.store.distance(a, b)
        c = self._next_id
        self._next_id += 1
        size = ca.size + cb.size
        new_range = self._range_of_size(size)
        self.store.merge(a, b, c, new_range)
        del self.comps[a], self.comps[b]
        self.comps[c] = Component(members=ca.members | cb.members, size=size,
                                  range_km=new_range)
        if self.record_events:
            self.events.append(MergeEvent(a=a, b=b, new_id=c, size=size,
                                          new_range=new_range, range_a=ca.range_km,
                                          range_b=cb.range_km, distance=d_ab))
        return c

    def is_isolated(self, a: int) -> bool:
        """True iff no active partner lies strictly within a's range.

        Equality d == r never connects (strict criterion), so it counts as
        isolated.
        """
        self._require_active(a)
        return not self.store.min_distance(a) < self.comps[a].range_km

    def reduce_and_remove(self, a: int, future_cap: float | None = None,
                          ) -> list[tuple[int, int, float]]:
        """Apply the reduction rule to isolated component a and retire it.

        future_cap, when given, must be an upper bound on every range any
        active component can ever reach; shortcut sums at or above it are
        provably unusable and are skipped.  None keeps the full contract.

        On a point cloud a size-1 component inserts no shortcuts: a one-point
        relay can shorten no path in the plane (d_bc <= d_ab + d_ac), so its
        row is only dropped.  Sums that rounding puts an ulp below d_bc on
        near-collinear points are dropped with it.
        """
        if not self.is_isolated(a):
            raise ValueError(f"component {a} is not isolated; reduction would be premature")
        comp = self.comps[a]
        cap = INF if future_cap is None else future_cap
        if self.point_cloud and comp.size == 1:
            cap = 0.0  # no leg is below 0
        shortcuts = self.store.apply_reduction(a, cap)
        del self.comps[a]
        self.removed.append(comp)
        if self.record_events:
            self.events.append(ReduceEvent(comp=a, size=comp.size,
                                           range_km=comp.range_km,
                                           shortcuts=tuple(shortcuts)))
        return shortcuts

    # -- bookkeeping --------------------------------------------------------

    def report(self) -> RunReport:
        if self.comps:
            raise ValueError("run has not finished; active components remain")
        blocks = []
        for comp in self.removed:
            labels = tuple(sorted(self.node_labels[i] for i in comp.members))
            blocks.append(labels)
        blocks.sort(key=lambda block: block[0])
        p_inf = max(len(b) for b in blocks) / self.n_nodes
        return RunReport(n_nodes=self.n_nodes, node_labels=self.node_labels,
                         partition=tuple(blocks), p_inf=p_inf,
                         events=tuple(self.events),
                         merge_count=self.n_nodes - len(self.removed),
                         reduce_count=len(self.removed))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _blocks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of a labelling listed block by block, and where each block starts.

    Singletons come first in node order, then the other blocks in order of
    their smallest member; members ascend.  The starts end with len(labels).
    """
    n = len(labels)
    _, first, label = np.unique(labels, return_index=True, return_inverse=True)
    head = first[label]  # each node's smallest fellow member
    nodes = np.lexsort((head, np.bincount(label)[label] > 1))  # stable: members ascend
    head = head[nodes]
    starts = np.concatenate(([0], np.flatnonzero(head[1:] != head[:-1]) + 1, [n]))
    return nodes, starts


_ROW_BLOCK = 256  # distance rows computed and folded at once


def _fold_rows(rows_of, bounds: list[int], width: int) -> np.ndarray:
    """Row i is the minimum over the rows bounds[i]:bounds[i + 1] of a matrix.

    rows_of(a, b) gives the matrix's rows a:b; it is read _ROW_BLOCK rows at
    a time, and a block of rows cut by that boundary folds its parts
    together, so the result is the same floats as one reduce per block.
    """
    out = np.empty((len(bounds) - 1, width))
    c = 0  # the block holding the first row read
    for a in range(0, bounds[-1], _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, bounds[-1])
        rows = rows_of(a, b)
        while c < len(out) and bounds[c] < b:
            lo, hi = max(bounds[c], a), min(bounds[c + 1], b)
            if lo == bounds[c]:
                np.minimum.reduce(rows[lo - a:hi - a], axis=0, out=out[c])
            else:  # the rest of a block begun before row a
                np.minimum(out[c], rows[lo - a:hi - a].min(axis=0), out=out[c])
            if hi < bounds[c + 1]:
                break  # the block goes on after row b
            c += 1
    return out


def _cloud_distances(cloud: PointCloud, nodes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Distances between the blocks of a cloud, the minimum over member pairs; diagonal INF.

    Only the distances among the listed nodes are computed, in blocks of
    _ROW_BLOCK rows, so no M x M matrix of the M listed points is built.
    Members are contiguous per block, so the distance rows fold into a K x M
    array, and the rows of its transpose fold into K x K.  When every block
    is a single node the rows are the matrix and are written straight into
    it; a lone block has no distances at all.  (np.minimum.reduceat makes
    one inner-loop call per block and column, several times slower here.)
    """
    k, m = len(starts) - 1, len(nodes)
    if k <= 1:
        return np.full((k, k), INF)
    pos = cloud.positions[nodes]
    if k == m:
        mat = np.empty((m, m))
        for a in range(0, m, _ROW_BLOCK):
            distance_rows(pos, a, a + _ROW_BLOCK, out=mat[a:a + _ROW_BLOCK])
    else:
        bounds = starts.tolist()
        folded = _fold_rows(lambda a, b: distance_rows(pos, a, b), bounds, m).T.copy()
        mat = _fold_rows(lambda a, b: folded[a:b], bounds, k)
    np.fill_diagonal(mat, INF)
    return mat


def _edge_distances(network: EdgeListNetwork, block_of: np.ndarray):
    """Arrays (a, b, d): the shortest edge between each pair of blocks a < b."""
    lengths, ii, jj = network.linkage_edges
    a, b = block_of[ii], block_of[jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi
    lo, hi, lengths = lo[keep], hi[keep], lengths[keep]
    # lengths ascend, so each pair's first edge is its shortest
    _, first = np.unique(lo * len(block_of) + hi, return_index=True)
    return lo[first], hi[first], lengths[first]


def init_state(network, params: ModelParams, *, store: str = "auto",
               record_events: bool = True) -> PercolationState:
    """Starting components and their distances from the network's metric.

    A run that records events starts from one singleton component per node,
    so its log holds every merge.  Otherwise it starts from the single-linkage
    cut at the base range r0 = r(1) (topology.single_linkage_labels): one
    component per connected component of the pairs with d < r0, which every
    order of the rules merges (such a pair is connectable from the start and
    stays so, since ranges never fall and distances only shrink).  A
    cluster's distance to another is the minimum over member pairs, the float
    that merge() would leave, and the final partition is the same by order
    independence.  Singletons take the lowest ids in node order, then
    clusters in order of their smallest member.

    On a point cloud the cut's singletons start retired, in state.removed,
    and the live ids 0.. are the clusters alone.  Every distance from such a
    point is at least r0, its own range, so it is isolated from the start,
    and a one-point relay writes no shortcut (see reduce_and_remove), so
    reducing it first is one legal rule order.  On an edge list a singleton
    (a repeater) is the relay path and stays live.

    Point clouds default to the dense store, edge lists to the sparse store.
    """
    if store not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown store {store!r}")
    if not isinstance(network, (PointCloud, EdgeListNetwork)):
        raise ValueError(f"unsupported network type {type(network).__name__}")
    n = network.n_nodes
    if n < 1:
        raise ValueError("network must contain at least one node")
    cloud = isinstance(network, PointCloud)
    r0 = params.component_range_km(1)
    # singletons for a logged run, else the cut at r0, taken before any
    # distance matrix: a cloud's first cut builds its own
    nodes, starts = _blocks(np.arange(n) if record_events
                            else single_linkage_labels(network, r0))
    retired = []
    if cloud and not record_events:  # the singletons are a prefix
        k1 = int(np.count_nonzero(np.diff(starts) == 1))
        retired = [Component(members=frozenset((x,)), size=1, range_km=r0)
                   for x in nodes[:k1].tolist()]
        nodes, starts = nodes[k1:], starts[k1:] - k1
    members = nodes.tolist()
    bounds = starts.tolist()
    clusters = [members[a:b] for a, b in zip(bounds, bounds[1:])]
    ranges = {size: params.component_range_km(size) for size in set(map(len, clusters))}
    comps = {c: Component(members=frozenset(m), size=len(m), range_km=ranges[len(m)])
             for c, m in enumerate(clusters)}
    reach = [ranges[len(m)] for m in clusters]
    k = len(clusters)
    if cloud:
        labels = tuple(range(n))
        mat = _cloud_distances(network, nodes, starts)
        if store != "sparse":
            backend = _DenseStore(mat, reach)
        else:
            adj = {a: {b: float(mat[a, b]) for b in range(k) if b != a} for a in range(k)}
            backend = _SparseStore(adj, reach)
    else:
        labels = network.node_ids
        block_of = np.empty(n, dtype=np.intp)
        block_of[nodes] = np.repeat(np.arange(k), np.diff(starts))
        lo, hi, dist = _edge_distances(network, block_of)
        if store == "dense":
            mat = np.full((k, k), INF)
            mat[lo, hi] = mat[hi, lo] = dist
            backend = _DenseStore(mat, reach)
        else:
            adj = {c: {} for c in range(k)}
            for a, b, d in zip(lo.tolist(), hi.tolist(), dist.tolist()):
                adj[a][b] = adj[b][a] = d
            backend = _SparseStore(adj, reach)
    state = PercolationState(backend, n, labels, params, comps,
                             record_events=record_events, point_cloud=cloud)
    state.removed.extend(retired)
    return state


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------

def run(state: PercolationState) -> RunReport:
    """Drive the state to its fixed point and report the final partition.

    Merge the smallest connectable id pair (a, b) while one exists; else
    reduce-and-remove the smallest isolated id; repeat until no active
    component remains.  Any other order reaches the same partition.

    The smallest connectable pair is (a, b) with a the smallest id that has
    a connectable partner above it, and b the smallest such partner.  A heap
    holds every live id that may have one; an id popped without one is
    dropped until it can gain one again.  A partner above x appears only
    when a merge forms a new (largest) id within x's reach, or when a
    reduction writes a shortcut from x, so the new component's partners and
    the lower end of each connectable shortcut are queued.  Ranges of live
    components never change and distances only shrink, so nothing else can
    create a pair.  Isolation is permanent, and a live component can become
    isolated only when it is new or when a component within its range is
    reduced, so only those are re-checked.

    Isolated components never merge again, so the range of the pooled size
    of the others bounds every range still to come.  Reductions skip shortcut
    sums at or above that cap, unusable by any merge to come, so they are
    neither stored nor logged; on a point cloud a one-point relay writes none
    at all (see reduce_and_remove).
    """
    comps, store = state.comps, state.store
    firsts = sorted(comps)  # ids that may have a partner above them; sorted: a heap
    queued = set(firsts)
    isolated: set[int] = set()
    isolated_heap: list[int] = []
    pool = sum(c.size for c in comps.values())  # summed size of the components not isolated
    unchecked = set(comps)
    push, pop = heapq.heappush, heapq.heappop
    while comps:
        if firsts:
            a = pop(firsts)
            queued.discard(a)
            if a not in comps:
                continue
            above = [x for x in store.partners(a, comps[a].range_km) if x > a]
            if not above:
                continue
            c = state.merge(a, min(above))
            for x in store.partners(c, comps[c].range_km):
                if x not in queued:  # c is the largest live id: a partner above x
                    queued.add(x)
                    push(firsts, x)
            unchecked.add(c)
            continue
        for x in unchecked:
            if x in comps and state.is_isolated(x):
                isolated.add(x)
                push(isolated_heap, x)
                pool -= comps[x].size
        unchecked.clear()
        if not isolated:
            raise RuntimeError("no merges possible yet no component is isolated")
        a = pop(isolated_heap)
        isolated.discard(a)
        cap = state._range_of_size(pool) if pool else 0.0
        unchecked.update(x for x in store.partners(a) if x not in isolated)
        # only a written shortcut can make a pair connectable
        for b, c, d in state.reduce_and_remove(a, future_cap=cap):
            if d < comps[b].range_km and d < comps[c].range_km and b not in queued:
                queued.add(b)
                push(firsts, b)
    return state.report()


# ---------------------------------------------------------------------------
# Verification and export
# ---------------------------------------------------------------------------

def verify_report(report: RunReport) -> None:
    """Assert conservation and event-log legality of a finished run.

    Checks: the partition covers every node exactly once; ranges never
    decrease along merges; every merge distance strictly beat both ranges;
    no component is referenced after its reduction.
    """
    labels = list(report.node_labels)
    counted: dict = {}
    for block in report.partition:
        for lab in block:
            counted[lab] = counted.get(lab, 0) + 1
    assert sorted(counted) == sorted(labels), "partition does not cover the node set"
    assert all(c == 1 for c in counted.values()), "partition blocks overlap"
    expected_p = max(len(b) for b in report.partition) / report.n_nodes
    assert report.p_inf == expected_p
    if not report.events:
        return
    alive = {i: (1, None) for i in range(report.n_nodes)}  # id -> (size, range)
    retired: set[int] = set()
    for ev in report.events:
        if isinstance(ev, MergeEvent):
            for x in (ev.a, ev.b):
                assert x in alive, f"merge references dead component {x}"
                assert x not in retired
            assert ev.distance < min(ev.range_a, ev.range_b), \
                "merge fired without satisfying the criterion"
            slack = 1e-9 * max(ev.range_a, ev.range_b, 1.0)
            assert ev.new_range + slack >= max(ev.range_a, ev.range_b), \
                "range decreased across a merge"
            size = alive.pop(ev.a)[0] + alive.pop(ev.b)[0]
            assert size == ev.size
            alive[ev.new_id] = (size, ev.new_range)
        else:
            assert ev.comp in alive, f"reduce references dead component {ev.comp}"
            alive.pop(ev.comp)
            retired.add(ev.comp)
    assert not alive, "events ended with live components"


def events_to_dicts(report: RunReport) -> list[dict]:
    out = []
    for ev in report.events:
        if isinstance(ev, MergeEvent):
            out.append({"type": "merge", "a": ev.a, "b": ev.b, "new_id": ev.new_id,
                        "size": ev.size, "new_range": ev.new_range,
                        "range_a": ev.range_a, "range_b": ev.range_b,
                        "distance": ev.distance})
        else:
            out.append({"type": "reduce", "comp": ev.comp, "size": ev.size,
                        "range_km": ev.range_km,
                        "shortcuts": [list(s) for s in ev.shortcuts]})
    return out


def _record_template(kind: str, fields) -> str:
    """One record of the log's JSON list at indent 2, its values left as %s."""
    lines = [f'    "type": "{kind}"'] + [f'    "{name}": %s' for name in fields]
    return "  {\n" + ",\n".join(lines) + "\n  }"


_MERGE_TEMPLATE = _record_template("merge", MergeEvent._fields)
_REDUCE_TEMPLATE = _record_template("reduce", ReduceEvent._fields)
_SHORTCUT_TEMPLATE = "      [\n        %s,\n        %s,\n        %s\n      ]"


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def save_event_log(report: RunReport, path) -> None:
    """Write the event log: json.dump(events_to_dicts(report), indent=2) plus a newline.

    Each record is its kind's template, built from the record's fields,
    filled with ints by int.__repr__ and floats by float.__repr__, as json
    writes them; a NaN or infinity raises ValueError, as allow_nan=False
    does, and removes the partial file.  Records go to the file one at a
    time.  The tests check it byte for byte against the stdlib encoder.
    json.dump is not used because with indent it always runs the stdlib's
    pure-Python encoder (the C encoder ignores indent), about twice as slow.
    """
    i, f = int.__repr__, _json_float
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            sep = "[\n"
            for ev in report.events:
                fh.write(sep)
                sep = ",\n"
                if isinstance(ev, MergeEvent):
                    a, b, new_id, size, new_range, range_a, range_b, d = ev
                    fh.write(_MERGE_TEMPLATE % (i(a), i(b), i(new_id), i(size), f(new_range),
                                                f(range_a), f(range_b), f(d)))
                else:
                    comp, size, range_km, shortcuts = ev
                    listed = ",\n".join([_SHORTCUT_TEMPLATE % (i(x), i(y), f(d))
                                         for x, y, d in shortcuts])
                    fh.write(_REDUCE_TEMPLATE % (i(comp), i(size), f(range_km),
                                                 f"[\n{listed}\n    ]" if listed else "[]"))
            fh.write("[]\n" if sep == "[\n" else "\n]\n")
    except ValueError:  # a refused log leaves no partial file
        os.remove(path)
        raise


def partition_to_lists(report: RunReport) -> list[list]:
    return [list(block) for block in report.partition]


def save_partition(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(partition_to_lists(report), fh, indent=2, allow_nan=False)
        fh.write("\n")
