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
such a pair (it is connectable from the start and stays so, since ranges
never fall and distances only shrink), and its distance to another is the
minimum over member pairs, the float the merges would leave.  The final
partition is then the same by order independence.  On both kinds of
network the cut's singletons take the ids 0..k1-1 in node order, the
clusters the ids after them, and the singletons start retired: each is
isolated from the start and stays so, since its legs are at least r0, its
own range, and any shortcut it gains is at least 2 r0.  So none is a live
component, and no isolation check is made for one.  Only an edge list's
enter the store: on a point cloud one writes no shortcut (see
reduce_and_remove), but on an edge list one (a repeater) is a relay path,
so init_state() has the store reduce them in ascending id order, with
future_cap() of the clusters' pooled size as the cap, and run() schedules
only the clusters.  run() from the cut would reduce them in that order
before any other component, and the floats stay the same:

- the only rules it fires between them are cluster merges, which commute
  with them float for float: a merge takes the min of two rows, and rounded
  + is monotone, so fl(min(p, q) + r) = min(fl(p + r), fl(q + r));
- the up-front cap bounds every cap run() would use, so a sum kept beyond
  run()'s cap is at or above every range still to come, and no later rule
  reads it.

run() fires the rules in lexicographic order: it always takes the smallest
connectable id pair and otherwise reduces the smallest isolated id.  It is
scheduled incrementally from a heap of ids that may have a connectable
partner above them and a worklist of components whose isolation may have
changed, fires exactly the order a full rescan before every rule would, and
skips shortcut sums that no future merge can use.  Other orders are
reachable through the public rules of PercolationState, and all reach the
same partition:

- connectable_pairs(): every pair (a, b, d) that meets the criterion now;
- merge(a, b): contraction, refused for a pair that fails the criterion;
- is_isolated(a) and reduce_and_remove(a): isolation and reduction.

A component is its size and range alone; no component keeps its members.
The state keeps each node's starting id and one merge-parent list, which
maps every id to the id it merged into (itself until then) and grows by one
entry per merge.  holders() follows that list to the component holding
each node.  A harness run reads only the giant fraction p_inf, the largest
retired size over N, so report() keeps the holder ids and builds the
partition from them only when it is first read.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .quantum import ModelParams
from .topology import (EdgeListNetwork, PointCloud, _roots, distance_rows,
                       single_linkage_labels, squared_distance_rows)

INF = math.inf


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class Component(NamedTuple):
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
    """Outcome of a full percolation run.

    holders is the id of the component that holds each node at the end
    (PercolationState.holders()); the partition is built from it when first
    read.  It is a read-only array, left out of == and hash: two reports
    compare by their other fields.
    """

    n_nodes: int
    node_labels: tuple
    holders: np.ndarray = field(compare=False, repr=False)
    p_inf: float
    events: tuple
    merge_count: int
    reduce_count: int

    @cached_property
    def partition(self) -> tuple[tuple, ...]:
        """The final blocks, in order of their first label, members ascending.

        Each node's block is the component that holds it.  Node labels
        ascend with their index (a cloud's are 0..N-1, an edge list's ids are
        strictly ascending), so one stable sort of the nodes by the smallest
        index in their block lists the blocks in order.
        """
        n = len(self.holders)
        _, first, block = np.unique(self.holders, return_index=True, return_inverse=True)
        head = first[block]  # the smallest index in each node's block
        order = np.argsort(head, kind="stable")
        head = head[order]
        cuts = (np.flatnonzero(head[1:] != head[:-1]) + 1).tolist()
        labels = self.node_labels
        listed = [labels[i] for i in order.tolist()]
        return tuple(tuple(listed[a:b]) for a, b in zip([0] + cuts, cuts + [n]))

    def partition_sets(self) -> set[frozenset]:
        return {frozenset(block) for block in self.partition}


# ---------------------------------------------------------------------------
# Distance stores
# ---------------------------------------------------------------------------

class _DenseStore:
    """Symmetric N x N distance matrix; component ids map to reusable row slots.

    reach maps each held id to its range; the ids hold the slots in its
    order.  A slot whose component is gone has an all-INF row and column, as
    does the diagonal, so a row read in full sees only live partners.
    """

    def __init__(self, matrix: np.ndarray, reach: dict[int, float]):
        self.D = matrix
        self.slot = {c: s for s, c in enumerate(reach)}
        self.ids = np.array(list(reach), dtype=np.intp)  # component id held by each slot
        self.reach = np.array(list(reach.values()), dtype=float)  # range of each slot's component

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
        shortcuts written, as (b, c, d) with b < c, in no particular order.
        """
        sa = self.slot.pop(a)
        row = self.D[sa]
        legs = np.flatnonzero(row < cap)
        shortcuts: list[tuple[int, int, float]] = []
        if len(legs) >= 2:
            d = row[legs]
            sums = d[:, None] + d[None, :]
            i, j = np.nonzero(sums < np.minimum(self.D[legs[:, None], legs], cap))
            bi, ci = self.ids[legs[i]], self.ids[legs[j]]
            keep = bi < ci  # each pair once, and never the diagonal
            si, sj, s = legs[i[keep]], legs[j[keep]], sums[i[keep], j[keep]]
            self.D[si, sj] = s
            self.D[sj, si] = s
            shortcuts = list(zip(bi[keep].tolist(), ci[keep].tolist(), s.tolist()))
        self.D[sa, :] = INF
        self.D[:, sa] = INF
        return shortcuts


class _SparseStore:
    """Dict-of-dicts adjacency over the active components."""

    def __init__(self, adj: dict[int, dict[int, float]], reach: dict[int, float]):
        self.adj = adj
        # range of each component; a dead id is never read, so never dropped
        self.reach = dict(reach)

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
        """As _DenseStore.apply_reduction; the shortcuts come in id order."""
        adj = self.adj
        row = adj.pop(a)
        for x in row:
            del adj[x][a]
        if len(row) < 2:
            return []
        legs = sorted((b, d) for b, d in row.items() if d < cap)
        shortcuts: list[tuple[int, int, float]] = []
        for i, (b, d_ab) in enumerate(legs):
            for c, d_ac in legs[i + 1:]:
                s = d_ab + d_ac
                if s >= cap:
                    continue
                if s < adj[b].get(c, INF):
                    adj[b][c] = s
                    adj[c][b] = s
                    shortcuts.append((b, c, s))
        return shortcuts


# ---------------------------------------------------------------------------
# State and rules
# ---------------------------------------------------------------------------

class PercolationState:
    """Single-writer mutable state: active components by id, distances, event log,
    and the starting ids and merge-parent list that holders() follows."""

    def __init__(self, store, n_nodes: int, node_labels, params: ModelParams,
                 comps: dict[int, Component], start: np.ndarray,
                 record_events: bool = True, point_cloud: bool = False):
        self.store = store
        self.point_cloud = point_cloud  # nodes are points of the plane
        self.params = params
        self.node_labels = tuple(node_labels)
        self.n_nodes = n_nodes
        self.record_events = record_events
        self.comps = comps  # the live starting components
        self._start = start  # each node's starting id, ids 0..k-1
        self._parent = list(range(int(start.max()) + 1))
        self._ranges = {c.size: c.range_km for c in comps.values()}  # by size
        self.removed: list[Component] = []
        self.events: list = []

    # -- queries ------------------------------------------------------------

    def _range_of_size(self, size: int) -> float:
        r = self._ranges.get(size)
        if r is None:
            r = self._ranges[size] = self.params.component_range_km(size)
        return r

    def future_cap(self, pool: int) -> float:
        """The pruning cap for reductions while pool nodes can still merge.

        pool is the summed size of the components not yet isolated.  An
        isolated component never merges again, so no component to come holds
        more than pool nodes, and r is non-decreasing in size: r(pool) bounds
        every range still to come.  With an empty pool nothing can merge, so
        the cap is 0 and every sum is skipped.
        """
        return self._range_of_size(pool) if pool else 0.0

    def active_ids(self) -> list[int]:
        return sorted(self.comps)

    def holders(self) -> np.ndarray:
        """The id of the component, live or retired, that holds each node now.

        It is the root in the merge-parent list (topology._roots) of the
        node's starting id.
        """
        return _roots(np.array(self._parent, dtype=np.intp))[self._start]

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

    def merge(self, a: int, b: int) -> int:
        """Contract a and b into a fresh component with the pooled-size range.

        Raises ValueError unless a and b are two distinct active components
        whose distance d_ab is strictly below both ranges (the criterion).
        """
        ca, cb = self.comps.get(a), self.comps.get(b)
        if ca is None or cb is None:
            self._require_active(a, b)
        if a == b:
            raise ValueError("connection criterion needs two distinct components")
        d_ab = self.store.distance(a, b)
        if not (d_ab < ca.range_km and d_ab < cb.range_km):
            raise ValueError(f"components {a} and {b} do not satisfy the connection criterion")
        parent = self._parent
        c = len(parent)
        parent[a] = parent[b] = c
        parent.append(c)
        size = ca.size + cb.size
        new_range = self._range_of_size(size)
        self.store.merge(a, b, c, new_range)
        del self.comps[a], self.comps[b]
        self.comps[c] = Component(size=size, range_km=new_range)
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
        active component can ever reach (see future_cap()); shortcut sums at
        or above it are provably unusable and are skipped.  None keeps the
        full contract.

        On a point cloud a size-1 component inserts no shortcuts: a one-point
        relay can shorten no path in the plane (d_bc <= d_ab + d_ac), so its
        row is only dropped.  Sums that rounding puts an ulp below d_bc on
        near-collinear points are dropped with it.

        Returns the shortcuts written, as (b, c, d) with b < c, in the
        store's order; the event log lists them sorted by id pair.
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
                                           shortcuts=tuple(sorted(shortcuts))))
        return shortcuts

    # -- bookkeeping --------------------------------------------------------

    def report(self) -> RunReport:
        """The finished run: its holder ids, giant fraction and event log.

        The retired components are the final blocks, so p_inf is the
        largest retired size over N, the share of the partition's largest
        block; the partition itself is built from the holder ids only when
        it is read (RunReport.partition).
        """
        if self.comps:
            raise ValueError("run has not finished; active components remain")
        n = self.n_nodes
        held = self.holders()
        held.flags.writeable = False
        return RunReport(n_nodes=n, node_labels=self.node_labels, holders=held,
                         p_inf=max(c.size for c in self.removed) / n,
                         events=tuple(self.events),
                         merge_count=n - len(self.removed),
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


_BLOCK_ENTRIES = 2 ** 15  # float64 entries (256 KB) computed and folded at once


def _fold_rows(rows_of, bounds: list[int], width: int) -> np.ndarray:
    """Row i is the minimum over the rows bounds[i]:bounds[i + 1] of a matrix.

    rows_of(a, b) gives the matrix's rows a:b, or only their last columns,
    and the columns it leaves out stay INF.  It is read
    max(1, _BLOCK_ENTRIES // width) rows at a time, so a block of rows stays
    in the core's cache while it is folded.  A block of rows cut by a read
    boundary folds its parts together, so the result is the same floats as
    one reduce per block.
    """
    out = np.full((len(bounds) - 1, width), INF)
    step = max(1, _BLOCK_ENTRIES // width)
    c = 0  # the block holding the first row read
    for a in range(0, bounds[-1], step):
        b = min(a + step, bounds[-1])
        rows = rows_of(a, b)
        tail = out[:, width - rows.shape[1]:]
        while c < len(out) and bounds[c] < b:
            lo, hi = max(bounds[c], a), min(bounds[c + 1], b)
            if lo == bounds[c]:
                np.minimum.reduce(rows[lo - a:hi - a], axis=0, out=tail[c])
            else:  # the rest of a block begun before row a
                np.minimum(tail[c], rows[lo - a:hi - a].min(axis=0), out=tail[c])
            if hi < bounds[c + 1]:
                break  # the block goes on after row b
            c += 1
    return out


def _cloud_distances(cloud: PointCloud, nodes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Distances between the blocks of a cloud, the minimum over member pairs; diagonal INF.

    Members are contiguous per block.  The squared distances among the M
    listed nodes are computed about _BLOCK_ENTRIES at a time, rows a:b
    against the columns a: only, so each pair is computed once and no M x M
    matrix is built.  They fold per block of rows into a K x M array, and
    the rows of its transpose fold into K x K.  Entry (J, I) of that is
    exact for J > I, since every column of block J lies after every row of
    block I; elsewhere it is INF or a minimum over some of the pairs, never
    below the true one.  The squared distances of (i, j) and (j, i) are the
    same float, so the minimum of the K x K array and its transpose is exact
    everywhere, and one square root of it gives the distances: sqrt is
    correctly rounded and non-decreasing, so
    sqrt(min(a, b)) == min(sqrt(a), sqrt(b)) bit for bit, and the floats
    are those of folding distance_rows.  When every block is a single node
    the distance rows are the matrix and are written straight into it; a
    lone block has no distances at all.  (np.minimum.reduceat makes one
    inner-loop call per block and column, several times slower here.)
    """
    k, m = len(starts) - 1, len(nodes)
    if k <= 1:
        return np.full((k, k), INF)
    pos = cloud.positions[nodes]
    if k == m:
        mat = np.empty((m, m))
        step = max(1, _BLOCK_ENTRIES // m)
        for a in range(0, m, step):
            distance_rows(pos, a, a + step, out=mat[a:a + step])
    else:
        bounds = starts.tolist()
        folded = _fold_rows(lambda a, b: squared_distance_rows(pos[a:], 0, b - a),
                            bounds, m).T.copy()
        mat = _fold_rows(lambda a, b: folded[a:b], bounds, k)
        mat = np.sqrt(np.minimum(mat, mat.T))
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
    cut at the base range r0 = r(1) (topology.single_linkage_labels), one
    component per connected component of the pairs with d < r0, each at the
    minimum member-pair distance from another.  The singletons take the ids
    0..k1-1 in node order, the clusters k1..k-1 by smallest member.

    The cut's singletons start retired, in state.removed, and never enter
    state.comps.  A point cloud's never enter the store either.  An edge
    list's do, and the store reduces them here in id order under
    future_cap() of the clusters' pooled size, so run() schedules only the
    clusters.  The module docstring gives why this start reaches the
    partition and floats of a run from singletons.

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
    # the cut's singletons, the ids 0..k1-1
    k1 = 0 if record_events else int(np.count_nonzero(np.diff(starts) == 1))
    sizes = np.diff(starts).tolist()
    ranges = {size: params.component_range_km(size) for size in set(sizes)}
    k = len(sizes)
    comps = {c: Component(size=sizes[c], range_km=ranges[sizes[c]]) for c in range(k1, k)}
    block_of = np.empty(n, dtype=np.intp)  # each node's starting id
    block_of[nodes] = np.repeat(np.arange(k), sizes)
    # the range of each id in the store; a cloud's singletons never enter it
    reach = {c: ranges[sizes[c]] for c in range(k1 if cloud else 0, k)}
    if cloud:  # rows 0.. hold the clusters' ids k1..
        labels = tuple(range(n))
        mat = _cloud_distances(network, nodes[k1:], starts[k1:] - k1)
        if store != "sparse":
            backend = _DenseStore(mat, reach)
        else:
            adj = {a: {b: d for b, d in zip(reach, row) if b != a}
                   for a, row in zip(reach, mat.tolist())}
            backend = _SparseStore(adj, reach)
    else:
        labels = network.node_ids
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
    state = PercolationState(backend, n, labels, params, comps, block_of,
                             record_events=record_events, point_cloud=cloud)
    state.removed.extend([Component(size=1, range_km=r0)] * k1)
    if k1 and not cloud:  # ids 0..k1-1, reduced in id order under the clusters' pooled range
        cap = state.future_cap(n - k1)
        for a in range(k1):
            backend.apply_reduction(a, cap)
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

    Reductions skip shortcut sums at or above future_cap() of the components
    not isolated, unusable by any merge to come, so they are neither stored
    nor logged; on a point cloud a one-point relay writes none at all (see
    reduce_and_remove).  A state from init_state without an event log holds
    only the cut's clusters (module docstring).
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
        unchecked.update(x for x in store.partners(a) if x not in isolated)
        # only a written shortcut can make a pair connectable
        for b, c, d in state.reduce_and_remove(a, future_cap=state.future_cap(pool)):
            # this check keeps all but 1 of 21,023 shortcuts off the heap (two 800-point clouds)
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
