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

Reduction inserts explicit shortcuts (O(k^2) per removal).

run() fires the rules under one of two policies.  The default,
lexicographic, always takes the smallest connectable id pair and otherwise
reduces the smallest isolated id; it is scheduled incrementally from one
initial pair scan, a heap of candidate pairs and a worklist of components
whose isolation may have changed, and fires exactly the order a full rescan
before every rule would.  The batch policy folds every connectable pair in
one sweep, then reduces every isolated component, rescanning all pairs in
between.  Both skip shortcut sums that no future merge can use.  Other orders
are reachable through the public rules (connectable_pairs, merge,
is_isolated, reduce_and_remove) and all reach the same partition.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from .quantum import ModelParams
from .topology import EdgeListNetwork, PointCloud

INF = math.inf

_POLICIES = ("lexicographic", "batch")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    id: int
    members: frozenset[int]
    size: int
    range_km: float


@dataclass(frozen=True)
class MergeEvent:
    a: int
    b: int
    new_id: int
    size: int
    new_range: float
    range_a: float
    range_b: float
    distance: float


@dataclass(frozen=True)
class ReduceEvent:
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
    params: ModelParams

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

    def __init__(self, matrix: np.ndarray):
        n = matrix.shape[0]
        self.D = matrix
        self.slot = {i: i for i in range(n)}
        self.ids = np.arange(n)  # component id held by each slot

    def distance(self, a: int, b: int) -> float:
        return float(self.D[self.slot[a], self.slot[b]])

    def min_distance(self, a: int) -> float:
        return float(self.D[self.slot[a]].min())

    def neighbor_items(self, a: int):
        row = self.D[self.slot[a]]
        finite = np.nonzero(np.isfinite(row))[0]
        return list(zip(self.ids[finite].tolist(), row[finite].tolist()))

    def connectable_pairs(self, ids, ranges):
        slots = np.fromiter((self.slot[i] for i in ids), dtype=np.intp,
                            count=len(ids))
        sub = self.D[np.ix_(slots, slots)]
        r = np.asarray(ranges)
        mask = sub < np.minimum(r[:, None], r[None, :])
        iu, ju = np.nonzero(np.triu(mask, k=1))
        return [(ids[i], ids[j], float(sub[i, j])) for i, j in zip(iu, ju)]

    def merge(self, a: int, b: int, c: int) -> None:
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

    def apply_reduction(self, a: int, cap: float, collect: bool):
        """Insert min(d_bc, d_ab + d_ac) shortcuts among a's neighbors, drop a.

        Sums at or above cap are skipped: they can never satisfy a strict
        connection criterion nor shorten a path below cap.
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
                if collect:
                    iu, ju = np.nonzero(np.triu(improved, k=1))
                    shortcuts = [(int(leg_ids[i]), int(leg_ids[j]), float(sums[i, j]))
                                 for i, j in zip(iu, ju)]
        self.D[sa, :] = INF
        self.D[:, sa] = INF
        return shortcuts


class _SparseStore:
    """Dict-of-dicts adjacency over the active components."""

    def __init__(self, adj: dict[int, dict[int, float]]):
        self.adj = adj

    def distance(self, a: int, b: int) -> float:
        return self.adj[a].get(b, INF)

    def min_distance(self, a: int) -> float:
        return min(self.adj[a].values(), default=INF)

    def neighbor_items(self, a: int):
        return self.adj[a].items()

    def connectable_pairs(self, ids, ranges):
        r = dict(zip(ids, ranges))
        pairs = []
        for a in ids:
            ra = r[a]
            for b, d in self.adj[a].items():
                if b > a and d < ra and d < r[b]:
                    pairs.append((a, b, d))
        pairs.sort()
        return pairs

    def merge(self, a: int, b: int, c: int) -> None:
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

    def apply_reduction(self, a: int, cap: float, collect: bool):
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
                    if collect:
                        shortcuts.append((b, c, s))
        return shortcuts


# ---------------------------------------------------------------------------
# State and rules
# ---------------------------------------------------------------------------

class PercolationState:
    """Single-writer mutable state: active components, distances, event log."""

    def __init__(self, store, n_nodes: int, node_labels, params: ModelParams,
                 record_events: bool = True, debug_checks: bool = False):
        self.store = store
        self.params = params
        self.node_labels = tuple(node_labels)
        self.n_nodes = n_nodes
        self.record_events = record_events
        self.debug_checks = debug_checks
        r0 = params.component_range_km(1)
        self.comps: dict[int, Component] = {
            i: Component(id=i, members=frozenset((i,)), size=1, range_km=r0)
            for i in range(n_nodes)
        }
        self.active: set[int] = set(range(n_nodes))
        self.removed: list[Component] = []
        self.events: list = []
        self.merge_count = 0
        self.reduce_count = 0
        self._next_id = n_nodes

    # -- queries ------------------------------------------------------------

    def active_ids(self) -> list[int]:
        return sorted(self.active)

    def _require_active(self, *ids) -> None:
        for a in ids:
            if a not in self.active:
                raise ValueError(f"component {a} is not active")

    def distance(self, a: int, b: int) -> float:
        self._require_active(a, b)
        return self.store.distance(a, b)

    def connectable_pairs(self) -> list[tuple[int, int, float]]:
        ids = self.active_ids()
        ranges = [self.comps[a].range_km for a in ids]
        return self.store.connectable_pairs(ids, ranges)

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
        new_range = self.params.component_range_km(size)
        if self.debug_checks:
            self._check_merge(ca, cb, new_range)
        self.store.merge(a, b, c)
        self.active.discard(a)
        self.active.discard(b)
        del self.comps[a], self.comps[b]
        self.comps[c] = Component(id=c, members=ca.members | cb.members,
                                  size=size, range_km=new_range)
        self.active.add(c)
        self.merge_count += 1
        if self.record_events:
            self.events.append(MergeEvent(a=a, b=b, new_id=c, size=size,
                                          new_range=new_range, range_a=ca.range_km,
                                          range_b=cb.range_km, distance=d_ab))
        return c

    def _check_merge(self, ca: Component, cb: Component, new_range: float) -> None:
        slack = 1e-12 * max(ca.range_km, cb.range_km, 1.0)
        assert new_range + slack >= max(ca.range_km, cb.range_km), \
            "range decreased on merge"
        p = self.params
        e = p.distill.effective_exponent
        if (p.range_mode == "asymptotic" and p.size_growth and e > 0):
            beta = p.channel.beta_km
            ranges = (ca.range_km, cb.range_km, new_range)
            if not (p.beta_cap and any(r >= beta * (1 - 1e-12) for r in ranges)):
                folded = (ca.range_km ** (1 / e) + cb.range_km ** (1 / e)) ** e
                assert abs(folded - new_range) <= 8 * np.spacing(new_range), \
                    "contraction identity violated beyond 8 ulps"

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
        """
        if not self.is_isolated(a):
            raise ValueError(f"component {a} is not isolated; reduction would be premature")
        comp = self.comps[a]
        cap = INF if future_cap is None else future_cap
        shortcuts = self.store.apply_reduction(a, cap, collect=self.record_events)
        self.active.discard(a)
        del self.comps[a]
        self.removed.append(comp)
        self.reduce_count += 1
        if self.record_events:
            self.events.append(ReduceEvent(comp=a, size=comp.size,
                                           range_km=comp.range_km,
                                           shortcuts=tuple(shortcuts)))
        return shortcuts

    # -- bookkeeping --------------------------------------------------------

    def report(self) -> RunReport:
        if self.active:
            raise ValueError("run has not finished; active components remain")
        blocks = []
        for comp in self.removed:
            labels = tuple(sorted(self.node_labels[i] for i in comp.members))
            blocks.append(labels)
        blocks.sort(key=lambda block: block[0])
        p_inf = max(len(b) for b in blocks) / self.n_nodes
        return RunReport(n_nodes=self.n_nodes, node_labels=self.node_labels,
                         partition=tuple(blocks), p_inf=p_inf,
                         events=tuple(self.events), merge_count=self.merge_count,
                         reduce_count=self.reduce_count, params=self.params)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def init_state(network, params: ModelParams, *, store: str = "auto",
               record_events: bool = True, debug_checks: bool = False,
               ) -> PercolationState:
    """One singleton component per node; distances from the network's metric.

    Point clouds default to the dense store, edge lists to the sparse store.
    """
    if store not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown store {store!r}")
    if isinstance(network, PointCloud):
        n = network.n_nodes
        labels = tuple(range(n))
        mat = network.distance_matrix()
        if store == "sparse":
            adj = {i: {j: float(mat[i, j]) for j in range(n) if j != i}
                   for i in range(n)}
            backend = _SparseStore(adj)
        else:
            np.fill_diagonal(mat, INF)
            backend = _DenseStore(mat)
    elif isinstance(network, EdgeListNetwork):
        n = network.n_nodes
        labels = network.node_ids
        index = network.index_of()
        if store == "dense":
            mat = np.full((n, n), INF)
            for u, v, length in network.edges:
                i, j = index[u], index[v]
                mat[i, j] = mat[j, i] = length
            backend = _DenseStore(mat)
        else:
            adj: dict[int, dict[int, float]] = {i: {} for i in range(n)}
            for u, v, length in network.edges:
                i, j = index[u], index[v]
                adj[i][j] = adj[j][i] = length
            backend = _SparseStore(adj)
    else:
        raise ValueError(f"unsupported network type {type(network).__name__}")
    if n < 1:
        raise ValueError("network must contain at least one node")
    return PercolationState(backend, n, labels, params,
                            record_events=record_events, debug_checks=debug_checks)


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------

def _future_range_cap(state: PercolationState, isolated: set[int]) -> float:
    """Largest range any active component can ever reach from here.

    Isolated components never merge again, so only the remaining pool of
    non-isolated components bounds future growth.
    """
    pool = sum(state.comps[a].size for a in state.active if a not in isolated)
    if pool == 0:
        return 0.0
    return state.params.component_range_km(pool)


def _batch_merge(state: PercolationState, pairs) -> None:
    """Fold every currently-connectable pair in one sweep.

    Merging along a spanning forest of the connectable-pair graph keeps each
    individual fold valid: ranges only grow and distances only shrink, so a
    pair that connected at sweep start still connects when its turn comes.
    """
    parent: dict[int, int] = {}
    current: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b, _ in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        merged = state.merge(current.get(ra, ra), current.get(rb, rb))
        parent[ra] = rb
        current[rb] = merged


def _run_lexicographic(state: PercolationState) -> None:
    """Merge the smallest connectable (a, b); else reduce the smallest isolated id.

    One full pair scan seeds a heap of connectable pairs.  A pair stays
    connectable while both ends are active (distances never grow, a live
    component's range never changes), so dead pairs are dropped lazily and
    the first live pair popped is the lexicographic minimum.  Afterwards a
    merge can only create pairs on the new component's row, and a reduction
    only among the reduced component's legs.  Isolation is permanent, and a
    live component can become isolated only when it is new or when a
    component within its range is reduced, so only those are re-checked.
    """
    active, comps, store = state.active, state.comps, state.store
    heap = [(a, b) for a, b, _ in state.connectable_pairs()]  # sorted: a heap
    isolated: set[int] = set()
    unchecked = set(active)
    while active:
        while heap and not (heap[0][0] in active and heap[0][1] in active):
            heapq.heappop(heap)
        if heap:
            c = state.merge(*heapq.heappop(heap))
            rc = comps[c].range_km
            for x, d in store.neighbor_items(c):
                if d < rc and d < comps[x].range_km:
                    heapq.heappush(heap, (x, c))  # c is the largest live id
            unchecked.add(c)
            continue
        isolated.update(x for x in unchecked if x in active and state.is_isolated(x))
        unchecked.clear()
        if not isolated:
            raise RuntimeError("no merges possible yet no component is isolated")
        a = min(isolated)
        cap = _future_range_cap(state, isolated)
        # a shortcut sum is never below either leg, so a leg at or beyond its
        # own range can gain no partner
        legs = sorted(x for x, d in store.neighbor_items(a)
                      if x not in isolated and d < comps[x].range_km)
        state.reduce_and_remove(a, future_cap=cap)
        isolated.discard(a)
        for i, b in enumerate(legs):
            for c in legs[i + 1:]:
                d = store.distance(b, c)
                if d < comps[b].range_km and d < comps[c].range_km:
                    heapq.heappush(heap, (b, c))
        unchecked.update(legs)


def run(state: PercolationState, policy: str = "lexicographic") -> RunReport:
    """Drive the state to its fixed point and report the final partition.

    Merge while any pair satisfies the connection criterion; when none does,
    reduce-and-remove isolated components; repeat until no active component
    remains.  The policy changes only the event order, never the final
    partition:

    - "lexicographic" always merges the smallest connectable id pair and
      reduces the smallest isolated id.  It is scheduled incrementally: one
      pair scan up front, then only the pairs and isolation states a rule
      can have changed are re-checked.
    - "batch" folds every connectable pair in one sweep and reduces every
      isolated component at once, rescanning all pairs in between.

    Reductions skip shortcut sums at or above _future_range_cap, unusable by
    any merge to come, so they are neither stored nor logged.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if policy == "lexicographic":
        _run_lexicographic(state)
        return state.report()
    guard = 4 * state.n_nodes + 16
    steps = 0
    while state.active:
        steps += 1
        if steps > guard:
            raise RuntimeError("run loop failed to terminate")
        pairs = state.connectable_pairs()
        if pairs:
            _batch_merge(state, pairs)
            continue
        isolated = [a for a in state.active_ids() if state.is_isolated(a)]
        if not isolated:
            raise RuntimeError("no merges possible yet no component is isolated")
        cap = _future_range_cap(state, set(isolated))
        for a in isolated:
            state.reduce_and_remove(a, future_cap=cap)
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


def save_event_log(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(events_to_dicts(report), fh, indent=2)
        fh.write("\n")


def partition_to_lists(report: RunReport) -> list[list]:
    return [list(block) for block in report.partition]


def save_partition(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(partition_to_lists(report), fh, indent=2)
        fh.write("\n")
