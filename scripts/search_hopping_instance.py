#!/usr/bin/env python3
"""Seed search for small point clouds whose runs use a relay shortcut.

A merge is shortcut-borne ("hopping") when its effective distance beats the
raw geometric minimum between the two member sets, which only a reduction
shortcut can produce.  Such configurations are rare in uniform clouds: they
need an extended relay chain sitting between two larger clusters, with the
relay legs inside a narrow band (long enough that the relay is isolated,
short enough that the grown clusters can use the summed legs).  The search
therefore first screens each cloud for that structure via single-linkage
components, then probes engine parameters derived from the measured legs
(exact range mode, where the near-saturation range growth widens the band).

Hits are printed as (seed, d0, eps, used_distance, raw_min, block_a,
block_b, separate_at_alpha0); the frozen regression instance in the test
suite was produced by this script.
"""

import argparse
import os

import numpy as np

from qnetperc.engine import MergeEvent, init_state, run
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams
from qnetperc.topology import (check_seed, generate_uniform_points,
                               single_linkage_labels)

ALPHA = 0.585


def replay_members(report):
    members = {i: frozenset((i,)) for i in range(report.n_nodes)}
    for ev in report.events:
        if isinstance(ev, MergeEvent):
            members[ev.new_id] = members[ev.a] | members[ev.b]
    return members


def structural_candidates(cloud, dist):
    """Relay-between-clusters patterns: (relay nodes, leg_b, leg_c).

    At each of its thresholds h the blocks are the single-linkage cut
    d < h, read from the cloud's cached merge forest.
    """
    n = dist.shape[0]
    tri = np.sort(dist[np.triu_indices(n, 1)])
    out = set()
    for h in tri[5:140:4]:
        groups = {}
        for i, l in enumerate(single_linkage_labels(cloud, h).tolist()):
            groups.setdefault(l, []).append(i)
        bigs = [tuple(g) for g in groups.values() if len(g) >= 5]
        smalls = [tuple(g) for g in groups.values() if len(g) in (2, 3)]
        for relay in smalls:
            for bi in range(len(bigs)):
                for ci in range(bi + 1, len(bigs)):
                    leg_b = dist[np.ix_(relay, bigs[bi])].min()
                    leg_c = dist[np.ix_(relay, bigs[ci])].min()
                    raw = dist[np.ix_(bigs[bi], bigs[ci])].min()
                    if raw > leg_b + leg_c - 1e-9 and \
                            max(leg_b, leg_c) / min(leg_b, leg_c) < 2.0:
                        out.add((relay, leg_b, leg_c))
    return out


def scan_seed(seed, n_points=20):
    cloud = generate_uniform_points(n_points, box_side=1.0, seed=seed)
    dist = cloud.distance_matrix()
    hits = []
    for relay, leg_b, leg_c in structural_candidates(cloud, dist):
        for isolation_margin in (0.82, 0.90, 0.97):
            for x1 in np.arange(0.12, 0.33, 0.02):
                x_relay = x1 * len(relay) ** ALPHA
                if x_relay >= 0.98:
                    continue
                # d0 such that the relay range sits just under its shorter leg
                d0 = isolation_margin * min(leg_b, leg_c) / -np.log1p(-x_relay)
                eps = 0.75 * x1

                def params(alpha):
                    return ModelParams(
                        channel=ChannelModel(d0_km=float(d0), epsilon=float(eps)),
                        distill=DistillationParams(m=1, alpha=alpha),
                        range_mode="exact", beta_cap=True)

                report = run(init_state(cloud, params(ALPHA)))
                members = replay_members(report)
                for ev in report.events:
                    if not isinstance(ev, MergeEvent):
                        continue
                    block_a = sorted(members[ev.a])
                    block_b = sorted(members[ev.b])
                    raw = float(dist[np.ix_(block_a, block_b)].min())
                    if ev.distance >= raw * (1 - 1e-9):
                        continue
                    blocks0 = run(init_state(cloud, params(0.0))).partition_sets()
                    separate = not any((set(block_a) & blk) and (set(block_b) & blk)
                                       for blk in blocks0)
                    hits.append((seed, float(d0), float(eps), float(ev.distance),
                                 raw, tuple(block_a), tuple(block_b), separate))
    return hits


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs=2, default=(0, 50_000),
                    metavar=("LO", "HI"))
    args = ap.parse_args()
    seeds = range(*args.seeds)
    if not seeds:
        return
    try:  # every seed lies between the first and the last
        for seed in (seeds[0], seeds[-1]):
            check_seed(seed, "--seeds")
    except ValueError as exc:
        ap.error(str(exc))
    from concurrent.futures import ProcessPoolExecutor
    # one worker per CPU, and none idle on a short range
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(seeds))) as pool:
        for res in pool.map(scan_seed, seeds, chunksize=64):
            for hit in res:
                print("HIT", repr(hit), flush=True)


if __name__ == "__main__":
    main()
