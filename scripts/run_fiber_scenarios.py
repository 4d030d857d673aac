#!/usr/bin/env python3
"""Memory-utilization scenarios on the synthetic repeater-augmented fiber network.

Sweeps the decoherence distance for the no-memory, point-to-point, and
distributed strategies, then bisects the minimum d0 reaching 90% giant
fraction per scenario.  Writes plot-ready CSV plus a JSON summary.
"""

import argparse
import json
from pathlib import Path

from qnetperc.analysis import (Scenario, SweepSpec, min_d0_for_target,
                               scenario_params, sweep_connectivity,
                               write_aggregate_csv, write_curve_csv)
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams
from qnetperc.topology import (RepeaterConfig, generate_fiber_network,
                               insert_repeaters)


def compute(args):
    """The fiber, the sweep's rows and aggregate, and each scenario's minimum d0."""
    fiber = generate_fiber_network(args.nodes, args.edges,
                                   mean_length_km=args.mean_length, seed=args.seed)
    base = ModelParams(channel=ChannelModel(d0_km=300.0, epsilon=0.01),
                       distill=DistillationParams(m=102, alpha=0.585))
    seeds = tuple(range(11, 11 + args.replicates))
    # each repeater network built once for the sweep and all three scenarios
    nets = {seed: insert_repeaters(fiber, RepeaterConfig(args.mean_segment, seed=seed))
            for seed in seeds}

    grid = (100.0, 200.0, 300.0, 450.0, 700.0, 1000.0, 1500.0, 2500.0,
            4000.0, 8000.0, 16000.0, 32000.0, 64000.0)
    spec = SweepSpec(d0_grid_km=grid, seeds=seeds)
    rows, agg = sweep_connectivity(nets.__getitem__, base, spec)

    brackets = {Scenario.DISTRIBUTED: (50.0, 2e4),
                Scenario.POINT_TO_POINT: (100.0, 1e5),
                Scenario.NO_MEMORY: (1000.0, 1e6)}
    summary = {}
    for scenario, (lo, hi) in brackets.items():
        res = min_d0_for_target(nets.__getitem__, scenario_params(base, scenario),
                                target=args.target, d0_lo=lo, d0_hi=hi,
                                rel_tol=0.02, seeds=seeds)
        summary[scenario.value] = res["d0_km"]
    return fiber, rows, agg, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=692)
    ap.add_argument("--edges", type=int, default=733)
    ap.add_argument("--mean-length", type=float, default=500.0)
    ap.add_argument("--mean-segment", type=float, default=50.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--replicates", type=int, default=2)
    ap.add_argument("--target", type=float, default=0.9)
    ap.add_argument("--out", type=Path, default=Path("out/fiber_scenarios"))
    args = ap.parse_args()
    try:
        fiber, rows, agg, summary = compute(args)
    except ValueError as exc:  # a bad flag: exit 2 before --out is created
        ap.error(str(exc))
    print(f"synthetic fiber: {fiber.n_nodes} nodes, {fiber.n_edges} cables, "
          f"mean {fiber.total_length_km() / fiber.n_edges:.0f} km")
    for scenario, d0 in summary.items():
        print(f"{scenario}: min d0 for {args.target:.0%} connectivity ~ {d0:.0f} km")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a directory it cannot make
        ap.error(f"cannot create --out {args.out}: {exc.strerror}")
    write_curve_csv(rows, args.out / "curves.csv")
    write_aggregate_csv(agg, args.out / "curves_aggregate.csv")
    (args.out / "min_d0.json").write_text(
        json.dumps({"target": args.target, "min_d0_km": summary}, indent=2) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
