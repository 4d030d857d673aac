#!/usr/bin/env python3
"""Connectivity-threshold comparison on uniform point clouds.

Bisects the range scale r0 at which the mean giant fraction crosses the
target, for several growth exponents on shared replicate clouds, and writes
the estimates with bootstrap confidence intervals.
"""

import argparse
import json
from pathlib import Path

from qnetperc.analysis import find_threshold, threshold_to_json
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams
from qnetperc.topology import generate_uniform_points


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.0, 0.3, 0.585])
    ap.add_argument("--target", type=float, default=0.5)
    ap.add_argument("--replicates", type=int, default=6)
    ap.add_argument("--tol", type=float, default=2e-4)
    ap.add_argument("--out", type=Path, default=Path("out/thresholds.json"))
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    seeds = tuple(range(101, 101 + args.replicates))
    # each cloud built once for all alphas
    clouds = {seed: generate_uniform_points(args.n, box_side=1.0, seed=seed)
              for seed in seeds}
    estimates = []
    for alpha in args.alphas:
        params = ModelParams(channel=ChannelModel(d0_km=100.0, epsilon=0.01),
                             distill=DistillationParams(m=1, alpha=alpha))
        est = find_threshold(clouds.__getitem__, params, target=args.target, tol=args.tol,
                             eps_lo=3e-5, eps_hi=8e-4, seeds=seeds)
        estimates.append(est)
        print(f"alpha={alpha:g}: r0_th = {est.r0_th:.5f} "
              f"[{est.ci_low:.5f}, {est.ci_high:.5f}]")
    args.out.write_text(json.dumps({
        "n": args.n, "target": args.target,
        "estimates": [threshold_to_json(e) for e in estimates],
    }, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
