"""Acceptance gate: the project's headline numbers and behavioral guarantees.

One test per criterion, each with a pinned tolerance.  Run with
`pytest tests/test_acceptance.py -v -s` to see one pass line per criterion.
The long-running criteria (5, 6, 8, 9) each finish within minutes on a
laptop-class machine.
"""

import dataclasses
import random

import numpy as np
import pytest

from conftest import (disk_percolation_oracle, random_instance, random_params,
                      reference_schedule)
from qnetperc.analysis import (ComplexityParams, Scenario, coherence_time,
                               complexity_f, find_threshold, interpolate_f,
                               min_d0_for_target, scenario_params, worst_case_n)
from qnetperc.engine import (MergeEvent, init_state, run, verify_report)
from qnetperc.quantum import (ChannelModel, DistillationParams, ModelParams,
                              base_range, bbpssw_success, component_range)
from qnetperc.topology import (RepeaterConfig, generate_fiber_network,
                               generate_uniform_points, insert_repeaters)


def ok(n, msg):
    print(f"PASS criterion {n}: {msg}")


def replay_members(report):
    members = {i: frozenset((i,)) for i in range(report.n_nodes)}
    for ev in report.events:
        if isinstance(ev, MergeEvent):
            members[ev.new_id] = members[ev.a] | members[ev.b]
    return members


def test_c01_bbpssw_success_probability():
    value = bbpssw_success(0.75)
    assert value == pytest.approx(0.7222, abs=1e-4)
    ok(1, f"bbpssw_success(0.75) = {value:.6f} (target 0.7222 +/- 1e-4)")


def test_c02_range_constants():
    ch = ChannelModel(d0_km=1.0, epsilon=0.01)
    r_local = base_range(ch, DistillationParams(m=1, alpha=0.585))
    r_pooled = base_range(ch, DistillationParams(m=102, alpha=0.585))
    # the headline 0.013 is the 2-significant-figure rounding of (4/3)*0.01
    assert r_local == pytest.approx(4 / 3 * 0.01, rel=1e-2)
    assert float(f"{r_local:.2g}") == 0.013
    assert r_pooled == pytest.approx(0.2, rel=1e-2)
    ok(2, f"base ranges {r_local:.6f} d0 (rounds to 0.013 d0) and {r_pooled:.4f} d0 (~0.2 d0)")


def test_c03_complexity_table():
    cp = ComplexityParams(m=102, p=0.722)
    table = {102: 7.0, 204: 1.3e3, 408: 1.1e6}
    values = {}
    for n, target in table.items():
        values[n] = complexity_f(n, cp)
        assert values[n] == pytest.approx(target, rel=0.20)
    f245 = interpolate_f(245, cp)
    assert 0.5 <= f245 / 4e4 <= 2.0
    tau = coherence_time(4e4, 1e6)
    assert tau == pytest.approx(0.04, rel=0.20)
    ok(3, f"f(102)={values[102]:.3g}, f(204)={values[204]:.3g}, "
          f"f(408)={values[408]:.3g}, f(245)~{f245:.3g}, coherence {tau:.3g} s")


def test_c04_worst_case_accesses():
    n = worst_case_n(0.01, 100.0, 300.0, 0.585)
    assert abs(n - 245) <= 1
    ok(4, f"worst-case remote accesses n = {n} (target 245 +/- 1)")


def test_c05_classical_limit_oracle_equivalence():
    checked = 0
    for seed in range(200):
        network = random_instance(seed + 200_000, max_n=40)
        params = random_params(seed + 200_000, network)
        params = dataclasses.replace(
            params, distill=dataclasses.replace(params.distill, alpha=0.0))
        report = run(init_state(network, params))
        verify_report(report)
        oracle = disk_percolation_oracle(network, params.base_range_km())
        assert report.partition_sets() == oracle
        checked += 1
    ok(5, f"alpha=0 partitions equal disk-percolation closure on {checked} instances")


def test_c06_order_invariance():
    instances = 0
    for seed in range(100):
        network = random_instance(seed + 600_000, max_n=50)
        params = random_params(seed + 600_000, network)
        reference = None
        for k in range(20):
            state = init_state(network, params,
                               store="sparse" if k % 3 == 2 else "auto")
            if k % 4 == 3:
                report = run(state, policy="batch")
            else:
                report = reference_schedule(state, prune=k % 2 == 0,
                                            choose=random.Random(k).choice)
            verify_report(report)
            parts = report.partition_sets()
            if reference is None:
                reference = parts
            else:
                assert parts == reference, f"order dependence at seed {seed}, order {k}"
        instances += 1
    ok(6, f"{instances} instances x 20 randomized rule orders: identical partitions")


def test_c07_contraction_identity():
    # the reference fold is evaluated in 50-digit arithmetic so the ulp
    # budget measures the engine's ranges, not reference-side rounding
    import mpmath
    mpmath.mp.dps = 50
    rng = np.random.default_rng(1234)
    worst = 0.0
    ch = ChannelModel(d0_km=100.0, epsilon=0.01)
    for _ in range(10_000):
        alpha = float(rng.uniform(0.1, 1.5))
        m = int(rng.integers(1, 200))
        sa = int(rng.integers(1, 5000))
        sb = int(rng.integers(1, 5000))
        d = DistillationParams(m=m, alpha=alpha)
        ra = component_range(sa, ch, d, beta_cap=False)
        rb = component_range(sb, ch, d, beta_cap=False)
        merged = component_range(sa + sb, ch, d, beta_cap=False)
        am = mpmath.mpf(1) / alpha
        folded = float((mpmath.mpf(ra) ** am + mpmath.mpf(rb) ** am) ** mpmath.mpf(alpha))
        ulps = abs(folded - merged) / np.spacing(merged)
        worst = max(worst, ulps)
        assert ulps <= 8.0
    ok(7, f"contraction identity within 8 ulps on 1e4 triples (worst {worst:.2f} ulps)")


def test_c08_threshold_ordering():
    def factory(seed):
        return generate_uniform_points(2000, box_side=1.0, seed=seed)

    seeds = tuple(range(101, 107))
    estimates = {}
    for alpha in (0.585, 0.0):
        params = ModelParams(channel=ChannelModel(d0_km=100.0, epsilon=0.01),
                             distill=DistillationParams(m=1, alpha=alpha))
        estimates[alpha] = find_threshold(factory, params, target=0.5, tol=2e-4,
                                          eps_lo=3e-5, eps_hi=8e-4, seeds=seeds,
                                          n_boot=2000, boot_seed=7)
    lo, hi = estimates[0.585], estimates[0.0]
    assert lo.r0_th < hi.r0_th
    assert lo.ci_high < hi.ci_low, "bootstrap confidence intervals overlap"
    ok(8, f"r0_th(alpha=0.585) = {lo.r0_th:.5f} [{lo.ci_low:.5f}, {lo.ci_high:.5f}] "
          f"< r0_th(alpha=0) = {hi.r0_th:.5f} [{hi.ci_low:.5f}, {hi.ci_high:.5f}]")


def test_c09_fiber_scenario_ordering():
    fiber = generate_fiber_network(692, 733, mean_length_km=500.0, seed=1)
    assert fiber.n_nodes == 692 and fiber.n_edges == 733

    def network_factory(seed):
        return insert_repeaters(fiber, RepeaterConfig(mean_segment_km=50.0, seed=seed))

    base = ModelParams(channel=ChannelModel(d0_km=300.0, epsilon=0.01),
                       distill=DistillationParams(m=102, alpha=0.585))
    brackets = {
        Scenario.DISTRIBUTED: (50.0, 2e4),
        Scenario.POINT_TO_POINT: (100.0, 1e5),
        Scenario.NO_MEMORY: (1000.0, 1e6),
    }
    minima = {}
    for scenario, (lo, hi) in brackets.items():
        params = scenario_params(base, scenario)
        res = min_d0_for_target(network_factory, params, target=0.9,
                                d0_lo=lo, d0_hi=hi, rel_tol=0.02, seeds=(11, 12))
        minima[scenario] = res["d0_km"]
    d_dist = minima[Scenario.DISTRIBUTED]
    d_ptp = minima[Scenario.POINT_TO_POINT]
    d_none = minima[Scenario.NO_MEMORY]
    assert d_dist < d_ptp < d_none
    assert d_ptp / d_dist >= 2.0, "distributed advantage below the 2x bar"
    ok(9, f"90% connectivity at d0 ~ {d_dist:.0f} / {d_ptp:.0f} / {d_none:.0f} km "
          f"(distributed / point-to-point / no-memory; reference values on the "
          f"non-public operator topology: ~300 / ~600 / ~8000 km)")


# Frozen by seed search over the criterion-5 instance family (see
# scripts/search_hopping_instance.py): a 2-node relay chain bridges a
# 7-block and an 8-block through its reduction shortcut.
HOP_SEED = 12884
HOP_PARAMS = dict(d0_km=0.81, epsilon=0.12)
HOP_BLOCK_A = frozenset({2, 5, 8, 13, 15, 16, 18})
HOP_BLOCK_B = frozenset({0, 1, 3, 4, 7, 9, 14, 19})
HOP_PARTITION = {frozenset({6}), frozenset({10}), frozenset({12}),
                 frozenset({11, 17}), HOP_BLOCK_A | HOP_BLOCK_B}
HOP_PARTITION_ALPHA0 = {frozenset({6}), frozenset({10}), frozenset({12}),
                        frozenset({2, 16}), frozenset({11, 17}),
                        frozenset({0, 4, 9, 14}), frozenset({1, 3, 7, 19}),
                        frozenset({5, 8, 13, 15, 18})}


def test_c10_hopping_regression():
    cloud = generate_uniform_points(20, box_side=1.0, seed=HOP_SEED)
    raw = cloud.distance_matrix()

    def params(alpha):
        return ModelParams(channel=ChannelModel(**HOP_PARAMS),
                           distill=DistillationParams(m=1, alpha=alpha),
                           range_mode="exact", beta_cap=True)

    report = run(init_state(cloud, params(0.585)))
    verify_report(report)
    assert report.partition_sets() == HOP_PARTITION
    members = replay_members(report)
    hop_merges = []
    for ev in report.events:
        if isinstance(ev, MergeEvent):
            a_set, b_set = members[ev.a], members[ev.b]
            raw_min = float(raw[np.ix_(sorted(a_set), sorted(b_set))].min())
            if ev.distance < raw_min * (1 - 1e-9):
                hop_merges.append((a_set, b_set, ev.distance, raw_min))
    assert len(hop_merges) == 1, "expected exactly one shortcut-borne merge"
    a_set, b_set, d_used, raw_min = hop_merges[0]
    assert {a_set, b_set} == {HOP_BLOCK_A, HOP_BLOCK_B}

    report0 = run(init_state(cloud, params(0.0)))
    assert report0.partition_sets() == HOP_PARTITION_ALPHA0
    blocks0 = report0.partition_sets()
    assert not any((HOP_BLOCK_A & blk) and (HOP_BLOCK_B & blk) for blk in blocks0)
    ok(10, f"blocks of sizes {len(HOP_BLOCK_A)} and {len(HOP_BLOCK_B)} joined via a "
           f"relay shortcut ({d_used:.4f} < raw {raw_min:.4f}); separate at alpha=0")


def test_c11_monotonicity_and_conservation():
    checked_runs = 0
    for seed in range(0, 100, 7):
        network = random_instance(seed + 600_000, max_n=50)
        params = random_params(seed + 600_000, network)
        state = init_state(network, params, debug_checks=True)
        report = reference_schedule(state, choose=random.Random(seed).choice)
        verify_report(report)  # coverage, criterion validity, no post-isolation merges
        for ev in report.events:
            if isinstance(ev, MergeEvent):
                assert ev.new_range >= max(ev.range_a, ev.range_b) * (1 - 1e-12)
        # distances never increase: checked per rule step, on one tracked node
        # pair, by test_engine_properties.py::test_tracked_pair_distance_never_increases
        checked_runs += 1
    ok(11, f"range growth, distance shrinkage, conservation and isolation "
           f"permanence verified on {checked_runs} instrumented runs "
           f"(plus every run in criteria 5 and 6)")
