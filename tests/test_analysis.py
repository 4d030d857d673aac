"""Harness tests: scenarios, sweeps, threshold search, complexity estimates."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import disk_percolation_oracle, random_instance
from qnetperc import analysis, topology
from qnetperc.analysis import (ComplexityParams, Scenario, SweepSpec,
                               coherence_time, complexity_f, find_threshold,
                               interpolate_f, min_d0_for_target, scenario_params,
                               sweep_connectivity, threshold_to_json,
                               worst_case_n, write_aggregate_csv, write_curve_csv)
from qnetperc.engine import init_state, run
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams
from qnetperc.topology import (PointCloud, RepeaterConfig, build_network,
                               generate_fiber_network, generate_uniform_points,
                               insert_repeaters)

CP = ComplexityParams(m=102, p=0.722)


@pytest.fixture
def no_engine_runs(monkeypatch):
    """Any giant-fraction probe fails the test, so a search refused up front
    is never entered (and one that would never end stops at its first probe)."""
    def probe(network, params):
        raise AssertionError("the search probed a network")
    monkeypatch.setattr(analysis, "_p_inf", probe)


def base_params(d0=300.0, eps=0.01, m=102, alpha=0.585):
    return ModelParams(channel=ChannelModel(d0_km=d0, epsilon=eps),
                       distill=DistillationParams(m=m, alpha=alpha))


class TestScenarios:
    def test_no_memory_range(self):
        p = scenario_params(base_params(), Scenario.NO_MEMORY)
        assert p.base_range_km() == pytest.approx(4 / 3 * 0.01 * 300.0, rel=1e-12)
        assert p.component_range_km(100) == p.base_range_km()

    def test_point_to_point_range(self):
        p = scenario_params(base_params(), Scenario.POINT_TO_POINT)
        assert p.base_range_km() == pytest.approx(
            4 / 3 * 0.01 * 102 ** 0.585 * 300.0, rel=1e-12)
        assert p.component_range_km(100) == p.base_range_km()

    def test_distributed_range_grows(self):
        p = scenario_params(base_params(), Scenario.DISTRIBUTED)
        assert p.component_range_km(4) > p.base_range_km()


class TestComplexityTable:
    def test_headline_values(self):
        assert complexity_f(102, CP) == pytest.approx(7.0, rel=0.20)
        assert complexity_f(204, CP) == pytest.approx(1.3e3, rel=0.20)
        assert complexity_f(408, CP) == pytest.approx(1.1e6, rel=0.20)

    def test_monotone_in_n(self):
        values = [complexity_f(n, CP) for n in np.arange(2, 1200, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_p(self):
        for n in (51, 102, 204, 408, 1000):
            vals = [complexity_f(n, ComplexityParams(m=102, p=p))
                    for p in (0.5, 0.6, 0.722, 0.9)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_subexponential_growth(self):
        # ln f ~ (ln n)^2 / ln 2 asymptotically; slope within 25% at large n,
        # and ln f / n keeps falling across halving points
        ks = range(1, 28)
        ns = [102 * 2 ** k for k in ks]
        fs = [complexity_f(n, CP) for n in ns]
        per_n = [math.log(f) / n for f, n in zip(fs, ns)]
        assert all(b < a for a, b in zip(per_n, per_n[1:]))
        slope = math.log(fs[-1]) / math.log(ns[-1]) ** 2
        assert abs(slope - 1 / math.log(2)) <= 0.25 / math.log(2)

    def test_eta_reduces_pair_count(self):
        cp9 = ComplexityParams(m=102, p=0.722, eta=0.9)
        # distilling n^eta pairs: same as evaluating the full recursion there
        assert complexity_f(1000, cp9) == complexity_f(1000 ** 0.9, CP)
        assert complexity_f(1000, cp9) < complexity_f(1000, CP)

    def test_domain(self):
        with pytest.raises(ValueError):
            complexity_f(0.5, CP)
        with pytest.raises(ValueError):
            ComplexityParams(m=102, p=1.0)


class TestInterpolation:
    def test_exact_at_halving_points(self):
        for n in (102, 204, 408, 51):
            assert interpolate_f(n, CP) == complexity_f(n, CP)

    def test_geometric_midpoint_between_points(self):
        f = interpolate_f(245, CP)
        expected = math.sqrt(complexity_f(204, CP) * complexity_f(408, CP))
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx(4e4, rel=1.0)  # within a factor of two

    def test_midpoint_of_equal_values_is_that_value(self):
        # the log-space midpoint of two equal values is that value
        f_lo = complexity_f(204, CP)
        assert 10 ** (0.5 * (math.log10(f_lo) + math.log10(f_lo))) == pytest.approx(
            f_lo, rel=1e-12)


class TestWorstCase:
    def test_reference_operating_point(self):
        assert worst_case_n(0.01, 100.0, 300.0, 0.585) == 245

    def test_single_pair_boundary(self):
        # d_worst = (4/3) eps d0 makes the base exactly 1
        assert worst_case_n(0.01, 4 / 3 * 0.01 * 300.0, 300.0, 0.585) == 1

    def test_doubling_distance(self):
        n1 = worst_case_n(0.01, 100.0, 300.0, 0.585)
        n2 = worst_case_n(0.01, 200.0, 300.0, 0.585)
        assert n2 == pytest.approx(n1 * 2 ** (1 / 0.585), abs=1.0)

    def test_alpha_zero_undefined(self):
        with pytest.raises(ValueError):
            worst_case_n(0.01, 100.0, 300.0, 0.0)


class TestCoherence:
    def test_reference_value(self):
        assert coherence_time(4e4, 1e6) == pytest.approx(0.04, rel=1e-12)

    def test_unit_and_zero(self):
        assert coherence_time(123.0, 123.0) == 1.0
        assert coherence_time(0.0, 1e6) == 0.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            coherence_time(1.0, 0.0)


class TestSweep:
    def net(self):
        return build_network([("a", "b", 30.0), ("b", "c", 40.0), ("c", "d", 35.0)])

    def test_tiny_d0_gives_singletons(self):
        spec = SweepSpec(d0_grid_km=(1e-6,), seeds=(0,))
        rows, agg = sweep_connectivity(self.net(), base_params(), spec)
        assert all(r.p_inf == 0.25 for r in rows)

    def test_huge_d0_connects_everything(self):
        spec = SweepSpec(d0_grid_km=(1e7,), seeds=(0,))
        rows, _ = sweep_connectivity(self.net(), base_params(), spec)
        assert all(r.p_inf == 1.0 for r in rows)

    def test_scenario_ordering_pointwise(self):
        spec = SweepSpec(d0_grid_km=(50.0, 200.0, 1000.0), seeds=(0, 1))
        rows, agg = sweep_connectivity(self.net(), base_params(), spec)
        by = {(r.scenario, r.d0_km, r.seed): r.p_inf for r in rows}
        for d0 in spec.d0_grid_km:
            for seed in spec.seeds:
                assert (by[("no_memory", d0, seed)]
                        <= by[("point_to_point", d0, seed)]
                        <= by[("distributed", d0, seed)])

    def test_csv_formats(self, tmp_path):
        spec = SweepSpec(d0_grid_km=(100.0,), seeds=(0, 1),
                         scenarios=(Scenario.DISTRIBUTED,))
        rows, agg = sweep_connectivity(self.net(), base_params(), spec)
        curve, aggregate = tmp_path / "c.csv", tmp_path / "a.csv"
        write_curve_csv(rows, curve)
        write_aggregate_csv(agg, aggregate)
        lines = curve.read_text().splitlines()
        assert lines[0] == "scenario,d0_km,seed,p_inf"
        assert len(lines) == 3
        assert aggregate.read_text().splitlines()[0] == "scenario,d0_km,mean,std,n"

    def test_jobs_below_one_rejected(self):
        spec = SweepSpec(d0_grid_km=(100.0,), seeds=(0,))
        with pytest.raises(ValueError, match="jobs"):
            sweep_connectivity(self.net(), base_params(), spec, jobs=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(d0_grid_km=(2.0, 1.0))
        with pytest.raises(ValueError):
            SweepSpec(d0_grid_km=(1.0,), seeds=())

    def test_parallel_jobs_match_serial(self):
        spec = SweepSpec(d0_grid_km=(50.0, 500.0), seeds=(0, 1),
                         scenarios=(Scenario.DISTRIBUTED, Scenario.NO_MEMORY))
        rows1, _ = sweep_connectivity(self.net(), base_params(), spec, jobs=1)
        rows2, _ = sweep_connectivity(self.net(), base_params(), spec, jobs=2)
        assert rows1 == rows2


class TestFindThreshold:
    def factory(self, n=120):
        return lambda seed: generate_uniform_points(n, box_side=1.0, seed=seed)

    def alpha_params(self, alpha):
        return ModelParams(channel=ChannelModel(d0_km=100.0, epsilon=0.001),
                           distill=DistillationParams(m=1, alpha=alpha))

    def test_trivial_target_hits_zero(self):
        est = find_threshold(self.factory(), self.alpha_params(0.0),
                             target=1 / 120, tol=0.01,
                             eps_lo=1e-6, eps_hi=1e-2, seeds=(0, 1))
        assert est.r0_th == 0.0

    def test_target_met_at_eps_lo_probes_only_eps_lo(self):
        params = self.alpha_params(0.0)
        est = find_threshold(self.factory(), params, target=1 / 120, tol=0.01,
                             eps_lo=1e-6, eps_hi=1e-2, seeds=(0, 1))
        r0_lo = dataclasses.replace(
            params, channel=dataclasses.replace(params.channel, epsilon=1e-6)).base_range_km()
        assert (est.r0_th, est.ci_low, est.ci_high) == (0.0, 0.0, 0.0)
        assert est.probes == ((r0_lo, pytest.approx(1 / 120)),)

    def test_unreachable_message_names_bracket_means_and_target(self):
        with pytest.raises(ValueError) as info:
            find_threshold(self.factory(), self.alpha_params(0.0),
                           target=0.99, tol=0.01,
                           eps_lo=1e-7, eps_hi=2e-7, seeds=(0,))
        msg = str(info.value)
        assert "bracket" in msg and "unreachable" in msg
        assert "1e-07" in msg and "2e-07" in msg and "0.99" in msg
        assert msg.count("0.0083") == 2  # one node of 120 at both ends

    def test_no_replicates_raises(self):
        with pytest.raises(ValueError, match="network"):
            find_threshold(self.factory(), self.alpha_params(0.0), target=0.5,
                           eps_lo=1e-4, eps_hi=1e-2, seeds=())

    def test_nan_tol_raises_before_any_probe(self, no_engine_runs):
        # NaN passes a tol <= 0 check, and the search took the bracket ends
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            find_threshold(self.factory(), self.alpha_params(0.0), target=0.5,
                           tol=math.nan, eps_lo=1e-4, eps_hi=3e-3, seeds=(0,))

    @pytest.mark.parametrize("target", [-1.0, 0.0, 1.5, math.nan])
    def test_target_outside_the_unit_interval_raises(self, no_engine_runs, target):
        with pytest.raises(ValueError, match=r"target must lie in \(0, 1\]"):
            find_threshold(self.factory(), self.alpha_params(0.0), target=target,
                           eps_lo=1e-4, eps_hi=3e-3, seeds=(0,))

    def test_non_bracketing_raises(self):
        with pytest.raises(ValueError, match="bracket"):
            find_threshold(self.factory(), self.alpha_params(0.0),
                           target=0.99, tol=0.01,
                           eps_lo=1e-7, eps_hi=2e-7, seeds=(0,))

    def test_self_consistency_across_seed_sets(self):
        params = self.alpha_params(0.0)
        ests = [find_threshold(self.factory(), params, target=0.5, tol=2e-3,
                               eps_lo=1e-4, eps_hi=5e-3,
                               seeds=tuple(range(10 * k, 10 * k + 5)))
                for k in range(3)]
        for a in ests:
            for b in ests:
                assert a.ci_low <= b.r0_th <= a.ci_high or \
                       b.ci_low <= a.r0_th <= b.ci_high

    def test_bracket_invariance(self):
        params = self.alpha_params(0.585)
        kw = dict(target=0.5, tol=2e-3, seeds=(3, 4, 5, 6))
        a = find_threshold(self.factory(), params, eps_lo=1e-4, eps_hi=5e-3, **kw)
        b = find_threshold(self.factory(), params, eps_lo=5e-5, eps_hi=8e-3, **kw)
        assert abs(a.r0_th - b.r0_th) <= (a.ci_high - a.ci_low) + (b.ci_high - b.ci_low) + 4e-3

    def test_json_schema(self):
        est = find_threshold(self.factory(60), self.alpha_params(0.0),
                             target=0.5, tol=5e-3,
                             eps_lo=1e-4, eps_hi=1e-2, seeds=(0, 1, 2))
        doc = threshold_to_json(est)
        assert set(doc) == {"alpha", "r0_th", "ci_low", "ci_high", "replicates",
                            "probes"}
        assert doc["replicates"] == 3
        assert doc["probes"] == [[r0, p] for r0, p in est.probes]
        assert json.loads(json.dumps(doc)) == doc


class TestMinD0:
    def test_line_network(self):
        net = build_network([("a", "b", 30.0), ("b", "c", 30.0)])
        params = scenario_params(base_params(), Scenario.NO_MEMORY)
        # links need r0 = 0.0133 d0 > 30 km, so d0 just above 2250 km
        res = min_d0_for_target(net, params, target=0.99, d0_lo=100.0,
                                d0_hi=1e5, rel_tol=0.01)
        assert res["d0_km"] == pytest.approx(30.0 / (4 / 3 * 0.01), rel=0.02)

    def test_unreachable_target_raises(self):
        net = build_network([], extra_nodes=["a", "b"])
        with pytest.raises(ValueError, match="unreachable"):
            min_d0_for_target(net, base_params(), target=0.9,
                              d0_lo=1.0, d0_hi=10.0)

    def test_target_met_at_d0_lo(self):
        net = build_network([("a", "b", 30.0)])
        params = scenario_params(base_params(), Scenario.NO_MEMORY)
        res = min_d0_for_target(net, params, target=0.5, d0_lo=1e6, d0_hi=1e7)
        assert res == {"d0_km": 1e6, "bracket": (1e6, 1e6), "probes": [(1e6, 1.0)]}

    def test_nan_rel_tol_raises_before_any_probe(self, no_engine_runs):
        # NaN never narrows, so the search returned d0_hi after two probes
        net = build_network([("a", "b", 30.0)])
        with pytest.raises(ValueError, match="rel_tol must be positive, got nan"):
            min_d0_for_target(net, base_params(), d0_lo=1.0, d0_hi=1e4,
                              rel_tol=math.nan)

    @pytest.mark.parametrize("rel_tol", [0.0, -0.5])
    def test_rel_tol_at_or_below_zero_raises_before_the_loop(self, no_engine_runs,
                                                            rel_tol):
        # b / a > 1 + rel_tol always holds there, so the bisection would never end
        net = build_network([("a", "b", 30.0)])
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            min_d0_for_target(net, base_params(), d0_lo=1.0, d0_hi=1e4,
                              rel_tol=rel_tol)

    @pytest.mark.parametrize("target", [-1.0, 0.0, 1.5, math.nan])
    def test_target_outside_the_unit_interval_raises(self, no_engine_runs, target):
        net = build_network([("a", "b", 30.0)])
        with pytest.raises(ValueError, match=r"target must lie in \(0, 1\]"):
            min_d0_for_target(net, base_params(), target=target, d0_lo=1.0, d0_hi=1e4)

    def test_no_replicates_raises(self):
        net = build_network([("a", "b", 30.0)])
        with pytest.raises(ValueError, match="network"):
            min_d0_for_target(net, base_params(), target=0.9,
                              d0_lo=1.0, d0_hi=1e4, seeds=())


class TestReplicateMemo:
    """A second search over the same replicate factory builds no network."""

    def test_second_min_d0_search_builds_nothing(self, monkeypatch):
        fiber = generate_fiber_network(30, 33, mean_length_km=500.0, seed=2)

        def search():
            return min_d0_for_target(
                lambda seed: insert_repeaters(fiber, RepeaterConfig(100.0, seed)),
                scenario_params(base_params(), Scenario.DISTRIBUTED), target=0.9,
                d0_lo=100.0, d0_hi=1e6, rel_tol=0.02, seeds=(3, 4))

        builds = []
        build_network = topology.build_network
        monkeypatch.setattr(topology, "build_network",
                            lambda *args, **kw: builds.append(args) or build_network(*args, **kw))
        first = search()
        assert len(builds) == 2
        builds.clear()
        assert search() == first
        assert builds == []
        topology.insert_repeaters.cache_clear()
        assert search() == first  # the cold-cache answer
        assert len(builds) == 2

    def test_second_threshold_search_runs_no_prim(self, monkeypatch):
        def search():
            return find_threshold(
                lambda seed: generate_uniform_points(80, box_side=1.0, seed=seed),
                base_params(d0=100.0, eps=0.001), target=0.5, tol=5e-3,
                eps_lo=1e-4, eps_hi=1e-2, seeds=(0, 1), n_boot=50)

        prims = []
        mst_edges = topology._mst_edges
        monkeypatch.setattr(topology, "_mst_edges",
                            lambda positions: prims.append(1) or mst_edges(positions))
        first = search()
        assert len(prims) == 2
        assert search() == first
        assert len(prims) == 2


# ---------------------------------------------------------------------------
# Bisection pins: small instances, every probe, values as first recorded
# ---------------------------------------------------------------------------

class TestBisectionPins:
    FT_PINS = {
        # alpha: (r0_th, ci_low, ci_high, probes as (r0, mean p_inf))
        0.0: (0.12677083333333333, 0.12495659722222222, 0.13053886217948718, [
            (0.013333333333333334, 0.018750000000000003),
            (0.09583333333333333, 0.26875000000000004), (0.11645833333333332, 0.2875),
            (0.12161458333333332, 0.29374999999999996), (0.12419270833333332, 0.31875),
            (0.12677083333333333, 0.5), (0.13708333333333333, 0.95),
            (0.17833333333333332, 0.9875), (0.3433333333333333, 1.0),
            (0.6733333333333332, 1.0), (1.3333333333333333, 1.0)]),
        0.585: (0.08130779979674796, 0.06994237588652483, 0.08231559684684683, [
            (0.013333333333333334, 0.018750000000000003),
            (0.05458333333333333, 0.06875), (0.07520833333333334, 0.39375000000000004),
            (0.08036458333333332, 0.40625), (0.08294270833333332, 0.6625000000000001),
            (0.08552083333333334, 0.71875), (0.09583333333333333, 0.85625),
            (0.17833333333333332, 1.0), (0.3433333333333333, 1.0),
            (0.6733333333333332, 1.0), (1.3333333333333333, 1.0)]),
    }
    MD_PINS = {
        # scenario: (d0_km, bracket, probes as (d0, mean p_inf))
        Scenario.DISTRIBUTED: (654.982579561603, (642.4351578655237, 654.982579561603), [
            (50.0, 0.021980676328502417), (594.6035575013606, 0.8510869565217392),
            (642.4351578655237, 0.864855072463768), (654.982579561603, 0.9204106280193236),
            (667.7750653537106, 0.9204106280193236), (694.1144681273723, 0.9204106280193236),
            (810.2791999569268, 0.9833937198067633), (1104.1850887031314, 0.9889492753623188),
            (2050.4833762477992, 1.0), (7071.067811865475, 1.0), (1000000.0, 1.0)]),
        Scenario.NO_MEMORY: (28465.40356216519, (27920.095284679974, 28465.40356216519), [
            (50.0, 0.008272946859903381), (7071.067811865475, 0.14565217391304347),
            (24384.49420228684, 0.8833333333333333), (26346.05223040773, 0.8972222222222221),
            (27385.233411611418, 0.8972222222222221), (27920.095284679974, 0.8972222222222221),
            (28465.40356216519, 1.0), (33229.28059262089, 1.0), (45282.263373729445, 1.0),
            (84089.64152537145, 1.0), (1000000.0, 1.0)]),
    }

    @pytest.mark.parametrize("alpha", sorted(FT_PINS))
    def test_find_threshold(self, alpha):
        params = ModelParams(channel=ChannelModel(d0_km=100.0, epsilon=0.001),
                             distill=DistillationParams(m=1, alpha=alpha))
        est = find_threshold(
            lambda seed: generate_uniform_points(80, box_side=1.0, seed=seed), params,
            target=0.5, tol=5e-3, eps_lo=1e-4, eps_hi=1e-2, seeds=(0, 1), n_boot=200)
        r0_th, ci_low, ci_high, probes = self.FT_PINS[alpha]
        assert est.r0_th == r0_th
        assert (est.ci_low, est.ci_high) == (ci_low, ci_high)
        assert est.probes == tuple(probes)

    @pytest.mark.parametrize("scenario", list(MD_PINS), ids=lambda s: s.value)
    def test_min_d0_for_target(self, scenario):
        fiber = generate_fiber_network(n_nodes=40, n_edges=48, mean_length_km=300.0,
                                       seed=2)
        res = min_d0_for_target(
            lambda seed: insert_repeaters(fiber, RepeaterConfig(mean_segment_km=100.0,
                                                                seed=seed)),
            scenario_params(base_params(), scenario), target=0.9,
            d0_lo=50.0, d0_hi=1e6, rel_tol=0.02, seeds=(0, 1))
        d0_km, bracket, probes = self.MD_PINS[scenario]
        assert res["d0_km"] == d0_km
        assert res["bracket"] == bracket
        assert res["probes"] == probes


# ---------------------------------------------------------------------------
# The bootstrap against the per-resample loop
# ---------------------------------------------------------------------------

def loop_crossing(points, target: float) -> float:
    """First crossing of one (x, y) curve with the target level, step by step."""
    if points[0][1] >= target:
        return 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y1 >= target:
            if y1 == y0:
                return x1
            return x0 + (target - y0) * (x1 - x0) / (y1 - y0)
    return points[-1][0]


def loop_bootstrap_ci(x, per_seed, target, n_boot, boot_seed):
    """The bootstrap one resample at a time: a draw, a mean and a crossing each."""
    rng = np.random.default_rng(boot_seed)
    k = per_seed.shape[1]
    boots = []
    for _ in range(n_boot):
        pick = rng.integers(0, k, size=k)
        curve = per_seed[:, pick].mean(axis=1)
        boots.append(loop_crossing(list(zip(x, curve)), target))
    return np.percentile(boots, [2.5, 97.5])


@st.composite
def probe_curves(draw):
    """Probe positions, per-seed curves (probes, seeds) and a target level.

    Each seed's curve is non-decreasing, as monotone coupling makes it, on
    a grid of fractions, so values tie within and across seeds.  The target
    may be a probe value, a mean value, met at the first probe by every
    seed, or above every value.
    """
    k, p = draw(st.integers(1, 11)), draw(st.integers(2, 15))
    x = sorted(draw(st.lists(st.floats(1e-3, 10.0), min_size=p, max_size=p, unique=True)))
    n = draw(st.sampled_from([8, 80, 120]))
    level = st.integers(0, n)
    per_seed = np.array([sorted(draw(st.lists(level, min_size=p, max_size=p)))
                         for _ in range(k)]).T / n
    kind = draw(st.sampled_from(["probe", "mean", "any", "first", "never"]))
    if kind == "probe":
        target = draw(st.sampled_from(per_seed.ravel().tolist()))
    elif kind == "mean":
        target = draw(st.sampled_from(per_seed.mean(axis=1).tolist()))
    elif kind == "any":
        target = draw(st.floats(0.0, 1.0))
    elif kind == "first":
        target = float(per_seed[0].min())
    else:
        target = float(per_seed[-1].max()) + 0.01
    return x, per_seed, target


@pytest.mark.oracle
class TestBootstrap:
    """find_threshold's bootstrap in one numpy pass equals the per-resample loop."""

    # the batched draw equals one draw per resample only as a property of
    # numpy's generator; a numpy upgrade that breaks it fails here
    @given(curves=probe_curves(), n_boot=st.integers(1, 60), boot_seed=st.integers(0, 2**32))
    @example(curves=([0.1, 0.2, 0.3], np.array([[0.5, 0.5], [0.6, 0.7], [0.8, 0.9]]), 0.5),
             n_boot=20, boot_seed=0)  # met at the first probe
    @example(curves=([0.1, 0.2, 0.3], np.array([[0.0, 0.1], [0.2, 0.3], [0.4, 0.4]]), 0.9),
             n_boot=20, boot_seed=0)  # never met
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_resample_loop(self, curves, n_boot, boot_seed):
        x, per_seed, target = curves
        assert (analysis._bootstrap_ci(x, per_seed, target, n_boot, boot_seed).tolist()
                == loop_bootstrap_ci(x, per_seed, target, n_boot, boot_seed).tolist())
        means = per_seed.mean(axis=1)
        assert (analysis._crossings(x, means[:, None], target).tolist()
                == [loop_crossing(list(zip(x, means)), target)])

    def test_find_threshold_ci_equals_the_loop(self, monkeypatch):
        params = ModelParams(channel=ChannelModel(d0_km=100.0, epsilon=0.001),
                             distill=DistillationParams(m=1, alpha=0.585))

        def search():
            return find_threshold(
                lambda seed: generate_uniform_points(80, box_side=1.0, seed=seed), params,
                target=0.5, tol=5e-3, eps_lo=1e-4, eps_hi=1e-2, seeds=(0, 1, 2),
                n_boot=300, boot_seed=5)

        est = search()
        assert est.ci_low < est.r0_th < est.ci_high
        monkeypatch.setattr(analysis, "_bootstrap_ci", loop_bootstrap_ci)
        assert search() == est

    @pytest.mark.parametrize("n_boot", [0, -1])
    def test_n_boot_below_one_raises(self, n_boot):
        with pytest.raises(ValueError, match="n_boot"):
            find_threshold(lambda seed: generate_uniform_points(20, seed=seed),
                           base_params(), target=0.5, eps_lo=1e-4, eps_hi=1e-2,
                           n_boot=n_boot)


# ---------------------------------------------------------------------------
# Fixed-range probes: the Kruskal curve against the engine
# ---------------------------------------------------------------------------

FIXED_RANGE_KINDS = ("alpha_zero", "no_growth", "beta_capped")


def fixed_range_params(kind: str, d0: float, m: int = 1) -> ModelParams:
    """Params of one fixed-range kind; r0 is d0 itself except when beta-capped.

    (4/3) * 0.75 is exactly 1.0, so alpha_zero and no_growth give r0 = d0.
    beta_capped has a base range of at least 1.2 d0, above beta, so
    r0 = d0 ln 3.
    """
    if kind == "alpha_zero":
        return ModelParams(channel=ChannelModel(d0_km=d0, epsilon=0.75),
                           distill=DistillationParams(m=m, alpha=0.0))
    if kind == "no_growth":
        return ModelParams(channel=ChannelModel(d0_km=d0, epsilon=0.75),
                           distill=DistillationParams(m=1, alpha=0.585),
                           size_growth=False)
    return ModelParams(channel=ChannelModel(d0_km=d0, epsilon=0.9),
                       distill=DistillationParams(m=m, alpha=0.585))


def params_at(kind: str, r0: float, m: int) -> ModelParams | None:
    """Params of the given kind whose range is exactly r0, if a d0 gives it."""
    d0 = r0 if kind != "beta_capped" else r0 / math.log(3.0)
    for step in (0, 1, -1, 2, -2, 3, -3):
        cand = d0
        for _ in range(abs(step)):
            cand = math.nextafter(cand, math.copysign(math.inf, step))
        params = fixed_range_params(kind, cand, m)
        if params.component_range_km(1) == r0:
            return params
    return None


def just_above(params: ModelParams) -> ModelParams:
    """The same kind one d0 ulp further on, until r0 has strictly grown."""
    r0, out = params.component_range_km(1), params
    while out.component_range_km(1) <= r0:
        d0 = math.nextafter(out.channel.d0_km, math.inf)
        out = dataclasses.replace(out, channel=dataclasses.replace(out.channel,
                                                                   d0_km=d0))
    return out


def instance_of_kind(seed: int, cloud: bool):
    """The first random_instance from seed on that is (or is not) a point cloud."""
    while True:
        network = random_instance(seed, max_n=30)
        if isinstance(network, PointCloud) == cloud:
            return network
        seed += 1


def edge_lengths(network) -> list[float]:
    """Lengths the cut can fall on: cables, or each point's nearest distance."""
    if isinstance(network, PointCloud):
        mat = network.distance_matrix()
        np.fill_diagonal(mat, np.inf)
        return sorted(set(mat.min(axis=1).tolist()) - {math.inf})  # N = 1 has none
    return sorted({length for _, _, length in network.edges})


def curve_p_inf(network, params) -> float:
    p = analysis._fixed_p_inf(network, params)
    assert p is not None, "the params fix the range, so the curve must answer"
    return p


# no join at any r0: the forest's running maximum is its leading 1 alone
NO_JOIN_NETWORKS = (build_network([], extra_nodes=["x", "y", "z"]),
                    PointCloud(positions=np.array([[0.25, 0.5]])))


@pytest.mark.oracle
class TestFixedRangeCurve:
    @given(network=st.one_of(st.builds(instance_of_kind, st.integers(0, 40_000),
                                       st.booleans()),
                             st.sampled_from(NO_JOIN_NETWORKS)),
           kind=st.sampled_from(FIXED_RANGE_KINDS), m=st.sampled_from([1, 4, 102]),
           pick=st.floats(0.0, 1.0))
    @example(network=NO_JOIN_NETWORKS[0], kind="alpha_zero", m=1, pick=0.0)
    @example(network=NO_JOIN_NETWORKS[1], kind="beta_capped", m=4, pick=0.0)
    @settings(max_examples=60, deadline=None)
    def test_curve_matches_engine_at_and_above_an_edge(self, network, kind, m, pick):
        lengths = edge_lengths(network) or [1.0]  # without a join, any r0 will do
        length = lengths[min(int(pick * len(lengths)), len(lengths) - 1)]
        at = params_at(kind, length, m)
        assume(at is not None)
        for params in (at, just_above(at)):
            engine = run(init_state(network, params)).p_inf
            assert curve_p_inf(network, params) == engine

    def test_growing_ranges_run_the_engine(self):
        params = base_params(alpha=0.585)
        assert analysis._fixed_p_inf(generate_uniform_points(20, seed=1), params) is None

    def test_coincident_points_join(self):
        # points 5..9 twice and 10, 11 three times; none of them is point 0,
        # where the spanning tree starts
        base = generate_uniform_points(30, seed=4).positions
        cloud = PointCloud(positions=np.vstack([base, base[5:10], base[10:12],
                                                base[10:12]]))
        for r0 in (1e-6, 0.05, 0.1):
            params = fixed_range_params("alpha_zero", r0)
            report = run(init_state(cloud, params))
            assert report.partition_sets() == disk_percolation_oracle(cloud, r0)
            assert curve_p_inf(cloud, params) == report.p_inf
        assert curve_p_inf(cloud, fixed_range_params("alpha_zero", 1e-6)) == 3 / 39

    def test_searches_match_engine_only(self, monkeypatch):
        def clouds(seed):
            return generate_uniform_points(80, box_side=1.0, seed=seed)

        fiber = generate_fiber_network(30, 33, mean_length_km=500.0, seed=2)

        def fibers(seed):
            return insert_repeaters(fiber, RepeaterConfig(mean_segment_km=100.0,
                                                          seed=seed))

        alpha0 = ModelParams(channel=ChannelModel(d0_km=100.0, epsilon=0.001),
                             distill=DistillationParams(m=1, alpha=0.0))
        spec = SweepSpec(d0_grid_km=(300.0, 3000.0, 30000.0), seeds=(3, 4))

        def searches():
            return (
                find_threshold(clouds, alpha0, target=0.5, tol=2e-3, eps_lo=1e-4,
                               eps_hi=5e-3, seeds=(0, 1, 2), n_boot=200),
                [min_d0_for_target(fibers, scenario_params(base_params(), sc),
                                   target=0.9, d0_lo=100.0, d0_hi=1e6,
                                   rel_tol=0.02, seeds=(3, 4))
                 for sc in (Scenario.NO_MEMORY, Scenario.POINT_TO_POINT)],
                sweep_connectivity(fibers, base_params(), spec),
            )

        runs = []
        engine_run = analysis._run_p_inf
        monkeypatch.setattr(analysis, "_run_p_inf",
                            lambda *args: runs.append(args) or engine_run(*args))
        fast = searches()
        # only the sweep's distributed scenario grows its ranges
        assert len(runs) == len(spec.d0_grid_km) * len(spec.seeds)
        monkeypatch.setattr(analysis, "_fixed_p_inf", lambda network, params: None)
        assert searches() == fast
        # engine runs from singletons instead of from the cut at r0
        monkeypatch.setattr(analysis, "_run_p_inf",
                            lambda network, params: run(init_state(network, params)).p_inf)
        assert searches() == fast
