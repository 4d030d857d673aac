"""Experiment harness: connectivity sweeps, threshold search, time-complexity estimates.

Three memory-utilization scenarios are compared throughout:

- no_memory:      every node keeps the bare channel range (4/3) eps d0;
- point_to_point: nodes use their own m memories, range fixed at
                  (4/3) eps m^(eta*alpha) d0;
- distributed:    components pool all m*s memories, range grows with size.

Threshold searches exploit a monotone-coupling property of the engine:
scaling every range up (through eps or d0) never splits a final block, so
the mean giant fraction is monotone and bisection is valid.

Fixed ranges.  When the params give a network's largest possible component
the same range as a single node (size_growth=False, eta*alpha = 0, or a
base range already at the beta cap), every component keeps the range r0
for the whole run.  An isolated component then has every leg at or beyond
r0, so each shortcut it leaves is at least 2*r0 and never connects: the
engine's fixed point is the single-linkage cut d < r0, whose blocks are the
connected components of the graph of strictly shorter edges.  Every probe
asks for the largest of them, at its own r0.  The network's cached merge
forest (topology: one Kruskal pass over its linkage edges, an edge list's
own edges or a point cloud's minimum spanning tree, which has the same
components at every cut) holds the running maximum of the block sizes it
joins, so the giant-fraction curve is one column of the forest and each
probe reads it at the count of joins shorter than r0 instead of running
the engine (after Newman & Ziff, PRL 85, 4104, 2000).  The lengths are the
floats the engine compares and p_inf is the same integer over N, so the
values are bit-identical.  A probe whose ranges can grow runs the engine,
which starts from this same cut, taken from the same forest (init_state
without an event log), and goes on to the cut's contraction closure: every
merge along a linkage edge that the growing ranges allow before any
reduction, on both kinds of network.  The engine module docstring gives why
that start leaves a run's own partition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import init_state, run
from .quantum import ModelParams

__all__ = [
    "Scenario", "SweepSpec", "SweepRow", "ThresholdEstimate", "ComplexityParams",
    "scenario_params", "sweep_connectivity", "find_threshold", "min_d0_for_target",
    "complexity_f", "interpolate_f", "worst_case_n", "coherence_time",
    "write_curve_csv", "write_aggregate_csv", "threshold_to_json",
]


class Scenario(enum.Enum):
    NO_MEMORY = "no_memory"
    POINT_TO_POINT = "point_to_point"
    DISTRIBUTED = "distributed"


def scenario_params(params: ModelParams, scenario: Scenario) -> ModelParams:
    """Specialize a parameter bundle to one memory-utilization scenario."""
    if scenario is Scenario.NO_MEMORY:
        return replace(params, distill=replace(params.distill, m=1), size_growth=False)
    if scenario is Scenario.POINT_TO_POINT:
        return replace(params, size_growth=False)
    if scenario is Scenario.DISTRIBUTED:
        return replace(params, size_growth=True)
    raise ValueError(f"unknown scenario {scenario!r}")


# ---------------------------------------------------------------------------
# Connectivity sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid of decoherence distances crossed with scenarios and replicate seeds."""

    d0_grid_km: tuple[float, ...]
    scenarios: tuple[Scenario, ...] = tuple(Scenario)
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if len(self.d0_grid_km) == 0 or any(d <= 0 for d in self.d0_grid_km):
            raise ValueError("d0 grid must be non-empty and positive")
        if list(self.d0_grid_km) != sorted(set(self.d0_grid_km)):
            raise ValueError("d0 grid must be strictly increasing")
        if len(self.seeds) < 1:
            raise ValueError("at least one replicate seed is required")
        if len(set(self.scenarios)) < len(self.scenarios):
            raise ValueError(f"scenarios must be distinct, got "
                             f"{[s.value for s in self.scenarios]}")


@dataclass(frozen=True)
class SweepRow:
    scenario: str
    d0_km: float
    seed: int
    p_inf: float


def _replicates(network, seeds) -> list:
    """The network of each replicate seed, in order.

    network may be a topology object (one replicate) or a seed -> topology
    factory.  A repeated seed, or an object under several seeds, is refused
    before any network is built: it would weight one replicate twice.
    """
    seeds = tuple(seeds)
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"replicate seeds must be distinct, got {seeds}")
    if not callable(network) and len(seeds) > 1:
        raise ValueError(f"a fixed network is one replicate, got seeds {seeds}")
    networks = [network(seed) if callable(network) else network for seed in seeds]
    if not networks:
        raise ValueError("at least one network (replicate seed) is required")
    return networks


def _run_p_inf(network, params: ModelParams) -> float:
    # no event log, so the engine starts from the contraction closure of the
    # single-linkage cut at r0
    state = init_state(network, params, record_events=False)
    return run(state).p_inf


def _fixed_p_inf(network, params: ModelParams) -> float | None:
    """p_inf from the network's merge forest; None when ranges can grow there.

    r(s) never decreases in s, so equal ranges at sizes 1 and N mean that
    every component the network can form has the range r0.
    """
    r0 = params.component_range_km(1)
    if r0 != params.component_range_km(network.n_nodes):
        return None
    forest = network.merge_forest
    # int(): a Python float like the engine's, whose repr the CSVs write
    return int(forest.largest[forest.joins_below(r0)]) / network.n_nodes


def _p_inf(network, params: ModelParams) -> float:
    p = _fixed_p_inf(network, params)
    return _run_p_inf(network, params) if p is None else p


def sweep_connectivity(network, params: ModelParams, spec: SweepSpec):
    """Giant fraction over (scenario, d0, seed); returns (rows, aggregates).

    network may be a topology object under one seed or a seed -> topology
    factory (use a factory when replicates should re-draw repeater
    placement).  A factory over topology's memoized constructors costs one
    build per distinct seed across repeated calls (up to their bound of 8
    networks).
    """
    networks = dict(zip(spec.seeds, _replicates(network, spec.seeds)))
    rows, aggregates = [], []
    for scenario in spec.scenarios:
        for d0 in spec.d0_grid_km:
            sp = scenario_params(
                replace(params, channel=replace(params.channel, d0_km=d0)), scenario)
            vals = [_p_inf(networks[seed], sp) for seed in spec.seeds]
            rows += [SweepRow(scenario=scenario.value, d0_km=d0, seed=seed, p_inf=p)
                     for seed, p in zip(spec.seeds, vals)]
            aggregates.append({
                "scenario": scenario.value, "d0_km": d0,
                "mean": float(np.mean(vals)), "std": float(np.std(vals, ddof=0)),
                "n": len(vals),
            })
    return rows, aggregates


def write_curve_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario,d0_km,seed,p_inf\n")
        for r in rows:
            fh.write(f"{r.scenario},{r.d0_km!r},{r.seed},{r.p_inf!r}\n")


def write_aggregate_csv(aggregates, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario,d0_km,mean,std,n\n")
        for a in aggregates:
            fh.write(f"{a['scenario']},{a['d0_km']!r},{a['mean']!r},{a['std']!r},{a['n']}\n")


# ---------------------------------------------------------------------------
# Threshold search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdEstimate:
    alpha: float
    r0_th: float
    ci_low: float
    ci_high: float
    replicates: int
    target: float
    probes: tuple[tuple[float, float], ...]  # (r0, mean p_inf) at evaluated points


def threshold_to_json(est: ThresholdEstimate) -> dict:
    return {"alpha": est.alpha, "r0_th": est.r0_th, "ci_low": est.ci_low,
            "ci_high": est.ci_high, "replicates": est.replicates,
            "probes": [[r0, p] for r0, p in est.probes]}


def _check_target(target: float) -> None:
    if not 0 < target <= 1:  # NaN fails too
        raise ValueError(f"target must lie in (0, 1], got {target}")


def _bisect(networks, params_at, lo: float, hi: float, target: float, midpoint,
            narrow):
    """Halve [lo, hi] at midpoint(lo, hi) while narrow(lo, hi) holds.

    The mean giant fraction of the networks under params_at(x) is monotone
    in x.  Returns (lo, hi, {x: per-network fractions}) with the target
    missed at lo and met at hi, or (lo, lo, ...) when it already holds at lo.
    """
    evaluations: dict[float, list[float]] = {}

    def mean_at(x: float) -> float:
        if x not in evaluations:
            params = params_at(x)
            evaluations[x] = [_p_inf(network, params) for network in networks]
        return float(np.mean(evaluations[x]))

    if mean_at(lo) >= target:
        return lo, lo, evaluations
    if mean_at(hi) < target:
        raise ValueError(
            f"target {target} unreachable in the bracket [{lo}, {hi}]: mean p_inf "
            f"is {mean_at(lo):.4f} at {lo} and {mean_at(hi):.4f} at {hi}")
    while narrow(lo, hi):
        mid = midpoint(lo, hi)
        lo, hi = (lo, mid) if mean_at(mid) >= target else (mid, hi)
    return lo, hi, evaluations


def _crossings(x, curves: np.ndarray, target: float) -> np.ndarray:
    """First crossing of each column of curves, sampled at x, with the target level.

    Each curve is piecewise linear through (x[i], curves[i, j]) and meant to
    be non-decreasing (monotone coupling).  A curve at or above the target
    at x[0] crosses at 0; one that never reaches it crosses at x[-1];
    otherwise the crossing interpolates the first step that reaches it,
    x0 + (target - y0) * (x1 - x0) / (y1 - y0), or is x1 on a flat step.
    """
    x = np.asarray(x, dtype=float)
    met = curves >= target
    j = met.argmax(axis=0)  # the first probe that meets the target, else 0
    cols = np.arange(curves.shape[1])
    x0, x1 = x[j - 1], x[j]
    y0, y1 = curves[j - 1, cols], curves[j, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(y1 == y0, x1, x0 + (target - y0) * (x1 - x0) / (y1 - y0))
    out[~met.any(axis=0)] = x[-1]
    out[met[0]] = 0.0
    return out


def _bootstrap_ci(x, per_seed: np.ndarray, target: float, n_boot: int,
                  boot_seed: int) -> np.ndarray:
    """The 2.5th and 97.5th percentiles of the crossings of n_boot resampled curves.

    per_seed[i, s] is replicate s's value at x[i].  Each resample draws as
    many replicates as there are, with replacement, and averages their
    curves.  All n_boot draws are one rng.integers call, which numpy fills
    with the same picks as one call per resample; each mean runs over its
    own contiguous row of picked values, as a per-resample mean does.  The
    tests check both against the per-resample loop.
    """
    k = per_seed.shape[1]
    picks = np.random.default_rng(boot_seed).integers(0, k, size=(n_boot, k))
    curves = per_seed[:, picks].mean(axis=2)  # (probes, n_boot)
    return np.percentile(_crossings(x, curves, target), [2.5, 97.5])


def find_threshold(cloud_factory, params: ModelParams, *, target: float = 0.9,
                   tol: float = 1e-3, eps_lo: float, eps_hi: float,
                   seeds=(0, 1, 2, 3, 4), n_boot: int = 1000,
                   boot_seed: int = 0) -> ThresholdEstimate:
    """Bisection for the range scale at which the mean giant fraction hits target.

    Drives eps at fixed d0 (equivalent to scaling r0) and reports the
    crossing as r0 with a 95% bootstrap confidence interval from n_boot >= 1
    resamples of the replicate clouds.  tol is the absolute bisection width
    on r0, in km.  A target already met at eps_lo gives 0 from that single
    probe.  The base range at eps_hi must be finite: an uncapped exact range
    is infinite past the fall.
    """
    _check_target(target)
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    if not 0 < eps_lo < eps_hi < 1:
        raise ValueError(f"need 0 < eps_lo < eps_hi < 1, got ({eps_lo}, {eps_hi})")

    def at_eps(eps: float) -> ModelParams:
        return replace(params, channel=replace(params.channel, epsilon=eps))

    if not math.isfinite(at_eps(eps_hi).base_range_km()):
        raise ValueError(f"eps_hi {eps_hi} gives an infinite base range; "
                         f"lower it or keep the beta cap")
    lo, hi, evaluations = _bisect(
        _replicates(cloud_factory, seeds), at_eps, eps_lo, eps_hi, target,
        midpoint=lambda a, b: 0.5 * (a + b),
        narrow=lambda a, b: at_eps(b).base_range_km() - at_eps(a).base_range_km() > tol)
    probe_eps = sorted(evaluations)
    probe_r0 = [at_eps(e).base_range_km() for e in probe_eps]
    mean_curve = [(r0, float(np.mean(evaluations[e])))
                  for r0, e in zip(probe_r0, probe_eps)]
    if hi == lo:  # the target already holds at eps_lo
        estimate = ci_low = ci_high = 0.0
    else:
        means = np.array([p for _, p in mean_curve])
        estimate = _crossings(probe_r0, means[:, None], target)[0]
        # bootstrap over replicates; per-seed curves are monotone by coupling
        per_seed = np.array([evaluations[e] for e in probe_eps])  # (probes, seeds)
        ci_low, ci_high = _bootstrap_ci(probe_r0, per_seed, target, n_boot, boot_seed)
    return ThresholdEstimate(alpha=params.distill.alpha, r0_th=float(estimate),
                             ci_low=float(ci_low), ci_high=float(ci_high),
                             replicates=len(seeds), target=target,
                             probes=tuple(mean_curve))


def min_d0_for_target(network, params: ModelParams, *, target: float = 0.9,
                      d0_lo: float, d0_hi: float, rel_tol: float = 0.02,
                      seeds=(0,)) -> dict:
    """Smallest decoherence distance reaching the target mean giant fraction.

    Log-space bisection on d0; all ranges (and the sudden-death cap) scale
    with d0, so the mean curve is monotone.  network may be a topology
    object under one seed or a seed -> topology factory, in which case each
    replicate re-draws the topology.  A factory over topology's memoized
    constructors costs one build per distinct seed across repeated calls (up
    to their bound of 8 networks), so comparing scenarios on one replicate
    list builds each network once.
    """
    _check_target(target)
    if not rel_tol > 0:  # NaN fails too; at 0 or below the bisection never ends
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if not 0 < d0_lo < d0_hi:
        raise ValueError(f"need 0 < d0_lo < d0_hi, got ({d0_lo}, {d0_hi})")
    lo, hi, evaluations = _bisect(
        _replicates(network, seeds),
        lambda d0: replace(params, channel=replace(params.channel, d0_km=d0)),
        d0_lo, d0_hi, target,
        midpoint=lambda a, b: math.sqrt(a * b),
        narrow=lambda a, b: b / a > 1.0 + rel_tol)
    probes = [(d0, float(np.mean(v))) for d0, v in sorted(evaluations.items())]
    return {"d0_km": hi, "bracket": (lo, hi), "probes": probes}


# ---------------------------------------------------------------------------
# Time-complexity estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityParams:
    """Memories per node, worst-case purification success probability, eta."""

    m: int
    p: float
    eta: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")


def _f_rounds(x: float, m: int, p: float) -> float:
    """Worst-case rounds to distill one pair from x pooled pairs.

    Below the per-node budget m no remote teleportation is needed and only
    the parallel purification term remains; this base case is what pins the
    headline table values.  Above m, links spent on teleporting qubits and
    gates must be regenerated, multiplying the cost of the half-size problem.
    The recursion f(x) = base(x) + c(x) f(x/2) runs as a loop from the base
    case up, with the same float operations in the same order.
    """
    e = -math.log2(p)
    halvings = [x]
    while halvings[-1] > m:
        halvings.append(halvings[-1] / 2.0)
    try:
        f = (halvings[-1] / 2.0) ** e
        for h in reversed(halvings[:-1]):
            q = h / m
            f = (h / 2.0) ** e + m * (0.25 * q * q + 0.5 * q * math.log2(q)) * f
    except OverflowError:  # float ** raises where * and + give inf
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"the rounds for {x:g} pooled pairs overflow a float")
    return f


def _check_n(n: float) -> None:
    # NaN and inf would pass n >= 1 alone, and _f_rounds never reaches x <= m
    if not (math.isfinite(n) and n >= 1):
        raise ValueError(f"n must be finite and >= 1, got {n}")


def complexity_f(n: float, cp: ComplexityParams) -> float:
    """Rounds f(n) for remote distillation of n pairs; eta < 1 distills n^eta."""
    _check_n(n)
    return _f_rounds(float(n) ** cp.eta, cp.m, cp.p)


def interpolate_f(n_query: float, cp: ComplexityParams) -> float:
    """f estimate between halving points m*2^k, geometric in log space.

    Exactly complexity_f at a halving point; elsewhere the geometric mean of
    the two bracketing halving-point values (their midpoint in log10 f).
    """
    _check_n(n_query)
    k = math.log2(n_query / cp.m)
    k_floor = math.floor(k)
    if math.isclose(k, round(k), abs_tol=1e-12):
        return complexity_f(n_query, cp)
    log_f = 0.0
    # _f_rounds, not complexity_f: a query below 2 can have its lower point
    # below 1, which is no input error
    for point in (cp.m * 2.0 ** k_floor, cp.m * 2.0 ** (k_floor + 1)):
        try:
            f = _f_rounds(point ** cp.eta, cp.m, cp.p)
        except ValueError:  # its one refusal, named by the query, not the point
            raise ValueError(f"the rounds for n = {n_query:g} overflow a float at "
                             f"the bracketing halving point {point:g}") from None
        # a point under 1 can underflow to 0 rounds at a tiny p: the mean is 0
        log_f += math.log10(f) if f else -math.inf
    return 10.0 ** (0.5 * log_f)


def worst_case_n(epsilon: float, d_worst_km: float, d0_km: float, alpha: float) -> int:
    """Memory accesses needed for the hardest link: ((3 d_worst)/(4 eps d0))^(1/alpha)."""
    for name, value in (("epsilon", epsilon), ("d_worst_km", d_worst_km),
                        ("d0_km", d0_km), ("alpha", alpha)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    try:  # ** and round overflow; a product out of range makes the base x/0 or inf/inf
        base = 3.0 * d_worst_km / (4.0 * epsilon * d0_km)
        return max(1, round(base ** (1.0 / alpha)))
    except (ArithmeticError, ValueError):
        raise ValueError(f"worst_case_n overflows a float at epsilon={epsilon}, "
                         f"d_worst_km={d_worst_km}, d0_km={d0_km}, alpha={alpha}")


def coherence_time(f_value: float, detection_rate_hz: float) -> float:
    """Seconds of memory coherence needed to hold pairs through f rounds."""
    if not (math.isfinite(detection_rate_hz) and detection_rate_hz > 0):
        raise ValueError(f"detection rate must be finite and positive, "
                         f"got {detection_rate_hz}")
    seconds = f_value / detection_rate_hz
    if not math.isfinite(seconds):
        raise ValueError(f"coherence time {f_value:g} / {detection_rate_hz:g} Hz overflows")
    return seconds
