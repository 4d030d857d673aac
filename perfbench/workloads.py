"""The benchmark's three workloads: inputs, the timed call and result checks.

Each workload loads a different layer of the package (see NOTES.md):

- cloud_threshold: threshold bisection on point clouds (dense store,
  distance construction, dense reduction);
- fiber_scenarios: scenario minima on a repeater-segmented fiber network
  (sparse store, batch merges, two fixed-range scenarios);
- fiber_run_lex: one `qnetperc run` through the CLI with the default
  lexicographic policy (a pair scan after every merge, event log output).

Inputs derive from the workload seed only.  Seed 0 uses the input seeds of
acceptance criteria c08 and c09 at reduced sizes (N=800 clouds, a 346-node
fiber), so that a 30 s run holds many passes; its results are pinned as
references.  Every other seed gets the structural checks alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from qnetperc import analysis, cli, topology
from qnetperc.quantum import ChannelModel, DistillationParams, ModelParams

REFERENCE_SEED = 0
SEED_STRIDE = 1000  # keeps the per-seed input seeds of different runs apart

# Input sizes.  "tiny" exists for the smoke test and the set-up warm-up.
SIZES = {
    "full": {"cloud_n": 800, "fiber_nodes": 346, "fiber_edges": 367},
    "tiny": {"cloud_n": 200, "fiber_nodes": 60, "fiber_edges": 63},
}

FIBER_SEED = 1  # the fixed stand-in for the operator topology, as in c09
FIBER_MEAN_KM = 500.0


def _fiber(size: str):
    s = SIZES[size]
    return topology.generate_fiber_network(s["fiber_nodes"], s["fiber_edges"],
                                           mean_length_km=FIBER_MEAN_KM,
                                           seed=FIBER_SEED)


def _probe_curve_monotone(probes) -> bool:
    """Mean giant fraction never falls as the range scale grows."""
    values = [p for _, p in sorted(probes)]
    return all(b >= a for a, b in zip(values, values[1:]))


class Workload:
    name = ""
    calls_per_pass = 1

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.reference = size == "full" and seed == REFERENCE_SEED

    def setup(self) -> None:
        """Build the inputs, then warm up on the tiny version of the call."""
        raise NotImplementedError

    def call(self):
        """The timed public call or calls; returns what check() needs."""
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """Descriptions of failed correctness checks (empty when correct)."""
        raise NotImplementedError

    def probes(self, result) -> int:
        return 0

    def input_sizes(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cloud_threshold
# ---------------------------------------------------------------------------

class CloudThreshold(Workload):
    """find_threshold at alpha=0.585 on two uniform clouds (c08, one arm)."""

    name = "cloud_threshold"
    PARAMS = ModelParams(channel=ChannelModel(d0_km=100.0, epsilon=0.01),
                         distill=DistillationParams(m=1, alpha=0.585))
    TARGET, TOL, EPS_LO, EPS_HI, N_BOOT = 0.5, 2e-4, 3e-5, 8e-4, 2000
    REF_R0_TH, REF_PROBES = 0.02291579861111111, 12

    def setup(self) -> None:
        self.n = SIZES[self.size]["cloud_n"]
        self.cloud_seeds = (101 + SEED_STRIDE * self.seed,
                            102 + SEED_STRIDE * self.seed)
        if self.size != "tiny":
            warm = CloudThreshold(self.seed, "tiny", self.workdir)
            warm.setup()
            warm.call()

    def _cloud(self, seed: int):
        return topology.generate_uniform_points(self.n, box_side=1.0, seed=seed)

    def call(self):
        return analysis.find_threshold(
            self._cloud, self.PARAMS, target=self.TARGET, tol=self.TOL,
            eps_lo=self.EPS_LO, eps_hi=self.EPS_HI, seeds=self.cloud_seeds,
            n_boot=self.N_BOOT, boot_seed=self.seed)

    def check(self, est) -> list[str]:
        bad = []
        if not est.ci_low <= est.r0_th <= est.ci_high:
            bad.append(f"r0_th {est.r0_th} outside its CI [{est.ci_low}, {est.ci_high}]")
        if not _probe_curve_monotone(est.probes):
            bad.append("mean giant fraction decreases along the probes")
        below = [r0 for r0, p in est.probes if p < self.TARGET]
        above = [r0 for r0, p in est.probes if p >= self.TARGET]
        if not below or not above or not max(below) <= est.r0_th <= min(above):
            bad.append(f"r0_th {est.r0_th} is not bracketed by the probes")
        if self.reference:
            if abs(est.r0_th - self.REF_R0_TH) > self.TOL:
                bad.append(f"r0_th {est.r0_th} is not within {self.TOL} of "
                           f"the reference {self.REF_R0_TH}")
            if len(est.probes) != self.REF_PROBES:
                bad.append(f"{len(est.probes)} probes, reference {self.REF_PROBES}")
        return bad

    def probes(self, est) -> int:
        return len(est.probes)

    def input_sizes(self) -> dict:
        return {"clouds": len(self.cloud_seeds), "nodes_per_cloud": self.n,
                "cloud_seeds": list(self.cloud_seeds)}


# ---------------------------------------------------------------------------
# fiber_scenarios
# ---------------------------------------------------------------------------

def _giant_fraction_oracle(net, r0: float) -> float:
    """Largest connected share of the graph of cables strictly shorter than r0.

    With every range fixed at r0 the engine reduces to this single-linkage
    cut; the computation shares no code with the engine.
    """
    index = {nid: i for i, nid in enumerate(net.node_ids)}
    short = [(index[u], index[v]) for u, v, length in net.edges if length < r0]
    n = net.n_nodes
    rows = [i for i, _ in short]
    cols = [j for _, j in short]
    graph = coo_matrix((np.ones(len(short)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return float(np.bincount(labels).max()) / n


class FiberScenarios(Workload):
    """min_d0_for_target for the three memory scenarios (c09)."""

    name = "fiber_scenarios"
    calls_per_pass = 3
    BASE = ModelParams(channel=ChannelModel(d0_km=300.0, epsilon=0.01),
                       distill=DistillationParams(m=102, alpha=0.585))
    BRACKETS = {
        analysis.Scenario.DISTRIBUTED: (50.0, 2e4),
        analysis.Scenario.POINT_TO_POINT: (100.0, 1e5),
        analysis.Scenario.NO_MEMORY: (1000.0, 1e6),
    }
    FIXED_RANGE = (analysis.Scenario.POINT_TO_POINT, analysis.Scenario.NO_MEMORY)
    TARGET, REL_TOL, MEAN_SEGMENT_KM = 0.9, 0.02, 50.0
    REF_MINIMA = {
        analysis.Scenario.DISTRIBUTED: 557.0479482762702,
        analysis.Scenario.POINT_TO_POINT: 1526.1378025789631,
        analysis.Scenario.NO_MEMORY: 22875.732003183955,
    }

    def setup(self) -> None:
        self.fiber = _fiber(self.size)
        self.repeater_seeds = (11 + SEED_STRIDE * self.seed,
                               12 + SEED_STRIDE * self.seed)
        self._oracle_nets = None
        if self.size != "tiny":
            warm = FiberScenarios(self.seed, "tiny", self.workdir)
            warm.setup()
            warm.call()

    def _network(self, seed: int):
        return topology.insert_repeaters(
            self.fiber, topology.RepeaterConfig(mean_segment_km=self.MEAN_SEGMENT_KM,
                                                seed=seed))

    def call(self):
        out = {}
        for scenario, (lo, hi) in self.BRACKETS.items():
            params = analysis.scenario_params(self.BASE, scenario)
            out[scenario] = analysis.min_d0_for_target(
                self._network, params, target=self.TARGET, d0_lo=lo, d0_hi=hi,
                rel_tol=self.REL_TOL, seeds=self.repeater_seeds)
        return out

    def _oracle_mean(self, scenario, d0: float) -> float:
        params = analysis.scenario_params(
            replace(self.BASE, channel=replace(self.BASE.channel, d0_km=d0)), scenario)
        r0 = params.component_range_km(1)
        return float(np.mean([_giant_fraction_oracle(net, r0)
                              for net in self._oracle_nets]))

    def check(self, results) -> list[str]:
        bad = []
        minima = {}
        for scenario, res in results.items():
            lo, hi = res["bracket"]
            minima[scenario] = res["d0_km"]
            if not (res["d0_km"] == hi and lo < hi <= lo * (1 + self.REL_TOL)):
                bad.append(f"{scenario.value}: bracket {res['bracket']} is not "
                           f"a {self.REL_TOL} bracket ending at {res['d0_km']}")
            if not _probe_curve_monotone(res["probes"]):
                bad.append(f"{scenario.value}: mean giant fraction decreases in d0")
        d_dist, d_ptp, d_none = (minima[s] for s in self.BRACKETS)
        if not d_dist < d_ptp < d_none:
            bad.append(f"minima not ordered distributed < point_to_point < "
                       f"no_memory: {d_dist}, {d_ptp}, {d_none}")
        if not d_ptp / d_dist >= 2.0:
            bad.append(f"point_to_point / distributed = {d_ptp / d_dist} < 2")
        if self._oracle_nets is None:
            self._oracle_nets = [self._network(s) for s in self.repeater_seeds]
        for scenario in self.FIXED_RANGE:
            lo, hi = results[scenario]["bracket"]
            at_lo = self._oracle_mean(scenario, lo)
            at_hi = self._oracle_mean(scenario, hi)
            if not (at_lo < self.TARGET <= at_hi):
                bad.append(f"{scenario.value}: oracle gives mean p_inf {at_lo} at "
                           f"d0={lo} and {at_hi} at d0={hi}, target {self.TARGET}")
        if self.reference:
            for scenario, ref in self.REF_MINIMA.items():
                if not math.isclose(minima[scenario], ref, rel_tol=1e-9):
                    bad.append(f"{scenario.value}: minimum {minima[scenario]} km, "
                               f"reference {ref} km")
        return bad

    def probes(self, results) -> int:
        return sum(len(res["probes"]) for res in results.values())

    def input_sizes(self) -> dict:
        return {"fiber_nodes": self.fiber.n_nodes, "fiber_edges": self.fiber.n_edges,
                "repeater_seeds": list(self.repeater_seeds),
                "mean_segment_km": self.MEAN_SEGMENT_KM}


# ---------------------------------------------------------------------------
# fiber_run_lex
# ---------------------------------------------------------------------------

class FiberRunLex(Workload):
    """`qnetperc run` near the transition, lexicographic policy, events on."""

    name = "fiber_run_lex"
    MEAN_SEGMENT_KM, D0_KM, M, ALPHA = 100.0, 700.0, 102, 0.585
    REF_P_INF, REF_MERGES, REF_REDUCTIONS = 0.288752, 1995, 121

    def setup(self) -> None:
        fiber = _fiber(self.size)
        self.net = topology.insert_repeaters(fiber, topology.RepeaterConfig(
            mean_segment_km=self.MEAN_SEGMENT_KM, seed=3 + SEED_STRIDE * self.seed))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {k: self.workdir / f"{self.size}-{k}.json"
                      for k in ("report", "partition", "events")}
        self.csv = self.workdir / f"{self.size}-network.csv"
        topology.save_edge_list(self.net, self.csv)
        if self.size != "tiny":
            warm = FiberRunLex(self.seed, "tiny", self.workdir)
            warm.setup()
            warm.call()

    def call(self):
        argv = ["run", "--network", str(self.csv), "--d0", repr(self.D0_KM),
                "--m", str(self.M), "--alpha", repr(self.ALPHA),
                "--out", str(self.paths["report"]),
                "--partition", str(self.paths["partition"]),
                "--events", str(self.paths["events"])]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return code, err.getvalue()

    def _take_outputs(self):
        """Read and delete this pass's output files, so none is read twice."""
        out = []
        for k in ("report", "partition", "events"):
            out.append(json.loads(self.paths[k].read_text(encoding="utf-8")))
            self.paths[k].unlink()
        return out

    def check(self, result) -> list[str]:
        code, err = result
        if code != 0:
            return [f"qnetperc run exited with {code}: {err.strip()}"]
        report, partition, events = self._take_outputs()
        bad = _check_run_files(self.net.node_ids, report, partition, events)
        if self.reference:
            got = (round(report["p_inf"], 6), report["merge_count"],
                   report["reduce_count"])
            ref = (self.REF_P_INF, self.REF_MERGES, self.REF_REDUCTIONS)
            if got != ref:
                bad.append(f"(p_inf, merges, reductions) = {got}, reference {ref}")
        return bad

    def input_sizes(self) -> dict:
        return {"nodes": self.net.n_nodes, "edges": self.net.n_edges,
                "mean_segment_km": self.MEAN_SEGMENT_KM, "d0_km": self.D0_KM}


def _check_run_files(labels, report: dict, partition: list, events: list) -> list[str]:
    """Replay the written event log against the written partition and report.

    Checks what engine.verify_report checks, from the files alone: every
    node lies in exactly one block, each merge joins two live components at
    a distance strictly below both ranges without shrinking the range, each
    reduction retires a live component, and the retired components are the
    partition.
    """
    bad = []
    n = len(labels)
    flat = [x for block in partition for x in block]
    if sorted(flat) != sorted(labels) or len(set(flat)) != len(flat):
        bad.append("partition does not cover every node exactly once")
    if report["partition"] != partition:
        bad.append("report and partition file disagree")
    if report["n_nodes"] != n:
        bad.append(f"report has {report['n_nodes']} nodes, network has {n}")
    if partition and report["p_inf"] != max(map(len, partition)) / n:
        bad.append("p_inf is not the largest block's share")
    # id -> (member indices, range); singleton ranges are taken from the log
    alive = {i: ((i,), None) for i in range(n)}
    next_id, merges, blocks = n, 0, []
    for ev in events:
        if ev["type"] == "merge":
            a, b = ev["a"], ev["b"]
            if a == b or a not in alive or b not in alive or ev["new_id"] != next_id:
                bad.append(f"merge {a}+{b}->{ev['new_id']} references dead or "
                           f"reused components")
                break
            (ma, ra), (mb, rb) = alive.pop(a), alive.pop(b)
            ranges = (ev["range_a"], ev["range_b"])
            slack = 1e-9 * max(*ranges, 1.0)
            if (ra not in (None, ranges[0]) or rb not in (None, ranges[1])
                    or not ev["distance"] < min(ranges)
                    or ev["new_range"] + slack < max(ranges)
                    or ev["size"] != len(ma) + len(mb)):
                bad.append(f"merge {a}+{b} breaks the connection or range rules")
                break
            alive[next_id] = (ma + mb, ev["new_range"])
            next_id += 1
            merges += 1
        else:
            comp = ev["comp"]
            if comp not in alive or len(alive[comp][0]) != ev["size"] or \
                    alive[comp][1] not in (None, ev["range_km"]):
                bad.append(f"reduction of {comp} disagrees with the live components")
                break
            members, _ = alive.pop(comp)
            blocks.append(sorted(labels[i] for i in members))
    else:
        if alive:
            bad.append(f"{len(alive)} components still live after the event log")
        if sorted(blocks) != sorted(partition):
            bad.append("replayed blocks differ from the partition")
        if (merges, len(blocks)) != (report["merge_count"], report["reduce_count"]):
            bad.append("event counts differ from the report's counts")
    return bad


WORKLOADS = {w.name: w for w in (CloudThreshold, FiberScenarios, FiberRunLex)}
