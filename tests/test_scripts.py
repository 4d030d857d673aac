"""Smoke tests of the experiment scripts at tiny sizes, each in a subprocess."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=600)


def test_threshold_ordering(tmp_path):
    out = tmp_path / "thresholds.json"
    proc = run_script("run_threshold_ordering.py", "--n", "200", "--replicates", "2",
                      "--alphas", "0", "0.585", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"n", "target", "estimates"}
    assert [e["alpha"] for e in doc["estimates"]] == [0.0, 0.585]
    for est in doc["estimates"]:
        assert set(est) == {"alpha", "r0_th", "ci_low", "ci_high", "replicates",
                            "probes"}


def test_fiber_scenarios(tmp_path):
    proc = run_script("run_fiber_scenarios.py", "--nodes", "60", "--edges", "63",
                      "--replicates", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "min_d0.json").read_text())
    assert set(doc) == {"target", "min_d0_km"}
    assert set(doc["min_d0_km"]) == {"no_memory", "point_to_point", "distributed"}
    assert (tmp_path / "curves.csv").read_text().startswith("scenario,d0_km,seed,p_inf")
    assert (tmp_path / "curves_aggregate.csv").exists()


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help(name):
    # imports the script, so an import error fails here without an experiment
    proc = run_script(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


@pytest.mark.parametrize("jobs", ["0", str((os.cpu_count() or 1) + 1)],
                         ids=["zero", "above_cpu_count"])
def test_hopping_search_jobs_out_of_range_exits_2(jobs):
    # the empty seed range starts no worker even if the check were missing
    proc = run_script("search_hopping_instance.py", "--seeds", "0", "0", "--jobs", jobs)
    assert proc.returncode == 2
    assert "--jobs must lie in [1, " in proc.stderr


def test_hopping_search_finds_the_c10_instance():
    from test_acceptance import HOP_BLOCK_A, HOP_BLOCK_B, HOP_SEED
    proc = run_script("search_hopping_instance.py", "--seeds", str(HOP_SEED),
                      str(HOP_SEED + 1), "--jobs", "1")
    assert proc.returncode == 0, proc.stderr
    hits = [ast.literal_eval(line[len("HIT "):]) for line in proc.stdout.splitlines()
            if line.startswith("HIT ")]
    assert any(seed == HOP_SEED and {frozenset(a), frozenset(b)} == {HOP_BLOCK_A, HOP_BLOCK_B}
               and separate is True
               for seed, _, _, _, _, a, b, separate in hits)
