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


def test_hopping_search_on_an_empty_seed_range_starts_no_worker():
    # min(CPUs, seeds) is 0 here, a pool size ProcessPoolExecutor refuses
    proc = run_script("search_hopping_instance.py", "--seeds", "5", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_hopping_search_finds_the_c10_instance():
    from test_acceptance import HOP_BLOCK_A, HOP_BLOCK_B, HOP_SEED
    proc = run_script("search_hopping_instance.py", "--seeds", str(HOP_SEED),
                      str(HOP_SEED + 1))
    assert proc.returncode == 0, proc.stderr
    hits = [ast.literal_eval(line[len("HIT "):]) for line in proc.stdout.splitlines()
            if line.startswith("HIT ")]
    assert any(seed == HOP_SEED and {frozenset(a), frozenset(b)} == {HOP_BLOCK_A, HOP_BLOCK_B}
               and separate is True
               for seed, _, _, _, _, a, b, separate in hits)


@pytest.mark.parametrize("args", [["--replicates", "0"], ["--target", "2"],
                                  ["--mean-segment", "0"], ["--nodes", "2", "--edges", "1"],
                                  ["--seed", "-1"]])
def test_fiber_scenarios_refuses_a_bad_flag(tmp_path, args):
    # a refused flag exits 2 with argparse's message, before --out is created
    out = tmp_path / "out"
    proc = run_script("run_fiber_scenarios.py", "--nodes", "60", "--edges", "63",
                      *args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_fiber_scenarios_refuses_an_out_that_is_a_file(tmp_path):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    proc = run_script("run_fiber_scenarios.py", "--nodes", "60", "--edges", "63",
                      "--replicates", "1", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "error: cannot create --out" in proc.stderr and "Traceback" not in proc.stderr
    assert out.read_text() == "kept\n"


def test_hopping_search_refuses_a_negative_seed():
    proc = run_script("search_hopping_instance.py", "--seeds", "-1", "2")
    assert proc.returncode == 2, proc.stderr
    assert "error: --seeds must be >= 0" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
