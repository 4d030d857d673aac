"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, and checks that each metric named in
BENCHMARK.json is printed with its unit and that every correctness check,
including the traced run's exact-count check, passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_all(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--size", "tiny", "--seconds", "1", "--trace", str(trace), "--seed", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_and_checks_pass(trace, kind):
    stdout, result = _run_all(trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    expected = {f"{workload}.{m['name']}": m["unit"]
                for workload in WORKLOADS for m in SPEC[kind]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    assert stdout.count("error_rate = 0 ratio") == len(WORKLOADS)


def test_bare_benchmark_directory_fails(tmp_path):
    """Without the package sources the benchmark exits non-zero, silently."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
