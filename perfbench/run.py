"""qnetperc benchmark: time to a solution on three workloads, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one child each

--trace 0 repeats the workload's public call for S seconds and reports the
end-to-end metrics (wall_s, setup_s, peak_rss_mb).  --trace 1 makes one
untraced pass and two traced passes, reports per-layer metrics from spans
recorded around the package's public functions, and checks that every
exact count repeats between the two traced passes.  Every result is checked
for correctness; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Run from the repository
root; the package is imported from ./src and nowhere else.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread everywhere: pinned before numpy loads its BLAS and OpenMP runtimes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cloud_threshold", "fiber_scenarios", "fiber_run_lex")
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import qnetperc from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qnetperc
        from qnetperc import analysis, cli, engine, quantum, topology  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import qnetperc from {src}: {exc}")
    if src not in Path(qnetperc.__file__).resolve().parents:
        sys.exit(f"error: qnetperc was imported from {qnetperc.__file__}, not {src}")
    import workloads
    return qnetperc, workloads


def _git(*cmd) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                             text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, wl) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "inputs": wl.input_sizes(),
    }


class Tally:
    """Calls attempted, and calls that raised or failed a correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, wl, timed=None):
        """One pass: call, time, check.  Returns (seconds, result or None)."""
        self.attempted += wl.calls_per_pass
        start = time.perf_counter()
        try:
            with timed or contextlib.nullcontext():
                result = wl.call()
        except Exception as exc:  # a failed call is counted, not fatal
            self.failed += wl.calls_per_pass
            self.problems.append(f"call raised {exc!r}")
            return time.perf_counter() - start, None
        seconds = time.perf_counter() - start
        bad = wl.check(result)
        self.failed += min(len(bad), wl.calls_per_pass)
        self.problems.extend(bad)
        return seconds, result

    def flag(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def measure(args, wl, tally: Tally) -> dict:
    """Untraced passes for args.seconds; the end-to-end metrics.

    A pass starts only if a pass of median length still fits in the window,
    so a run lasts about args.seconds however long the workload's passes are.
    """
    walls = []
    begin = time.perf_counter()
    while not walls or (time.perf_counter() - begin + statistics.median(walls)
                        <= args.seconds):
        seconds, result = tally.run(wl)
        walls.append(seconds)
        if result is None:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"wall_s passes: {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
    return {"wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def layer_metrics(summary: dict, probes: int) -> dict:
    """Per-layer metrics from a span summary.  <span>.s is self time."""
    def get(span, key):
        return summary.get(span, {}).get(key, 0)

    def ratio(span):
        return get(span, "useful") / get(span, "calls") if get(span, "calls") else 0.0

    def layer_self(layer):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))

    m = {
        "topology.distance_matrix.calls": (get("topology.distance_matrix", "calls"), "count"),
        "topology.distance_matrix.bytes": (get("topology.distance_matrix", "bytes"),
                                           "bytes_computed"),
        "topology.insert_repeaters.calls": (get("topology.insert_repeaters", "calls"), "count"),
        "topology.generate.calls": (get("topology.generate", "calls"), "count"),
        "topology.load_edge_list.calls": (get("topology.load_edge_list", "calls"), "count"),
        "topology.self_s": (layer_self("topology"), "s"),
    }
    for span in ("quantum.component_range", "engine.init_state", "engine.scan",
                 "engine.isolation", "engine.merge", "engine.reduce"):
        m[f"{span}.calls"] = (get(span, "calls"), "count")
        m[f"{span}.s"] = (get(span, "self_s"), "s")
    m["engine.scan.useful_ratio"] = (ratio("engine.scan"), "ratio")
    m["engine.isolation.hit_ratio"] = (ratio("engine.isolation"), "ratio")
    m["engine.run.calls"] = (get("engine.run", "calls"), "count")
    m["engine.run.self_s"] = (get("engine.run", "self_s"), "s")
    m["engine.save.calls"] = (get("engine.save", "calls"), "count")
    m["engine.save.bytes"] = (get("engine.save", "bytes"), "bytes")
    m["analysis.probes"] = (probes, "count")
    m["analysis.self_s"] = (layer_self("analysis"), "s")
    m["cli.main.calls"] = (get("cli.main", "calls"), "count")
    return m


EXACT_KEYS = ("calls", "useful", "bytes")


def traced(args, pkg, wl, tally: Tally) -> tuple[dict, dict]:
    """One untraced pass, then two traced passes whose counts must agree."""
    from spans import Tracer
    untraced_s, _ = tally.run(wl)
    passes = []
    for _ in range(2):
        tracer = Tracer(pkg)
        seconds, result = tally.run(wl, timed=tracer)
        if result is None:
            break
        passes.append((seconds, tracer, wl.probes(result)))
    if len(passes) < 2:
        return {}, {}
    (s1, t1, p1), (s2, t2, p2) = passes
    sum1, sum2 = t1.summary(), t2.summary()
    counts1 = {(k, e): v[e] for k, v in sum1.items() for e in EXACT_KEYS}
    counts2 = {(k, e): v[e] for k, v in sum2.items() for e in EXACT_KEYS}
    if counts1 != counts2 or p1 != p2:
        diff = sorted(k for k in counts1.keys() | counts2.keys()
                      if counts1.get(k) != counts2.get(k))
        tally.flag(f"exact counts differ between traced passes: {diff}, "
                   f"probes {p1} vs {p2}")
    summary = {k: dict(v, s=(v["s"] + sum2.get(k, v)["s"]) / 2,
                       self_s=(v["self_s"] + sum2.get(k, v)["self_s"]) / 2)
               for k, v in sum1.items()}
    traced_s = (s1 + s2) / 2
    metrics = layer_metrics(summary, p1)
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"{'span':32s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    for span, v in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{span:32s} {v['calls']:9d} {v['self_s']:10.4f} "
              f"{v['self_s'] / traced_s:7.1%}")
    top = max(summary, key=lambda k: summary[k]["self_s"])
    print(f"largest self time: {top}")
    print(f"wall_s traced {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
          f"overhead {traced_s - untraced_s:.4f} s")
    OUT.mkdir(exist_ok=True)
    t1.save(OUT / f"{wl.name}-seed{args.seed}-spans.npz")
    return metrics, {"spans": summary, "largest_self": top}


def run_one(args) -> int:
    pkg, workloads = import_package()
    import_s = time.perf_counter() - T_START
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        prov = provenance(args, wl)
        print("provenance " + json.dumps(prov, sort_keys=True))
        tally = Tally()
        extra = {}
        if args.trace:
            metrics, extra = traced(args, pkg, wl, tally)
        else:
            metrics = measure(args, wl, tally)
            metrics["setup_s"] = (import_s + statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error_rate = tally.failed / tally.attempted
    print(f"error_rate = {error_rate:.6g} ratio "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {"correct": tally.failed == 0 and bool(metrics),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, problems=tally.problems,
                  error_rate=error_rate, **extra)
    mode = "trace" if args.trace else "run"
    with open(OUT / f"{wl.name}-seed{args.seed}-{mode}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print("== summary")
    for name, res in results.items():
        rate = res["failed"] / res["attempted"]
        shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                         for k, v in res["metrics"].items()
                         if k in ("wall_s", "setup_s", "peak_rss_mb",
                                  "trace.overhead_s"))
        print(f"{name:16s} {shown} error_rate={rate:.6g}ratio")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
