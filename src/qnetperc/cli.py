"""Command-line interface.

Subcommands: generate, ingest, repeaters, run, sweep, threshold, distill,
complexity.  Exit codes: 0 success, 1 runtime failure, 2 validation error
(bad input, or a path that cannot be read or written); on exit 2 main()
removes every output file the command created.
Every output embeds the resolved config hash and master seed; reruns of the
same config are byte-identical except for the generated_at timestamp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone

from . import analysis, engine, quantum, topology
from .config import (STREAM_REPEATERS, STREAM_REPLICATE, STREAM_TOPOLOGY,
                     RunConfig, subseed)


def _json_dump(payload: dict, path) -> None:
    # encoded before the file opens, so a refused payload leaves no file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _provenance(cfg: RunConfig) -> dict:
    """The header every run, sweep and threshold output carries."""
    return {"config_hash": cfg.config_hash(), "seed": cfg.seed,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds")}


# ---------------------------------------------------------------------------
# topology commands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    if args.what == "points":
        if args.n < 1:
            raise ValueError(f"--n must be >= 1, got {args.n}")
        cloud = topology.generate_uniform_points(args.n, box_side=args.box,
                                                 seed=args.seed)
        topology.save_point_cloud(cloud, args.out)
        print(f"wrote {args.n} points to {args.out}")
        return 0
    net = topology.generate_fiber_network(n_nodes=args.nodes, n_edges=args.edges,
                                          mean_length_km=args.mean_length,
                                          seed=args.seed)
    if net.n_nodes != args.nodes or net.n_edges != args.edges:
        raise RuntimeError("synthetic network misses the requested counts")
    topology.save_edge_list(net, args.out)
    if args.json:
        topology.save_network_json(net, args.json)
    print(f"wrote synthetic fiber network ({net.n_nodes} nodes, {net.n_edges} edges, "
          f"mean length {net.total_length_km() / net.n_edges:.1f} km) to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    net = topology.load_edge_list(args.infile)
    topology.save_edge_list(net, args.out)
    if args.json:
        topology.save_network_json(net, args.json)
    print(f"ingested {net.n_nodes} nodes / {net.n_edges} edges")
    return 0


def _cmd_repeaters(args) -> int:
    net = topology.load_edge_list(args.infile)
    cfg = topology.RepeaterConfig(mean_segment_km=args.mean_segment,
                                  seed=subseed(args.seed, STREAM_REPEATERS))
    out = topology.insert_repeaters(net, cfg)
    topology.save_edge_list(out, args.out)
    added = out.n_nodes - net.n_nodes
    print(f"inserted {added} repeaters ({out.n_nodes} nodes, {out.n_edges} edges)")
    return 0


# ---------------------------------------------------------------------------
# percolation commands
# ---------------------------------------------------------------------------

_CONFIG_FLAGS = [
    ("--d0", "d0_km", float), ("--epsilon", "epsilon", float), ("--m", "m", int),
    ("--alpha", "alpha", float), ("--eta", "eta", float),
    ("--range-mode", "range_mode", str), ("--scenario", "scenario", str),
    ("--network", "network_path", str), ("--n", "n_points", int),
    ("--box", "box_side", float), ("--source", "source", str),
    ("--mean-segment", "mean_segment_km", float), ("--seed", "seed", int),
]


_SWITCHES = [("--no-beta-cap", "beta_cap", False), ("--repeaters", "add_repeaters", True)]


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    for flag, dest, typ in _CONFIG_FLAGS:
        sub.add_argument(flag, dest=dest, type=typ, default=None)
    for flag, dest, const in _SWITCHES:
        sub.add_argument(flag, dest=dest, action="store_const", const=const,
                         default=None)


# the network settings each source reads; --mean-segment only with --repeaters
_SOURCES = {"file": ("--network", "--repeaters", "--mean-segment"), "points": ("--n", "--box")}


def _resolve_config(args, unread=(), only=()) -> RunConfig:
    """Defaults < --config file < flags.

    Any value is an error for a network setting the source does not read
    (_SOURCES) or for a key in unread, which maps it to what to use instead.
    only maps a key to the one value the command runs with; any other value
    is an error, and the config records that one.
    """
    file_values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    flags = _CONFIG_FLAGS + _SWITCHES
    given = {**file_values, **{dest: getattr(args, dest) for _, dest, _ in flags
                               if getattr(args, dest) is not None}}
    source = dict(only).get("source", given.get("source", RunConfig.source))
    if source not in tuple(_SOURCES):  # a config value may be unhashable
        raise ValueError(f"--source must be one of {', '.join(_SOURCES)}, got {source!r}")
    reads = [f for f in _SOURCES[source] if f != "--mean-segment" or given.get("add_repeaters")]
    why = f"--source {source} reads {', '.join(reads)}"
    unread = dict(unread, **{dest: why for flag, dest, _ in flags if flag not in reads
                             and any(flag in row for row in _SOURCES.values())})
    for flag, dest, _ in flags:
        if dest in given and dest in unread:
            raise ValueError(f"{args.command} does not read {flag} "
                             f"(config key {dest!r}); {unread[dest]}")
        if dest in only and given.get(dest, only[dest]) != only[dest]:
            raise ValueError(f"{args.command} runs only with {flag} {only[dest]} "
                             f"(config key {dest!r}), got {given[dest]!r}")
    unknown = set(file_values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    RunConfig(**file_values)  # checked even where a flag replaces a value
    cfg = RunConfig(**{**given, **dict(only)})
    if cfg.source == "file" and "network_path" in file_values:  # main() checked the flag
        _output_paths(args, {"--network (config key 'network_path')": cfg.network_path})
    return cfg


def _build_network(cfg: RunConfig):
    if cfg.source == "points":
        return topology.generate_uniform_points(
            cfg.n_points, box_side=cfg.box_side,
            seed=subseed(cfg.seed, STREAM_TOPOLOGY))
    if not cfg.network_path:
        raise ValueError("source 'file' requires --network")
    net = topology.load_network(cfg.network_path)
    if cfg.add_repeaters:
        if not isinstance(net, topology.EdgeListNetwork):
            raise ValueError(f"--repeaters cuts cables, and {cfg.network_path} is a point cloud")
        net = topology.insert_repeaters(net, topology.RepeaterConfig(
            mean_segment_km=cfg.mean_segment_km,
            seed=subseed(cfg.seed, STREAM_REPEATERS)))
    return net


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    network = _build_network(cfg)
    params = cfg.model_params()
    if not math.isfinite(params.component_range_km(network.n_nodes)):
        # an uncapped exact range is infinite past its fall, and JSON has no inf
        raise ValueError(f"a component of {network.n_nodes} nodes has an infinite "
                         f"range; lower --epsilon or keep the beta cap")
    state = engine.init_state(network, params)
    report = engine.run(state)
    payload = {
        "config": cfg.to_dict(),
        **_provenance(cfg),
        "n_nodes": report.n_nodes,
        "p_inf": report.p_inf,
        "n_blocks": len(report.partition),
        "merge_count": report.merge_count,
        "reduce_count": report.reduce_count,
        "partition": engine.partition_to_lists(report),
    }
    _json_dump(payload, args.out)
    if args.partition:
        engine.save_partition(report, args.partition)
    if args.events:
        engine.save_event_log(report, args.events)
    print(f"p_inf = {report.p_inf:.6f} over {report.n_nodes} nodes "
          f"({report.merge_count} merges, {report.reduce_count} reductions)")
    return 0


def _meta_path(args) -> str:
    return args.meta or f"{args.out}.meta.json"


def _list_flag(flag: str, text: str, parse, takes: str) -> tuple:
    """The comma-separated values of a list flag; an item parse refuses names the flag."""
    values = []
    for item in text.split(","):
        try:
            values.append(parse(item))
        except ValueError:
            raise ValueError(f"{flag} takes comma-separated {takes}, got {item!r}") from None
    return tuple(values)


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args, {"scenario": "use --scenarios", "d0_km": "use --d0-grid"})
    d0_grid = _list_flag("--d0-grid", args.d0_grid, float, "km values")
    scenarios = _list_flag("--scenarios", args.scenarios, analysis.Scenario,
                           "names from " + ", ".join(s.value for s in analysis.Scenario))
    seeds = _list_flag("--seeds", args.seeds, int, "integer seeds")

    def factory(seed: int):
        return _build_network(replace(cfg, seed=subseed(cfg.seed, STREAM_REPLICATE, seed)))

    spec = analysis.SweepSpec(d0_grid_km=d0_grid, scenarios=scenarios,
                              seeds=seeds)
    # no seed redraws a network file without --repeaters: one replicate, read once
    network = factory if cfg.source == "points" or cfg.add_repeaters else _build_network(cfg)
    rows, aggregates = analysis.sweep_connectivity(network, cfg.model_params(), spec)
    analysis.write_curve_csv(rows, args.out)
    if args.aggregate:
        analysis.write_aggregate_csv(aggregates, args.aggregate)
    # CSV headers are pinned, so provenance rides in a sibling metadata file
    _json_dump({**_provenance(cfg), "rows": len(rows)}, _meta_path(args))
    print(f"swept {len(rows)} runs over {len(d0_grid)} d0 values")
    return 0


def _cmd_threshold(args) -> int:
    unread = {"scenario": "thresholds are for the distributed scenario",
              "epsilon": "use --eps-lo and --eps-hi"}
    if args.alphas:
        unread["alpha"] = "--alpha-value sets the alphas"
    cfg = _resolve_config(args, unread, only={"source": "points"})
    alphas = args.alphas or [cfg.alpha]
    seeds = tuple(subseed(cfg.seed, STREAM_REPLICATE, k) for k in range(args.replicates))

    # one cloud per replicate for all alphas, at any replicate count
    clouds = {seed: topology.generate_uniform_points(cfg.n_points, box_side=cfg.box_side,
                                                     seed=seed) for seed in seeds}

    estimates = []
    for alpha in alphas:
        params = replace(cfg, alpha=alpha).model_params()
        est = analysis.find_threshold(
            clouds.__getitem__, params, target=args.target, tol=args.tol,
            eps_lo=args.eps_lo, eps_hi=args.eps_hi, seeds=seeds)
        estimates.append(est)
        print(f"alpha={alpha:g}: r0_th={est.r0_th:.6g} "
              f"[{est.ci_low:.6g}, {est.ci_high:.6g}]")
        if len(est.probes) == 1:  # the target already held at --eps-lo
            print(f"warning: alpha={alpha:g}: the target holds at --eps-lo, so r0_th=0 is "
                  f"not a crossing; lower --eps-lo, --d0 or --m", file=sys.stderr)
    _json_dump({**_provenance(cfg), "target": args.target,
                "estimates": [analysis.threshold_to_json(e) for e in estimates]}, args.out)
    # a one-probe estimate of 0 is no crossing (warned above), so it has no order
    crossed = [e for e in estimates if len(e.probes) > 1]
    ordered = all(b.r0_th < a.r0_th for a, b in zip(crossed, crossed[1:])
                  if b.alpha > a.alpha)
    if not ordered:
        print("warning: thresholds are not decreasing with alpha", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# calculator commands
# ---------------------------------------------------------------------------

def _cmd_distill(args) -> int:
    if args.which == "success":
        value = quantum.bbpssw_success(args.f)
    elif args.which == "fidelity":
        value = quantum.bbpssw_fidelity(args.f)
    else:
        value = quantum.nested_distill(args.f, args.n, mode=args.mode)
    print(f"{value:.6g}")
    return 0


def _cmd_complexity(args) -> int:
    if args.worst_case:
        missing = [flag for flag in ("--epsilon", "--d-worst", "--d0", "--alpha")
                   if getattr(args, flag[2:].replace("-", "_")) is None]
        if missing:
            raise ValueError(f"--worst-case needs {', '.join(missing)}")
    elif not args.n:
        raise ValueError("complexity needs --n values or --worst-case")
    cp = analysis.ComplexityParams(m=args.m, p=args.p, eta=args.eta)
    lines = []  # printed once every value is computed, so a refused input prints none
    if args.worst_case:
        n = analysis.worst_case_n(args.epsilon, args.d_worst, args.d0, args.alpha)
        lines.append(f"worst_case_n = {n}")
        values = [(n, analysis.interpolate_f(n, cp))]
    else:
        fn = analysis.interpolate_f if args.interpolate else analysis.complexity_f
        values = [(n, fn(n, cp)) for n in args.n]
    for n, f in values:
        line = f"f({n:g}) = {f:.6g}"
        if args.rate is not None:
            line += f"  coherence_time = {analysis.coherence_time(f, args.rate):.6g} s"
        lines.append(line)
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetperc",
        description="Percolation analysis of quantum networks with distributed memories")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic topologies")
    gsub = p.add_subparsers(dest="what", required=True)
    gp = gsub.add_parser("points")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--box", type=float, default=1.0)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out", required=True)
    gf = gsub.add_parser("fiber")
    gf.add_argument("--nodes", type=int, default=692)
    gf.add_argument("--edges", type=int, default=733)
    gf.add_argument("--mean-length", type=float, default=500.0)
    gf.add_argument("--seed", type=int, default=0)
    gf.add_argument("--out", required=True)
    gf.add_argument("--json")

    p = sub.add_parser("ingest", help="validate and canonicalize an edge list")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json")

    p = sub.add_parser("repeaters", help="segment cables with repeater nodes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mean-segment", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run one percolation to its fixed point")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--partition")
    p.add_argument("--events")

    p = sub.add_parser("sweep", help="giant fraction over a d0 grid and scenarios")
    _add_config_flags(p)
    p.add_argument("--d0-grid", required=True, help="comma-separated km values")
    p.add_argument("--scenarios", default="no_memory,point_to_point,distributed")
    p.add_argument("--seeds", default="0")
    p.add_argument("--out", required=True)
    p.add_argument("--aggregate")
    p.add_argument("--meta")

    p = sub.add_parser("threshold", help="bisect the connectivity threshold range")
    _add_config_flags(p)
    p.add_argument("--alpha-value", dest="alphas", type=float, action="append",
                   help="repeatable; thresholds are reported per alpha")
    p.add_argument("--target", type=float, default=0.9)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--eps-lo", type=float, required=True)
    p.add_argument("--eps-hi", type=float, required=True)
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("distill", help="purification calculators")
    dsub = p.add_subparsers(dest="which", required=True)
    for name in ("success", "fidelity"):
        dp = dsub.add_parser(name)
        dp.add_argument("--f", type=float, required=True)
    dp = dsub.add_parser("nested")
    dp.add_argument("--f", type=float, required=True)
    dp.add_argument("--n", type=int, required=True)
    dp.add_argument("--mode", choices=quantum.RANGE_MODES, default="exact")

    p = sub.add_parser("complexity", help="remote-distillation round estimates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--n", type=float, action="append", default=None)
    p.add_argument("--interpolate", action="store_true")
    p.add_argument("--rate", type=float, help="photon detection rate in Hz")
    p.add_argument("--worst-case", action="store_true")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--d-worst", type=float)
    p.add_argument("--d0", type=float)
    p.add_argument("--alpha", type=float)
    return parser


# the arguments that name a file a command writes, and those that name one it reads
_OUTPUTS = ("out", "partition", "events", "aggregate", "meta", "json")
_INPUTS = {"--network": "network_path", "--config": "config", "--in": "infile"}


def _output_paths(args, inputs=None) -> list[str]:
    """The files the command writes.

    Two flags naming one file would keep only one, and an output naming a
    file the command reads would replace its input, so either is an error.
    inputs maps a name to each file read, by default the input flags.
    """
    paths = {f"--{dest}": getattr(args, dest, None) for dest in _OUTPUTS}
    if args.command == "sweep":
        paths["--meta"] = _meta_path(args)
    if inputs is None:
        inputs = {flag: getattr(args, dest, None) for flag, dest in _INPUTS.items()}
    reads: dict[str, str] = {}  # the first name given to each file read
    for name, path in inputs.items():
        if path:
            reads.setdefault(os.path.realpath(path), name)
    first: dict[str, str] = {}  # the first flag to name each file written
    for flag, path in paths.items():
        if not path:
            continue
        real = os.path.realpath(path)
        if real in reads:
            raise ValueError(f"{flag} would overwrite {path}, which {reads[real]} reads")
        if first.setdefault(real, flag) != flag:
            raise ValueError(f"{first[real]} and {flag} both write {path}")
    return [path for path in paths.values() if path]


_HANDLERS = {
    "generate": _cmd_generate,
    "ingest": _cmd_ingest,
    "repeaters": _cmd_repeaters,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "distill": _cmd_distill,
    "complexity": _cmd_complexity,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    created: list[str] = []  # a refused command leaves no file it made, however far it got
    try:
        created = [path for path in _output_paths(args) if not os.path.lexists(path)]
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be read or written
        for path in created:
            if os.path.lexists(path):
                os.remove(path)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
