"""End-to-end CLI tests: subcommands, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnetperc import topology
from qnetperc.cli import build_parser, main
from qnetperc.topology import load_edge_list, load_point_cloud

ROOT = Path(__file__).resolve().parents[1]


def invoke(*argv):
    return main(list(argv))


def strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc.pop("generated_at", None)
    return json.dumps(doc, sort_keys=True)


def test_json_dump_refusing_a_payload_leaves_no_file(tmp_path):
    from qnetperc.cli import _json_dump
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        _json_dump({"target": math.nan}, path)
    assert not path.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "generate fiber", "ingest"])
def test_exit_2_leaves_no_output_file_it_created(tmp_path, capsys, command):
    # the last output lies in a missing directory, so its write fails after
    # the first output is written; the input file stays
    net = tmp_path / "net.csv"
    net.write_text(EDGE_LIST, encoding="utf-8")
    first, last = str(tmp_path / "first"), str(tmp_path / "missing_dir" / "last")
    argv = {"run": ("run", "--network", str(net), "--out", first, "--events", last),
            "sweep": ("sweep", "--network", str(net), "--d0-grid", "100,300",
                      "--out", first, "--aggregate", last),
            "generate fiber": ("generate", "fiber", "--nodes", "120", "--edges", "140",
                               "--seed", "1", "--out", first, "--json", last),
            "ingest": ("ingest", "--in", str(net), "--out", first, "--json", last)}
    assert invoke(*argv[command]) == 2
    assert "missing_dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [net]


@pytest.mark.parametrize("command", ["run", "sweep", "sweep default meta", "generate fiber"])
def test_two_outputs_may_not_share_a_path(tmp_path, capsys, command):
    # the second output names the first's file, here by another spelling;
    # the command exits 2 naming both flags before it writes anything
    net = tmp_path / "net.csv"
    net.write_text(EDGE_LIST, encoding="utf-8")
    out, same = str(tmp_path / "out"), os.path.join(str(tmp_path), ".", "out")
    sweep = ("sweep", "--network", str(net), "--d0-grid", "100,300", "--out", out)
    argv, flags = {
        "run": (("run", "--network", str(net), "--out", out, "--partition",
                 str(tmp_path / "partition.json"), "--events", same), "--out and --events"),
        "sweep": ((*sweep, "--meta", same), "--out and --meta"),
        "sweep default meta": ((*sweep, "--aggregate", f"{same}.meta.json"),
                               "--aggregate and --meta"),
        "generate fiber": (("generate", "fiber", "--nodes", "120", "--edges", "140",
                            "--seed", "1", "--out", out, "--json", same), "--out and --json"),
    }[command]
    assert invoke(*argv) == 2
    assert f"{flags} both write" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [net]


@pytest.mark.parametrize("command", ["run", "run --config", "sweep --config", "ingest",
                                     "repeaters"])
def test_no_output_may_overwrite_an_input(tmp_path, capsys, command):
    # the output names a file the command reads, here by another spelling;
    # the command exits 2 naming both flags before it writes anything
    net = tmp_path / "net.csv"
    net.write_text(EDGE_LIST, encoding="utf-8")
    # the sweep's default metadata path, its --out plus .meta.json, is the config
    cfg = tmp_path / "curves.csv.meta.json"
    cfg.write_text(json.dumps({"network_path": str(net)}), encoding="utf-8")
    same = os.path.join(str(tmp_path), ".", "net.csv")
    argv, written, read = {
        "run": (("run", "--network", str(net), "--out", same), "--out", "--network"),
        # the config names the network, and no flag does
        "run --config": (("run", "--config", str(cfg), "--out", same), "--out",
                         "--network (config key 'network_path')"),
        "sweep --config": (("sweep", "--config", str(cfg), "--d0-grid", "100,300",
                            "--out", str(tmp_path / "curves.csv")), "--meta", "--config"),
        "ingest": (("ingest", "--in", str(net), "--out", str(tmp_path / "canon.csv"),
                    "--json", same), "--json", "--in"),
        "repeaters": (("repeaters", "--in", str(net), "--out", same), "--out", "--in"),
    }[command]
    assert invoke(*argv) == 2
    err = capsys.readouterr().err
    assert f"{written} would overwrite" in err and f"which {read} reads" in err
    assert sorted(tmp_path.iterdir()) == sorted([net, cfg])
    assert net.read_text(encoding="utf-8") == EDGE_LIST


class TestGenerate:
    def test_points_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke("generate", "points", "--n", "50", "--seed", "7", "--out", str(a)) == 0
        topology.generate_uniform_points.cache_clear()  # a fresh draw, not the memoized cloud
        assert invoke("generate", "points", "--n", "50", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert load_point_cloud(a).n_nodes == 50

    def test_invalid_n_exits_2(self, tmp_path):
        assert invoke("generate", "points", "--n", "0", "--seed", "1",
                      "--out", str(tmp_path / "x.csv")) == 2

    def test_fiber_counts(self, tmp_path):
        out = tmp_path / "fiber.csv"
        assert invoke("generate", "fiber", "--nodes", "120", "--edges", "140",
                      "--seed", "1", "--out", str(out)) == 0
        net = load_edge_list(out)
        assert net.n_nodes == 120 and net.n_edges == 140

    def test_missing_required_flag_exits_2(self):
        assert invoke("generate", "points", "--n", "5") == 2

    @pytest.mark.parametrize("box", ["nan", "inf"])
    def test_non_finite_box_exits_2(self, tmp_path, capsys, box):
        assert invoke("generate", "points", "--n", "5", "--box", box,
                      "--out", str(tmp_path / "x.csv")) == 2
        assert "box_side" in capsys.readouterr().err


class TestIngestAndRepeaters:
    def test_ingest_canonicalizes(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("u,v,length_km\nb,a,50.0\na,b,40.0\n", encoding="utf-8")
        out = tmp_path / "canon.csv"
        jout = tmp_path / "net.json"
        assert invoke("ingest", "--in", str(raw), "--out", str(out),
                      "--json", str(jout)) == 0
        assert load_edge_list(out).edges == (("a", "b", 40.0),)
        doc = json.loads(jout.read_text())
        assert {n["id"] for n in doc["nodes"]} == {"a", "b"}

    def test_ingest_round_trips_quoted_ids(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text('u,v,length_km\n"a,b",c,5.0\n"say ""hi""",c,2.5\n',
                       encoding="utf-8")
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert invoke("ingest", "--in", str(raw), "--out", str(once)) == 0
        assert invoke("ingest", "--in", str(once), "--out", str(twice)) == 0
        assert once.read_bytes() == twice.read_bytes()
        assert load_edge_list(twice).node_ids == ("a,b", "c", 'say "hi"')

    def test_ingest_bad_file_exits_2(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("u,v,length_km\na,b,zero\n", encoding="utf-8")
        assert invoke("ingest", "--in", str(raw), "--out", str(tmp_path / "o.csv")) == 2

    def test_infinite_mean_segment_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("u,v,length_km\na,b,500.0\n", encoding="utf-8")
        assert invoke("repeaters", "--in", str(raw), "--mean-segment", "inf",
                      "--out", str(tmp_path / "o.csv")) == 2
        assert "mean_segment_km" in capsys.readouterr().err

    def test_too_many_expected_repeaters_exit_2_before_any_draw(self, tmp_path, capsys):
        # 65 km over 1e-9 km segments would draw 6.5e10 cuts, hundreds of GiB
        raw = tmp_path / "raw.csv"
        raw.write_text("u,v,length_km\na,b,30\nb,c,35\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert invoke("repeaters", "--in", str(raw), "--mean-segment", "1e-9",
                      "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: a mean segment of 1e-09 km expects 6.5e+10 repeaters, above the "
            f"limit of {topology.MAX_EXPECTED_REPEATERS}\n")
        assert not out.exists()

    def test_colliding_repeater_ids_exit_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("u,v,length_km\na,b__c,500.0\na__b,c,500.0\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert invoke("repeaters", "--in", str(raw), "--mean-segment", "10",
                      "--out", str(out)) == 2
        assert "rep__a__b__c__0" in capsys.readouterr().err
        assert not out.exists()

    def test_repeaters(self, tmp_path):
        raw = tmp_path / "net.csv"
        raw.write_text("u,v,length_km\na,b,500.0\n", encoding="utf-8")
        out = tmp_path / "seg.csv"
        assert invoke("repeaters", "--in", str(raw), "--mean-segment", "50",
                      "--seed", "3", "--out", str(out)) == 0
        net = load_edge_list(out)
        assert net.n_nodes > 2
        assert net.total_length_km() == pytest.approx(500.0, rel=1e-9)


class TestRun:
    def write_two_nodes(self, tmp_path, d="20.0"):
        p = tmp_path / "net.csv"
        p.write_text(f"u,v,length_km\na,b,{d}\n", encoding="utf-8")
        return p

    def test_two_node_fixture(self, tmp_path):
        net = self.write_two_nodes(tmp_path)
        out = tmp_path / "report.json"
        assert invoke("run", "--network", str(net), "--d0", "300",
                      "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["p_inf"] == 1.0
        assert doc["n_blocks"] == 1
        assert "config_hash" in doc and "seed" in doc

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path):
        net = self.write_two_nodes(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert invoke("run", "--network", str(net), "--d0", "300",
                          "--seed", "5", "--out", str(out)) == 0
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_alpha_zero_matches_oracle(self, tmp_path):
        from conftest import disk_percolation_oracle
        from qnetperc.topology import generate_uniform_points, save_point_cloud
        cloud = generate_uniform_points(25, seed=9)
        cpath = tmp_path / "cloud.csv"
        save_point_cloud(cloud, cpath)
        out = tmp_path / "report.json"
        part = tmp_path / "partition.json"
        # eps chosen so r0 = (4/3)*eps*d0 = 0.2 in box units with d0=1
        assert invoke("run", "--network", str(cpath), "--d0", "1.0",
                      "--epsilon", "0.15", "--m", "1", "--alpha", "0",
                      "--scenario", "no_memory",
                      "--out", str(out), "--partition", str(part)) == 0
        got = {frozenset(b) for b in json.loads(part.read_text())}
        assert got == disk_percolation_oracle(cloud, 0.2)

    def test_config_file_with_flag_override(self, tmp_path):
        net = self.write_two_nodes(tmp_path, d="20.0")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d0_km": 300.0, "network_path": str(net),
                                   "scenario": "distributed"}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert invoke("run", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["d0_km"] == 300.0
        # flag overrides the file
        assert invoke("run", "--config", str(cfg), "--d0", "0.001",
                      "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["d0_km"] == 0.001
        assert doc["p_inf"] == 0.5

    @pytest.mark.parametrize("flag, value, name", [
        ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"),
        ("--d0", "inf", "d0_km"), ("--box", "nan", "box_side")])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, flag, value, name):
        args = {"--d0": "1", "--epsilon": "0.1", "--alpha": "0.585", "--box": "1.0"}
        args[flag] = value
        assert invoke("run", "--source", "points", "--n", "5",
                      *(x for kv in args.items() for x in kv),
                      "--out", str(tmp_path / "r.json")) == 2
        assert name in capsys.readouterr().err

    def test_infinite_length_exits_2(self, tmp_path, capsys):
        net = self.write_two_nodes(tmp_path, d="inf")
        assert invoke("run", "--network", str(net), "--d0", "300",
                      "--out", str(tmp_path / "r.json")) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("u,v,length_km\n,b,5\n", "node ids must not be empty"),
        ("u,v,length_km\na, ,5\n", "node ids must not be empty"),
        ("id,x,y\n0,0.1,0.2\n1,nan,0.3\n", ":3: coordinate x = nan is not finite"),
        ("id,x,y\n0,0.1,-inf\n", ":2: coordinate y = -inf is not finite"),
    ])
    def test_malformed_network_file_exits_2(self, tmp_path, capsys, body, message):
        net = tmp_path / "net.csv"
        net.write_text(body, encoding="utf-8")
        out = tmp_path / "r.json"
        assert invoke("run", "--network", str(net), "--d0", "300", "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # a directory where a file is expected; a permission error takes the same
    # path (OSError) but cannot be provoked when the tests run as root
    @pytest.mark.parametrize("flag", ["--network", "--config"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, flag):
        net = self.write_two_nodes(tmp_path)
        paths = {"--network": str(net), flag: str(tmp_path)}
        out = tmp_path / "r.json"
        assert invoke("run", *(x for kv in paths.items() for x in kv), "--d0", "300",
                      "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("header", ["id, x, y", '"id","x","y"'])
    def test_point_cloud_file_with_a_header_the_loader_reads(self, tmp_path, header):
        body = "0,0.1,0.2\n1,0.3,0.2\n2,0.9,0.9\n"
        plain, net = tmp_path / "plain.csv", tmp_path / "net.csv"
        plain.write_text("id,x,y\n" + body, encoding="utf-8")
        net.write_text(f"{header}\n{body}", encoding="utf-8")
        runs = []
        for path in (plain, net):
            out = tmp_path / f"{path.stem}.json"
            assert invoke("run", "--network", str(path), "--d0", "300", "--out", str(out)) == 0
            runs.append(json.loads(out.read_text()))
        assert runs[1]["n_nodes"] == 3
        assert runs[1]["partition"] == runs[0]["partition"]

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp_speed": 9}), encoding="utf-8")
        assert invoke("run", "--config", str(cfg), "--out",
                      str(tmp_path / "r.json")) == 2

    def test_events_export(self, tmp_path):
        net = self.write_two_nodes(tmp_path)
        out, ev = tmp_path / "r.json", tmp_path / "events.json"
        assert invoke("run", "--network", str(net), "--d0", "300",
                      "--out", str(out), "--events", str(ev)) == 0
        events = json.loads(ev.read_text())
        assert events[0]["type"] == "merge"
        assert events[-1]["type"] == "reduce"

    def test_infinite_range_exits_2_before_writing(self, tmp_path, capsys):
        # exact mode without the beta cap: r(3) is past the fall, so inf;
        # the event log would hold it as the non-standard token Infinity
        net = tmp_path / "net.csv"
        net.write_text("u,v,length_km\na,b,30\nb,c,35\n", encoding="utf-8")
        out, ev = tmp_path / "r.json", tmp_path / "e.json"
        assert invoke("run", "--network", str(net), "--d0", "100", "--m", "4",
                      "--alpha", "1", "--epsilon", "0.2", "--range-mode", "exact",
                      "--no-beta-cap", "--out", str(out), "--events", str(ev)) == 2
        assert "infinite range" in capsys.readouterr().err
        assert not out.exists() and not ev.exists()

    @pytest.mark.parametrize("cap", [(), ("--no-beta-cap",)])
    @pytest.mark.parametrize("command", ["run", "sweep", "threshold"])
    def test_an_overflowing_range_exits_0_or_2(self, tmp_path, capsys, command, cap):
        # (m s) ** alpha passes the largest float: the range is beta with the
        # cap on; without it the range is infinite, which run refuses and a
        # sweep or threshold probe reads as reaching every node
        net = tmp_path / "net.csv"
        net.write_text("u,v,length_km\na,b,30\nb,c,35\n", encoding="utf-8")
        argv = {"run": ("run", "--network", str(net), "--alpha", "200"),
                "sweep": ("sweep", "--source", "points", "--n", "200", "--alpha", "100",
                          "--d0-grid", "1,10", "--seeds", "0"),
                "threshold": ("threshold", "--n", "50", "--alpha-value", "100",
                              "--eps-lo", "1e-4", "--eps-hi", "0.5", "--replicates", "2")}
        out = tmp_path / "out"
        refused = command == "run" and bool(cap)
        assert invoke(*argv[command], *cap, "--out", str(out)) == (2 if refused else 0)
        if refused:
            assert "infinite range" in capsys.readouterr().err
            assert not out.exists()
        elif command == "run":  # beta = 300 ln 3 km spans both cables
            assert json.loads(out.read_text())["p_inf"] == 1.0

    @pytest.mark.parametrize("extra", [("--store", "dense"),
                                       ("--reduction", "dijkstra"),
                                       ("--policy", "random"),
                                       ("--policy", "batch"),
                                       ("--no-prune",)])
    def test_removed_engine_options_exit_2(self, tmp_path, extra):
        net = self.write_two_nodes(tmp_path)
        assert invoke("run", "--network", str(net), "--d0", "300", *extra,
                      "--out", str(tmp_path / "r.json")) == 2


class TestConfigValidation:
    @pytest.mark.parametrize("values", [
        {"beta_cap": "false"}, {"prune": "no"}, {"add_repeaters": 1},
        {"m": 1.5}, {"m": True}, {"seed": "5"}, {"d0_km": "300"},
        {"network_path": 7}, {"policy": "random"}, {"scenario": "shared"},
        {"source": "http"}, {"range_mode": "linear"}, {"reduction": "dijkstra"},
        {"store": "dense"}, {"policy": "lexicographic"}, {"prune": True},
        {"source": "fiber"}, {"source": ["file"]}, {"fiber_nodes": 692},
        {"fiber_edges": 733}, {"fiber_mean_length_km": 500.0},
    ])
    def test_bad_config_file_exits_2_before_any_network(self, tmp_path, monkeypatch,
                                                        values):
        from qnetperc import cli
        built = []
        monkeypatch.setattr(cli, "_build_network", built.append)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"network_path": "net.csv", **values}),
                       encoding="utf-8")
        assert invoke("run", "--config", str(cfg),
                      "--out", str(tmp_path / "r.json")) == 2
        assert built == []

    @pytest.mark.parametrize("key, value, flag", [("range_mode", "foo", ("--range-mode", "exact")),
                                                   ("m", 5.5, ("--m", "3"))])
    def test_config_file_values_are_checked_under_a_flag(self, tmp_path, capsys,
                                                         key, value, flag):
        # the flag overrides the file's value, which must still be valid
        net = tmp_path / "net.csv"
        net.write_text("u,v,length_km\na,b,20.0\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert invoke("run", "--network", str(net), "--config", str(cfg), *flag,
                      "--out", str(out)) == 2
        assert f"config {key} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [("[1, 2]", "config must be a JSON object"),
                                               ("7", "config must be a JSON object"),
                                               ("{", "Expecting property name")])
    def test_config_file_must_be_a_json_object(self, tmp_path, monkeypatch, capsys,
                                               body, message):
        from qnetperc import cli
        built = []
        monkeypatch.setattr(cli, "_build_network", built.append)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body, encoding="utf-8")
        assert invoke("run", "--network", "net.csv", "--config", str(cfg),
                      "--out", str(tmp_path / "r.json")) == 2
        assert message in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("argv, message", [
        (("run", "--source", "points", "--n", "50", "--seed", "-1"),
         "config seed must be >= 0, got -1"),
        (("run", "--source", "points", "--n", "50", "--config", "CFG"),  # seed -4
         "config seed must be >= 0, got -4"),
        (("threshold", "--n", "50", "--eps-lo", "3e-5", "--eps-hi", "8e-4", "--seed", "-5"),
         "config seed must be >= 0, got -5"),
        (("sweep", "--source", "points", "--n", "20", "--d0-grid", "1", "--seeds", "0,-1"),
         "seed must be >= 0, got -1"),
        (("generate", "points", "--n", "5", "--seed", "-3"), "seed must be >= 0, got -3"),
        (("generate", "fiber", "--seed", "-2"), "seed must be >= 0, got -2"),
        (("repeaters", "--in", "NET", "--seed", "-1"), "seed must be >= 0, got -1"),
        # the master seed is 64-bit, though numpy would draw from these
        (("run", "--source", "points", "--n", "50", "--seed", str(2 ** 64)),
         f"config seed must be below 2**64, got {2 ** 64}"),
        (("run", "--source", "points", "--n", "50", "--config", "CFG64"),
         f"config seed must be below 2**64, got {2 ** 64}"),
        (("sweep", "--source", "points", "--n", "20", "--d0-grid", "1", "--seeds",
          f"0,{2 ** 64}"), f"seed must be below 2**64, got {2 ** 64}"),
        (("generate", "points", "--n", "5", "--seed", str(2 ** 64)),
         f"seed must be below 2**64, got {2 ** 64}"),
        (("repeaters", "--in", "NET", "--seed", str(2 ** 64)),
         f"seed must be below 2**64, got {2 ** 64}"),
    ])
    def test_a_negative_seed_exits_2_naming_it(self, tmp_path, capsys, argv, message):
        # numpy refused the negative seeds with "expected non-negative
        # integer", naming no input; every seed outside [0, 2**64) exits 2
        net, cfg, cfg64 = tmp_path / "net.csv", tmp_path / "cfg.json", tmp_path / "cfg64.json"
        net.write_text("u,v,length_km\na,b,500.0\n", encoding="utf-8")
        cfg.write_text(json.dumps({"seed": -4}), encoding="utf-8")
        cfg64.write_text(json.dumps({"seed": 2 ** 64}), encoding="utf-8")
        argv = [{"NET": str(net), "CFG": str(cfg), "CFG64": str(cfg64)}.get(arg, arg)
                for arg in argv]
        out = tmp_path / "out"
        assert invoke(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_run_config_checks_types_and_choices(self):
        from qnetperc.config import RunConfig
        with pytest.raises(ValueError, match="beta_cap"):
            RunConfig(beta_cap="false")
        with pytest.raises(ValueError, match="scenario"):
            RunConfig(scenario="shared")
        cfg = RunConfig(d0_km=300, beta_cap=False)
        assert cfg.model_params().beta_cap is False


class TestSweepThresholdCli:
    def test_sweep_csv(self, tmp_path):
        net = tmp_path / "net.csv"
        net.write_text("u,v,length_km\na,b,30\nb,c,35\n", encoding="utf-8")
        out, agg = tmp_path / "curves.csv", tmp_path / "agg.csv"
        # --repeaters: each seed cuts its own replicate
        assert invoke("sweep", "--network", str(net), "--repeaters",
                      "--d0-grid", "10,10000", "--seeds", "0,1", "--out", str(out),
                      "--aggregate", str(agg)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,d0_km,seed,p_inf"
        assert len(lines) == 1 + 3 * 2 * 2
        assert agg.read_text().splitlines()[0] == "scenario,d0_km,mean,std,n"

    def write_net(self, tmp_path):
        net = tmp_path / "net.csv"
        net.write_text("u,v,length_km\na,b,30\nb,c,35\n", encoding="utf-8")
        return net

    def sweep_argv(self, tmp_path, *extra):
        return ("sweep", "--network", str(self.write_net(tmp_path)),
                "--d0-grid", "10,10000", "--out", str(tmp_path / "curves.csv"), *extra)

    def threshold_argv(self, tmp_path, *extra):
        return ("threshold", "--n", "20", "--eps-lo", "1e-4",
                "--eps-hi", "0.5", "--target", "0.5", "--replicates", "2",
                "--out", str(tmp_path / "th.json"), *extra)

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    def test_base_invocations_succeed(self, tmp_path, command):
        # the control for the exit-2 cases below
        assert invoke(*getattr(self, f"{command}_argv")(tmp_path)) == 0

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    @pytest.mark.parametrize("extra", [("--policy", "batch"), ("--no-prune",)])
    def test_removed_engine_options_exit_2(self, tmp_path, command, extra):
        argv = getattr(self, f"{command}_argv")(tmp_path, *extra)
        assert invoke(*argv) == 2

    @pytest.mark.parametrize("command, flag, key, value, instead", [
        ("sweep", "--scenario", "scenario", "no_memory", "--scenarios"),
        ("sweep", "--d0", "d0_km", 5.0, "--d0-grid"),
        ("threshold", "--scenario", "scenario", "no_memory", "distributed"),
        ("threshold", "--epsilon", "epsilon", 0.01, "--eps-lo"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unread_settings_exit_2(self, tmp_path, capsys, command, flag, key,
                                    value, instead, source):
        # the command would ignore the value yet hash it into config_hash
        if source == "flag":
            extra = (flag, str(value))
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}), encoding="utf-8")
            extra = ("--config", str(cfg))
        assert invoke(*getattr(self, f"{command}_argv")(tmp_path, *extra)) == 2
        err = capsys.readouterr().err
        assert flag in err and instead in err
        assert not (tmp_path / "curves.csv").exists()
        assert not (tmp_path / "th.json").exists()

    @pytest.mark.parametrize("flag, key, value", [
        ("--source", "source", "file"), ("--source", "source", "fiber"),
        ("--network", "network_path", "net.csv"),
        ("--mean-segment", "mean_segment_km", 5.0),
        ("--repeaters", "add_repeaters", True), ("--alpha", "alpha", 0.3),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_threshold_rejects_settings_it_never_reads(self, tmp_path, capsys, flag,
                                                        key, value, via):
        # threshold draws uniform clouds and, given --alpha-value, reads no
        # --alpha, so each of these would only change config_hash
        if via == "flag":
            extra = (flag,) if value is True else (flag, str(value))
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}), encoding="utf-8")
            extra = ("--config", str(cfg))
        argv = self.threshold_argv(tmp_path, "--alpha-value", "0.585", *extra)
        assert invoke(*argv) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "th.json").exists()

    def test_threshold_reads_alpha_without_alpha_value(self, tmp_path):
        assert invoke(*self.threshold_argv(tmp_path, "--alpha", "0.3")) == 0
        doc = json.loads((tmp_path / "th.json").read_text())
        assert [e["alpha"] for e in doc["estimates"]] == [0.3]

    def test_threshold_hashes_the_clouds_it_draws(self, tmp_path):
        hashes = set()
        for extra in ((), ("--source", "points")):
            assert invoke(*self.threshold_argv(tmp_path, *extra)) == 0
            hashes.add(json.loads((tmp_path / "th.json").read_text())["config_hash"])
        assert len(hashes) == 1

    def test_threshold_draws_each_cloud_once_for_all_alphas(self, tmp_path, monkeypatch):
        # 9 replicates are more than the constructor memo holds
        prims = []
        mst_edges = topology._mst_edges
        monkeypatch.setattr(topology, "_mst_edges",
                            lambda positions: prims.append(1) or mst_edges(positions))
        argv = self.threshold_argv(tmp_path, "--replicates", "9",
                                   "--alpha-value", "0", "--alpha-value", "0.585")
        assert invoke(*argv) == 0
        assert len(prims) == 9

    @pytest.mark.parametrize("replicates", ["0", "-1"])
    def test_threshold_without_replicates_exits_2(self, tmp_path, replicates):
        argv = self.threshold_argv(tmp_path, "--replicates", replicates)
        assert invoke(*argv) == 2
        assert not (tmp_path / "th.json").exists()

    def test_threshold_rejects_an_infinite_base_range(self, tmp_path, capsys):
        # uncapped exact ranges are infinite once (4/3) eps m^alpha reaches 1
        assert invoke("threshold", "--range-mode", "exact", "--no-beta-cap",
                      "--eps-lo", "1e-4", "--eps-hi", "0.9", "--n", "20",
                      "--target", "0.5", "--replicates", "2",
                      "--out", str(tmp_path / "th.json")) == 2
        assert "eps_hi" in capsys.readouterr().err
        assert not (tmp_path / "th.json").exists()

    @pytest.mark.parametrize("extra", [("--tol", "nan"), ("--target", "-1"),
                                       ("--target", "nan")])
    def test_threshold_bisection_inputs_exit_2(self, tmp_path, capsys, extra):
        assert invoke(*self.threshold_argv(tmp_path, *extra)) == 2
        assert extra[0][2:] in capsys.readouterr().err
        assert not (tmp_path / "th.json").exists()

    def test_config_file_values_are_checked_under_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"range_mode": "foo"}), encoding="utf-8")
        argv = self.threshold_argv(tmp_path, "--config", str(cfg), "--range-mode", "exact")
        assert invoke(*argv) == 2
        assert "config range_mode must" in capsys.readouterr().err
        assert not (tmp_path / "th.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_jobs_below_one_exits_2(self, tmp_path, jobs):
        assert invoke(*self.sweep_argv(tmp_path, "--jobs", jobs)) == 2
        assert not (tmp_path / "curves.csv").exists()

    def test_sweep_jobs_flag_exits_2(self, tmp_path):
        # sweep runs its probes in one process and has no --jobs
        assert invoke(*self.sweep_argv(tmp_path, "--jobs", "2")) == 2
        assert not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("flag, values, message", [
        ("--seeds", "0,0", "replicate seeds must be distinct"),
        ("--scenarios", "distributed,distributed", "scenarios must be distinct"),
        ("--seeds", "0,1", "a fixed network is one replicate"),
    ])
    def test_sweep_repeated_value_exits_2(self, tmp_path, capsys, flag, values, message):
        # a repeat wrote its rows twice and counted them twice in the aggregate;
        # no seed changes a network file without --repeaters, so its seeds repeat
        argv = self.sweep_argv(tmp_path, flag, values,
                               "--aggregate", str(tmp_path / "agg.csv"))
        assert invoke(*argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "curves.csv").exists()
        assert not (tmp_path / "agg.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--d0-grid", ",", "--d0-grid takes comma-separated km values, got ''"),
        ("--d0-grid", "100,1e3x", "--d0-grid takes comma-separated km values, got '1e3x'"),
        ("--seeds", ",", "--seeds takes comma-separated integer seeds, got ''"),
        ("--seeds", "0,1.5", "--seeds takes comma-separated integer seeds, got '1.5'"),
        ("--scenarios", "foo", "--scenarios takes comma-separated names from no_memory, "
                               "point_to_point, distributed, got 'foo'"),
    ])
    def test_sweep_list_flag_names_a_refused_item(self, tmp_path, capsys, flag, value,
                                                  message):
        # these printed only the parser's message, which named no flag
        assert invoke(*self.sweep_argv(tmp_path, flag, value)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "curves.csv").exists()

    def test_threshold_orders_crossings_only(self, tmp_path, capsys):
        # both estimates are 0 from one probe, warned as no crossing; 0 is not
        # below 0, but neither is a threshold to order
        argv = ("threshold", "--source", "points", "--n", "200", "--alpha-value", "0",
                "--alpha-value", "0.585", "--eps-lo", "7e-4", "--eps-hi", "8e-4",
                "--target", "0.5", "--d0", "100", "--m", "1", "--replicates", "2",
                "--out", str(tmp_path / "th.json"))
        assert invoke(*argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[:2] for line in lines] == [["warning", " alpha=0"],
                                                          ["warning", " alpha=0.585"]]
        doc = json.loads((tmp_path / "th.json").read_text())
        assert [(len(e["probes"]), e["r0_th"]) for e in doc["estimates"]] == [(1, 0)] * 2

    def test_threshold_refuses_an_inversion_between_crossings(self, tmp_path, capsys):
        # at the default m = 102, alpha=1e-12 scales every range by about
        # 1 + 5e-12: both bisections probe the same epsilons and cross at the
        # same one, so alpha=1e-12 reports the larger r0: not decreasing
        argv = ("threshold", "--source", "points", "--n", "150", "--alpha-value", "0",
                "--alpha-value", "1e-12", "--eps-lo", "1e-4", "--eps-hi", "8e-3",
                "--target", "0.5", "--tol", "0.005", "--d0", "100", "--replicates", "2",
                "--out", str(tmp_path / "th.json"))
        assert invoke(*argv) == 1
        assert capsys.readouterr().err == "warning: thresholds are not decreasing with alpha\n"
        low, high = json.loads((tmp_path / "th.json").read_text())["estimates"]
        assert len(low["probes"]) > 1 and len(high["probes"]) > 1
        assert high["r0_th"] >= low["r0_th"]

    def test_threshold_warns_that_a_target_met_at_eps_lo_is_no_crossing(self, tmp_path,
                                                                          capsys):
        # at the default d0 and m, alpha=0.585's base range at --eps-lo already
        # gives the target, so its estimate is 0 from one probe; alpha=0's is not
        argv = self.threshold_argv(tmp_path, "--alpha-value", "0", "--alpha-value", "0.585")
        assert invoke(*argv) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: alpha=0.585:") and "not a crossing" in line
        doc = json.loads((tmp_path / "th.json").read_text())
        crossed, met = doc["estimates"]
        assert len(crossed["probes"]) > 1
        assert len(met["probes"]) == 1 and met["r0_th"] == 0

    def test_threshold_ordering_smoke(self, tmp_path):
        out = tmp_path / "th.json"
        code = invoke("threshold", "--source", "points", "--n", "150",
                      "--alpha-value", "0", "--alpha-value", "0.585",
                      "--target", "0.5", "--tol", "0.005",
                      "--eps-lo", "1e-4", "--eps-hi", "8e-3",
                      "--replicates", "3", "--d0", "100", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert [e["alpha"] for e in doc["estimates"]] == [0.0, 0.585]
        for est in doc["estimates"]:
            assert set(est) == {"alpha", "r0_th", "ci_low", "ci_high", "replicates",
                                "probes"}
        r = {e["alpha"]: e["r0_th"] for e in doc["estimates"]}
        assert r[0.585] < r[0.0]


EDGE_LIST = "u,v,length_km\na,b,30\nb,c,35\n"
POINT_CLOUD = "id,x,y\n0,0.1,0.2\n1,0.3,0.2\n2,0.9,0.9\n"
# the settings each source reads, as documented in the README
READS = {"file": {"--network", "--repeaters", "--mean-segment"}, "points": {"--n", "--box"}}
SETTINGS = {"--network": "network_path", "--n": "n_points", "--box": "box_side",
            "--repeaters": "add_repeaters", "--mean-segment": "mean_segment_km",
            "--source": "source"}


def setting_argv(tmp_path, settings, via):
    """argv giving settings ({flag: value}) as flags, or all in one --config file."""
    if via == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({SETTINGS[f]: v for f, v in settings.items()}),
                       encoding="utf-8")
        return ["--config", str(cfg)]
    return [x for f, v in settings.items() for x in ((f,) if v is True else (f, str(v)))]


def command_argv(command, tmp_path):
    if command == "sweep":
        return ["sweep", "--d0-grid", "1,300", "--out", str(tmp_path / "out")]
    return ["run", "--out", str(tmp_path / "out")]


class TestSourceTable:
    """run and sweep exit 2 on a network setting their source does not read."""

    @pytest.fixture
    def files(self, tmp_path):
        edges, points = tmp_path / "f.csv", tmp_path / "pts.csv"
        edges.write_text(EDGE_LIST, encoding="utf-8")
        points.write_text(POINT_CLOUD, encoding="utf-8")
        return {"f.csv": str(edges), "pts.csv": str(points)}

    @pytest.mark.parametrize("command, base, flag, value", [
        ("run", ("--source", "points", "--n", "40"), "--network", "pts.csv"),
        ("sweep", ("--source", "points", "--n", "40"), "--network", "pts.csv"),
        ("run", ("--network", "f.csv"), "--n", 50),
        ("run", ("--network", "f.csv"), "--box", 7.0),
        ("run", ("--network", "pts.csv"), "--repeaters", True),
        ("run", ("--source", "points", "--n", "40"), "--repeaters", True),
        ("run", ("--network", "f.csv"), "--mean-segment", 5.0),
        ("run", ("--network", "f.csv"), "--source", "fiber"),
        ("sweep", ("--network", "f.csv"), "--source", "fiber"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unread_setting_exits_2_naming_its_flag(self, tmp_path, capsys, files,
                                                    command, base, flag, value, via):
        value = files.get(value, value)
        argv = [*command_argv(command, tmp_path), *(files.get(x, x) for x in base),
                *setting_argv(tmp_path, {flag: value}, via)]
        assert invoke(*argv) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base, flag, value", [
        (("--network", "f.csv", "--repeaters"), "--mean-segment", 5.0),
        (("--source", "points"), "--n", 40),
        (("--source", "points", "--n", "40"), "--box", 2.0),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_read_setting_runs(self, tmp_path, files, base, flag, value, via):
        argv = [*command_argv("run", tmp_path), *(files.get(x, x) for x in base),
                *setting_argv(tmp_path, {flag: value}, via)]
        assert invoke(*argv) == 0
        assert json.loads((tmp_path / "out").read_text())["config"][SETTINGS[flag]] == value

    def test_a_generated_fiber_replaces_the_fiber_source(self, tmp_path):
        # a fiber written by generate fiber and cut by run --repeaters is the
        # network drawn and cut in process from the same seeds
        from qnetperc.config import STREAM_REPEATERS, STREAM_TOPOLOGY, subseed
        from qnetperc.topology import (RepeaterConfig, generate_fiber_network,
                                       insert_repeaters, save_edge_list)
        fiber, drawn = tmp_path / "fiber.csv", tmp_path / "drawn.csv"
        assert invoke("generate", "fiber", "--nodes", "40", "--edges", "48",
                      "--seed", str(subseed(4, STREAM_TOPOLOGY)), "--out", str(fiber)) == 0
        save_edge_list(insert_repeaters(
            generate_fiber_network(40, 48, mean_length_km=500.0,
                                   seed=subseed(4, STREAM_TOPOLOGY)),
            RepeaterConfig(mean_segment_km=50.0, seed=subseed(4, STREAM_REPEATERS))), drawn)
        logs = []
        for argv in (("--network", str(fiber), "--repeaters"), ("--network", str(drawn))):
            events = tmp_path / f"events{len(logs)}.json"
            assert invoke("run", *argv, "--seed", "4", "--d0", "700", "--events", str(events),
                          "--out", str(tmp_path / "r.json")) == 0
            logs.append(events.read_bytes())
        assert logs[0] == logs[1] and len(logs[0]) > 1000


MUTATIONS = {
    "none": lambda rows: rows,
    "dropped field": lambda rows: [rows[0], rows[1].rsplit(",", 1)[0], *rows[2:]],
    "extra field": lambda rows: [rows[0], rows[1] + ",1", *rows[2:]],
    "nan": lambda rows: [rows[0], rows[1].rsplit(",", 1)[0] + ",nan", *rows[2:]],
    "inf": lambda rows: [rows[0], rows[1].rsplit(",", 1)[0] + ",inf", *rows[2:]],
    "negative": lambda rows: [rows[0], rows[1].rsplit(",", 1)[0] + ",-0.5", *rows[2:]],
    "empty id": lambda rows: [rows[0], "," + rows[1].split(",", 1)[1], *rows[2:]],
    "bom": lambda rows: ["\ufeff" + rows[0], *rows[1:]],
    "duplicate id": lambda rows: [*rows, rows[1]],
}


@pytest.mark.oracle
@given(command=st.sampled_from(["run", "sweep"]),
       source=st.sampled_from([None, "file", "points"]),
       kind=st.sampled_from(["edges", "points"]),
       mutation=st.sampled_from(sorted(MUTATIONS)),
       settings=st.sets(st.sampled_from(["--network", "--n", "--box", "--repeaters",
                                         "--mean-segment"])),
       via=st.sampled_from(["flag", "config"]))
@example(command="sweep", source="points", kind="edges", mutation="none",
         settings=set(), via="flag")
@example(command="run", source=None, kind="edges", mutation="none",
         settings={"--network", "--repeaters", "--mean-segment"}, via="config")
@example(command="sweep", source="file", kind="points", mutation="none",
         settings={"--network"}, via="flag")
@settings(max_examples=60, deadline=None)
def test_source_table_decides_the_exit_code(command, source, kind, mutation, settings, via):
    # exit 0 only when the source reads every given setting, and exit 2, not an
    # uncaught error, for a malformed file or a setting it does not read
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        net = tmp_path / "net.csv"
        rows = (EDGE_LIST if kind == "edges" else POINT_CLOUD).splitlines()
        net.write_text("\n".join(MUTATIONS[mutation](rows)) + "\n", encoding="utf-8")
        values = {"--network": str(net), "--n": 5, "--box": 2.0, "--repeaters": True,
                  "--mean-segment": 10.0}
        given_settings = {f: values[f] for f in sorted(settings)}
        if source:
            given_settings["--source"] = source
        argv = [*command_argv(command, tmp_path), *setting_argv(tmp_path, given_settings, via)]
        if command == "run":  # keeps a 1000-point default cloud in singletons
            argv += ["--d0", "0.001"]
        code = invoke(*argv)
    reads = READS[source or "file"]
    all_read = settings <= reads and ("--mean-segment" not in settings
                                      or "--repeaters" in settings)
    assert code in (0, 2)
    assert code == 2 or all_read
    runnable = (source == "points" or "--network" in settings) and not (
        kind == "points" and "--repeaters" in settings)
    if all_read and runnable and mutation == "none":
        assert code == 0


class TestCalculators:
    def test_distill_success(self, capsys):
        assert invoke("distill", "success", "--f", "0.75") == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 0.722222) < 1e-4

    def test_distill_fidelity_and_nested(self, capsys):
        assert invoke("distill", "fidelity", "--f", "0.9") == 0
        assert invoke("distill", "nested", "--f", "0.99", "--n", "4",
                      "--mode", "asymptotic") == 0
        outs = capsys.readouterr().out.split()
        assert abs(float(outs[-1]) - 0.995556) < 1e-5

    def test_complexity_table(self, capsys):
        assert invoke("complexity", "--m", "102", "--p", "0.722",
                      "--n", "204") == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[-1])
        assert value == pytest.approx(1.3e3, rel=0.2)

    def test_complexity_worst_case(self, capsys):
        assert invoke("complexity", "--m", "102", "--p", "0.722", "--worst-case",
                      "--epsilon", "0.01", "--d-worst", "100", "--d0", "300",
                      "--alpha", "0.585", "--rate", "1e6") == 0
        out = capsys.readouterr().out
        assert "worst_case_n = 245" in out
        assert "coherence_time" in out

    def test_complexity_needs_n_or_worst_case(self):
        assert invoke("complexity", "--m", "102", "--p", "0.722") == 2

    def test_complexity_worst_case_names_its_missing_flags(self, capsys):
        assert invoke("complexity", "--m", "102", "--p", "0.722", "--worst-case",
                      "--epsilon", "0.01", "--d0", "300", "--alpha", "0.585") == 2
        assert capsys.readouterr().err == "error: --worst-case needs --d-worst\n"

    @pytest.mark.parametrize("extra, message", [
        (("--n", "nan"), "n must be finite"),
        (("--n", "inf"), "n must be finite"),
        (("--n", "204", "--interpolate", "--n", "nan"), "n must be finite"),
        (("--n", "204", "--rate", "nan"), "detection rate must be finite"),
        (("--n", "204", "--rate", "inf"), "detection rate must be finite"),
        (("--n", "204", "--rate", "0"), "detection rate must be finite"),
        (("--worst-case", "--epsilon", "0.01", "--d-worst", "inf", "--d0", "300",
          "--alpha", "0.585"), "d_worst_km must be finite"),
        (("--worst-case", "--epsilon", "0.01", "--d-worst", "100", "--d0", "300",
          "--alpha", "0.585", "--rate", "nan"), "detection rate must be finite"),
        (("--n", "1e300"), "overflow a float"),
        (("--n", "1e300", "--interpolate"), "overflow a float"),
        (("--p", "0.001", "--n", "1e300"), "overflow a float"),
        (("--worst-case", "--epsilon", "0.01", "--d-worst", "100", "--d0", "300",
          "--alpha", "0.01"), "overflow a float"),
        (("--n", "408", "--rate", "1e-310"), "coherence time"),
        (("--worst-case", "--epsilon", "0.01", "--d-worst", "100", "--d0", "300",
          "--alpha", "1e-4"), "worst_case_n overflows a float at epsilon=0.01, "
                              "d_worst_km=100.0, d0_km=300.0, alpha=0.0001"),
        (("--worst-case", "--epsilon", "1e-300", "--d-worst", "100", "--d0", "1e-300",
          "--alpha", "0.5"), "worst_case_n overflows a float"),
        (("--worst-case", "--epsilon", "1e300", "--d-worst", "1e308", "--d0", "1e300",
          "--alpha", "0.5"), "worst_case_n overflows a float"),
        # named by the query, not by the halving point the recursion failed at
        (("--n", "1e300", "--interpolate"), "the rounds for n = 1e+300 overflow a float "
                                            "at the bracketing halving point 5.33662e+299"),
        (("--n", "1e299", "--interpolate"), "the rounds for n = 1e+299 overflow a float "
                                            "at the bracketing halving point 6.67077e+298"),
    ])
    def test_complexity_refused_input_exits_2(self, capsys, extra, message):
        # these recursed without end or too deep, failed on a float conversion
        # or overflow, printed nan, inf or 0 s, or left the rate out
        assert invoke("complexity", "--m", "102", "--p", "0.722", *extra) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert out == ""

    def test_bad_subcommand_exits_2(self):
        assert invoke("no-such-command") == 2


def readme_cli_commands():
    """Each qnetperc command of README's sh code blocks, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```sh\n")[1:]]
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("qnetperc ")]


@pytest.mark.parametrize("command", readme_cli_commands())
def test_readme_cli_block_parses(command):
    # parses only; a flag the docs still show after its removal fails here
    build_parser().parse_args(command.split()[1:])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # scipy is imported inside generate_fiber_network only, so neither the
    # import nor a run or sweep on points or an edge list with repeaters loads it
    net = tmp_path / "net.csv"
    net.write_text("u,v,length_km\na,b,300\nb,c,350\n", encoding="utf-8")
    runs = [["run", "--source", "points", "--n", "50", "--out", str(tmp_path / "p.json")],
            ["run", "--network", str(net), "--repeaters", "--events", str(tmp_path / "e.json"),
             "--out", str(tmp_path / "r.json")],
            ["sweep", "--network", str(net), "--repeaters", "--d0-grid", "100,1000",
             "--out", str(tmp_path / "s.csv")]]
    code = ("import sys, qnetperc.cli; "
            f"print([qnetperc.cli.main(argv) for argv in {runs!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0]", "[]"]
