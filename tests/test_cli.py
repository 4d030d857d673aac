"""End-to-end CLI tests: subcommands, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnetperc.cli import main
from qnetperc.topology import load_edge_list, load_point_cloud

ROOT = Path(__file__).resolve().parents[1]


def invoke(*argv):
    return main(list(argv))


def strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc.pop("generated_at", None)
    return json.dumps(doc, sort_keys=True)


class TestGenerate:
    def test_points_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke("generate", "points", "--n", "50", "--seed", "7", "--out", str(a)) == 0
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
        assert invoke("sweep", "--network", str(net), "--d0-grid", "10,10000",
                      "--seeds", "0,1", "--out", str(out),
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

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_jobs_below_one_exits_2(self, tmp_path, jobs):
        assert invoke(*self.sweep_argv(tmp_path, "--jobs", jobs)) == 2
        assert not (tmp_path / "curves.csv").exists()

    def test_threshold_ordering_smoke(self, tmp_path):
        out = tmp_path / "th.json"
        code = invoke("threshold", "--source", "points", "--n", "150",
                      "--alpha-value", "0", "--alpha-value", "0.585",
                      "--target", "0.5", "--tol", "0.005",
                      "--eps-lo", "1e-4", "--eps-hi", "8e-3",
                      "--replicates", "3", "--d0", "100", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["estimates"]) == 2
        r = {e["alpha"]: e["r0_th"] for e in doc["estimates"]}
        assert r[0.585] < r[0.0]


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

    def test_bad_subcommand_exits_2(self):
        assert invoke("no-such-command") == 2


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported inside generate_fiber_network only
    code = ("import sys, qnetperc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
