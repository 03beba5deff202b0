"""Config validation, exit codes, artifact contents, and determinism.

Everything drives ``selftrig.cli.main`` with an argv list, so the tests
exercise the same entry point as the installed console script without
spawning subprocesses. Artifacts must be byte-identical across reruns and
across the in-process versus ``--design`` paths; the run logs must satisfy
the advertised accumulation identity on their printed decimal values.
"""

import copy
import csv
import json

import pytest

from selftrig import cli, reports
from selftrig.errors import ConfigError

from conftest import DOUBLE_INTEGRATOR_CONFIG, SCALAR_CONFIG


def write_config(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def scalar_cfg(**overrides):
    cfg = copy.deepcopy(SCALAR_CONFIG)
    cfg.update(copy.deepcopy(overrides))
    return cfg


def run(tmp_path, cfg, *argv):
    conf = write_config(tmp_path / "config.json", cfg)
    return cli.main([argv[0], "--config", conf, *argv[1:]])


class TestConfigValidation:
    def test_unknown_keys_are_named(self):
        cases = [
            ({"bogus": 1}, "config.bogus"),
            ({"system": {"A": 0.0, "B": 1.0, "K": -1.0, "bogus": 1}},
             "system.bogus"),
            ({"lyapunov": {"bogus": 1}}, "lyapunov.bogus"),
            ({"trigger": {"delta": 0.1, "tau_max": 3.0, "bogus": 1}},
             "trigger.bogus"),
            ({"trigger": {"delta": 0.1, "tau_max": 3.0, "decay_exponent": 2}},
             "trigger.decay_exponent"),
            ({"simulation": {"x0": [1.0], "t_end": 1.0, "bogus": 1}},
             "simulation.bogus"),
            ({"simulation": {"x0": [1.0], "t_end": 1.0,
                             "disturbance": {"kind": "zero", "bogus": 1}}},
             "simulation.disturbance.bogus"),
            ({"outputs": {"bogus": 1}}, "outputs.bogus"),
            ({"sweep": {"delta_list": [0.1], "tau_max_list": [3.0],
                        "bogus": 1}}, "sweep.bogus"),
        ]
        for override, expected in cases:
            cfg = scalar_cfg(**override)
            with pytest.raises(ConfigError) as err:
                reports.validate_config(cfg)
            assert f"unknown key {expected}" in str(err.value)

    def test_missing_required_key(self):
        cfg = scalar_cfg()
        del cfg["trigger"]["tau_max"]
        with pytest.raises(ConfigError, match="trigger.tau_max"):
            reports.validate_config(cfg)

    def test_defaults_are_filled(self):
        cfg = reports.validate_config(scalar_cfg())
        assert cfg["lyapunov"]["lambda_ratio"] == 0.5
        assert cfg["trigger"]["tau_min"] is None
        assert cfg["simulation"]["integrator_divisor"] == 20
        assert cfg["simulation"]["disturbance"]["kind"] == "zero"
        assert cfg["outputs"]["emit_plots"] is False

    def test_hash_ignores_formatting(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"system": {"A": 0.0, "B": 1.0, "K": -1.0},'
                     '"trigger": {"delta": 0.1, "tau_max": 3.0}}')
        b.write_text('{\n  "trigger": {"tau_max": 3.0, "delta": 0.1},\n'
                     '  "system": {"K": -1.0,   "A": 0.0, "B": 1.0}\n}\n')
        _, raw_a = reports.load_config(str(a))
        _, raw_b = reports.load_config(str(b))
        assert reports.config_hash(raw_a) == reports.config_hash(raw_b)

    def test_hash_tracks_content(self):
        base = scalar_cfg()
        moved = scalar_cfg()
        moved["trigger"]["tau_max"] = 2.9
        assert reports.config_hash(base) != reports.config_hash(moved)


class TestExitCodes:
    def test_design_succeeds(self, tmp_path):
        assert run(tmp_path, scalar_cfg(), "design",
                   "--out", str(tmp_path / "out")) == 0
        assert (tmp_path / "out" / "design.json").is_file()

    def test_unknown_key_is_config_error(self, tmp_path):
        assert run(tmp_path, scalar_cfg(bogus=1), "design",
                   "--out", str(tmp_path / "out")) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["design", "--config",
                         str(tmp_path / "absent.json")]) == 2

    def test_unstable_loop_is_design_error(self, tmp_path):
        cfg = scalar_cfg(system={"A": 0.0, "B": 1.0, "K": 1.0})
        assert run(tmp_path, cfg, "design",
                   "--out", str(tmp_path / "out")) == 3

    def test_diverging_run_is_simulation_error(self, tmp_path):
        cfg = scalar_cfg()
        cfg["simulation"] = {"x0": [2.0], "t_end": 5.0,
                             "disturbance": {"kind": "constant",
                                             "amplitude": 1e308}}
        assert run(tmp_path, cfg, "simulate",
                   "--out", str(tmp_path / "out")) == 4

    def test_design_reuse_checks_the_plant(self, tmp_path):
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        other = write_config(tmp_path / "di.json",
                             copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG))
        assert cli.main(["simulate", "--config", other,
                         "--design", str(out / "design.json"),
                         "--out", str(tmp_path / "out2")]) == 2

    def test_reused_tables_are_checked(self, tmp_path, capsys):
        # Tables cut short, or sized for another state dimension, are a
        # config problem of the design file, not a crash or a design error.
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        truncated = copy.deepcopy(report)
        truncated["tables"]["forms"] = truncated["tables"]["forms"][:10]
        other_m = copy.deepcopy(report)
        other_m["tables"]["forms"] = [[[q, 0.0], [0.0, q]] for [[q]]
                                      in report["tables"]["forms"]]
        other_delta = copy.deepcopy(report)
        other_delta["tables"]["delta"] = 0.05
        conf = str(tmp_path / "config.json")
        capsys.readouterr()
        for bad in (truncated, other_m, other_delta):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad), encoding="utf-8")
            assert cli.main(["simulate", "--config", conf, "--design",
                             str(path), "--out", str(tmp_path / "sim")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_broken_pipe_is_one_line_error(self, tmp_path, capsys,
                                           monkeypatch):
        class ClosedPipe:
            def write(self, _text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        cfg = scalar_cfg(sweep={"delta_list": [0.1], "tau_max_list": [3.0]})
        cfg["simulation"]["t_end"] = 5.0
        conf = write_config(tmp_path / "config.json", cfg)
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert cli.main(["sweep", "--config", conf,
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unusable_output_path_is_one_line_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert run(tmp_path, scalar_cfg(), "design",
                   "--out", str(blocker / "sub")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_feasibility_verdicts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        design_path = str(out / "design.json")
        assert cli.main(["feasibility", "--design", design_path,
                         "--tau-c", "0.01"]) == 0
        assert cli.main(["feasibility", "--design", design_path,
                         "--tau-c", "0.1"]) == 1
        text = capsys.readouterr().out
        assert "VIOLATED" in text


class TestDesignArtifact:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        assert set(report) == {"tool", "config_hash", "system", "certificate",
                               "dwell_time", "trigger", "gains",
                               "feasibility", "tables"}
        assert report["certificate"]["P"] == [[0.5]]
        assert report["trigger"]["n_min"] == 14
        assert report["trigger"]["n_max"] == 30
        assert report["dwell_time"]["root_found"] is True
        assert report["dwell_time"]["tau_star"] == pytest.approx(
            1.47767006, abs=1e-7)
        # One form per grid index from 0 through n_max inclusive.
        assert len(report["tables"]["forms"]) == 31
        assert set(report["tables"]) == {"delta", "tau_min", "n_min",
                                         "n_max", "forms"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(a)) == 0
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(b)) == 0
        assert ((a / "design.json").read_bytes()
                == (b / "design.json").read_bytes())


class TestSimulateArtifacts:
    @pytest.fixture()
    def outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "simulate", "--out",
                   str(out)) == 0
        return out

    def test_files_and_verdict(self, outputs):
        verdict = json.loads((outputs / "verify.json").read_text())
        assert set(verdict) == {"config_hash", "t_end", "disturbance_bound",
                                "tolerance", "executions", "tau_k", "eiss",
                                "decay", "disturbed_decay"}
        assert verdict["executions"] == 36
        assert verdict["eiss"]["violations"] == 0
        assert verdict["decay"]["violations"] == 0
        assert verdict["disturbed_decay"]["violations"] == 0
        with open(outputs / "trajectory.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t", "x_1", "u_1", "V", "eiss_bound"]

    def test_event_times_accumulate_as_printed(self, outputs):
        with open(outputs / "events.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 36
        for prev, cur in zip(rows, rows[1:]):
            assert (float(cur["t_k"])
                    == float(prev["t_k"]) + float(prev["tau_k"]))

    def test_reuse_path_matches_inline_path(self, outputs, tmp_path):
        designed = tmp_path / "d"
        assert run(tmp_path, scalar_cfg(), "design",
                   "--out", str(designed)) == 0
        reused = tmp_path / "reused"
        conf = str(tmp_path / "config.json")
        assert cli.main(["simulate", "--config", conf,
                         "--design", str(designed / "design.json"),
                         "--out", str(reused)]) == 0
        for name in ("trajectory.csv", "events.csv", "verify.json"):
            assert ((reused / name).read_bytes()
                    == (outputs / name).read_bytes())

    def test_reuse_accepts_report_with_transitions(self, outputs, tmp_path):
        # Design reports from earlier versions also stored the held flows
        # as a "transitions" table and the packed vectors of the forms
        # n_min..n_max as a "packed" table; loading ignores both.
        designed = tmp_path / "d"
        assert run(tmp_path, scalar_cfg(), "design",
                   "--out", str(designed)) == 0
        report = json.loads((designed / "design.json").read_text())
        tables = report["tables"]
        tables["transitions"] = [[[1.0 - 0.1 * n]]
                                 for n in range(tables["n_max"] + 1)]
        tables["packed"] = [[Q[0][0]] for Q in tables["forms"][tables["n_min"]:]]
        (designed / "design.json").write_text(json.dumps(report),
                                              encoding="utf-8")
        reused = tmp_path / "reused"
        assert cli.main(["simulate", "--config", str(tmp_path / "config.json"),
                         "--design", str(designed / "design.json"),
                         "--out", str(reused)]) == 0
        assert ((reused / "events.csv").read_bytes()
                == (outputs / "events.csv").read_bytes())

    def test_noisy_rerun_is_byte_identical(self, tmp_path):
        cfg = scalar_cfg()
        cfg["simulation"]["t_end"] = 20.0
        cfg["simulation"]["disturbance"] = {"kind": "bounded_noise",
                                            "amplitude": 0.05, "seed": 7}
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(tmp_path, cfg, "simulate", "--out", str(a)) == 0
        assert run(tmp_path, cfg, "simulate", "--out", str(b)) == 0
        for name in ("trajectory.csv", "events.csv", "verify.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_plots_are_emitted_on_request(self, tmp_path):
        cfg = scalar_cfg()
        cfg["simulation"]["t_end"] = 10.0
        cfg["outputs"]["emit_plots"] = True
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "simulate", "--out", str(out)) == 0
        for name in ("state_norm", "lyapunov", "dwell_times"):
            body = (out / "plots" / f"{name}.svg").read_text()
            assert body.startswith("<svg") and "polyline" in body


class TestCompare:
    def test_payload_and_dominance(self, tmp_path):
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "compare", "--out",
                   str(out)) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert set(payload) == {"config_hash", "t_end", "self_triggered",
                                "periodic", "self_triggered_no_worse"}
        assert payload["self_triggered_no_worse"] is True
        assert payload["periodic"]["period"] == pytest.approx(1.4, abs=1e-12)
        assert (payload["self_triggered"]["executions"]
                <= payload["periodic"]["executions"])


class TestSweep:
    SWEEP = {"delta_list": [0.1, 0.05], "tau_max_list": [3.0, 1.5]}

    def test_grid_is_sorted_and_monotone(self, tmp_path):
        cfg = scalar_cfg(sweep=self.SWEEP)
        cfg["simulation"]["t_end"] = 20.0
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "sweep", "--out", str(out)) == 0
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        keys = [(float(r["delta"]), float(r["tau_max"])) for r in rows]
        assert keys == sorted(keys)
        assert all(r["status"] == "ok" for r in rows)
        for i in range(4):
            assert (out / "cells" / f"cell_{i:03d}" / "design.json").is_file()
        # A longer scan horizon can only add violation checks, so the
        # guaranteed gain grows with tau_max at fixed delta.
        by_delta = {}
        for r in rows:
            by_delta.setdefault(float(r["delta"]), []).append(
                float(r["gamma_total_coeff"]))
        for gains in by_delta.values():
            assert gains == sorted(gains)

    def test_failed_cells_are_recorded(self, tmp_path):
        cfg = scalar_cfg(sweep={"delta_list": [2.0], "tau_max_list": [3.0]})
        del cfg["simulation"]
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "sweep", "--out", str(out)) == 1
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "error:ConfigError"
