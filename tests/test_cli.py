"""Config validation, exit codes, artifact contents, and determinism.

Everything drives ``selftrig.cli.main`` with an argv list, so the tests
exercise the same entry point as the installed console script without
spawning subprocesses; one design that used to run without end runs in a
subprocess, under a timeout. Artifacts must be byte-identical across reruns and
across the in-process versus ``--design`` paths; the run logs must satisfy
the advertised accumulation identity on their printed decimal values.
"""

import copy
import csv
import dataclasses
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from selftrig import cli, design, linalg, reports, scheduler, sim
from selftrig.errors import ConfigError

from conftest import DOUBLE_INTEGRATOR_CONFIG, SCALAR_CONFIG


def write_config(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def scalar_cfg(**overrides):
    cfg = copy.deepcopy(SCALAR_CONFIG)
    cfg.update(copy.deepcopy(overrides))
    return cfg


def readme_cfg():
    """The README's config, over a shorter horizon."""
    cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
    cfg["lyapunov"] = {"lambda_ratio": 0.8}
    cfg["simulation"].update(t_end=10.0, disturbance={
        "kind": "sinusoid", "amplitude": 0.1, "frequency": 1.0})
    return cfg


def run(tmp_path, cfg, *argv):
    conf = write_config(tmp_path / "config.json", cfg)
    return cli.main([argv[0], "--config", conf, *argv[1:]])


def assert_design_rejected(tmp_path, capsys, bad, label=None, missing=None):
    """A design file that simulate, compare and feasibility each refuse
    with exit 2 and one error line, which names the ``missing`` entry's
    path when one is given; the config is tmp_path/config.json."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    conf = str(tmp_path / "config.json")
    capsys.readouterr()
    for argv in (["simulate", "--config", conf, "--out", str(tmp_path / "sim")],
                 ["compare", "--config", conf, "--out", str(tmp_path / "cmp")],
                 ["feasibility", "--tau-c", "1e-9"]):
        assert cli.main([*argv, "--design", str(path)]) == 2, (argv[0], label)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if missing is not None:
            assert err == f"error: malformed design file: missing {missing}\n"


def _trajectory_case(case):
    """A trajectory and ISS bound curve for one writer oracle case."""
    rng = np.random.default_rng(5)
    n, l = {"one_row": (1, 1), "two_inputs": (700, 2)}.get(case, (700, 1))
    states = rng.normal(size=(n, 2))
    # Holds start at random rows, as the simulator's do. A case may pin the
    # holds from its first to its last pinned row: each pinned row starts
    # a hold, with the given input or a random one (None).
    starts = set(rng.integers(1, n, 12).tolist()) if n > 1 else set()
    pinned = {
        # One hold across both chunk boundaries.
        "hold_across_chunks": {200: -1.25, 600: None},
        # Equal holds side by side, and a hold that ends at a chunk
        # boundary.
        "signed_zeros": {0: -0.0, 150: -0.0, 300: 0.0, 400: -0.0, 512: 0.0,
                         520: None},
        "extremes": {250: 1e-300, 260: -1e300, 270: None},
    }.get(case, {})
    if pinned:
        starts = {s for s in starts if not min(pinned) < s < max(pinned)}
    holds = np.array(sorted(starts | set(pinned) | {0}))
    inputs = rng.normal(size=(len(holds), l))
    for row, value in pinned.items():
        if value is not None:
            inputs[np.searchsorted(holds, row)] = value
    if case == "extremes":
        states *= 10.0 ** rng.integers(-300, 300, (n, 2))
        states[3] = [-0.0, 5e-324]
    times = np.cumsum(rng.uniform(0.0, 0.1, n))
    traj = sim.Trajectory(times=times, states=states, holds=holds,
                          inputs=inputs, t_k=times[holds],
                          tau_k=np.diff(times[holds], append=times[-1]),
                          n_k=None, v_values=rng.uniform(size=n))
    return traj, rng.uniform(size=n)


def _trajectory_csv_oracle(traj, bound):
    """Bytes of the trajectory CSV, formatted row by row, with each hold's
    input expanded over its rows."""
    n, m = traj.states.shape
    l = traj.inputs.shape[1]
    header = (["t"] + [f"x_{i + 1}" for i in range(m)]
              + [f"u_{j + 1}" for j in range(l)] + ["V", "eiss_bound"])
    inputs = np.repeat(traj.inputs, np.diff(traj.holds, append=n), axis=0)
    rows = np.hstack((traj.times[:, None], traj.states, inputs,
                      traj.v_values[:, None],
                      np.asarray(bound)[:, None])).tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _events_case(case, scalar, double_integrator):
    """A run record for one events writer oracle case."""
    fx = double_integrator
    sinusoid = sim.DisturbanceSpec("sinusoid", 2, amplitude=0.1,
                                   frequency=1.0)
    if case == "periodic":
        return sim.run_periodic(fx.sys, fx.cert, sinusoid, [1.0, -0.5],
                                10.37, 0.9, divisor=7)
    if case == "one_execution":
        return sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      sim.DisturbanceSpec("zero", 1), [2.0],
                                      1e-10)
    if case == "several_hundred":
        return sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      sim.DisturbanceSpec("zero", 1), [2.0],
                                      600.0, divisor=1)
    traj = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, sinusoid,
                                  [1.0, -0.5], 10.0)
    traj.states[traj.holds[:4]] = [[-0.0, 5e-324], [-5e-324, 0.0],
                                   [2.2e-308 / 3.0, -0.0],
                                   [-1e-310, 1e-320]]
    return traj


def _events_csv_oracle(traj):
    """Bytes of the events CSV, formatted one execution at a time."""
    m = traj.states.shape[1]
    header = ["k", "t_k"] + [f"x_{i + 1}" for i in range(m)] + ["n_k", "tau_k"]
    lines = [",".join(header)]
    n_k = [None] * traj.holds.size if traj.n_k is None else traj.n_k
    for k, (t, row, n, tau) in enumerate(zip(traj.t_k, traj.holds, n_k,
                                             traj.tau_k)):
        lines.append(",".join([str(k), repr(float(t))]
                              + [repr(float(v)) for v in traj.states[row]]
                              + ["" if n is None else str(n),
                                 repr(float(tau))]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _polyline_points(body):
    return [line.split('points="', 1)[1].split('"', 1)[0]
            for line in body.split("\n") if line.startswith("<polyline")]


def _polyline_oracle(series):
    """Polyline points of ``reports.svg_plot``, formatted point by point."""
    width, height = reports._SVG_WIDTH, reports._SVG_HEIGHT
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [float(x) for s in series for x in s[1]]
    ys_all = [float(y) for s in series for y in s[2]]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    return [" ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}"
                     for x, y in zip(xs, ys))
            for _label, xs, ys in series]


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

    def test_malformed_scalars_name_their_key(self):
        # Config scalars and number lists follow the one number rule of
        # matrices: no strings, booleans or non-finite values, integers
        # where an integer is due, and each error names its key.
        cases = [
            (("simulation", "t_end"), ("5", True, math.nan, -math.inf, [5.0],
                                       None, 0.0)),
            (("lyapunov", "lambda_ratio"), ("0.5", False)),
            (("simulation", "integrator_divisor"), (20.0, 2.5, True, "20", 0)),
            (("sweep", "delta_list"), ([], 0.1, [[0.1]], [0.1, True],
                                       [0.1, "0.2"], [0.1, math.inf],
                                       [0.1, 0.0])),
        ]
        for (section, key), values in cases:
            for value in values:
                cfg = scalar_cfg(sweep={"delta_list": [0.1],
                                        "tau_max_list": [3.0]})
                cfg.setdefault(section, {})[key] = value
                with pytest.raises(ConfigError) as err:
                    reports.validate_config(cfg)
                assert str(err.value).startswith(f"{section}.{key} must"), (
                    key, value, str(err.value))

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

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # main builds its parser once per process. After a run, a usage
        # error still exits 2 with argparse's text, and a rerun writes the
        # same bytes.
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(a)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: selftrig ")
        assert "invalid choice: 'bogus'" in err
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(b)) == 0
        assert ((a / "design.json").read_bytes()
                == (b / "design.json").read_bytes())
        assert cli._build_parser() is cli._build_parser()

    def test_unknown_key_is_config_error(self, tmp_path):
        assert run(tmp_path, scalar_cfg(bogus=1), "design",
                   "--out", str(tmp_path / "out")) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["design", "--config",
                         str(tmp_path / "absent.json")]) == 2

    def test_non_numeric_matrix_entries_are_config_errors(self, tmp_path,
                                                          capsys):
        # Strings and booleans are not numbers, even where numpy would
        # coerce them: this config used to design without error.
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        cfg["system"] = {"A": [["0", "1"], ["0", "0"]], "B": [[False], [True]],
                         "K": [["-1", "-2"]]}
        capsys.readouterr()
        assert run(tmp_path, cfg, "design", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: system.A ") and err.count("\n") == 1
        for key, value in (("B", [[False], [True]]), ("K", [["-1", "-2"]]),
                           ("A", [[0.0, True], [0.0, 0.0]])):
            cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
            cfg["system"][key] = value
            with pytest.raises(ConfigError, match=f"system.{key} must be"):
                reports.validate_config(cfg)

    def test_sinusoid_phase_past_the_float_range_is_a_config_error(
            self, tmp_path, capsys):
        # At frequency 1e308, 2 pi frequency t is inf for every t > 0: the
        # run used to warn twice and exit 4 with a diverged state.
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        cfg["simulation"]["t_end"] = 5.0
        cfg["simulation"]["disturbance"] = {"kind": "sinusoid",
                                            "amplitude": 0.1,
                                            "frequency": 1e308}
        capsys.readouterr()
        assert run(tmp_path, cfg, "simulate", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulation.disturbance.frequency ")
        assert err.count("\n") == 1

    def test_unstable_loop_is_design_error(self, tmp_path):
        cfg = scalar_cfg(system={"A": 0.0, "B": 1.0, "K": 1.0})
        assert run(tmp_path, cfg, "design",
                   "--out", str(tmp_path / "out")) == 3

    def test_asymmetric_q_is_named_in_its_error(self, tmp_path, capsys):
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        cfg["lyapunov"] = {"Q": [[1.0, 0.5], [0.0, 1.0]]}
        capsys.readouterr()
        assert run(tmp_path, cfg, "design", "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == "error: Q is not symmetric\n"

    @pytest.mark.parametrize("A", [[[1e308, 1.0], [0.0, 0.0]],
                                   [[0.0, 1e308], [0.0, 0.0]]])
    def test_out_of_range_plant_is_one_line_design_error(self, tmp_path,
                                                         capsys, A):
        # The Lyapunov solve used to overflow with a numpy warning before
        # its error line; under -W error that was a traceback.
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        cfg["system"]["A"] = A
        capsys.readouterr()
        assert run(tmp_path, cfg, "design", "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == "error: closed loop not Hurwitz\n"

    @pytest.mark.parametrize("value", [-1e100, -1e200])
    @pytest.mark.parametrize("entry, message, code", [
        ((0, 0), "error: delta=0.05 exceeds the minimum inter-execution time ", 2),
        ((1, 0), "error: dwell-time scan needs", 3),
        ((1, 1), "error: dwell-time scan needs", 3)])
    def test_fast_stable_plant_is_one_line_design_error(self, tmp_path, capsys,
                                                        entry, message, code,
                                                        value):
        # These plants used to end in an OverflowError traceback: from
        # math.exp in the hold growth factor, or from indexing a tau* scan
        # grid of more than 1e100 points. The first has its dwell-time root
        # inside the first grid step, far below delta; the scan used to miss
        # it, and the late tau* overflowed the hold growth factor.
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        cfg["system"]["A"][entry[0]][entry[1]] = value
        capsys.readouterr()
        assert run(tmp_path, cfg, "design", "--out", str(tmp_path / "out")) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err

    def test_failed_solve_for_a_given_q_is_named(self, tmp_path, capsys):
        # A + BK has eigenvalues -1, -1, and this Q's P, 1.5 Q at its
        # largest entry, lies past the float range; the error used to say
        # the closed loop was not Hurwitz.
        cfg = copy.deepcopy(README_CONFIG)
        cfg["lyapunov"]["Q"] = [[1.5e308, 0.0], [0.0, 1.5e308]]
        capsys.readouterr()
        assert run(tmp_path, cfg, "design", "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no certificate for the given Q: Lyapunov "
                              "solve failed: overflow") and err.count("\n") == 1, err

    def test_a_bound_past_the_float_range_proves_nothing(self, tmp_path):
        # |P^(1/2)| |P^(-1/2)| is 1e80 for this plant, whose two modes
        # decouple, and the dwell-time prover's float power of it used to
        # raise OverflowError: a traceback and exit 1. An infinite bound
        # proves no cell, and tau* is the scalar mode's on the same grid.
        cfg = {"system": {"A": [[-1e160, 0.0], [0.0, 0.0]],
                          "B": [[0.0], [1.0]], "K": [[0.0, -1.0]]},
               "trigger": {"delta": 0.05, "tau_max": 1.5}}
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "design", "--out", str(out)) == 0
        dwell = json.loads((out / "design.json").read_text())["dwell_time"]
        scalar = design.LinearSystem(0.0, 1.0, -1.0)
        want = design.min_inter_execution_time(
            scalar, design.make_certificate(scalar),
            grid_step=0.05 / cli._DWELL_GRID_DIVISOR)
        assert dwell["root_found"] and dwell["tau_star"] == want.tau

    def test_design_too_fine_to_allocate_is_one_line_design_error(self, tmp_path,
                                                                 capsys):
        # At delta = 1e-12 the EISS gain quadrature over the longest hold
        # needs 6e12 nodes. A design file of that delta made feasibility and
        # simulate --design end in numpy's allocation traceback and exit 1,
        # the exit of an infeasible platform.
        cfg = copy.deepcopy(README_CONFIG)
        assert run(tmp_path, cfg, "design", "--out", str(tmp_path / "out")) == 0
        data = json.loads((tmp_path / "out" / "design.json").read_text())
        data["trigger"]["delta"] = cfg["trigger"]["delta"] = 1e-12
        fine = write_config(tmp_path / "fine.json", data)
        message = ("error: EISS gain quadrature needs 6e+12 nodes of step "
                   "2.5e-13, more than memory holds\n")
        capsys.readouterr()
        assert cli.main(["feasibility", "--design", fine, "--tau-c", "1e-9"]) == 3
        assert capsys.readouterr().err == message
        assert run(tmp_path, cfg, "simulate", "--design", fine,
                   "--out", str(tmp_path / "sim")) == 3
        assert capsys.readouterr().err == message

    def test_design_at_delta_1e12_ends_with_one_line(self, tmp_path):
        # delta = 1e-12 scans for tau* with step 1e-14, about 9e13 grid
        # points below it; the design used to compute them all and never
        # ended. Proven cells now skip them, and the design stops at the
        # gain quadrature, which does not fit in memory. A subprocess with
        # a timeout fails the test where a scan does not end.
        cfg = copy.deepcopy(README_CONFIG)
        cfg["trigger"]["delta"] = 1e-12
        conf = write_config(tmp_path / "config.json", cfg)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "selftrig", "design", "--config", conf,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 3
        assert done.stderr == ("error: EISS gain quadrature needs 6e+12 nodes "
                               "of step 2.5e-13, more than memory holds\n")

    def test_overlong_hold_is_named_in_the_growth_overflow(self, tmp_path,
                                                           capsys):
        # With tau_max = 1e300 the term of the hold growth factor that
        # overflows is exp(2 lambda (n_max - 1) delta), the longest hold;
        # the error used to blame the energy-rate bound rho and delta.
        cfg = copy.deepcopy(README_CONFIG)
        cfg["trigger"]["tau_max"] = 1e300
        capsys.readouterr()
        assert run(tmp_path, cfg, "design", "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "error: hold growth factor overflows: the longest hold "
            "n_max*delta=1e+300 is too long for lambda=0.234315\n")

    def test_overflowing_gain_integral_is_one_line_design_error(self, tmp_path,
                                                                capsys):
        # norm(exp(10 r)) leaves the float range within the longest hold of
        # 75; design used to print numpy warnings, write NaN gammas into
        # design.json and exit 0.
        cfg = {"system": {"A": [[10.0]], "B": [[1.0]], "K": [[-10.5]]},
               "trigger": {"delta": 0.3, "tau_max": 75.0}}
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(tmp_path, cfg, "design", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == ("error: EISS gains overflow: norm(exp(A r)) over the "
                       "longest hold n_max*delta=75 leaves the float range\n")
        assert not (out / "design.json").exists()

    def test_out_of_range_plant_in_design_file_is_rejected(self, tmp_path,
                                                           capsys):
        out = tmp_path / "out"
        assert run(tmp_path, copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG), "design",
                   "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        for A in ([[1e308, 1.0], [0.0, 0.0]], [[0.0, 1e308], [0.0, 0.0]]):
            bad = copy.deepcopy(report)
            bad["system"]["A"] = A
            assert_design_rejected(tmp_path, capsys, bad, A)

    def test_diverging_run_is_simulation_error(self, tmp_path):
        cfg = scalar_cfg()
        cfg["simulation"] = {"x0": [2.0], "t_end": 5.0,
                             "disturbance": {"kind": "constant",
                                             "amplitude": 1e308}}
        assert run(tmp_path, cfg, "simulate",
                   "--out", str(tmp_path / "out")) == 4

    def test_overflowing_run_is_simulation_error(self, tmp_path, capsys):
        # The states stay finite but V = sqrt(x'Px) does not, as Q = 1e6
        # makes P = 5e5; such a run has no verdict, where it used to write
        # V = inf and a -Infinity worst margin and exit 0.
        cfg = scalar_cfg(lyapunov={"lambda_ratio": 0.5, "Q": [[1e6]]})
        cfg["simulation"] = {"x0": [2.0], "t_end": 5.0,
                             "disturbance": {"kind": "constant",
                                             "amplitude": 1e306}}
        capsys.readouterr()
        assert run(tmp_path, cfg, "simulate",
                   "--out", str(tmp_path / "out")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_undisturbed_state_is_verified(self, tmp_path, capsys):
        # x0 = [1e300, 1e300]: every state and every V lies inside the
        # float range, though their squares do not. The run used to end
        # in "Lyapunov value overflowed" and exit 4.
        cfg = readme_cfg()
        cfg["simulation"].update(x0=[1e300, 1e300], disturbance={"kind": "zero"})
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "simulate", "--out", str(out)) == 0
        verdict = json.loads((out / "verify.json").read_text())
        for check in ("eiss", "decay", "disturbed_decay"):
            assert verdict[check]["violations"] == 0
        assert "error" not in capsys.readouterr().err

    def test_design_reuse_checks_the_plant(self, tmp_path):
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        other = write_config(tmp_path / "di.json",
                             copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG))
        assert cli.main(["simulate", "--config", other,
                         "--design", str(out / "design.json"),
                         "--out", str(tmp_path / "out2")]) == 2

    @pytest.mark.parametrize("change", [
        {"trigger": {"delta": 0.025, "tau_max": 0.9},
         "lyapunov": {"lambda_ratio": 0.5}},
        {"trigger": {"delta": 0.025, "tau_max": 1.5}},
        {"trigger": {"delta": 0.05, "tau_max": 0.9}},
        {"trigger": {"delta": 0.05, "tau_max": 1.5, "tau_min": 0.5}},
        {"lyapunov": {"lambda_ratio": 0.5}},
        {"lyapunov": {"Q": [[2.0, 0.0], [0.0, 2.0]]}},
        {"lyapunov": {"Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                            [0.0, 0.0, 1.0]]}},
    ], ids=["all", "delta", "tau_max", "tau_min", "lambda_ratio", "Q",
            "Q_shape"])
    def test_design_reuse_checks_lyapunov_and_trigger(self, tmp_path, capsys,
                                                      change):
        # A design reused under other lyapunov or trigger settings used to
        # run on the file's window (tau_k up to 1.5 under tau_max 0.9) and
        # exit 0.
        out = tmp_path / "d"
        assert run(tmp_path, readme_cfg(), "design", "--out", str(out)) == 0
        other = write_config(tmp_path / "other.json",
                             {**readme_cfg(), **change})
        capsys.readouterr()
        for command in ("simulate", "compare"):
            assert cli.main([command, "--config", other,
                             "--design", str(out / "design.json"),
                             "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: design file was produced for a "
                                  "different ")
            assert err.count("\n") == 1
            assert not (tmp_path / command).exists()

    def test_design_reuse_runs_on_an_exact_match(self, tmp_path):
        # Q and tau_min spelled out as the values the design took, and
        # another simulation section, still match the design.
        out = tmp_path / "d"
        assert run(tmp_path, readme_cfg(), "design", "--out", str(out)) == 0
        cfg = readme_cfg()
        cfg["lyapunov"]["Q"] = [[1.0, 0.0], [0.0, 1.0]]
        cfg["trigger"]["tau_min"] = 0.9
        cfg["simulation"]["x0"] = [3.0, 0.0]
        conf = write_config(tmp_path / "same.json", cfg)
        for command, names in (("simulate", ("trajectory.csv", "events.csv",
                                             "verify.json")),
                               ("compare", ("compare.json",))):
            fresh, reused = tmp_path / "fresh", tmp_path / "reused"
            assert cli.main([command, "--config", conf,
                             "--out", str(fresh)]) == 0
            assert cli.main([command, "--config", conf,
                             "--design", str(out / "design.json"),
                             "--out", str(reused)]) == 0
            for name in names:
                assert ((fresh / name).read_bytes()
                        == (reused / name).read_bytes())

    def test_unindexable_step_count_is_simulation_error(self, tmp_path,
                                                        capsys):
        # 2**62 integrator steps per grid step are more than an index can
        # count; the step range used to raise ValueError, exit 1 with a
        # traceback.
        cfg = scalar_cfg()
        cfg["simulation"]["integrator_divisor"] = 2**62
        capsys.readouterr()
        for command in ("simulate", "compare"):
            assert run(tmp_path, cfg, command,
                       "--out", str(tmp_path / command)) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_hold_too_long_to_allocate_is_simulation_error(self, tmp_path,
                                                           capsys):
        # At 10**13 integrator steps per grid step a hold's arrays exceed
        # the address space, so numpy refuses them before allocating. The
        # MemoryError used to exit 3, as a failed design, and to abort a
        # sweep before it wrote sweep.csv.
        cfg = readme_cfg()
        cfg["simulation"]["integrator_divisor"] = 10**13
        cfg["sweep"] = {"delta_list": [0.05], "tau_max_list": [1.0, 1.5]}
        capsys.readouterr()
        for command in ("simulate", "compare"):
            assert run(tmp_path, cfg, command,
                       "--out", str(tmp_path / command)) == 4
            err = capsys.readouterr().err
            assert err == ("error: a hold of 300000000000000 integrator steps "
                           "of size 5e-15 does not fit in memory\n"), err
        out = tmp_path / "sweep"
        assert run(tmp_path, cfg, "sweep", "--out", str(out)) == 1
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["error:SimulationError"] * 2

    def test_design_reuse_accepts_the_configs_vector_gains(self, tmp_path):
        # A 1-D B is a column and a 1-D K a row, in the config as in the
        # design file; the file used to be compared with B as a row and
        # refused as made for a different system.
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        cfg["system"]["B"] = [0.0, 1.0]
        cfg["system"]["K"] = [-1.0, -2.0]
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "design", "--out", str(out)) == 0
        assert run(tmp_path, cfg, "simulate", "--out", str(tmp_path / "a")) == 0
        for command in ("simulate", "compare"):
            assert run(tmp_path, cfg, command, "--design",
                       str(out / "design.json"),
                       "--out", str(tmp_path / command)) == 0
        for name in ("trajectory.csv", "events.csv", "verify.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "simulate" / name).read_bytes())

    def test_reused_tables_are_checked(self, tmp_path, capsys):
        # Tables cut short, one too long, sized for another state dimension,
        # with a non-finite entry, or built for another grid are a config
        # problem of the design file, not a crash or a design error; so is
        # a grid whose n_min lies outside [1, n_max] or whose tau_min is not
        # the time its window snaps to, which would hold every input for
        # tau_max. A missing block or entry is named by its path.
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        forms = report["tables"]["forms"]
        cases = {
            "truncated": forms[:10],
            "one too many": forms + [forms[-1]],
            "m = 2": [[[q, 0.0], [0.0, q]] for [[q]] in forms],
            "1 by 2": [[row * 2 for row in Q] for Q in forms],
            "one row each": [Q[0] for Q in forms],
            "NaN": forms[:5] + [[[math.nan]]] + forms[6:],
        }
        for label, bad_forms in cases.items():
            bad = copy.deepcopy(report)
            bad["tables"]["forms"] = bad_forms
            assert_design_rejected(tmp_path, capsys, bad, label)
        assert_design_rejected(tmp_path, capsys, {**report, "tables": {}},
                               "no forms", missing="tables.forms")
        no_tables = {key: value for key, value in report.items()
                     if key != "tables"}
        assert_design_rejected(tmp_path, capsys, no_tables, "no tables",
                               missing="tables.forms")
        bad = copy.deepcopy(report)
        del bad["trigger"]["n_max"]
        assert_design_rejected(tmp_path, capsys, bad, "no trigger.n_max",
                               missing="trigger.n_max")
        trigger = report["trigger"]
        delta = trigger["delta"]
        for key, value in (("delta", 0.05), ("n_min", 0),
                           ("n_min", trigger["n_max"] + 1),
                           ("n_min", trigger["n_min"] + 1),
                           ("tau_min", trigger["tau_max"]),
                           ("tau_min", (trigger["n_min"] - 0.5) * delta)):
            bad = copy.deepcopy(report)
            bad["trigger"][key] = value
            assert_design_rejected(tmp_path, capsys, bad, (key, value))

    def test_reused_grid_entries_are_typed(self, tmp_path, capsys):
        # Grid indices must be JSON integers and grid times finite numbers;
        # a float n_max used to end in a traceback and an infinite tau_max
        # used to load.
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        for key, value in (("n_max", 30.0), ("n_max", 30.5), ("n_max", True),
                           ("tau_max", math.inf)):
            bad = copy.deepcopy(report)
            bad["trigger"][key] = value
            assert_design_rejected(tmp_path, capsys, bad, (key, value))

    def test_feasibility_checks_the_certificate(self, tmp_path, capsys):
        # feasibility reads the state dimension from the checked system,
        # not from len(P): a string, a ragged list or an object as P is
        # refused instead of giving a verdict for dimension 7, 3 or 1. A P
        # whose Q = -(A_cl' P + P A_cl) leaves the float range used to print
        # numpy's overflow warnings ahead of the error line.
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        for value in ("abcdefg", [[0.5], [0.5, 1.0], [1.0]], {"a": 0.5},
                      [[1e308]]):
            bad = copy.deepcopy(report)
            bad["certificate"]["P"] = value
            assert_design_rejected(tmp_path, capsys, bad, value)

    def test_reused_forms_are_checked(self, tmp_path, capsys):
        # Forms that the certificate and trigger grid do not imply are a
        # config problem: every form above n_min replaced by -I, which would
        # let the run hold at tau_max, or a single form edited. Forms that
        # differ only in the last digits, as earlier versions wrote them,
        # still load.
        out = tmp_path / "out"
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        assert run(tmp_path, cfg, "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        n_min = report["trigger"]["n_min"]
        tampered = copy.deepcopy(report)
        forms = tampered["tables"]["forms"]
        forms[n_min + 1:] = [[[-1.0, 0.0], [0.0, -1.0]]] * (len(forms) - n_min - 1)
        one_form = copy.deepcopy(report)
        one_form["tables"]["forms"][n_min][0][1] += 1e-6
        for bad in (tampered, one_form):
            assert_design_rejected(tmp_path, capsys, bad)
        conf = str(tmp_path / "config.json")
        close = copy.deepcopy(report)
        close["tables"]["forms"] = (np.asarray(report["tables"]["forms"])
                                    * (1.0 + 1e-12)).tolist()
        path = tmp_path / "close.json"
        path.write_text(json.dumps(close), encoding="utf-8")
        assert cli.main(["simulate", "--config", conf, "--design", str(path),
                         "--out", str(tmp_path / "sim")]) == 0

    def test_reused_gains_are_checked(self, tmp_path, capsys):
        # Gains and feasibility are rebuilt from the file's system,
        # certificate, dwell time and grid, and every stored entry must
        # match: a shrunken sigma turned a clean run into envelope
        # violations at exit 0, and a grown gamma hides real ones. A dwell
        # time below the window's tau_min fails the derivation itself.
        # Entries within 1e-9 relative still load, and the run uses the
        # derived gains, so its artifacts do not move.
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        tau_min = report["trigger"]["tau_min"]
        for section, key, value in (
                ("gains", "sigma", report["gains"]["sigma"] / 1000),
                ("gains", "gamma_total_coeff",
                 report["gains"]["gamma_total_coeff"] * 1000),
                ("feasibility", "max_tau_c",
                 report["feasibility"]["max_tau_c"] * 2),
                ("dwell_time", "tau_star", 0.5 * tau_min)):
            bad = copy.deepcopy(report)
            bad[section][key] = value
            assert_design_rejected(tmp_path, capsys, bad, (section, key))
        bad = copy.deepcopy(report)
        del bad["gains"]["rho_P"]
        assert_design_rejected(tmp_path, capsys, bad, "no gains.rho_P",
                               missing="gains.rho_P")
        close = copy.deepcopy(report)
        close["gains"] = {key: value * (1.0 + 1e-12)
                          for key, value in report["gains"].items()}
        (tmp_path / "close.json").write_text(json.dumps(close),
                                             encoding="utf-8")
        conf = str(tmp_path / "config.json")
        for name, path in (("exact", out / "design.json"),
                           ("close", tmp_path / "close.json")):
            assert cli.main(["simulate", "--config", conf, "--design",
                             str(path), "--out", str(tmp_path / name)]) == 0
        for name in ("trajectory.csv", "events.csv", "verify.json"):
            assert ((tmp_path / "close" / name).read_bytes()
                    == (tmp_path / "exact" / name).read_bytes())

    @pytest.mark.parametrize("factor", [0.5, 3.0])
    def test_reused_certificate_rate_is_checked(self, tmp_path, capsys,
                                                factor):
        # The trigger enforces lambda = lambda_ratio * lambda_o, with
        # lambda_o the config's own. A file whose lambda_o is scaled, with
        # lambda and every derived block rebuilt to match, used to run
        # under the README config at exit 0, verified at the wrong rate.
        out = tmp_path / "out"
        assert run(tmp_path, readme_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        system = design.LinearSystem(*(report["system"][key] for key in "ABK"))
        P = np.asarray(report["certificate"]["P"])
        Q = -(system.a_cl.T @ P + P @ system.a_cl)
        lambda_o = factor * report["certificate"]["lambda_o"]
        cert = design.LyapunovCertificate(P, lambda_o, 0.8 * lambda_o,
                                          0.5 * (Q + Q.T))
        trig = design.TriggerConfig(**report["trigger"])
        bad = copy.deepcopy(report)
        bad["certificate"].update({"lambda_o": cert.lambda_o,
                                   "lambda": cert.lam})
        bad["gains"] = dataclasses.asdict(design.eiss_gains(system, cert,
                                                            trig))
        bad["tables"]["forms"] = scheduler.build_tables(system, cert,
                                                        trig).forms.tolist()
        assert_design_rejected(tmp_path, capsys, bad, factor)

    def test_reuse_of_a_nearly_equal_design_runs_the_fresh_design(self,
                                                                  tmp_path):
        # A certificate and gains that differ in the last digits, as
        # earlier versions may have written them, still load; the run uses
        # the design rebuilt from the config, so its artifacts are the
        # fresh run's.
        out = tmp_path / "out"
        assert run(tmp_path, readme_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        close = copy.deepcopy(report)
        close["certificate"]["P"] = (np.asarray(report["certificate"]["P"])
                                     * (1.0 + 1e-12)).tolist()
        for key in ("lambda_o", "lambda"):
            close["certificate"][key] *= 1.0 + 1e-12
        close["gains"] = {key: value * (1.0 + 1e-12)
                          for key, value in report["gains"].items()}
        path = tmp_path / "close.json"
        path.write_text(json.dumps(close), encoding="utf-8")
        assert run(tmp_path, readme_cfg(), "simulate",
                   "--out", str(tmp_path / "fresh")) == 0
        assert run(tmp_path, readme_cfg(), "simulate", "--design", str(path),
                   "--out", str(tmp_path / "reused")) == 0
        for name in ("trajectory.csv", "events.csv", "verify.json"):
            assert ((tmp_path / "reused" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    @pytest.mark.parametrize("delta", [20.0, 25.0])
    def test_overflowing_dwell_time_scan_is_one_line_error(self, tmp_path,
                                                           capsys, delta):
        # Large grid steps take this plant's scan past the float range, and
        # numpy's overflow warnings used to print ahead of the error line.
        # The exit code is not pinned: the scan misses this plant's first
        # root (0.1024 on a fine grid), so the error itself is not yet the
        # right one.
        cfg = {"system": {"A": [[-1.0226409409508492, 3.8687164740369355],
                                [-7.267217456260566, 9.858591348892343]],
                          "B": np.eye(2).tolist(),
                          "K": (-6.03038615359015 * np.eye(2)).tolist()},
               "trigger": {"delta": delta, "tau_max": 50.0}}
        capsys.readouterr()
        assert run(tmp_path, cfg, "design",
                   "--out", str(tmp_path / "out")) in (2, 3)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_malformed_design_fields_are_rejected(self, tmp_path, capsys):
        # Entries of the wrong shape, type or range in a reused design.json
        # are a config problem of the file, not a traceback.
        out = tmp_path / "out"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        mutations = [("certificate", "P", [[0.5, 0.0], [0.0, 0.5]]),
                     ("system", "A", [["a"]]),
                     ("gains", "sigma", "x"),
                     ("certificate", "P", [[0.5], [0.5, 1.0]]),
                     ("certificate", "lambda", True),
                     ("gains", "lam", None),
                     ("system", "B", [[1.0, 2.0]]),
                     ("certificate", "lambda", 5.0),
                     ("certificate", "P", [[-0.5]])]
        for section, key, value in mutations:
            bad = copy.deepcopy(report)
            bad[section][key] = value
            assert_design_rejected(tmp_path, capsys, bad, (section, key))

    def test_module_entry_point(self, tmp_path, monkeypatch):
        conf = write_config(tmp_path / "config.json", scalar_cfg())
        monkeypatch.setattr("sys.argv", ["selftrig", "design", "--config",
                                         conf, "--out", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("selftrig", run_name="__main__")
        assert exc.value.code == 0
        assert (tmp_path / "out" / "design.json").is_file()

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
        # An output directory under a file, and a design.json that is a
        # directory (the tests run as root, which a read-only mode would
        # not stop).
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        (tmp_path / "out" / "design.json").mkdir(parents=True)
        for out in (blocker / "sub", tmp_path / "out"):
            assert run(tmp_path, scalar_cfg(), "design",
                       "--out", str(out)) == 2
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
        assert set(report["tables"]) == {"forms"}
        assert set(report["feasibility"]) == {"work_unit", "max_tau_c"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(a)) == 0
        assert run(tmp_path, scalar_cfg(), "design", "--out", str(b)) == 0
        assert ((a / "design.json").read_bytes()
                == (b / "design.json").read_bytes())

    def test_reruns_over_longer_files_stay_byte_identical(self, tmp_path):
        # Each command runs into one directory after a run that wrote longer
        # files there; what it leaves must be what it writes into a fresh
        # directory, so a rewrite is cut to its own length.
        def cfg(tau_max=1.5, t_end=50.0, deltas=(0.05, 0.1),
                tau_maxes=(1.0, 1.5, 2.0)):
            c = copy.deepcopy(README_CONFIG)
            c["trigger"]["tau_max"] = tau_max
            c["simulation"]["t_end"] = t_end
            c["sweep"] = {"delta_list": list(deltas),
                          "tau_max_list": list(tau_maxes)}
            return c

        reused = tmp_path / "reused"
        final = {"design": cfg(tau_max=1.0), "simulate": cfg(t_end=5.0),
                 "compare": cfg(t_end=5.0),
                 "sweep": cfg(deltas=(0.1,), tau_maxes=(1.0, 1.5))}
        for command, last in final.items():
            assert run(tmp_path, cfg(), command, "--out", str(reused)) == 0
            assert run(tmp_path, last, command, "--out", str(reused)) == 0
            fresh = tmp_path / f"fresh_{command}"
            assert run(tmp_path, last, command, "--out", str(fresh)) == 0
            files = [p for p in fresh.rglob("*") if p.is_file()]
            assert files, command
            for path in files:
                assert ((reused / path.relative_to(fresh)).read_bytes()
                        == path.read_bytes()), path

    @pytest.mark.parametrize("Q", [None, [[1.0, 0.0], [0.0, 1.0]]])
    def test_default_q_design_solves_one_lyapunov_equation(self, tmp_path,
                                                           monkeypatch, Q):
        # The Hurwitz check's solve is the default-Q certificate; an explicit
        # Q, even the identity, is solved on its own.
        calls = []
        original = linalg.lyap_solve

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "lyap_solve", counted)
        cfg = copy.deepcopy(README_CONFIG)
        if Q is not None:
            cfg["lyapunov"]["Q"] = Q
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "design", "--out", str(out)) == 0
        assert len(calls) == (1 if Q is None else 2)
        system = design.LinearSystem(*(cfg["system"][key] for key in "ABK"))
        fresh = original(system.a_cl, np.eye(2))
        P = json.loads((out / "design.json").read_text())["certificate"]["P"]
        assert np.asarray(P).tobytes() == fresh.tobytes()


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

    def test_worst_margins_are_located(self, outputs):
        verdict = json.loads((outputs / "verify.json").read_text())
        with open(outputs / "trajectory.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        eiss = [(float(r["eiss_bound"]) - abs(float(r["x_1"])))
                / float(r["eiss_bound"]) for r in rows]
        index = verdict["eiss"]["worst_index"]
        assert abs(eiss[index] - verdict["eiss"]["worst_margin"]) <= 1e-12
        assert min(eiss) >= eiss[index] - 1e-12
        assert verdict["decay"]["worst_k"] in range(verdict["executions"])
        assert (verdict["disturbed_decay"]["worst_k"]
                in range(verdict["disturbed_decay"]["checked_updates"]))

    def test_one_execution_run_checks_no_update(self, tmp_path):
        # A horizon below tau_min leaves no pair of executions to check.
        cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
        cfg["simulation"]["t_end"] = 0.1
        cfg["simulation"]["disturbance"] = {"kind": "sinusoid",
                                            "amplitude": 0.1, "frequency": 1.0}
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "simulate", "--out", str(out)) == 0
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["executions"] == 1
        assert verdict["decay"] is None
        assert verdict["disturbed_decay"] == {"violations": 0,
                                              "worst_margin": 0.0,
                                              "worst_k": None,
                                              "checked_updates": 0}

    def test_trajectory_csv_is_shortest_round_trip(self, tmp_path):
        # Rows are formatted in chunks; the text must be each value's
        # repr, row by row, across chunk boundaries.
        rng = np.random.default_rng(8)
        n = 700
        states = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300,
                                                                (n, 2))
        states[3] = [-0.0, 5e-324]
        # One hold per row.
        times = np.cumsum(rng.uniform(0.0, 0.1, n))
        traj = sim.Trajectory(times=times, states=states, holds=np.arange(n),
                              inputs=rng.normal(size=(n, 1)), t_k=times,
                              tau_k=np.diff(times, append=times[-1]),
                              n_k=None, v_values=rng.uniform(size=n))
        bound = rng.uniform(size=n)
        path = tmp_path / "trajectory.csv"
        reports.write_trajectory_csv(path, traj, bound)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "t,x_1,x_2,u_1,V,eiss_bound"
        assert lines[-1] == "" and len(lines) == n + 2
        for i, line in enumerate(lines[1:-1]):
            values = ([traj.times[i]] + list(traj.states[i])
                      + list(traj.inputs[i]) + [traj.v_values[i], bound[i]])
            assert line == ",".join(repr(float(v)) for v in values)

    @pytest.mark.parametrize("case", ["hold_across_chunks", "signed_zeros",
                                      "two_inputs", "one_row", "extremes"])
    def test_trajectory_csv_matches_row_by_row_oracle(self, tmp_path, case):
        traj, bound = _trajectory_case(case)
        path = tmp_path / "trajectory.csv"
        reports.write_trajectory_csv(path, traj, bound)
        assert path.read_bytes() == _trajectory_csv_oracle(traj, bound)

    @pytest.mark.parametrize("case", ["periodic", "signed_zeros",
                                      "one_execution", "several_hundred"])
    def test_events_csv_matches_row_by_row_oracle(self, tmp_path, case,
                                                  scalar, double_integrator):
        traj = _events_case(case, scalar, double_integrator)
        count = {"one_execution": 1, "several_hundred": math.ceil(600 / 1.4)}
        assert traj.holds.size == count.get(case, traj.holds.size) > 0
        assert (traj.n_k is None) == (case == "periodic")
        path = tmp_path / "events.csv"
        reports.write_events_csv(path, traj)
        assert path.read_bytes() == _events_csv_oracle(traj)

    def test_svg_polylines_match_per_point_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        xs = np.cumsum(rng.uniform(0.0, 0.05, 2000))
        ys = rng.normal(size=2000) * 10.0 ** rng.integers(-3, 3, 2000)
        # A dwell-time series of the CLI's shape: each tau drawn as a step.
        ts, taus = [], []
        t = 0.0
        for tau in rng.uniform(0.2, 1.5, 40).tolist():
            ts.extend([t, t + tau])
            taus.extend([tau, tau])
            t += tau
        for series in ([("a", xs, ys), ("b", xs, 2.0 * ys)],
                       [("tau_k", ts, taus)]):
            path = tmp_path / "plot.svg"
            reports.svg_plot(path, "title", "x", "y", series)
            body = path.read_text(encoding="utf-8")
            assert _polyline_points(body) == _polyline_oracle(series)

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
        # Design reports from earlier versions also stored the grid in
        # "tables" (delta, tau_min, n_min, n_max) and "feasibility"
        # (delta, tau_min), the held flows as a "transitions" table and the
        # packed vectors of the forms n_min..n_max as a "packed" table;
        # loading ignores all of them.
        designed = tmp_path / "d"
        assert run(tmp_path, scalar_cfg(), "design",
                   "--out", str(designed)) == 0
        report = json.loads((designed / "design.json").read_text())
        tables, trigger = report["tables"], report["trigger"]
        tables.update({key: trigger[key]
                       for key in ("delta", "tau_min", "n_min", "n_max")})
        tables["transitions"] = [[[1.0 - 0.1 * n]]
                                 for n in range(trigger["n_max"] + 1)]
        tables["packed"] = [[Q[0][0]]
                            for Q in tables["forms"][trigger["n_min"]:]]
        report["feasibility"].update({key: trigger[key]
                                      for key in ("delta", "tau_min")})
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

    def test_cells_share_one_dwell_time_scan_per_delta(self, tmp_path,
                                                         monkeypatch):
        # Six cells over two deltas run two scans. Unfed, the stable plant
        # decays at its certified rate while held, so no scan finds a root
        # below its cap, 10 / lambda = 20, and each cell clips that cap to
        # its own tau_max.
        calls = []
        scan = design.min_inter_execution_time

        def counted(*args, **kwargs):
            calls.append(kwargs["grid_step"])
            return scan(*args, **kwargs)

        monkeypatch.setattr(design, "min_inter_execution_time", counted)
        cfg = scalar_cfg(system={"A": -1.0, "B": 1.0, "K": 0.0},
                         sweep={"delta_list": [0.1, 0.05],
                                "tau_max_list": [3.0, 1.5, 2.0]})
        del cfg["simulation"]
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "sweep", "--out", str(out)) == 0
        assert sorted(calls) == [0.05 / 100, 0.1 / 100]
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok"] * 6
        for i, row in enumerate(rows):
            report = json.loads((out / "cells" / f"cell_{i:03d}"
                                 / "design.json").read_text())
            dwell = report["dwell_time"]
            assert dwell["tau_star"] == float(row["tau_max"])
            assert dwell["root_found"] is False
            assert dwell["tau_cap"] == pytest.approx(20.0, rel=1e-12)

    def test_failed_cells_are_recorded(self, tmp_path):
        cfg = scalar_cfg(sweep={"delta_list": [2.0], "tau_max_list": [3.0]})
        del cfg["simulation"]
        out = tmp_path / "out"
        assert run(tmp_path, cfg, "sweep", "--out", str(out)) == 1
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "error:ConfigError"


README_CONFIG = {
    "system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]],
               "K": [[-1.0, -2.0]]},
    "lyapunov": {"lambda_ratio": 0.8},
    "trigger": {"delta": 0.05, "tau_max": 1.5},
    "simulation": {"x0": [1.0, -0.5], "t_end": 50.0,
                   "disturbance": {"kind": "sinusoid", "amplitude": 0.1,
                                   "frequency": 1.0}},
    "outputs": {"directory": "out", "emit_plots": True},
    "sweep": {"delta_list": [0.05, 0.025], "tau_max_list": [1.0, 1.5]},
}


class TestReadmeDesign:
    def test_dwell_time_and_gains_are_pinned(self, tmp_path):
        # The README design's tau* and gains, at 1e-9 relative, so that a
        # change to the scan or the gain quadrature that moves them shows
        # here. gamma_I is the integral of norm([[1, r], [0, 1]]) =
        # (r + sqrt(r^2 + 4)) / 2 over the longest hold, 1.5: 1.5 + ln 2.
        out = tmp_path / "out"
        assert run(tmp_path, README_CONFIG, "design", "--out", str(out)) == 0
        report = json.loads((out / "design.json").read_text())
        got = {"tau_star": report["dwell_time"]["tau_star"], **report["gains"]}
        want = {"tau_star": 0.9123932976722715, "sigma": 6.433464964323204,
                "gamma_P_coeff": 6.917892466411577,
                "gamma_I_coeff": 1.5 + math.log(2.0),
                "gamma_total_coeff": 181.35058103388866}
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-9), key


def stdlib_json(data):
    """The text ``dump_json`` must write: the standard library's indented
    encoder, which handles every value in Python."""
    return json.dumps(data, sort_keys=True, indent=2,
                      default=reports._numpy_to_json) + "\n"


_KEYS = st.text(max_size=4)
_LEAVES = (st.none() | st.booleans() | st.text(max_size=6)
           | st.integers(-2**70, 2**70) | st.integers(-2**63, 2**63 - 1).map(np.int64)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]).map(np.float64))
_ARRAYS = arrays(st.sampled_from([np.int64, np.bool_, np.uint8]),
                 array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
# About half of the elements come from a small pool, so arrays repeat
# values as a design's symmetric forms do.
_FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=0, max_dims=3,
                                                min_side=0, max_side=4),
                       elements=st.floats(allow_nan=True, allow_infinity=True)
                       | st.sampled_from([0.0, -0.0, 0.1, -2.5, 1e300,
                                          math.nan, math.inf, -math.inf]))
_PAYLOADS = st.recursive(
    _LEAVES | _ARRAYS | _FLOAT_ARRAYS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=12)


def _symmetric_stack():
    S = np.random.default_rng(0).normal(size=(4, 3, 3))
    return S + S.transpose(0, 2, 1)


class TestDumpJson:
    def test_readme_artifacts_match_the_stdlib_encoder(self, tmp_path,
                                                       monkeypatch):
        # Every JSON file that design, simulate (fresh and reusing a
        # design), compare and sweep write for the README config.
        written = []
        original = reports.dump_json

        def checked(data, path):
            original(data, path)
            written.append((path, stdlib_json(data)))

        monkeypatch.setattr(reports, "dump_json", checked)
        design = tmp_path / "d" / "design.json"
        for argv in (["design", "--out", str(design.parent)],
                     ["simulate", "--out", str(tmp_path / "s")],
                     ["simulate", "--design", str(design),
                      "--out", str(tmp_path / "sd")],
                     ["compare", "--out", str(tmp_path / "c")],
                     ["sweep", "--out", str(tmp_path / "w")]):
            assert run(tmp_path, README_CONFIG, *argv) == 0, argv
        assert len(written) == 8
        for path, text in written:
            assert Path(path).read_text(encoding="utf-8") == text, path

    @settings(max_examples=300, deadline=None)
    @given(data=_PAYLOADS)
    def test_payloads_match_the_stdlib_encoder(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("json") / "x.json"
        reports.dump_json(data, path)
        assert path.read_text(encoding="utf-8") == stdlib_json(data)

    @pytest.mark.parametrize("value", [
        np.array([[0.0, -0.0], [-0.0, 0.0]]),
        np.array([math.nan, -math.nan, math.inf, -math.inf, math.nan, 1.0]),
        np.array([0.1, 0.1, 0.30000000000000004, 0.1, 0.3, 0.3]),
        # A NaN with a payload, the quiet NaN, -0.0 and 0.0.
        np.array([0x7FF8000000000001, 0x7FF8000000000000, 1 << 63, 0],
                 dtype=np.uint64).view(np.float64),
        _symmetric_stack(),
        np.zeros((3, 2, 2)),
        np.array([[1.5, 0.1, -0.0], [0.1, 1.5, 3.4028235e38]], dtype=np.float32),
    ])
    def test_repeated_floats_match_the_stdlib_encoder(self, tmp_path, value):
        # Floats are formatted once per distinct bit pattern: values equal
        # as floats but not in their bits keep their own texts.
        path = tmp_path / "x.json"
        reports.dump_json({"a": value, "b": [value, value.T]}, path)
        assert path.read_text(encoding="utf-8") == stdlib_json(
            {"a": value, "b": [value, value.T]})

    @pytest.mark.parametrize("value", [np.bool_(True), np.float32(1.5),
                                       {1, 2}, np.array([1j])])
    def test_unencodable_values_fail_as_in_the_stdlib(self, tmp_path, value):
        with pytest.raises(TypeError) as want:
            stdlib_json({"a": [value]})
        with pytest.raises(TypeError) as got:
            reports.dump_json({"a": [value]}, tmp_path / "x.json")
        assert str(got.value) == str(want.value)
        assert not (tmp_path / "x.json").exists()
