"""End-to-end acceptance gate.

Each test here is one headline guarantee of the package, checked at its
stated tolerance against an independent route: a bisection oracle for the
scalar dwell time, brute-force continuous dwell-time measurements for the
design lower bound and the scheduler sandwich, the runtime verifier for the
performance bounds, execution counts against the periodic baseline, an
exact operation-count model for the packed evaluator, series oracles for
the matrix kernels, and byte comparison for determinism. Every test prints
one PASS line (visible under ``pytest -s``) once its assertions hold, and
the expensive ones assert a wall-clock budget so performance regressions
fail loudly rather than silently.
"""

import copy
import json
import time

import numpy as np

from selftrig import cli, design, linalg, scheduler

from conftest import DOUBLE_INTEGRATOR_CONFIG, SCALAR_CONFIG
from test_design import scalar_dwell_oracle
from test_linalg import taylor_expm
from test_sim import measured_dwell_times


def announce(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


def write_config(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def fixture_config(fx, x0, t_end=50.0, divisor=5):
    """CLI config that reproduces a designed fixture's plant and grid."""
    return {
        "system": {"A": fx.sys.A.tolist(), "B": fx.sys.B.tolist(),
                   "K": fx.sys.K.tolist()},
        "lyapunov": {"lambda_ratio": fx.cert.lam / fx.cert.lambda_o},
        "trigger": {"delta": fx.trig.delta, "tau_max": fx.trig.tau_max},
        "simulation": {"x0": list(x0), "t_end": t_end,
                       "integrator_divisor": divisor},
    }


def test_01_dwell_time_matches_independent_root(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "out"
    conf = write_config(tmp_path / "c.json", copy.deepcopy(SCALAR_CONFIG))
    assert cli.main(["design", "--config", conf, "--out", str(out)]) == 0
    report = json.loads((out / "design.json").read_text())
    got = report["dwell_time"]["tau_star"]
    oracle = scalar_dwell_oracle(report["certificate"]["lambda"])
    assert abs(got - oracle) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, "dwell time matches bisection oracle")


def test_02_design_lower_bounds_measured_dwell(corpus):
    start = time.perf_counter()
    for i, fx in enumerate(corpus):
        rng = np.random.default_rng(1000 + i)
        states = list(rng.normal(size=(199, fx.sys.m)))
        # The flat direction of the trigger form at the designed minimum
        # is the state that triggers earliest; it must be measured too.
        form = design.trigger_form(fx.sys, fx.cert, fx.tau_star)
        vals, vecs = linalg.sym_eig(form)
        states.append(vecs[:, int(np.argmin(np.abs(vals)))])
        X = np.array([x / np.linalg.norm(x) for x in states])
        worst = measured_dwell_times(fx.sys, fx.cert, X,
                                     fx.trig.tau_max).min()
        assert worst >= fx.tau_star - 1e-6, fx.name
        assert worst <= fx.tau_star + fx.trig.delta / 100.0, fx.name
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(2, "designed minimum dwell time is tight over the corpus")


def test_03_scheduled_dwell_sandwich(corpus):
    start = time.perf_counter()
    checked = 0
    for i, fx in enumerate(corpus):
        X = np.random.default_rng(2000 + i).normal(size=(50, fx.sys.m))
        measured = measured_dwell_times(fx.sys, fx.cert, X, fx.trig.tau_max)
        for x, exact in zip(X, measured):
            decision = scheduler.next_update(x, fx.tables)
            floor = min(exact, fx.trig.tau_max) - fx.trig.delta
            assert decision.tau >= floor - 1e-12, fx.name
            checked += 1
    assert checked == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(3, "scheduled dwell times undercut the exact ones by "
                "less than one grid step")


def test_04_disturbed_runs_meet_certified_bounds(tmp_path):
    start = time.perf_counter()
    cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
    cfg["simulation"]["disturbance"] = {"kind": "sinusoid", "amplitude": 0.1,
                                        "frequency": 1.0}
    designed = tmp_path / "design"
    conf = write_config(tmp_path / "c.json", cfg)
    assert cli.main(["design", "--config", conf, "--out",
                     str(designed)]) == 0
    rng = np.random.default_rng(42)
    for run in range(10):
        x0 = rng.normal(size=2)
        x0 *= rng.uniform(0.2, 5.0) / np.linalg.norm(x0)
        cfg["simulation"]["x0"] = x0.tolist()
        conf = write_config(tmp_path / f"c{run}.json", cfg)
        out = tmp_path / f"out{run}"
        assert cli.main(["simulate", "--config", conf, "--design",
                         str(designed / "design.json"), "--out",
                         str(out)]) == 0
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["tolerance"] == 1e-6
        assert verdict["eiss"]["violations"] == 0, f"run {run}"
        assert verdict["disturbed_decay"]["violations"] == 0, f"run {run}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(4, "disturbed closed loop meets the certified bounds")


def test_05_undisturbed_runs_decay_at_the_certified_rate(tmp_path):
    cfg = copy.deepcopy(DOUBLE_INTEGRATOR_CONFIG)
    conf = write_config(tmp_path / "c.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", conf, "--out", str(out)]) == 0
    verdict = json.loads((out / "verify.json").read_text())
    assert verdict["disturbance_bound"] == 0.0
    assert verdict["decay"]["violations"] == 0
    assert verdict["eiss"]["violations"] == 0
    announce(5, "undisturbed closed loop decays at the certified rate")


def test_06_never_executes_more_than_the_periodic_baseline(
        tmp_path, scalar, double_integrator, corpus):
    rng = np.random.default_rng(3000)
    for fx in [scalar, double_integrator] + corpus:
        x0 = rng.normal(size=fx.sys.m)
        x0 /= np.linalg.norm(x0)
        conf = write_config(tmp_path / f"{fx.name}.json",
                            fixture_config(fx, x0))
        out = tmp_path / fx.name
        assert cli.main(["compare", "--config", conf, "--out",
                         str(out)]) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["self_triggered_no_worse"] is True, fx.name
        assert (payload["self_triggered"]["executions"]
                <= payload["periodic"]["executions"]), fx.name
    announce(6, "self-triggered execution count never exceeds the "
                "periodic baseline")


def _fixed_dimension_system(m, rng):
    if m == 1:
        return design.LinearSystem(0.5, 1.0, -1.5)
    A = rng.normal(size=(m, m))
    shift = float(np.max(np.real(np.linalg.eigvals(A)))) + 0.5
    a_cl = A - shift * np.eye(m)
    return design.LinearSystem(A, np.eye(m), a_cl - A)


def test_07_packed_evaluation_cost_model_is_exact():
    rng = np.random.default_rng(77)
    for m in (1, 2, 3, 4):
        sys_ = _fixed_dimension_system(m, rng)
        cert = design.make_certificate(sys_)
        result = design.min_inter_execution_time(sys_, cert)
        assert result.root_found
        for q in (5, 16):
            delta = result.tau / 10.5
            trig = design.choose_trigger(result.tau, delta,
                                         (10 + q + 0.5) * delta)
            assert trig.n_min == 10 and trig.n_max == 10 + q
            tables = scheduler.build_tables(sys_, cert, trig)
            packed_len = m * (m + 1) // 2
            worst = scheduler.next_update_packed(np.zeros(m), tables)
            assert worst.op_count == q + (2 * q + 1) * packed_len, (m, q)
            assert worst.n == trig.n_max
            for x in rng.normal(size=(125, m)):
                direct = scheduler.next_update(x, tables)
                packed = scheduler.next_update_packed(x, tables)
                assert direct.n == packed.n, (m, q)
    announce(7, "packed trigger evaluation cost matches the closed form")


def test_08_matrix_kernels_match_series_oracles(double_integrator):
    rng = np.random.default_rng(8)
    A = rng.normal(size=(4, 4))
    assert np.abs(linalg.expm(A, 1.0) - taylor_expm(A)).max() <= 1e-9

    fx = double_integrator
    a_cl = fx.sys.A + fx.sys.B @ fx.sys.K
    residual = a_cl.T @ fx.cert.P + fx.cert.P @ a_cl + fx.cert.Q
    assert (np.abs(residual).max()
            <= 1e-9 * np.abs(fx.cert.Q).max())

    root = linalg.sqrtm_spd(fx.cert.P)
    assert (np.abs(root @ root - fx.cert.P).max()
            <= 1e-9 * np.abs(fx.cert.P).max())

    # With a vanishing grid step the inter-update growth factor tends to 1.
    g = design.hold_growth_factor(1e-9, 1, 1.0, -1.0, 0.5, 1.0)
    assert abs(g - 1.0) <= 1e-6
    announce(8, "matrix kernels agree with their series oracles")


def test_09_noisy_simulations_are_byte_reproducible(tmp_path):
    cfg = copy.deepcopy(SCALAR_CONFIG)
    cfg["simulation"]["t_end"] = 20.0
    cfg["simulation"]["disturbance"] = {"kind": "bounded_noise",
                                        "amplitude": 0.05, "seed": 7}
    conf = write_config(tmp_path / "c.json", cfg)
    pair = []
    for out in ("a", "b"):
        assert cli.main(["simulate", "--config", conf, "--out",
                         str(tmp_path / out)]) == 0
        pair.append({name: (tmp_path / out / name).read_bytes()
                     for name in ("trajectory.csv", "events.csv")})
    assert pair[0] == pair[1]
    announce(9, "noise-driven runs are byte-for-byte reproducible")
