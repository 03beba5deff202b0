"""Integrator, dwell-time oracle, run loop, and verification checks.

The integrator is held to the exact held flow ``design.held_transition``
(with ``u = K x`` it equals ``Ad x + Bd u`` of the exact discretization);
the double integrator is nilpotent, so its held response is
polynomial and RK4 reproduces it to rounding, while the scalar plant with
drift exposes the fourth-order error decay. The dwell-time measurement is
checked on the scalar fixture, where holding from any state gives the same
normalized response and the measurement must equal the designed minimum.
"""

import math

import numpy as np
import pytest

from selftrig import design, scheduler, sim
from selftrig.errors import (ConfigError, DimensionError, SimulationError)

DRIFTY = design.LinearSystem(1.0, 1.0, -2.0)


def zero_dist(m):
    return sim.DisturbanceSpec("zero", m)


class TestDisturbance:
    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            sim.DisturbanceSpec("ramp", 1)
        with pytest.raises(ConfigError):
            sim.DisturbanceSpec("zero", 0)
        with pytest.raises(ConfigError):
            sim.DisturbanceSpec("bounded_noise", 1, seed=-1)

    def test_norm_bounds(self):
        zero = sim.DisturbanceSpec("zero", 3)
        const = sim.DisturbanceSpec("constant", 3, amplitude=0.4)
        wave = sim.DisturbanceSpec("sinusoid", 2, amplitude=0.4, frequency=2.0)
        assert zero.linf_bound == 0.0
        assert const.linf_bound == 0.4
        assert np.linalg.norm(const.value(12.3)) == pytest.approx(0.4,
                                                                  rel=1e-12)
        assert np.linalg.norm(wave.value(0.125)) == pytest.approx(
            0.4 * abs(math.sin(2.0 * math.pi * 2.0 * 0.125)), rel=1e-12)

    def test_noise_is_bounded_and_deterministic(self):
        a = sim.DisturbanceSpec("bounded_noise", 3, amplitude=0.7, seed=9)
        b = sim.DisturbanceSpec("bounded_noise", 3, amplitude=0.7, seed=9)
        for step in range(50):
            va = a.value(0.0, step)
            vb = b.value(123.0, step)     # time must not influence the draw
            assert np.array_equal(va, vb)
            assert np.linalg.norm(va) <= 0.7 + 1e-12

    def test_noise_differs_across_steps_and_seeds(self):
        a = sim.DisturbanceSpec("bounded_noise", 2, amplitude=1.0, seed=1)
        b = sim.DisturbanceSpec("bounded_noise", 2, amplitude=1.0, seed=2)
        assert not np.array_equal(a.value(0, 0).copy(), a.value(0, 1))
        assert not np.array_equal(a.value(0, 0).copy(), b.value(0, 0))


class TestIntegrator:
    def test_matches_exact_discretization_with_drift(self):
        x = np.array([1.0])
        u = DRIFTY.K @ x
        exact = design.held_transition(DRIFTY, 2.0) @ x
        errs = []
        for steps in (8, 16, 32):
            out = sim.integrate_held(DRIFTY, x, u, zero_dist(1), 0.0,
                                     2.0 / steps, steps)
            errs.append(abs(out[-1, 0] - exact[0]))
        # Classical fourth order: halving the step cuts the error ~16x.
        assert 8.0 <= errs[0] / errs[1] <= 32.0
        assert 8.0 <= errs[1] / errs[2] <= 32.0
        fine = sim.integrate_held(DRIFTY, x, u, zero_dist(1), 0.0,
                                  2.0 / 256, 256)
        assert abs(fine[-1, 0] - exact[0]) <= 1e-8

    def test_exact_on_polynomial_response(self, double_integrator):
        sys_ = double_integrator.sys
        x = np.array([1.0, -0.5])
        u = sys_.K @ x
        exact = design.held_transition(sys_, 0.73) @ x
        out = sim.integrate_held(sys_, x, u, zero_dist(2), 0.0, 0.73 / 16, 16)
        assert np.abs(out[-1] - exact).max() <= 1e-13

    def test_nilpotent_discretization_closed_form(self, double_integrator):
        # Ad = [[1, 0.5], [0, 1]], Bd = [0.125, 0.5]' and K = [-1, -2]
        # give L(0.5) = Ad + Bd K.
        L = design.held_transition(double_integrator.sys, 0.5)
        assert np.abs(L - np.array([[0.875, 0.25], [-0.5, 0.0]])).max() \
            <= 1e-12

    def test_divergence_is_reported(self):
        grow = design.LinearSystem(50.0, 1.0, -50.5)
        with pytest.raises(SimulationError):
            sim.integrate_held(grow, np.array([1.0]), np.array([100.0]),
                               zero_dist(1), 0.0, 3.0, 60)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            sim.integrate_held(DRIFTY, np.ones(2), np.ones(1), zero_dist(1),
                               0.0, 0.1, 1)


class TestDwellTimeMeasurement:
    def test_scalar_measurement_equals_designed_minimum(self, scalar):
        grid = sim.HeldFlowGrid(scalar.sys, scalar.trig.tau_max)
        for x in (2.0, -0.3, 11.0):
            got = sim.continuous_dwell_time(scalar.sys, scalar.cert,
                                            [x], scalar.trig.tau_max,
                                            grid=grid)
            assert abs(got - scalar.tau_star) <= 1e-7

    def test_origin_never_triggers(self, scalar):
        got = sim.continuous_dwell_time(scalar.sys, scalar.cert, [0.0],
                                        scalar.trig.tau_max)
        assert got == scalar.trig.tau_max

    def test_measurement_saturates_at_horizon(self, scalar):
        got = sim.continuous_dwell_time(scalar.sys, scalar.cert, [1.0], 0.5)
        assert got == 0.5

    def test_designed_minimum_lower_bounds_measurements(self, double_integrator):
        fx = double_integrator
        grid = sim.HeldFlowGrid(fx.sys, fx.trig.tau_max)
        rng = np.random.default_rng(20)
        for _ in range(50):
            x = rng.normal(size=2)
            got = sim.continuous_dwell_time(fx.sys, fx.cert, x,
                                            fx.trig.tau_max, grid=grid)
            assert got >= fx.tau_star - 1e-6

    def test_grid_flows_match_single_exponentials(self, double_integrator):
        # The grid is built in chunks; every point must equal the flow of a
        # single exponential at the same time.
        sys_ = double_integrator.sys
        grid = sim.HeldFlowGrid(sys_, 1.5, n_points=700)
        assert np.array_equal(grid.flows[0], np.eye(2))
        for tau, flow in zip(grid.taus, grid.flows):
            single = design.held_transition(sys_, tau)
            assert np.abs(flow - single).max() <= 1e-14 * np.abs(single).max()

    def test_stale_grid_is_rejected(self, scalar):
        grid = sim.HeldFlowGrid(scalar.sys, 1.0)
        with pytest.raises(ConfigError):
            sim.continuous_dwell_time(scalar.sys, scalar.cert, [1.0], 2.0,
                                      grid=grid)


class TestRunLoop:
    def test_scalar_schedule_and_horizon(self, scalar):
        traj, log = sim.run_self_triggered(scalar.sys, scalar.cert,
                                           scalar.tables, zero_dist(1),
                                           [2.0], 50.0)
        assert log.total_executions == math.ceil(50.0 / 1.4)
        taus = log.taus
        assert np.all(np.abs(taus - 1.4) <= 1e-12)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[-1] == pytest.approx(50.0, abs=1e-7)
        assert traj.times[0] == 0.0

    def test_event_times_accumulate_taus(self, scalar):
        _traj, log = sim.run_self_triggered(scalar.sys, scalar.cert,
                                            scalar.tables, zero_dist(1),
                                            [2.0], 20.0)
        t = 0.0
        for e in log.events:
            assert e.t == t
            t = t + e.tau

    def test_truncated_final_interval_logs_intended_tau(self, scalar):
        traj, log = sim.run_self_triggered(scalar.sys, scalar.cert,
                                           scalar.tables, zero_dist(1),
                                           [2.0], 3.1)
        assert log.total_executions == 3
        assert log.events[-1].tau == pytest.approx(1.4, rel=1e-12)
        assert traj.times[-1] == pytest.approx(3.1, abs=1e-12)

    def test_packed_evaluator_gives_identical_run(self, double_integrator):
        # The run schedules with the full-matrix scan; the packed evaluator
        # must take the same decision at every logged state.
        fx = double_integrator
        _traj, log = sim.run_self_triggered(fx.sys, fx.cert, fx.tables,
                                            zero_dist(2), [1.0, -0.5], 20.0)
        assert log.total_executions > 10
        for e in log.events:
            assert scheduler.next_update_packed(e.x, fx.tables).n == e.n

    def test_noise_runs_are_reproducible(self, double_integrator):
        fx = double_integrator
        noise = sim.DisturbanceSpec("bounded_noise", 2, amplitude=0.05,
                                    seed=33)
        traj_a, _ = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, noise,
                                           [1.0, 0.0], 10.0)
        noise_b = sim.DisturbanceSpec("bounded_noise", 2, amplitude=0.05,
                                      seed=33)
        traj_b, _ = sim.run_self_triggered(fx.sys, fx.cert, fx.tables,
                                           noise_b, [1.0, 0.0], 10.0)
        assert np.array_equal(traj_a.states, traj_b.states)

    def test_periodic_schedule(self, double_integrator):
        fx = double_integrator
        traj, log = sim.run_periodic(fx.sys, fx.cert, zero_dist(2),
                                     [1.0, -0.5], 10.0, 0.9)
        assert log.total_executions == math.ceil(10.0 / 0.9)
        assert all(e.n is None for e in log.events)
        assert all(e.tau == 0.9 for e in log.events)
        assert traj.times[-1] == pytest.approx(10.0, abs=1e-12)

    def test_input_validation(self, scalar):
        with pytest.raises(DimensionError):
            sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                   zero_dist(1), [1.0, 2.0], 10.0)
        with pytest.raises(DimensionError):
            sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                   zero_dist(2), [1.0], 10.0)
        with pytest.raises(SimulationError):
            sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                   zero_dist(1), [1.0], -1.0)
        with pytest.raises(SimulationError):
            sim.run_periodic(scalar.sys, scalar.cert, zero_dist(1), [1.0],
                             10.0, 0.0)


class TestVerification:
    def test_undisturbed_run_meets_all_bounds(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig,
                                  tau_star=scalar.tau_star)
        dist = zero_dist(1)
        traj, log = sim.run_self_triggered(scalar.sys, scalar.cert,
                                           scalar.tables, dist, [2.0], 50.0)
        rep = sim.verify(traj, log, gains, scalar.cert, dist, scalar.sys)
        assert rep.eiss_violations == 0
        assert rep.decay_violations == 0
        assert rep.disturbed_decay_violations == 0
        # The initial instant meets the envelope with equality.
        assert rep.decay_worst_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_curve[0] == pytest.approx(gains.sigma * 2.0,
                                                   rel=1e-12)

    def test_disturbed_run_skips_pure_decay_check(self, double_integrator):
        fx = double_integrator
        gains = design.eiss_gains(fx.sys, fx.cert, fx.trig,
                                  tau_star=fx.tau_star)
        dist = sim.DisturbanceSpec("sinusoid", 2, amplitude=0.1,
                                   frequency=1.0)
        traj, log = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, dist,
                                           [1.0, -0.5], 30.0)
        rep = sim.verify(traj, log, gains, fx.cert, dist, fx.sys)
        assert rep.decay_violations is None
        assert rep.eiss_violations == 0
        assert rep.disturbed_decay_violations == 0
        assert rep.checked_updates == log.total_executions - 1

    def test_violations_are_counted(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig,
                                  tau_star=scalar.tau_star)
        dist = zero_dist(1)
        traj, log = sim.run_self_triggered(scalar.sys, scalar.cert,
                                           scalar.tables, dist, [2.0], 20.0)
        # Shrinking the claimed transient gain below 1 must flag the start
        # of the run, where the envelope equals sigma |x0|.
        import dataclasses
        broken = dataclasses.replace(gains, sigma=0.5)
        rep = sim.verify(traj, log, broken, scalar.cert, dist, scalar.sys)
        assert rep.eiss_violations > 0
        assert rep.eiss_worst_margin < 0.0
