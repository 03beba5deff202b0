"""Integrator, dwell-time oracle, run loop, and verification checks.

The integrator is held to the exact held flow ``design.held_transition``
(with ``u = K x`` it equals ``Ad x + Bd u`` of the exact discretization);
the double integrator is nilpotent, so its held response is
polynomial and RK4 reproduces it to rounding, while the scalar plant with
drift exposes the fourth-order error decay. Step for step, the package's
affine step map is held to :func:`rk4_reference`, the classical four-stage
RK4 loop written out here with one disturbance sample per stage.

The dwell-time oracle :func:`measured_dwell_times` lives here too; the
acceptance tests import it to hold the designed minimum and the scheduled
dwell times against brute-force measurements. It is checked on the scalar
fixture, where holding from any state gives the same normalized response
and the measurement must equal the designed minimum.
"""

import math

import numpy as np
import pytest

from selftrig import design, linalg, reports, scheduler, sim
from selftrig.errors import (ConfigError, DimensionError, SimulationError)

DRIFTY = design.LinearSystem(1.0, 1.0, -2.0)


def zero_dist(m):
    return sim.DisturbanceSpec("zero", m)


def lyapunov_value(cert, x):
    """V(x) = sqrt(x' P x) for a single state vector."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return math.sqrt(max(0.0, float(x @ cert.P @ x)))


def rk4_reference(sys_, x, u, dist, t0, dt, steps, step0=0):
    """Classical RK4 in stage form, one step and one sample at a time."""
    x = np.asarray(x, dtype=float)
    out = [x]
    bu = sys_.B @ u
    half = 0.5 * dt
    for i in range(steps):
        t = t0 + i * dt
        s = step0 + i
        k1 = sys_.A @ x + bu + dist.value(t, s)
        k2 = sys_.A @ (x + half * k1) + bu + dist.value(t + half, s)
        k3 = sys_.A @ (x + half * k2) + bu + dist.value(t + half, s)
        k4 = sys_.A @ (x + dt * k3) + bu + dist.value(t + dt, s)
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(x)
    return np.array(out)


# Grid density of the dwell-time oracle scan, and the number of sub-steps
# each refinement round splits the bracketing step into.
ORACLE_POINTS = 5000
ORACLE_REFINE = 32


def measured_dwell_times(sys_, cert, X, tau_max, tol=1e-9):
    """How long the continuous decay condition survives from each row of ``X``.

    Returns, per state ``x``, the largest ``tau <= tau_max`` such that
    ``V(xi_x(s)) <= V(x) exp(-lam s)`` for every ``s`` in ``[0, tau]``,
    measured on exact held-input flows rather than on the squared decay
    form the design and the scheduler use. All states share one scan over
    ``ORACLE_POINTS`` grid steps: one stack of held flows, and ``V`` of
    every flowed state in one contraction over states and grid. Each
    state's first up-crossing is then refined on sub-grids of
    ``ORACLE_REFINE`` steps, each a set of integer multiples of the round's
    own step, until the step is at most ``tol``; one round takes one
    exponential stack over the sub-grids of every state still being
    refined. This is the measurement the designed minimum inter-execution
    time must lower-bound for every state.
    """
    m = sys_.m
    X = np.asarray(X, dtype=float).reshape(-1, m)
    n_points = max(2, int(min(ORACLE_POINTS,
                              math.ceil(tau_max / max(10.0 * tol, 1e-12)))))
    step = tau_max / n_points
    v0 = np.array([lyapunov_value(cert, x) for x in X])

    def flows_at(taus):
        E = linalg.expm_grid(sys_.van_loan, taus.reshape(-1))
        L = E[:, :m, :m] + E[:, :m, m:] @ sys_.K
        return L.reshape(taus.shape + (m, m))

    def excess(flowed, v0, taus):
        # V along the flowed states, one row per state.
        q = np.einsum("sni,sni->sn", flowed @ cert.P, flowed)
        return np.sqrt(np.maximum(0.0, q)) - v0[:, None] * np.exp(
            -cert.lam * taus)

    # The first point after the start where the condition fails, or
    # ``default``; point 0 is the start state, where the excess is zero by
    # construction and its sign is rounding noise.
    def first_above(h, default):
        above = h[:, 1:] > 0.0
        return np.where(above.any(axis=1), np.argmax(above, axis=1) + 1,
                        default)

    taus = step * np.arange(n_points + 1)
    flowed = (X @ flows_at(taus).swapaxes(1, 2)).swapaxes(0, 1)
    j = first_above(excess(flowed, v0, taus), -1)
    live = (v0 > 0.0) & (j >= 0)
    live[live] = taus[j[live]] <= tau_max
    out = np.full(X.shape[0], float(tau_max))
    # The crossing lies in ((j - 1) step, j step]. A refinement that finds
    # no failing point, its last point being the old one recomputed within
    # rounding, keeps the last sub-interval.
    j, X, v0 = j[live], X[live], v0[live]
    while step > tol:
        step /= ORACLE_REFINE
        starts = (j - 1) * ORACLE_REFINE
        sub = step * (starts[:, None] + np.arange(ORACLE_REFINE + 1))
        flowed = (flows_at(sub) @ X[:, None, :, None])[..., 0]
        j = starts + first_above(excess(flowed, v0, sub), ORACLE_REFINE)
    out[live] = (j - 0.5) * step
    return out


def all_kinds(m):
    return [sim.DisturbanceSpec("zero", m),
            sim.DisturbanceSpec("constant", m, amplitude=0.3),
            sim.DisturbanceSpec("sinusoid", m, amplitude=0.3, frequency=1.7),
            sim.DisturbanceSpec("bounded_noise", m, amplitude=0.3, seed=4)]


class TestDisturbance:
    def test_kind_validation(self):
        # The spec and the config check read one tuple of kinds.
        with pytest.raises(ConfigError) as spec:
            sim.DisturbanceSpec("ramp", 1)
        assert str(spec.value) == (
            "unknown disturbance kind 'ramp', expected one of "
            "('zero', 'constant', 'sinusoid', 'bounded_noise')")
        cfg = {"system": {"A": 0.0, "B": 1.0, "K": -1.0},
               "trigger": {"delta": 0.1, "tau_max": 1.0},
               "simulation": {"x0": 1.0, "t_end": 1.0,
                              "disturbance": {"kind": "ramp"}}}
        with pytest.raises(ConfigError) as config:
            reports.validate_config(cfg)
        assert str(config.value) == (
            "simulation.disturbance.kind must be one of zero, constant, "
            "sinusoid, bounded_noise, got 'ramp'")
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

    def test_noise_is_keyed_by_seed_and_step_alone(self):
        # One 300-step hold across a block boundary, and the same steps
        # split into holds at arbitrary indices, draw the same values.
        steps = 900 + np.arange(300)
        whole = sim.DisturbanceSpec("bounded_noise", 3, amplitude=0.7, seed=9)
        one_hold = whole.value(np.zeros((300, 3)), steps[:, None])
        assert one_hold.shape == (300, 3, 3)
        assert np.array_equal(one_hold[:, 0], one_hold[:, 2])
        rng = np.random.default_rng(5)
        for _ in range(5):
            cuts = np.sort(rng.choice(np.arange(1, 300), size=6, replace=False))
            split = sim.DisturbanceSpec("bounded_noise", 3, amplitude=0.7,
                                        seed=9)
            parts = [split.value(rng.uniform(0.0, 50.0, size=part.size), part)
                     for part in np.split(steps, cuts)]
            assert np.array_equal(np.concatenate(parts), one_hold[:, 1])
        # Steps asked for out of order, one at a time, match as well.
        single = sim.DisturbanceSpec("bounded_noise", 3, amplitude=0.7, seed=9)
        for i in rng.permutation(300)[:40]:
            assert np.array_equal(single.value(1.0, steps[i]), one_hold[i, 0])

    def test_noise_follows_a_changed_seed_and_amplitude(self):
        # A spec edited after a draw draws as a fresh spec with the new
        # values; it used to keep returning the draws it had made before.
        steps = np.arange(10)
        dist = sim.DisturbanceSpec("bounded_noise", 2, amplitude=0.1, seed=1)
        dist.value(0.0, steps)
        dist.seed = 2
        dist.value(0.0, steps)
        dist.amplitude = 10.0
        fresh = sim.DisturbanceSpec("bounded_noise", 2, amplitude=10.0, seed=2)
        assert np.array_equal(dist.value(0.0, steps), fresh.value(0.0, steps))

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_every_noise_draw_is_inside_the_amplitude(self, m):
        for seed, amplitude in ((0, 0.7), (1, 3.3), (2, 1e-3), (3, -0.4)):
            dist = sim.DisturbanceSpec("bounded_noise", m,
                                       amplitude=amplitude, seed=seed)
            draws = dist.value(0.0, np.arange(3000))
            norms = np.linalg.norm(draws, axis=1)
            assert np.all(norms <= abs(amplitude))
            assert np.all([np.linalg.norm(d) <= abs(amplitude)
                           for d in draws[:500]])

    def test_stage_values_are_one_array_expression(self):
        t = np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
        for dist in all_kinds(2):
            values = dist.value(t, np.array([[7], [8]]))
            assert values.shape == (2, 3, 2)
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(values[i, j],
                                          dist.value(t[i, j], 7 + i))


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

    @pytest.mark.parametrize("steps, dt, t0, step0", [
        (440, 0.0025, 0.0, 0),       # a full hold of a run
        (101, 0.0137, 3.3, 1000),    # across a noise block boundary
        (1, 0.00071, 49.9993, 5123),  # the horizon-tail step
    ])
    def test_step_map_matches_stage_form(self, steps, dt, t0, step0, scalar,
                                         double_integrator, corpus):
        rng = np.random.default_rng(steps)
        systems = [scalar.sys, double_integrator.sys, DRIFTY] \
            + [fx.sys for fx in corpus]
        for sys_ in systems:
            x = rng.normal(size=sys_.m)
            u = sys_.K @ x
            for dist in all_kinds(sys_.m):
                got = sim.integrate_held(sys_, x, u, dist, t0, dt, steps,
                                         step0=step0)
                want = rk4_reference(sys_, x, u, dist, t0, dt, steps, step0)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), \
                    (sys_, dist.kind)

    def test_empty_hold_returns_the_start(self, double_integrator):
        out = sim.integrate_held(double_integrator.sys, [1.0, 2.0], [0.5],
                                 zero_dist(2), 0.0, 0.01, 0)
        assert np.array_equal(out, [[1.0, 2.0]])

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
        got = measured_dwell_times(scalar.sys, scalar.cert,
                                   [[2.0], [-0.3], [11.0]],
                                   scalar.trig.tau_max)
        assert np.all(np.abs(got - scalar.tau_star) <= 1e-7)

    def test_origin_never_triggers(self, scalar):
        got = measured_dwell_times(scalar.sys, scalar.cert, [[0.0]],
                                   scalar.trig.tau_max)
        assert got[0] == scalar.trig.tau_max

    def test_measurement_saturates_at_horizon(self, scalar):
        got = measured_dwell_times(scalar.sys, scalar.cert, [[1.0]], 0.5)
        assert got[0] == 0.5

    def test_designed_minimum_lower_bounds_measurements(self, double_integrator):
        fx = double_integrator
        X = np.random.default_rng(20).normal(size=(50, 2))
        got = measured_dwell_times(fx.sys, fx.cert, X, fx.trig.tau_max)
        assert np.all(got >= fx.tau_star - 1e-6)

    def test_rows_are_measured_alone(self, double_integrator):
        # One batch mixes states that cross at different times, states that
        # outlast the horizon, and the origin; every row must come out
        # exactly as if it were measured alone.
        fx = double_integrator
        X = np.vstack([np.random.default_rng(21).normal(size=(6, 2)),
                       np.zeros((1, 2))])
        batch = measured_dwell_times(fx.sys, fx.cert, X, 1.0)
        alone = [measured_dwell_times(fx.sys, fx.cert, x, 1.0)[0] for x in X]
        assert np.array_equal(batch, alone)
        assert 0 < np.sum(batch < 1.0) < 6 and batch[-1] == 1.0

    def test_grid_flows_match_single_exponentials(self, double_integrator):
        # The design's held-flow grid comes in chunks; every point must
        # equal the flow of a single exponential at the same time.
        sys_ = double_integrator.sys
        step = 1.5 / 700
        chunks = list(design.held_flow_chunks(sys_, step, range(701)))
        assert len(chunks) > 1
        assert np.array_equal(chunks[0][1][0], np.eye(2))
        for idx, flows in chunks:
            for j, flow in zip(idx, flows):
                single = design.held_transition(sys_, j * step)
                assert np.abs(flow - single).max() <= 1e-14 * np.abs(single).max()


class TestRunLoop:
    def test_scalar_schedule_and_horizon(self, scalar):
        traj = sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      zero_dist(1), [2.0], 50.0)
        assert traj.holds.size == math.ceil(50.0 / 1.4)
        assert np.all(np.abs(traj.tau_k - 1.4) <= 1e-12)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[-1] == pytest.approx(50.0, abs=1e-7)
        assert traj.times[0] == 0.0

    def test_event_times_accumulate_taus(self, scalar):
        traj = sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      zero_dist(1), [2.0], 20.0)
        t = 0.0
        for t_k, tau_k in zip(traj.t_k.tolist(), traj.tau_k.tolist()):
            assert t_k == t
            t = t + tau_k

    def test_truncated_final_interval_logs_intended_tau(self, scalar):
        traj = sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      zero_dist(1), [2.0], 3.1)
        assert traj.holds.size == 3
        assert traj.tau_k[-1] == pytest.approx(1.4, rel=1e-12)
        assert traj.times[-1] == pytest.approx(3.1, abs=1e-12)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_holds_start_at_the_executions(self, double_integrator, periodic):
        # One hold per execution, from the execution's own row on, holding
        # K x_k; the horizon cuts the final hold short, inside a step.
        fx = double_integrator
        dist = sim.DisturbanceSpec("sinusoid", 2, amplitude=0.1,
                                   frequency=1.0)
        t_end = 10.37
        if periodic:
            traj = sim.run_periodic(fx.sys, fx.cert, dist, [1.0, -0.5],
                                    t_end, 0.9, divisor=7)
        else:
            traj = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, dist,
                                          [1.0, -0.5], t_end, divisor=7)
        assert traj.t_k[-1] + traj.tau_k[-1] > t_end + 1e-3
        assert traj.times[-1] == pytest.approx(t_end, abs=1e-12)
        holds = traj.holds
        assert len(holds) == traj.t_k.size == traj.tau_k.size > 5
        assert holds[0] == 0 and np.all(np.diff(holds) > 0)
        assert holds[-1] < len(traj.times) - 1
        # Each execution's time is the time of its row.
        assert np.abs(traj.times[holds] - traj.t_k).max() <= 1e-9
        assert traj.inputs.shape == (len(holds), fx.sys.l)
        assert (traj.inputs.tobytes()
                == np.array([fx.sys.K @ x for x in traj.states[holds]]).tobytes())

    def test_horizon_within_the_tolerance_still_executes_once(self, scalar):
        # The controller executes at t = 0 however short the run; a horizon
        # under the loop's time tolerance used to log no execution, and
        # verify failed on the empty log.
        dist = zero_dist(1)
        traj = sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      dist, [2.0], 1e-10)
        assert traj.holds.size == 1
        assert traj.holds.tolist() == [0]
        assert traj.times.tolist() == [0.0, 1e-10]
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig,
                                  tau_star=scalar.tau_star)
        rep = sim.verify(traj, gains, scalar.cert, dist, scalar.sys)
        assert rep.eiss.violations == rep.decay.violations == 0

    def test_packed_evaluator_gives_identical_run(self, double_integrator):
        # The run schedules with the full-matrix scan; the packed evaluator
        # must take the same decision at every executed state.
        fx = double_integrator
        traj = sim.run_self_triggered(fx.sys, fx.cert, fx.tables,
                                      zero_dist(2), [1.0, -0.5], 20.0)
        assert traj.holds.size > 10
        for x, n in zip(traj.states[traj.holds], traj.n_k.tolist()):
            assert scheduler.next_update_packed(x, fx.tables).n == n

    def test_noise_runs_are_reproducible(self, double_integrator):
        fx = double_integrator
        noise = sim.DisturbanceSpec("bounded_noise", 2, amplitude=0.05,
                                    seed=33)
        traj_a = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, noise,
                                        [1.0, 0.0], 10.0)
        noise_b = sim.DisturbanceSpec("bounded_noise", 2, amplitude=0.05,
                                      seed=33)
        traj_b = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, noise_b,
                                        [1.0, 0.0], 10.0)
        assert np.array_equal(traj_a.states, traj_b.states)

    def test_lyapunov_overflow_is_simulation_error(self, scalar):
        # The states stay finite but V = sqrt(x'Px) does not: with Q = 1e4
        # the certificate's P is 5e3, so V(1e307) is about 7e308. The
        # forms scale with P, so the fixture's tables still apply.
        cert = design.make_certificate(scalar.sys, Q=[[1e4]], lambda_ratio=0.5)
        with pytest.raises(SimulationError):
            sim.run_self_triggered(scalar.sys, cert, scalar.tables,
                                   zero_dist(1), [1e307], 5.0)

    def test_lyapunov_values_of_huge_states_are_exact(self, double_integrator):
        # Each row is scaled by a power of two before it is squared, so a
        # state of 1e300, whose squares overflow, has V and |x| equal to
        # those of the state scaled down exactly, scaled back.
        cert = double_integrator.cert
        unit = np.array([[0.75, -0.5], [1.0, 1.0], [0.0, 0.0]])
        huge = np.ldexp(unit, 1000)
        assert np.all(np.abs(huge[:2]) >= 1e300)
        assert np.array_equal(sim._lyapunov_values(cert, huge),
                              np.ldexp(sim._lyapunov_values(cert, unit), 1000))
        assert np.array_equal(sim.state_norms(huge),
                              np.ldexp(np.linalg.norm(unit, axis=1), 1000))

    def test_periodic_schedule(self, double_integrator):
        fx = double_integrator
        traj = sim.run_periodic(fx.sys, fx.cert, zero_dist(2), [1.0, -0.5],
                                10.0, 0.9)
        assert traj.holds.size == math.ceil(10.0 / 0.9)
        assert traj.n_k is None
        assert np.all(traj.tau_k == 0.9)
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
        # More steps than np.intp counts, refused before any step is taken
        # (the step range used to raise ValueError).
        with pytest.raises(SimulationError, match="more than can be indexed"):
            sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                   zero_dist(1), [1.0], 10.0, divisor=2**62)
        with pytest.raises(SimulationError, match="more than can be indexed"):
            sim.run_periodic(scalar.sys, scalar.cert, zero_dist(1), [1.0],
                             1e10, 1e-10)


class TestVerification:
    def test_undisturbed_run_meets_all_bounds(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig,
                                  tau_star=scalar.tau_star)
        dist = zero_dist(1)
        traj = sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      dist, [2.0], 50.0)
        rep = sim.verify(traj, gains, scalar.cert, dist, scalar.sys)
        assert rep.eiss.violations == 0
        assert rep.decay.violations == 0
        assert rep.disturbed_decay.violations == 0
        # The initial instant meets the envelope with equality.
        assert rep.decay.worst_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_curve[0] == pytest.approx(gains.sigma * 2.0,
                                                   rel=1e-12)

    def test_disturbed_run_skips_pure_decay_check(self, double_integrator):
        fx = double_integrator
        gains = design.eiss_gains(fx.sys, fx.cert, fx.trig,
                                  tau_star=fx.tau_star)
        dist = sim.DisturbanceSpec("sinusoid", 2, amplitude=0.1,
                                   frequency=1.0)
        traj = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, dist,
                                      [1.0, -0.5], 30.0)
        rep = sim.verify(traj, gains, fx.cert, dist, fx.sys)
        assert rep.decay is None
        assert rep.eiss.violations == 0
        assert rep.disturbed_decay.violations == 0
        assert rep.checked_updates == traj.holds.size - 1

    def test_one_execution_checks_no_update(self, double_integrator):
        fx = double_integrator
        gains = design.eiss_gains(fx.sys, fx.cert, fx.trig,
                                  tau_star=fx.tau_star)
        dist = sim.DisturbanceSpec("sinusoid", 2, amplitude=0.1,
                                   frequency=1.0)
        traj = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, dist,
                                      [1.0, -0.5], 0.5 * fx.trig.tau_min)
        rep = sim.verify(traj, gains, fx.cert, dist, fx.sys)
        assert traj.holds.size == 1
        assert rep.disturbed_decay == sim.Check(0, 0.0, None)
        assert rep.checked_updates == 0
        assert rep.eiss.violations == 0

    def test_violations_are_counted(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig,
                                  tau_star=scalar.tau_star)
        dist = zero_dist(1)
        traj = sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      dist, [2.0], 20.0)
        # Shrinking the claimed transient gain below 1 must flag the start
        # of the run, where the envelope equals sigma |x0|.
        import dataclasses
        broken = dataclasses.replace(gains, sigma=0.5)
        rep = sim.verify(traj, broken, scalar.cert, dist, scalar.sys)
        assert rep.eiss.violations > 0
        assert rep.eiss.worst_margin < 0.0
        assert rep.eiss.worst_at == 0

    def test_worst_margins_name_where_they_occur(self, double_integrator):
        fx = double_integrator
        gains = design.eiss_gains(fx.sys, fx.cert, fx.trig,
                                  tau_star=fx.tau_star)
        dist = sim.DisturbanceSpec("sinusoid", 2, amplitude=0.1,
                                   frequency=1.0)
        traj = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, dist,
                                      [1.0, -0.5], 30.0)
        rep = sim.verify(traj, gains, fx.cert, dist, fx.sys)
        eiss = ((rep.bound_curve - np.linalg.norm(traj.states, axis=1))
                / rep.bound_curve)
        assert rep.eiss.worst_at == int(np.argmin(eiss))
        assert rep.eiss.worst_margin == eiss[rep.eiss.worst_at]
        # Per-execution margins recomputed one pair at a time.
        pairs = []
        xs = traj.states[traj.holds]
        for x, tau, nxt in zip(xs, traj.tau_k.tolist(), xs[1:]):
            coeff = design.disturbance_gain_coeff(fx.cert.P, fx.sys.A, tau)
            bound = (lyapunov_value(fx.cert, x)
                     * math.exp(-gains.lam * tau) + coeff * 0.1)
            pairs.append((bound - lyapunov_value(fx.cert, nxt)) / bound)
        k = rep.disturbed_decay.worst_at
        assert abs(pairs[k] - rep.disturbed_decay.worst_margin) <= 1e-12
        assert min(pairs) >= pairs[k] - 1e-12
        assert rep.decay is None

        zero = zero_dist(2)
        traj = sim.run_self_triggered(fx.sys, fx.cert, fx.tables, zero,
                                      [1.0, -0.5], 30.0)
        rep = sim.verify(traj, gains, fx.cert, zero, fx.sys)
        xs = traj.states[traj.holds]
        v0 = lyapunov_value(fx.cert, xs[0])
        decay = [(v0 * math.exp(-gains.lam * t) - lyapunov_value(fx.cert, x))
                 / (v0 * math.exp(-gains.lam * t))
                 for t, x in zip(traj.t_k.tolist(), xs)]
        k = rep.decay.worst_at
        assert abs(decay[k] - rep.decay.worst_margin) <= 1e-12
        assert min(decay) >= decay[k] - 1e-12

    def test_unrepresentable_envelope_is_simulation_error(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig,
                                  tau_star=scalar.tau_star)
        dist = sim.DisturbanceSpec("constant", 1, amplitude=10.0)
        traj = sim.run_self_triggered(scalar.sys, scalar.cert, scalar.tables,
                                      dist, [2.0], 5.0)
        import dataclasses
        huge = dataclasses.replace(gains, gamma_total_coeff=1e308)
        with pytest.raises(SimulationError):
            sim.verify(traj, huge, scalar.cert, dist, scalar.sys)
