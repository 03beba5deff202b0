"""Design-stage checks against closed forms and independent root oracles.

The scalar worked example admits closed-form answers: holding the input
from state ``x`` freezes the drift at ``-x``, so the decay condition reads
``|1 - tau| <= exp(-lam tau)`` and the minimum inter-execution time is the
positive root of ``|1 - tau| = exp(-lam tau)``, found here by plain
bisection with no shared code. The double integrator pins the matrix path
with its rational certificate.
"""

import math

import numpy as np
import pytest

from selftrig import design, linalg
from selftrig.errors import ConfigError, DesignError, DimensionError

# Bisection root of tau - 1 = exp(-tau / 2) on [1, 4], the scalar worked
# example's dwell-time equation at the half-rate envelope.
SCALAR_TAU_STAR = 1.4776700622632157


def scalar_dwell_oracle(lam):
    """Held response from x is x (1 - s); solve |1 - tau| = decay envelope."""
    def f(tau):
        return abs(1.0 - tau) - math.exp(-lam * tau)

    lo, hi = 1.0, 4.0
    assert f(lo) < 0.0 < f(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCertificate:
    def test_scalar_worked_example(self, scalar):
        assert scalar.cert.P[0, 0] == pytest.approx(0.5, rel=1e-14)
        assert scalar.cert.lambda_o == pytest.approx(1.0, rel=1e-12)
        assert scalar.cert.lam == pytest.approx(0.5, rel=1e-12)

    def test_double_integrator_certificate(self, double_integrator):
        cert = double_integrator.cert
        assert np.abs(cert.P - np.array([[1.5, 0.5], [0.5, 0.5]])).max() <= 1e-12
        # For Q = I the certified rate is 1 / (2 lambda_max(P)).
        assert cert.lambda_o == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0,
                                              rel=1e-12)
        assert cert.lam == pytest.approx(0.8 * cert.lambda_o, rel=1e-14)

    def test_certificate_rate_is_tight(self, corpus):
        # dV/dt at t=0 equals -x'Qx / (2 V); the certified rate is the best
        # constant over all states, so some state must attain it.
        for fx in corpus:
            P, Q = fx.cert.P, fx.cert.Q
            vals, vecs = linalg.sym_eig(P)
            half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
            W = np.linalg.solve(half, np.linalg.solve(half, Q).T).T
            ref = 0.5 * float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
            assert fx.cert.lambda_o == pytest.approx(ref, rel=1e-9)

    def test_rejects_non_hurwitz_loop_at_construction(self):
        with pytest.raises(DesignError):
            design.LinearSystem(1.0, 1.0, 0.5)

    def test_rejects_bad_ratio_and_indefinite_q(self):
        sys_ = design.LinearSystem(0.0, 1.0, -1.0)
        with pytest.raises(DesignError):
            design.make_certificate(sys_, lambda_ratio=1.0)
        with pytest.raises(DesignError):
            design.make_certificate(sys_, Q=[[-1.0]])


class TestSystemShapes:
    def test_scalar_coercion(self):
        sys_ = design.LinearSystem(0.0, 1.0, -1.0)
        assert sys_.A.shape == (1, 1) and sys_.B.shape == (1, 1)
        assert sys_.m == 1 and sys_.l == 1

    def test_vector_gain_coercion(self):
        sys_ = design.LinearSystem([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0],
                                   [-1.0, -2.0])
        assert sys_.B.shape == (2, 1) and sys_.K.shape == (1, 2)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            design.LinearSystem(np.eye(2), np.eye(3), -np.eye(2))


class TestDwellTime:
    def test_scalar_matches_bisection_oracle(self, scalar):
        oracle = scalar_dwell_oracle(scalar.cert.lam)
        assert oracle == pytest.approx(SCALAR_TAU_STAR, abs=1e-12)
        assert abs(scalar.tau_star - oracle) <= 1e-8

    def test_double_integrator_value(self, double_integrator):
        # Frozen from two independent scan resolutions of the same design.
        assert double_integrator.tau_star == pytest.approx(0.912393297524005,
                                                           abs=1e-7)

    def test_held_transition_is_scalar_affine_flow(self, scalar):
        # With A = 0 the held response is x (1 - tau) exactly.
        for tau in (0.3, 1.0, 2.5):
            L = design.held_transition(scalar.sys, tau)
            assert L[0, 0] == pytest.approx(1.0 - tau, rel=1e-12, abs=1e-12)

    def test_trigger_form_sign_change_at_root(self, scalar):
        tau = scalar.tau_star
        before = design.trigger_form(scalar.sys, scalar.cert, tau - 1e-3)
        after = design.trigger_form(scalar.sys, scalar.cert, tau + 1e-3)
        assert linalg.det(before) < 0.0 < linalg.det(after)

    def test_scalar_form_closed_form_value(self, scalar):
        M = design.trigger_form(scalar.sys, scalar.cert, 0.5)
        expected = (1.0 - 0.5) ** 2 * 0.5 - math.exp(-0.5) * 0.5
        assert M[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_root_shrinks_with_faster_envelope(self):
        sys_ = design.LinearSystem(0.0, 1.0, -1.0)
        taus = []
        for ratio in (0.25, 0.5, 0.75):
            cert = design.make_certificate(sys_, lambda_ratio=ratio)
            taus.append(design.min_inter_execution_time(sys_, cert).tau)
        assert taus[0] > taus[1] > taus[2]

    def test_invariant_under_certificate_scaling(self, scalar):
        # Scaling Q scales P and leaves both the rate and the root alone.
        cert2 = design.make_certificate(scalar.sys, Q=[[2.0]],
                                        lambda_ratio=0.5)
        assert cert2.P[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert cert2.lambda_o == pytest.approx(scalar.cert.lambda_o, rel=1e-12)
        tau2 = design.min_inter_execution_time(scalar.sys, cert2).tau
        assert abs(tau2 - scalar.tau_star) <= 1e-8

    def test_tangential_root_is_found(self):
        # Two decoupled copies of the scalar example square the determinant,
        # so it grazes zero at the root instead of crossing.
        sys_ = design.LinearSystem(np.zeros((2, 2)), np.eye(2), -np.eye(2))
        cert = design.make_certificate(sys_, lambda_ratio=0.5)
        result = design.min_inter_execution_time(sys_, cert)
        assert result.root_found
        assert abs(result.tau - SCALAR_TAU_STAR) <= 1e-6

    def test_cap_returned_when_no_root_below_it(self, scalar):
        result = design.min_inter_execution_time(scalar.sys, scalar.cert,
                                                 tau_cap=1.0)
        assert not result.root_found
        assert result.tau == 1.0

    def test_corpus_roots_lie_inside_their_windows(self, corpus):
        for fx in corpus:
            assert 0.0 < fx.trig.delta < fx.tau_star
            assert fx.trig.tau_min <= fx.tau_star <= fx.trig.tau_max

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the det-sign scan keeps its sign when two eigenvalues of the decay "
        "form cross zero within one grid step, and reports a later root"))
    def test_default_grid_finds_the_first_root_of_a_double_crossing(self):
        # Seed 3's second m=3 plant from the spectrum-shift generator (B = I,
        # plants without a root redrawn): the default grid steps over the
        # first root, so the decay test already fails just below its tau*.
        rng = np.random.default_rng(3)
        found = []
        while len(found) < 2:
            A = rng.normal(size=(3, 3))
            shift = float(np.max(np.real(np.linalg.eigvals(A)))) + 0.5
            a_cl = A - shift * np.eye(3)
            sys_ = design.LinearSystem(A, np.eye(3), a_cl - A)
            cert = design.make_certificate(sys_)
            result = design.min_inter_execution_time(sys_, cert)
            if result.root_found:
                found.append((sys_, cert, result.tau))
        sys_, cert, tau = found[1]
        form = design.trigger_form(sys_, cert, 0.999 * tau)
        assert float(np.linalg.eigvalsh(form).max()) <= 0.0

    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_chunk_boundaries_do_not_move_the_root(self, monkeypatch, points,
                                                   scalar, double_integrator,
                                                   corpus):
        # Chunks of 1-3 grid points put every bracket and every dip of the
        # scan across a chunk boundary; the result must not notice.
        tangential = design.LinearSystem(np.zeros((2, 2)), np.eye(2), -np.eye(2))
        cases = [(tangential, design.make_certificate(tangential, lambda_ratio=0.5))]
        cases += [(fx.sys, fx.cert) for fx in [scalar, double_integrator, *corpus]]
        expected = [design.min_inter_execution_time(s, c) for s, c in cases]
        for (sys_, cert), want in zip(cases, expected):
            monkeypatch.setattr(linalg, "_GRID_CHUNK_ENTRIES",
                                points * (2 * sys_.m) ** 2)
            got = design.min_inter_execution_time(sys_, cert)
            monkeypatch.undo()
            assert (got.tau, got.root_found) == (want.tau, want.root_found)


class TestTriggerWindow:
    def test_scalar_snapping(self, scalar):
        trig = scalar.trig
        assert (trig.n_min, trig.n_max) == (14, 30)
        assert trig.tau_min == pytest.approx(1.4, rel=1e-12)
        assert trig.tau_max == 3.0

    def test_coarse_grid_snaps_down(self, scalar):
        trig = design.choose_trigger(scalar.tau_star, 0.3, 2.0)
        assert (trig.n_min, trig.n_max) == (4, 6)
        assert trig.tau_min == pytest.approx(1.2, rel=1e-12)
        assert trig.tau_max == pytest.approx(1.8, rel=1e-12)

    def test_explicit_dwell_floor(self, scalar):
        trig = design.choose_trigger(scalar.tau_star, 0.1, 3.0, tau_min=0.75)
        assert trig.n_min == 7
        assert trig.tau_min == pytest.approx(0.7, rel=1e-12)

    def test_grid_coarser_than_root_is_rejected(self, scalar):
        with pytest.raises(ConfigError):
            design.choose_trigger(scalar.tau_star, 2.0, 3.0)

    def test_floor_above_root_is_rejected(self, scalar):
        with pytest.raises(ConfigError):
            design.choose_trigger(scalar.tau_star, 0.1, 3.0, tau_min=2.0)

    def test_window_shorter_than_grid_is_rejected(self, scalar):
        with pytest.raises(ConfigError):
            design.choose_trigger(scalar.tau_star, 0.1, 0.05)


class TestGains:
    def test_scalar_energy_rate_form(self, scalar):
        G = design.energy_rate_form(scalar.sys, scalar.cert)
        assert np.abs(G - np.array([[0.0, -1.0], [-1.0, 0.0]])).max() <= 1e-12

    def test_scalar_gains_frozen_values(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig,
                                  tau_star=scalar.tau_star)
        assert gains.rho == pytest.approx(1.0, rel=1e-12)
        assert gains.mu == pytest.approx(-1.0, rel=1e-12)
        assert gains.rho_P == pytest.approx(1.0, rel=1e-12)
        assert gains.sigma == pytest.approx(1.4438677616151918, rel=1e-9)
        assert gains.gamma_total_coeff == pytest.approx(11.604443448847528,
                                                        rel=1e-9)

    def test_growth_factor_collapses_with_the_grid(self):
        # One grid step of vanishing length cannot grow the state, so the
        # transient amplification reduces to the certificate conditioning.
        g = design.hold_growth_factor(1e-9, 1, rho=1.0, mu=-1.0, lam=0.5,
                                      rho_P=1.0)
        assert abs(g - 1.0) <= 1e-6

    def test_growth_factor_needs_separated_rates(self):
        with pytest.raises(DesignError):
            design.hold_growth_factor(0.1, 3, rho=1.0, mu=1.0, lam=0.5,
                                      rho_P=1.0)

    def test_disturbance_gain_closed_form(self):
        # For A = -1 and P = 0.5 the integral is (1 - 1/e) and the weight
        # is lambda_max / sqrt(lambda_min) = sqrt(1/2).
        got = design.disturbance_gain_coeff(np.array([[0.5]]),
                                            np.array([[-1.0]]), 1.0)
        expected = 0.5 / math.sqrt(0.5) * (1.0 - math.exp(-1.0))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_disturbance_gain_drift_free_plant(self):
        got = design.disturbance_gain_coeff(np.array([[0.5]]),
                                            np.array([[0.0]]), 1.0)
        assert got == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert design.disturbance_gain_coeff(np.eye(2), np.zeros((2, 2)),
                                             0.0) == 0.0

    @pytest.mark.parametrize("max_step", [None, 0.05])
    def test_disturbance_gain_matches_a_fresh_simpson_sum(self, double_integrator,
                                                          max_step):
        # The quadrature reuses the nodes of each halved rule; a rule built
        # from scratch at the node count where it stops must agree.
        A, P, T = double_integrator.sys.A, double_integrator.cert.P, 1.5
        weight = float(np.linalg.eigvalsh(P)[-1]) / math.sqrt(
            float(np.linalg.eigvalsh(P)[0]))

        def simpson(n):
            h = T / n
            f = [np.linalg.norm(linalg.expm(A, i * h), 2) for i in range(n)]
            f.append(np.linalg.norm(linalg.expm(A, T), 2))
            return h / 3.0 * (f[0] + f[n] + 4.0 * sum(f[1:n:2]) + 2.0 * sum(f[2:n:2]))

        step = T / 32.0 if max_step is None else max_step
        n = max(2, 2 * math.ceil(T / (2.0 * step)))
        value = simpson(n)
        while True:
            n *= 2
            refined = simpson(n)
            done = abs(refined - value) <= 1e-6 * abs(refined)
            value = refined
            if done:
                break
        got = design.disturbance_gain_coeff(P, A, T, max_step=max_step)
        assert got == pytest.approx(weight * value, rel=1e-14)

    def test_eiss_gains_weigh_one_integral_twice(self, double_integrator, corpus):
        for fx in [double_integrator, *corpus[:5]]:
            gains = design.eiss_gains(fx.sys, fx.cert, fx.trig)
            T = fx.trig.n_max * fx.trig.delta
            step = fx.trig.delta / 4.0
            assert gains.gamma_P_coeff == design.disturbance_gain_coeff(
                fx.cert.P, fx.sys.A, T, max_step=step)
            assert gains.gamma_I_coeff == design.disturbance_gain_coeff(
                np.eye(fx.sys.m), fx.sys.A, T, max_step=step)

    def test_gain_is_linear_in_disturbance_bound(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig)
        assert gains.gamma(0.2) == pytest.approx(2.0 * gains.gamma(0.1),
                                                 rel=1e-14)
        assert gains.bound(1.0, 0.0, 0.0) == pytest.approx(gains.sigma,
                                                           rel=1e-14)

    def test_window_outrunning_the_root_is_rejected(self, scalar):
        bad = design.TriggerConfig(delta=0.1, tau_min=2.0, tau_max=3.0,
                                   n_min=20, n_max=30)
        with pytest.raises(DesignError):
            design.eiss_gains(scalar.sys, scalar.cert, bad,
                              tau_star=scalar.tau_star)


class TestFeasibility:
    def test_scalar_budget(self, scalar):
        rep = design.feasibility_check(1, 0.01, scalar.trig)
        assert rep.work_unit == 2
        assert rep.feasible
        assert rep.max_tau_c == pytest.approx(0.05, rel=1e-12)

    def test_grid_step_binds_before_dwell_floor(self, scalar):
        rep = design.feasibility_check(1, 0.06, scalar.trig)
        assert rep.ok_tau_min and not rep.ok_delta and not rep.feasible

    def test_rejects_negative_time(self, scalar):
        with pytest.raises(ConfigError):
            design.feasibility_check(1, -1.0, scalar.trig)
