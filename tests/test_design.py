"""Design-stage checks against closed forms and independent root oracles.

The scalar worked example admits closed-form answers: holding the input
from state ``x`` freezes the drift at ``-x``, so the decay condition reads
``|1 - tau| <= exp(-lam tau)`` and the minimum inter-execution time is the
positive root of ``|1 - tau| = exp(-lam tau)``, found here by plain
bisection with no shared code. The double integrator pins the matrix path
with its rational certificate.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selftrig import cli, design, linalg
from selftrig.errors import ConfigError, DesignError, DimensionError

# Bisection root of tau - 1 = exp(-tau / 2) on [1, 4], the scalar worked
# example's dwell-time equation at the half-rate envelope.
SCALAR_TAU_STAR = 1.4776700622632157

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Relative room for a grid time to round up onto its index.
SNAP_SLACK = 2e-9


def fresh_simpson(A, T, max_step, embedded=True):
    """``integral_0^T norm(exp(A r)) dr`` as the quadrature defines it, with
    every rule built from scratch: one ``linalg.expm`` and one SVD norm per
    node. The first rule stands if its node count is a multiple of 4, it
    agrees with the rule of half as many nodes to 1e-8 relative and that
    rule's spacing is at most ``(pi / omega) / 20``, with ``omega`` the
    largest ``|Im lambda(A)|``; otherwise, and always if ``embedded`` is
    false, the node count is doubled until two rules agree to 1e-6
    relative. Returns the value and the last rule's node count."""
    def simpson(n):
        h = T / n
        f = [np.linalg.norm(linalg.expm(A, i * h), 2) for i in range(n)]
        f.append(np.linalg.norm(linalg.expm(A, T), 2))
        return h / 3.0 * (f[0] + f[n] + 4.0 * sum(f[1:n:2]) + 2.0 * sum(f[2:n:2]))

    n = max(2, 2 * math.ceil(T / (2.0 * max_step)))
    value = simpson(n)
    omega = float(np.abs(np.linalg.eigvals(A).imag).max())
    if (embedded and n % 4 == 0
            and abs(value - simpson(n // 2)) <= 1e-8 * abs(value)
            and 2.0 * T / n * omega <= math.pi / 20.0):
        return value, n
    while True:
        n *= 2
        refined = simpson(n)
        done = abs(refined - value) <= 1e-6 * abs(refined)
        value = refined
        if done:
            return value, n


def stiff_shear():
    """``A = [[-800, 800], [0, -800]]``: over ``[0, 1]`` from a first spacing
    of 1/32, the quadrature doubles nine times before two rules agree."""
    return np.array([[-800.0, 800.0], [0.0, -800.0]])


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


def _exact(X):
    return [[Fraction(v) for v in row] for row in np.asarray(X, dtype=float).tolist()]


def _exact_mul(X, Y):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*Y)]
            for row in X]


def exact_decay_holds(sys_, cert, tau):
    """Whether the decay test holds at ``tau``, in exact rational arithmetic
    on the float data of the plant and certificate.

    ``L(tau) = I + S(tau) (A + BK)`` with ``S(tau) = integral_0^tau exp(A s)
    ds``, and ``S`` and ``exp(-2 lambda tau)`` are Taylor series cut where a
    norm bound of the next term, relative to the first, is below 1e-60; no
    rounding enters, so the form does not cancel. The test holds when
    ``-M = exp(-2 lambda tau) P - L' P L`` is positive definite: every
    leading principal minor, here every pivot of its elimination, is
    positive.
    """
    A, P = _exact(sys_.A), _exact(cert.P)
    BK = _exact_mul(_exact(sys_.B), _exact(sys_.K))
    m, t = len(A), Fraction(tau)

    def cut(k, size):
        # Taylor terms size^k / k! of a norm bound: past the peak and small.
        return k > 2.0 * size and size ** k / math.factorial(k) < 1e-60

    size = float(np.abs(sys_.A).sum(axis=1).max()) * tau
    term = [[t * (i == j) for j in range(m)] for i in range(m)]
    S, k = term, 1
    while not cut(k, size):
        term = [[v * t / (k + 1) for v in row] for row in _exact_mul(term, A)]
        S = [[a + b for a, b in zip(r, q)] for r, q in zip(S, term)]
        k += 1
    a_cl = [[a + b for a, b in zip(r, q)] for r, q in zip(A, BK)]
    L = [[(i == j) + v for j, v in enumerate(row)]
         for i, row in enumerate(_exact_mul(S, a_cl))]
    x = 2 * Fraction(cert.lam) * t
    decay, term, k = Fraction(1), Fraction(1), 1
    while not cut(k, float(x)):
        term = -term * x / k
        decay += term
        k += 1
    LPL = _exact_mul(_exact_mul([list(c) for c in zip(*L)], P), L)
    neg = [[decay * p - v for p, v in zip(rp, rv)] for rp, rv in zip(P, LPL)]
    for i in range(m):
        if neg[i][i] <= 0:
            return False
        for r in range(i + 1, m):
            ratio = neg[r][i] / neg[i][i]
            neg[r] = [a - ratio * b for a, b in zip(neg[r], neg[i])]
    return True


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


def fast_oscillator():
    """README ``B`` and ``K`` with ``A = [[0, 1], [-1e10, 0]]``, its
    certificate, and its dwell-time scan at (pi / omega) / 20, omega = 1e5.

    The first root, 1.789e-10, lies inside the first grid step. Below it
    the decay form cancels to rounding noise, so the scan's tau* lies
    somewhere under the root.
    """
    sys_ = design.LinearSystem([[0.0, 1.0], [-1e10, 0.0]], [[0.0], [1.0]],
                               [[-1.0, -2.0]])
    cert = design.make_certificate(sys_)
    return sys_, cert, design.min_inter_execution_time(
        sys_, cert, grid_step=math.pi / 1e5 / 20)


def sequential_scan(sys_, cert, grid_step=None, tau_cap=None):
    """The dwell-time scan as it was before its bisection judged several
    levels of midpoints at once: the same grid, signs and dips, but every
    bisection and dip-refinement point one ``trigger_form`` and one
    ``linalg.det`` of its own. The sign test starts at tau = 0 from the
    sign ``(-1)^m`` of det M just after it, at the smallest float
    magnitude, and each refinement narrows to ``_SCAN_TOL`` of its upper
    end and returns its lower end. Returns ``(tau, root_found)``."""
    tol = design._SCAN_TOL
    tau_cap = 10.0 / cert.lam if tau_cap is None else tau_cap
    if grid_step is None:
        grid_step = min(tau_cap / design._SCAN_POINTS_DEFAULT,
                        design.resolving_step(sys_.A))

    def det_at(tau):
        return linalg.det(design.trigger_form(sys_, cert, tau))

    def bisect(lo, hi, flo):
        while hi - lo > tol * hi:
            mid = 0.5 * (lo + hi)
            fmid = det_at(mid)
            if fmid == 0.0:
                return mid
            if (flo < 0.0) == (fmid < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return lo

    def golden_min(a, b):
        inv = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - inv * (b - a), a + inv * (b - a)
        fc, fd = abs(det_at(c)), abs(det_at(d))
        while b - a > tol * b:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv * (b - a)
                fc = abs(det_at(c))
            else:
                a, c, fc = c, d, fd
                d = a + inv * (b - a)
                fd = abs(det_at(d))
        return a, abs(det_at(a))

    dip = math.sqrt(tol)
    accept = dip * design._TANGENT_ACCEPT_FACTOR
    rate = 2.0 * cert.lam
    taus, dets = [math.nan, 0.0], [math.nan, (-1.0) ** sys_.m * 5e-324]
    n_grid = int(math.ceil(tau_cap / grid_step))
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, L in design.held_flow_chunks(sys_, grid_step,
                                              range(1, n_grid + 1)):
            chunk = linalg.det(design.decay_form(L, cert.P, rate, grid_step * idx))
            for j, f in zip(idx.tolist(), chunk.tolist()):
                tau, prev, prev2 = grid_step * j, dets[-1], dets[-2]
                if f == 0.0:
                    return tau, True
                if (prev < 0.0) != (f < 0.0):
                    return bisect(taus[-1], tau, prev), True
                if abs(prev) < dip and abs(prev) <= abs(prev2) and abs(prev) <= abs(f):
                    lo = taus[-2]
                    t_min, f_min = golden_min(lo, tau)
                    if f_min <= accept:
                        return t_min, True
                    f_lo = det_at(lo)
                    if (f_lo < 0.0) != (det_at(t_min) < 0.0):
                        return bisect(lo, t_min, f_lo), True
                taus, dets = [taus[-1], tau], [prev, f]
    return tau_cap, False


def spectrum_shift_plant(seed, m):
    """The first plant of the spectrum-shift generator (``B = I``) whose
    default scan finds a dwell-time root: the benchmark's seeded plants."""
    rng = np.random.default_rng(seed)
    while True:
        A = rng.normal(size=(m, m))
        shift = float(np.max(np.real(np.linalg.eigvals(A)))) + 0.5
        sys_ = design.LinearSystem(A, np.eye(m), -shift * np.eye(m))
        cert = design.make_certificate(sys_)
        result = design.min_inter_execution_time(sys_, cert)
        if result.root_found:
            return sys_, cert, result.tau


def batched_widths(count, budget):
    """Chunk widths of ``linalg.expm_chunks`` over ``count`` points with a
    budget of ``budget`` points: blocks of ``ceil(sqrt(count))`` points, at
    most ``budget``; the first chunk one block, a later one as many blocks
    as ``_GRID_CHUNK_BLOCKS * budget`` points hold, the last chunk cut
    short."""
    per = min(budget, math.isqrt(count - 1) + 1)
    chunk = linalg._GRID_CHUNK_BLOCKS * budget // per * per
    widths = [min(per, count)]
    while sum(widths) < count:
        widths.append(min(chunk, count - sum(widths)))
    return widths


def _flow_grid_cases(double_integrator, corpus):
    """(system, default scan step, 3.5 budgets of points) for a tangential
    plant, the double integrator and an unstable corpus plant."""
    unstable = next(fx for fx in corpus
                    if np.linalg.eigvals(fx.sys.A).real.max() > 0.0)
    tangential = design.LinearSystem(np.zeros((2, 2)), np.eye(2), -np.eye(2))
    cases = [(tangential, design.make_certificate(tangential, lambda_ratio=0.5))]
    cases += [(fx.sys, fx.cert) for fx in (double_integrator, unstable)]
    for sys_, cert in cases:
        budget = linalg._GRID_CHUNK_ENTRIES // sys_.van_loan.size
        yield (sys_, 10.0 / cert.lam / design._SCAN_POINTS_DEFAULT,
               3 * budget + budget // 2)


def _oracle_cases(double_integrator, corpus):
    """(system, certificate, scan keywords) of the sequential-oracle checks:
    the README (delta 0.05) and design_fine (delta 0.005) double integrators
    on their CLI grids, the tangential plant at two ratios, the fast
    oscillator, design_fine's m=6 base plant on its CLI grid, and the corpus
    on the default and the CLI grid."""
    grid = cli._dwell_grid_step
    di = double_integrator
    cases = [(di.sys, di.cert, {"grid_step": grid(di.sys, delta)})
             for delta in (0.05, 0.005)]
    tangential = design.LinearSystem(np.zeros((2, 2)), np.eye(2), -np.eye(2))
    cases += [(tangential, design.make_certificate(tangential, lambda_ratio=r), {})
              for r in (0.5, 0.8)]
    fast, fast_cert, _ = fast_oscillator()
    cases.append((fast, fast_cert, {"grid_step": math.pi / 1e5 / 20}))
    m6, m6_cert, m6_tau = spectrum_shift_plant(0, 6)
    cases.append((m6, m6_cert, {"grid_step": grid(m6, m6_tau / 20)}))
    for fx in corpus:
        cases += [(fx.sys, fx.cert, {}),
                  (fx.sys, fx.cert, {"grid_step": grid(fx.sys, fx.trig.delta)})]
    return cases


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

    def test_invariant_under_certificate_scaling(self, scalar,
                                                 double_integrator):
        # Scaling Q scales P and leaves both the rate and the root alone,
        # also at 1e-300, where det M of the double integrator's forms
        # would underflow to 0 at every grid point, and at 1e300, where the
        # norm of Q in the solve's residual check used to overflow.
        for fx, scale, ratio in [(scalar, 2.0, 0.5),
                                 (double_integrator, 1e-300, 0.8),
                                 (double_integrator, 1e300, 0.8)]:
            cert2 = design.make_certificate(fx.sys, Q=scale * np.eye(fx.sys.m),
                                            lambda_ratio=ratio)
            assert cert2.P == pytest.approx(scale * fx.cert.P, rel=1e-12, abs=0.0)
            assert cert2.lambda_o == pytest.approx(fx.cert.lambda_o, rel=1e-12)
            tau2 = design.min_inter_execution_time(fx.sys, cert2).tau
            assert abs(tau2 - fx.tau_star) <= 1e-8

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

    def test_proven_cells_hold_the_exact_decay_test(self, scalar,
                                                    double_integrator, corpus):
        # root_free_cells on the scan's cells of one block, and of two
        # (from every other base), next to the one that holds tau*: where
        # it proves a cell, the exact decay test holds at the cell's start,
        # middle and end, and it never proves a cell that holds tau*, where
        # the exact test fails by the cell's end (checked where the oracle
        # is quick, m = 1 and the double integrator's m = 2). The grids are
        # the CLI's: the README
        # (delta 0.05) and design_fine (delta 0.005) double integrators,
        # the scalar plant, the tangential plant, whose two eigenvalues of M
        # reach zero together, and the corpus (m = 1, 2, 3) but for the two
        # plants whose |A| tau* (71 and 41) the oracle's Taylor series does
        # not reach.
        grid = cli._dwell_grid_step
        tangential = design.LinearSystem(np.zeros((2, 2)), np.eye(2), -np.eye(2))
        t_cert = design.make_certificate(tangential, lambda_ratio=0.5)
        di = double_integrator
        cases = [(di.sys, di.cert, grid(di.sys, delta), di.tau_star)
                 for delta in (0.05, 0.005)]
        cases += [(scalar.sys, scalar.cert, grid(scalar.sys, 0.1), scalar.tau_star),
                  (tangential, t_cert, grid(tangential, 0.1),
                   design.min_inter_execution_time(tangential, t_cert).tau)]
        cases += [(fx.sys, fx.cert, grid(fx.sys, fx.trig.delta), fx.tau_star)
                  for fx in corpus
                  if np.abs(fx.sys.A).sum(axis=1).max() * fx.tau_star < 10.0]
        assert len(cases) == 22 and {sys_.m for sys_, *_ in cases} == {1, 2, 3}
        checked = 0
        for sys_, cert, step, tau in cases:
            per, _batch = linalg.grid_blocks(
                sys_.van_loan, math.ceil(10.0 / cert.lam / step))
            root = int(tau // (per * step))
            blocks = np.arange(max(1, root - 1), root + 2)
            a = step * (per * blocks)
            E = linalg.expm_grid(sys_.van_loan, a)
            prove = design.root_free_cells(sys_, cert)
            holds = {}
            for stride in (1, 2):
                for i, ok in enumerate(prove(a[::stride], E[::stride])):
                    lo, hi = a[stride * i], a[stride * (i + 1)]
                    if blocks[stride * i] <= root < blocks[stride * (i + 1)]:
                        assert not ok, (sys_, stride, i)
                    elif ok:
                        for t in (lo, 0.5 * (lo + hi), hi):
                            if t not in holds:
                                holds[t] = exact_decay_holds(sys_, cert, t)
                            assert holds[t], (sys_, stride, t)
                        checked += 1
            if sys_.m == 1 or sys_ is di.sys:
                assert not exact_decay_holds(sys_, cert, a[-1])
        assert checked >= 15

    def test_a_scan_of_step_1e14_ends_at_the_coarse_tau_star(self,
                                                             double_integrator):
        # At delta = 1e-12 the CLI scans with step 1e-14: about 9e13 grid
        # points below tau*, which the scan used to evaluate one by one
        # without end. Proven cells skip all but the stretch next to tau*.
        di = double_integrator
        coarse = design.min_inter_execution_time(
            di.sys, di.cert, grid_step=cli._dwell_grid_step(di.sys, 0.005))
        fine = design.min_inter_execution_time(di.sys, di.cert, grid_step=1e-14)
        assert fine.root_found
        assert fine.tau == pytest.approx(coarse.tau, rel=1e-9)

    def test_design_fine_scans_judge_few_determinants(self, monkeypatch,
                                                      double_integrator):
        # design_fine's two scans on their CLI grids: the double integrator
        # at delta 0.005 and the m=6 plant at delta tau*/20. The full grid
        # judged 18,715 and 2,119 determinants; proven blocks are skipped,
        # and each run starts two grid points early, so the scans judge at
        # most 972 and 133. The bisection still takes 4 and 5 stacked
        # evaluations of 15 midpoints, so its path, and tau*, did not move.
        m6, m6_cert, m6_tau = spectrum_shift_plant(0, 6)
        di = double_integrator
        seen = []
        det = linalg.det
        monkeypatch.setattr(linalg, "det", lambda M: (
            seen.append(len(M) if np.ndim(M) == 3 else 1), det(M))[1])
        for sys_, cert, delta, most, stacks in ((di.sys, di.cert, 0.005, 972, 4),
                                                (m6, m6_cert, m6_tau / 20.0, 133, 5)):
            seen.clear()
            design.min_inter_execution_time(
                sys_, cert, grid_step=cli._dwell_grid_step(sys_, delta))
            assert sum(seen) <= most
            assert seen.count(2 ** design._BISECT_LEVELS - 1) == stacks

    def test_fine_grid_finds_a_fast_oscillators_early_root(self):
        # The exact decay test of the fast oscillator first fails between
        # 1.7e-10 and 2.2e-10, inside the first step of a grid of
        # (pi / omega) / 20; the scan used to report 6.237e-5. Below the
        # root the form is rounding noise, so only the bound is asserted.
        sys_, cert, fine = fast_oscillator()
        assert fine.root_found and 0.0 < fine.tau < 2.2e-10
        assert exact_decay_holds(sys_, cert, 1.7e-10)
        assert not exact_decay_holds(sys_, cert, 2.2e-10)

    def test_root_inside_the_first_grid_step_is_found(self, scalar):
        # At a step of 2 the scalar root lies before the first grid point;
        # the scan used to judge that point against nothing and report no
        # root below the cap of 20. tau* is the lower end of the last
        # bracket, within 1e-9 relative under the root.
        result = design.min_inter_execution_time(scalar.sys, scalar.cert,
                                                 grid_step=2.0)
        assert result.root_found
        assert result.tau == pytest.approx(1.4776700614, abs=1e-10)
        assert SCALAR_TAU_STAR * (1.0 - 2e-9) <= result.tau <= SCALAR_TAU_STAR

    def test_corpus_roots_inside_the_first_grid_step_are_found(self, corpus):
        # A step of 1.01 tau* puts every corpus root inside the first step,
        # for m = 1, 2 and 3; the scan used to miss each of them.
        assert {fx.sys.m for fx in corpus} == {1, 2, 3}
        for fx in corpus:
            got = design.min_inter_execution_time(fx.sys, fx.cert,
                                                  grid_step=1.01 * fx.tau_star)
            assert got.root_found, fx.name
            assert got.tau == pytest.approx(fx.tau_star, rel=3e-9), fx.name

    def test_default_grid_finds_a_root_inside_its_first_step(self):
        # The default step of this plant is 0.232 and its root 0.1024; the
        # scan used to report 0.615, where the decay test had long failed.
        A = [[-1.0226409409508492, 3.8687164740369355],
             [-7.267217456260566, 9.858591348892343]]
        sys_ = design.LinearSystem(A, np.eye(2), -6.03038615359015 * np.eye(2))
        cert = design.make_certificate(sys_)
        result = design.min_inter_execution_time(sys_, cert)
        assert result.root_found
        assert result.tau == pytest.approx(0.1024340337, abs=1e-10)
        assert exact_decay_holds(sys_, cert, (1.0 - 1e-7) * result.tau)
        assert not exact_decay_holds(sys_, cert, (1.0 + 1e-7) * result.tau)

    def test_cli_grid_finds_the_first_root_of_a_fast_oscillator(self):
        # The CLI's step follows the plant's fastest mode: at delta 0.05 a
        # step of delta/100 reported tau* = 0.0119 and stepped over the
        # roots that a finer grid finds.
        sys_, cert, fine = fast_oscillator()
        coarse = design.min_inter_execution_time(
            sys_, cert, grid_step=cli._dwell_grid_step(sys_, 0.05))
        assert coarse.tau <= fine.tau

    def test_default_grid_resolves_a_fast_oscillator(self):
        # README B and K with A = [[0, 1], [-1e4, 0]]: a step of
        # tau_cap / 2000 reported tau* = 0.0628, where the decay test had
        # long failed. The default step is at most the resolving step.
        sys_ = design.LinearSystem([[0.0, 1.0], [-1e4, 0.0]], [[0.0], [1.0]],
                                   [[-1.0, -2.0]])
        cert = design.make_certificate(sys_)
        step = design.resolving_step(sys_.A)
        assert step < 10.0 / cert.lam / design._SCAN_POINTS_DEFAULT
        got = design.min_inter_execution_time(sys_, cert)
        resolved = design.min_inter_execution_time(sys_, cert, grid_step=step)
        assert (got.tau, got.root_found) == (resolved.tau, resolved.root_found)
        assert got.tau == pytest.approx(1.788786475393863e-4, rel=1e-12)
        form = design.trigger_form(sys_, cert, 0.999 * got.tau)
        assert float(np.linalg.eigvalsh(form).max()) <= 0.0

    def test_cli_grid_step_is_delta_over_100_without_oscillation(
            self, double_integrator):
        for delta in (0.05, 0.005):
            assert (cli._dwell_grid_step(double_integrator.sys, delta)
                    == delta / cli._DWELL_GRID_DIVISOR)

    def test_scan_grid_flows_match_single_exponentials(self, double_integrator,
                                                        corpus):
        # Every scan-grid flow after the first block is a product of a block
        # base and a first-block flow; over 3.5 budgets of the default scan
        # step each must agree with the point's own exponential.
        for sys_, step, count in _flow_grid_cases(double_integrator, corpus):
            seen = []
            for idx, L in design.held_flow_chunks(sys_, step,
                                                  range(1, count + 1)):
                seen.extend(idx)
                for j, flow in zip(idx, L):
                    exact = design.held_transition(sys_, j * step)
                    scale = max(1.0, float(np.abs(exact).max()))
                    assert float(np.abs(flow - exact).max()) <= 1e-13 * scale, j
            assert seen == list(range(1, count + 1))

    def test_design_fine_scans_keep_budget_wide_blocks(self,
                                                       double_integrator):
        # design_fine's scans, of the double integrator at delta 0.005 and
        # of its m=6 plant at delta tau*/20, each on the CLI grid, span more
        # than their budget squared of points: their blocks stay as wide as
        # the budget and a later chunk holds _GRID_CHUNK_BLOCKS of them.
        m6, m6_cert, m6_tau = spectrum_shift_plant(0, 6)
        di = double_integrator
        for sys_, cert, delta in ((di.sys, di.cert, 0.005),
                                  (m6, m6_cert, m6_tau / 20.0)):
            step = cli._dwell_grid_step(sys_, delta)
            n_grid = math.ceil(10.0 / cert.lam / step)
            budget = linalg._GRID_CHUNK_ENTRIES // sys_.van_loan.size
            assert n_grid > budget ** 2
            chunks = itertools.islice(
                design.held_flow_chunks(sys_, step, range(1, n_grid + 1)), 3)
            assert ([len(idx) for idx, _L in chunks]
                    == [budget] + 2 * [linalg._GRID_CHUNK_BLOCKS * budget])

    def test_held_flow_chunks_match_single_exponentials(
            self, monkeypatch, double_integrator, corpus):
        # The tables read range(0, n_max + 1); a strided range(1, n, 2)
        # is chunked by the same rule. Blocks are ceil(sqrt(n)) points
        # wide, and with one block budget per later chunk each range takes
        # three to five chunks, the last cut short. Every flow of each must
        # agree with the point's own exponential, and L(0) is the identity.
        monkeypatch.setattr(linalg, "_GRID_CHUNK_BLOCKS", 1)
        for sys_, step, count in _flow_grid_cases(double_integrator, corpus):
            budget = linalg._GRID_CHUNK_ENTRIES // sys_.van_loan.size
            for indices in (range(count + 1), range(1, count, 2)):
                chunks = list(design.held_flow_chunks(sys_, step, indices))
                assert ([len(idx) for idx, _L in chunks]
                        == batched_widths(len(indices), budget))
                assert len(chunks) >= 3
                assert [j for idx, _L in chunks for j in idx] == list(indices)
                if indices[0] == 0:
                    assert np.array_equal(chunks[0][1][0], np.eye(sys_.m))
                for idx, L in chunks:
                    for j, flow in zip(idx, L):
                        exact = design.held_transition(sys_, j * step)
                        scale = max(1.0, float(np.abs(exact).max()))
                        assert (float(np.abs(flow - exact).max())
                                <= 1e-13 * scale), (indices, j)

    @pytest.mark.parametrize("points", [1, 2, 3, "one_block_per_chunk"])
    def test_chunk_boundaries_do_not_move_the_root(self, monkeypatch, points,
                                                   scalar, double_integrator,
                                                   corpus):
        # Chunks of 1-3 grid points put every bracket and every dip of the
        # scan across a chunk boundary; the result must not notice. Nor
        # must one block per later chunk, which puts every later block
        # alone in its chunk.
        tangential = design.LinearSystem(np.zeros((2, 2)), np.eye(2), -np.eye(2))
        cases = [(tangential, design.make_certificate(tangential, lambda_ratio=0.5))]
        cases += [(fx.sys, fx.cert) for fx in [scalar, double_integrator, *corpus]]
        expected = [design.min_inter_execution_time(s, c) for s, c in cases]
        for (sys_, cert), want in zip(cases, expected):
            if points == "one_block_per_chunk":
                monkeypatch.setattr(linalg, "_GRID_CHUNK_BLOCKS", 1)
            else:
                monkeypatch.setattr(linalg, "_GRID_CHUNK_ENTRIES",
                                    points * (2 * sys_.m) ** 2)
            got = design.min_inter_execution_time(sys_, cert)
            monkeypatch.undo()
            assert (got.tau, got.root_found) == (want.tau, want.root_found)


    def test_batched_bisection_equals_the_sequential_oracle(
            self, double_integrator, corpus):
        # Bisection judges four levels of midpoints, and the golden section
        # its first pair, with one stacked evaluation; tau* and root_found
        # are bitwise those of one point at a time.
        for sys_, cert, kw in _oracle_cases(double_integrator, corpus):
            got = design.min_inter_execution_time(sys_, cert, **kw)
            assert (got.tau, got.root_found) == sequential_scan(sys_, cert, **kw)

    def test_dip_sign_test_equals_the_sequential_oracle(
            self, monkeypatch, double_integrator, corpus):
        # With no dip accepted as a tangential root, every dip the scans
        # refine reaches the sign test, which reads the golden section's
        # own value at its point; the oracle evaluates that point afresh.
        # Two scalar loops whose gains differ by 3e-4 have roots inside one
        # grid step and make a dip whose refined value is negative, so the
        # test sees a sign change there and bisects (tau* 1.4773123). At
        # 1e-4 the refined value keeps the sign, and both scans return the
        # cap with no root.
        monkeypatch.setattr(design, "_TANGENT_ACCEPT_FACTOR", 0.0)
        cases = _oracle_cases(double_integrator, corpus)
        for eps in (1e-4, 3e-4):
            split = design.LinearSystem(np.zeros((2, 2)), np.eye(2),
                                        -np.diag([1.0, 1.0 + eps]))
            cases.append((split, design.make_certificate(split, lambda_ratio=0.5), {}))
        for sys_, cert, kw in cases:
            got = design.min_inter_execution_time(sys_, cert, **kw)
            assert (got.tau, got.root_found) == sequential_scan(sys_, cert, **kw)

    def test_stacked_flows_and_forms_equal_one_time_at_a_time(self, corpus):
        # held_transition and trigger_form on 15 times give, bit for bit,
        # the flows and forms of each time alone: the corpus, the tangential
        # plant and design_fine's m=6 base plant.
        tangential = design.LinearSystem(np.zeros((2, 2)), np.eye(2), -np.eye(2))
        m6, m6_cert, m6_tau = spectrum_shift_plant(0, 6)
        cases = [(fx.sys, fx.cert, fx.tau_star) for fx in corpus]
        cases += [(tangential, design.make_certificate(tangential, lambda_ratio=0.5),
                   SCALAR_TAU_STAR), (m6, m6_cert, m6_tau)]
        for sys_, cert, tau in cases:
            taus = np.linspace(0.1, 2.0, 15) * tau
            flows = design.held_transition(sys_, taus)
            forms = design.trigger_form(sys_, cert, taus)
            assert flows.shape == forms.shape == (15, sys_.m, sys_.m)
            assert np.array_equal(
                flows, [design.held_transition(sys_, t) for t in taus])
            assert np.array_equal(
                forms, [design.trigger_form(sys_, cert, t) for t in taus])

    def test_grid_forms_match_single_point_forms(self, monkeypatch,
                                                 double_integrator, corpus):
        # Every form of the scan grid, over three chunks, is within 1e-13 of
        # its largest entry of the form of the point's own flow: the double
        # integrator, a corpus m=3 plant and a seeded m=6 plant. Later
        # chunks of two budgets put three chunks in the first 3 * budget + 1
        # points; further along, the m=6 plant's growing forms leave 1e-13.
        monkeypatch.setattr(linalg, "_GRID_CHUNK_BLOCKS", 2)
        m3 = next(fx for fx in corpus if fx.sys.m == 3)
        m6, m6_cert, _tau = spectrum_shift_plant(0, 6)
        for sys_, cert in ((double_integrator.sys, double_integrator.cert),
                           (m3.sys, m3.cert), (m6, m6_cert)):
            step = 10.0 / cert.lam / design._SCAN_POINTS_DEFAULT
            budget = linalg._GRID_CHUNK_ENTRIES // sys_.van_loan.size
            rate = 2.0 * cert.lam
            chunks = list(design.held_flow_chunks(sys_, step,
                                                  range(1, 3 * budget + 2)))
            assert len(chunks) >= 3
            for idx, L in chunks:
                forms = design.decay_form(L, cert.P, rate, step * idx)
                for j, form in zip(idx, forms):
                    single = design.decay_form(
                        design.held_transition(sys_, j * step), cert.P, rate,
                        j * step)
                    scale = float(np.abs(single).max())
                    assert float(np.abs(form - single).max()) <= 1e-13 * scale, j

    def test_decay_form_is_one_formula_for_a_point_and_a_stack(self,
                                                                corpus):
        # A stack's forms are bitwise the forms of its flows one at a time,
        # whether the stack is contiguous or a transposed entries-first view.
        for fx in corpus:
            taus = np.linspace(0.1, 2.0, 15) * fx.tau_star
            L = np.stack([design.held_transition(fx.sys, t) for t in taus])
            view = np.ascontiguousarray(L.transpose(1, 2, 0)).transpose(2, 0, 1)
            rate = 2.0 * fx.cert.lam
            single = [design.decay_form(flow, fx.cert.P, rate, t)
                      for flow, t in zip(L, taus)]
            for stack in (L, view):
                assert np.array_equal(design.decay_form(stack, fx.cert.P, rate, taus),
                                      single)


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

    @settings(max_examples=500, deadline=None)
    @given(tau_star=POSITIVE, delta=POSITIVE, tau_max=POSITIVE,
           tau_min=st.none() | POSITIVE)
    # tau_max snaps up onto n_max = 3 while tau* lies beyond it; a window
    # whose step count overflows; a step count whose grid time n_max * delta
    # overflows.
    @example(tau_star=5.0, delta=1.0, tau_max=3.0 - 1e-10, tau_min=None)
    @example(tau_star=1.0, delta=0.5, tau_max=1.7e308, tau_min=None)
    @example(tau_star=3.0, delta=3.0, tau_max=1.7976931348623157e308,
             tau_min=None)
    def test_window_lies_on_the_grid(self, tau_star, delta, tau_max, tau_min):
        # Any finite positive inputs either give a window on the grid inside
        # [delta, tau*] and [delta, tau_max], or are rejected as a config
        # problem, and only when they are out of order or the window's step
        # count overflows. A grid time may sit under its index by the
        # snapping slack.
        valid = (delta <= tau_star and delta <= tau_max
                 and math.isfinite(tau_max / delta)
                 and (tau_min is None or delta <= tau_min <= tau_star))
        try:
            trig = design.choose_trigger(tau_star, delta, tau_max, tau_min)
        except ConfigError:
            assert not valid
            return
        assert valid
        n_min, n_max = trig.n_min, trig.n_max
        assert 1 <= n_min <= n_max
        assert delta <= trig.tau_min <= tau_star
        assert trig.tau_min <= trig.tau_max <= tau_max
        for n, tau in ((n_min, trig.tau_min), (n_max, trig.tau_max)):
            assert n * delta * (1.0 - SNAP_SLACK) <= tau <= n * delta
        assert (n_max + 1) * delta * (1.0 + SNAP_SLACK) > tau_max
        floor = tau_star if tau_min is None else tau_min
        assert n_min == n_max or (n_min + 1) * delta * (1.0 + SNAP_SLACK) > floor

    @settings(max_examples=500, deadline=None)
    @given(tau_star=POSITIVE, delta=POSITIVE, tau_max=POSITIVE,
           tau_min=st.none() | POSITIVE)
    @example(tau_star=5.0, delta=1.0, tau_max=3.0 - 1e-10, tau_min=None)
    @example(tau_star=1.0, delta=0.1, tau_max=3.0, tau_min=0.35)
    def test_a_snapped_window_snaps_to_itself(self, tau_star, delta, tau_max,
                                              tau_min):
        # A loaded design.json must hold the window that its own tau*,
        # delta, tau_min and tau_max snap to, so every window that
        # choose_trigger gives has to be a fixed point of it. From 1e7 steps
        # on, the 1e-9 snapping slack is below the quotient's rounding, and
        # no design has a table of that many forms.
        try:
            trig = design.choose_trigger(tau_star, delta, tau_max, tau_min)
        except ConfigError:
            return
        if trig.n_max >= 10 ** 7:
            return
        assert design.choose_trigger(tau_star, delta, trig.tau_max,
                                     trig.tau_min) == trig


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
        # from scratch at the node count where it stops must agree, from the
        # first spacing T / 64 that disturbance_gain_coeff fixes (None) and
        # from a given one.
        A, P, T = double_integrator.sys.A, double_integrator.cert.P, 1.5
        weight = float(np.linalg.eigvalsh(P)[-1]) / math.sqrt(
            float(np.linalg.eigvalsh(P)[0]))
        if max_step is None:
            value, _n = fresh_simpson(A, T, T / 64.0)
            got = design.disturbance_gain_coeff(P, A, T)
        else:
            value, _n = fresh_simpson(A, T, max_step)
            got = weight * design._norm_integral(A, T, max_step)
        assert got == pytest.approx(weight * value, rel=1e-14)

    def test_quadrature_matches_a_fresh_simpson_sum_across_sizes(self, corpus):
        # Corpus plants of order 1 and 3 and a seeded order-6 plant, over
        # their gain windows, and a fast oscillator (norm(A) * max_step = 1)
        # that needs two doublings: the quadrature stops at the fresh rule's
        # node count, each doubling's new odd nodes come from one
        # linalg.expm_chunks pass, and none drifts from the fresh rule.
        rng = np.random.default_rng(6)
        A6 = rng.normal(size=(6, 6))
        A6 -= (float(np.max(np.linalg.eigvals(A6).real)) + 0.5) * np.eye(6)
        small = [next(fx for fx in corpus if fx.sys.m == m) for m in (1, 3)]
        cases = [(fx.sys.A, fx.trig.n_max * fx.trig.delta, fx.trig.delta / 4.0)
                 for fx in small]
        cases += [(A6, 2.0, 2.0 / 60.0),
                  (np.array([[0.0, 1.0], [-900.0, 0.0]]), 0.5, 1.0 / 900.0)]
        for A, T, step in cases:
            value, n = fresh_simpson(A, T, step)
            assert design._norm_integral(A, T, step) == pytest.approx(value,
                                                                     rel=1e-14)
        # The oscillator, checked last, stopped two doublings in or later.
        assert n >= 4 * 2 * math.ceil(T / (2.0 * step))

    def test_a_resolved_first_rule_is_not_doubled(self, monkeypatch,
                                                   double_integrator):
        # The double integrator's gain windows at delta 0.05 and 0.005 (the
        # README's and design_fine's) have first rules of 120 and 1200
        # intervals that agree with their embedded rules at twice the
        # spacing: only their n + 1 nodes are normed. The fast oscillator's
        # 450 intervals are no multiple of 4, so it doubles, twice: its
        # first rule and two rounds of odd nodes make 4 * 450 + 1 nodes.
        normed = []
        norms = linalg.spectral_norms

        def counted(E):
            normed.append(E[..., 0, 0].size)
            return norms(E)

        monkeypatch.setattr(linalg, "spectral_norms", counted)
        fx = double_integrator
        for delta, n in ((0.05, 120), (0.005, 1200)):
            trig = design.choose_trigger(fx.tau_star, delta, 1.5)
            normed.clear()
            design.eiss_gains(fx.sys, fx.cert, trig)
            assert sum(normed) == n + 1, delta
        normed.clear()
        design._norm_integral(np.array([[0.0, 1.0], [-900.0, 0.0]]), 0.5,
                              1.0 / 900.0)
        assert sum(normed) == 4 * 450 + 1

    def test_corpus_gains_stay_within_1e9_of_the_doubled_rule(self, corpus):
        # Before the embedded check every rule was doubled at least once.
        # A first rule that stands must be within 1e-9 relative of that
        # rule's value, so that a design.json written before the check
        # still passes the reuse check. The corpus's coarse windows (92
        # intervals) agree with their embedded rules to between 7e-11 and
        # 1e-2, so two stand and the rest double. gamma_P and gamma_total
        # are the integral times factors that do not depend on it.
        for fx in corpus:
            gains = design.eiss_gains(fx.sys, fx.cert, fx.trig,
                                      tau_star=fx.tau_star)
            T = fx.trig.n_max * fx.trig.delta
            doubled, _n = fresh_simpson(fx.sys.A, T, fx.trig.delta / 4.0,
                                        embedded=False)
            assert gains.gamma_I_coeff == pytest.approx(doubled, rel=1e-9), \
                fx.name

    def test_an_aliased_embedded_rule_is_not_trusted(self):
        # exp(A k pi / 2) = (-1)^k I for this oscillator (omega = 2), so over
        # 32 pi the 64-interval rule and its embedded 32-interval rule see
        # only identities and both give T exactly. The norm reaches 2 at
        # odd multiples of pi / 4, and the integral is 64 times that over
        # one period pi / 2. The embedded rule's spacing pi is not below
        # (pi / omega) / 20, so the quadrature doubles, and it matches the
        # integral (a fine closed-form Simpson rule over one period) to the
        # quadrature's 1e-6.
        A, T = np.array([[0.0, 1.0], [-4.0, 0.0]]), 32.0 * math.pi
        got = design.disturbance_gain_coeff(np.eye(2), A, T)
        t = np.linspace(0.0, math.pi / 2.0, 20_001)
        E = np.empty((t.size, 2, 2))
        E[:, 0, 0] = E[:, 1, 1] = np.cos(2.0 * t)
        E[:, 0, 1], E[:, 1, 0] = np.sin(2.0 * t) / 2.0, -2.0 * np.sin(2.0 * t)
        f = np.linalg.norm(E, 2, axis=(1, 2))
        period = (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                  + 2.0 * f[2:-1:2].sum()) * (t[1] - t[0]) / 3.0
        assert got > 1.5 * T
        assert got == pytest.approx(64.0 * period, rel=1e-6)

    def test_doublings_give_the_same_value_in_small_chunks(self, monkeypatch):
        # Blocks of at most 16 2x2 exponentials, two to a later chunk, split
        # the 16,352 doubled nodes into at least 511 chunks.
        A, T, step = stiff_shear(), 1.0, 1.0 / 32.0
        whole = design._norm_integral(A, T, step)
        sizes = []
        norms = linalg.spectral_norms

        def recorded(E):
            sizes.append(E.size)
            return norms(E)

        monkeypatch.setattr(linalg, "spectral_norms", recorded)
        monkeypatch.setattr(linalg, "_GRID_CHUNK_ENTRIES", 64)
        monkeypatch.setattr(linalg, "_GRID_CHUNK_BLOCKS", 2)
        assert design._norm_integral(A, T, step) == pytest.approx(whole,
                                                                  rel=1e-15)
        assert max(sizes) <= 64 * 2
        assert len(sizes) >= 511

    def test_quadrature_memory_is_the_first_rule_plus_one_chunk(self,
                                                                monkeypatch):
        # A first rule of 2049 nodes (64 kB of 2x2 exponentials) that still
        # doubles. What the quadrature holds is the first rule's norms, plus
        # stacks of at most one chunk's budget: the exponentials with their
        # Pade working set (about ten such stacks) and their scaled copy.
        monkeypatch.setattr(linalg, "_GRID_CHUNK_ENTRIES", 64)
        monkeypatch.setattr(linalg, "_GRID_CHUNK_BLOCKS", 2)
        A, T, step = stiff_shear(), 1.0, 1.0 / 2048.0
        normed = []
        norms = linalg.spectral_norms
        monkeypatch.setattr(linalg, "spectral_norms",
                            lambda E: normed.append(len(E)) or norms(E))
        design._norm_integral(A, T, step)   # warm numpy's caches
        assert sum(normed) > 2049
        monkeypatch.setattr(linalg, "spectral_norms", norms)
        tracemalloc.start()
        try:
            design._norm_integral(A, T, step)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = 2049 * 8
        budget = 64 * 2 * 8
        assert peak <= kept + 16 * budget + 16_000

    def test_an_overflowing_first_rule_ends_the_quadrature(self, monkeypatch):
        # exp(10 r) leaves the float range before r = 75: the first rule's
        # sum is infinite, so no doubling runs (it used to run all twelve),
        # and no numpy warning is raised on the way.
        normed = []
        norms = linalg.spectral_norms
        monkeypatch.setattr(linalg, "spectral_norms",
                            lambda E: normed.append(len(E)) or norms(E))
        value = design._norm_integral(np.array([[10.0]]), 75.0, 0.075)
        assert not math.isfinite(value)
        assert sum(normed) == 1001
        sys_ = design.LinearSystem(10.0, 1.0, -10.5)
        cert = design.make_certificate(sys_)
        trig = design.choose_trigger(0.36, 0.3, 75.0)
        with pytest.raises(DesignError, match=r"longest hold n_max\*delta=75 "):
            design.eiss_gains(sys_, cert, trig)

    def test_eiss_gains_weigh_one_integral_twice(self, double_integrator, corpus):
        # gamma_P is the integral weighted by lambda_max(P) /
        # sqrt(lambda_min(P)), gamma_I the same integral with weight 1.
        for fx in [double_integrator, *corpus[:5]]:
            gains = design.eiss_gains(fx.sys, fx.cert, fx.trig)
            T = fx.trig.n_max * fx.trig.delta
            integral = design._norm_integral(fx.sys.A, T, fx.trig.delta / 4.0)
            pvals, _ = linalg.sym_eig(fx.cert.P)
            weight = float(pvals[-1]) / math.sqrt(float(pvals[0]))
            assert gains.gamma_P_coeff == weight * integral
            assert gains.gamma_I_coeff == integral

    def test_gain_is_linear_in_disturbance_bound(self, scalar):
        gains = design.eiss_gains(scalar.sys, scalar.cert, scalar.trig)
        assert gains.bound(0.0, 0.0, 0.2) == pytest.approx(
            2.0 * gains.bound(0.0, 0.0, 0.1), rel=1e-14)
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
