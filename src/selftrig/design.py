"""Offline design of a self-triggered controller implementation.

Given a plant ``dx/dt = A x + B u + d`` and a stabilizing state feedback
``u = K x`` held between executions, this module produces everything the
runtime side needs:

* a Lyapunov certificate ``V(x) = sqrt(x' P x)`` with a certified continuous
  decay rate and the enforced (slowed-down) rate ``lambda``,
* the minimum inter-execution time ``tau*``: the largest dwell time such
  that holding the input for ``tau <= tau*`` keeps ``V(xi(tau)) <=
  V(x) exp(-lambda tau)`` from every initial state,
* the grid parameters of the trigger (``delta``, ``tau_min``, ``tau_max``),
* the exponential-ISS gains ``sigma`` and ``gamma`` that bound the disturbed
  closed loop, and
* a processor-time feasibility check for running the trigger online.

Everything rests on the held-input flow ``xi(tau) = L(tau) x`` with
``L(tau) = exp(A tau) + integral_0^tau exp(A s) ds B K``. Van Loan's block
exponential gives both terms at once: with ``N = [[A, B], [0, 0]]``,
``exp(N tau) = [[E11, E12], [0, I]]`` and ``L(tau) = E11 + E12 K``. The
block ``N`` is built once per :class:`LinearSystem`; :func:`held_transition`
takes one time, :func:`held_flow_chunks` a uniform grid, and
:func:`decay_form` turns either into the decay-test form. The minimum dwell
time comes from a determinant root: the decay condition fails first at the
smallest positive root of ``det(L(tau)' P L(tau) - exp(-2 lambda tau) P)``,
the squared form of the decay of ``V``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, DesignError, DimensionError, NumericError

# Grid-count fallback for the dwell-time scan when the caller gives no step.
_SCAN_POINTS_DEFAULT = 2000
# A local minimum of |det M| on the grid below sqrt(tol) is a candidate
# tangential root; after refinement it counts as a root below this fraction
# of sqrt(tol).
_TANGENT_ACCEPT_FACTOR = 1e-2

_QUAD_RTOL = 1e-6
_QUAD_MAX_DOUBLINGS = 12


def _as_matrix(M, rows=None, cols=None, name="matrix"):
    """Coerce scalars / 1-D arrays to a 2-D float array of the given shape."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        if rows is not None and cols is not None and rows == 1:
            A = A.reshape(1, -1)
        else:
            A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be at most 2-D")
    if rows is not None and A.shape[0] != rows:
        raise DimensionError(f"{name} has {A.shape[0]} rows, expected {rows}")
    if cols is not None and A.shape[1] != cols:
        raise DimensionError(f"{name} has {A.shape[1]} columns, expected {cols}")
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{name} has non-finite entries")
    return A


class LinearSystem:
    """Plant and feedback gain of a sampled-data control loop.

    Accepts scalars and 1-D vectors where the intent is unambiguous: ``B``
    of length ``m`` becomes a column, ``K`` of length ``m`` becomes a row.
    Construction fails with ``DesignError`` if ``A + B K`` is not Hurwitz,
    established through a Lyapunov solve rather than an eigenvalue check.
    ``van_loan`` is the held-flow block ``[[A, B], [0, 0]]``.
    """

    def __init__(self, A, B, K):
        self.A = _as_matrix(A, name="A")
        m = self.A.shape[0]
        if self.A.shape[1] != m:
            raise DimensionError(f"A must be square, got {self.A.shape}")
        B = np.asarray(B, dtype=float)
        if B.ndim <= 1:
            B = B.reshape(1, 1) if B.ndim == 0 else B.reshape(-1, 1)
        self.B = _as_matrix(B, rows=m, name="B")
        l = self.B.shape[1]
        K = np.asarray(K, dtype=float)
        if K.ndim <= 1:
            K = K.reshape(1, 1) if K.ndim == 0 else K.reshape(1, -1)
        self.K = _as_matrix(K, rows=l, cols=m, name="K")
        self.a_cl = self.A + self.B @ self.K
        self.van_loan = np.block([[self.A, self.B], [np.zeros((l, m + l))]])
        try:
            linalg.lyap_solve(self.a_cl, np.eye(m))
        except NumericError as exc:
            raise DesignError("closed loop not Hurwitz") from exc

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def l(self):
        return self.B.shape[1]

    def __repr__(self):
        return f"LinearSystem(m={self.m}, l={self.l})"


class LyapunovCertificate:
    """Quadratic Lyapunov certificate ``V(x) = sqrt(x' P x)``.

    ``lambda_o`` is the certified continuous-closed-loop decay rate of ``V``
    and ``lam`` the slower rate the trigger enforces; the design headroom
    ``lam < lambda_o`` is what buys a positive dwell time.
    """

    def __init__(self, P, lambda_o, lam, Q):
        self.P = linalg.as_square(P, "P")
        self.P_half = linalg.sqrtm_spd(self.P)
        self.Q = linalg.as_square(Q, "Q")
        if not (lambda_o > 0.0 and math.isfinite(lambda_o)):
            raise DesignError("lambda_o must be positive and finite")
        if not (0.0 < lam < lambda_o or math.isclose(lam, lambda_o)):
            raise DesignError("enforced rate must satisfy 0 < lambda <= lambda_o")
        self.lambda_o = float(lambda_o)
        self.lam = float(lam)

    def value(self, x):
        """V(x) for a single state vector."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return math.sqrt(max(0.0, float(x @ self.P @ x)))

    def __repr__(self):
        return f"LyapunovCertificate(m={self.P.shape[0]}, lambda_o={self.lambda_o:.6g}, lam={self.lam:.6g})"


def make_certificate(sys, Q=None, lambda_ratio=0.8):
    """Solve for the Lyapunov certificate of the continuous closed loop.

    Parameters
    ----------
    sys : LinearSystem
    Q : array_like or None
        Symmetric positive definite right-hand side of
        ``(A+BK)' P + P (A+BK) = -Q``; identity when omitted.
    lambda_ratio : float
        Fraction of the certified rate to enforce, in (0, 1).

    The certified rate is the tight one for this pair:
    ``lambda_o = 0.5 * lambda_min(P^{-1/2} Q P^{-1/2})``, which is the
    largest constant with ``dV/dt <= -lambda_o V`` along the unsampled loop.
    """
    if not 0.0 < lambda_ratio < 1.0:
        raise DesignError(f"lambda_ratio must lie in (0, 1), got {lambda_ratio}")
    m = sys.m
    Q = np.eye(m) if Q is None else linalg.as_square(Q, "Q")
    if Q.shape[0] != m:
        raise DimensionError(f"Q has shape {Q.shape}, expected {(m, m)}")
    qvals, _ = linalg.sym_eig(Q)
    if qvals[0] <= 0.0:
        raise DesignError("Q must be positive definite")
    try:
        P = linalg.lyap_solve(sys.a_cl, Q)
    except NumericError as exc:
        raise DesignError("closed loop not Hurwitz") from exc
    P_half = linalg.sqrtm_spd(P)
    # P^{-1/2} Q P^{-1/2} through two triangular-free solves.
    X = np.linalg.solve(P_half, Q)
    W = np.linalg.solve(P_half, X.T).T
    wvals, _ = linalg.sym_eig(0.5 * (W + W.T))
    lambda_o = 0.5 * float(wvals[0])
    if lambda_o <= 0.0:
        raise DesignError("certificate has no positive decay rate")
    return LyapunovCertificate(P, lambda_o, lambda_ratio * lambda_o, Q)


def _held_flow(sys, E):
    """``L = E11 + E12 K`` from one Van Loan exponential or a stack of them."""
    m = sys.m
    return E[..., :m, :m] + E[..., :m, m:] @ sys.K


def held_transition(sys, tau):
    """Exact flow matrix of the held loop: ``xi(tau) = L(tau) x``."""
    return _held_flow(sys, linalg.expm(sys.van_loan, tau))


def held_flow_chunks(sys, step, indices):
    """Held flows ``L(j * step)`` for ``j`` in a ``range``, chunk by chunk.

    Yields ``(idx, L)`` with ``L[i] = L(idx[i] * step)``, one chunk of
    ``linalg.expm_chunks`` at a time.
    """
    for idx, E in linalg.expm_chunks(sys.van_loan, step, indices):
        yield idx, _held_flow(sys, E)


def decay_form(L, P, rate, tau):
    """Symmetrized ``L' P L - exp(-rate tau) P``.

    ``L`` is one flow with a scalar ``tau``, or a stack of flows with one
    time each.
    """
    decay = np.exp(-rate * np.asarray(tau, dtype=float))[..., None, None]
    M = L.swapaxes(-1, -2) @ P @ L - decay * P
    return 0.5 * (M + M.swapaxes(-1, -2))


def trigger_form(sys, cert, tau):
    """Symmetric matrix of the sampled decay test at dwell time ``tau``.

    ``x' M(tau) x <= 0`` certifies ``V(xi_x(tau)) <= V(x) exp(-lam tau)``
    (the squared form of the condition).
    """
    return decay_form(held_transition(sys, tau), cert.P, 2.0 * cert.lam, tau)


@dataclass
class DwellTimeResult:
    """Outcome of the minimum dwell-time root search.

    ``tau`` is the smallest positive root of ``det M(tau)`` when
    ``root_found``; otherwise the scan cap, meaning no violation was
    detected below it and the cap is a safe (conservative) dwell time.
    """

    tau: float
    root_found: bool
    tau_cap: float


def min_inter_execution_time(sys, cert, grid_step=None, tau_cap=None, tol=1e-9):
    """Smallest positive time at which the sampled decay test can fail.

    Scans ``det M(tau)`` over a uniform grid and bisects the first sign
    change down to ``tol``. Tangential roots (the determinant touching zero
    without a sign change, as happens for systems with repeated critical
    directions) are caught by refining grid-local minima of ``|det M|``
    that dip below ``sqrt(tol)``.

    The grid is evaluated chunk by chunk from fresh held flows
    (:func:`held_flow_chunks`) and stacked determinants; the two grid values
    before each chunk carry over, so a bracket or dip that straddles a chunk
    boundary is found as if the grid were one piece. Refinement evaluates
    single points.
    """
    if tau_cap is None:
        tau_cap = 10.0 / cert.lam
    if not (tau_cap > 0.0 and math.isfinite(tau_cap)):
        raise DesignError(f"tau_cap must be positive and finite, got {tau_cap}")
    if grid_step is None:
        grid_step = tau_cap / _SCAN_POINTS_DEFAULT
    if not (0.0 < grid_step < tau_cap):
        raise DesignError(f"grid_step must lie in (0, tau_cap), got {grid_step}")

    P = cert.P
    rate = 2.0 * cert.lam

    def det_at(tau):
        return linalg.det(decay_form(held_transition(sys, tau), P, rate, tau))

    def bisect(lo, hi, flo):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = det_at(mid)
            if fmid == 0.0:
                return mid
            if (flo < 0.0) == (fmid < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def golden_min(lo, hi):
        # Golden-section refinement of a local minimum of |det M|.
        inv = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv * (b - a)
        d = a + inv * (b - a)
        fc, fd = abs(det_at(c)), abs(det_at(d))
        while b - a > tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv * (b - a)
                fc = abs(det_at(c))
            else:
                a, c, fc = c, d, fd
                d = a + inv * (b - a)
                fd = abs(det_at(d))
        mid = 0.5 * (a + b)
        return mid, abs(det_at(mid))

    dip_threshold = math.sqrt(tol)
    accept_threshold = dip_threshold * _TANGENT_ACCEPT_FACTOR

    n_grid = int(math.ceil(tau_cap / grid_step))
    # The two grid points before the current chunk: tau = 0, where
    # det M(0) = 0 exactly, and a placeholder before it that no test reads.
    tail_taus = np.array([math.nan, 0.0])
    tail_dets = np.array([math.nan, 0.0])
    for idx, L in held_flow_chunks(sys, grid_step, range(1, n_grid + 1)):
        taus = grid_step * idx
        dets = np.linalg.det(decay_form(L, P, rate, taus))
        all_taus = np.concatenate((tail_taus, taus))
        all_dets = np.concatenate((tail_dets, dets))
        prev, prev2 = all_dets[1:-1], all_dets[:-2]
        # Point j = 1 only follows the exact zero at tau = 0, so neither
        # test applies to it.
        crossing = (idx > 1) & ((dets == 0.0) | ((prev < 0.0) != (dets < 0.0)))
        dip = ((idx > 1) & (np.abs(prev) < dip_threshold)
               & (np.abs(prev) <= np.abs(prev2)) & (np.abs(prev) <= np.abs(dets)))
        for i in np.flatnonzero(crossing | dip):
            tau_j = float(taus[i])
            if crossing[i]:
                if dets[i] == 0.0:
                    return DwellTimeResult(tau_j, True, tau_cap)
                if prev[i] != 0.0:
                    root = bisect(float(all_taus[i + 1]), tau_j, float(prev[i]))
                    return DwellTimeResult(root, True, tau_cap)
            if dip[i]:
                lo = float(all_taus[i])
                t_min, f_min = golden_min(lo, tau_j)
                if f_min <= accept_threshold:
                    return DwellTimeResult(t_min, True, tau_cap)
                f_lo = det_at(lo)
                if (f_lo < 0.0) != (det_at(t_min) < 0.0):
                    return DwellTimeResult(bisect(lo, t_min, f_lo), True, tau_cap)
        tail_taus, tail_dets = all_taus[-2:], all_dets[-2:]

    return DwellTimeResult(tau_cap, False, tau_cap)


@dataclass
class TriggerConfig:
    """Grid parameters of the runtime trigger.

    ``delta`` is the evaluation step, ``tau_min``/``tau_max`` the dwell-time
    window (both multiples of ``delta`` after snapping), and ``n_min`` /
    ``n_max`` the corresponding grid indices.
    """

    delta: float
    tau_min: float
    tau_max: float
    n_min: int
    n_max: int

    def __post_init__(self):
        if not (0.0 < self.delta <= self.tau_min <= self.tau_max):
            raise ConfigError(
                f"need 0 < delta <= tau_min <= tau_max, got "
                f"delta={self.delta}, tau_min={self.tau_min}, tau_max={self.tau_max}")
        if not (1 <= self.n_min <= self.n_max):
            raise ConfigError(f"need 1 <= n_min <= n_max, got {self.n_min}, {self.n_max}")


def _grid_floor(t, delta):
    # floor(t / delta) robust to the quotient landing an ulp under an integer.
    return int(math.floor(t / delta + 1e-9))


def choose_trigger(tau_star, delta, tau_max, tau_min=None):
    """Snap the dwell-time window onto the evaluation grid.

    ``tau_min`` defaults to the largest multiple of ``delta`` not exceeding
    ``tau_star`` (at least ``delta``); an explicit ``tau_min`` is validated
    against ``tau_star`` and snapped down. ``tau_max`` is snapped down to
    ``n_max * delta``.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ConfigError(f"delta must be positive, got {delta}")
    if delta > tau_star:
        raise ConfigError(
            f"delta={delta:.6g} exceeds the minimum inter-execution time "
            f"{tau_star:.6g}; reduce delta")
    if tau_max < delta:
        raise ConfigError(f"tau_max={tau_max:.6g} is below delta={delta:.6g}")
    n_max = _grid_floor(tau_max, delta)
    if tau_min is None:
        n_min = max(1, _grid_floor(tau_star, delta))
    else:
        if tau_min > tau_star:
            raise ConfigError(
                f"tau_min={tau_min:.6g} exceeds the minimum inter-execution "
                f"time {tau_star:.6g}")
        if tau_min < delta:
            raise ConfigError(f"tau_min={tau_min:.6g} is below delta={delta:.6g}")
        n_min = max(1, _grid_floor(tau_min, delta))
    n_min = min(n_min, n_max)
    return TriggerConfig(
        delta=delta,
        tau_min=min(n_min * delta, tau_star),
        tau_max=min(n_max * delta, tau_max),
        n_min=n_min,
        n_max=n_max,
    )


def energy_rate_form(sys, cert):
    """Symmetric form bounding the growth rate of ``x' P x`` between updates.

    With ``y = (P^{1/2} xi, P^{1/2} x_hold)`` the derivative of the held
    loop satisfies ``d/dt (xi' P xi) = y' G y`` for
    ``G = [[H + H', R], [R', 0]]``, ``H = P^{1/2} A P^{-1/2}``,
    ``R = P^{1/2} B K P^{-1/2}``. Its extreme eigenvalues drive the
    inter-sample growth factor of the ISS gains.
    """
    P_half = cert.P_half
    H = np.linalg.solve(P_half, (P_half @ sys.A).T).T
    R = np.linalg.solve(P_half, (P_half @ (sys.B @ sys.K)).T).T
    m = sys.m
    G = np.block([[H + H.T, R], [R.T, np.zeros((m, m))]])
    return 0.5 * (G + G.T)


def _norm_integral(A, T, max_step):
    """``integral_0^T norm(exp(A r)) dr`` by composite Simpson quadrature.

    Starts from the smallest even node count with spacing at most
    ``max_step`` and doubles it until the value is stable to ``_QUAD_RTOL``
    relative. The nodes of a doubled rule are the old ones plus the new odd
    ones, so each doubling evaluates only the new nodes, batched through
    ``linalg.expm_chunks``.
    """
    def norm_sum(h, indices):
        return sum(float(np.linalg.norm(E, 2, axis=(1, 2)).sum())
                   for _idx, E in linalg.expm_chunks(A, h, indices))

    n = max(2, 2 * int(math.ceil(T / (2.0 * max_step))))
    ends = float(np.linalg.norm(linalg.expm_grid(A, [0.0, T]), 2,
                                axis=(1, 2)).sum())
    h = T / n
    odd = norm_sum(h, range(1, n, 2))
    even = norm_sum(h, range(2, n, 2))
    value = (ends + 4.0 * odd + 2.0 * even) * h / 3.0
    for _ in range(_QUAD_MAX_DOUBLINGS):
        n *= 2
        h = T / n
        even += odd
        odd = norm_sum(h, range(1, n, 2))
        refined = (ends + 4.0 * odd + 2.0 * even) * h / 3.0
        converged = abs(refined - value) <= _QUAD_RTOL * max(abs(refined), 1e-30)
        value = refined
        if converged:
            break
    return value


def disturbance_gain_coeff(P_like, A, T, max_step=None):
    """Coefficient ``c`` such that the disturbance contribution to ``V`` over
    a window of length ``T`` is at most ``c * sup|d|``.

    Computes ``(lambda_max(P) / sqrt(lambda_min(P))) * integral_0^T
    norm(exp(A r)) dr`` by composite Simpson quadrature, doubling the node
    count until the result is stable to 1e-6 relative. ``max_step`` bounds
    the initial node spacing and defaults to ``T / 32``.
    """
    A = linalg.as_square(A, "A")
    P_like = linalg.as_square(P_like, "P")
    if T < 0.0 or not math.isfinite(T):
        raise DesignError(f"window length must be finite and nonnegative, got {T}")
    if T == 0.0:
        return 0.0
    pvals, _ = linalg.sym_eig(P_like)
    if pvals[0] <= 0.0:
        raise NumericError("weight matrix is not positive definite")
    weight = float(pvals[-1]) / math.sqrt(float(pvals[0]))
    if max_step is None:
        max_step = T / 32.0
    return weight * _norm_integral(A, T, max_step)


def hold_growth_factor(delta, n_max, rho, mu, lam, rho_P):
    """Worst-case amplification of ``|xi|`` between consecutive executions.

    Collapses to ``rho_P`` as ``delta`` shrinks to zero; grows with the
    evaluation step and the dwell-time ceiling ``n_max * delta``.
    """
    if not mu < rho:
        raise DesignError(
            f"degenerate energy-rate bounds: mu={mu:.6g} must be below rho={rho:.6g}")
    a = mu * delta / (mu - rho)
    e1 = math.exp((rho + 2.0 * lam) * a)
    e2 = math.exp(2.0 * lam * (n_max - 1) * delta)
    e3 = math.exp(2.0 * lam * a)
    inner = e1 + e2 * (e1 - e3)
    if inner < 0.0:
        raise NumericError("growth factor radicand is negative")
    return rho_P * math.sqrt(inner)


@dataclass
class EissGains:
    """Exponential-ISS gains of the self-triggered loop.

    The closed loop satisfies ``|xi(t)| <= sigma |x0| exp(-lam t) +
    gamma_total_coeff * sup|d|`` along every run started inside the design
    envelope.
    """

    sigma: float
    lam: float
    rho_P: float
    g_value: float
    rho: float
    mu: float
    gamma_P_coeff: float
    gamma_I_coeff: float
    gamma_total_coeff: float

    def beta(self, s, t):
        """Transient envelope ``sigma * s * exp(-lam t)``."""
        return self.sigma * s * math.exp(-self.lam * t)

    def gamma(self, s):
        """Disturbance gain, linear in the disturbance bound ``s``."""
        return self.gamma_total_coeff * s

    def bound(self, x0_norm, t, dist_bound):
        return self.beta(x0_norm, t) + self.gamma(dist_bound)


def eiss_gains(sys, cert, trig, tau_star=None):
    """Assemble the ISS gains for a designed trigger.

    ``tau_star`` is optional; when given, ``trig.tau_min`` is checked
    against it since the gain derivation assumes the enforced window never
    outruns the minimum dwell time.
    """
    if tau_star is not None and trig.tau_min > tau_star * (1.0 + 1e-12):
        raise DesignError(
            f"tau_min={trig.tau_min:.6g} exceeds the minimum inter-execution "
            f"time {tau_star:.6g}")
    G = energy_rate_form(sys, cert)
    gvals, _ = linalg.sym_eig(G)
    mu, rho = float(gvals[0]), float(gvals[-1])
    pvals, _ = linalg.sym_eig(cert.P)
    p_min, p_max = float(pvals[0]), float(pvals[-1])
    rho_P = math.sqrt(p_max / p_min)
    g_value = hold_growth_factor(trig.delta, trig.n_max, rho, mu, cert.lam, rho_P)
    sigma = rho_P * g_value
    # gamma_P and gamma_I share the integral of norm(exp(A r)) over the
    # longest hold; they differ in the weight, which is 1 for the identity.
    integral = _norm_integral(sys.A, trig.n_max * trig.delta, trig.delta / 4.0)
    gamma_P = p_max / math.sqrt(p_min) * integral
    gamma_I = integral
    denominator = 1.0 - math.exp(-cert.lam * trig.tau_min)
    if denominator <= 0.0:
        raise NumericError("geometric accumulation denominator vanished")
    gamma_total = gamma_P / math.sqrt(p_min) * g_value / denominator + gamma_I
    return EissGains(
        sigma=sigma,
        lam=cert.lam,
        rho_P=rho_P,
        g_value=g_value,
        rho=rho,
        mu=mu,
        gamma_P_coeff=gamma_P,
        gamma_I_coeff=gamma_I,
        gamma_total_coeff=gamma_total,
    )


@dataclass
class FeasibilityReport:
    """Processor-time feasibility of the online trigger evaluation.

    ``tau_c`` is the platform time for one multiply-add. The two constraints
    are: the per-execution preprocessing plus worst-case scan must fit into
    the minimum dwell time, and one form evaluation must fit into one grid
    step.
    """

    m: int
    tau_c: float
    work_unit: int            # m^2 + m multiply-adds per form evaluation
    budget_tau_min: float     # 1.5 * work_unit * tau_c
    budget_delta: float       # work_unit * tau_c
    tau_min: float
    delta: float
    ok_tau_min: bool
    ok_delta: bool
    feasible: bool
    max_tau_c: float


def feasibility_check(m, tau_c, trig):
    """Check that a platform with multiply-add time ``tau_c`` can run the trigger."""
    if tau_c < 0.0 or not math.isfinite(tau_c):
        raise ConfigError(f"tau_c must be finite and nonnegative, got {tau_c}")
    work = m * m + m
    budget_tau_min = 1.5 * work * tau_c
    budget_delta = float(work * tau_c)
    ok_tau_min = budget_tau_min <= trig.tau_min
    ok_delta = budget_delta <= trig.delta
    return FeasibilityReport(
        m=m,
        tau_c=tau_c,
        work_unit=work,
        budget_tau_min=budget_tau_min,
        budget_delta=budget_delta,
        tau_min=trig.tau_min,
        delta=trig.delta,
        ok_tau_min=ok_tau_min,
        ok_delta=ok_delta,
        feasible=ok_tau_min and ok_delta,
        max_tau_c=min(trig.tau_min / (1.5 * work), trig.delta / work),
    )
