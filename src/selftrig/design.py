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
takes one time or a few and :func:`held_flow_chunks` a uniform grid, chunk by
chunk from ``linalg.expm_chunks``: a later point is one ``m x (m+l)`` by
``(m+l) x m`` product, ``L(a + b) = [E11(a) E12(a)] [L(b); K]``, of a fresh
block exponential and a first-chunk flow. :func:`decay_form` turns one flow
or a stack into the decay-test form. The minimum dwell time comes from the
sign of ``det(L(tau)' P L(tau) - exp(-2 lambda tau) P)``, the squared form
of the decay of ``V``: it is the last time the determinant test passed
before its sign first changes or it touches zero. Before the scan computes
a block of its grid, :func:`root_free_cells` tries to prove the decay test
on the block's whole cell from the two base exponentials at its ends, and a
proven block is skipped; a stretch it cannot prove comes from
:func:`held_flow_chunks`, as the tables do. ``tau*`` stays the full grid's,
at a cost that follows the blocks the bound cannot prove.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, DesignError, DimensionError, NumericError

# Grid-count fallback for the dwell-time scan when the caller gives no step
# (resolving_step caps the step it gives).
_SCAN_POINTS_DEFAULT = 2000
# Width, relative to the bracket's upper end, to which the dwell-time
# bisection and dip refinement narrow a root; each returns the lower end,
# the last time the determinant test passed.
_SCAN_TOL = 1e-9
# Bisection steps whose 2**_BISECT_LEVELS - 1 candidate midpoints one
# stacked evaluation judges.
_BISECT_LEVELS = 4
# A local minimum of |det M| on the grid below sqrt(_SCAN_TOL) is a
# candidate tangential root; after refinement it counts as a root below this
# fraction of sqrt(_SCAN_TOL).
_TANGENT_ACCEPT_FACTOR = 1e-2

# Machine epsilon, twice the unit roundoff.
_EPS = float(np.finfo(float).eps)

_QUAD_RTOL = 1e-6
_QUAD_MAX_DOUBLINGS = 12


def _as_matrix(M, rows=None, cols=None, name="matrix"):
    """Coerce scalars / 1-D arrays (as columns) to a 2-D float array of the
    given shape."""
    A = np.asarray(M, dtype=float)
    if A.ndim < 2:
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
    That solve's ``P`` of ``(A+BK)' P + P (A+BK) = -I`` is kept as
    ``lyap_identity``, the certificate of the default ``Q``.
    ``van_loan`` is the held-flow block ``[[A, B], [0, 0]]``.
    """

    def __init__(self, A, B, K):
        self.A = _as_matrix(A, name="A")
        m = self.A.shape[0]
        if self.A.shape[1] != m:
            raise DimensionError(f"A must be square, got {self.A.shape}")
        self.B = _as_matrix(B, rows=m, name="B")
        l = self.B.shape[1]
        K = np.asarray(K, dtype=float)
        if K.ndim < 2:
            K = K.reshape(1, -1)
        self.K = _as_matrix(K, rows=l, cols=m, name="K")
        self.a_cl = self.A + self.B @ self.K
        self.van_loan = np.block([[self.A, self.B], [np.zeros((l, m + l))]])
        try:
            self.lyap_identity = linalg.lyap_solve(self.a_cl, np.eye(m))
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
    ``lam < lambda_o`` is what buys a positive dwell time. ``P_half``, the
    square root of ``P``, is computed unless it is given.
    """

    def __init__(self, P, lambda_o, lam, Q, P_half=None):
        self.P = linalg.as_square(P, "P")
        self.P_half = linalg.sqrtm_spd(self.P) if P_half is None else P_half
        self.Q = linalg.as_square(Q, "Q")
        if not (lambda_o > 0.0 and math.isfinite(lambda_o)):
            raise DesignError("lambda_o must be positive and finite")
        if not (0.0 < lam < lambda_o or math.isclose(lam, lambda_o)):
            raise DesignError("enforced rate must satisfy 0 < lambda <= lambda_o")
        self.lambda_o = float(lambda_o)
        self.lam = float(lam)

    def __repr__(self):
        return f"LyapunovCertificate(m={self.P.shape[0]}, lambda_o={self.lambda_o:.6g}, lam={self.lam:.6g})"


def make_certificate(sys, Q=None, lambda_ratio=0.8):
    """Solve for the Lyapunov certificate of the continuous closed loop.

    Parameters
    ----------
    sys : LinearSystem
    Q : array_like or None
        Symmetric positive definite right-hand side of
        ``(A+BK)' P + P (A+BK) = -Q``; identity when omitted, whose ``P``
        is the system's own ``lyap_identity``.
    lambda_ratio : float
        Fraction of the certified rate to enforce, in (0, 1).

    The certified rate is the tight one for this pair:
    ``lambda_o = 0.5 * lambda_min(P^{-1/2} Q P^{-1/2})``, which is the
    largest constant with ``dV/dt <= -lambda_o V`` along the unsampled loop.
    """
    if not 0.0 < lambda_ratio < 1.0:
        raise DesignError(f"lambda_ratio must lie in (0, 1), got {lambda_ratio}")
    m = sys.m
    if Q is None:
        Q, P = np.eye(m), sys.lyap_identity
    else:
        Q = linalg.as_square(Q, "Q")
        if Q.shape[0] != m:
            raise DimensionError(f"Q has shape {Q.shape}, expected {(m, m)}")
        qvals, _ = linalg.sym_eig(Q, "Q")
        if qvals[0] <= 0.0:
            raise DesignError("Q must be positive definite")
        try:
            P = linalg.lyap_solve(sys.a_cl, Q)
        except NumericError as exc:
            # The loop is Hurwitz (LinearSystem solved for Q = I), so the
            # fault is this Q's.
            raise DesignError(f"no certificate for the given Q: {exc}") from exc
    P_half = linalg.sqrtm_spd(P)
    # P^{-1/2} Q P^{-1/2} through two triangular-free solves.
    X = np.linalg.solve(P_half, Q)
    W = np.linalg.solve(P_half, X.T).T
    wvals, _ = linalg.sym_eig(0.5 * (W + W.T))
    lambda_o = 0.5 * float(wvals[0])
    if lambda_o <= 0.0:
        raise DesignError("certificate has no positive decay rate")
    return LyapunovCertificate(P, lambda_o, lambda_ratio * lambda_o, Q,
                               P_half=P_half)


def held_transition(sys, tau):
    """Exact flow matrix of the held loop: ``xi(tau) = L(tau) x``.

    An array of times gives a stack of flows from one ``linalg.expm_grid``
    of the Van Loan block, each bitwise the flow of its time alone.
    """
    m = sys.m
    E = linalg.expm_grid(sys.van_loan, tau)
    L = E[:, :m, :m] + E[:, :m, m:] @ sys.K
    return L.reshape(np.shape(tau) + (m, m))


def held_flow_chunks(sys, step, indices):
    """Held flows ``L(j * step)`` for ``j`` in a ``range``, chunk by chunk.

    Yields ``(idx, L)`` with ``L[i] = L(idx[i] * step)``, one chunk of
    ``linalg.expm_chunks`` at a time: its factored form ``[I 0] exp(N t)
    [I; K]`` with ``N`` the Van Loan block. A point ``a + b`` of a later
    block is ``L(a + b) = Phi(a) L(b) + Gamma(a) K = [Phi(a) Gamma(a)]
    [L(b); K]``, one ``m x (m+l)`` row block of the fresh ``exp(N a)``
    times a kept first-chunk flow. Blocks are about ``sqrt(n)`` points wide
    for ``n`` points, up to the chunk budget, so a table of ``n`` forms
    takes about ``2 sqrt(n)`` fresh exponentials of ``N``. ``L`` is an
    ``(n, m, m)`` stack.
    """
    m = sys.m
    left, right = np.eye(m, m + sys.l), np.vstack((np.eye(m), sys.K))
    return linalg.expm_chunks(sys.van_loan, step, indices, left, right)


def decay_form(L, P, rate, tau):
    """Symmetrized ``L' P L - exp(-rate tau) P``.

    ``L`` is one flow with a scalar ``tau``, or a stack of flows with one
    time each; the result has the shape of ``L``.
    """
    M = (P @ L).swapaxes(-1, -2) @ L
    M -= np.exp(-rate * np.asarray(tau, dtype=float))[..., None, None] * P
    M += M.swapaxes(-1, -2)
    M *= 0.5
    return M


def trigger_form(sys, cert, tau):
    """Symmetric matrix of the sampled decay test at dwell time ``tau``.

    ``x' M(tau) x <= 0`` certifies ``V(xi_x(tau)) <= V(x) exp(-lam tau)``
    (the squared form of the condition). An array of times gives a stack
    of forms, each bitwise the form of its time alone.
    """
    return decay_form(held_transition(sys, tau), cert.P, 2.0 * cert.lam, tau)


@dataclass
class DwellTimeResult:
    """Outcome of the minimum dwell-time root search.

    When ``root_found``, ``tau`` is the last time the determinant test of
    ``M(tau)`` passed before its first sign change or accepted dip,
    narrowed to ``1e-9`` of the bracket's upper end; the test starts from
    the sign ``(-1)^m`` that ``det M`` takes just after ``tau = 0``.
    Otherwise ``tau`` is the scan cap, meaning no violation was detected
    below it and the cap is a safe (conservative) dwell time. The scan
    skips the grid's blocks on which a bound proves the decay test, and
    ``tau`` is the one the full grid gives (see
    :func:`min_inter_execution_time`).
    """

    tau: float
    root_found: bool
    tau_cap: float


# Data past the float range make a bound inf or nan, which proves nothing.
@np.errstate(over="ignore", invalid="ignore")
def root_free_cells(sys, cert):
    """Prover of root-free cells of the dwell-time scan, from their bases.

    Returns ``prove(a, E)``. ``a`` holds two or more ascending times and
    ``E`` their computed ``exp(N a)``, ``N`` the Van Loan block; only the
    cell that reaches ``a[-1]`` may be narrower than the first. It gives
    whether the cells ``[a_i, a_(i+1)]`` are proven, as a boolean array of
    ``len(a) - 1``. On a proven cell the decay test
    holds at every time, and every form the scan's grid computes in it
    has, in the metric of ``P``, its largest eigenvalue below zero.

    In P-weighted coordinates, ``Lt = H L H^-1`` with ``H = P^{1/2}``, the
    form is ``Mt(t) = Lt^T Lt - exp(-2 lam t) I``, congruent to ``M(t)``, so
    ``lambda_max(Mt) < 0`` exactly when the decay test holds. The first
    ``m`` rows ``[Phi(a) Gamma(a)]`` of ``exp(N a)`` give ``Lt(a)``,
    ``D1(a) = H Phi(a) (A+BK) H^-1`` and ``D2(a) = H Phi(a) A (A+BK)
    H^-1``, the first two derivatives of ``Lt``, in one product. As
    ``D1(a+s) = exp(At s) D1(a)`` with ``At = H A H^-1``, and ``|exp(At s)|
    <= exp(mu s)`` for ``mu`` the positive part of the logarithmic norm
    ``lambda_max((At + At^T)/2)``, on a cell ``[a, a + w]`` (Frobenius
    norms, which bound the spectral norm)::

        S1 = exp(mu w) |D1(a)|     bounds |D1|
        S2 = exp(mu w) |D2(a)|     bounds |D2|
        S0 = |Lt(a)| + w S1        bounds |Lt|

    On the cell, ``Mt`` is its chord ``(1 - r) Mt(a) + r Mt(a + w)`` minus
    ``int G(t, s) Mt''(s) ds``, with ``G >= 0`` the Green's function of
    ``-d^2/dt^2``, whose integral is at most ``w^2 / 8``. ``lambda_max`` is
    convex, so on the chord it is largest at an end, and subadditive
    (Weyl); and ``-Mt'' = -(D2^T Lt + Lt^T D2) - 2 D1^T D1 + 4 lam^2
    exp(-2 lam t) I`` has ``lambda_max <= 2 S0 S2 + 4 lam^2 exp(-2 lam
    a)``, the Gram term being positive semidefinite. So the two ends of
    the cell decide it::

        B = max(lambda_max(Mt(a)), lambda_max(Mt(a + w)))
            + (w^2 / 8) (2 S0 S2 + 4 lam^2 exp(-2 lam a)) (1 + theta) + margin

    bounds ``lambda_max(Mt)`` on the cell: a second-order exclusion bound
    of the Piyavskii-Shubert kind (Shubert 1972). Next to the bound through
    the tangent ``Mt(a) + w Mt'(a)``, whose remainder is ``(w^2 / 2) (2 S0
    S2 + 2 S1^2 + 4 lam^2 exp(-2 lam a))``, its remainder is under a
    quarter as wide, and adjacent cells share an end: a base costs one
    ``lambda_max(Mt(a)) = |Lt(a)|_2^2 - exp(-2 lam a)``, from
    ``linalg.spectral_norms``. All cells take ``w``, the norms, ``|exp(N
    a)|``, ``a`` and ``exp(-2 lam a)`` at their largest, so one constant
    serves them.

    The margin covers rounding, with ``u`` the unit roundoff, ``gamma_k =
    k u / (1 - k u)`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002), ``n = m + l`` and ``kappa = |H| |H^-1|``:

    * ``exp(N t)`` is computed to ``eta = linalg.EXPM_RTOL max(1, |N|_1 (a
      + w) / linalg.EXPM_NORM)`` relative, the accuracy ``linalg`` states.
      A grid point is ``[Phi(a) Gamma(a)] exp(N b) [I; K]`` with ``0 < b <=
      w``, and ``|exp(N b)| <= sqrt(n) exp(|N| w)``. So each computed
      ``Lt``, ``D1`` and ``D2``, at a base or on the grid, is off by at
      most ``eps_L = kappa (2 eta + 2 gamma_n) |exp(N a)| sqrt(n) exp(|N|
      w) F``, with ``F`` the largest norm of ``[I; K]``, ``[A+BK; 0]`` and
      ``N [A+BK; 0]``; the norms above take it on, and ``Lt^T Lt`` moves by
      ``2 S0 eps_L + eps_L^2``.
    * The rest is relative: a few products, sums and ``exp``s, the
      backward error of the spectral norms and of the grid's determinant (LU
      with partial pivoting, growth at most ``2^(m-1)``), and ``H`` and
      ``H^-1`` being computed: ``theta = rho + 2^m gamma_4n`` with ``rho =
      |H H^-1 - I| + |H^-1|^2 |H H - P|`` measured. It acts on forms of
      norm at most ``Sigma = (S0 + 1)^2 + 2 lam (a + w)``, the last term
      for grid times rounded by half an ulp; grid forms are made in plain
      coordinates, where a weighted error grows by at most ``cond(P) <=
      kappa^2`` and ``|L|^2 <= kappa^2 |Lt|^2``.

    So ``margin = 2 eps_L (S0 + eps_L) + theta kappa^4 Sigma``, to first
    order in the rounding: an expression of the data, not a tuned
    constant. A wider margin costs little; it moves the first unproven
    cell by about ``margin / |d lambda_max / dt|``.
    """
    m, l = sys.m, sys.l
    n = m + l
    N = sys.van_loan
    H = cert.P_half
    H_inv = np.linalg.inv(H)
    # [[I; K], [A+BK; 0], N [A+BK; 0]] H^-1 side by side: Lt, D1 and D2 of
    # a base are then one product with its rows [Phi Gamma].
    F = np.zeros((3, n, m))
    F[0, :m], F[0, m:], F[1, :m] = np.eye(m), sys.K, sys.a_cl
    F[2] = N @ F[1]
    G = (F @ H_inv).transpose(1, 0, 2).reshape(n, 3 * m)
    # Products, not powers: a float power past the range raises, while a
    # product is inf, which proves nothing.
    norm_H_inv = _frobenius(H_inv)
    kappa = _frobenius(H) * norm_H_inv
    kappa2 = kappa * kappa
    theta = (_frobenius(H @ H_inv - np.eye(m))
             + norm_H_inv * norm_H_inv * _frobenius(H @ H - cert.P) + 2 ** m * _gamma(4 * n))
    At = H @ sys.A @ H_inv
    At += At.T
    mu = (0.5 * float(np.linalg.eigvalsh(At)[-1]) if np.isfinite(At).all()
          else math.nan) + theta * kappa2 * _frobenius(sys.A)
    # A nan rate stays nan, and makes every bound inf.
    mu = 0.0 if mu <= 0.0 else mu
    # |N| bounds N's logarithmic norm, and sqrt(n) |N| its 1-norm.
    nu = _frobenius(N)
    flow_scale = kappa * math.sqrt(n * float((F * F).sum(axis=(1, 2)).max()))
    lam = cert.lam

    def excess(w, a, n0, n1, n2, n_E, decay):
        # B - max(lambda_max(Mt(a)), lambda_max(Mt(a + w))): the
        # remainder, with its rounding, and the margin.
        eta = linalg.EXPM_RTOL * max(1.0, math.sqrt(n) * nu * (a + w) / linalg.EXPM_NORM)
        eps_L = (2.0 * eta + 2.0 * _gamma(n)) * flow_scale * _exp(nu * w) * n_E
        growth = _exp(mu * w)
        S2 = growth * (n2 + eps_L)
        S0 = n0 + eps_L + w * growth * (n1 + eps_L)
        return (0.125 * w * w * (2.0 * S0 * S2 + 4.0 * lam * lam * decay) * (1.0 + theta)
                + 2.0 * eps_L * (S0 + eps_L)
                + theta * kappa2 * kappa2 * ((S0 + 1.0) * (S0 + 1.0) + 2.0 * lam * (a + w)))

    @np.errstate(over="ignore", invalid="ignore")
    def prove(a, E):
        a = np.asarray(a, dtype=float)
        X = (H @ E[:, :m]) @ G
        decay = np.exp(-2.0 * lam * a)
        top = linalg.spectral_norms(X[..., :m]) ** 2 - decay
        # |Lt|, |D1|, |D2| and |exp(N a)|, the largest over a; a cell that
        # reaches a[-1] may be cut short, so the first is the widest.
        norms = np.sqrt((X * X).sum(axis=1).reshape(-1, 3, m).sum(axis=2)
                        .max(axis=0)).tolist()
        n_E = math.sqrt(float((E * E).sum(axis=(1, 2)).max()))
        end = float(a[-1])
        # The width widened by 4 ulps of the latest time: a grid time rounds
        # by half an ulp, and so does a difference.
        w = float(a[1]) - float(a[0]) + 4.0 * _EPS * end
        return (np.maximum(top[:-1], top[1:])
                + excess(w, end, *norms, n_E, float(decay[0])) < 0.0)

    return prove


def min_inter_execution_time(sys, cert, grid_step=None, tau_cap=None):
    """Smallest positive time at which the sampled decay test can fail.

    Scans the sign of ``det M(tau)`` over a uniform grid. ``tau*`` is, by
    one rule, the last time the test passed before the first sign change
    or accepted dip: a bracket is narrowed until it is ``_SCAN_TOL`` of its
    upper end wide, and its lower end is returned. Tangential roots (the
    determinant touching zero without a sign change, as happens for
    systems with repeated critical directions) are caught by refining
    grid-local minima of ``|det M|`` that dip below ``sqrt(1e-9)``. The
    test starts at ``tau = 0`` with the sign of ``det M`` just after it,
    ``(-1)^m``: ``M(tau) = tau (2 lambda P - Q) + O(tau^2)``, and ``2
    lambda P - Q`` is negative definite for ``lambda < lambda_o``. So the
    first grid point is judged like any other, and a root inside the
    first step is found. The cap defaults to ``10 / lambda``, ten time
    constants of the enforced decay, and the step to ``tau_cap / 2000``,
    but at most :func:`resolving_step`, so that the scan cannot step over
    the first root of a plant that oscillates faster than that grid.

    The grid's blocks are those ``linalg.grid_blocks`` lays out for
    ``linalg.expm_chunks``, point ``j`` at time ``grid_step * j``. The
    first block is judged whole; at ``tau = 0`` the form is 0, and no bound
    proves a cell there. After it, cells are bounded before any of their
    points is computed. A batch takes the bases ``exp(N a)`` at its cells'
    ends, as many cells as a chunk holds blocks, from one stacked
    ``linalg.expm_grid`` call, and :func:`root_free_cells` bounds
    ``lambda_max`` of the decay form on each cell from the two bases at its
    ends; a proven cell's blocks are skipped. After a batch whose cells
    are all proven, the cells are twice as wide, and the batch after an
    unproven wide cell tiles that cell; so the fresh exponentials follow
    the length the bound cannot prove, not ``1 / grid_step``.

    The first block is one run; the blocks of a batch from its first
    unproven cell to its last are judged in runs of 1, 2, 4, ... blocks,
    doubling over the whole scan. A run is a stretch of the grid that
    :func:`held_flow_chunks` gives chunk by chunk, as it gives the tables'
    flows; each chunk's forms (``decay_form``) and stacked determinants go
    through the sign and dip tests, up to the first result. A run starts
    from the sign ``(-1)^m``, every run after the first block two grid
    points early but not before point 1, so its first new point is judged
    against the two before it, as on the full grid. No determinant passes
    between runs: every grid point before a run has the sign ``(-1)^m``,
    as it passed the sign test or lies in a proven cell, where every form
    the grid computes is negative definite. So no sign changes on a proven
    block, and a dip there cannot pass the sign test. Hence ``tau*`` is the
    one the full determinant grid gives, save that a dip the full grid
    would accept as a tangential root inside a proven cell, where the decay
    test provably holds, is never looked at. The cost follows the blocks
    the bound cannot prove.

    Only the grid's signs and dips are read; the points inside a bracket
    decide ``tau*``. One evaluator, ``det_at``, judges every point off the
    grid, at one time or a stack: the dip checks, the golden section's
    first pair at once, and the ``2**_BISECT_LEVELS - 1`` midpoints of the
    bisection's next ``_BISECT_LEVELS`` steps at once, each formed from its
    parent's bracket as a single step would form it. A stacked form is
    bitwise that of one point, so the path and ``tau*`` are those of one
    point at a time. Every determinant is ``linalg.det``'s LU, so both ends
    of a bracket are judged by one formula. Its form is taken with ``P``
    scaled by the exact power of two that brings its largest entry into
    ``[0.5, 1)``: the signs are the same, and neither an underflow to 0 nor
    the dip thresholds depend on the scale of ``Q``.
    """
    if tau_cap is None:
        tau_cap = 10.0 / cert.lam
    if not (tau_cap > 0.0 and math.isfinite(tau_cap)):
        raise DesignError(f"tau_cap must be positive and finite, got {tau_cap}")
    if grid_step is None:
        grid_step = min(tau_cap / _SCAN_POINTS_DEFAULT, resolving_step(sys.A))
    if not (0.0 < grid_step < tau_cap):
        raise DesignError(f"grid_step must lie in (0, tau_cap), got {grid_step}")
    if tau_cap / grid_step > np.iinfo(np.intp).max:
        raise DesignError(
            f"dwell-time scan needs {tau_cap / grid_step:.3g} grid points "
            f"(tau_cap={tau_cap:.6g}, grid step {grid_step:.6g}), more than "
            f"can be indexed")

    # P with its largest |entry| in [0.5, 1), exactly.
    P = np.ldexp(cert.P, -np.frexp(np.abs(cert.P).max())[1])
    rate = 2.0 * cert.lam

    def det_at(tau):
        return linalg.det(decay_form(held_transition(sys, tau), P, rate, tau))

    def bisect(lo, hi, flo):
        while hi - lo > _SCAN_TOL * hi:
            # The midpoints of the next _BISECT_LEVELS steps in heap order:
            # node i's bracket halves into those of nodes 2i+1 (lower) and
            # 2i+2 (upper), each midpoint formed as a single step forms it.
            brackets, mids = [(lo, hi)], []
            while len(mids) < 2 ** _BISECT_LEVELS - 1:
                a, b = brackets[len(mids)]
                mids.append(0.5 * (a + b))
                brackets += [(a, mids[-1]), (mids[-1], b)]
            fmids = det_at(np.array(mids))
            node = 0
            while node < len(mids) and hi - lo > _SCAN_TOL * hi:
                mid, fmid = mids[node], float(fmids[node])
                if fmid == 0.0:
                    return mid
                if (flo < 0.0) == (fmid < 0.0):
                    lo, flo, node = mid, fmid, 2 * node + 2
                else:
                    hi, node = mid, 2 * node + 1
        return lo

    def golden_min(a, b):
        # Golden-section minimum of |det M|: the lower end of the last
        # bracket and signed det M there.
        inv = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - inv * (b - a), a + inv * (b - a)
        fc, fd = np.abs(det_at(np.array([c, d]))).tolist()
        while b - a > _SCAN_TOL * b:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv * (b - a)
                fc = abs(det_at(c))
            else:
                a, c, fc = c, d, fd
                d = a + inv * (b - a)
                fd = abs(det_at(d))
        return a, det_at(a)

    dip_threshold = math.sqrt(_SCAN_TOL)
    accept_threshold = dip_threshold * _TANGENT_ACCEPT_FACTOR

    def judge_run(first, last):
        # Grid points first..last, chunk by chunk as the tables take them,
        # through the sign and dip tests from the seed: the root, or None.
        tail = seed
        for idx, L in held_flow_chunks(sys, grid_step, range(first, last + 1)):
            dets = linalg.det(decay_form(L, P, rate, grid_step * idx))
            all_dets = np.concatenate((tail, dets))
            prev, prev2 = all_dets[1:-1], all_dets[:-2]
            crossing = (dets == 0.0) | ((prev < 0.0) != (dets < 0.0))
            dip = ((np.abs(prev) < dip_threshold) & (np.abs(prev) <= np.abs(prev2))
                   & (np.abs(prev) <= np.abs(dets)))
            for i in np.flatnonzero(crossing | dip):
                j = int(idx[i])
                tau_j = grid_step * j
                if dets[i] == 0.0:
                    return tau_j
                if crossing[i]:
                    return bisect(grid_step * (j - 1), tau_j, float(prev[i]))
                lo = grid_step * (j - 2)
                t_min, f_min = golden_min(lo, tau_j)
                if abs(f_min) <= accept_threshold:
                    return t_min
                f_lo = det_at(lo)
                if (f_lo < 0.0) != (f_min < 0.0):
                    return bisect(lo, t_min, f_lo)
            tail = all_dets[-2:]
        return None

    n_grid = int(math.ceil(tau_cap / grid_step))
    N = sys.van_loan
    per, batch = linalg.grid_blocks(N, n_grid)
    n_blocks = -(-n_grid // per)
    # det M at the two grid points before a run: a placeholder that no test
    # reads, and the sign (-1)^m that det M takes just after tau = 0. Its
    # magnitude, the smallest a float has, stands in for the exact 0 there:
    # no nonzero grid value is below it, so a run's first point never reads
    # as a local minimum of |det M|. Every grid point before a run has that
    # sign too, as it passed the sign test or lies in a proven cell.
    seed = np.array([math.nan, (-1.0) ** sys.m * 5e-324])
    # A grid point past the float range gives a non-finite form, which
    # linalg.det refuses with one error; numpy's overflow warnings would
    # only print ahead of it.
    with np.errstate(over="ignore", invalid="ignore"):
        root = judge_run(1, per)
        k, w, prove, size = 1, 1, None, 1
        while root is None and k < n_blocks:
            # A batch of cells between the bases of blocks starts[i] and
            # starts[i + 1], from block k, w blocks wide; ends holds each
            # base's grid index, the grid's last past the last block.
            count = min(batch, -(-(n_blocks - k) // w))
            starts = np.minimum(k + w * np.arange(count + 1), n_blocks)
            ends = np.minimum(per * starts, n_grid)
            prove = prove or root_free_cells(sys, cert)
            unproven = np.flatnonzero(
                ~prove(grid_step * ends, linalg.expm_grid(N, grid_step * ends)))
            if w > 1 and len(unproven):
                # The next batch tiles the first unproven cell.
                k, w = int(starts[unproven[0]]), max(1, w // batch)
                continue
            # Judge the blocks from the first unproven one to the last in
            # runs that double in length over the scan, each from two grid
            # points before it but not before point 1.
            lo, end = (int(unproven[0]), int(unproven[-1]) + 1) if len(unproven) else (0, 0)
            while root is None and lo < end:
                hi = min(lo + size, end)
                root = judge_run(max(1, int(ends[lo]) - 1), int(ends[hi]))
                lo, size = hi, 2 * size
            # After a batch whose cells are all proven, cells twice as wide;
            # a batch of one cell could not tile them.
            k, w = int(starts[-1]), w * (1 + (end == 0 and batch > 1))
    return DwellTimeResult(tau_cap if root is None else root, root is not None, tau_cap)


def _frobenius(X):
    return math.sqrt(float(np.vdot(X, X)))


def _gamma(k):
    # Higham's gamma_k = k u / (1 - k u), u = _EPS / 2 the unit roundoff.
    return k * _EPS / (2.0 - k * _EPS)


def _exp(x):
    # math.exp, but inf past the float range.
    return math.exp(x) if x < 709.0 else math.inf


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
    # floor(t / delta) robust to the quotient landing an ulp under an integer,
    # and kept low enough that the grid time index * delta is finite.
    index = t / delta + 1e-9
    if not math.isfinite(index):
        raise ConfigError(f"{t:.6g} is too many grid steps of delta={delta:.6g}")
    n = int(math.floor(index))
    if math.isinf(n * delta):
        n = int(math.floor(math.nextafter(np.finfo(float).max / delta, 0.0)))
    return n


def choose_trigger(tau_star, delta, tau_max, tau_min=None):
    """Snap the dwell-time window onto the evaluation grid.

    ``tau_min`` defaults to the largest multiple of ``delta`` not exceeding
    ``tau_star`` (at least ``delta``); an explicit ``tau_min`` is validated
    against ``tau_star`` and snapped down. ``tau_max`` is snapped down to
    ``n_max * delta``. A time within 1e-9 grid steps under a grid point
    snaps to that point, but the window never reaches past ``tau_star`` or
    the requested ``tau_max``. A grid index whose time ``n * delta`` would
    overflow is lowered to the largest one whose time is finite. Every
    rejection is a ``ConfigError``, including a window whose step count
    overflows.
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
        floor = tau_star
    else:
        if tau_min > tau_star:
            raise ConfigError(
                f"tau_min={tau_min:.6g} exceeds the minimum inter-execution "
                f"time {tau_star:.6g}")
        if tau_min < delta:
            raise ConfigError(f"tau_min={tau_min:.6g} is below delta={delta:.6g}")
        floor = tau_min
    # Snapping the smaller of the two keeps n_min <= n_max.
    n_min = max(1, _grid_floor(min(floor, tau_max), delta))
    return TriggerConfig(
        delta=delta,
        tau_min=min(n_min * delta, tau_star, tau_max),
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


def resolving_step(A):
    """Largest grid step that resolves the fastest oscillation of
    ``exp(A r)``: ``(pi / omega) / 20``, where ``omega`` is the largest
    ``|Im lambda(A)|``, or infinity when every eigenvalue is real."""
    omega = float(np.max(np.abs(np.linalg.eigvals(A).imag)))
    return math.pi / omega / 20.0 if omega > 0.0 else math.inf


# An exponential past the float range makes a rule's sum non-finite, which
# the quadrature returns; numpy's overflow warnings would only precede it.
@np.errstate(over="ignore", invalid="ignore")
def _norm_integral(A, T, max_step):
    """``integral_0^T norm(exp(A r)) dr`` by composite Simpson quadrature.

    Starts from the smallest even node count ``n`` with spacing ``h`` at
    most ``max_step`` and doubles it until the value is stable to
    ``_QUAD_RTOL`` relative. Every rule takes its node exponentials from
    ``linalg.expm_chunks`` and keeps only their norms, from
    ``linalg.spectral_norms``, so no rule is held whole. The first rule's
    ``n + 1`` norms are kept; its end, odd and even sums are read by index
    parity. When ``n`` is a multiple of 4, the first rule is compared with
    the rule embedded in it at spacing ``2 h``, on every other node. If the
    two agree to 1e-8 relative and ``2 h`` is at most
    :func:`resolving_step`, the first rule, the finer of the two, is the
    value and nothing is doubled; it is then within about 1e-9 relative of
    the first doubled rule. Doubling ``k`` keeps the old sums and adds the
    new odd nodes, ``exp(A j h_k)`` for odd ``j < n 2^k`` with ``h_k = h /
    2^k``, as one ``expm_chunks`` pass summed chunk by chunk.

    A rule whose sum is not finite, where ``exp(A r)`` leaves the float
    range, is returned at once: no later doubling could converge.
    """
    n = max(2, 2 * int(math.ceil(T / (2.0 * max_step))))
    h = T / n
    try:
        norms = np.empty(n + 1)
    except MemoryError:
        raise MemoryError(f"EISS gain quadrature needs {n + 1:.3g} nodes of "
                          f"step {h:.3g}, more than memory holds") from None
    for idx, E in linalg.expm_chunks(A, h, range(n + 1)):
        norms[idx] = linalg.spectral_norms(E)
    ends = float(norms[0] + norms[n])
    odd = float(norms[1:n:2].sum())
    even = float(norms[2:n:2].sum())
    value = (ends + 4.0 * odd + 2.0 * even) * h / 3.0
    if not math.isfinite(value):
        return value
    if n % 4 == 0:
        # Simpson's error falls as h^4, so a doubling would move the value
        # by about (value - coarse) / 16: agreement to 1e-8 keeps the first
        # rule within about 1e-9 of the doubled one. The embedded rule's
        # nodes, 2 h apart, must also resolve the fastest oscillation of
        # exp(A r), or both rules could sample it at the same phase and
        # agree on a wrong value.
        coarse = (ends + 4.0 * float(norms[2:n:4].sum())
                  + 2.0 * float(norms[4:n:4].sum())) * 2.0 * h / 3.0
        if (abs(value - coarse) <= 1e-8 * abs(value)
                and 2.0 * h <= resolving_step(A)):
            return value
    for k in range(1, _QUAD_MAX_DOUBLINGS + 1):
        h_k = h / 2 ** k
        even += odd
        odd = 0.0
        for _idx, E in linalg.expm_chunks(A, h_k, range(1, n * 2 ** k, 2)):
            odd += float(linalg.spectral_norms(E).sum())
        refined = (ends + 4.0 * odd + 2.0 * even) * h_k / 3.0
        if not math.isfinite(refined):
            return refined
        converged = abs(refined - value) <= _QUAD_RTOL * max(abs(refined), 1e-30)
        value = refined
        if converged:
            break
    return value


def disturbance_gain_coeff(P_like, A, T):
    """Coefficient ``c`` such that the disturbance contribution to ``V`` over
    a window of length ``T`` is at most ``c * sup|d|``.

    Computes ``(lambda_max(P) / sqrt(lambda_min(P))) * integral_0^T
    norm(exp(A r)) dr``, the integral by ``_norm_integral`` from a first
    rule of 64 intervals.
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
    return weight * _norm_integral(A, T, T / 64.0)


def hold_growth_factor(delta, n_max, rho, mu, lam, rho_P):
    """Worst-case amplification of ``|xi|`` between consecutive executions.

    Collapses to ``rho_P`` as ``delta`` shrinks to zero; grows with the
    evaluation step and the dwell-time ceiling ``n_max * delta``.
    """
    if not mu < rho:
        raise DesignError(
            f"degenerate energy-rate bounds: mu={mu:.6g} must be below rho={rho:.6g}")
    a = mu * delta / (mu - rho)
    try:
        e1 = math.exp((rho + 2.0 * lam) * a)
        e3 = math.exp(2.0 * lam * a)
    except OverflowError:
        raise DesignError(
            f"hold growth factor overflows: energy-rate bound rho={rho:.6g} "
            f"is too large for delta={delta:.6g}") from None
    try:
        e2 = math.exp(2.0 * lam * (n_max - 1) * delta)
    except OverflowError:
        raise DesignError(
            f"hold growth factor overflows: the longest hold "
            f"n_max*delta={n_max * delta:.6g} is too long for "
            f"lambda={lam:.6g}") from None
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

    def bound(self, x0_norm, t, dist_bound):
        """ISS envelope ``sigma x0_norm exp(-lam t) + gamma_total_coeff
        dist_bound``, linear in the disturbance bound."""
        return (self.sigma * x0_norm * np.exp(-self.lam * t)
                + self.gamma_total_coeff * dist_bound)


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
    if not math.isfinite(gamma_total):
        raise DesignError(
            f"EISS gains overflow: norm(exp(A r)) over the longest hold "
            f"n_max*delta={trig.n_max * trig.delta:.6g} leaves the float "
            f"range")
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

    ``tau_c`` is the platform time for one multiply-add and ``work_unit``
    the ``m^2 + m`` multiply-adds of one form evaluation. Two constraints
    are checked: per execution, the ``m(m+1)/2`` monomials of the packed
    evaluator plus one form evaluation (together ``1.5 * work_unit``) must
    fit into ``tau_min``, and one form evaluation (``work_unit``) must fit
    into one grid step ``delta``. No comparisons are charged, although
    ``scheduler.next_update_packed`` counts one per evaluation in its
    ``op_count``.
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
