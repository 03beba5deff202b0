"""Closed-loop simulation of the sampled-data system and run verification.

The plant ``dx/dt = A x + B u + d`` runs under a piecewise-constant input
``u = K x(t_k)`` whose hold intervals come either from the online trigger
(:func:`run_self_triggered`) or from a fixed period (:func:`run_periodic`).
Integration is classical fixed-step RK4 with the disturbance sampled at the
stage times. With the input held, one RK4 step is a fixed affine map of the
state and the three stage values of the disturbance; the map is built once
per (A, step size), each hold samples the disturbance at all its stage
times at once, and the steps run in blocks of matrix products. This is
still RK4, not an exact discretization. Bounded noise is held constant
across each integrator step and drawn per block of ``_NOISE_BLOCK`` steps
from one generator keyed by the seed and the block index, so every draw
depends on the seed and the global step alone (not on the time or on how
the run splits into holds) and reruns with the same seed are bit-identical.

A run is one :class:`Trajectory`, its dense log and its executions.
:func:`verify` checks a run against the designed exponential-ISS
envelope and the decay conditions at update instants, and reports each of
these guarantees as one :class:`Check`: its violation count, its worst
margin and where that margin occurred.

Time grids are uniform with step ``delta / divisor`` except for one possibly
shortened final step when the horizon is not a multiple of the step; the
horizon cut also truncates the last hold interval, whose execution still
records the intended dwell time.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import design, scheduler
from .errors import ConfigError, DimensionError, NumericError, SimulationError

_HORIZON_EPS = 1e-9
_STEP_EPS = 1e-12
# Relative margin below which verify counts a violation.
_VERIFY_TOLERANCE = 1e-6

# Steps per matrix product of the integrator, and noise draws per generator.
_BLOCK = 32
_NOISE_BLOCK = 1024
# Noise draws are rescaled to a few ulps inside the unit ball before they
# are scaled by the amplitude, so that a norm recomputed in floating point
# never exceeds the amplitude.
_NOISE_SHRINK = 1.0 - 8.0 * np.finfo(float).eps

DISTURBANCE_KINDS = ("zero", "constant", "sinusoid", "bounded_noise")


class DisturbanceSpec:
    """Disturbance signal acting on the plant.

    kind
        One of ``zero``, ``constant``, ``sinusoid``, ``bounded_noise``.
    amplitude
        Worst-case vector norm of the signal. Constant and sinusoid drive
        all components in phase scaled by ``1/sqrt(dimension)`` so the norm
        bound is exactly ``|amplitude|``; noise draws uniform components in
        ``[-amplitude, amplitude]`` and rescales any draw whose norm would
        exceed the amplitude to just inside it.
    frequency
        Cycles per time unit, sinusoid only.
    seed
        Nonnegative integer, noise only; together with the integrator step
        index it determines every draw.
    """

    def __init__(self, kind, dimension, amplitude=0.0, frequency=0.0, seed=0):
        if kind not in DISTURBANCE_KINDS:
            raise ConfigError(
                f"unknown disturbance kind {kind!r}, expected one of {DISTURBANCE_KINDS}")
        if not (isinstance(dimension, (int, np.integer)) and dimension >= 1):
            raise ConfigError(f"dimension must be a positive integer, got {dimension}")
        if not math.isfinite(amplitude):
            raise ConfigError("amplitude must be finite")
        if not math.isfinite(frequency):
            raise ConfigError("frequency must be finite")
        if not (isinstance(seed, (int, np.integer)) and seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
        self.kind = kind
        self.dimension = int(dimension)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.seed = int(seed)
        self._base = np.full(self.dimension,
                             self.amplitude / math.sqrt(self.dimension))

    @property
    def linf_bound(self):
        """Analytic bound on ``sup_t |d(t)|`` (never a sampled maximum)."""
        return 0.0 if self.kind == "zero" else abs(self.amplitude)

    def _noise_block(self, index):
        """Draws of the steps ``index * _NOISE_BLOCK`` onwards, one per row.

        One generator per block, keyed by (seed, block index).
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        unit = np.random.default_rng(ss).uniform(
            -1.0, 1.0, (_NOISE_BLOCK, self.dimension))
        norms = np.linalg.norm(unit, axis=1)
        over = norms > _NOISE_SHRINK
        unit[over] *= (_NOISE_SHRINK / norms[over])[:, None]
        return self.amplitude * unit

    def _noise(self, step):
        block, row = np.divmod(np.asarray(step, dtype=np.int64), _NOISE_BLOCK)
        out = np.empty(block.shape + (self.dimension,))
        # A set, not np.unique, which would import numpy.ma on first use.
        for index in sorted(set(block.ravel().tolist())):
            here = block == index
            out[here] = self._noise_block(index)[row[here]]
        return out

    def value(self, t, step=0):
        """Signal values at times ``t``; ``step`` keys the noise draws.

        ``t`` and ``step`` broadcast against each other and the result has
        their shape plus a trailing state axis, so scalars give one vector.
        Noise depends on ``step`` alone: one draw per integrator step, the
        same however the steps are grouped into calls.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "bounded_noise":
            step = np.asarray(step)
            shape = np.broadcast_shapes(t.shape, step.shape) + (self.dimension,)
            return np.broadcast_to(self._noise(step), shape)
        shape = t.shape + (self.dimension,)
        if self.kind == "zero":
            return np.zeros(shape)
        if self.kind == "constant":
            return np.broadcast_to(self._base, shape)
        return np.sin(2.0 * math.pi * self.frequency * t)[..., None] * self._base


# A run steps with one size plus at most one shorter horizon-tail step, so
# two entries hold a run's maps and the next run's tail replaces the last.
@functools.lru_cache(maxsize=2)
def _step_map(a_bytes, m, dt):
    """One RK4 step of size ``dt`` on ``x' = A x + b(t)`` as an affine map.

    With ``M = dt A`` the step is ``x+ = Phi x + G0 b(t) + Gh b(t + dt/2)
    + G1 b(t + dt)``, where ``Phi = I + M + M^2/2 + M^3/6 + M^4/24``,
    ``G0 = dt/6 (I + M + M^2/2 + M^3/4)``, ``Gh = dt/6 (4I + 2M + M^2/2)``
    and ``G1 = dt/6 I``. Returned in row form for blocks of ``_BLOCK``
    steps: ``stages`` stacks ``G0', Gh', G1'`` (3m x m), ``held`` is
    ``G0 + Gh + G1``, ``starts`` holds the increments ``(Phi^i - I)'`` for
    ``i = 1.._BLOCK`` side by side (m x _BLOCK m), and ``toeplitz`` maps a
    block's forcing rows to its forced states, block ``(j, i)`` being
    ``Phi^(i-j)'`` for ``j <= i``. Keeping ``Phi^i - I`` rather than
    ``Phi^i`` keeps its rounding relative to the small increment, so the
    recurrence does not drift from the stage form over long holds. The
    arrays are shared by every caller and therefore read-only.
    """
    A = np.frombuffer(a_bytes).reshape(m, m)
    eye = np.eye(m)
    M = dt * A
    M2 = M @ M
    M3 = M2 @ M
    step = M + M2 / 2.0 + M3 / 6.0 + M2 @ M2 / 24.0
    g0 = dt / 6.0 * (eye + M + M2 / 2.0 + M3 / 4.0)
    gh = dt / 6.0 * (4.0 * eye + 2.0 * M + M2 / 2.0)
    g1 = dt / 6.0 * eye
    increments = np.zeros((_BLOCK + 1, m, m))
    for i in range(1, _BLOCK + 1):
        increments[i] = increments[i - 1] + (step + step @ increments[i - 1])
    increments_t = increments.transpose(0, 2, 1)
    starts = increments_t[1:].transpose(1, 0, 2).reshape(m, _BLOCK * m)
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK)).T  # i - j at [j, i]
    toeplitz = np.where((lag >= 0)[:, :, None, None],
                        eye + increments_t[np.maximum(lag, 0)], 0.0)
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(_BLOCK * m, _BLOCK * m)
    maps = (np.vstack([g0.T, gh.T, g1.T]), g0 + gh + g1, starts, toeplitz)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def integrate_held(sys, x, u, dist, t0, dt, steps, step0=0):
    """RK4 integration of the plant with input held at ``u``.

    Returns the ``(steps + 1, m)`` array of states including the start.
    ``step0`` is the global step index of the first step, which keys the
    noise draws. The disturbance is sampled at every stage time of the hold
    at once, and the steps run as the affine RK4 step map of
    :func:`_step_map`, ``_BLOCK`` steps per matrix product. Raises
    ``SimulationError`` when the state leaves the representable range.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    m = sys.m
    if x.shape[0] != m:
        raise DimensionError(f"state has length {x.shape[0]}, expected {m}")
    if u.shape[0] != sys.l:
        raise DimensionError(f"input has length {u.shape[0]}, expected {sys.l}")
    if dt <= 0.0 or not math.isfinite(dt):
        raise SimulationError(f"step size must be positive, got {dt}")
    stages, held, starts, toeplitz = _step_map(sys.A.tobytes(), m, float(dt))
    try:
        t = t0 + dt * np.arange(steps)
        d = dist.value(np.stack([t, t + 0.5 * dt, t + dt], axis=1),
                       step0 + np.arange(steps)[:, None])
        blocks = -(-steps // _BLOCK)
        forcing = np.zeros((blocks * _BLOCK, m))
        out = np.empty((steps + 1, m))
        out[0] = x
        with np.errstate(over="ignore", invalid="ignore"):
            forcing[:steps] = d.reshape(steps, 3 * m) @ stages + held @ (sys.B @ u)
            forced = forcing.reshape(blocks, _BLOCK * m) @ toeplitz
            firsts = np.empty((blocks, m))
            across = starts[:, -m:]
            for k in range(blocks):
                firsts[k] = x
                x = x + (x @ across + forced[k, -m:])
            rest = (firsts @ starts + forced).reshape(blocks, _BLOCK, m)
            out[1:] = (firsts[:, None, :] + rest).reshape(-1, m)[:steps]
    except MemoryError as exc:
        raise SimulationError(
            f"a hold of {steps} integrator steps of size {dt:.6g} does not "
            f"fit in memory") from exc
    if not np.all(np.isfinite(out)):
        raise SimulationError(
            f"state diverged near t={t0 + steps * dt:.6g}; check the design "
            f"or reduce the horizon")
    return out


@dataclass
class Trajectory:
    """One closed-loop run: a dense log on a uniform time grid, and per
    execution ``k`` its state ``states[holds[k]]``, the input ``inputs[k]``
    it holds from row ``holds[k]`` on, its time ``t_k[k]`` (the float sum of
    the taus before it) and its dwell time, intended even if cut short."""

    times: np.ndarray        # (N,)
    states: np.ndarray       # (N, m)
    holds: np.ndarray        # (K,), row of each execution: 0, increasing
    inputs: np.ndarray       # (K, l), input of each hold
    t_k: np.ndarray          # (K,), time of each execution
    tau_k: np.ndarray        # (K,), dwell time of each execution
    n_k: np.ndarray | None   # (K,), grid decisions; None for periodic runs
    v_values: np.ndarray     # (N,), Lyapunov function along the run

    def tau_stats(self):
        """``(min, mean, max)`` of the dwell times."""
        return tuple(float(f(self.tau_k)) for f in (np.min, np.mean, np.max))


def _scale_free(f, x):
    """``f``, of degree 1, of one state or of each row of a stack, taken on
    each row scaled by the power of two that brings its largest |entry|
    into [0.5, 1) and scaled back: no square overflows, the bits are those
    of ``f`` wherever its squares fit a float, and a larger result is inf."""
    # Across the transpose's rows: a max along a short last axis is slower.
    e = np.frexp(np.abs(x.T, order="C").max(axis=0))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(f(np.ldexp(x, -e[..., None])), e)


def state_norms(states):
    """Euclidean norm of each row of ``states``."""
    return _scale_free(lambda u: np.linalg.norm(u, axis=1), states)


def _lyapunov_values(cert, states):
    """``V`` of each row of ``states`` with one contraction."""
    return _scale_free(lambda u: np.sqrt(np.maximum(
        0.0, np.einsum("ij,jk,ik->i", u, cert.P, u))), states)


def _run_loop(sys, cert, dist, x0, t_end, dt, schedule):
    """Shared run loop: ``schedule(x)`` yields (n, tau, hold_steps)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.m:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {sys.m}")
    if not np.all(np.isfinite(x0)):
        raise NumericError("x0 has non-finite entries")
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise SimulationError(f"t_end must be positive and finite, got {t_end}")
    if t_end / dt > np.iinfo(np.intp).max:
        raise SimulationError(f"the run needs {t_end / dt:.3g} integrator "
                              f"steps of {dt:.6g}, more than can be indexed")
    if dist.dimension != sys.m:
        raise DimensionError(
            f"disturbance dimension {dist.dimension} does not match state "
            f"dimension {sys.m}")

    eps = _HORIZON_EPS * max(1.0, t_end)
    times = [np.array([0.0])]
    states = [x0.reshape(1, -1)]
    # Per execution: (row, t_k, tau_k, n_k), and the input it holds.
    executions, inputs = [], []

    t_k = 0.0
    x = x0
    global_step = 0
    row = 0
    # The controller always executes at t = 0, however short the horizon.
    while not executions or t_k < t_end - eps:
        n_k, tau_k, hold_steps = schedule(x)
        u = sys.K @ x
        executions.append((row, t_k, tau_k, n_k))
        inputs.append(u)

        remaining = t_end - t_k
        full = hold_steps
        tail = 0.0
        if tau_k > remaining + eps:
            full = int(math.floor(remaining / dt + _STEP_EPS))
            tail = remaining - full * dt
            if tail <= _STEP_EPS * max(1.0, t_end):
                tail = 0.0
        span = integrate_held(sys, x, u, dist, t_k, dt, full, step0=global_step)
        x = span[-1]
        seg_times = t_k + dt * np.arange(1, full + 1)
        seg_states = span[1:]
        global_step += full
        if tail > 0.0:
            short = integrate_held(sys, x, u, dist, t_k + full * dt, tail, 1,
                                   step0=global_step)
            x = short[-1]
            seg_times = np.append(seg_times, t_end)
            seg_states = np.vstack([seg_states, short[1:]])
            global_step += 1
        # Every hold has rows: the horizon cut leaves tail > 0 if full == 0.
        times.append(seg_times)
        states.append(seg_states)
        row += len(seg_times)
        t_k = t_k + tau_k

    all_states = np.vstack(states)
    v_vals = _lyapunov_values(cert, all_states)
    if not np.all(np.isfinite(v_vals)):
        raise SimulationError(
            "Lyapunov value overflowed along the run; check the design or "
            "reduce the disturbance")
    holds, t_ks, tau_ks, n_ks = zip(*executions)
    return Trajectory(times=np.concatenate(times), states=all_states,
                      holds=np.array(holds), inputs=np.array(inputs),
                      t_k=np.array(t_ks), tau_k=np.array(tau_ks),
                      n_k=None if n_ks[0] is None else np.array(n_ks),
                      v_values=v_vals)


def run_self_triggered(sys, cert, tables, dist, x0, t_end, divisor=20):
    """Run the loop with hold intervals scheduled by the trigger tables.

    ``divisor`` sub-steps per grid step ``delta``; every decision comes from
    the full-matrix scan :func:`scheduler.next_update`, so each recorded
    execution is fully audited.
    """
    if divisor < 1:
        raise SimulationError(f"divisor must be at least 1, got {divisor}")
    if tables.m != sys.m:
        raise DimensionError("tables do not match the system dimension")
    dt = tables.delta / divisor

    def schedule(x):
        d = scheduler.next_update(x, tables)
        hold_n = max(tables.n_min, d.n)
        return d.n, d.tau, hold_n * divisor

    return _run_loop(sys, cert, dist, x0, t_end, dt, schedule)


def run_periodic(sys, cert, dist, x0, t_end, period, divisor=20):
    """Run the loop with a fixed execution period.

    The natural period choice is the designed minimum inter-execution time
    (or its grid snap when comparing against the self-triggered scheme on
    the same platform).
    """
    if not (period > 0.0 and math.isfinite(period)):
        raise SimulationError(f"period must be positive and finite, got {period}")
    if divisor < 1:
        raise SimulationError(f"divisor must be at least 1, got {divisor}")
    dt = period / divisor

    def schedule(_x):
        return None, period, divisor

    return _run_loop(sys, cert, dist, x0, t_end, dt, schedule)


@dataclass(frozen=True)
class Check:
    """One guarantee checked over a run: how many relative margins
    ``(bound - observed) / bound`` fall below ``-tolerance``, the smallest
    margin and where it occurred (``None`` when nothing was checked)."""

    violations: int
    worst_margin: float
    worst_at: int | None


@dataclass
class VerificationReport:
    """Checks of one run against the designed guarantees.

    ``eiss``, ``decay`` and ``disturbed_decay`` are one :class:`Check`
    each; a violation is a margin below ``-tolerance``, which is always
    ``1e-6``. The envelope check's ``worst_at`` is a time index of the
    trajectory, out of ``checked_instants``; the decay checks' is an
    execution ``k`` (for the disturbed check, the start of the dwell
    interval ``k -> k+1``, out of ``checked_updates``). The pure decay
    check only applies to undisturbed runs and is ``None`` otherwise.
    """

    tolerance: float
    eiss: Check
    decay: Check | None
    disturbed_decay: Check
    checked_instants: int
    checked_updates: int
    bound_curve: np.ndarray


def _check(bounds, observed):
    """The :class:`Check` of ``observed`` against ``bounds``, pointwise.

    A margin that is not finite means a bound or an observed value left the
    representable range, which no verdict can be drawn from.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        margins = (bounds - observed) / np.maximum(np.abs(bounds), 1e-300)
    if not np.all(np.isfinite(margins)):
        raise SimulationError(
            "verification margins are not finite; the run or its bounds "
            "left the representable range")
    if not margins.size:
        return Check(0, 0.0, None)
    worst = int(np.argmin(margins))
    return Check(int(np.sum(margins < -_VERIFY_TOLERANCE)),
                 float(margins[worst]), worst)


def verify(traj, gains, cert, dist, sys):
    """Verify a run against the ISS envelope and the update-instant decay.

    The system is needed explicitly because the disturbed update-instant
    check integrates the open-loop transition over each dwell interval.
    Three checks:

    * ``|x(t)| <= sigma |x0| exp(-lam t) + gamma(sup|d|)`` at every grid
      instant,
    * ``V(x_{k+1}) <= V(x_k) exp(-lam tau_k) + gamma_P(tau_k, sup|d|)`` at
      every pair of consecutive executions,
    * for undisturbed runs additionally
      ``V(x_k) <= V(x0) exp(-lam t_k)`` at every execution.
    """
    d_inf = dist.linf_bound
    x0_norm = float(_scale_free(np.linalg.norm, traj.states[0]))
    bound_curve = gains.bound(x0_norm, traj.times, d_inf)
    observed = state_norms(traj.states)

    v_events = traj.v_values[traj.holds]
    taus = traj.tau_k

    decay = None
    if d_inf == 0.0:
        decay = _check(v_events[0] * np.exp(-gains.lam * traj.t_k), v_events)

    gamma_p = np.zeros(taus.size - 1)
    if d_inf > 0.0:
        gain_cache = {}
        for i, tau in enumerate(taus[:-1].tolist()):
            if tau not in gain_cache:
                gain_cache[tau] = design.disturbance_gain_coeff(
                    cert.P, sys.A, tau)
            gamma_p[i] = gain_cache[tau] * d_inf

    return VerificationReport(
        tolerance=_VERIFY_TOLERANCE,
        eiss=_check(bound_curve, observed),
        decay=decay,
        disturbed_decay=_check(
            v_events[:-1] * np.exp(-gains.lam * taus[:-1]) + gamma_p,
            v_events[1:]),
        checked_instants=int(observed.size),
        checked_updates=int(gamma_p.size),
        bound_curve=bound_curve,
    )
