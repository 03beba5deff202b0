"""Closed-loop simulation of the sampled-data system and run verification.

The plant ``dx/dt = A x + B u + d`` runs under a piecewise-constant input
``u = K x(t_k)`` whose hold intervals come either from the online trigger
(:func:`run_self_triggered`) or from a fixed period (:func:`run_periodic`).
Integration is classical fixed-step RK4 with the disturbance sampled at the
stage times; bounded noise is held constant across each integrator step so
reruns with the same seed are bit-identical.

The module also provides the reference oracle
:func:`continuous_dwell_time`, which measures how long the continuous decay
condition actually survives from a given state using exact held-input flows,
and :func:`verify`, which checks a logged run against the designed
exponential-ISS envelope and the decay conditions at update instants.

Time grids are uniform with step ``delta / divisor`` except for one possibly
shortened final step when the horizon is not a multiple of the step; the
horizon cut also truncates the last hold interval, whose event still logs
the intended dwell time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import design, scheduler
from .errors import ConfigError, DimensionError, NumericError, SimulationError

_HORIZON_EPS = 1e-9
_STEP_EPS = 1e-12
# Grid density of the dwell-time oracle scan, and the number of sub-steps
# each refinement round splits the bracketing step into.
_ORACLE_POINTS = 5000
_ORACLE_REFINE = 32

_DISTURBANCE_KINDS = ("zero", "constant", "sinusoid", "bounded_noise")


class DisturbanceSpec:
    """Disturbance signal acting on the plant.

    kind
        One of ``zero``, ``constant``, ``sinusoid``, ``bounded_noise``.
    amplitude
        Worst-case vector norm of the signal. Constant and sinusoid drive
        all components in phase scaled by ``1/sqrt(dimension)`` so the norm
        bound is exactly ``|amplitude|``; noise draws uniform components and
        rescales any draw whose norm exceeds the amplitude.
    frequency
        Cycles per time unit, sinusoid only.
    seed
        Nonnegative integer, noise only; together with the integrator step
        index it determines every draw.
    """

    def __init__(self, kind, dimension, amplitude=0.0, frequency=0.0, seed=0):
        if kind not in _DISTURBANCE_KINDS:
            raise ConfigError(
                f"unknown disturbance kind {kind!r}, expected one of {_DISTURBANCE_KINDS}")
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
        self._zero = np.zeros(self.dimension)
        self._direction = np.full(self.dimension, 1.0 / math.sqrt(self.dimension))
        self._base = self.amplitude * self._direction
        self._cache_step = -1
        self._cache_value = self._zero

    @property
    def linf_bound(self):
        """Analytic bound on ``sup_t |d(t)|`` (never a sampled maximum)."""
        return 0.0 if self.kind == "zero" else abs(self.amplitude)

    def _noise(self, step):
        if step != self._cache_step:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(step,))
            v = np.random.default_rng(ss).uniform(-self.amplitude, self.amplitude,
                                                  self.dimension)
            norm = float(np.linalg.norm(v))
            bound = abs(self.amplitude)
            if norm > bound > 0.0:
                v *= bound / norm
            self._cache_step = step
            self._cache_value = v
        return self._cache_value

    def value(self, t, step=0):
        """Signal value at time ``t``; ``step`` keys the noise draw."""
        if self.kind == "zero":
            return self._zero
        if self.kind == "constant":
            return self._base
        if self.kind == "sinusoid":
            return self._base * math.sin(2.0 * math.pi * self.frequency * t)
        return self._noise(step)


def integrate_held(sys, x, u, dist, t0, dt, steps, step0=0):
    """RK4 integration of the plant with input held at ``u``.

    Returns the ``(steps + 1, m)`` array of states including the start.
    ``step0`` is the global step index of the first step, which keys the
    noise draws. Raises ``SimulationError`` when the state leaves the
    representable range.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.shape[0] != sys.m:
        raise DimensionError(f"state has length {x.shape[0]}, expected {sys.m}")
    if u.shape[0] != sys.l:
        raise DimensionError(f"input has length {u.shape[0]}, expected {sys.l}")
    if dt <= 0.0 or not math.isfinite(dt):
        raise SimulationError(f"step size must be positive, got {dt}")
    out = np.empty((steps + 1, sys.m))
    out[0] = x
    A = sys.A
    bu = sys.B @ u
    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            t = t0 + i * dt
            s = step0 + i
            d0 = dist.value(t, s)
            dh = dist.value(t + half, s)
            d1 = dist.value(t + dt, s)
            k1 = A @ x + bu + d0
            k2 = A @ (x + half * k1) + bu + dh
            k3 = A @ (x + half * k2) + bu + dh
            k4 = A @ (x + dt * k3) + bu + d1
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            out[i + 1] = x
    if not np.all(np.isfinite(x)):
        raise SimulationError(
            f"state diverged near t={t0 + steps * dt:.6g}; check the design "
            f"or reduce the horizon")
    return out


@dataclass
class Trajectory:
    """Dense log of one closed-loop run on a uniform time grid."""

    times: np.ndarray        # (N,)
    states: np.ndarray       # (N, m)
    inputs: np.ndarray       # (N, l), input applied on [t_i, t_{i+1})
    v_values: np.ndarray     # (N,), Lyapunov function along the run
    dt: float


@dataclass
class Event:
    """One controller execution: measured state and scheduling outcome."""

    k: int
    t: float
    x: np.ndarray
    n: int | None            # grid decision; None for periodic runs
    tau: float               # intended dwell time, even if the horizon cuts it


@dataclass
class ExecutionLog:
    """All controller executions of one run."""

    events: list[Event] = field(default_factory=list)

    @property
    def total_executions(self):
        return len(self.events)

    @property
    def taus(self):
        return np.array([e.tau for e in self.events])

    def tau_stats(self):
        taus = self.taus
        return float(taus.min()), float(taus.mean()), float(taus.max())


def _run_loop(sys, cert, dist, x0, t_end, dt, schedule):
    """Shared run loop: ``schedule(x)`` yields (n, tau, hold_steps)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.m:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {sys.m}")
    if not np.all(np.isfinite(x0)):
        raise NumericError("x0 has non-finite entries")
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise SimulationError(f"t_end must be positive and finite, got {t_end}")
    if dist.dimension != sys.m:
        raise DimensionError(
            f"disturbance dimension {dist.dimension} does not match state "
            f"dimension {sys.m}")

    eps = _HORIZON_EPS * max(1.0, t_end)
    times = [np.array([0.0])]
    states = [x0.reshape(1, -1)]
    inputs = [np.zeros((1, sys.l))]
    log = ExecutionLog()

    t_k = 0.0
    x = x0
    k = 0
    global_step = 0
    while t_k < t_end - eps:
        n_k, tau_k, hold_steps = schedule(x)
        log.events.append(Event(k=k, t=t_k, x=x.copy(), n=n_k, tau=tau_k))
        u = sys.K @ x
        inputs[-1][-1] = u                      # input applied from this instant on

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
        if full or tail:
            times.append(seg_times)
            states.append(seg_states)
            inputs.append(np.tile(u, (len(seg_times), 1)))
        t_k = t_k + tau_k
        k += 1

    all_times = np.concatenate(times)
    all_states = np.vstack(states)
    all_inputs = np.vstack(inputs)
    v_vals = np.sqrt(np.maximum(0.0, np.einsum("ij,jk,ik->i", all_states, cert.P,
                                               all_states)))
    traj = Trajectory(times=all_times, states=all_states, inputs=all_inputs,
                      v_values=v_vals, dt=dt)
    return traj, log


def run_self_triggered(sys, cert, tables, dist, x0, t_end, divisor=20):
    """Run the loop with hold intervals scheduled by the trigger tables.

    ``divisor`` sub-steps per grid step ``delta``; every decision comes from
    the full-matrix scan :func:`scheduler.next_update`, so each logged event
    is fully audited.
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


def _held_flows(sys, step, indices):
    """Stacked held flows ``L(j * step)`` for ``j`` in a ``range``."""
    return np.concatenate([L for _idx, L in
                           design.held_flow_chunks(sys, step, indices)])


class HeldFlowGrid:
    """Exact held-input transitions precomputed over a dense time grid.

    Built once per (system, horizon) pair and shared across oracle calls.
    Every grid point takes a fresh held flow, in chunks from
    ``design.held_flow_chunks``.
    """

    def __init__(self, sys, tau_max, n_points=_ORACLE_POINTS):
        self.sys = sys
        self.tau_max = float(tau_max)
        self.step = self.tau_max / n_points
        self.taus = self.step * np.arange(n_points + 1)
        self.flows = _held_flows(sys, self.step, range(n_points + 1))


def continuous_dwell_time(sys, cert, x, tau_max, tol=1e-9, grid=None):
    """How long the continuous decay condition survives from state ``x``.

    Returns the largest ``tau <= tau_max`` such that
    ``V(xi_x(s)) <= V(x) exp(-lam s)`` for every ``s`` in ``[0, tau]``,
    located by a dense scan over exact held-input flows; the first
    up-crossing is then refined on sub-grids of ``_ORACLE_REFINE`` steps,
    each a batch of held flows on integer multiples of its own step, until
    the step is at most ``tol``. This is the measurement the designed
    minimum inter-execution time must lower-bound for every state.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != sys.m:
        raise DimensionError(f"state has length {x.shape[0]}, expected {sys.m}")
    if grid is None:
        n_points = int(min(_ORACLE_POINTS, math.ceil(tau_max / max(10.0 * tol, 1e-12))))
        grid = HeldFlowGrid(sys, tau_max, max(2, n_points))
    elif grid.sys is not sys or grid.tau_max < tau_max - _STEP_EPS:
        raise ConfigError("flow grid does not cover the requested horizon")

    v0 = cert.value(x)
    if v0 == 0.0:
        return tau_max

    def excess(flows, taus):
        flowed = flows @ x
        v = np.sqrt(np.maximum(0.0, np.einsum("ij,jk,ik->i", flowed, cert.P,
                                              flowed)))
        return v - v0 * np.exp(-cert.lam * taus)

    # The first grid point at or after the start where the condition fails;
    # index 0 is the start state where the excess is zero by construction
    # and its sign is rounding noise, so every search starts one point in.
    def first_above(h):
        above = np.flatnonzero(h[1:] > 0.0)
        return int(above[0]) + 1 if above.size else None

    j = first_above(excess(grid.flows, grid.taus))
    if j is None or grid.taus[j] > tau_max:
        return tau_max
    # The crossing lies in ((j - 1) step, j step]. A refinement that finds
    # no failing point, its last point being the old one recomputed within
    # rounding, keeps the last sub-interval.
    step = grid.step
    while step > tol:
        step /= _ORACLE_REFINE
        indices = range((j - 1) * _ORACLE_REFINE, j * _ORACLE_REFINE + 1)
        h = excess(_held_flows(sys, step, indices), step * np.arange(
            indices.start, indices.stop))
        j = indices.start + (first_above(h) or _ORACLE_REFINE)
    return (j - 0.5) * step


@dataclass
class VerificationReport:
    """Checks of one logged run against the designed guarantees.

    Margins are relative: ``(bound - observed) / bound``; an instant counts
    as a violation when its margin falls below ``-tolerance``. The pure
    decay check only applies to undisturbed runs and is ``None`` otherwise.
    """

    tolerance: float
    eiss_violations: int
    eiss_worst_margin: float
    decay_violations: int | None
    decay_worst_margin: float | None
    disturbed_decay_violations: int
    disturbed_decay_worst_margin: float
    checked_instants: int
    checked_updates: int
    bound_curve: np.ndarray


def _margins(bounds, observed):
    denom = np.maximum(np.abs(bounds), 1e-300)
    return (bounds - observed) / denom


def verify(traj, log, gains, cert, dist, sys, tolerance=1e-6):
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
    x0_norm = float(np.linalg.norm(traj.states[0]))
    bound_curve = gains.sigma * x0_norm * np.exp(-gains.lam * traj.times) \
        + gains.gamma(d_inf)
    observed = np.linalg.norm(traj.states, axis=1)
    eiss_margins = _margins(bound_curve, observed)
    eiss_violations = int(np.sum(eiss_margins < -tolerance))
    eiss_worst = float(eiss_margins.min()) if eiss_margins.size else 0.0

    v_events = np.array([cert.value(e.x) for e in log.events])
    t_events = np.array([e.t for e in log.events])

    decay_violations = None
    decay_worst = None
    if d_inf == 0.0:
        decay_bound = v_events[0] * np.exp(-gains.lam * t_events)
        margins = _margins(decay_bound, v_events)
        decay_violations = int(np.sum(margins < -tolerance))
        decay_worst = float(margins.min()) if margins.size else 0.0

    gain_cache = {}
    disturbed_violations = 0
    disturbed_worst = math.inf
    pairs = 0
    for e, v_k, v_next in zip(log.events[:-1], v_events[:-1], v_events[1:]):
        tau = e.tau
        if d_inf > 0.0:
            if tau not in gain_cache:
                gain_cache[tau] = design.disturbance_gain_coeff(
                    cert.P, sys.A, tau, max_step=tau / 64.0)
            gamma_p = gain_cache[tau] * d_inf
        else:
            gamma_p = 0.0
        bound = v_k * math.exp(-gains.lam * tau) + gamma_p
        margin = (bound - v_next) / max(abs(bound), 1e-300)
        disturbed_worst = min(disturbed_worst, margin)
        if margin < -tolerance:
            disturbed_violations += 1
        pairs += 1
    if pairs == 0:
        disturbed_worst = 0.0

    return VerificationReport(
        tolerance=tolerance,
        eiss_violations=eiss_violations,
        eiss_worst_margin=eiss_worst,
        decay_violations=decay_violations,
        decay_worst_margin=decay_worst,
        disturbed_decay_violations=disturbed_violations,
        disturbed_decay_worst_margin=float(disturbed_worst),
        checked_instants=int(observed.size),
        checked_updates=pairs,
        bound_curve=bound_curve,
    )
