"""Runtime side of the trigger: precomputed tables and the dwell-time scan.

The online controller only ever evaluates quadratic forms. For each grid
index ``n`` the table stores ``Q_n = L_n' P L_n - exp(-2 lam n delta) P``
where ``L_n`` is the exact held-input transition over ``n delta``, taken
from the design's held-flow primitive (``design.held_flow_chunks``);
``x' Q_n x <= 0`` certifies the enforced decay at that grid point. The next
execution is scheduled ``max(tau_min, n_k delta)`` ahead, with ``n_k`` the
longest prefix of grid points that all pass the test.

Two evaluators are provided. ``next_update`` works on the full matrices.
``next_update_packed`` evaluates the same forms as dot products against
packed monomial vectors (upper-triangular coefficients with doubled
off-diagonals against ``z = (x_i x_j)_{i<=j}``), which is how a constrained
platform would run it; it carries an exact multiply-add counter and only
reads the forms above ``n_min``, since the prefix up to ``n_min`` cannot
change the schedule for any design with ``tau_min`` below the minimum
inter-execution time. The forms are the only stored table; the packed
vectors are derived from them when the tables are built or loaded.

The forms are homogeneous of degree two, so a decision does not depend on
the scale of the state. Both evaluators bring the state's largest entry
into ``[0.5, 1)`` by a power of two before they evaluate, which is exact
and keeps the products clear of overflow and underflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import design
from .errors import ConfigError, DimensionError, NumericError


class TriggerTables:
    """Decay-test forms on the grid.

    ``forms[n]`` is ``Q_n`` for ``n = 0..n_max``, the one stored table.
    ``packed`` is derived from ``forms[n_min:]``: row ``n - n_min`` holds the
    upper-triangular coefficients of ``Q_n`` in row-major order, with the
    off-diagonals doubled, and ``triu`` is the index pair of that order.
    Raises ``ConfigError`` unless ``forms`` is a finite ``(n_max+1, m, m)``
    array and ``1 <= n_min <= n_max``.
    """

    def __init__(self, delta, tau_min, n_min, n_max, forms):
        self.delta = float(delta)
        self.tau_min = float(tau_min)
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError(f"trigger tables need 1 <= n_min <= n_max, got "
                              f"{self.n_min}, {self.n_max}")
        forms = np.asarray(forms, dtype=float)
        if not (forms.ndim == 3 and forms.shape[0] == self.n_max + 1
                and forms.shape[1] == forms.shape[2] >= 1):
            raise ConfigError(f"trigger tables need forms of shape "
                              f"({self.n_max + 1}, m, m), got {forms.shape}")
        if not np.all(np.isfinite(forms)):
            raise ConfigError("trigger tables have non-finite forms")
        self.forms = forms                # (n_max+1, m, m), Q_0 = 0
        self.triu = np.triu_indices(self.m)
        rows, cols = self.triu
        weights = np.where(rows == cols, 1.0, 2.0)
        self.packed = forms[self.n_min:, rows, cols] * weights

    @property
    def m(self):
        return self.forms.shape[1]

    def to_jsonable(self):
        """Plain-data view for embedding in a design report."""
        return {
            "delta": self.delta,
            "tau_min": self.tau_min,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "forms": [Q.tolist() for Q in self.forms],
        }

    @classmethod
    def from_jsonable(cls, data):
        """Rebuild tables from the plain-data view of a design report.

        Keys other than the table fields, such as the ``transitions`` and
        ``packed`` tables of older reports, are ignored.
        """
        try:
            return cls(data["delta"], data["tau_min"], data["n_min"],
                       data["n_max"], data["forms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed trigger tables: {exc}") from exc


def build_tables(sys, cert, trig):
    """Precompute the trigger tables for a designed configuration.

    Every form comes from its own fresh held flow, in chunks from
    ``design.held_flow_chunks``; no recurrence is involved, so the table
    entries carry no accumulated error.
    """
    forms = np.empty((trig.n_max + 1, sys.m, sys.m))
    rate = 2.0 * cert.lam
    for idx, L in design.held_flow_chunks(sys, trig.delta,
                                          range(trig.n_max + 1)):
        forms[idx] = design.decay_form(L, cert.P, rate, idx * trig.delta)
    return TriggerTables(trig.delta, trig.tau_min, trig.n_min, trig.n_max,
                         forms)


def _unit_state(x, m):
    """The state as a length-``m`` vector scaled so ``max|x_i|`` is in [0.5, 1).

    The scale is a power of two, so the scaled state is exact. Raises
    ``DimensionError`` for a wrong length and ``NumericError`` for
    non-finite entries.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != m:
        raise DimensionError(f"state has length {x.shape[0]}, expected {m}")
    peak = float(np.abs(x).max())
    if not math.isfinite(peak):
        raise NumericError("state has non-finite entries")
    return np.ldexp(x, -math.frexp(peak)[1])


@dataclass
class TriggerDecision:
    """Outcome of one online scheduling decision.

    ``op_count`` is the modeled multiply-add cost of the evaluation path
    that produced the decision (comparisons included for the packed path).
    """

    n: int
    tau: float
    evaluations: int
    op_count: int


def next_update(x, tables):
    """Schedule the next execution by scanning the full-matrix forms.

    Scans ``n = 1..n_max`` and stops at the first failed test; the schedule
    is ``max(tau_min, n_k delta)``. The prefix below ``n_min`` is scanned
    too, so every logged decision is fully audited.
    """
    x = _unit_state(x, tables.m)
    m = tables.m
    work = m * m + m
    n_k = tables.n_max
    evaluations = 0
    for n in range(1, tables.n_max + 1):
        evaluations += 1
        if float(x @ tables.forms[n] @ x) > 0.0:
            n_k = n - 1
            break
    return TriggerDecision(
        n=n_k,
        tau=max(tables.tau_min, n_k * tables.delta),
        evaluations=evaluations,
        op_count=evaluations * work,
    )


def next_update_packed(x, tables, zero_shortcut=True):
    """Schedule the next execution from the packed coefficient vectors.

    Builds the monomial vector once (``m(m+1)/2`` multiplies) and evaluates
    the packed forms for ``n_min+1 .. n_max`` as length-``m(m+1)/2`` dot
    products (one multiply and one add per coefficient) plus one comparison
    each, which the counter tallies exactly; a full scan therefore costs
    ``q + (2q+1) m(m+1)/2`` operations with ``q = n_max - n_min``. Decisions
    are identical to :func:`next_update` whenever the design guarantees the
    prefix below ``n_min``.
    """
    x = _unit_state(x, tables.m)
    if zero_shortcut and not np.any(x):
        return TriggerDecision(n=tables.n_max, tau=max(tables.tau_min, tables.n_max * tables.delta),
                               evaluations=0, op_count=0)
    L = tables.m * (tables.m + 1) // 2
    rows, cols = tables.triu
    z = x[rows] * x[cols]
    op_count = L
    n_k = tables.n_max
    evaluations = 0
    for n in range(tables.n_min + 1, tables.n_max + 1):
        evaluations += 1
        op_count += 2 * L + 1
        if float(tables.packed[n - tables.n_min] @ z) > 0.0:
            n_k = n - 1
            break
    return TriggerDecision(
        n=n_k,
        tau=max(tables.tau_min, n_k * tables.delta),
        evaluations=evaluations,
        op_count=op_count,
    )
