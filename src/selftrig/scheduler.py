"""Runtime side of the trigger: precomputed tables and the dwell-time scan.

The online controller only ever evaluates quadratic forms. For each grid
index ``n`` the table stores ``Q_n = L_n' P L_n - exp(-2 lam n delta) P``
where ``L_n`` is the held-input transition over ``n delta``, taken
from the design's held-flow primitive (``design.held_flow_chunks``);
``x' Q_n x <= 0`` certifies the enforced decay at that grid point. The next
execution is scheduled ``max(tau_min, n_k delta)`` ahead, with ``n_k`` the
longest prefix of grid points that all pass the test.

Two evaluators are provided. ``next_update`` works on the full matrices.
``next_update_packed`` evaluates the same forms as dot products against
packed monomial vectors (upper-triangular coefficients with doubled
off-diagonals against ``z = (x_i x_j)_{i<=j}``), which is how a constrained
platform would run it; it carries an exact operation counter (multiplies,
adds and comparisons) and only reads the forms above ``n_min``, since the
prefix up to ``n_min`` cannot change the schedule for any design with
``tau_min`` below the minimum inter-execution time. The forms are the only
stored table and the ``TriggerConfig`` the only copy of the grid; the
packed vectors are derived from the forms when the tables are built.

The forms are homogeneous of degree two, so a decision does not depend on
the scale of the state. Both evaluators bring the state's largest entry
into ``[0.5, 1)`` by a power of two before they evaluate, which is exact
and keeps the products clear of overflow and underflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import design
from .errors import DimensionError, NumericError


class TriggerTables:
    """Decay-test forms on the trigger grid.

    The grid is the ``TriggerConfig``'s: ``delta``, ``tau_min``, ``n_min``
    and ``n_max`` are read from it and stored nowhere else.
    ``forms[n]`` is ``Q_n`` for ``n = 0..n_max``, an ``(n_max+1, m, m)``
    array and the one stored table. :func:`build_tables` computes it, also
    when a design file is loaded; the file's own forms are only compared
    with it. ``packed`` is
    derived from ``forms[n_min:]``: row ``n - n_min`` holds the
    upper-triangular coefficients of ``Q_n`` in row-major order, with the
    off-diagonals doubled, and ``triu`` is the index pair of that order.
    """

    def __init__(self, trig, forms):
        self.delta, self.tau_min = trig.delta, trig.tau_min
        self.n_min, self.n_max = trig.n_min, trig.n_max
        self.forms = forms                # (n_max+1, m, m), Q_0 = 0
        self.triu = np.triu_indices(self.m)
        rows, cols = self.triu
        weights = np.where(rows == cols, 1.0, 2.0)
        self.packed = forms[self.n_min:, rows, cols] * weights

    @property
    def m(self):
        return self.forms.shape[1]


def build_tables(sys, cert, trig):
    """Precompute the trigger tables for a designed configuration.

    The held flows come in chunks from ``design.held_flow_chunks``: each
    is a first-chunk flow, or one product of a fresh block exponential's
    rows with a first-chunk flow; no recurrence is involved, so the table
    entries carry no accumulated error. The forms come from
    ``design.decay_form`` on each chunk's flows.
    """
    forms = np.empty((trig.n_max + 1, sys.m, sys.m))
    rate = 2.0 * cert.lam
    for idx, L in design.held_flow_chunks(sys, trig.delta,
                                          range(trig.n_max + 1)):
        forms[idx] = design.decay_form(L, cert.P, rate, idx * trig.delta)
    return TriggerTables(trig, forms)


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

    ``op_count`` is the modeled cost of the evaluation path that produced
    the decision: for the direct path ``m^2 + m`` multiply-adds per form
    read, for the packed path ``m(m+1)/2`` multiplies for the monomials plus
    ``m^2 + m + 1`` per form read (a multiply and an add per coefficient and
    one comparison). The packed path costs one more per form; what it
    saves is the forms up to ``n_min``, which it does not read.
    """

    n: int
    tau: float
    evaluations: int
    op_count: int


def _decide(tables, first, values, op_count, per_evaluation):
    """The decision from the form values at ``n = first, first + 1, ...``:
    ``n_k`` is one below the first positive value, else ``n_max``, and each
    value read costs ``per_evaluation`` on top of ``op_count``."""
    n_k = tables.n_max
    evaluations = 0
    for n, value in enumerate(values, first):
        evaluations += 1
        if value > 0.0:
            n_k = n - 1
            break
    return TriggerDecision(
        n=n_k,
        tau=max(tables.tau_min, n_k * tables.delta),
        evaluations=evaluations,
        op_count=op_count + evaluations * per_evaluation,
    )


def next_update(x, tables):
    """Schedule the next execution by scanning the full-matrix forms.

    Scans ``n = 1..n_max`` and stops at the first failed test; the schedule
    is ``max(tau_min, n_k delta)``. The prefix below ``n_min`` is scanned
    too, so every logged decision is fully audited.
    """
    x = _unit_state(x, tables.m)
    m = tables.m
    return _decide(tables, 1,
                   (float(x @ form @ x) for form in tables.forms[1:]),
                   0, m * m + m)


def next_update_packed(x, tables):
    """Schedule the next execution from the packed coefficient vectors.

    Builds the monomial vector once (``m(m+1)/2`` multiplies) and evaluates
    the packed forms for ``n_min+1 .. n_max`` as length-``m(m+1)/2`` dot
    products (one multiply and one add per coefficient) plus one comparison
    each, which the counter tallies exactly; a full scan therefore costs
    ``q + (2q+1) m(m+1)/2`` operations with ``q = n_max - n_min``. The zero
    state passes every test, so it is scanned in full and costs exactly
    that worst case. Decisions are identical to :func:`next_update`
    whenever the design guarantees the prefix below ``n_min``.
    """
    x = _unit_state(x, tables.m)
    L = tables.m * (tables.m + 1) // 2
    rows, cols = tables.triu
    z = x[rows] * x[cols]
    return _decide(tables, tables.n_min + 1,
                   (float(row @ z) for row in tables.packed[1:]),
                   L, 2 * L + 1)
