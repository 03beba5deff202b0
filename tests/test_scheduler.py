"""Trigger-table and online-decision checks.

The scalar fixture admits closed-form table entries (held flow ``1 - n
delta``), which pins ``build_tables``, and the forms are checked against an
independent construction of the held flow from the hold-error block; the
packed evaluator is then held to exact agreement with the full-matrix scan
at every state scale, and its operation counter to the closed-form worst
case ``q + (2q + 1) m (m + 1) / 2``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from selftrig import design, linalg, scheduler
from selftrig.errors import ConfigError, NumericError


def hold_error_form(fx, tau):
    """Decay-test form from the 2m x 2m hold-error block.

    With ``z = [xi; e]``, ``e`` the gap between the held sample and the
    state, ``dz/dt = F z`` for ``F = [[A+BK, BK], [-A-BK, -BK]]`` and the
    held flow is the top-left block of ``exp(F tau)``.
    """
    sys_, m = fx.sys, fx.sys.m
    bk = sys_.B @ sys_.K
    F = np.block([[sys_.a_cl, bk], [-sys_.a_cl, -bk]])
    L = linalg.expm(F, tau)[:m, :m]
    M = L.T @ fx.cert.P @ L - math.exp(-2.0 * fx.cert.lam * tau) * fx.cert.P
    return 0.5 * (M + M.T)


class TestTables:
    def test_zero_index_entries_are_exact(self, scalar):
        t = scalar.tables
        assert np.array_equal(design.held_transition(scalar.sys, 0.0),
                              np.eye(1))
        assert np.array_equal(t.forms[0], np.zeros((1, 1)))

    def test_scalar_closed_form_entries(self, scalar):
        t = scalar.tables
        for n in (1, 5, 14, 30):
            s = n * t.delta
            L = design.held_transition(scalar.sys, s)
            assert L[0, 0] == pytest.approx(1.0 - s, rel=1e-12, abs=1e-12)
            expected = 0.5 * (1.0 - s) ** 2 - 0.5 * math.exp(-s)
            assert t.forms[n][0, 0] == pytest.approx(expected, rel=1e-10,
                                                     abs=1e-12)

    def test_first_form_frozen_value(self, scalar):
        assert scalar.tables.forms[1][0, 0] == pytest.approx(
            -0.04741870901797973, abs=1e-14)

    def test_forms_match_design_route(self, scalar, double_integrator):
        # build_tables integrates the Van Loan block [[A, B], [0, 0]];
        # the reference comes from the hold-error block. Same object, two
        # constructions.
        for fx in (scalar, double_integrator):
            t = fx.tables
            for n in (1, t.n_min, t.n_max):
                ref = hold_error_form(fx, n * t.delta)
                assert np.abs(t.forms[n] - ref).max() <= 1e-9 * max(
                    1.0, np.abs(ref).max())

    def test_forms_are_symmetric(self, double_integrator):
        for Q in double_integrator.tables.forms:
            assert np.array_equal(Q, Q.T)

    def test_json_round_trip_is_exact(self, double_integrator):
        t = double_integrator.tables
        back = scheduler.TriggerTables.from_jsonable(
            json.loads(json.dumps(t.to_jsonable())))
        assert np.array_equal(back.forms, t.forms)
        assert np.array_equal(back.packed, t.packed)
        assert (back.delta, back.tau_min, back.n_min, back.n_max) == \
            (t.delta, t.tau_min, t.n_min, t.n_max)

    def test_malformed_tables_are_rejected(self, scalar):
        good = scalar.tables.to_jsonable()

        def edited(**changes):
            return {**json.loads(json.dumps(good)), **changes}

        forms = good["forms"]
        cases = [
            {"delta": 0.1},
            edited(forms=forms[:10]),                        # truncated
            edited(forms=forms + [forms[-1]]),               # one too many
            edited(forms=[[row * 2 for row in Q] for Q in forms]),  # 1 by 2
            edited(forms=[Q[0] for Q in forms]),             # one row each
            edited(forms=forms[:5] + [[[math.nan]]] + forms[6:]),
            edited(n_min=0),
            edited(n_min=good["n_max"] + 1),
        ]
        for data in cases:
            with pytest.raises(ConfigError):
                scheduler.TriggerTables.from_jsonable(data)


class TestDecisions:
    def test_scalar_frozen_decision(self, scalar):
        d = scheduler.next_update(np.array([2.0]), scalar.tables)
        assert (d.n, d.evaluations, d.op_count) == (14, 15, 30)
        assert d.tau == pytest.approx(1.4, rel=1e-12)

    def test_scalar_decision_is_state_independent(self, scalar):
        # One-dimensional forms scale with x^2, so the schedule is constant.
        for x in (0.001, -3.0, 50.0):
            d = scheduler.next_update(np.array([x]), scalar.tables)
            assert d.n == 14

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), exponent=st.integers(-664, 664))
    def test_packed_agrees_with_direct(self, scalar, double_integrator,
                                       corpus, data, exponent):
        # The forms are homogeneous, so a decision must not depend on the
        # state's scale: from 2^-664 (about 1e-200) to 2^664 both evaluators
        # agree with each other and, bit for bit, with the decision for the
        # unscaled direction. Magnitudes are powers of two and direction
        # entries are zero or at least 1e-50, so the scaled state is exact.
        fixtures = [scalar, double_integrator] + list(corpus[:5])
        fx = fixtures[data.draw(st.integers(0, len(fixtures) - 1))]
        entry = st.floats(-1.0, 1.0).filter(lambda v: v == 0.0
                                            or abs(v) >= 1e-50)
        d = data.draw(arrays(np.float64, fx.sys.m, elements=entry))
        x = np.ldexp(d, exponent)
        direct = scheduler.next_update(x, fx.tables)
        packed = scheduler.next_update_packed(x, fx.tables)
        assert (direct.n, direct.tau) == (packed.n, packed.tau)
        assert direct == scheduler.next_update(d, fx.tables)
        assert packed == scheduler.next_update_packed(d, fx.tables)

    def test_zero_state_shortcut(self, scalar):
        d = scheduler.next_update_packed(np.zeros(1), scalar.tables)
        assert (d.n, d.evaluations, d.op_count) == (scalar.tables.n_max, 0, 0)
        assert d.tau == scalar.tables.n_max * scalar.tables.delta

    def test_packed_worst_case_operation_count(self, scalar):
        # The zero state never fails a test, so disabling the shortcut
        # forces the full scan: q comparisons plus (2q + 1) L multiply-adds.
        t = scalar.tables
        q = t.n_max - t.n_min
        d = scheduler.next_update_packed(np.zeros(1), t, zero_shortcut=False)
        assert d.evaluations == q
        assert d.op_count == q + (2 * q + 1) * 1

    def test_direct_cost_model(self, double_integrator):
        d = scheduler.next_update(np.array([1.0, 1.0]),
                                  double_integrator.tables)
        assert d.op_count == d.evaluations * (2 * 2 + 2)

    def test_non_finite_state_is_rejected(self, scalar):
        with pytest.raises(NumericError):
            scheduler.next_update(np.array([math.nan]), scalar.tables)

    def test_packed_requires_packed_tables(self, double_integrator, corpus):
        # Every table derives the packed vectors of Q_n for n_min..n_max
        # from its forms, including tables loaded from a plain-data view,
        # which stores only the forms.
        t = double_integrator.tables
        assert t.packed.shape == (t.n_max - t.n_min + 1, 3)
        for n in (t.n_min, t.n_max):
            Q = t.forms[n]
            assert np.array_equal(t.packed[n - t.n_min],
                                  [Q[0, 0], 2.0 * Q[0, 1], Q[1, 1]])
        t = next(fx.tables for fx in corpus if fx.sys.m == 3)
        for tables in (t, scheduler.TriggerTables.from_jsonable(
                json.loads(json.dumps(t.to_jsonable())))):
            for n in range(t.n_min, t.n_max + 1):
                Q = t.forms[n]
                ref = [Q[i, j] * (1.0 if i == j else 2.0)
                       for i in range(3) for j in range(i, 3)]
                assert np.array_equal(tables.packed[n - t.n_min], ref)

    def test_schedule_respects_window(self, corpus):
        rng = np.random.default_rng(12)
        for fx in corpus:
            for _ in range(20):
                x = rng.normal(size=fx.sys.m)
                d = scheduler.next_update(x, fx.tables)
                assert fx.trig.tau_min <= d.tau \
                    <= fx.trig.n_max * fx.trig.delta + 1e-15
                assert 0 <= d.n <= fx.trig.n_max
