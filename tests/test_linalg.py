"""Kernel checks against independent references.

The exponential is compared with a scaled Taylor series and the grid
exponential with both that series and the one-time exponential. The
symmetric eigensolver, spectral norm and determinant wrap numpy; their tests
pin what the wrappers add (ordering, symmetry and shape checks). The
Lyapunov and square-root solvers are checked against their defining
equations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from selftrig import linalg
from selftrig.errors import DimensionError, NumericError


def taylor_expm(M, t=1.0, terms=30):
    """Reference exponential: scale until the series converges fast, sum,
    square back. Shares no code with the implementation under test."""
    A = np.asarray(M, dtype=float) * t
    norm = float(np.abs(A).sum(axis=1).max()) if A.size else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    A = A / (2.0 ** squarings)
    term = np.eye(A.shape[0])
    total = term.copy()
    for k in range(1, terms + 1):
        term = term @ A / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def random_matrix(rng, n, scale=2.0):
    return scale * rng.normal(size=(n, n))


class TestExpm:
    def test_matches_taylor_series(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = random_matrix(rng, n)
            t = float(rng.uniform(0.1, 2.0))
            ours = linalg.expm(A, t)
            ref = taylor_expm(A, t)
            assert np.abs(ours - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_closed_form(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        t = 0.37
        assert np.abs(linalg.expm(A, t) - np.array([[1.0, t], [0.0, 1.0]])).max() \
            <= 1e-15

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        A = random_matrix(rng, 4, scale=1.0)
        left = linalg.expm(A, 0.7) @ linalg.expm(A, 0.9)
        right = linalg.expm(A, 1.6)
        assert np.abs(left - right).max() <= 1e-8 * np.abs(right).max()

    def test_scalar_input(self):
        assert linalg.expm(-1.0, 2.0)[0, 0] == pytest.approx(math.exp(-2.0),
                                                             rel=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.expm(np.ones((2, 3)))

    def test_rejects_non_finite_time(self):
        with pytest.raises(NumericError):
            linalg.expm(np.eye(2), math.inf)


class TestExpmGrid:
    # Zero, a time far below the scaling threshold, moderate times and one
    # that needs many squarings, deliberately out of order so elements with
    # different scaling exponents sit side by side.
    TIMES = [2.5, 0.0, 1e-9, 0.3, 40.0, 1e-300, 1.0]

    def test_matches_single_exponentials_and_taylor_series(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 5):
            A = random_matrix(rng, n, scale=0.5)
            stack = linalg.expm_grid(A, self.TIMES)
            assert stack.shape == (len(self.TIMES), n, n)
            for E, t in zip(stack, self.TIMES):
                single = linalg.expm(A, t)
                assert np.abs(E - single).max() <= 1e-14 * max(1.0, np.abs(single).max())
                ref = taylor_expm(A, t)
                assert np.abs(E - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_zero_time_is_identity(self):
        stack = linalg.expm_grid(np.array([[0.0, 1.0], [-4.0, -0.1]]), [0.0, 0.0])
        assert np.array_equal(stack, np.stack([np.eye(2), np.eye(2)]))

    def test_one_by_one(self):
        stack = linalg.expm_grid(-1.5, [0.0, 0.5, 8.0])
        assert stack.shape == (3, 1, 1)
        for E, t in zip(stack, (0.0, 0.5, 8.0)):
            assert E[0, 0] == pytest.approx(math.exp(-1.5 * t), rel=1e-13)

    def test_empty_grid(self):
        assert linalg.expm_grid(np.eye(3), []).shape == (0, 3, 3)
        assert list(linalg.expm_chunks(np.eye(3), 0.1, range(5, 5))) == []

    def test_rejects_non_finite_time(self):
        with pytest.raises(NumericError):
            linalg.expm_grid(np.eye(2), [0.1, math.nan])

    def test_chunks_cover_the_index_range_within_the_budget(self, monkeypatch):
        A = np.array([[0.0, 1.0], [-2.0, -0.5]])
        monkeypatch.setattr(linalg, "_GRID_CHUNK_ENTRIES", 3 * A.size)
        chunks = list(linalg.expm_chunks(A, 0.05, range(1, 12, 2)))
        assert [idx.tolist() for idx, _E in chunks] == [[1, 3, 5], [7, 9, 11]]
        for idx, E in chunks:
            assert np.array_equal(E, linalg.expm_grid(A, 0.05 * idx))

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 5).flatmap(lambda n: arrays(
            np.float64, (n, n),
            elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))),
        ts=st.lists(st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8),
    )
    def test_each_element_matches_the_single_exponential(self, M, ts):
        stack = linalg.expm_grid(M, ts)
        for E, t in zip(stack, ts):
            single = linalg.expm(M, t)
            assert np.abs(E - single).max() <= 1e-14 * max(1.0, np.abs(single).max())


class TestSymEig:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4, 6):
            A = random_matrix(rng, n)
            S = 0.5 * (A + A.T)
            vals, vecs = linalg.sym_eig(S)
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12
            recon = vecs @ np.diag(vals) @ vecs.T
            assert np.abs(recon - S).max() <= 1e-11 * max(1.0, np.abs(S).max())
            assert np.all(np.diff(vals) >= 0.0)

    def test_matches_reference_eigenvalues(self):
        rng = np.random.default_rng(4)
        A = random_matrix(rng, 5)
        S = 0.5 * (A + A.T)
        vals, _ = linalg.sym_eig(S)
        ref = np.linalg.eigvalsh(S)
        assert np.abs(vals - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_diagonal_input(self):
        vals, vecs = linalg.sym_eig(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [-1.0, 2.0, 3.0], atol=0)
        assert np.abs(np.abs(vecs) - np.eye(3)[:, [1, 2, 0]]).max() <= 1e-15

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericError):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLyapunov:
    def test_scalar_solution(self):
        P = linalg.lyap_solve(np.array([[-1.0]]), np.eye(1))
        assert P[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_double_integrator_solution(self):
        a_cl = np.array([[0.0, 1.0], [-1.0, -2.0]])
        P = linalg.lyap_solve(a_cl, np.eye(2))
        assert np.abs(P - np.array([[1.5, 0.5], [0.5, 0.5]])).max() <= 1e-12

    def test_residual_on_random_stable_loops(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            A = random_matrix(rng, n)
            shift = float(np.max(np.real(np.linalg.eigvals(A)))) + 0.5
            a_cl = A - shift * np.eye(n)
            Q = np.eye(n)
            P = linalg.lyap_solve(a_cl, Q)
            residual = a_cl.T @ P + P @ a_cl + Q
            assert np.abs(residual).max() <= 1e-9 * np.abs(Q).max()
            assert np.abs(P - P.T).max() == 0.0

    def test_rejects_unstable_dynamics(self):
        with pytest.raises(NumericError):
            linalg.lyap_solve(np.array([[1.0]]), np.eye(1))

    def test_rejects_asymmetric_right_hand_side(self):
        with pytest.raises(NumericError):
            linalg.lyap_solve(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSqrtm:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        M = random_matrix(rng, 4)
        P = M @ M.T + 0.1 * np.eye(4)
        S = linalg.sqrtm_spd(P)
        assert np.abs(S @ S - P).max() <= 1e-10 * np.abs(P).max()
        assert np.abs(S - S.T).max() <= 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NumericError):
            linalg.sqrtm_spd(np.diag([1.0, -1.0]))


class TestNormAndDet:
    def test_spectral_norm_matches_reference(self):
        rng = np.random.default_rng(7)
        for shape in ((3, 3), (2, 5), (5, 2), (1, 1)):
            M = rng.normal(size=shape)
            assert linalg.induced_norm2(M) == pytest.approx(
                np.linalg.norm(M, 2), rel=1e-10)

    def test_determinant_matches_reference(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 5):
            M = random_matrix(rng, n)
            assert linalg.det(M) == pytest.approx(np.linalg.det(M), rel=1e-10)

    def test_determinant_of_singular_matrix(self):
        assert linalg.det(np.array([[1.0, 2.0], [2.0, 4.0]])) == \
            pytest.approx(0.0, abs=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.det(np.ones((2, 3)))
