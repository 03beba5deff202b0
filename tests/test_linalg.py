"""Kernel checks against independent references.

The exponential is compared with a scaled Taylor series and the grid
exponential with both that series and the one-time exponential, and the
batched grid chunks with the one-block-per-chunk generator they replaced.
The symmetric eigensolver and spectral norm wrap numpy; their tests pin what
the wrappers add (ordering, symmetry and shape checks). The 2x2 determinant
is checked against numpy's LU and exact rational arithmetic. The
Lyapunov and square-root solvers are checked against their defining
equations.
"""

import math
import warnings
from fractions import Fraction

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


def one_block_chunks(M, step, indices):
    """The grid exponentials as ``linalg.expm_chunks`` would make them one
    block per chunk: ``expm_grid`` for the first ``per`` points, then one
    ``expm`` per later block times the first; ``per`` is ``ceil(sqrt(n))``
    for ``n`` points, at most the budget of ``_GRID_CHUNK_ENTRIES``."""
    A = np.asarray(M, dtype=float)
    budget = max(1, linalg._GRID_CHUNK_ENTRIES // A.size)
    per = min(budget, math.isqrt(len(indices) - 1) + 1)
    for lo in range(0, len(indices), per):
        part = indices[lo:lo + per]
        idx = np.arange(part.start, part.stop, part.step)
        if lo == 0:
            first = linalg.expm_grid(A, step * idx)
            yield idx, first
        else:
            yield idx, linalg.expm(A, step * (idx[0] - indices[0])) @ first[:len(idx)]


def symmetric_2x2_stack(rng, count):
    """Seeded symmetric 2x2 matrices at scales 1e-3..1e3; a third are made
    near-singular, with determinants 1e-4..1e-12 of their largest product."""
    a, b, d = 10.0 ** rng.uniform(-3, 3, (3, count)) * rng.choice([-1.0, 1.0], (3, count))
    near = rng.uniform(size=count) < 1.0 / 3.0
    gap = 10.0 ** rng.uniform(-12, -4, count) * rng.choice([-1.0, 1.0], count)
    d = np.where(near, b * b / a * (1.0 + gap), d)
    return np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2)


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

    # (budget, blocks per later chunk, indices, chunk widths): 35 points,
    # more than the budget squared, take blocks of the budget; 70 points
    # take blocks of ceil(sqrt(70)) = 9, two to a later chunk.
    CHUNK_CASES = [(3, 4, range(1, 70, 2), [3, 12, 12, 8]),
                   (12, 2, range(1, 140, 2), [9, 18, 18, 18, 7])]

    def test_chunks_cover_the_index_range_within_the_budget(self, monkeypatch):
        # Blocks are ceil(sqrt(n)) points wide for n points, at most the
        # budget. The first chunk is one block, expm_grid's. A later chunk
        # is as many blocks as its budget of blocks * budget points holds,
        # the last chunk cut short; each block is a fresh exponential over
        # its offset from the range's first index times the first chunk,
        # bit for bit, and every point stays within 1e-13 of its own
        # exponential.
        A = np.array([[0.0, 1.0], [-2.0, -0.5]])
        step = 0.05
        for budget, blocks, indices, widths in self.CHUNK_CASES:
            monkeypatch.setattr(linalg, "_GRID_CHUNK_ENTRIES", budget * A.size)
            monkeypatch.setattr(linalg, "_GRID_CHUNK_BLOCKS", blocks)
            chunks = list(linalg.expm_chunks(A, step, indices))
            assert [len(idx) for idx, _E in chunks] == widths
            assert ([j for idx, _E in chunks for j in idx.tolist()]
                    == list(indices))
            first = chunks[0][1]
            per = len(first)
            assert np.array_equal(first,
                                  linalg.expm_grid(A, step * chunks[0][0]))
            for idx, E in chunks[1:]:
                assert E.size <= blocks * budget * A.size
                for lo in range(0, len(idx), per):
                    block = E[lo:lo + per]
                    base = linalg.expm(A, step * (idx[lo] - 1))
                    assert np.array_equal(block, base @ first[:len(block)])
            for idx, E in chunks:
                exact = linalg.expm_grid(A, step * idx)
                assert np.abs(E - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("size", [2, 6, 12])
    def test_a_range_costs_about_twice_its_square_root_in_exponentials(
            self, monkeypatch, size):
        # Up to the budget squared, a range of n points costs at most
        # 2 ceil(sqrt(n)) - 1 fresh exponentials: one block and one per
        # later block. The first block and the first later chunk's offsets
        # share one expm_grid call, so a range takes one call fewer than it
        # has chunks, and at least one. Sizes 2 and 6 are the gain
        # quadrature's of the double integrator and an m=6 plant, 12 the
        # m=6 plant's Van Loan block.
        A = random_matrix(np.random.default_rng(60 + size), size, scale=0.5)
        budget = linalg._GRID_CHUNK_ENTRIES // A.size
        computed = []
        grid = linalg.expm_grid

        def counted(M, taus):
            E = grid(M, taus)
            computed.append(len(E))
            return E

        monkeypatch.setattr(linalg, "expm_grid", counted)
        for n in sorted({1, 2, 3, 10, 301, 1201, budget * budget - 1,
                         budget * budget}):
            if n > budget * budget:
                continue
            computed.clear()
            chunks = list(linalg.expm_chunks(A, 1e-3, range(n)))
            assert sum(len(idx) for idx, _E in chunks) == n
            assert sum(computed) <= 2 * (math.isqrt(n - 1) + 1) - 1, n
            assert len(computed) == max(1, len(chunks) - 1), n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
    def test_batched_chunks_equal_the_one_block_generator(self, n):
        # Concatenated, the chunks are the one-block generator's, which
        # makes every later chunk of one block with its own expm call, bit
        # for bit: over 40 budgets (for 12x12 more than the budget squared,
        # so blocks of the budget; blocks of ceil(sqrt(n)) below), nine
        # budgets in steps of two and half a budget.
        rng = np.random.default_rng(20 + n)
        A = random_matrix(rng, n, scale=0.5)
        budget = linalg._GRID_CHUNK_ENTRIES // A.size
        for indices in (range(0, 40 * budget + budget // 3),
                        range(1, 9 * budget, 2), range(5, 5 + budget // 2)):
            step = 0.7 / len(indices)
            got = list(linalg.expm_chunks(A, step, indices))
            want = list(one_block_chunks(A, step, indices))
            assert np.array_equal(np.concatenate([idx for idx, _E in got]),
                                  np.concatenate([idx for idx, _E in want]))
            assert np.array_equal(np.concatenate([E for _idx, E in got]),
                                  np.concatenate([E for _idx, E in want]))

    @pytest.mark.parametrize("n, p, q", [(1, 1, 1), (3, 2, 1), (5, 2, 3)])
    def test_factored_chunks_are_the_plain_chunks_between_the_factors(
            self, monkeypatch, n, p, q):
        # With factors, every chunk is left exp(M t) right on the same
        # indices, within 1e-13 of the plain chunk taken between them; two
        # blocks per later chunk make five chunks and more.
        rng = np.random.default_rng(40 + n)
        A = random_matrix(rng, n, scale=0.5)
        left, right = rng.normal(size=(p, n)), rng.normal(size=(n, q))
        monkeypatch.setattr(linalg, "_GRID_CHUNK_ENTRIES", 5 * A.size)
        monkeypatch.setattr(linalg, "_GRID_CHUNK_BLOCKS", 2)
        indices = range(2, 200, 3)
        plain = list(linalg.expm_chunks(A, 0.01, indices))
        factored = list(linalg.expm_chunks(A, 0.01, indices, left, right))
        assert len(factored) == len(plain) >= 5
        for (idx, E), (fidx, F) in zip(plain, factored):
            assert np.array_equal(idx, fidx) and F.shape == (len(idx), p, q)
            want = left @ E @ right
            assert np.abs(F - want).max() <= 1e-13 * np.abs(want).max()

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

    @pytest.mark.parametrize("A", [[[1e308, 1.0], [-1.0, -2.0]],
                                   [[0.0, 1e308], [-1.0, -2.0]]])
    def test_out_of_range_dynamics_are_numeric_errors(self, A):
        # The Kronecker sum overflows, or the residual check meets inf - inf;
        # either is a failed solve, not a numpy warning.
        with pytest.raises(NumericError):
            linalg.lyap_solve(np.array(A), np.eye(2))

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


def rotations(angles):
    """Stack of 2x2 rotations by ``angles``."""
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


class TestSpectralNorms:
    """``spectral_norms`` against numpy's SVD norm, within 1e-14 relative."""

    @staticmethod
    def assert_matches_svd(E):
        E = np.asarray(E, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.spectral_norms(E)
        want = np.linalg.norm(E, 2, axis=(-2, -1))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_random_stacks_of_each_size(self):
        rng = np.random.default_rng(41)
        for m in (1, 2, 3, 6):
            scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(500, 1, 1))
            self.assert_matches_svd(scales * rng.normal(size=(500, m, m)))
        self.assert_matches_svd(rng.normal(size=(4, 5, 2, 2)))

    def test_2x2_singular_values_1e_12_apart(self):
        # U diag(1, 1 - 1e-12) V': the largest root of the characteristic
        # quadratic, sqrt((s + sqrt(s^2 - 4 det^2)) / 2), cancels here; the
        # hypot form does not.
        rng = np.random.default_rng(42)
        U, V = rotations(rng.uniform(0.0, 2.0 * math.pi, size=(2, 2000)))
        self.assert_matches_svd(U @ np.diag([1.0, 1.0 - 1e-12]) @ V)
        self.assert_matches_svd(U)

    def test_identity_near_singular_and_zero_matrices(self):
        self.assert_matches_svd([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-13]],
                                 [[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2)),
                                 [[0.0, 0.0], [0.0, 3.0]],
                                 [[1e-300, 0.0], [0.0, 0.0]]])
        for m in (1, 3, 6):
            self.assert_matches_svd([np.eye(m), np.ones((m, m)),
                                     np.zeros((m, m))])
        assert linalg.spectral_norms(np.zeros((3, 2, 2))).tolist() == [0.0] * 3

    def test_entries_near_the_float_range(self):
        # E'E of these would overflow or underflow unscaled.
        rng = np.random.default_rng(43)
        for m in (2, 3):
            for scale in (1e200, 1e-200):
                self.assert_matches_svd(scale * rng.normal(size=(50, m, m)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = linalg.spectral_norms([[[1.5e308, 1.5e308], [0.0, 0.0]]])
        assert top.tolist() == [math.inf]

    def test_non_finite_matrices_give_nan(self):
        got = linalg.spectral_norms([[[math.inf, 0.0], [0.0, 1.0]],
                                     [[math.nan, 0.0], [0.0, 1.0]],
                                     [[3.0, 0.0], [0.0, 4.0]]])
        assert np.isnan(got[:2]).all() and got[2] == 4.0

    def test_rejects_a_vector(self):
        with pytest.raises(DimensionError):
            linalg.spectral_norms(np.ones(3))


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

    def test_2x2_determinants_have_the_exact_sign(self):
        # LU's determinant is within a few roundings of the exact one of the
        # stored entries, whose scale is |a d| + |b c|: a quotient, a product
        # and a difference, and numpy's det adds exp(log|det|) on top. So
        # its sign is exact wherever the exact determinant is above 8 ulps
        # of that scale, and a stack gives each matrix its own value.
        rng = np.random.default_rng(31)
        for count in (1, 455, 2000):
            M = symmetric_2x2_stack(rng, count)
            got = linalg.det(M)
            a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
            tol = 8.0 * np.finfo(float).eps * (np.abs(a * d) + np.abs(b * c))
            assert got.shape == (count,)
            exact = np.array([float(Fraction(p) * Fraction(s)
                                    - Fraction(q) * Fraction(r))
                              for p, q, r, s in M.reshape(-1, 4).tolist()])
            clear = np.abs(exact) > tol
            assert clear.sum() >= count // 2
            assert np.array_equal(np.sign(got[clear]), np.sign(exact[clear]))
            for single, value in zip(M[:5], got[:5]):
                assert linalg.det(single) == value

    def test_2x2_products_past_the_float_range_keep_their_sign(self):
        # a d and b c overflow; LU still finds the zero and the sign.
        huge = 1e200
        assert linalg.det([[huge, huge], [huge, huge]]) == 0.0
        with np.errstate(over="ignore"):
            assert linalg.det([[huge, 1.0], [1.0, -huge]]) == -math.inf
            stack = linalg.det([[[huge, 1.0], [1.0, huge]], [[1.0, 2.0], [3.0, 4.0]]])
        assert stack.tolist() == [math.inf, np.linalg.det([[1.0, 2.0], [3.0, 4.0]])]

    def test_determinant_of_singular_matrix(self):
        assert linalg.det(np.array([[1.0, 2.0], [2.0, 4.0]])) == \
            pytest.approx(0.0, abs=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.det(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            linalg.det(np.ones((4, 2, 3)))
        with pytest.raises(NumericError):
            linalg.det(np.full((4, 2, 2), math.nan))
