"""Dense linear-algebra kernel for small control design problems.

Everything in this module operates on plain ``numpy.ndarray`` objects and is
written for the matrix sizes that show up in sampled-data controller design:
state dimensions in the single digits, augmented systems at most a few dozen
rows. The exponential is written out here because the design evaluates it
over whole time grids; the factorizations are numpy's, behind the input and
symmetry checks this package relies on:

==================  =========================================================
``expm``            scaling and squaring with a diagonal Pade approximant
``expm_grid``       the same kernel over a stack of times, one scaling each
``expm_chunks``     every uniform time grid of the package: an index range
                    of ``n`` points in blocks about ``sqrt(n)`` wide, each
                    later block one offset exponential times the first,
                    yielded in chunks under one memory budget; with
                    factors, ``left exp(M t) right``
``grid_blocks``     the block width and blocks per chunk of ``expm_chunks``,
                    which the dwell-time scan's cells follow too
``sym_eig``         ``numpy.linalg.eigh`` behind a symmetry check
``lyap_solve``      continuous Lyapunov equation via Kronecker vectorization,
                    solved for ``Q`` scaled by an exact power of two
``sqrtm_spd``       principal square root through the eigendecomposition
``induced_norm2``   spectral norm (``numpy.linalg.norm(M, 2)``)
``spectral_norms``  spectral norm of each matrix in a stack, from the largest
                    eigenvalue of the scaled ``E'E``: closed form for two
                    columns, ``numpy.linalg.eigvalsh`` otherwise
``det``             ``numpy.linalg.det`` of a checked square matrix or stack
==================  =========================================================

All tolerances are module constants so callers can tighten or relax them in
one place. Nothing in the package calls ``induced_norm2`` any more; it stays
because the benchmark's tracer wraps it by name, and it goes together with
``det`` in the next change to the benchmark.
"""

import math

import numpy as np

from .errors import DimensionError, NumericError

# Pade order 6 is exact to machine precision once the argument is scaled
# below this bound.
_PADE_SCALE_LIMIT = 0.5
# The accuracy _expm_stack states: relative error, normwise, at most
# EXPM_RTOL for arguments of 1-norm up to EXPM_NORM.
EXPM_RTOL = 1e-10
EXPM_NORM = 100.0
# Coefficients of the diagonal (6,6) Pade approximant to exp(x).
_PADE6 = (
    1.0,
    1.0 / 2.0,
    5.0 / 44.0,
    1.0 / 66.0,
    1.0 / 792.0,
    1.0 / 15840.0,
    1.0 / 665280.0,
)
# Entry budget of one block of ``expm_chunks``: a block of an ``n``-point
# range holds ``ceil(sqrt(n))`` grid points, but no more than fit in this
# budget, and at least one.
_GRID_CHUNK_ENTRIES = 4096
# A later chunk of ``expm_chunks`` holds as many blocks as fit in this many
# block budgets.
_GRID_CHUNK_BLOCKS = 8

_SYMMETRY_RTOL = 1e-12
_LYAP_RESIDUAL_RTOL = 1e-9


def as_square(M, name="matrix"):
    """Validate and return ``M`` as a finite square 2-D float array.

    Scalars become 1x1 matrices. Raises ``DimensionError`` for non-square
    input and ``NumericError`` for non-finite entries.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{name} has non-finite entries")
    return A


def expm(M, t=1.0):
    """Matrix exponential ``exp(M * t)``.

    The one-time case of :func:`expm_grid`, run on the 2-D matrix itself.
    """
    A = as_square(M, "expm argument")
    if not math.isfinite(t):
        raise NumericError("expm time argument is not finite")
    return _expm_stack(A * t)


def expm_grid(M, taus):
    """Stack of matrix exponentials, ``exp(M * t)`` for every ``t`` in ``taus``."""
    A = as_square(M, "expm argument")
    t = np.asarray(taus, dtype=float).reshape(-1)
    if not np.all(np.isfinite(t)):
        raise NumericError("expm time argument is not finite")
    return _expm_stack(t[:, None, None] * A)


def _expm_stack(X):
    """Exponential of every square matrix in the last two axes of ``X``.

    Each matrix is scaled by its own power of two until its 1-norm is at
    most ``_PADE_SCALE_LIMIT``, goes through the diagonal Pade(6,6)
    approximant, and is squared back as often as it was halved. Accurate to
    better than ``EXPM_RTOL`` (1e-10) relative error for norms up to
    ``EXPM_NORM`` (100), which covers every use in this package.
    """
    ident = np.eye(X.shape[-1])
    norm1 = np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.asarray(np.ceil(np.log2(np.maximum(norm1, _PADE_SCALE_LIMIT)
                                   / _PADE_SCALE_LIMIT)), dtype=int)
    X = np.ldexp(X, -s[..., None, None])

    b = _PADE6
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    U = X @ (b[1] * ident + b[3] * X2 + b[5] * X4)
    V = b[0] * ident + b[2] * X2 + b[4] * X4 + b[6] * X6
    try:
        R = np.linalg.solve(V - U, V + U)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Pade denominator is singular: {exc}") from exc
    # Square each matrix back as often as it was halved.
    for k in range(int(s.max(initial=0))):
        active = s > k
        part = R[active]
        R[active] = part @ part
    return R


def grid_blocks(M, count):
    """Block layout of :func:`expm_chunks` over a ``count``-point range.

    Returns ``(per, batch)``: blocks of ``per = ceil(sqrt(count))`` points,
    or of as many as ``_GRID_CHUNK_ENTRIES`` entries of ``M``'s size hold if
    that is fewer (at least one), and ``batch`` blocks, as many as
    ``_GRID_CHUNK_BLOCKS`` block budgets hold, to a later chunk.
    """
    budget = max(1, _GRID_CHUNK_ENTRIES // max(1, np.size(M)))
    per = min(budget, math.isqrt(count - 1) + 1)
    return per, _GRID_CHUNK_BLOCKS * budget // per


def expm_chunks(M, step, indices, left=None, right=None):
    """Grid exponentials ``exp(M * j * step)`` for ``j`` in a ``range``.

    Yields ``(idx, E)`` per chunk, with ``idx`` the chunk's grid indices and
    ``E[i] = exp(M * idx[i] * step)``. An ``n``-point range is cut into
    blocks as :func:`grid_blocks` lays them out. The first chunk is the
    first block, from :func:`expm_grid`. Every later chunk is a run of
    ``batch`` blocks (only the last run, and its last block, may be
    shorter). A block starting at ``idx[k]`` is one fresh offset ``exp(M
    (idx[k] - j0) step)`` times the first block, ``j0`` being the range's
    first index, since ``exp(M (a + b)) = exp(M a) exp(M b)``: one stacked
    :func:`expm_grid` gives a chunk's offsets, and one broadcast product,
    cut to the chunk's length, its points. As every exponential of a stack
    is computed alone, the first later chunk's offsets share their call
    with the first block. Every point is thus one product of two fresh
    exponentials, and its error does not grow along the grid. While ``n``
    is at most the square of the budget's points, a range costs at most
    ``2 ceil(sqrt(n)) - 1`` fresh exponentials; a longer one about ``n /
    budget``. No whole grid is ever materialized: the first chunk holds at
    most ``_GRID_CHUNK_ENTRIES`` entries and a later one at most
    ``_GRID_CHUNK_BLOCKS`` times that.

    Given both factors, ``left`` (p x k) and ``right`` (k x q), it yields
    ``E[i] = left exp(M t_i) right`` instead, on the same chunks and blocks:
    the first block keeps ``exp(M b) right``, and a later block's points
    are its rows ``left exp(M a)`` times each kept matrix.
    """
    A = as_square(M, "expm argument")
    if not len(indices):
        return
    per, blocks = grid_blocks(A, len(indices))
    part = indices[:per]
    idx = np.arange(part.start, part.stop, part.step)
    # The first block and the first later chunk's block offsets, in one
    # call: a short range then takes one call, not two.
    part = indices[per:per + blocks * per]
    offsets = np.arange(part.start, part.stop, part.step)[::per] - indices[0]
    first = expm_grid(A, step * np.concatenate((idx, offsets)))
    first, bases = first[:len(idx)], first[len(idx):]
    if right is not None:
        first = first @ right
    yield idx, first if left is None else left @ first
    lo = len(idx)
    while lo < len(indices):
        part = indices[lo:lo + blocks * per]
        idx = np.arange(part.start, part.stop, part.step)
        if lo > per:
            bases = expm_grid(A, step * (idx[::per] - indices[0]))
        E = (bases if left is None else left @ bases)[:, None] @ first
        yield idx, E.reshape((-1,) + E.shape[-2:])[:len(idx)]
        lo += len(idx)


def _check_symmetric(A, name):
    """Raise ``NumericError`` unless ``A`` is symmetric to within
    ``_SYMMETRY_RTOL`` relative to its largest entry (at least 1)."""
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > _SYMMETRY_RTOL * scale:
        raise NumericError(f"{name} is not symmetric")


def sym_eig(S, name="sym_eig argument"):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    S : array_like
        Square matrix, symmetric to within ``_SYMMETRY_RTOL`` relative to its
        largest entry. It is symmetrized as ``(S + S') / 2`` before the
        decomposition.
    name : str
        What an error calls ``S``.

    Returns
    -------
    (values, vectors)
        ``values`` ascending, ``vectors`` orthogonal with eigenvectors in
        columns, so that ``S ~= vectors @ diag(values) @ vectors.T``.
    """
    A = as_square(S, name)
    _check_symmetric(A, name)
    # Halves first: their sum cannot overflow, and for entries above the
    # subnormal range it is (A + A') / 2 to the bit.
    values, vectors = np.linalg.eigh(0.5 * A + 0.5 * A.T)
    return values, vectors


def lyap_solve(A, Q):
    """Solve the continuous Lyapunov equation ``A' P + P A = -Q``.

    Vectorizes the equation with Kronecker products and solves the dense
    linear system by LU factorization. ``Q`` must be symmetric positive
    definite; the returned ``P`` is symmetrized and checked both for the
    residual (relative to ``norm(Q)``) and for positive definiteness, so a
    successful return certifies that ``A`` is Hurwitz. The solve and its
    checks run on ``Q`` scaled by the exact power of two that brings its
    largest |entry| into ``[0.5, 1)``, and ``P`` is scaled back by the same
    power: its bits are those of the unscaled solve, and the scale of ``Q``
    alone makes no step overflow. An overflow on the way, a ``P`` past the
    float range among them, fails the solve.
    """
    A = as_square(A, "Lyapunov A")
    Q = as_square(Q, "Lyapunov Q")
    m = A.shape[0]
    if Q.shape[0] != m:
        raise DimensionError(f"Q has shape {Q.shape}, expected {(m, m)}")
    _check_symmetric(Q, "Q")

    shift = int(np.frexp(np.abs(Q).max())[1])
    Q = np.ldexp(Q, -shift)
    ident = np.eye(m)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # Row-major vectorization: vec(A' X) = kron(A', I) vec(X),
            # vec(X A) = kron(I, A') vec(X).
            L = np.kron(A.T, ident) + np.kron(ident, A.T)
            p = np.linalg.solve(L, -Q.reshape(-1))
            S = p.reshape(m, m)
            S = 0.5 * (S + S.T)
            residual = A.T @ S + S @ A + Q
            q_norm = float(np.sqrt((Q * Q).sum()))
            r_norm = float(np.sqrt((residual * residual).sum()))
            P = np.ldexp(S, shift)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise NumericError(f"Lyapunov solve failed: {exc}") from exc
    if not r_norm <= _LYAP_RESIDUAL_RTOL * max(q_norm, 1e-30):
        raise NumericError("Lyapunov residual out of tolerance")
    values, _ = sym_eig(S)
    if values[0] <= 0.0:
        raise NumericError("Lyapunov solution is not positive definite")
    return P


def sqrtm_spd(P):
    """Principal square root of a symmetric positive definite matrix."""
    values, vectors = sym_eig(P)
    if values[0] <= 0.0:
        raise NumericError("matrix is not positive definite")
    S = (vectors * np.sqrt(values)) @ vectors.T
    return 0.5 * (S + S.T)


def induced_norm2(M):
    """Induced 2-norm (largest singular value) of a rectangular matrix."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim {A.ndim}")
    if not np.all(np.isfinite(A)):
        raise NumericError("matrix has non-finite entries")
    if A.shape[0] == 0 or A.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def spectral_norms(E):
    """Spectral norm (largest singular value) of each matrix in a stack.

    Each matrix ``E`` becomes ``X``, ``E`` scaled by the power of two just
    above its largest |entry|: an exact scaling after which ``X'X`` cannot
    overflow and its leading terms cannot underflow. The norm is that power
    times the square root of the largest eigenvalue of ``X'X``. With two
    columns, ``X'X = [[a, b], [b, c]]`` has the closed form
    ``(a + c)/2 + hypot((a - c)/2, b)``, which, unlike the root of the
    characteristic quadratic, does not cancel when the two singular values
    are close; other sizes take ``eigvalsh``. A matrix with a non-finite
    entry gets ``nan``, and a norm past the float range ``inf``.
    """
    E = np.asarray(E, dtype=float)
    if E.ndim < 2:
        raise DimensionError(f"expected a stack of matrices, got ndim {E.ndim}")
    scale = np.abs(E).max(axis=(-2, -1), initial=0.0)
    finite = np.isfinite(scale)
    exponent = np.frexp(scale)[1]
    X = np.ldexp(np.where(finite[..., None, None], E, 0.0),
                 -exponent[..., None, None])
    if X.shape[-1] == 2:
        col0, col1 = X[..., 0], X[..., 1]
        a = (col0 * col0).sum(axis=-1)
        b = (col0 * col1).sum(axis=-1)
        c = (col1 * col1).sum(axis=-1)
        top_eig = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    else:
        top_eig = np.linalg.eigvalsh(X.swapaxes(-1, -2) @ X)[..., -1]
    # A norm past the float range is an infinity, not a warning.
    with np.errstate(over="ignore"):
        norms = np.ldexp(np.sqrt(top_eig), exponent)
    return np.where(finite, norms, np.nan)


def det(M):
    """Determinant of a finite square matrix, or of each in a stack of them,
    by ``numpy.linalg.det``'s LU. A single matrix gives a float, a stack an
    array."""
    A = np.asarray(M, dtype=float)
    if A.ndim <= 2:
        A = as_square(A, "det argument")
    elif A.shape[-1] != A.shape[-2]:
        raise DimensionError(
            f"det argument must be square, got shape {A.shape}")
    elif not np.all(np.isfinite(A)):
        raise NumericError("det argument has non-finite entries")
    # A determinant past the float range is an infinity, not a warning.
    with np.errstate(over="ignore"):
        d = np.linalg.det(A)
    return float(d) if A.ndim == 2 else d
