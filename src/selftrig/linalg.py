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
``expm_chunks``     ``expm_grid`` over an index range, in bounded chunks
``sym_eig``         ``numpy.linalg.eigh`` behind a symmetry check
``lyap_solve``      continuous Lyapunov equation via Kronecker vectorization
``sqrtm_spd``       principal square root through the eigendecomposition
``induced_norm2``   spectral norm (``numpy.linalg.norm(M, 2)``)
``det``             ``numpy.linalg.det`` of a checked square matrix
==================  =========================================================

All tolerances are module constants so callers can tighten or relax them in
one place.
"""

import math

import numpy as np

from .errors import DimensionError, NumericError

# Pade order 6 is exact to machine precision once the argument is scaled
# below this bound.
_PADE_SCALE_LIMIT = 0.5
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
# Entries of one stacked temporary in a chunk of ``expm_chunks``: a chunk
# holds as many grid points as fit, and at least one.
_GRID_CHUNK_ENTRIES = 4096

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
    better than 1e-10 relative error for norms up to around 100, which
    covers every use in this package.
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
    # Square the whole stack as often as its least-scaled matrix needs,
    # then only the matrices that were scaled further.
    lowest, highest = (int(s.min()), int(s.max())) if s.size else (0, 0)
    for _ in range(lowest):
        R = R @ R
    for k in range(lowest, highest):
        active = s > k
        part = R[active]
        R[active] = part @ part
    return R


def expm_chunks(M, step, indices):
    """Grid exponentials ``exp(M * j * step)`` for ``j`` in a ``range``.

    Yields ``(idx, E)`` per chunk, with ``idx`` the chunk's grid indices and
    ``E[i] = exp(M * idx[i] * step)``. A chunk's times are built from its
    own index range, so no whole grid is ever materialized, and each
    stacked temporary holds at most ``_GRID_CHUNK_ENTRIES`` entries.
    """
    A = as_square(M, "expm argument")
    per = max(1, _GRID_CHUNK_ENTRIES // max(1, A.size))
    for lo in range(0, len(indices), per):
        part = indices[lo:lo + per]
        idx = np.arange(part.start, part.stop, part.step)
        yield idx, expm_grid(A, step * idx)


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    S : array_like
        Square matrix, symmetric to within ``_SYMMETRY_RTOL`` relative to its
        largest entry. It is symmetrized as ``(S + S') / 2`` before the
        decomposition.

    Returns
    -------
    (values, vectors)
        ``values`` ascending, ``vectors`` orthogonal with eigenvectors in
        columns, so that ``S ~= vectors @ diag(values) @ vectors.T``.
    """
    A = as_square(S, "sym_eig argument")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > _SYMMETRY_RTOL * scale:
        raise NumericError("sym_eig argument is not symmetric")
    values, vectors = np.linalg.eigh(0.5 * (A + A.T))
    return values, vectors


def lyap_solve(A, Q):
    """Solve the continuous Lyapunov equation ``A' P + P A = -Q``.

    Vectorizes the equation with Kronecker products and solves the dense
    linear system by LU factorization. ``Q`` must be symmetric positive
    definite; the returned ``P`` is symmetrized and checked both for the
    residual (relative to ``norm(Q)``) and for positive definiteness, so a
    successful return certifies that ``A`` is Hurwitz.
    """
    A = as_square(A, "Lyapunov A")
    Q = as_square(Q, "Lyapunov Q")
    m = A.shape[0]
    if Q.shape[0] != m:
        raise DimensionError(f"Q has shape {Q.shape}, expected {(m, m)}")
    scale = max(1.0, float(np.abs(Q).max()))
    if float(np.abs(Q - Q.T).max()) > _SYMMETRY_RTOL * scale:
        raise NumericError("Q is not symmetric")

    ident = np.eye(m)
    # Row-major vectorization: vec(A' X) = kron(A', I) vec(X),
    # vec(X A) = kron(I, A') vec(X).
    L = np.kron(A.T, ident) + np.kron(ident, A.T)
    try:
        p = np.linalg.solve(L, -Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Lyapunov system is singular: {exc}") from exc
    P = p.reshape(m, m)
    P = 0.5 * (P + P.T)

    residual = A.T @ P + P @ A + Q
    q_norm = float(np.sqrt((Q * Q).sum()))
    if float(np.sqrt((residual * residual).sum())) > _LYAP_RESIDUAL_RTOL * max(q_norm, 1e-30):
        raise NumericError("Lyapunov residual out of tolerance")
    values, _ = sym_eig(P)
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


def det(M):
    """Determinant of a finite square matrix."""
    return float(np.linalg.det(as_square(M, "det argument")))
