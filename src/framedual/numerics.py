"""Dense complex linear-algebra kernel with a shared tolerance policy.

All rank and equality decisions are made relative to the largest
singular value (or matrix scale) with an absolute floor, never by exact
comparison: a residual is accepted when ``residual <=
tol.threshold(scale)``, with ``scale`` what it is homogeneous in and no
unit clamp (only the Parseval residual, which is not homogeneous, keeps
``max(1, ||S||_F)``).  ``singular_rank`` is the one rank rule, applied
to singular values the caller already holds, so a family's rank comes
from its one factorization.  ``thin_svd`` builds no ``m x m`` factor of
a tall ``m x n`` input, and ``_compact_wy`` holds the complete ``Q`` of a
tall QR in compact WY form without forming it.  Every routine is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotHermitianError,
    NumericalFailureError,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "EigenDecomposition",
    "as_complex_matrix",
    "frobenius",
    "hermitian_eig",
    "singular_rank",
    "thin_svd",
]


@dataclass(frozen=True)
class Tolerance:
    """Relative threshold with an absolute floor.

    ``threshold(scale)`` is the cut used for rank decisions and residual
    acceptance at the given scale; an array of scales gets an array of
    cuts.
    """

    rel_eps: float = 1e-9
    abs_floor: float = 1e-12

    def __post_init__(self) -> None:
        # an infinite cut accepts every residual and zeroes every rank, so
        # it is rejected with the nonpositive and NaN values
        if not (0 < self.rel_eps < np.inf and 0 < self.abs_floor < np.inf):
            raise ValueError("rel_eps and abs_floor must be positive and finite")

    def threshold(self, scale=1.0):
        cut = np.maximum(self.rel_eps * np.asarray(scale, dtype=float), self.abs_floor)
        return float(cut) if cut.ndim == 0 else cut


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Hermitian eigendecomposition with ascending real eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def as_complex_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and coerce to a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a: np.ndarray):
    """Frobenius norm; a stack of matrices over leading axes gets an array
    of norms, each the same sum of squares as the norm of the matrix alone
    (one dot product of the real parts plus one of the imaginary parts),
    so a norm does not depend on the stack it was computed in."""
    a = np.asarray(a)
    if a.ndim <= 2:
        return float(np.linalg.norm(a))
    flat = a.reshape(*a.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def hermitian_eig(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises ``NotHermitianError`` if the symmetry residual exceeds
    ``rel_eps`` times the matrix scale.
    """
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"matrix is not square: {a.shape}")
    scale = frobenius(a)
    if frobenius(a - a.conj().T) > tol.threshold(scale):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    sym = (a + a.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(str(exc)) from exc
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def singular_rank(s: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Number of descending singular values above ``tol.threshold(s[0])``;
    zero when ``s[0]`` is below the absolute floor.  A stack of spectra
    along the last axis gets an integer array, one rank per spectrum."""
    s = np.asarray(s)
    top = s[..., :1]
    above = (s > tol.threshold(top)) & (top >= tol.abs_floor)
    rank = np.count_nonzero(above, axis=-1)
    return int(rank) if s.ndim == 1 else rank


def _svd(a: np.ndarray, **kwargs):
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(str(exc)) from exc


def _compact_wy(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The compact WY form ``Q = I - V T V^*`` (Schreiber and Van Loan,
    1989) of the complete ``Q`` of the Householder QR of an ``m x c``
    matrix ``a``, which it never forms: ``V`` (``m x k``, ``k = min(m,
    c)``) is unit lower trapezoidal, holding the reflectors ``H_i = I -
    tau_i v_i v_i^*`` that ``numpy.linalg.qr`` returns in raw mode, and
    ``T`` is the ``k x k`` upper triangular factor of ``Q = H_1 ... H_k``,
    built column by column as LAPACK's ``zlarft`` does: ``T[:i, i] =
    -tau_i T[:i, :i] V[:, :i]^* v_i``.  Costs O(m k^2)."""
    h, tau = np.linalg.qr(a, mode="raw")
    k = len(tau)
    v = np.tril(h.T[:, :k], -1)
    v[np.arange(k), np.arange(k)] = 1.0
    gram = v.conj().T @ v
    t = np.zeros((k, k), dtype=np.complex128)
    for i in range(k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    return v, t


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, s, Vh)`` with ``min(m, n)`` singular triples, ``s`` descending."""
    return tuple(_svd(as_complex_matrix(a), full_matrices=False))

