"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from framedual import VectorFamily
from framedual.frames import parseval_tighten, random_frame
from framedual.numerics import DEFAULT_TOL, Tolerance, hermitian_eig
from framedual.rduality import commuting_parseval_family, weak_r_dual


def unit(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.complex128)
    v[i] = 1.0
    return v


def fam(rows, label="fam") -> VectorFamily:
    return VectorFamily(np.array(rows, dtype=np.complex128), label=label)


def trio(n: int = 2) -> VectorFamily:
    """The repeated-first-direction frame {e1, e1, e2} in C^n."""
    rows = [unit(n, 0), unit(n, 0), unit(n, 1)]
    return VectorFamily(np.array(rows), label="trio")


def trio_parseval(n: int = 2) -> VectorFamily:
    r2 = np.sqrt(2.0)
    rows = [unit(n, 0) / r2, unit(n, 0) / r2, unit(n, 1)]
    return VectorFamily(np.array(rows), label="trio-parseval")


def weak_dual_instance(rng: np.random.Generator, dim: int, count: int):
    """Random instance built to satisfy the weak R-dual conditions: ``v``
    from the conjugate tightening (commutes with every u), random ``u``
    Parseval for its span (for the ambient space when ``count >= dim``, an
    orthonormal sequence when ``count < dim``), ``w`` synthesized.  Returns
    (w, f, u, v, cert)."""
    f = random_frame(rng, count, dim, label="f")
    u = parseval_tighten(random_frame(rng, count, dim)).relabel("u")
    v = commuting_parseval_family(f).family
    w, cert = weak_r_dual(f, u, v)
    return w, f, u, v, cert


def perturb_member(
    rng: np.random.Generator, fam_in: VectorFamily, noise: float = 1e-3
) -> VectorFamily:
    """Add an in-span noise vector of the given norm to one member."""
    vecs = np.array(fam_in.vectors)
    d = rng.standard_normal(fam_in.ambient_dim) + 1j * rng.standard_normal(
        fam_in.ambient_dim
    )
    d = d / np.linalg.norm(d) * noise
    idx = int(rng.integers(0, fam_in.count))
    vecs[idx] = vecs[idx] + d
    return VectorFamily(vecs, label=f"{fam_in.label}-perturbed")


class ZeroMatrixError(Exception):
    """All eigenvalues of the oracle's input fall below the rank threshold."""


def psd_inverse_sqrt(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian PSD matrix, the dense
    oracle for Parseval tightenings and tight windows.

    Eigenvalues below ``rel_eps * lambda_max`` (including roundoff
    negatives, which are clamped) are zeroed, so ``B @ A @ B`` equals the
    projection onto the numerically positive eigenspace.
    """
    dec = hermitian_eig(a, tol)
    vals = dec.eigenvalues
    lam_max = float(vals[-1]) if vals.size else 0.0
    if lam_max <= tol.abs_floor:
        raise ZeroMatrixError("all eigenvalues below the rank threshold")
    cut = tol.threshold(lam_max)
    inv_sqrt = np.where(vals > cut, 1.0 / np.sqrt(np.maximum(vals, cut)), 0.0)
    v = dec.eigenvectors
    return (v * inv_sqrt) @ v.conj().T


def dense_extension_head(side) -> np.ndarray:
    """The leading rows of the isometric extension's ``v`` on a dual side,
    built densely from complete QRs: ``coef[:lead] q^t + conj(K) C^t``,
    with ``K`` the trailing ``deficit`` columns of the complete ``Q`` of
    ``conj(coef[:lead])`` and ``C`` those of the complete ``Q`` of ``q``.
    The oracle for the factored ``v``, which holds both ``Q`` in compact
    WY form."""
    coef, q, deficit = side.coef, side.q, side.deficit
    lead = coef.shape[0] - side.kernel + deficit
    head = coef[:lead] @ q.T
    if deficit:
        q_lead = np.linalg.qr(np.conj(coef[:lead]), mode="complete")[0]
        comp = np.linalg.qr(q, mode="complete")[0][:, q.shape[1] :]
        head += np.conj(q_lead[:, lead - deficit :]) @ comp.T
    return head
