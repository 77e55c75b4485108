"""Weak R-dual construction, verification, and certificates.

A family ``w`` is a weak R-dual of ``f`` with respect to Parseval
families ``u`` and ``v`` when

    w_j = sum_i <f_i, u_j> v_i      (synthesis identity)

and the Gram commutation condition ``(G(v,v)^t - I) G(f,u) = 0`` holds.
An equivalent pair of conditions is verified alongside: the dual-side
commutation ``(G(w~,w)^t - I) G(u,f) = 0`` (``w~`` the canonical dual of
``w``) together with ``P v_i = y_i``, where ``P`` projects onto span{w}
and

    y_i = sum_k <u_k, f_i> w~_k     (characterizing sequence)

is the projection of any admissible ``v`` onto span{w}.  All checks are
Frobenius-norm residuals against a shared tolerance; the certificate
records every residual so that verdicts are reproducible.

No count x count matrix is formed.  With M the count of ``f`` and ``v``
and K that of ``w`` and ``u``, ``v`` is read only through its products
``V x`` and ``V^t y`` and its Parseval residual ``||S_v - I||_F``, the
reader ``_frame_residual`` that the Parseval gate of ``u`` and the
conjugate witness ask too.  A ``v`` the caller supplies, which may be
any family, answers them from its rows, at O(M n p) for ``p`` columns
and O(M n^2) for the residual (one real symmetric product for the frame
operator, ``frames.frame_operator``).  A ``v`` the library constructs
for a span deficit of ``w`` is born factored as identity plus low rank
(``_ExtensionFamily``, defined here beside its one builder,
``_isometric_extension_v``, the only code that knows its layout): an
identity pattern plus ``C basis^t``, with ``basis`` of size n x O(rank)
and ``C`` held as its at most n leading rows and the M x rank
coefficients of the rest in the span basis ``q``.  The two Householder
QRs of its construction are held in compact WY form, so building and
certifying it costs O(M rank p + n rank^2) and writes no M x n or n x n
array.  With no deficit the constructed ``v`` is the characterizing
sequence itself, a plain family.  The certificate reads the Parseval
residual of ``u`` off the singular values it already holds for ``u``,
and the ONB flags are the one rule ``frames._is_onb`` on the two
Parseval residuals, so the certificate factors neither family for them.
Products on ``u`` and ``w`` cost O(K n^2), and every other product is
re-associated through the thin SVDs the families carry, at
O(M n rank) with the rank of ``u`` or ``w``: each ``X H^*`` as ``X
conj(U_h) diag(s_h)`` (the factor ``conj(Vh_h)`` has orthonormal rows,
so norms and Grams are unchanged), and ``V^t G(f,u)`` as ``(V^t B)
conj(Vh_u)`` with ``B = F conj(U_u) diag(s_u)``.  ``B`` is the one
product with the rows of ``f`` per dual side: ``dual_side`` takes it
through ``VectorFamily._times`` (a Gabor system takes it from its coset
blocks, or gathers it when ``U_u`` is a coordinate selection, and never
builds its rows), derives the characterizing sequence from it and keeps
it on the record, from which every certificate on that record reads
it.

The dual side of a triple ``(w, f, u)`` is public: ``dual_side``
evaluates it once into the frozen record ``DualSide``, which holds the
characterizing sequence, the dual commutation residual, the span deficit
of ``w`` and the kernel dimension of ``Y``.  Certificates, constructions,
the fixtures and the Gabor pipelines read that record, and so does a
caller that wants several of its fields.  The dual side is evaluated in
the coordinates of an orthonormal basis ``q`` of span{w}
(``_span_coordinates``), where every operand has the rank of ``w`` along
one axis.  The characterizing sequence is kept as the M x rank
coefficients ``coef`` of its member rows ``Y^t = coef q^t``: its rows are
built when the sequence is read, the constructed ``v`` shares ``coef``
past its leading rows as its own coefficients, and the certificate reads
its projection residual as the row norms of ``V conj(q) - coef``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    BadCutoffError,
    DeficitOrderError,
    DimensionCaseError,
    GateFailedError,
    HypothesisFailedError,
    NotInvertibleError,
    NotParsevalComplementError,
    NotParsevalError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
)
from .frames import (
    VectorFamily,
    _is_onb,
    _members,
    _parseval_residual,
    _read_only,
    _spectral_identity_residual,
    _span_rank,
    _span_svd,
    analyze,
    canonical_dual,
    frame_operator,
    parseval_tighten,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _compact_wy,
    _svd,
    frobenius,
    hermitian_eig,
    singular_rank,
)

__all__ = [
    "PARSEVAL_GATE",
    "ConjugateLinearMap",
    "DualSide",
    "WeakRDualCertificate",
    "CommutingParsevalResult",
    "InterleavedDualResult",
    "TransferResult",
    "WitnessVerification",
    "cross_gram",
    "dual_side",
    "weak_r_dual",
    "certify_weak_r_dual",
    "characterize",
    "commuting_parseval_family",
    "build_orthonormal_v",
    "build_parseval_v",
    "interleave_prime",
    "interleave_double_prime",
    "interleave_star",
    "interleave_double_star",
    "interleaved_weak_r_dual",
    "transfer_via_coisometry",
    "dual_commuting_parseval",
    "verify_conjugate_witness",
    "find_conjugate_witness",
    "gram_invariance_residual",
    "characterizing_sequence_bounds",
    "synthesized_gram_invariance_residual",
    "completeness_implies_invariance",
]

# Coarse admission gate for "this input is meant to be Parseval": rejects
# grossly non-Parseval inputs while still admitting the small perturbations
# used to produce unambiguous negative verdicts.
PARSEVAL_GATE = 5e-2

# Relative slack of the frame-bound sandwich of the characterizing sequence.
_SANDWICH_SLACK = 1e-8


def _require_same_dim(*fams: VectorFamily) -> int:
    dims = {f.ambient_dim for f in fams}
    if len(dims) != 1:
        raise ShapeMismatchError(f"ambient dimensions differ: {sorted(dims)}")
    return dims.pop()


def _require_same_count(*fams: VectorFamily) -> int:
    counts = {f.count for f in fams}
    if len(counts) != 1:
        raise ShapeMismatchError(f"member counts differ: {sorted(counts)}")
    return counts.pop()


def cross_gram(g: VectorFamily, h: VectorFamily) -> np.ndarray:
    """Cross-Gram matrix with entries ``<g_i, h_j>`` (square contract)."""
    _require_same_count(g, h)
    _require_same_dim(g, h)
    return g.vectors @ h.vectors.conj().T


@dataclass(frozen=True, eq=False)
class DualSide:
    """The dual side of one triple ``(w, f, u)`` under ``tol``, as
    ``dual_side`` evaluates it, with the triple and the tolerance: the
    orthonormal basis ``q`` of span{w} (the span projector is ``P = q
    q^*``), the M x rank coefficients ``coef`` of the characterizing
    sequence's member rows ``Y^t = coef q^t`` (``sequence``), the rank x
    min(n, M) matrix ``c`` with ``Y = q c conj(Vh_f)``, which has the
    singular values of ``Y``, the one product ``b = F conj(U_u) diag(s_u)``
    of the rows of ``f`` with the thin SVD of ``u`` (M x min(n, K)), from
    which ``coef`` is derived and which a certificate reads, the span
    deficit of ``w`` and the kernel dimension of ``Y``, ``||G(u,f)||_F``
    (the scale of the commutation residuals), and the residuals of the
    dual commutation and of ``Y Y^* = P`` with their accept decisions.
    The record is frozen and its arrays are read-only, so a record cannot
    be paired with another triple."""

    w: VectorFamily
    f: VectorFamily
    u: VectorFamily
    tol: Tolerance
    coef: np.ndarray
    q: np.ndarray
    c: np.ndarray
    b: np.ndarray
    deficit: int
    kernel: int
    gram_norm: float
    dual_res: float
    dual_ok: bool
    parseval_res: float
    parseval_ok: bool

    @property
    def sequence(self) -> VectorFamily:
        """The characterizing sequence ``y_i = sum_k <u_k, f_i> w~_k`` as a
        family, its member rows ``Y^t = coef q^t`` built on each read."""
        rows = self.coef @ self.q.T
        return VectorFamily._factored(rows, label=f"charseq({self.w.label})")


def _span_coordinates(
    q: np.ndarray,
    inv_vh: np.ndarray,
    w_rows: np.ndarray,
    a: np.ndarray,
    span_eye: np.ndarray,
    tol: Tolerance,
) -> tuple:
    """The arithmetic of the dual side in the coordinates of the
    orthonormal basis ``q`` of span{w}, on operands that may carry
    leading stack axes (broadcast against each other).  The synthesis of
    the canonical dual of ``w`` is ``W~^t = q C`` with ``C = inv_vh =
    diag(1/s_r) Vh_r``, and ``w_rows`` are the members.  ``a`` is ``A =
    U conj(U_f) diag(s_f)`` for the members ``U`` of ``u`` and the thin
    SVD ``(U_f, s_f, Vh_f)`` of ``f``, which ``f`` gives as
    ``f._adjoint_factor(U)``: it is ``G(u,f) = U F^*`` without its
    trailing factor ``conj(Vh_f)``.  With ``c = C A`` the sequence is ``Y
    = W~^t G(u,f) = q c conj(Vh_f)``; ``q`` has orthonormal columns and
    ``conj(Vh_f)`` orthonormal rows, so ``c`` has the singular values of
    ``Y``.

    Returns ``c``; ``||A||_F = ||G(u,f)||_F``; ``||(conj(W) q C - I)
    A||_F = ||(G(w~,w)^t - I) G(u,f)||_F`` and its accept decision, the
    dual commutation, at the scale ``||G(u,f)||_F``; ``||c c^* -
    span_eye||_F = ||Y Y^* - P||_F`` and the accept decision of the
    last.  ``span_eye`` is the identity of the span coordinates, ``I_r``;
    a stack padded to a common width with zero columns of ``q`` and zero
    rows of ``C`` passes the diagonal mask of each rank instead."""
    c = inv_vh @ a
    gram_norm = frobenius(a)
    dual_res = frobenius((np.conj(w_rows) @ q) @ c - a)
    dual_ok = dual_res <= tol.threshold(gram_norm)
    pars_res = frobenius(c @ c.conj().swapaxes(-1, -2) - span_eye)
    pars_ok = pars_res <= tol.threshold(frobenius(span_eye))
    return c, gram_norm, dual_res, dual_ok, pars_res, pars_ok


def dual_side(
    w: VectorFamily, f: VectorFamily, u: VectorFamily, tol: Tolerance = DEFAULT_TOL
) -> DualSide:
    """Evaluate the dual side of ``(w, f, u)`` once, into a ``DualSide``.

    ``w`` and ``u`` have the same count K and are paired member by member;
    ``f`` may have another count M (the Gabor pipeline pairs the K = ab
    adjoint members with the M system members, and handles the padding of
    the adjoint in ``gabor``).  The arithmetic is done in span coordinates
    (``_span_coordinates``, with ``A`` taken by ``f._adjoint_factor``, so
    a Gabor ``f`` builds no ``U``); the rank of ``Y``, which gives the
    kernel dimension, is read off the rank x min(n, M) matrix ``c``
    (``_sequence_rank``), with no SVD when ``c`` is near an isometry.

    The rows of ``f`` enter one product, ``B = F conj(U_u) diag(s_u)``
    with the thin SVD ``(U_u, s_u, Vh_u)`` of ``u``, taken by ``f._times``
    (a Gabor ``f`` gathers its columns when ``U_u`` is a coordinate
    selection) and kept on the record for the certificate.  The rows
    ``Y^t = conj(F U^* conj(W~))`` of ``Y`` are not formed: with ``W~^t =
    q C`` and ``U^t = U_u diag(s_u) Vh_u`` they are ``conj(B conj(Vh_u
    C^t)) q^t``, and the record keeps ``coef = conj(B conj(Vh_u C^t))``,
    the M x rank product of ``B`` with a min(n, K) x rank factor,
    conjugated in place.  Neither the canonical dual's rows nor an n x n
    product is formed."""
    _require_same_dim(w, f, u)
    _require_same_count(w, u)
    q, s_r, vh_r = _span_svd(w, tol)
    inv_vh = vh_r / s_r[:, None]
    c, gram_norm, dual_res, dual_ok, pars_res, pars_ok = _span_coordinates(
        q, inv_vh, w.vectors, f._adjoint_factor(u.vectors), np.eye(q.shape[1]),
        tol,
    )
    u_u, s_u, vh_u = u.svd
    b = f._times(np.conj(u_u))
    b *= s_u  # (M, min(n, K))
    coef = b @ np.conj(vh_u @ inv_vh.T)
    np.conjugate(coef, out=coef)
    rank_y = _sequence_rank(c, pars_res, tol)
    deficit, kernel = w.ambient_dim - q.shape[1], f.count - rank_y
    return DualSide(
        w, f, u, tol, *_read_only(coef, q, c, b), deficit, kernel, gram_norm,
        dual_res, dual_ok, pars_res, pars_ok,
    )


def _sequence_rank(c: np.ndarray, pars_res: float, tol: Tolerance) -> int:
    """The rank of ``Y``, that of the r x m matrix ``c``, whose projected
    Parseval residual is ``eps = ||c c^* - I_r||_F``.  For r <= m, every
    eigenvalue of ``c c^*`` lies within ``eps`` of 1, so every singular
    value of ``c`` lies in ``[sqrt(1 - eps), sqrt(1 + eps)]``; when

        sqrt(1 - eps) > tol.threshold(sqrt(1 + eps)),

    each of them passes the rank rule at any largest value, and the rank
    is r with no SVD.  ``eps`` is taken with an allowance for the rounding
    of the product ``c c^*``, ``(m + 2) r (1 + eps)`` units of 2^-52, so
    the shortcut never claims a rank the exact residual would not.
    Otherwise the rank is read off the values-only SVD of ``c``."""
    r, m = c.shape
    eps = pars_res + (m + 2) * r * (1.0 + pars_res) * np.finfo(float).eps
    if r <= m and eps < 1.0 and np.sqrt(1.0 - eps) > tol.threshold(np.sqrt(1.0 + eps)):
        return r
    return singular_rank(_svd(c, compute_uv=False), tol)


def _gate_parseval(fam: VectorFamily, tol: Tolerance, name: str) -> None:
    """Reject inputs that are not even coarsely Parseval for their span:
    ``||S - P||_F`` against ``PARSEVAL_GATE`` times ``max(1, ||S||_F)``,
    both read off the singular values, so the all-zero family passes."""
    res, scale = _parseval_residual(fam._s, fam.rank(tol))
    if res > PARSEVAL_GATE * scale:
        raise NotParsevalError(f"family '{name}' is not approximately Parseval")


def _gate_ambient_parseval(u: VectorFamily, tol: Tolerance) -> None:
    """Reject a ``u`` not Parseval for the ambient space: its
    ``_frame_residual`` at the scale ``||I_n||_F``."""
    res = u._frame_residual()
    if res > tol.threshold(np.sqrt(u.ambient_dim)):
        raise NotParsevalError(
            f"u must be Parseval for the ambient space (residual {res:.3e})"
        )


def _gate_spanning(w: VectorFamily, tol: Tolerance) -> None:
    """Reject a ``w`` that does not span (``EmptySpanError`` if all zero)."""
    if _span_rank(w._s, tol) != w.ambient_dim:
        raise GateFailedError("span{w} must equal the ambient space")


def _gate_onb_count(w: VectorFamily) -> None:
    """An orthonormal basis of an n-dimensional space has n members."""
    if w.count != w.ambient_dim:
        raise GateFailedError(
            f"orthonormal output needs member count ({w.count}) equal to the"
            f" ambient dimension ({w.ambient_dim})"
        )


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeakRDualCertificate:
    """Residual-based verdict for the weak R-dual identities.

    ``verdict`` follows the direct definition (synthesis + commutation);
    ``characterization_verdict`` follows the equivalent dual-side pair
    (dual commutation + projection onto span{w}).  The two agree on any
    input where the hypotheses hold, which the property suite enforces.
    """

    synthesis_residual: float
    commutation_residual: float
    dual_commutation_residual: float
    projected_parseval_residual: float
    projection_residual: float
    span_deficit: int
    kernel_dim: int
    u_parseval_residual: float
    v_parseval_residual: float
    u_is_onb: bool
    v_is_onb: bool
    verdict: str
    characterization_verdict: str
    rel_eps: float
    abs_floor: float
    labels: dict

    def passes(self) -> bool:
        return self.verdict in ("WeakRDual", "RDual")

    def to_json_dict(self) -> dict:
        out = {
            field.name: getattr(self, field.name)
            for field in fields(self)
            if field.name not in ("rel_eps", "abs_floor")
        }
        out["labels"] = dict(self.labels)
        out["tolerance"] = {"rel_eps": self.rel_eps, "abs_floor": self.abs_floor}
        return out


def _certificate(side: DualSide, v: VectorFamily) -> WeakRDualCertificate:
    """Compute every residual of the weak R-dual identities for ``v`` and
    the triple ``(w, f, u)`` of ``side``; the dual-side residuals, the
    deficit and the kernel are read from the record.

    Index pairing: ``u`` with ``w`` (count K), ``f`` with ``v`` (count M).
    The square public operations enforce K == M before calling this.
    """
    w, f, u, tol = side.w, side.f, side.u, side.tol
    n = _require_same_dim(w, v)
    if f.count != v.count:
        raise ShapeMismatchError(f"f/v counts {f.count}/{v.count} must pair up")

    # G(f,u) = F U^* = B conj(Vh_u) with the record's B = F conj(U_u)
    # diag(s_u), so the synthesis columns V^t G(f,u) are (V^t B)
    # conj(Vh_u), and (G(v,v)^t - I) G(f,u) = (conj(V) V^t B - B)
    # conj(Vh_u) has the norm of conj(V) V^t B - B, as conj(Vh_u) has
    # orthonormal rows; conj(V) X is taken as conj(V conj(X)).  No product
    # with the rows of f is taken here.  ``v`` is read through its products
    # and ``_frame_residual`` alone, so a constructed ``v`` answers from
    # its factors and writes no count x n array.  ||S_u - I||_F is read
    # off the singular values of u.  Every array is updated in place and
    # dropped once read, so at most two count x p arrays are alive at once
    # beside the record's, and at most three n x p.
    _, s_u, vh_u = u.svd
    vt_b = v._transposed_times(side.b)
    comm = v._times(np.conj(vt_b))
    np.conjugate(comm, out=comm)
    comm -= side.b
    comm_res = frobenius(comm)
    del comm
    generated = vt_b @ np.conj(vh_u)  # columns: sum_i <f_i,u_j> v_i
    del vt_b
    w_syn = w.vectors.T
    np.subtract(w_syn, generated, out=generated)
    synth_res = float(np.max(np.linalg.norm(generated, axis=0)))
    del generated
    # The rows of P V^t - Y^t are those of (V conj(q) - coef) q^t, and q^t
    # has orthonormal rows, so max_i ||P v_i - y_i|| is the largest row
    # norm of the count x rank matrix V conj(q) - coef, summed over the
    # float64 view so that no array of its size is allocated.
    in_span = v._times(np.conj(side.q))
    in_span -= side.coef
    pairs = in_span.view(np.float64)
    proj_res = float(np.sqrt(np.max(np.einsum("ij,ij->i", pairs, pairs))))
    del in_span, pairs

    w_scale = float(np.max(np.linalg.norm(w_syn, axis=0)))
    synth_ok = synth_res <= tol.threshold(w_scale)
    comm_ok = comm_res <= tol.threshold(side.gram_norm)
    proj_ok = proj_res <= tol.threshold(1.0)  # degree 0, and ||P v_i|| <= 1

    # The ONB flags are the one rule _is_onb on the Parseval residuals
    # reported here, so each flag agrees with its residual and neither
    # family is factored or assembled for it.
    u_pars_res = _spectral_identity_residual(s_u, n)
    v_pars_res = v._frame_residual()
    u_onb = _is_onb(u.count, n, u_pars_res, tol)
    v_onb = _is_onb(v.count, n, v_pars_res, tol)

    def _verdict(ok: bool) -> str:
        if not ok:
            return "NotWeakRDual"
        if u_onb and v_onb:
            return "RDual"
        return "WeakRDual"

    return WeakRDualCertificate(
        synthesis_residual=synth_res,
        commutation_residual=comm_res,
        dual_commutation_residual=side.dual_res,
        projected_parseval_residual=side.parseval_res,
        projection_residual=proj_res,
        span_deficit=side.deficit,
        kernel_dim=side.kernel,
        u_parseval_residual=u_pars_res,
        v_parseval_residual=v_pars_res,
        u_is_onb=u_onb,
        v_is_onb=v_onb,
        verdict=_verdict(synth_ok and comm_ok),
        characterization_verdict=_verdict(side.dual_ok and proj_ok),
        rel_eps=tol.rel_eps,
        abs_floor=tol.abs_floor,
        labels={"w": w.label, "f": f.label, "u": u.label, "v": v.label},
    )


def certify_weak_r_dual(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    v: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> WeakRDualCertificate:
    """Full certificate for a given quadruple, without admission gates."""
    _require_same_count(w, f, u, v)
    return _certificate(dual_side(w, f, u, tol), v)


def weak_r_dual(
    f: VectorFamily,
    u: VectorFamily,
    v: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[VectorFamily, WeakRDualCertificate]:
    """Synthesize ``w_j = sum_i <f_i, u_j> v_i`` and certify the result.

    ``u`` and ``v`` must be at least coarsely Parseval; the verdict is
    decided by the commutation residual (the synthesis residual is zero
    by construction).
    """
    _require_same_count(f, u, v)
    _require_same_dim(f, u, v)
    _gate_parseval(u, tol, "u")
    _gate_parseval(v, tol, "v")
    w = _synthesize(f, u, v, label=f"wrd({f.label})")
    return w, _certificate(dual_side(w, f, u, tol), v)


def _synthesize(f: VectorFamily, u: VectorFamily, v: VectorFamily, label: str):
    """The family ``w_j = sum_i <f_i, u_j> v_i``."""
    w_syn = (v.vectors.T @ f.vectors) @ u.vectors.conj().T
    return VectorFamily._factored(w_syn.T, label=label)


def characterize(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    v: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> WeakRDualCertificate:
    """Certificate via the dual-side conditions; the operative verdict is
    ``characterization_verdict`` (it agrees with the direct one whenever
    the hypotheses hold)."""
    _require_same_count(w, f, u, v)
    _gate_parseval(u, tol, "u")
    _gate_parseval(v, tol, "v")
    return _certificate(dual_side(w, f, u, tol), v)


# ----------------------------------------------------------------------
# Constructions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CommutingParsevalResult:
    """Parseval family satisfying the commutation condition for every u."""

    family: VectorFamily
    input_is_riesz_basis: bool
    output_is_onb: bool


def commuting_parseval_family(
    f: VectorFamily, tol: Tolerance = DEFAULT_TOL
) -> CommutingParsevalResult:
    """Entrywise conjugate of the Parseval tightening of ``f``.

    The output satisfies ``(G(v,v)^t - I) G(f,u) = 0`` for every family
    ``u`` and is Parseval for the conjugated span.  It degenerates to an
    orthonormal basis exactly when ``f`` is a Riesz basis, which is
    flagged rather than raised.
    """
    fa = analyze(f, tol)
    v = _conjugated_tightening(f, tol, f"commuting({f.label})")
    return CommutingParsevalResult(
        family=v,
        input_is_riesz_basis=fa.is_riesz_basis,
        output_is_onb=analyze(v, tol).is_onb,
    )


def _conjugated_tightening(
    f: VectorFamily, tol: Tolerance, label: str
) -> VectorFamily:
    """The entrywise conjugate of the Parseval tightening of ``f``, from
    the thin SVD of ``f`` alone."""
    tight = parseval_tighten(f, tol)
    return VectorFamily._factored(np.conj(tight.vectors), label=label)


def _check_hypotheses(side: DualSide) -> DualSide:
    """Verify the shared construction hypotheses on a dual side: the
    characterizing sequence is Parseval for span{w} and the dual
    commutation holds.  Returns the record."""
    if not side.parseval_ok:
        raise HypothesisFailedError(
            "characterizing sequence is not Parseval for span{w}"
        )
    _require_dual_commutation(side)
    return side


def _require_dual_commutation(side: DualSide) -> None:
    if not side.dual_ok:
        raise HypothesisFailedError(
            f"dual commutation condition fails (residual {side.dual_res:.3e})"
        )


def _span_complement(q: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the complement of ``range(q)``, for an ``n x
    r`` ``q`` with orthonormal columns: the trailing ``n - r`` columns of
    the ``Q`` of its complete QR."""
    return np.linalg.qr(q, mode="complete")[0][:, q.shape[1] :]


class _ExtensionFamily(VectorFamily):
    """The ``v`` that ``_isometric_extension_v`` constructs for a positive
    span deficit, held as identity plus low rank: its member rows are ``P
    + C basis^t``.  ``basis`` is ``n x k``, with the span basis ``q`` as
    its first ``r`` columns; ``C``
    is ``head`` (``lead x k``) on the ``lead`` leading rows and ``[tail
    0]`` past them, ``tail`` being the ``(count - lead) x r`` coefficients
    of those rows in ``q``; and ``P`` is zero but for the identity that
    takes the last ``d = n - r`` coordinates to the leading rows ``lead -
    d, ..., lead - 1``.  The three factors are checked finite here, so the
    products taken from them rest on this check.  The readers answer from
    the factors, at O((count r + n k) p) for a product with ``p`` columns;
    ``S - I`` has rank at most ``r + 2 k`` (``_defect``), so the Parseval
    residual costs O(count r^2 + n k^2) and the frame operator O(n^2 k).
    The member rows are assembled on first read, checked like any
    family's and cached."""

    def __init__(
        self, head: np.ndarray, basis: np.ndarray, tail: np.ndarray, label: str
    ) -> None:
        for factor in (head, basis, tail):
            if not np.isfinite(factor).all():
                raise ValueError("family entries must be finite")
        _read_only(head, basis, tail)
        self.__dict__.update(_head=head, _basis=basis, _tail=tail, label=label)

    @property
    def count(self) -> int:
        return self._head.shape[0] + self._tail.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self._basis.shape[0]

    def _shape(self) -> tuple[int, int, int]:
        """``(lead, r, d)``: the identity of ``P`` sits on the rows ``lead -
        d, ..., lead - 1`` and the columns ``r, ..., n - 1``."""
        r = self._tail.shape[1]
        return self._head.shape[0], r, self.ambient_dim - r

    @cached_property
    def vectors(self) -> np.ndarray:
        lead, r, d = self._shape()
        rows = np.empty((self.count, self.ambient_dim), dtype=np.complex128)
        np.matmul(self._head, self._basis.T, out=rows[:lead])
        np.matmul(self._tail, self._basis[:, :r].T, out=rows[lead:])
        diag = np.arange(d)
        rows[lead - d + diag, r + diag] += 1.0
        return _members(rows)

    def _times(self, x: np.ndarray) -> np.ndarray:
        """``V x = P x + C (basis^t x)``."""
        lead, r, d = self._shape()
        bx = self._basis.T @ x
        out = np.empty((self.count, bx.shape[1]), dtype=np.complex128)
        np.matmul(self._head, bx, out=out[:lead])
        np.matmul(self._tail, bx[:r], out=out[lead:])
        out[lead - d : lead] += x[r:]
        return out

    def _transposed_times(self, y: np.ndarray) -> np.ndarray:
        """``V^t y = P^t y + basis (C^t y)``."""
        lead, r, d = self._shape()
        cy = self._head.T @ y[:lead]
        cy[:r] += self._tail.T @ y[lead:]
        out = self._basis @ cy
        out[r:] += y[lead - d : lead]
        return out

    def _defect(self) -> tuple[np.ndarray, np.ndarray]:
        """``(Z, M)`` with ``S - I = Z M Z^*``, ``Z`` of width ``r + 2 k``.
        With ``B = basis``, ``S = V^t conj(V)`` is ``P^t P + z B^* + B z^* +
        B G B^*``, where ``G = C^t conj(C)`` and ``z = P^t conj(C)`` holds
        the conjugated rows ``lead - d, ..., lead - 1`` of ``head`` on the
        last ``d`` coordinates.  ``P^t P`` is the identity on those
        coordinates, so ``P^t P - I = -F F^t`` with ``F`` the first ``r``
        coordinate vectors, and ``Z = [F, B, z]``."""
        lead, r, d = self._shape()
        head, basis = self._head, self._basis
        k = basis.shape[1]
        gram = head.T @ np.conj(head)
        gram[:r, :r] += self._tail.T @ np.conj(self._tail)
        z = np.zeros((self.ambient_dim, r + 2 * k), dtype=np.complex128)
        z[np.arange(r), np.arange(r)] = 1.0
        z[:, r : r + k] = basis
        z[r:, r + k :] = np.conj(head[lead - d :])
        m = np.zeros((r + 2 * k, r + 2 * k), dtype=np.complex128)
        m[:r, :r] = -np.eye(r)
        m[r : r + k, r : r + k] = gram
        m[r : r + k, r + k :] = m[r + k :, r : r + k] = np.eye(k)
        return z, m

    def _frame_operator(self) -> np.ndarray:
        """``S = I + Z M Z^*``, made exactly Hermitian by averaging the
        low-rank term with its adjoint."""
        z, m = self._defect()
        s = (z @ (0.5 * m)) @ z.conj().T
        s += s.conj().T
        s[np.diag_indices_from(s)] += 1.0
        return s

    def _frame_residual(self) -> float:
        """``||S - I||_F = ||R M R^*||_F`` for the ``R`` of the QR of ``Z``
        (``Z = Q R`` with orthonormal columns in ``Q``): no frame operator
        is formed, at O(n k^2)."""
        z, m = self._defect()
        r = np.linalg.qr(z, mode="r")
        return frobenius((r @ m) @ r.conj().T)


def _isometric_extension_v(side: DualSide, orthonormal: bool) -> VectorFamily:
    """The ``v`` of ``build_orthonormal_v`` (``orthonormal``, past its count
    gate) or ``build_parseval_v`` on a dual side: past the shared
    hypotheses and a span deficit equal to (orthonormal) or below the
    kernel dimension, ``v = Y + Q*``, where ``Q*`` maps ``deficit``
    orthonormal vectors of ker(Y) onto an orthonormal basis of the span
    complement of ``w`` and vanishes on the rest.  With no deficit there
    is no ``Q*``, and ``v`` is the characterizing sequence ``Y`` itself,
    a plain family.  Otherwise any such kernel vectors work; these are
    kernel vectors of the leading ``lead = rank(Y) + deficit`` columns of
    ``Y``, extended by zeros.  Those columns lie in range(q), so the
    kernel is the orthogonal complement of the range of ``Y_lead^* q =
    conj(Y_lead^t) q``, which is ``conj(coef[:lead])``: the trailing
    ``deficit`` columns ``K`` of the ``Q`` of its complete QR.  The
    complement basis ``C`` is the trailing ``deficit`` columns of the
    ``Q`` of the complete QR of ``q``.  So only the ``lead <= n`` leading
    rows ``coef[:lead] q^t + conj(K) C^t`` of ``v`` differ from those of
    ``Y``.  Neither ``Q`` is formed: each is held in compact WY
    form (``_compact_wy``), ``Q = I - V T V^*``, so with ``E_l`` and ``E``
    the trailing ``deficit`` columns of the identities of sizes ``lead``
    and n, ``K = E_l - V_l W_l`` and ``C = E - V_q W_q`` with ``W = T
    V[-deficit:]^*``, and the leading rows are the identity pattern ``E_l
    E^t`` plus

        coef[:lead] q^t - conj(V_l) (E conj(W_l)^t)^t
        - (conj(K) W_q^t) V_q^t,

    products of factors with O(rank) columns.  This ``v`` is born
    factored (``_ExtensionFamily``) and shares ``coef`` past its leading
    rows: no count x n or n x n array is written, and no count x rank one
    copied."""
    _check_hypotheses(side)
    coef, q, deficit, kernel = side.coef, side.q, side.deficit, side.kernel
    if orthonormal:
        if deficit != kernel:
            raise HypothesisFailedError(
                f"span deficit {deficit} != kernel dimension {kernel}"
            )
    elif deficit > kernel:
        raise DimensionCaseError(
            f"span deficit {deficit} exceeds kernel dimension {kernel}:"
            " no Parseval completion exists"
        )
    elif deficit == kernel:
        raise HypothesisFailedError(
            f"span deficit equals kernel dimension ({deficit}); only the"
            " orthonormal construction applies"
        )
    label = f"{'onb' if orthonormal else 'parseval'}-v({side.w.label})"
    if not deficit:
        return side.sequence.relabel(label)
    lead = coef.shape[0] - kernel + deficit
    (n, r), a = q.shape, lead - deficit
    v_l, t_l = _compact_wy(np.conj(coef[:lead]))
    v_q, t_q = _compact_wy(q)
    w_l, w_q = t_l @ v_l[a:].conj().T, t_q @ v_q[r:].conj().T
    ker_wq = -np.conj(v_l) @ (np.conj(w_l) @ w_q.T)  # conj(K) W_q^t
    ker_wq[a:] += w_q.T
    e_wl = np.zeros((n, len(w_l)), dtype=np.complex128)  # E conj(W_l)^t
    e_wl[r:] = w_l.conj().T
    head = np.hstack([coef[:lead], -np.conj(v_l), -ker_wq])
    basis = np.hstack([q, e_wl, v_q])
    return _ExtensionFamily(head, basis, coef[lead:], label)


def build_parseval_v(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> VectorFamily:
    """Parseval, non-orthonormal ``v`` making ``w`` a weak R-dual of ``f``.

    Requires the span deficit of ``w`` to be strictly smaller than the
    kernel dimension of the characterizing-sequence synthesis; the
    isometric extension is then non-surjective, so ``v`` cannot be an
    orthonormal basis.  When the deficit is zero the characterizing
    sequence itself is returned.
    """
    return _constructed_v(w, f, u, tol, orthonormal=False)[1]


def build_orthonormal_v(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> VectorFamily:
    """Orthonormal basis ``v`` making ``w`` a weak R-dual of ``f``.

    Finite gate: an orthonormal basis of an n-dimensional space has
    exactly n members, so the member count must equal the ambient
    dimension; the span deficit must equal the kernel dimension.
    """
    return _constructed_v(w, f, u, tol, orthonormal=True)[1]


def _constructed_v(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    tol: Tolerance,
    orthonormal: bool,
) -> tuple[DualSide, VectorFamily]:
    """The dual side of ``(w, f, u)`` and the ``v`` that
    ``build_orthonormal_v`` (``orthonormal``) or ``build_parseval_v``
    builds from it, so a caller can certify ``v`` on the same record."""
    _require_same_count(w, f, u)
    if orthonormal:
        _gate_onb_count(w)
    side = dual_side(w, f, u, tol)
    return side, _isometric_extension_v(side, orthonormal)


# ----------------------------------------------------------------------
# Interleavings
# ----------------------------------------------------------------------


def _star(h: VectorFamily, cutoff: int, odd_slots: bool, mark: str) -> VectorFamily:
    m, n = h.count, h.ambient_dim
    if not 0 <= cutoff <= m:
        raise BadCutoffError(f"cutoff {cutoff} out of range for {m} members")
    out = np.zeros((m + cutoff, n), dtype=np.complex128)
    start = 0 if odd_slots else 1
    out[start : 2 * cutoff : 2] = h.vectors[:cutoff]
    out[2 * cutoff :] = h.vectors[cutoff:]
    return VectorFamily._factored(out, label=f"{h.label}{mark}")


def interleave_star(h: VectorFamily, cutoff: int) -> VectorFamily:
    """Interleave with zeros over the first ``2 * cutoff`` slots only,
    then continue densely with the remaining members."""
    return _star(h, cutoff, odd_slots=True, mark="*")


def interleave_double_star(h: VectorFamily, cutoff: int) -> VectorFamily:
    """Complementary star interleaving (zeros at odd slots up front)."""
    return _star(h, cutoff, odd_slots=False, mark="**")


def interleave_prime(h: VectorFamily) -> VectorFamily:
    """Members at odd slots, zeros at even slots (doubled count)."""
    return _star(h, h.count, odd_slots=True, mark="'")


def interleave_double_prime(h: VectorFamily) -> VectorFamily:
    """Zeros at odd slots, members at even slots (doubled count)."""
    return _star(h, h.count, odd_slots=False, mark="''")


@dataclass(frozen=True)
class InterleavedDualResult:
    f_prime: VectorFamily
    v: VectorFamily
    u_prime: VectorFamily
    w_prime: VectorFamily
    certificate: WeakRDualCertificate


def interleaved_weak_r_dual(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    q: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> InterleavedDualResult:
    """Realize ``w`` (prime-padded) as a weak R-dual of the prime-padded
    ``f`` via ``v = y' + q''`` with ``q`` Parseval for the complement.

    All four families are re-indexed consistently by prime padding; the
    returned certificate, not the padding convention, is the contract.
    """
    _require_same_count(w, f, u, q)
    n = _require_same_dim(w, f, u, q)
    side = _check_hypotheses(dual_side(w, f, u, tol))
    comp = np.eye(n) - side.q @ side.q.conj().T
    s_q = frame_operator(q)
    if frobenius(s_q - comp) > tol.threshold(frobenius(comp)):
        raise NotParsevalComplementError(
            "q is not Parseval for the orthogonal complement of span{w}"
        )
    f_prime = interleave_prime(f)
    u_prime = interleave_prime(u)
    w_prime = interleave_prime(w)
    # v = y' + q'': y at the slots of the prime interleaving, q between them
    v_rows = np.empty((2 * q.count, n), dtype=np.complex128)
    v_rows[0::2] = side.sequence.vectors
    v_rows[1::2] = q.vectors
    v = VectorFamily._factored(v_rows, label=f"interleaved-v({w.label})")
    cert = _certificate(dual_side(w_prime, f_prime, u_prime, tol), v)
    return InterleavedDualResult(
        f_prime=f_prime, v=v, u_prime=u_prime, w_prime=w_prime, certificate=cert
    )


# ----------------------------------------------------------------------
# Coisometric transfer
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransferResult:
    operator: np.ndarray
    transported: VectorFamily
    coisometry_residual: float
    transfer_residual: float
    certificate: Optional[WeakRDualCertificate]


def transfer_via_coisometry(
    w: VectorFamily,
    p: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    h: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> TransferResult:
    """Coisometry ``U`` with ``w_j = sum_i <f_i,u_j> U(h_i)``.

    ``p`` must be a weak R-dual of ``f`` with respect to ``u`` and the
    Parseval family ``h``; the span deficit of ``w`` must not exceed that
    of ``p``.  ``U`` is unitary from span{p} to span{w} (coefficient map)
    extended by a partial isometry between the complements.  When the
    deficits are equal the transported family ``U(h)`` certifies.
    """
    _require_same_count(w, p, f, u, h)
    n = _require_same_dim(w, p, f, u, h)
    base = _certificate(dual_side(p, f, u, tol), h)
    if not base.passes():
        raise HypothesisFailedError(
            "p is not a weak R-dual of f with respect to u and h"
        )
    deficit_w, deficit_p = n - w.rank(tol), n - p.rank(tol)
    if deficit_w > deficit_p:
        raise DeficitOrderError(
            f"span deficit of w ({deficit_w}) exceeds that of p ({deficit_p})"
        )
    side = _check_hypotheses(dual_side(w, f, u, tol))
    # T_w T_p^+ with T_p^+ = Vh_r^* diag(1/s_r) U_r^* from the SVD of p.
    pu, ps, pvh = _span_svd(p, tol)
    u1 = ((w.vectors.T @ pvh.conj().T) / ps) @ pu.conj().T
    comp_p = _span_complement(pu)[:, :deficit_w]
    u2 = _span_complement(side.q) @ comp_p.conj().T
    op = u1 + u2
    cois_res = frobenius(op @ op.conj().T - np.eye(n))
    transported = VectorFamily._factored(
        (op @ h.vectors.T).T, label=f"transfer({h.label})"
    )
    cert = _certificate(side, transported)
    certificate = cert if deficit_w == deficit_p else None
    return TransferResult(
        operator=op,
        transported=transported,
        coisometry_residual=cois_res,
        transfer_residual=cert.synthesis_residual,
        certificate=certificate,
    )


# ----------------------------------------------------------------------
# Conjugate-linear witnesses
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConjugateLinearMap:
    """Conjugate-linear operator ``x -> M conj(x)``.

    The adjoint satisfies ``<Lx, z> = <L*z, x>`` and acts as
    ``z -> M^t conj(z)``; the linear compositions are ``L L* = M M^*``
    and ``L* L = conj(M^* M)``.
    """

    matrix: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(x)

    def adjoint_apply(self, z: np.ndarray) -> np.ndarray:
        return self.matrix.T @ np.conj(z)

    def compose_adjoint_right(self) -> np.ndarray:
        """Matrix of the linear map ``L L*``."""
        return self.matrix @ self.matrix.conj().T

    def compose_adjoint_left(self) -> np.ndarray:
        """Matrix of the linear map ``L* L``."""
        return np.conj(self.matrix.conj().T @ self.matrix)


@dataclass(frozen=True)
class WitnessVerification:
    w_residual: float
    f_residual: float
    ok: bool
    induced_u: Optional[VectorFamily]
    u_parseval_residual: Optional[float]
    dual_commutation_residual: Optional[float]
    projected_parseval_residual: Optional[float]


def verify_conjugate_witness(
    lmap: ConjugateLinearMap,
    w: VectorFamily,
    f: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> WitnessVerification:
    """Check ``S_w = (L L*)^{-1}`` and ``S_f = (L* L)^{-1}``.

    When both hold, the induced family ``u_k = L^{-1}(w~_k)`` is built and
    its Parsevalness, the dual commutation condition, and the Parseval
    property of the characterizing sequence are confirmed.
    """
    m = lmap.matrix
    n = _require_same_dim(w, f)
    if m.shape != (n, n):
        raise GateFailedError(f"witness matrix must be {n}x{n}, got {m.shape}")
    _gate_spanning(w, tol)
    if singular_rank(_svd(m, compute_uv=False), tol) < n:
        raise NotInvertibleError("witness matrix is numerically singular")

    s_w = frame_operator(w)
    s_f = frame_operator(f)
    r_w = frobenius(np.linalg.inv(lmap.compose_adjoint_right()) - s_w)
    r_f = frobenius(np.linalg.inv(lmap.compose_adjoint_left()) - s_f)
    ok = r_w <= tol.threshold(frobenius(s_w)) and r_f <= tol.threshold(frobenius(s_f))
    if not ok:
        return WitnessVerification(r_w, r_f, False, None, None, None, None)

    m_inv = np.linalg.inv(m)
    w_dual = canonical_dual(w, tol)
    u = VectorFamily._factored(
        np.conj((m_inv @ w_dual.vectors.T)).T, label=f"witness-u({w.label})"
    )
    u_pars = u._frame_residual()
    side = dual_side(w, f, u, tol)
    return WitnessVerification(
        r_w, r_f, True, u, u_pars, side.dual_res, side.parseval_res
    )


def find_conjugate_witness(
    s_w: np.ndarray, s_f: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> Optional[ConjugateLinearMap]:
    """Construct a conjugate-linear witness for a pair of Hermitian
    positive definite operators, or return ``None``.

    A witness exists iff the two spectra agree as multisets (conjugation
    preserves real spectra); it is assembled from the eigenbases as
    ``M = U diag(lambda^{-1/2}) V*`` and is unique up to unitary gauge.
    """
    dec_w = hermitian_eig(s_w, tol)
    dec_f = hermitian_eig(np.conj(s_f), tol)
    lam_w, lam_f = dec_w.eigenvalues, dec_f.eigenvalues
    if lam_w.size != lam_f.size:
        return None
    for lam in (lam_w, lam_f):
        if singular_rank(lam[::-1], tol) < lam.size:
            raise NotPositiveDefiniteError("operator is not positive definite")
    scale = float(max(lam_w[-1], lam_f[-1]))
    if np.max(np.abs(lam_w - lam_f)) > tol.threshold(scale):
        return None
    mat = (dec_w.eigenvectors / np.sqrt(lam_w)) @ dec_f.eigenvectors.conj().T
    return ConjugateLinearMap(matrix=mat)


# ----------------------------------------------------------------------
# Gram invariance (the u-side condition) and the characterizing bounds
# ----------------------------------------------------------------------


def dual_commuting_parseval(
    w: VectorFamily, f: VectorFamily, tol: Tolerance = DEFAULT_TOL
) -> VectorFamily:
    """Parseval ``u`` satisfying the dual commutation condition for any
    ``f``: the entrywise conjugate of the Parseval tightening of ``w``.

    Finite gate: the construction is an invertible conjugate-linear map
    from the ambient space onto span{w}, so ``w`` must span.  The output
    is orthonormal exactly when ``w`` is a Riesz sequence.
    """
    _require_same_count(w, f)
    _require_same_dim(w, f)
    _gate_spanning(w, tol)
    return _conjugated_tightening(w, tol, f"dual-commuting({w.label})")


def gram_invariance_residual(u: VectorFamily, w: VectorFamily) -> float:
    """``max_k || sum_j <u_j, u_k> w_j - w_k ||``."""
    _require_same_count(u, w)
    _require_same_dim(u, w)
    w_syn = w.vectors.T
    res = (w_syn @ u.vectors) @ u.vectors.conj().T - w_syn  # W^t G(u,u) - W^t
    return float(np.max(np.linalg.norm(res, axis=0)))


@dataclass(frozen=True)
class CharacterizingBounds:
    lower: float
    upper: float
    sandwich_lower: float
    sandwich_upper: float
    sandwich_ok: bool


def characterizing_sequence_bounds(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> CharacterizingBounds:
    """Frame bounds of the characterizing sequence, checked against the
    sandwich ``A_f / B_w <= A_y <= B_y <= B_f / A_w``.

    Requires the Gram invariance condition for ``u`` against ``w`` and a
    frame ``f`` for the ambient space.
    """
    res, holds = _gram_invariance(u, w, tol)
    if not holds:
        raise HypothesisFailedError(
            f"Gram invariance condition fails (residual {res:.3e})"
        )
    fa = analyze(f, tol)
    if not fa.is_frame_for_ambient:
        raise HypothesisFailedError("f must be a frame for the ambient space")
    wa = analyze(w, tol)
    side = dual_side(w, f, u, tol)
    if f.count - side.kernel != wa.span_dim:
        raise HypothesisFailedError("characterizing sequence does not span span{w}")
    # Y = q c conj(Vh_f) has the singular values of c, so its frame bounds
    # are read off them by the rules of ``analyze``, with no rows of Y
    s_y = _svd(side.c, compute_uv=False)
    rank_y = _span_rank(s_y, tol)
    lower, upper = float(s_y[rank_y - 1] ** 2), float(s_y[0] ** 2)
    lo = fa.lower_bound / wa.upper_bound
    hi = fa.upper_bound / wa.lower_bound
    ok = lower >= lo * (1 - _SANDWICH_SLACK) and upper <= hi * (1 + _SANDWICH_SLACK)
    return CharacterizingBounds(
        lower=lower,
        upper=upper,
        sandwich_lower=lo,
        sandwich_upper=hi,
        sandwich_ok=ok,
    )


def synthesized_gram_invariance_residual(
    f: VectorFamily,
    u: VectorFamily,
    v: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Synthesize ``w`` from ``(f, u, v)`` and return its Gram invariance
    residual against ``u``; vanishes whenever ``u`` is Parseval for the
    ambient space (necessity check, self-validating)."""
    _require_same_count(f, u, v)
    _require_same_dim(f, u, v)
    _gate_ambient_parseval(u, tol)
    return gram_invariance_residual(u, _synthesize(f, u, v, "synthesized"))


def completeness_implies_invariance(side: DualSide) -> bool:
    """Given the dual commutation condition and a characterizing sequence
    complete in span{w}, report whether the Gram invariance condition
    holds for the triple of ``side`` (an implication, so the result must
    be True on valid inputs)."""
    w, f, u, tol = side.w, side.f, side.u, side.tol
    rank_y, rank_w = f.count - side.kernel, w.ambient_dim - side.deficit
    if rank_y != rank_w:
        raise HypothesisFailedError(
            f"characterizing sequence spans a {rank_y}-dimensional subspace of"
            f" the {rank_w}-dimensional span{{w}}"
        )
    _require_dual_commutation(side)
    return _gram_invariance(u, w, tol)[1]


def _gram_invariance(u: VectorFamily, w: VectorFamily, tol: Tolerance):
    """The Gram invariance residual and its decision at ``max_k ||w_k||``."""
    res = gram_invariance_residual(u, w)
    return res, res <= tol.threshold(np.linalg.norm(w.vectors, axis=1).max())
