"""Vector families and their frame-theoretic anatomy.

A family is an ordered finite list of complex vectors in a common
ambient space.  ``analyze`` classifies it (frame / frame sequence /
Parseval / Riesz / orthonormal basis) and reports bounds computed on the
span, matching the frame-sequence convention: the bounds are the extreme
nonzero eigenvalues of the frame operator.

``VectorFamily`` states the readers every family answers; a family held
as factors lives beside its builder, in ``gabor`` or ``rduality``.

Inner products are linear in the first argument and conjugate-linear in
the second.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptySpanError, FixtureParseError, ShapeMismatchError
from .numerics import DEFAULT_TOL, Tolerance, frobenius, singular_rank, thin_svd

__all__ = [
    "VectorFamily",
    "FrameAnalysis",
    "synthesis_matrix",
    "frame_operator",
    "span_projector",
    "analyze",
    "canonical_dual",
    "parseval_tighten",
    "load_family",
    "save_family",
    "family_from_json_dict",
    "family_to_json_dict",
    "random_frame",
    "random_parseval",
    "random_unitary",
    "standard_basis_family",
]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _members(v: np.ndarray) -> np.ndarray:
    """``v`` checked as the members of a family and made read-only."""
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ValueError(f"expected (count, dim) members, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("family entries must be finite")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False, repr=False)
class VectorFamily:
    """Ordered finite family of complex vectors in ``C^ambient_dim``, and
    the reader protocol that every family answers.

    ``vectors`` has one member per row.  Zero members are permitted.
    ``svd`` is the one factorization, cached on first read; ``_s`` reads
    its singular values and ``_us`` its ``U`` and ``s``.  ``_times``
    gives ``vectors @ x``, ``_transposed_times`` ``vectors.T @ y``,
    ``_adjoint_factor`` ``x conj(U) diag(s)``, ``_frame_operator`` ``S``,
    and ``_frame_residual`` is the one reader of ``||S - I||_F``: the
    Parseval gates, the conjugate witness and a certificate's ``v`` ask
    it.  This class answers from the rows; a subclass that knows more
    about its members (the Gabor families of ``gabor``, the constructed
    ``v`` of ``rduality``) answers without the full factorization or the
    rows.  Families compare and hash by identity, and their repr shows
    the label and the shape, so neither reads the members.
    """

    vectors: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        v = np.array(self.vectors, dtype=np.complex128, order="C")
        object.__setattr__(self, "vectors", _members(v))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def _factored(cls, vectors: np.ndarray, label: str = "") -> "VectorFamily":
        """Trusted constructor for an array the library has just built, or
        the read-only members of another family: ``vectors`` is adopted,
        not copied (it is made C-contiguous complex128 only if it is not),
        checked like the public constructor's input and made read-only, so
        no caller may write to it afterwards."""
        fam = cls.__new__(cls)
        v = np.ascontiguousarray(vectors, dtype=np.complex128)
        object.__setattr__(fam, "vectors", _members(v))
        object.__setattr__(fam, "label", label)
        return fam

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(U, s, Vh)`` of the ``ambient_dim x count`` synthesis
        matrix.  ``vectors`` is read-only, so the factors cannot go stale;
        they are read-only as well."""
        return _read_only(*thin_svd(self.vectors.T))

    @property
    def _s(self) -> np.ndarray:
        """The singular values of ``svd``, descending."""
        return self.svd[1]

    @property
    def _us(self) -> tuple[np.ndarray, np.ndarray]:
        """``(U, s)`` of ``svd``."""
        return self.svd[:2]

    def _times(self, x: np.ndarray) -> np.ndarray:
        """``vectors @ x`` for an ``ambient_dim x p`` matrix ``x``."""
        return self.vectors @ x

    def _transposed_times(self, y: np.ndarray) -> np.ndarray:
        """``vectors.T @ y`` for a ``count x p`` matrix ``y``."""
        return self.vectors.T @ y

    def _adjoint_factor(self, x: np.ndarray) -> np.ndarray:
        """``x conj(U) diag(s)`` for a ``p x ambient_dim`` matrix ``x``: as
        ``H^* = conj(U) diag(s) conj(Vh)`` for the member rows ``H`` and
        ``conj(Vh)`` has orthonormal rows, ``x H^*`` is this factor times
        ``conj(Vh)`` and has its Frobenius norm, Gram ``(x H^*)(x H^*)^*``
        and singular values."""
        u, s = self._us
        return (x @ u.conj()) * s

    def _frame_operator(self) -> np.ndarray:
        """``frame_operator``: ``S = T T^*`` as one real symmetric product
        of the members, in a new array."""
        return _real_symmetric_square(self.vectors)

    def _frame_residual(self) -> float:
        """``||S - I||_F`` for the frame operator ``S``, with the identity
        taken off the diagonal of the new ``S`` in place."""
        s = self._frame_operator()
        s[np.diag_indices_from(s)] -= 1.0
        return frobenius(s)

    def rank(self, tol: Tolerance = DEFAULT_TOL) -> int:
        return singular_rank(self._s, tol)

    def member(self, i: int) -> np.ndarray:
        return self.vectors[i]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        shape = f"count={self.count}, ambient_dim={self.ambient_dim}"
        return f"{type(self).__name__}(label={self.label!r}, {shape})"

    def relabel(self, label: str) -> "VectorFamily":
        """The same members under ``label``, in a family of the same type:
        the read-only rows and whatever else is built are shared, not
        recomputed."""
        fam = type(self).__new__(type(self))
        fam.__dict__.update(self.__dict__, label=label)
        return fam


@dataclass(frozen=True)
class FrameAnalysis:
    """Classification certificate for a vector family."""

    member_count: int
    ambient_dim: int
    span_dim: int
    deficit: int
    kernel_dim: int
    lower_bound: float
    upper_bound: float
    is_frame_for_ambient: bool
    is_parseval_for_span: bool
    is_tight: bool
    is_riesz_sequence: bool
    is_riesz_basis: bool
    is_onb: bool
    parseval_residual: float
    gram_identity_residual: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def synthesis_matrix(fam: VectorFamily) -> np.ndarray:
    """``ambient_dim x count`` matrix with the members as columns."""
    return fam.vectors.T.copy()


def frame_operator(fam: VectorFamily) -> np.ndarray:
    """S = T T*, the Hermitian PSD operator x -> sum <x, f_i> f_i, from the
    family's own reader (``VectorFamily._frame_operator``), which a family
    held as factors answers from them."""
    return fam._frame_operator()


def _real_symmetric_square(rows: np.ndarray) -> np.ndarray:
    """``rows^t conj(rows)`` for C-contiguous complex128 ``rows``, as one
    real symmetric product: with ``Z`` the rows viewed as ``count x 2
    dim`` reals, the 2 x 2 block ``(i, j)`` of ``G = Z^t Z`` holds the
    sums over the rows of ``Re_i Re_j``, ``Re_i Im_j``, ``Im_i Re_j`` and
    ``Im_i Im_j``, so the real part is ``G_rr + G_ii`` and the imaginary
    part ``G_ir - G_ri``.  numpy evaluates ``Z^t Z`` as a symmetric rank
    update, at half the flops of the complex product, and its exact
    symmetry makes the result exactly Hermitian."""
    z = rows.view(np.float64)
    g = z.T @ z
    dim = rows.shape[1]
    s = np.empty((dim, dim), dtype=np.complex128)
    s.real = g[0::2, 0::2] + g[1::2, 1::2]
    s.imag = g[1::2, 0::2] - g[0::2, 1::2]
    return s


def _spectral_identity_residual(s: np.ndarray, dim: int) -> float:
    """``||A - I||_F`` for a ``dim x dim`` matrix ``A`` whose eigenvalues are
    the squares of the singular values ``s`` of a family and ``dim -
    len(s)`` zeros (its frame operator, or its Gram matrix): ``A - I`` has
    the eigenvalues ``s_i^2 - 1`` and ``dim - len(s)`` times ``-1``."""
    return float(np.hypot(np.linalg.norm(s**2 - 1.0), np.sqrt(dim - s.size)))


def span_projector(fam: VectorFamily, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of the members."""
    q = fam._us[0][:, : fam.rank(tol)]
    return q @ q.conj().T


def analyze(fam: VectorFamily, tol: Tolerance = DEFAULT_TOL) -> FrameAnalysis:
    """Classify a family and compute its frame-sequence bounds.

    Bounds are the extreme nonzero eigenvalues of the frame operator;
    raises ``EmptySpanError`` when every member is numerically zero.
    Residuals come from the singular values, with no cancelling terms:
    ``S - P`` has eigenvalues ``s_i^2 - 1`` on the span and ``s_i^2`` off
    it; ``G - I`` has ``s_i^2 - 1`` and ``m - min(m, n)`` times ``-1``.
    ``is_onb`` is the one rule ``_is_onb`` on ``||G - I||_F``, which for
    ``n`` members is ``||S - I||_F``: an orthonormal basis has exactly
    ``n`` members, whatever the tolerance.
    """
    m, n = fam.count, fam.ambient_dim
    s = fam._s
    rank = _span_rank(s, tol)
    sq = s**2
    lower = float(sq[rank - 1])
    upper = float(sq[0])

    parseval_residual, scale = _parseval_residual(s, rank)  # ||S||_F == ||G||_F
    is_parseval = parseval_residual <= tol.threshold(scale)

    gram_residual = _spectral_identity_residual(s, m)
    is_riesz_seq = rank == m

    return FrameAnalysis(
        member_count=m,
        ambient_dim=n,
        span_dim=rank,
        deficit=n - rank,
        kernel_dim=m - rank,
        lower_bound=lower,
        upper_bound=upper,
        is_frame_for_ambient=rank == n,
        is_parseval_for_span=is_parseval,
        is_tight=_is_tight(float(s[0]), float(s[rank - 1]), tol),
        is_riesz_sequence=is_riesz_seq,
        is_riesz_basis=is_riesz_seq and rank == n,
        is_onb=_is_onb(m, n, gram_residual, tol),
        parseval_residual=parseval_residual,
        gram_identity_residual=gram_residual,
    )


def _is_onb(count: int, dim: int, residual: float, tol: Tolerance) -> bool:
    """The one orthonormal-basis rule: ``count == dim`` members whose
    ``||S - I||_F`` is within the threshold at ``sqrt(dim) = ||I_n||_F``.
    A Parseval family of n members in C^n is an orthonormal basis, and
    for n members ``S`` and the Gram matrix ``G`` have the same
    eigenvalues, so ``residual`` may be either's distance from the
    identity."""
    return count == dim and residual <= tol.threshold(np.sqrt(dim))


def _span_rank(s: np.ndarray, tol: Tolerance):
    """``singular_rank`` of descending singular values ``s`` (one rank per
    spectrum of a stack), raising ``EmptySpanError`` when any is zero."""
    rank = singular_rank(s, tol)
    if not np.all(rank):
        raise EmptySpanError("all members are numerically zero")
    return rank


def _parseval_residual(s: np.ndarray, rank: int) -> tuple[float, float]:
    """``||S - P||_F`` and its scale ``max(1, ||S||_F)`` from the descending
    singular values ``s`` of a family and its rank: ``S - P`` has the
    eigenvalues ``s_i^2 - 1`` on the span and ``s_i^2`` off it.  Parseval is
    not a homogeneous property, so this scale alone keeps a unit clamp."""
    sq = s**2
    res = float(np.hypot(np.linalg.norm(sq[:rank] - 1.0), np.linalg.norm(sq[rank:])))
    return res, max(1.0, float(np.linalg.norm(sq)))


def _is_tight(s_max, s_min, tol: Tolerance):
    """The tightness rule on the largest and the smallest nonzero singular
    values of a family (elementwise on arrays), whose squares are its
    frame bounds: ``s_max - s_min`` at the scale ``s_max``, homogeneous
    of degree 1 in the members as the absolute floor is, so scaling the
    members and the floor together leaves the decision unchanged."""
    return (s_max - s_min) <= tol.threshold(s_max)


def _span_svd(fam: VectorFamily, tol: Tolerance):
    """The rank-r part ``(U_r, s_r, Vh_r)`` of the family's SVD."""
    u, s, vh = fam.svd
    rank = _span_rank(s, tol)
    return u[:, :rank], s[:rank], vh[:rank]


def canonical_dual(fam: VectorFamily, tol: Tolerance = DEFAULT_TOL) -> VectorFamily:
    """Canonical dual family: the pseudo-inverse of the frame operator
    applied member-wise (handles frame sequences, not just frames).
    With ``T = U_r diag(s_r) Vh_r`` this is ``S^+ T = U_r diag(1/s_r) Vh_r``."""
    u, s, vh = _span_svd(fam, tol)
    return VectorFamily._factored(((u / s) @ vh).T, label=f"dual({fam.label})")


def parseval_tighten(fam: VectorFamily, tol: Tolerance = DEFAULT_TOL) -> VectorFamily:
    """Apply the pseudo-inverse square root of the frame operator,
    producing a family Parseval for the span of the input:
    ``S^{+1/2} T = U_r Vh_r``."""
    u, _, vh = _span_svd(fam, tol)
    return VectorFamily._factored((u @ vh).T, label=f"tight({fam.label})")


# ----------------------------------------------------------------------
# Fixture I/O
#
# Format: {"dim": n, "vectors": [[[re, im], ...], ...], "label": "..."}
# ----------------------------------------------------------------------


def family_to_json_dict(fam: VectorFamily) -> dict:
    """The fixture dict, ``[re, im]`` pairs from the float64 view of the members."""
    pairs = fam.vectors.view(np.float64).reshape(fam.count, fam.ambient_dim, 2)
    return {"dim": fam.ambient_dim, "vectors": pairs.tolist(), "label": fam.label}


def family_from_json_dict(data: dict) -> VectorFamily:
    if not isinstance(data, dict):
        raise FixtureParseError("fixture root must be a JSON object")
    try:
        dim = int(data["dim"])
        rows = data["vectors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"missing or invalid field: {exc}") from exc
    if not isinstance(rows, list) or not rows:
        raise FixtureParseError("field 'vectors' must be a non-empty list")
    members = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FixtureParseError(
                f"vector {i} has length {len(row) if isinstance(row, list) else '?'},"
                f" expected {dim}"
            )
        try:
            members.append([complex(re, im) for re, im in row])
        except (TypeError, ValueError) as exc:
            raise FixtureParseError(f"vector {i}: entries must be [re, im] pairs") from exc
    label = str(data.get("label", ""))
    try:
        return VectorFamily(np.array(members, dtype=np.complex128), label=label)
    except ValueError as exc:
        raise FixtureParseError(str(exc)) from exc


def load_family(path: str | Path) -> VectorFamily:
    # read with open(), not pathlib, which interns every path component
    # it parses: a process that reads many distinct files would otherwise
    # add one interned string per file and keep resizing the table
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise FixtureParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureParseError(
            f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return family_from_json_dict(data)


def save_family(fam: VectorFamily, path: str | Path) -> None:
    Path(path).write_text(json.dumps(family_to_json_dict(fam), sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Seeded generators (public, for tests and examples)
# ----------------------------------------------------------------------


def random_frame(
    rng: np.random.Generator, count: int, dim: int, label: str = "random-frame"
) -> VectorFamily:
    """Random complex Gaussian family, real parts drawn first; a frame for
    the ambient space with probability one when ``count >= dim``."""
    vectors = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return VectorFamily._factored(vectors, label=label)


def random_parseval(
    rng: np.random.Generator, count: int, dim: int, label: str = "random-parseval"
) -> VectorFamily:
    """Random Parseval frame for the ambient space (requires count >= dim)."""
    if count < dim:
        raise ShapeMismatchError("a Parseval frame needs at least dim members")
    return parseval_tighten(random_frame(rng, count, dim)).relabel(label)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def standard_basis_family(dim: int, count: int | None = None) -> VectorFamily:
    """First ``min(count, dim)`` standard basis vectors, zero-padded to
    ``count`` members when ``count > dim``."""
    if count is None:
        count = dim
    v = np.eye(count, dim, dtype=np.complex128)
    return VectorFamily._factored(v, label=f"standard-basis-{dim}x{count}")
