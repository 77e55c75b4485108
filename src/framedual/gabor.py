"""Gabor systems on the cyclic group Z_N and their adjoint systems.

The system for lattice steps (a, b) with a | N and b | N is

    g_{m,n}[t] = exp(2 pi i m b t / N) * window[(t - n a) mod N],
    m in [0, N/b), n in [0, N/a),  ordered by j = m * (N/a) + n.

The adjoint system lives on the adjoint lattice ``GaborLattice(N, N/b,
N/a)`` (``_adjoint_lattice``) and carries the normalization kappa =
sqrt(N/(a b)), which is certified empirically by ``duality_check``
across the corpus: the system is a frame iff the adjoint family is a
Riesz sequence with the same bounds.  Every table of the coset layer
is cached per lattice, keyed on its ``GaborLattice``.

Both families take their exact thin SVD from the coset (Walnut/Zak)
structure, never from the N x M synthesis matrix: with L = N/b, the
synthesis rows at times t = r + k L of one residue r are the b x (N/a)
block G_r[k, n] = window[(r + k L - n a) mod N] tensored with the DFT
phases exp(2 pi i m r / L), and rows of different residues are
orthogonal, so the L blocks factor the system (``_coset_svd``; the
adjoint is the same on its lattice).  Only d = gcd(a, L) of the blocks
are distinct: block r is a distinct block with its rows and columns
cyclically shifted, by an orbit table cached per lattice
(``_coset_orbits``), so its singular values are the distinct block's
and its vectors are the distinct block's permuted.  The record
(``_Cosets``) holds the singular values from one batched values-only
SVD of the d distinct blocks and takes their block vectors from one
batched SVD of the same blocks on first read, so a family reports one
``s`` whatever is read first; every reader takes a block's vectors
through the orbit table.  The member rows, ``U`` and ``Vh`` are
assembled from the record by separate functions.  A Gabor family is its
coset record (``_CosetFamily``), and this module alone decides what it
builds and when: its rows, its ``U`` (as large as N x N) and its ``Vh``
(with the member count along one axis) are each assembled the first
time something reads them.  ``analyze`` and ``duality_check`` read
singular values alone, so they compute no block vectors and build none
of the three.  A product ``rows @ x`` is taken from the blocks
(``_coset_product``), as is a product ``x conj(U) diag(s)``
(``_coset_adjoint_factor``) and the norm ``||x F^*||_F``
(``_coset_gram_norm``); when the columns of ``x`` (for the first) or its
rows (for the second) are unit coordinate vectors, the product is a
gather instead, of the rows' columns off the window (``_coset_columns``)
or of the rows of ``conj(U) diag(s)`` off the left block vectors
(``_coset_adjoint_rows``), with no block product or DFT.  The tight
pipeline's ``u`` is such a selection, so it builds none of the system's
rows, ``U`` or ``Vh``, nor the right block vectors of every residue,
and takes no block product; the rows, when they are built, are finite
because ``_checked_windows`` checked the window.
``canonical_tight_window`` sums its window block by block from the left
block vectors and column 0 of the right ones, with no ``U`` or ``Vh``.
The factorization takes a stack of windows on one lattice:
``gabor_system`` and ``adjoint_system`` pass a stack of one, and the
exploration passes every trial of a lattice at once, settles frame and
tightness from their singular values and takes the block vectors of the
gated trials alone (``_Cosets.take``), from which it takes each gated
trial's ``x conj(U) diag(s)``, for a stack of ``x``, one per trial, with
no system's ``U`` built.

The adjoint lattice has the same d, and its distinct block rho is the
system's transposed with both indices reversed (the Wexler-Raz / Ron-Shen
pairing of a system and its adjoint), so the tight pipeline and the
exploration derive the adjoint's record from the system's, values and
block vectors alike, with no SVD of its own (``_adjoint_of``); its rows
are still read off the window, so a certificate checks the derived
factors against them.  ``adjoint_system`` factors the adjoint's own
blocks (``_adjoint_cosets``): ``duality_check`` compares the system's
frame bounds with these Riesz bounds, which values derived from the
system would make a comparison of a number with itself.

Redundancy is N/(a b); the weak R-dual machinery pairs the system
(count N^2/(a b)) with the adjoint family (count a b).  The counts are
equalized by a convention that only this module knows: the adjoint is
read as zero-padded to the system count.  The padded family is never
built.  The dual side is evaluated on the a b unpadded slots; the
canonical dual of the padded adjoint is the unpadded one padded with
zeros, so the padded dual-commutation residual is ``hypot(unpadded
residual, ||U_tail F^*||_F)``, with ``U_tail`` the members of ``u`` past
the unpadded slots.  The padded slots, always
``range(a b, M)``, are recorded as that range (a report writes its two
ends), and the certificate identities are evaluated on the unpadded
slots, where they provably hold.  The padded residual is also recorded:
it is the finite-dimensional obstruction that keeps redundant adjoint
systems from being weak R-duals in the strict equal-index sense.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadLatticeError,
    CriticalDensityError,
    HypothesisFailedError,
    NotTightError,
    ShapeMismatchError,
    ZeroWindowError,
)
from .frames import (
    VectorFamily,
    _is_tight,
    _members,
    _read_only,
    _span_rank,
    _unit_positions,
    analyze,
)
from .numerics import DEFAULT_TOL, Tolerance, _svd, singular_rank
from .rduality import (
    WeakRDualCertificate,
    _certificate,
    _gate_ambient_parseval,
    _gate_onb_count,
    _isometric_extension_v,
    _span_coordinates,
    dual_side,
)

__all__ = [
    "GaborLattice",
    "GaborSystem",
    "AdjointSystem",
    "DualityReport",
    "TightDualResult",
    "PromotionResult",
    "gabor_system",
    "adjoint_system",
    "canonical_tight_window",
    "duality_check",
    "tight_gabor_weak_r_dual",
    "promote_to_r_dual",
    "divisor_lattices",
    "evaluate_exploration_trial",
    "run_exploration",
]

SCHEMA_VERSION = 4


@dataclass(frozen=True)
class GaborLattice:
    """Time step ``a`` and frequency step ``b`` on Z_N, both dividing N."""

    N: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise BadLatticeError(f"modulus must be positive, got {self.N}")
        for name, step in (("a", self.a), ("b", self.b)):
            if not 1 <= step <= self.N:
                raise BadLatticeError(f"step {name}={step} out of range [1, {self.N}]")
            if self.N % step != 0:
                raise BadLatticeError(f"step {name}={step} does not divide N={self.N}")

    @property
    def redundancy(self) -> float:
        return self.N / (self.a * self.b)

    @property
    def n_times(self) -> int:
        """The translates per modulation, N/a."""
        return self.N // self.a

    @property
    def n_freqs(self) -> int:
        """The modulations, N/b."""
        return self.N // self.b

    @property
    def member_count(self) -> int:
        return self.n_times * self.n_freqs

    @property
    def adjoint_count(self) -> int:
        return self.a * self.b


@dataclass(frozen=True, eq=False)
class GaborSystem:
    lattice: GaborLattice
    window: np.ndarray
    family: VectorFamily


@dataclass(frozen=True, eq=False)
class AdjointSystem:
    base: GaborSystem
    kappa: float
    family: VectorFamily


# The constants of one lattice, each built and cached only when it is
# read: the gather of the distinct residues, for the coset SVD; the
# coset gather of every residue, for the block products (a path that
# takes none never builds this N x N/a table); the orbit table, for the
# block vectors and the values-only spectra; the
# modulation phases and the translate gather (a view of the coset
# gather), for the member rows; the coset phases, for ``Vh``.  An
# exploration fetches a lattice's tables once per lattice stage, not
# once per trial, so the caches serve repeated runs in one process: the
# 84 lattices of N = 4..12 fit, the 276 of N = 4..24 cycle through them.


def _residue_gather(lat: GaborLattice, residues: int) -> np.ndarray:
    """``coset[r, k, n] = (r + k L - n a) mod N`` with ``L = N/b`` for the
    residues ``r < residues``: the translate gather of the member rows at
    the times ``t = r + k L`` of residue ``r``, stored with ``r`` fastest
    and ``n`` slowest (the order of the translate gather itself), which
    the gathered blocks inherit."""
    t = np.arange(lat.N).reshape(lat.b, lat.n_freqs)[:, :residues]
    gather = (t - np.arange(lat.n_times)[:, None, None] * lat.a) % lat.N
    return gather.transpose(2, 1, 0)


@lru_cache(maxsize=256)
def _coset_gather(lat: GaborLattice) -> np.ndarray:
    """The gather ``_residue_gather`` of every residue, ``(L, b, N/a)``."""
    return _read_only(_residue_gather(lat, lat.n_freqs))[0]


@lru_cache(maxsize=256)
def _distinct_gather(lat: GaborLattice) -> np.ndarray:
    """The gather of the ``d = gcd(a, L)`` distinct residues, ``(d, b,
    N/a)`` (``_coset_orbits``)."""
    return _read_only(_residue_gather(lat, math.gcd(lat.a, lat.n_freqs)))[0]


@lru_cache(maxsize=256)
def _coset_orbits(lat: GaborLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbit table ``(base, rows, cols)`` of the coset blocks: block
    ``r`` is ``G_r = G_base[r][rows[r]][:, cols[r]]``.

    With ``L = N/b`` and ``d = gcd(a, L)``, every residue is ``r = rho + j
    a - m L`` with ``rho = r mod d``, and then ``coset[r, k, n] =
    coset[rho, (k - m) mod b, (n - j) mod N/a]``: the blocks of the
    residues ``rho < d`` are the distinct ones, and every other is one of
    them with its rows and columns cyclically shifted (Bolcskei and
    Hlawatsch, IEEE TSP 45, 1997).  So ``base[r] = rho``, ``rows[r, k] =
    (k - m) mod b`` and ``cols[r, n] = (n - j) mod N/a``; the singular
    values of ``G_r`` are those of ``G_rho``, its left vectors are those
    of ``G_rho`` with permuted rows and its right vectors those with
    permuted columns."""
    L, n_times = lat.n_freqs, lat.n_times
    d = math.gcd(lat.a, L)
    j = np.arange(L // d)
    t = np.arange(d)[:, None] + j * lat.a  # (d, L / d), every r once
    r, m = t % L, t // L
    base = np.empty(L, dtype=np.intp)
    rows = np.empty((L, lat.b), dtype=np.intp)
    cols = np.empty((L, n_times), dtype=np.intp)
    base[r] = np.arange(d)[:, None]
    rows[r] = (np.arange(lat.b) - m[..., None]) % lat.b
    cols[r] = (np.arange(n_times) - j[:, None]) % n_times
    return _read_only(base, rows, cols)


def _row_tables(lat: GaborLattice) -> tuple[np.ndarray, np.ndarray]:
    """The modulation phases ``phase[m, t] = exp(2 pi i m b t / N)``,
    cached, and the translate gather ``shift[n, t] = (t - n a) mod N``, a
    view of the cached coset gather (the translate gather in coset order)
    taken on each call, so that rows and blocks share one gather."""
    return _row_phases(lat), _coset_gather(lat).T.reshape(lat.n_times, lat.N)


@lru_cache(maxsize=256)
def _row_phases(lat: GaborLattice) -> np.ndarray:
    """The modulation phases of every time, ``(N/b, N)``."""
    return _read_only(_modulation(lat, np.arange(lat.N)))[0]


def _modulation(lat: GaborLattice, t: np.ndarray) -> np.ndarray:
    """The modulation phases ``exp(2 pi i m b t / N)`` of every ``m <
    N/b`` at the times ``t``, ``(N/b, len(t))``, each entry evaluated by
    the same operations whatever ``t`` holds."""
    m = np.arange(lat.n_freqs)[:, None]
    return np.exp(2j * np.pi * m * lat.b * t / lat.N)


@lru_cache(maxsize=256)
def _coset_phases(lat: GaborLattice) -> np.ndarray:
    """The unit-norm coset phases ``phase[m, r] / sqrt(L)`` of the
    residues ``r < L = N/b``, indexed ``[r, m]``."""
    r = np.arange(lat.n_freqs)
    m = np.arange(lat.n_freqs)[:, None]
    phase = np.exp(2j * np.pi * m * lat.b * r / lat.N)
    return _read_only(phase.T / np.sqrt(lat.n_freqs))[0]


@dataclass(frozen=True, eq=False)
class _Cosets:
    """The coset record of a ``(g, N)`` stack of windows on one lattice:
    the lattice, the scale, the singular values ``s`` of the systems,
    descending, the block position ``(r[j], i[j])`` of each singular
    triple ``j``, and the singular values ``sigma_d`` of the ``d``
    distinct blocks, ``(g, d, k)``, unscaled (all stacked along the first
    axis).  The block vectors of the distinct blocks are ``factors``,
    taken on first read (or preset, by ``_adjoint_of``); those of every
    block are read through the orbit table."""

    windows: np.ndarray
    lattice: GaborLattice
    scale: float
    r: np.ndarray
    i: np.ndarray
    s: np.ndarray
    sigma_d: np.ndarray

    def blocks(self) -> np.ndarray:
        """The coset blocks ``G_r``, ``(g, L, b, N/a)``."""
        return self.windows[:, _coset_gather(self.lattice)]

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The block vectors ``(u_d, vh_d)`` of the ``d = gcd(a, L)``
        distinct blocks, from one batched SVD of them; block ``r`` has
        ``U_r = u_d[base[r]][rows[r]]`` and ``Vh_r =
        vh_d[base[r]][:, cols[r]]`` (``_coset_orbits``), and triple ``(r,
        i)`` pairs ``s`` with their ``i``-th vectors."""
        blocks = _distinct_blocks(self.windows, self.lattice)
        u_d, _, vh_d = _svd(blocks, full_matrices=False)
        return u_d, vh_d

    def block_u(self) -> np.ndarray:
        """The left block vectors ``U_r`` of every residue, ``(g, L, b,
        k)``, gathered from those of the distinct blocks."""
        base, rows, _ = _coset_orbits(self.lattice)
        return self.factors[0][:, base[:, None], rows]

    def take(self, index) -> "_Cosets":
        """The record of the windows ``index`` of the stack."""
        return replace(
            self, windows=self.windows[index], r=self.r[index], i=self.i[index],
            s=self.s[index], sigma_d=self.sigma_d[index],
        )


def _distinct_blocks(windows: np.ndarray, lat: GaborLattice) -> np.ndarray:
    """The coset blocks of the residues ``r < d = gcd(a, L)`` of a ``(g,
    N)`` stack of windows, the distinct ones (``_coset_orbits``), ``(g,
    d, b, N/a)``."""
    return windows[:, _distinct_gather(lat)]


def _coset_svd(windows: np.ndarray, lat: GaborLattice, scale: float = 1.0) -> _Cosets:
    """The thin SVD of the systems of a ``(g, N)`` stack of windows on the
    lattice ``lat``, whose members are ``scale * phase[m] *
    window[shift[n]]``, ordered ``j = m N/a + n``, from their coset blocks;
    ``_assemble_rows``, ``_assemble_u`` and ``_assemble_vh`` build the
    members and the factors from it.

    Write ``L = N/b`` and ``t = r + k L``.  The modulation depends on
    ``t`` through ``r`` alone, so the synthesis rows with residue ``r``
    are ``scale * G_r[k, n] * phase[m, r]`` with ``G_r = window[coset[r]]``,
    and rows of different residues are orthogonal (the phases are the
    columns of an L-point DFT).  With ``G_r = U_r diag(sigma_r) Vh_r``
    the factors are ``s = scale sqrt(L) sigma``, ``U_r`` placed on the
    rows ``r + k L``, and ``Vh[(r, i), (m, n)] = phase[m, r] / sqrt(L)
    * Vh_r[i, n]``.  Only ``d = gcd(a, L)`` of the ``L`` blocks are
    distinct up to cyclic shifts of their rows and columns
    (``_coset_orbits``), so one batched values-only SVD of the ``g d``
    distinct blocks of size ``b x N/a`` gives ``s``, every block taking
    the values of its distinct block, and the block vectors come from one
    batched SVD of the same ``g d`` blocks on first read, never from an
    ``N x M`` synthesis matrix.  The triples are gathered in descending
    order: triple ``j`` is ``(r, i) = divmod(order[j], k)``."""
    sigma_d = _svd(_distinct_blocks(windows, lat), compute_uv=False)
    return _coset_record(windows, lat, scale, sigma_d)


def _coset_record(
    windows: np.ndarray, lat: GaborLattice, scale: float, sigma_d: np.ndarray
) -> _Cosets:
    """The record of ``_coset_svd`` from the singular values ``sigma_d``
    of the distinct blocks: every block takes its distinct block's
    values, and the triples are gathered in descending order."""
    sigma = sigma_d[:, _coset_orbits(lat)[0]]  # (g, L, k)
    k = sigma.shape[-1]
    sigma = sigma.reshape(windows.shape[0], lat.n_freqs * k)
    order = np.argsort(-sigma, axis=-1, kind="stable")
    r, i = np.divmod(order, k)
    s = (scale * np.sqrt(lat.n_freqs)) * np.take_along_axis(sigma, order, axis=-1)
    return _Cosets(windows, lat, scale, r, i, s, sigma_d)


def _assemble_rows(c: _Cosets) -> np.ndarray:
    """The member rows of each system, ``(g, M, N)``."""
    phase, shift = _row_tables(c.lattice)
    rows = (c.scale * phase)[:, None, :] * c.windows[:, None, shift]
    return rows.reshape(len(c.windows), c.lattice.member_count, c.lattice.N)


def _coset_product(c: _Cosets, x: np.ndarray) -> np.ndarray:
    """``rows @ x`` for each system of the stack, ``(g, M, p)`` for an
    ``N x p`` matrix ``x``, without the rows.  The member ``(m, n)`` is
    ``scale * phase[m, t] * G_r[k, n]`` at ``t = r + k L``, and ``phase[m,
    t] = exp(2 pi i m r / L)``, so its product with ``x`` is ``scale *
    sum_r exp(2 pi i m r / L) H_r[n]`` with ``H_r = G_r^t x_r`` and ``x_r``
    the rows ``r + k L`` of ``x``: one batched product of the blocks and
    an unnormalized L-point inverse DFT over the residues ``r``."""
    lat = c.lattice
    x_r = x.reshape(lat.b, lat.n_freqs, -1).swapaxes(0, 1)
    h = c.blocks().swapaxes(-1, -2) @ x_r  # (g, L, N/a, p)
    out = np.fft.ifft(h, axis=1, norm="forward")
    out *= c.scale
    return out.reshape(len(c.windows), lat.member_count, -1)


def _coset_adjoint_factor(c: _Cosets, x: np.ndarray) -> np.ndarray:
    """``x conj(U) diag(s)`` for each system of the stack, ``(g, p, L k)``
    for a ``p x N`` matrix ``x`` or a ``(g, p, N)`` stack of them, one per
    system, without ``U``.  Column ``j`` of ``U`` is ``U_r[:, i]`` on the
    rows ``t = r + kk L`` of residue ``r = r[j]`` (``i = i[j]``), so
    column ``j`` of ``x conj(U)`` is ``x_r conj(U_r[:, i])`` with ``x_r``
    the columns ``r + kk L`` of ``x``: one batched product of the ``x_r``
    with the conjugated block vectors, gathered in triple order."""
    x_r = x.reshape(*x.shape[:-1], c.lattice.b, c.lattice.n_freqs)
    x_r = np.moveaxis(x_r, -1, -3)  # ([g,] L, p, b)
    prod = x_r @ np.conj(c.block_u())  # (g, L, p, k)
    stack = np.arange(len(c.windows))[:, None]
    return prod[stack, c.r, :, c.i].swapaxes(-1, -2) * c.s[:, None, :]


def _coset_columns(c: _Cosets, t: np.ndarray) -> np.ndarray:
    """The columns ``t`` of the member rows of the first system of the
    stack, ``(M, p)``: ``rows @ x`` for the ``x`` whose columns are the
    coordinate vectors ``e_t``.  The member ``(m, n)`` at time ``t`` is
    ``scale * phase[m, t] * window[(t - n a) mod N]``, its phase evaluated
    (``_modulation``) and multiplied as ``_assemble_rows`` does, so every
    entry is bitwise the assembled one; no row table, block product or
    DFT is built."""
    lat = c.lattice
    shift = (t - np.arange(lat.n_times)[:, None] * lat.a) % lat.N
    cols = (c.scale * _modulation(lat, t))[:, None, :] * c.windows[0][shift]
    return cols.reshape(lat.member_count, len(t))


def _coset_adjoint_rows(c: _Cosets, t: np.ndarray) -> np.ndarray:
    """The rows ``t`` of ``conj(U) diag(s)`` of the first system of the
    stack, ``(p, L k)``: ``x conj(U) diag(s)`` for the ``x`` whose rows are
    the coordinate vectors ``e_t``.  Row ``t = r + kk L`` of ``U`` holds
    ``U_r[kk, i[j]]`` in the columns ``j`` of residue ``r[j] == r`` and
    zero in the others; ``U_r[kk] = u_d[base[r]][rows[r, kk]]`` is read
    off the distinct block's left vectors through the orbit table, with
    no product and no ``U``."""
    base, rows, _ = _coset_orbits(c.lattice)
    kk, r = np.divmod(t, c.lattice.n_freqs)
    res, i = c.r[0], c.i[0]
    out = np.conj(c.factors[0][0][base[r, None], rows[r, kk][:, None], i])
    out *= c.s[0]
    out[res != r[:, None]] = 0.0
    return out


def _coset_gram_norm(
    c: _Cosets, x: Optional[np.ndarray] = None, start: int = 0
) -> float:
    """``||x F^*||_F`` for the first system of the stack and a ``p x N``
    matrix ``x``, from the block vectors.  ``x F^* = x conj(U) diag(s)
    conj(Vh)`` and ``Vh`` has orthonormal rows, so this is the norm of
    ``x conj(U) diag(s)``, whose columns of residue ``r`` are ``x_r
    conj(U_r) diag(s_r)``: its squares are summed over each block's
    columns, then over the residues, then over the rows of ``x``.

    ``x = None`` stands for the rows ``e_t``, ``t >= start``, of the
    identity, whose norm is that of the members at those times.  The row
    of ``e_t``, ``t = r + kk L``, is ``conj(U_r[kk]) diag(s_r)`` on its
    own residue and zero on every other, which the product with an
    explicit ``e_t`` gives exactly, so it is summed the same way and both
    give the same norm bit for bit."""
    L = c.lattice.n_freqs
    u_r = c.block_u()[0]  # (L, b, k)
    s_r = np.empty(u_r.shape[::2])  # (L, k)
    s_r[c.r[0], c.i[0]] = c.s[0]
    if x is None:
        t = np.arange(start, c.lattice.N)
        r = t % L
        y = (np.conj(u_r[r, t // L]) * s_r[r])[None]  # (1, p, k)
    else:
        x_r = x.reshape(len(x), c.lattice.b, L).transpose(2, 0, 1)
        y = (x_r @ np.conj(u_r)) * s_r[:, None, :]  # (L, p, k)
    # squares and sums taken elementwise and along fixed axes, so an entry
    # is rounded the same wherever it sits in the array
    energy = (np.square(y.real) + np.square(y.imag)).sum(axis=-1).sum(axis=0)
    return float(np.sqrt(energy.sum()))


def _assemble_u(c: _Cosets) -> np.ndarray:
    """The left factors ``U``, ``(g, N, L k)``: ``U_r`` on the rows of
    residue ``r``."""
    g, count = c.r.shape
    stack, col = np.arange(g)[:, None], np.arange(count)
    # U[(kk, r'), j] = U_r[kk, i] when r' == r, else 0
    u = np.zeros((g, c.lattice.b, c.lattice.n_freqs, count), dtype=np.complex128)
    u[stack, :, c.r, col] = c.block_u()[stack, c.r, :, c.i]
    return u.reshape(g, c.lattice.N, count)


def _assemble_vh(c: _Cosets) -> np.ndarray:
    """The right factors ``Vh``, ``(g, L k, M)``: one row per triple, the
    coset phases of its residue times its block's right vector, read off
    its distinct block's through the orbit table."""
    g, count = c.r.shape
    stack = np.arange(g)[:, None, None]
    base, _, cols = _coset_orbits(c.lattice)
    r, i = c.r[..., None], c.i[..., None]
    vh_r = c.factors[1][stack, base[r], i, cols[c.r]]  # (g, L k, N/a)
    vh = _coset_phases(c.lattice)[c.r][..., None] * vh_r[..., None, :]
    return vh.reshape(g, count, c.lattice.member_count)


def _adjoint_lattice(lat: GaborLattice) -> tuple[GaborLattice, float]:
    """The adjoint lattice ``GaborLattice(N, N/b, N/a)`` of a system's
    lattice, and its scale ``kappa = sqrt(N/(a b))``."""
    kappa = float(np.sqrt(lat.N / (lat.a * lat.b)))
    return GaborLattice(lat.N, lat.n_freqs, lat.n_times), kappa


def _adjoint_cosets(windows: np.ndarray, lat: GaborLattice) -> _Cosets:
    """``_coset_svd`` on the adjoint lattice, scaled by ``kappa``: the
    adjoint factored on its own, for ``adjoint_system`` and so for
    ``duality_check``, whose Riesz bounds must not be read off the
    system's values (``_adjoint_of`` derives them for the other paths)."""
    return _coset_svd(windows, *_adjoint_lattice(lat))


def _adjoint_of(c: _Cosets) -> _Cosets:
    """The adjoint record of a system record, with no factorization of
    its own (Janssen, JFAA 1, 1995; Ron and Shen, Duke Math. J. 89,
    1997).

    The adjoint lattice has the same ``d = gcd(a, N/b)``, and its
    distinct block ``rho`` is the system's transposed with both indices
    reversed: ``G'_rho[k, n] = G_rho[(-n) mod b, (-k) mod N/a]``, as
    ``rho + k a - n N/b = rho + ((-n) mod b) N/b - ((-k) mod N/a) a``
    modulo N.  So ``G'_rho`` has the singular values of ``G_rho``, its
    left vectors are the rows of ``Vh_rho`` read as columns with their
    entries reversed, and its right vectors the columns of ``U_rho``
    read as rows with their entries reversed; the scale is ``kappa``,
    so ``s' = kappa sqrt(a) sigma = sqrt(N/b) sigma``.  The system's
    block vectors are taken (once) and the adjoint's are preset from
    them.  The adjoint's rows are still read from the windows
    (``_assemble_rows``), so a certificate built on this record checks
    the derived factors against them."""
    adj = _coset_record(c.windows, *_adjoint_lattice(c.lattice), c.sigma_d)
    u_d, vh_d = c.factors  # (g, d, b, k), (g, d, k, N/a)
    rev_k = -np.arange(c.lattice.n_times) % c.lattice.n_times
    rev_n = -np.arange(c.lattice.b) % c.lattice.b
    # a cached_property is read from the instance dict first
    adj.__dict__["factors"] = (
        vh_d.swapaxes(-1, -2)[..., rev_k, :],
        u_d.swapaxes(-1, -2)[..., rev_n],
    )
    return adj


def _checked_windows(windows: np.ndarray, N: int) -> np.ndarray:
    """A ``(g, N)`` stack of windows as complex128, after the checks every
    system makes on its window: length N, finite entries, not exactly zero
    (a small window is left to the rank rule at the caller's tolerance).
    The member rows are window entries times a scale and unit phases, so
    products taken from the coset blocks, which never build the rows,
    rest on this check; rows assembled on demand are checked again."""
    w = np.asarray(windows, dtype=np.complex128)
    if w.shape[1:] != (N,):
        raise ShapeMismatchError(f"window must have length {N}, got {w.shape[1:]}")
    if not np.isfinite(w).all():
        raise ZeroWindowError("window entries must be finite")
    if not np.any(w, axis=-1).all():
        raise ZeroWindowError("window is zero")
    return w


class _CosetFamily(VectorFamily):
    """The family of a stack of one, held as its coset record: the
    singular values are read off the blocks, ``U``, the member rows and
    ``Vh`` are each assembled on first read and cached, and products with
    the rows and with ``conj(U) diag(s)`` are taken from the blocks
    (``_coset_product``, ``_coset_adjoint_factor``), or gathered for a
    coordinate selection (``_coset_columns``, ``_coset_adjoint_rows``),
    whether or not the rows or ``U`` are built, so a result does not
    depend on what was read before.  Rows, when built, are checked like
    any family's."""

    def __init__(self, cosets: _Cosets, label: str) -> None:
        self.__dict__.update(_cosets=cosets, label=label)

    @property
    def count(self) -> int:
        return self._cosets.lattice.member_count

    @property
    def ambient_dim(self) -> int:
        return self._cosets.lattice.N

    @cached_property
    def vectors(self) -> np.ndarray:
        return _members(_assemble_rows(self._cosets)[0])

    @cached_property
    def _s(self) -> np.ndarray:
        return _read_only(self._cosets.s[0])[0]

    @cached_property
    def _us(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(_assemble_u(self._cosets)[0]) + (self._s,)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._us + _read_only(_assemble_vh(self._cosets)[0])

    def _times(self, x: np.ndarray) -> np.ndarray:
        t = _unit_positions(x.T)
        if t is not None and np.all(t >= 0):
            return _coset_columns(self._cosets, t)
        return _coset_product(self._cosets, x)[0]

    def _adjoint_factor(self, x: np.ndarray) -> np.ndarray:
        t = _unit_positions(x)
        if t is not None and np.all(t >= 0):
            return _coset_adjoint_rows(self._cosets, t)
        return _coset_adjoint_factor(self._cosets, x)[0]


def gabor_system(lattice: GaborLattice, window: np.ndarray) -> GaborSystem:
    """Generate the full system for the lattice, modulation applied after
    translation, ordered frequency-major."""
    w = _checked_windows(np.asarray(window)[None], lattice.N)
    fam = _CosetFamily(
        _coset_svd(w, lattice),
        f"gabor(N={lattice.N},a={lattice.a},b={lattice.b})",
    )
    return GaborSystem(lattice=lattice, window=w[0], family=fam)


def _adjoint_family(c: _Cosets, lat: GaborLattice) -> _CosetFamily:
    return _CosetFamily(c, f"adjoint(N={lat.N},a={lat.a},b={lat.b})")


def adjoint_system(sys: GaborSystem) -> AdjointSystem:
    """System on the adjoint lattice (time step N/b, frequency step N/a)
    scaled by kappa = sqrt(N/(a b)), factored from its own coset blocks
    (``_adjoint_cosets``), independently of the system."""
    c = _adjoint_cosets(sys.window[None], sys.lattice)
    return AdjointSystem(base=sys, kappa=c.scale, family=_adjoint_family(c, sys.lattice))


def canonical_tight_window(lattice: GaborLattice, window: np.ndarray) -> np.ndarray:
    """``S^{+1/2} window``, with ``S`` the frame operator of the system:
    the member at ``(m, n) = (0, 0)`` of the Parseval tightening ``U_r
    Vh_r``.  Column 0 of ``Vh`` is ``Vh_r[i, 0] / sqrt(L)`` at triple ``(r,
    i)`` (the coset phase of ``m = 0`` is ``1/sqrt(L)``), so the window at
    ``t = r + k L`` is the sum of ``U_r[k, i] Vh_r[i, 0] / sqrt(L)`` over
    the kept triples of block ``r``: no rows, ``U`` or ``Vh`` is built,
    and of the right block vectors only the column ``Vh_r[:, 0]`` is read,
    off the distinct block's through the orbit table.  ``S`` commutes
    with the lattice's time-frequency shifts, so the system on the
    returned window is Parseval for the span of the original one; this
    function does not re-analyze it."""
    c = _coset_svd(_checked_windows(np.asarray(window)[None], lattice.N), lattice)
    rank = _span_rank(c.s[0], DEFAULT_TOL)
    base, _, cols = _coset_orbits(lattice)
    u_r, vh_d = c.block_u()[0], c.factors[1][0]
    coef = np.zeros(u_r.shape[::2], dtype=np.complex128)  # (L, k)
    r, i = c.r[0, :rank], c.i[0, :rank]
    coef[r, i] = vh_d[base[r], i, cols[r, 0]] / np.sqrt(lattice.n_freqs)
    return (u_r @ coef[..., None])[..., 0].T.reshape(lattice.N)


@dataclass(frozen=True)
class DualityReport:
    frame_bounds: tuple[float, float]
    riesz_bounds: tuple[float, float]
    system_is_frame: bool
    adjoint_is_riesz: bool
    bounds_agree: bool
    match: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def duality_check(sys: GaborSystem, tol: Tolerance = DEFAULT_TOL) -> DualityReport:
    """Frame bounds of the system versus Riesz bounds of the adjoint.

    Riesz bounds are the extreme eigenvalues of the adjoint Gram matrix
    (computed from singular values of the synthesis; an adjoint with more
    members than the dimension gets a zero lower bound).  The adjoint is a
    Riesz sequence when its rank, by the rank rule ``analyze`` applies to
    the system, equals its member count.  ``match`` holds when frame-ness
    and Riesz-ness agree and, if both hold, the bounds coincide within
    tolerance.
    """
    sa = analyze(sys.family, tol)
    adj = adjoint_system(sys)
    sigma = adj.family._s
    count = adj.family.count
    upper = float(sigma[0] ** 2)
    lower = float(sigma[-1] ** 2) if count <= sys.lattice.N else 0.0
    is_riesz = adj.family.rank(tol) == count
    is_frame = sa.is_frame_for_ambient
    fb = (sa.lower_bound, sa.upper_bound)
    rb = (lower, upper)
    if is_frame and is_riesz:
        scale = max(fb[1], rb[1])
        agree = (
            abs(fb[0] - rb[0]) <= tol.threshold(scale)
            and abs(fb[1] - rb[1]) <= tol.threshold(scale)
        )
    else:
        agree = False
    match = (is_frame == is_riesz) and (agree or not is_frame)
    return DualityReport(
        frame_bounds=fb,
        riesz_bounds=rb,
        system_is_frame=is_frame,
        adjoint_is_riesz=is_riesz,
        bounds_agree=agree,
        match=match,
    )


@dataclass(frozen=True)
class TightDualResult:
    """The tight pipeline's ``v`` and certificate, the padded slots of the
    adjoint, ``range(a b, M)``, written to a report as its two ends ``[a
    b, M]``, and the padded dual-commutation residual."""

    v: VectorFamily
    certificate: WeakRDualCertificate
    padding_positions: range
    padded_dual_commutation_residual: float

    def to_json_dict(self) -> dict:
        pad = self.padding_positions
        return {
            "certificate": self.certificate.to_json_dict(),
            "padding_positions": [pad.start, pad.stop],
            "padded_dual_commutation_residual": self.padded_dual_commutation_residual,
            "v_count": self.v.count,
        }


def tight_gabor_weak_r_dual(
    sys: GaborSystem,
    u: Optional[VectorFamily] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> TightDualResult:
    """Weak R-dual pipeline for a tight, redundant system.

    The adjoint family (a Riesz sequence by duality) is read as
    zero-padded to the system count; the characterizing sequence is
    Parseval for the adjoint span, the span deficit is strictly below the
    kernel dimension, and the isometric extension produces a Parseval,
    non-orthonormal ``v``.  The certificate identities are evaluated on
    the unpadded adjoint slots; the padded dual-commutation residual is
    recorded as the documented obstruction.

    ``u`` defaults to the standard basis padded with zeros to the system
    count; its members at the unpadded slots must be orthonormal for the
    characterizing sequence to come out Parseval.
    """
    lat = sys.lattice
    # frame and tight by the rules of ``analyze``, on the system's values
    s = sys.family._s
    rank = _span_rank(s, tol)
    if rank != lat.N or not _is_tight(float(s[0]), float(s[rank - 1]), tol):
        raise NotTightError("system is not a tight frame for the ambient space")
    if lat.redundancy <= 1.0:
        raise CriticalDensityError(
            "redundancy must exceed 1; at critical density only the"
            " orthonormal (R-dual) promotion applies"
        )
    m_count = lat.member_count
    k_count = lat.adjoint_count
    # the default u, e_0, ..., e_{N-1} padded with zeros, is exactly Parseval,
    # and the tail norm ||U_tail F^*||_F of its rows e_K, ... is the norm of
    # the system's members at the times t >= K, summed as for explicit rows
    if u is None:
        u_head = np.eye(k_count, lat.N, dtype=np.complex128)
        label = f"standard-basis-{lat.N}x{m_count}"
        tail_norm = _coset_gram_norm(sys.family._cosets, start=k_count)
    elif u.count != m_count or u.ambient_dim != lat.N:
        raise ShapeMismatchError(
            f"u must have {m_count} members of dimension {lat.N}"
        )
    else:
        # zero members add nothing to S_u or the tail norm, so the gate and
        # the tail read u's nonzero members (u itself if it has none)
        positions = np.flatnonzero(np.any(u.vectors, axis=1))
        rows, label = u.vectors[positions], u.label
        _gate_ambient_parseval(VectorFamily._factored(rows) if rows.size else u, tol)
        u_head = u.vectors[:k_count]
        tail_norm = _coset_gram_norm(sys.family._cosets, rows[positions >= k_count])
    u_slice = VectorFamily._factored(u_head, label=f"{label}[:{k_count}]")

    w0 = _adjoint_family(_adjoint_of(sys.family._cosets), lat)
    side = dual_side(w0, sys.family, u_slice, tol)
    # the canonical dual of the padded adjoint [W; 0] is [W~; 0], so its
    # dual-commutation residual is the unpadded one with the tail's norm
    padded_res = np.hypot(side.dual_res, tail_norm)
    label = f"tight-v({sys.family.label})"
    v = _isometric_extension_v(side, orthonormal=False).relabel(label)
    return TightDualResult(
        v=v,
        certificate=_certificate(side, v),
        padding_positions=range(k_count, m_count),
        padded_dual_commutation_residual=float(padded_res),
    )


@dataclass(frozen=True)
class PromotionResult:
    v_prime: VectorFamily
    certificate: WeakRDualCertificate


def promote_to_r_dual(
    w: VectorFamily,
    f: VectorFamily,
    u: VectorFamily,
    tol: Tolerance = DEFAULT_TOL,
    v: Optional[VectorFamily] = None,
) -> PromotionResult:
    """Promote a weak R-dual with a Riesz-sequence ``w`` to an R-dual.

    Finite gate, checked first: the orthonormal ``v'`` needs member count
    equal to the ambient dimension (the gate of ``build_orthonormal_v``),
    which for Gabor systems happens exactly at critical density;
    redundant systems report the gate as the documented
    finite-dimensional obstruction.  When ``v`` is supplied, its
    certificate must pass.
    """
    _gate_onb_count(w)
    if not analyze(w, tol).is_riesz_sequence:
        raise HypothesisFailedError("w must be a Riesz sequence")
    side = dual_side(w, f, u, tol)
    if v is not None and not _certificate(side, v).passes():
        raise HypothesisFailedError("the supplied v does not certify as a weak R-dual")
    v_prime = _isometric_extension_v(side, orthonormal=True)
    cert = _certificate(side, v_prime)
    if cert.verdict != "RDual":
        raise HypothesisFailedError(
            f"promotion did not reach an R-dual verdict: {cert.verdict}"
        )
    return PromotionResult(v_prime=v_prime, certificate=cert)


# ----------------------------------------------------------------------
# Exploration harness
# ----------------------------------------------------------------------


def divisor_lattices(N: int, critical: Optional[bool] = None) -> list[GaborLattice]:
    """All divisor lattices of Z_N, optionally filtered by criticality."""
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    out = []
    for a in divisors:
        for b in divisors:
            lat = GaborLattice(N, a, b)
            if critical is None or (lat.redundancy == 1.0) == critical:
                out.append(lat)
    return out


def _spectra(s: np.ndarray, rank: np.ndarray) -> list[list[float]]:
    """Per row of a stack of descending singular values and its ranks:
    the nonzero eigenvalues of the frame operator, ascending."""
    return [(row[:r][::-1] ** 2).tolist() for row, r in zip(s, rank)]


def _window_hash(window: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(window).tobytes()).hexdigest()[:16]


def _gated_evidence(lat: GaborLattice, f: _Cosets, tol: Tolerance) -> list[dict]:
    """Adjoint spectrum, witness and candidate record of frames that are
    not tight, stacked over the coset record ``f`` of their systems: the
    block vectors of ``f``, from which their adjoints (the unpadded
    ``w0``) take theirs (``_adjoint_of``).  The candidate
    ``conjugated_dual`` is the conjugated Parseval tightening of ``w0``,
    built from the w-only part (span basis, canonical dual factor,
    Parseval tightening), and its dual side is one call of
    ``_span_coordinates`` on the a b unpadded slots, its factor ``U
    conj(U_f) diag(s_f)`` taken from the systems' blocks for the stack
    of candidates at once (``_coset_adjoint_factor``), so no system's
    ``U`` is built.  Its padded members would be zero, so its padded
    dual-commutation residual is the unpadded one.  It is a partial
    isometry, so its Parseval residual is read off the rank."""
    w = _adjoint_of(f)
    w_rows, w_u, w_s, w_vh = _assemble_rows(w), _assemble_u(w), w.s, _assemble_vh(w)
    # the w-only part from the rank-r factors, padded to a common width
    # with zeros: the span basis q = U_r, the canonical dual factor
    # diag(1/s_r) Vh_r and the Parseval tightening U_r Vh_r (a synthesis);
    # in span coordinates the identity is the diagonal rank mask
    w_rank = singular_rank(w_s, tol)
    keep = (np.arange(w_s.shape[-1]) < w_rank[:, None])[:, None, :]
    q = np.where(keep, w_u, 0)
    inv_vh = np.divide(
        w_vh, w_s[..., None], out=np.zeros_like(w_vh), where=keep.swapaxes(-1, -2)
    )
    span_eye = np.eye(w_s.shape[-1]) * keep
    u_syn = np.conj(q @ w_vh)

    a = _coset_adjoint_factor(f, u_syn.swapaxes(-1, -2))
    _, _, dual_res, dual_ok, pars_res, pars_ok = _span_coordinates(
        q, inv_vh, w_rows, a, span_eye, tol
    )
    ok = dual_ok & pars_ok
    # S_u = conj(q q^*) projects onto a rank-r space: ||S_u - I||_F = sqrt(N - r)
    u_pars = np.sqrt(lat.N - w_rank)

    return [
        {
            "adjoint_spectrum": spectrum,
            "witness": {
                "verdict": "Gated",
                "reason": "adjoint span is proper in the ambient space",
            },
            "candidates": [
                {
                    "name": "conjugated_dual",
                    "verdict": "ConditionsHold" if ok[i] else "ConditionsFail",
                    "dual_commutation_residual": float(dual_res[i]),
                    "projected_parseval_residual": float(pars_res[i]),
                    "u_parseval_residual": float(u_pars[i]),
                }
            ],
        }
        for i, spectrum in enumerate(_spectra(w_s, w_rank))
    ]


def _evaluate_trials(
    lat: GaborLattice,
    windows: Sequence[np.ndarray],
    tol: Tolerance,
) -> list[dict]:
    """Evidence records for trials that share one lattice, evaluated
    together; the evaluator of ``evaluate_exploration_trial`` (one trial)
    and ``run_exploration`` (the trials of a lattice).  The verdict stage
    reads rank, frame and tightness off the systems' singular values
    alone, by the rules of ``analyze``, so ``NotFrame`` and ``Tight`` trials
    build no system.  Every stacked step acts on each trial separately,
    so a record does not depend on the other trials evaluated with it."""
    if lat.redundancy == 1.0:
        raise CriticalDensityError(
            "exploration samples non-critical lattices; at critical density"
            " use promote_to_r_dual"
        )
    cosets = _coset_svd(_checked_windows(windows, lat.N), lat)
    s = cosets.s
    rank = _span_rank(s, tol)
    tight = _is_tight(s[:, 0], s[np.arange(len(s)), rank - 1], tol)
    verdicts = [
        "NotFrame" if r < lat.N else "Tight" if is_tight else "Gated"
        for r, is_tight in zip(rank, tight)
    ]
    records = [
        {
            "N": lat.N,
            "a": lat.a,
            "b": lat.b,
            "redundancy": lat.redundancy,
            "window_hash": _window_hash(window),
            "schema_version": SCHEMA_VERSION,
            "system_spectrum": spectrum,
            "verdict": verdict,
        }
        for window, spectrum, verdict in zip(windows, _spectra(s, rank), verdicts)
    ]
    gated = [i for i, verdict in enumerate(verdicts) if verdict == "Gated"]
    if gated:
        for i, extra in zip(gated, _gated_evidence(lat, cosets.take(gated), tol)):
            records[i].update(extra)
    return records


def evaluate_exploration_trial(
    lattice: GaborLattice,
    window: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """Evidence record for one non-critical (lattice, window) pair: the
    exploration's evaluator on a group of one.

    Critical lattices (ab = N) raise ``CriticalDensityError``: there the
    adjoint is a Riesz basis and ``promote_to_r_dual`` settles the
    question.  Systems with ab > N are tagged ``NotFrame`` and tight
    systems ``Tight`` (the tight pipeline settles them).  Any other frame
    has ab < N, so its adjoint (ab members) spans a proper subspace and
    the spectral witness test, which needs two invertible frame
    operators, is recorded as ``Gated``; the ``conjugated_dual`` candidate
    record is the evidence.
    """
    return _evaluate_trials(lattice, [window], tol)[0]


def _trial_states(seed: int, trials: int) -> np.ndarray:
    """The PCG64 seed of every trial, one row each: row ``t`` is
    ``np.random.SeedSequence([seed, t]).generate_state(4, np.uint64)``,
    the state ``default_rng([seed, t])`` starts from.  It is numpy's
    SeedSequence mixing run once over all trials in uint32 arithmetic
    (which wraps as the scalar code does): the entropy words are the
    uint32 words of ``seed`` and the one word ``t``, hashed into a pool
    of four words, cross-mixed, joined by the words past the fourth, and
    hashed out to eight words, read as four little-endian uint64.  Every
    operand is an array, so no overflow warning is raised."""
    seed = operator.index(seed)
    words = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.array([w], np.uint32) for w in words]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hash_const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return value ^ value >> np.uint32(16)

    zero = np.zeros(1, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    hash_const, mult = 0x8B51F9DD, 0x58F38DED
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _fixed_seed_type() -> type:
    """An ``ISeedSequence`` that hands its bit generator one precomputed
    state, built on first use so that importing this module does not
    import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        # PCG64 asks for four uint64 words, which ``state`` holds
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedSeed


def run_exploration(
    N_values: Sequence[int],
    seed: int = 0,
    trials: int = 100,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """Randomized evidence gathering over non-critical divisor lattices.

    Each trial draws its lattice and window from its own generator,
    seeded by ``(seed, trial index)`` and dropped after the draw, so
    reports are byte-identical for a fixed configuration and independent
    of evaluation order.  The generator of trial ``t`` is a PCG64 started
    from ``_trial_states(seed, trials)[t]``, the state of
    ``np.random.default_rng([seed, t])``; the states of all trials come
    from one vectorized pass, so ``trials`` may be at most 2**32 (one
    uint32 word per trial index).  Every trial is drawn first, its window
    kept as the ``2 N`` normal draws of its real and imaginary parts; the
    trials are then evaluated lattice by lattice, each lattice's windows
    built as one stack, each divided by its own norm, and evaluated
    together, dropped once evaluated, and the records come back in trial
    order.  No claim is made beyond the recorded evidence.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials > 2**32:
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    N_values = list(N_values)
    if not N_values:
        raise BadLatticeError("no N values to explore")
    if len(set(N_values)) != len(N_values):
        raise ValueError(f"N values must be distinct, got {N_values}")
    lattices = {N: divisor_lattices(N, critical=False) for N in N_values}
    for N, options in lattices.items():
        if not options:
            raise BadLatticeError(f"N={N} has no non-critical divisor lattice")
    manifest = [
        {"N": lat.N, "a": lat.a, "b": lat.b}
        for N in sorted(lattices)
        for lat in lattices[N]
    ]
    fixed_seed = _fixed_seed_type()
    groups: dict[GaborLattice, list[tuple[int, np.ndarray]]] = {}
    for t, state in enumerate(_trial_states(seed, trials)):
        rng = np.random.Generator(np.random.PCG64(fixed_seed(state)))
        n_val = N_values[int(rng.integers(0, len(N_values)))]
        options = lattices[n_val]
        lat = options[int(rng.integers(0, len(options)))]
        groups.setdefault(lat, []).append((t, rng.standard_normal(2 * lat.N)))
    trial_records: list = [None] * trials
    for lat in list(groups):
        ts, draws = zip(*groups.pop(lat))
        z = np.stack(draws)
        windows = np.empty((len(z), lat.N), dtype=np.complex128)
        windows.real, windows.imag = z[:, : lat.N], z[:, lat.N :]
        # one norm per row: a norm over the stack would sum in another order
        windows /= np.array([np.linalg.norm(w) for w in windows])[:, None]
        for t, rec in zip(ts, _evaluate_trials(lat, windows, tol)):
            rec["trial"] = t
            trial_records[t] = rec
    counts = Counter(rec["verdict"] for rec in trial_records)
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "trials": trials,
        "N_values": list(N_values),
        "lattice_manifest": manifest,
        "verdict_counts": dict(sorted(counts.items())),
        "records": trial_records,
    }
