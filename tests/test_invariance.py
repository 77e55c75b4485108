"""Verdicts that the mathematics says cannot change.

The weak R-dual identities are homogeneous in (w, f) and are built from
inner products alone, so no decision of a certificate may change when
(w, f) is scaled, when one unitary is applied to every family, when the
indices paired with each other are permuted together, or when every
family is conjugated entrywise; and the direct verdict must keep
agreeing with the characterization verdict.  The instances are
positives (``v`` the commuting Parseval family of ``f``), negatives (``v``
perturbed and re-tightened, or ``w`` perturbed) and the tight Gabor
pipeline.
"""

from functools import lru_cache, partial

import numpy as np
import pytest

from helpers import weak_dual_instance
from framedual import VectorFamily
from framedual.errors import FrameDualError
from framedual.frames import analyze, parseval_tighten, random_unitary
from framedual.gabor import (
    GaborLattice,
    _evaluate_trials,
    adjoint_system,
    canonical_tight_window,
    gabor_system,
    tight_gabor_weak_r_dual,
)
from framedual.numerics import DEFAULT_TOL, Tolerance
from framedual.rduality import (
    _certificate,
    characterizing_sequence_bounds,
    dual_side,
    weak_r_dual,
)

# c = 2^k scales exactly in floating point
SCALES = [2.0**k for k in range(-40, 41)]

# (kind, perturbed family, noise, dim, count, seed)
CASES = [
    *(("positive", "", 0.0, n, m, s) for n, m, s in ((2, 3, 1), (3, 5, 2), (4, 6, 3))),
    *(
        ("negative", fam, noise, n, m, s)
        for fam, seeds in (("v", (4, 5, 6)), ("w", (7, 8, 9)))
        for noise in (1e-3, 1e-6)
        for (n, m), s in zip(((2, 3), (3, 5), (4, 6)), seeds)
    ),
    ("gabor", "", 0.0, 12, 36, 7),
]
EXPECTED = {"positive": "WeakRDual", "negative": "NotWeakRDual", "gabor": "WeakRDual"}


def _case_id(case):
    kind, fam, noise, dim, count, seed = case
    return f"{kind}{fam and '-' + fam}-{noise:g}-{dim}x{count}-seed{seed}"


def _floor_scaled(c: float) -> Tolerance:
    """The default tolerance with its floor in the units of inputs scaled
    by ``c``."""
    return Tolerance(abs_floor=DEFAULT_TOL.abs_floor * min(1.0, c))


def _tight_window(seed: int) -> tuple[GaborLattice, np.ndarray]:
    lat = GaborLattice(12, 2, 2)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(lat.N) + 1j * rng.standard_normal(lat.N)
    return lat, canonical_tight_window(lat, g)


def _perturbed(rng, fam: VectorFamily, noise: float) -> VectorFamily:
    shape = fam.vectors.shape
    e = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return VectorFamily(fam.vectors + noise * e / np.linalg.norm(e))


@lru_cache(maxsize=None)
def _quadruple(case) -> tuple[VectorFamily, ...]:
    """``(w, f, u, v)`` of a case.  A negative takes a positive and either
    perturbs ``v``, re-tightens it and synthesizes ``w`` from it (the
    commutation fails), or perturbs ``w`` (the synthesis fails).  The
    Gabor case is the quadruple the tight pipeline certifies: the adjoint
    system, the system, the leading standard basis vectors and the
    constructed ``v``."""
    kind, fam, noise, dim, count, seed = case
    rng = np.random.default_rng(seed)
    if kind == "gabor":
        lat, g = _tight_window(seed)
        sys = gabor_system(lat, g)
        res = tight_gabor_weak_r_dual(sys)
        u = np.eye(lat.adjoint_count, lat.N)
        w0 = adjoint_system(sys).family
        return tuple(
            VectorFamily(x) for x in (w0.vectors, sys.family.vectors, u, res.v.vectors)
        )
    w, f, u, v, _ = weak_dual_instance(rng, dim, count)
    if fam == "v":
        v = parseval_tighten(_perturbed(rng, v, noise))
        w, _ = weak_r_dual(f, u, v)
    elif fam == "w":
        w = _perturbed(rng, w, noise)
    return w, f, u, v


def _decisions(quad, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Both verdicts of the certificate on ``(w, f, u, v)`` and the two
    dual-side decisions the constructions gate on (the dual commutation,
    and the characterizing sequence Parseval for span{w}).  The
    certificate is that of ``certify_weak_r_dual`` without its equal-count
    check, so the Gabor quadruple (a b adjoint members, N^2/(a b) system
    members) is read as the pipeline reads it."""
    w, f, u, v = quad
    side = dual_side(w, f, u, tol)
    cert = _certificate(side, v)
    return cert.verdict, cert.characterization_verdict, side.dual_ok, side.parseval_ok


def _transformed(quad, w=None, f=None, u=None, v=None):
    """The quadruple with each member array mapped by its function (the
    identity where none is given)."""
    return tuple(
        VectorFamily(fn(fam.vectors) if fn else fam.vectors)
        for fam, fn in zip(quad, (w, f, u, v))
    )


@pytest.fixture(params=CASES, ids=_case_id)
def case(request):
    quad = _quadruple(request.param)
    decisions = _decisions(quad)
    expected = EXPECTED[request.param[0]]
    assert decisions[:2] == (expected, expected)
    return quad, decisions


def test_scaling_w_and_f(case):
    quad, decisions = case
    flipped = []
    for c in SCALES:
        times_c = partial(np.multiply, c)
        scaled = _decisions(_transformed(quad, w=times_c, f=times_c), _floor_scaled(c))
        if scaled != decisions:
            flipped.append((c, scaled))
    assert flipped == []


def test_one_unitary_on_every_family(case):
    quad, decisions = case
    n = quad[0].ambient_dim
    rng = np.random.default_rng(n)
    for _ in range(3):
        q = random_unitary(rng, n)

        def rotate(x):
            return x @ q.T

        assert _decisions(_transformed(quad, *[rotate] * 4)) == decisions


def test_consistent_permutations(case):
    # f pairs with v and w with u, so each pair shares one permutation
    quad, decisions = case
    rng = np.random.default_rng(quad[1].count)
    for _ in range(3):
        pi = rng.permutation(quad[1].count)
        sigma = rng.permutation(quad[0].count)

        def by_pi(x):
            return x[pi]

        def by_sigma(x):
            return x[sigma]

        permuted = _transformed(quad, w=by_sigma, f=by_pi, u=by_sigma, v=by_pi)
        assert _decisions(permuted) == decisions


def test_entrywise_conjugation(case):
    quad, decisions = case
    assert _decisions(_transformed(quad, *[np.conj] * 4)) == decisions


def _bounds_outcome(w, f, u, tol: Tolerance):
    """The sandwich decision of ``characterizing_sequence_bounds``, or the
    type of the error it raises (its Gram invariance gate rejects a
    perturbed ``w``; the Gabor counts do not pair up)."""
    try:
        return characterizing_sequence_bounds(w, f, u, tol).sandwich_ok
    except FrameDualError as exc:
        return type(exc).__name__


def test_gram_invariance_gate_under_scaling(case):
    (w, f, u, _), _ = case
    outcome = _bounds_outcome(w, f, u, DEFAULT_TOL)
    flipped = []
    for c in SCALES:
        w_c, f_c = VectorFamily(c * w.vectors), VectorFamily(c * f.vectors)
        scaled = _bounds_outcome(w_c, f_c, u, _floor_scaled(c))
        if scaled != outcome:
            flipped.append((c, scaled))
    assert flipped == []


def test_tight_gabor_pipeline_under_scaling():
    # the pipeline from the window: the system and its adjoint scale with
    # the window, u and the constructed v do not
    lat, g = _tight_window(7)
    flipped = []
    for c in SCALES:
        sys = gabor_system(lat, c * g)
        cert = tight_gabor_weak_r_dual(sys, tol=_floor_scaled(c)).certificate
        verdicts = cert.verdict, cert.characterization_verdict
        if verdicts != ("WeakRDual", "WeakRDual"):
            flipped.append((c, verdicts))
    assert flipped == []


def _tightness_ratio(lat: GaborLattice, window: np.ndarray) -> float:
    """``(s_max - s_min) / s_max`` of the system's singular values, the
    quantity the tightness rule compares with ``rel_eps``."""
    s = gabor_system(lat, window).family._s
    return float((s[0] - s[-1]) / s[0])


@pytest.mark.parametrize("c", [1.0, 2.0**40, 2.0**-40, 2.0**-50])
def test_non_tight_system_stays_not_tight_under_scaling(c):
    # frame bounds 19.5 and 71.7: with the floor scaled with the window,
    # a rule on the squares (degree 2) against a floor of degree 1 called
    # this system tight at 2^-50
    lat = GaborLattice(12, 2, 2)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    a = analyze(gabor_system(lat, c * g).family, Tolerance(abs_floor=1e-12 * c))
    assert (a.lower_bound / c**2, a.upper_bound / c**2) == (
        pytest.approx(19.5, abs=0.05), pytest.approx(71.7, abs=0.05)
    )
    assert a.is_tight is False


@lru_cache(maxsize=None)
def _straddling_window(lo: float, hi: float) -> np.ndarray:
    """A canonical tight window on N = 12, a = b = 2, moved along one fixed
    direction by a step bisected until its tightness ratio lies in ``[lo,
    hi]`` times the default ``rel_eps``."""
    lat, g = _tight_window(7)
    h = np.random.default_rng(8).standard_normal(12) + 0j
    band = lo * DEFAULT_TOL.rel_eps, hi * DEFAULT_TOL.rel_eps
    small, large = 0.0, 1.0
    for _ in range(100):
        step = 0.5 * (small + large)
        ratio = _tightness_ratio(lat, g + step * h)
        if band[0] <= ratio <= band[1]:
            return g + step * h
        small, large = (step, large) if ratio < band[0] else (small, step)
    raise AssertionError(f"no step puts the ratio in {band}")


@pytest.mark.parametrize("c", [1.0, 2.0**40, 2.0**-40])
def test_tightness_decision_straddling_its_threshold(c):
    # one window just inside the rule (0.5 to 0.8 of rel_eps) and one just
    # outside it (1.25 to 2 times): analyze and the stacked verdict stage
    # of the exploration decide both alike, at every scale
    lat = GaborLattice(12, 2, 2)
    tol = Tolerance(abs_floor=DEFAULT_TOL.abs_floor * c)
    windows = [c * _straddling_window(0.5, 0.8), c * _straddling_window(1.25, 2.0)]
    tight = [analyze(gabor_system(lat, w).family, tol).is_tight for w in windows]
    verdicts = [rec["verdict"] for rec in _evaluate_trials(lat, windows, tol)]
    assert tight == [True, False]
    assert verdicts == ["Tight", "Gated"]
