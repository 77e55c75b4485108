"""Gram-invariance condition, characterizing-sequence bounds, the
necessity identity, and the completeness implication."""

import numpy as np
import pytest

from helpers import fam, trio, trio_parseval, unit
from framedual import VectorFamily
from framedual.errors import HypothesisFailedError, NotParsevalError
from framedual.frames import analyze, random_frame, random_parseval, random_unitary
from framedual.numerics import Tolerance
from framedual.rduality import (
    characterizing_sequence_bounds,
    completeness_implies_invariance,
    dual_side,
    gram_invariance_residual,
    synthesized_gram_invariance_residual,
)


def _onb(n):
    return VectorFamily(np.eye(n, dtype=complex), label=f"onb{n}")


class TestGramInvarianceResidual:
    def test_orthonormal_u_always_passes(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            q = random_unitary(rng, n)
            u = VectorFamily(q.T, label="onb")
            w = random_frame(rng, n, n)
            assert gram_invariance_residual(u, w) <= 1e-10

    def test_repeated_family_fixture(self):
        assert gram_invariance_residual(trio_parseval(), trio()) <= 1e-12

    def test_sign_alternating_family_fails(self):
        n = 6
        r2 = np.sqrt(2.0)
        u = fam(
            [unit(n, 0) / r2, unit(n, 0) / r2, unit(n, 1) / r2, unit(n, 1) / r2],
            label="u",
        )
        w = fam(
            [unit(n, 1) / r2, unit(n, 2) / r2, unit(n, 1) / r2, -unit(n, 2) / r2],
            label="w",
        )
        res = gram_invariance_residual(u, w)
        assert res > 1e-3


class TestCharacterizingSequenceBounds:
    def test_orthonormal_triple(self):
        res = characterizing_sequence_bounds(_onb(2), _onb(2), _onb(2))
        assert res.lower == pytest.approx(1.0)
        assert res.upper == pytest.approx(1.0)
        assert res.sandwich_ok

    def test_repeated_family_fixture(self):
        res = characterizing_sequence_bounds(trio(), trio(), trio_parseval())
        assert res.lower == pytest.approx(1.0)
        assert res.upper == pytest.approx(1.0)
        assert res.sandwich_lower == pytest.approx(0.5)
        assert res.sandwich_upper == pytest.approx(2.0)
        assert res.sandwich_ok

    def test_random_instances_with_orthonormal_u(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = random_frame(rng, n, n)
            u = VectorFamily(random_unitary(rng, n).T, label="onb")
            res = characterizing_sequence_bounds(f, f, u)
            assert res.sandwich_ok

    def test_bounds_are_read_off_c(self, monkeypatch):
        # y = q c conj(Vh_f) has the singular values of c, so the bounds
        # are analyze's bounds of y, with no thin SVD of y's rows
        from framedual import frames

        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = random_frame(rng, n, n)
            u = VectorFamily(random_unitary(rng, n).T, label="onb")
            ya = analyze(dual_side(f, f, u).sequence)
            calls = []
            monkeypatch.setattr(frames, "thin_svd", lambda a: calls.append(a))
            res = characterizing_sequence_bounds(f, f, u)  # f, u already factored
            monkeypatch.undo()
            assert calls == []
            assert res.lower == pytest.approx(ya.lower_bound, rel=1e-12)
            assert res.upper == pytest.approx(ya.upper_bound, rel=1e-12)

    def test_hypothesis_gate_on_invariance(self):
        n = 6
        r2 = np.sqrt(2.0)
        u = fam(
            [unit(n, 0) / r2, unit(n, 0) / r2, unit(n, 1) / r2, unit(n, 1) / r2]
        )
        w = fam(
            [unit(n, 1) / r2, unit(n, 2) / r2, unit(n, 1) / r2, -unit(n, 2) / r2]
        )
        f = fam([unit(n, i) for i in range(4)])
        with pytest.raises(HypothesisFailedError):
            characterizing_sequence_bounds(w, f, u)

    def test_requires_spanning_f(self):
        f = fam([unit(3, 0), unit(3, 1)])
        u = fam([unit(3, 0), unit(3, 1)], label="u")
        with pytest.raises(HypothesisFailedError):
            characterizing_sequence_bounds(fam([unit(3, 0), unit(3, 1)]), f, u)

    def test_characterizing_sequence_must_span_span_w(self):
        # exactly, Gram invariance and a frame f make y span span{w}; at
        # rel_eps = 0.9 the invariance residual 0.75 of u = diag(1, 0.5)
        # against w = I passes, while the rank rule drops the singular
        # value 0.5 of y
        u = fam([[1, 0], [0, 0.5]], label="u")
        with pytest.raises(HypothesisFailedError, match="does not span span"):
            characterizing_sequence_bounds(_onb(2), _onb(2), u, Tolerance(rel_eps=0.9))


class TestSynthesizedGramInvariance:
    def test_orthonormal_triple(self):
        assert synthesized_gram_invariance_residual(_onb(2), _onb(2), _onb(2)) <= 1e-12

    def test_random_bessel_families(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = random_frame(rng, 6, 4)
            v = random_frame(rng, 6, 4)
            u = random_parseval(rng, 6, 4)
            assert synthesized_gram_invariance_residual(f, u, v) <= 1e-9

    def test_repeated_family_with_arbitrary_bessel_v(self):
        rng = np.random.default_rng(3)
        # u must be Parseval for the ambient space here, so work in C^2
        v = random_frame(rng, 3, 2)
        assert synthesized_gram_invariance_residual(trio(), trio_parseval(), v) <= 1e-9

    def test_rejects_non_parseval_u(self):
        rng = np.random.default_rng(4)
        u = random_frame(rng, 5, 3)
        with pytest.raises(NotParsevalError):
            synthesized_gram_invariance_residual(u, u, u)


class TestCompletenessImpliesInvariance:
    def test_repeated_family_fixture(self):
        assert completeness_implies_invariance(dual_side(trio(), trio(), trio_parseval()))

    def test_incomplete_characterizing_sequence_gates(self):
        n = 7
        r2 = np.sqrt(2.0)
        u = fam([unit(n, 0) / r2, unit(n, 0) / r2, unit(n, 1) / r2, unit(n, 1) / r2])
        f = fam([unit(n, 0), unit(n, 0), unit(n, 1), unit(n, 1)])
        w = fam([unit(n, 0), unit(n, 2), unit(n, 4), unit(n, 6)])
        with pytest.raises(HypothesisFailedError):
            completeness_implies_invariance(dual_side(w, f, u))

    def test_dual_commutation_gate(self):
        # five random members in C^2: Y spans span{w} = C^2, but the dual
        # commutation fails
        rng = np.random.default_rng(0)
        w, f, u = (random_frame(rng, 5, 2) for _ in range(3))
        with pytest.raises(HypothesisFailedError, match="dual commutation condition fails"):
            completeness_implies_invariance(dual_side(w, f, u))

    def test_random_passing_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            f = random_frame(rng, n, n)
            u = VectorFamily(random_unitary(rng, n).T, label="onb")
            w = random_frame(rng, n, n)
            # orthonormal u satisfies the dual commutation only if w is a
            # Riesz sequence, which random square families are
            assert analyze(w).is_riesz_sequence
            assert completeness_implies_invariance(dual_side(w, f, u))
