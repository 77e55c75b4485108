"""Gabor systems on Z_N: generation, adjoint lattice, the duality check,
the tight weak-dual pipeline, promotion, and the exploration harness."""

import gc
import json
import math
from collections import Counter

import numpy as np
import pytest

from framedual import VectorFamily, gabor
from framedual.errors import (
    BadLatticeError,
    CriticalDensityError,
    EmptySpanError,
    GateFailedError,
    HypothesisFailedError,
    NotParsevalError,
    NotTightError,
    ShapeMismatchError,
    ZeroWindowError,
)
from framedual.frames import analyze, frame_operator
from framedual.gabor import (
    GaborLattice,
    adjoint_system,
    canonical_tight_window,
    divisor_lattices,
    duality_check,
    evaluate_exploration_trial,
    gabor_system,
    promote_to_r_dual,
    run_exploration,
    tight_gabor_weak_r_dual,
)
from framedual.numerics import Tolerance
from framedual.rduality import build_orthonormal_v, cross_gram


def _delta(n):
    w = np.zeros(n, dtype=complex)
    w[0] = 1.0
    return w


def _random_window(rng, n):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w / np.linalg.norm(w)


def _replayed_draw(n_values, seed, t):
    """Lattice and window of exploration trial ``t``, drawn from
    ``default_rng([seed, t])``: the reference that ``run_exploration``'s
    draws must equal bit for bit."""
    rng = np.random.default_rng([seed, t])
    n_val = n_values[int(rng.integers(0, len(n_values)))]
    options = divisor_lattices(n_val, critical=False)
    lat = options[int(rng.integers(0, len(options)))]
    window = rng.standard_normal(lat.N) + 1j * rng.standard_normal(lat.N)
    return lat, window / np.linalg.norm(window)


# seeds of 1, 2, 4 and 7 uint32 words; 2**96 + 3 and 2**200 + 11 put
# the trial index past the four-word SeedSequence pool
_SEEDS = [0, 1, 2**32 - 1, 2**32, 123456789012, 2**96 + 3, 2**200 + 11]


def _recorded_svd(monkeypatch):
    """Wrap ``np.linalg.svd``, which every factorization goes through, to
    record the operand shape of every call and whether it computed
    vectors."""
    svd, calls = np.linalg.svd, []

    def recorded(a, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def _values_only(calls):
    return bool(calls) and not any(uv for _, uv in calls)


def _rule_windows(kind, N, rng):
    """Unit windows of one kind: three random complex or real ones, or one
    real even window, or the periodized Gaussian."""
    t = np.arange(N)
    if kind == "complex":
        windows = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(3)]
    elif kind == "real":
        windows = [rng.standard_normal(N) for _ in range(3)]
    elif kind == "real_even":
        x = rng.standard_normal(N)
        windows = [x + x[-t % N]]
    else:
        windows = [sum(np.exp(-np.pi * (t + k * N) ** 2 / N) for k in range(-2, 3))]
    return [w / np.linalg.norm(w) for w in windows]


class TestLattice:
    def test_divisibility(self):
        with pytest.raises(BadLatticeError):
            GaborLattice(4, 3, 1)
        with pytest.raises(BadLatticeError):
            GaborLattice(4, 1, 8)

    def test_modulus_must_be_positive(self):
        with pytest.raises(BadLatticeError, match="modulus must be positive"):
            GaborLattice(0, 1, 1)

    def test_redundancy_and_counts(self):
        lat = GaborLattice(4, 1, 2)
        assert lat.redundancy == pytest.approx(2.0)
        assert lat.member_count == 8
        assert lat.adjoint_count == 2

    def test_divisor_enumeration(self):
        lats = divisor_lattices(4)
        assert len(lats) == 9
        crit = divisor_lattices(4, critical=True)
        assert {(l.a, l.b) for l in crit} == {(1, 4), (2, 2), (4, 1)}


class TestGaborSystem:
    def test_two_point_delta(self):
        sys = gabor_system(GaborLattice(2, 1, 1), _delta(2))
        np.testing.assert_allclose(
            sys.family.vectors, [[1, 0], [0, 1], [1, 0], [0, -1]], atol=1e-12
        )

    def test_four_point_half_frequency(self):
        sys = gabor_system(GaborLattice(4, 1, 2), _delta(4))
        assert sys.family.count == 8
        np.testing.assert_allclose(
            frame_operator(sys.family), 2 * np.eye(4), atol=1e-12
        )

    def test_single_lattice_point(self):
        sys = gabor_system(GaborLattice(4, 4, 4), _delta(4))
        assert sys.family.count == 1
        np.testing.assert_allclose(sys.family.vectors[0], _delta(4), atol=1e-12)

    def test_equal_member_norms(self):
        rng = np.random.default_rng(0)
        w = _random_window(rng, 6)
        sys = gabor_system(GaborLattice(6, 2, 3), w)
        norms = np.linalg.norm(sys.family.vectors, axis=1)
        np.testing.assert_allclose(norms, np.linalg.norm(w), atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(1)
        for N, a, b in ((4, 2, 1), (6, 3, 2), (8, 2, 4)):
            w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            sys = gabor_system(GaborLattice(N, a, b), w)
            tr = float(np.trace(frame_operator(sys.family)).real)
            expected = sys.family.count * float(np.linalg.norm(w) ** 2)
            assert tr == pytest.approx(expected, rel=1e-10)

    def test_operator_order_swap_is_a_phase(self):
        # translation-first generation differs member-wise by unimodular
        # phases, so Gram moduli are order-invariant
        rng = np.random.default_rng(2)
        N, a, b = 6, 2, 3
        w = _random_window(rng, N)
        sys = gabor_system(GaborLattice(N, a, b), w)
        t = np.arange(N)
        swapped = []
        for m in range(N // b):
            for n in range(N // a):
                mod = np.exp(2j * np.pi * m * b * t / N)
                swapped.append(np.roll(mod * w, n * a))
        swapped_fam = VectorFamily(np.array(swapped), label="swapped")
        ratio = swapped_fam.vectors / np.where(
            np.abs(sys.family.vectors) > 1e-12, sys.family.vectors, 1.0
        )
        mags = np.abs(ratio[np.abs(sys.family.vectors) > 1e-12])
        np.testing.assert_allclose(mags, 1.0, atol=1e-10)
        np.testing.assert_allclose(
            np.abs(cross_gram(swapped_fam, swapped_fam)),
            np.abs(cross_gram(sys.family, sys.family)),
            atol=1e-10,
        )

    def test_zero_window(self):
        with pytest.raises(ZeroWindowError):
            gabor_system(GaborLattice(2, 1, 1), np.zeros(2, dtype=complex))

    def test_window_length(self):
        with pytest.raises(ShapeMismatchError):
            gabor_system(GaborLattice(4, 1, 1), _delta(2))

    def test_non_finite_window(self):
        window = _delta(4)
        window[2] = np.nan
        with pytest.raises(ZeroWindowError, match="must be finite"):
            gabor_system(GaborLattice(4, 1, 1), window)


class TestAdjointSystem:
    def test_two_point_delta(self):
        adj = adjoint_system(gabor_system(GaborLattice(2, 1, 1), _delta(2)))
        assert adj.family.count == 1
        np.testing.assert_allclose(
            adj.family.vectors[0], np.sqrt(2) * _delta(2), atol=1e-12
        )

    def test_four_point_half_frequency(self):
        adj = adjoint_system(gabor_system(GaborLattice(4, 1, 2), _delta(4)))
        assert adj.kappa == pytest.approx(np.sqrt(2))
        expected = np.zeros((2, 4), dtype=complex)
        expected[0, 0] = np.sqrt(2)
        expected[1, 2] = np.sqrt(2)
        np.testing.assert_allclose(adj.family.vectors, expected, atol=1e-12)

    def test_critical_self_adjoint(self):
        adj = adjoint_system(gabor_system(GaborLattice(4, 2, 2), _delta(4)))
        assert adj.family.count == 4
        assert adj.kappa == pytest.approx(1.0)
        # same lattice points as the base system, up to ordering
        base = {(m, n) for m in (0, 2) for n in (0, 2)}
        supports = {int(np.argmax(np.abs(v))) for v in adj.family.vectors}
        assert supports == {0, 2}


def _rolled_rows(window, N, time_step, freq_step, n_times, n_freqs, scale=1.0):
    """Reference generator: one ``np.roll`` per member."""
    t = np.arange(N)
    rows = np.empty((n_freqs * n_times, N), dtype=np.complex128)
    for m in range(n_freqs):
        phase = np.exp(2j * np.pi * m * freq_step * t / N)
        for n in range(n_times):
            rows[m * n_times + n] = scale * phase * np.roll(window, n * time_step)
    return rows


def test_generated_rows_equal_rolled_reference_on_every_lattice():
    checked = 0
    for N in range(1, 25):
        rng = np.random.default_rng(N)
        for lat in divisor_lattices(N):
            window = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            sys = gabor_system(lat, window)
            adj = adjoint_system(sys)
            a, b = lat.a, lat.b
            assert np.array_equal(
                sys.family.vectors, _rolled_rows(window, N, a, b, N // a, N // b)
            )
            assert np.array_equal(
                adj.family.vectors,
                _rolled_rows(window, N, N // b, N // a, b, a, adj.kappa),
            )
            checked += 1
    assert checked > 300


class TestDualityCheck:
    def test_half_frequency_delta(self):
        rep = duality_check(gabor_system(GaborLattice(4, 1, 2), _delta(4)))
        assert rep.frame_bounds == pytest.approx((2.0, 2.0))
        assert rep.riesz_bounds == pytest.approx((2.0, 2.0))
        assert rep.match

    def test_two_point_delta(self):
        rep = duality_check(gabor_system(GaborLattice(2, 1, 1), _delta(2)))
        assert rep.frame_bounds == pytest.approx((2.0, 2.0))
        assert rep.riesz_bounds == pytest.approx((2.0, 2.0))
        assert rep.match

    def test_random_window_bounds_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = _random_window(rng, 8)
            rep = duality_check(gabor_system(GaborLattice(8, 2, 2), w))
            assert rep.system_is_frame and rep.adjoint_is_riesz
            assert rep.bounds_agree and rep.match

    def test_riesz_verdict_uses_the_frame_rank_rule(self):
        # s_min / s_max of the adjoint is about 3e-7, inside (rel_eps,
        # sqrt(rel_eps)]: a rule on squared singular values called the
        # adjoint not Riesz although its bounds equal the frame bounds
        rng = np.random.default_rng(0)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        window = np.array([1, 0, 1, 0], dtype=complex) + 1e-6 * z
        rep = duality_check(gabor_system(GaborLattice(4, 2, 2), window))
        lower, upper = rep.riesz_bounds
        assert 1e-18 < lower / upper <= 1e-9
        assert rep.frame_bounds == rep.riesz_bounds
        assert rep.system_is_frame and rep.adjoint_is_riesz
        assert rep.bounds_agree and rep.match

    @pytest.mark.parametrize("N", [24, 96])
    def test_no_block_vectors_are_computed(self, monkeypatch, N):
        # the system and the duality check read singular values alone
        lat = GaborLattice(N, 2, 2)
        window = _random_window(np.random.default_rng(N), N)
        calls = _recorded_svd(monkeypatch)
        assert duality_check(gabor_system(lat, window)).match
        assert _values_only(calls), calls

    def test_adjoint_is_factored_on_its_own(self, monkeypatch):
        # the Riesz bounds come from a values-only SVD of the adjoint's own
        # coset blocks (N/a x b), not from the system's values; on (24, 2,
        # 3) both have d = gcd(2, 8) = 2 distinct blocks
        lat = GaborLattice(24, 2, 3)
        window = _random_window(np.random.default_rng(24), 24)
        calls = _recorded_svd(monkeypatch)
        assert duality_check(gabor_system(lat, window)).match
        assert calls == [((1, 2, 3, 12), False), ((1, 2, 12, 3), False)]

    def test_degenerate_pair_matches_statuses(self):
        # too few members to span: not a frame, and the adjoint cannot be
        # a Riesz sequence either
        rng = np.random.default_rng(4)
        rep = duality_check(gabor_system(GaborLattice(4, 4, 4), _random_window(rng, 4)))
        assert not rep.system_is_frame and not rep.adjoint_is_riesz
        assert rep.match


class TestTightPipeline:
    def test_four_point_half_frequency_delta(self):
        res = tight_gabor_weak_r_dual(gabor_system(GaborLattice(4, 1, 2), _delta(4)))
        cert = res.certificate
        assert cert.verdict == "WeakRDual"
        assert cert.synthesis_residual <= 1e-9
        assert cert.commutation_residual <= 1e-9
        assert cert.dual_commutation_residual <= 1e-9
        assert cert.projected_parseval_residual <= 1e-9
        assert not analyze(res.v).is_onb
        assert res.padding_positions == range(2, 8)
        assert res.to_json_dict()["padding_positions"] == [2, 8]
        assert res.padded_dual_commutation_residual > 1.0

    def test_adjoint_is_not_factored(self, monkeypatch):
        # the adjoint's block vectors are the system's, transposed and
        # index-reversed (gabor._adjoint_of): the pipeline factors no
        # adjoint-shaped (N/a x b) block, only the system's (b x N/a)
        # blocks for their vectors; the unpadded u is a coordinate family,
        # whose factors are read off its positions, and the dual side's
        # c is an isometry, whose rank needs no SVD
        lat = GaborLattice(24, 2, 3)
        rng = np.random.default_rng(25)
        sys = gabor_system(lat, canonical_tight_window(lat, _random_window(rng, 24)))
        calls = _recorded_svd(monkeypatch)
        assert tight_gabor_weak_r_dual(sys).certificate.verdict == "WeakRDual"
        assert calls == [((1, 2, 3, 12), True)]

    def test_two_point_delta(self):
        res = tight_gabor_weak_r_dual(gabor_system(GaborLattice(2, 1, 1), _delta(2)))
        assert res.certificate.passes()
        assert not analyze(res.v).is_onb

    def test_custom_orthonormal_head(self):
        rng = np.random.default_rng(5)
        lat = GaborLattice(4, 1, 2)
        sys = gabor_system(lat, _delta(4))
        # any u whose first adjoint_count members are orthonormal works
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        vecs = np.zeros((8, 4), dtype=complex)
        vecs[:4] = q.T
        u = VectorFamily(vecs, label="padded-unitary")
        res = tight_gabor_weak_r_dual(sys, u)
        assert res.certificate.passes()

    def test_small_window_is_left_to_the_rank_rule(self):
        # a window below the default floor is not zero: with the floor in
        # its units it certifies, and at the default floor the rank rule
        # finds no span
        lat = GaborLattice(12, 2, 2)
        g = canonical_tight_window(lat, _random_window(np.random.default_rng(12), 12))
        c = 2.0**-40
        sys = gabor_system(lat, c * g)
        tol = Tolerance(abs_floor=1e-12 * c)
        cert = tight_gabor_weak_r_dual(sys, tol=tol).certificate
        assert cert.verdict == cert.characterization_verdict == "WeakRDual"
        with pytest.raises(EmptySpanError):
            tight_gabor_weak_r_dual(sys)

    def test_critical_density_gate(self):
        with pytest.raises(CriticalDensityError):
            tight_gabor_weak_r_dual(gabor_system(GaborLattice(2, 1, 2), _delta(2)))

    @pytest.mark.parametrize("shape", [(4, 4), (8, 2)])
    def test_u_shape_gate(self, shape):
        # u pairs with the system: 8 members of dimension 4
        sys = gabor_system(GaborLattice(4, 1, 2), _delta(4))
        u = VectorFamily(np.eye(*shape, dtype=complex), label="u")
        with pytest.raises(ShapeMismatchError, match="u must have 8 members"):
            tight_gabor_weak_r_dual(sys, u)

    def test_all_zero_u_is_gated_on_itself(self):
        # with no nonzero member to wrap, the Parseval gate reads u itself:
        # S_u = 0, so the residual is ||I_4||_F = 2
        sys = gabor_system(GaborLattice(4, 1, 2), _delta(4))
        u = VectorFamily(np.zeros((8, 4)), label="zero")
        with pytest.raises(NotParsevalError, match=r"residual 2\.000e\+00"):
            tight_gabor_weak_r_dual(sys, u)

    def test_not_tight_gate(self):
        rng = np.random.default_rng(6)
        sys = gabor_system(GaborLattice(4, 1, 2), _random_window(rng, 4))
        with pytest.raises(NotTightError):
            tight_gabor_weak_r_dual(sys)

    def test_non_orthonormal_head_gate(self):
        sys = gabor_system(GaborLattice(4, 1, 2), _delta(4))
        vecs = np.zeros((8, 4), dtype=complex)
        vecs[0] = np.array([1, 1, 0, 0]) / np.sqrt(2)
        vecs[1] = np.array([1, -1, 0, 0]) / np.sqrt(2)
        vecs[2] = np.array([0, 0, 1, 1]) / np.sqrt(2)
        vecs[3] = np.array([0, 0, 1, -1]) / np.sqrt(2)
        # Parseval but the first two members are not aligned orthonormally
        # with the adjoint slots in a way that keeps the characterizing
        # sequence Parseval for the adjoint span
        vecs[1], vecs[4] = vecs[4].copy(), vecs[1].copy()
        u = VectorFamily(vecs, label="misaligned")
        with pytest.raises(HypothesisFailedError, match="not Parseval for span"):
            tight_gabor_weak_r_dual(sys, u)

    def test_dual_side_evaluated_once(self, monkeypatch):
        # one dual-side record feeds the gates, v and the certificate; it
        # reads the canonical dual in span coordinates, never as rows
        from framedual import frames, gabor, rduality

        lat = GaborLattice(12, 2, 2)
        g = canonical_tight_window(lat, _random_window(np.random.default_rng(12), 12))
        sys = gabor_system(lat, g)
        calls = {"dual_side": 0, "canonical_dual": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            for mod in (frames, rduality, gabor):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        assert tight_gabor_weak_r_dual(sys).certificate.passes()
        assert calls == {"dual_side": 1, "canonical_dual": 0}


def _counted_times(monkeypatch, f):
    """Record the products ``f._times`` takes with the rows of the Gabor
    family ``f``."""
    calls, times = [], gabor._CosetFamily._times

    def counted(self, x):
        if self is f:
            calls.append(x.shape)
        return times(self, x)

    monkeypatch.setattr(gabor._CosetFamily, "_times", counted)
    return calls


class TestOneProductWithTheSystem:
    def test_tight_pipeline(self, monkeypatch):
        # the dual side's B = F conj(U_u) diag(s_u) is the one product
        # with the system's rows, a gather of ab columns for the standard
        # basis, and the certificate reads it off the record; frame and
        # tightness are read off the system's values, with no analyze
        lat = GaborLattice(24, 2, 3)
        rng = np.random.default_rng(25)
        sys = gabor_system(lat, canonical_tight_window(lat, _random_window(rng, 24)))
        calls = _counted_times(monkeypatch, sys.family)

        def refused(*args, **kwargs):
            raise AssertionError("the tight gate called analyze")

        monkeypatch.setattr(gabor, "analyze", refused)
        assert tight_gabor_weak_r_dual(sys).certificate.verdict == "WeakRDual"
        assert calls == [(24, 6)]

    def test_promotion_shares_one_product(self, monkeypatch):
        # the promotion's two certificates, of the supplied v and of v',
        # read one B off one dual side
        lat = GaborLattice(24, 4, 6)
        window = canonical_tight_window(lat, _random_window(np.random.default_rng(24), 24))
        sys = gabor_system(lat, window)
        w = adjoint_system(sys).family
        u = VectorFamily(np.eye(24, dtype=complex), label="onb")
        v_prime = promote_to_r_dual(w, sys.family, u).v_prime
        calls = _counted_times(monkeypatch, sys.family)
        res = promote_to_r_dual(w, sys.family, u, v=v_prime)
        assert res.certificate.verdict == "RDual"
        assert calls == [(24, 24)]


class TestPromotion:
    def test_critical_delta_promotes(self):
        lat = GaborLattice(2, 1, 2)
        sys = gabor_system(lat, _delta(2))
        assert analyze(sys.family).is_riesz_basis
        adj = adjoint_system(sys)
        u = VectorFamily(np.eye(2, dtype=complex), label="onb")
        res = promote_to_r_dual(adj.family, sys.family, u)
        assert res.certificate.verdict == "RDual"
        assert analyze(res.v_prime).is_onb

    def test_dual_side_evaluated_once(self, monkeypatch):
        # one dual-side record feeds both certificates and v'
        from framedual import gabor, rduality

        sys = gabor_system(GaborLattice(2, 1, 2), _delta(2))
        w = adjoint_system(sys).family
        u = VectorFamily(np.eye(2, dtype=complex), label="onb")
        calls = []
        original = rduality.dual_side

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for mod in (rduality, gabor):
            monkeypatch.setattr(mod, "dual_side", counted)
        v_prime = promote_to_r_dual(w, sys.family, u).v_prime
        assert len(calls) == 1
        assert promote_to_r_dual(w, sys.family, u, v=v_prime).certificate.passes()
        assert len(calls) == 2

    def test_svd_calls_are_pinned(self, monkeypatch):
        # the block vectors of the adjoint and of the system (d = gcd(4, 4)
        # = 4 distinct 6 x 6 blocks each); the standard-basis u is a
        # coordinate family and the dual side's c an isometry, so neither
        # is factored; v' is the characterizing sequence, and the ONB flags
        # read the Parseval residuals, so v' is not factored
        lat = GaborLattice(24, 4, 6)
        window = canonical_tight_window(lat, _random_window(np.random.default_rng(24), 24))
        sys = gabor_system(lat, window)
        w = adjoint_system(sys).family
        u = VectorFamily(np.eye(24, dtype=complex), label="onb")
        calls = _recorded_svd(monkeypatch)
        res = promote_to_r_dual(w, sys.family, u)
        assert res.certificate.verdict == "RDual"
        assert type(res.v_prime) is VectorFamily
        assert calls == [((1, 4, 6, 6), True), ((1, 4, 6, 6), True)]

    def test_redundant_system_gates(self):
        # the adjoint of a redundant system is a Riesz sequence with fewer
        # members than the ambient dimension, so no orthonormal completion
        # with the same index set can exist
        sys = gabor_system(GaborLattice(4, 1, 2), _delta(4))
        adj = adjoint_system(sys)
        assert analyze(adj.family).is_riesz_sequence
        head = VectorFamily(sys.family.vectors[:2], label="head")
        u = VectorFamily(np.eye(4, dtype=complex)[:2], label="u-head")
        with pytest.raises(GateFailedError):
            promote_to_r_dual(adj.family, head, u)

    @pytest.mark.parametrize("count", [2, 4])
    def test_count_gate_matches_build_orthonormal_v(self, count):
        # one gate, checked first, with one message: a Riesz sequence with
        # fewer members than dimensions and a family with more
        rng = np.random.default_rng(count)
        w = VectorFamily(rng.standard_normal((count, 3)), label="w")
        u = VectorFamily(np.eye(count, 3, dtype=complex), label="u")
        raised = []
        for build in (build_orthonormal_v, promote_to_r_dual):
            with pytest.raises(GateFailedError) as exc:
                build(w, w, u)
            raised.append(str(exc.value))
        assert raised[0] == raised[1]

    def test_supplied_v_must_certify(self):
        w = VectorFamily(np.diag([1.0, np.sqrt(2.0)]).astype(complex), label="w")
        u = VectorFamily(np.eye(2, dtype=complex), label="u")
        assert promote_to_r_dual(w, w, u).certificate.verdict == "RDual"
        v = VectorFamily(np.array([[1, 1], [1, -1]], dtype=complex), label="v")
        with pytest.raises(HypothesisFailedError, match="supplied v does not certify"):
            promote_to_r_dual(w, w, u, v=v)

    def test_supplied_v_must_pair_with_f(self):
        w = VectorFamily(np.eye(2, dtype=complex), label="w")
        v = VectorFamily(np.eye(3, 2, dtype=complex), label="v")
        with pytest.raises(ShapeMismatchError, match="f/v counts 2/3 must pair up"):
            promote_to_r_dual(w, w, w, v=v)

    def test_weak_r_dual_that_is_not_an_r_dual(self):
        # w the standard basis, f the rows of an invertible A and u the rows
        # of A^{-*}: the hypotheses hold and v' is orthonormal, but u is not
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w = VectorFamily(np.eye(3, dtype=complex), label="w")
        f = VectorFamily(a, label="f")
        u = VectorFamily(np.linalg.inv(a).conj().T, label="u")
        with pytest.raises(
            HypothesisFailedError,
            match="promotion did not reach an R-dual verdict: WeakRDual",
        ):
            promote_to_r_dual(w, f, u)

    def test_non_riesz_gate(self):
        w = VectorFamily(
            np.array([[1, 0], [1, 0]], dtype=complex), label="dependent"
        )
        u = VectorFamily(np.eye(2, dtype=complex))
        with pytest.raises(HypothesisFailedError):
            promote_to_r_dual(w, u, u)


class TestCanonicalTightWindow:
    def test_rebuilt_system_is_tight(self):
        rng = np.random.default_rng(7)
        for N, a, b in ((4, 1, 2), (6, 2, 1), (8, 2, 2)):
            lat = GaborLattice(N, a, b)
            g = canonical_tight_window(lat, _random_window(rng, N))
            assert analyze(gabor_system(lat, g).family).is_tight


class TestExploration:
    def test_deterministic_reports(self):
        r1 = run_exploration([4, 6], seed=1, trials=10)
        r2 = run_exploration([4, 6], seed=1, trials=10)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_tight_trials_are_tagged(self):
        rng = np.random.default_rng(8)
        lat = GaborLattice(4, 1, 1)  # unit lattice systems are always tight
        rec = evaluate_exploration_trial(lat, _random_window(rng, 4))
        assert rec["verdict"] == "Tight"

    def test_verdict_stage_computes_no_block_vectors(self, monkeypatch):
        rng = np.random.default_rng(12)
        tight_lat = GaborLattice(12, 2, 2)
        tight = canonical_tight_window(tight_lat, _random_window(rng, 12))
        trials = [
            (tight_lat, tight, "Tight"),
            (GaborLattice(12, 4, 6), _random_window(rng, 12), "NotFrame"),
        ]
        calls = _recorded_svd(monkeypatch)
        for lat, window, verdict in trials:
            calls.clear()
            assert evaluate_exploration_trial(lat, window)["verdict"] == verdict
            assert _values_only(calls), (verdict, calls)

    def test_critical_trial_is_rejected(self):
        # exploration samples non-critical lattices only; the critical
        # case is settled by the promotion
        rng = np.random.default_rng(9)
        lat = GaborLattice(2, 1, 2)
        with pytest.raises(CriticalDensityError):
            evaluate_exploration_trial(lat, _random_window(rng, 2))

    def test_redundant_trial_is_gated_with_candidates(self):
        rng = np.random.default_rng(10)
        lat = GaborLattice(4, 1, 2)
        rec = evaluate_exploration_trial(lat, _random_window(rng, 4))
        assert rec["witness"]["verdict"] == "Gated"
        names = {c["name"] for c in rec["candidates"]}
        assert names == {"conjugated_dual"}
        by_name = {c["name"]: c for c in rec["candidates"]}
        assert by_name["conjugated_dual"]["verdict"] == "ConditionsHold"

    @pytest.mark.parametrize("seed", [1, 7])
    def test_grouping_never_changes_a_record(self, seed):
        # a trial's record depends on (seed, trial) alone, not on the other
        # trials evaluated with it on its lattice
        n_values = list(range(4, 13))
        full = run_exploration(n_values, seed=seed, trials=1000)["records"]
        head = run_exploration(n_values, seed=seed, trials=200)["records"]
        assert json.dumps(head, sort_keys=True) == json.dumps(full[:200], sort_keys=True)
        sample = np.random.default_rng(seed).choice(1000, size=50, replace=False)
        for t in sample.tolist():
            want = {k: v for k, v in full[t].items() if k != "trial"}
            assert evaluate_exploration_trial(*_replayed_draw(n_values, seed, t)) == want
        assert {full[t]["verdict"] for t in sample} == {"NotFrame", "Tight", "Gated"}

    def test_svd_calls_bounded_per_lattice(self, monkeypatch):
        # trials that share a lattice share its factorizations: one
        # values-only SVD of the systems per lattice, and on a lattice with
        # gated trials one of their block vectors, from which the adjoints
        # take theirs; each factors one matrix per distinct coset block of
        # a trial, d = gcd(a, N/b) of the system's N/b blocks, not one per
        # residue
        calls = _recorded_svd(monkeypatch)
        report = run_exploration(range(4, 13), seed=1, trials=1000)
        key = lambda rec: (rec["N"], rec["a"], rec["b"])
        drawn = Counter(key(rec) for rec in report["records"])
        gated = Counter(key(rec) for rec in report["records"] if rec["verdict"] == "Gated")
        assert len(calls) == len(drawn) + len(gated)
        distinct = lambda N, a, b: math.gcd(a, N // b)
        matrices = sum(math.prod(shape[:-2]) for shape, _ in calls)
        assert matrices == sum(
            count * distinct(*lat) for lat, count in drawn.items()
        ) + sum(count * distinct(*lat) for lat, count in gated.items())
        per_residue = sum(count * N // b for (N, a, b), count in drawn.items())
        assert matrices < per_residue

    def test_verdict_counts_are_pinned(self):
        report = run_exploration(range(4, 13), seed=1, trials=1000)
        assert report["verdict_counts"] == {"Gated": 275, "NotFrame": 468, "Tight": 257}
        candidates = Counter(
            (c["name"], c["verdict"])
            for rec in report["records"]
            for c in rec.get("candidates", ())
        )
        assert candidates == {
            ("conjugated_dual", "ConditionsHold"): 184,
            ("conjugated_dual", "ConditionsFail"): 91,
        }

    def test_candidate_parseval_residual_is_read_off_the_rank(self):
        # the candidate, the conjugated Parseval tightening of the adjoint,
        # is a partial isometry: ||S_u - I||_F = sqrt(N - rank) exactly
        report = run_exploration(range(4, 13), seed=1, trials=1000)
        gated = [rec for rec in report["records"] if rec["verdict"] == "Gated"]
        assert len(gated) == 275
        for rec in gated:
            (cand,) = rec["candidates"]
            rank = len(rec["adjoint_spectrum"])
            assert cand["u_parseval_residual"] == math.sqrt(rec["N"] - rank), rec

    @pytest.mark.parametrize("kind", ["complex", "real", "real_even", "gaussian"])
    def test_conjugated_dual_lattice_rule(self, kind):
        # On every lattice with N <= 24 whose trials reach the candidates
        # (ab < N, not a = b = 1), conjugated_dual holds exactly when b = 1,
        # or b = 2 and ab | N, for complex windows, and exactly when ab | N
        # for real ones: the verdict depends on the window, not only on
        # (N, a, b).  Why it holds is open.
        if kind == "complex":
            rule = lambda N, a, b: b == 1 or (b == 2 and N % (a * b) == 0)
        else:
            rule = lambda N, a, b: N % (a * b) == 0
        lattices = [
            lat
            for N in range(1, 25)
            for lat in divisor_lattices(N, critical=False)
            if lat.a * lat.b < N and (lat.a, lat.b) != (1, 1)
        ]
        assert len(lattices) == 117
        rng = np.random.default_rng(11)
        for lat in lattices:
            for window in _rule_windows(kind, lat.N, rng):
                rec = evaluate_exploration_trial(lat, window)
                assert rec["verdict"] == "Gated", lat
                got = {c["name"]: c["verdict"] for c in rec["candidates"]}
                want = "ConditionsHold" if rule(lat.N, lat.a, lat.b) else "ConditionsFail"
                assert got == {"conjugated_dual": want}, (kind, lat)

    @pytest.mark.parametrize("N_values", [[1], [0], [], [4, 1]])
    def test_no_noncritical_lattice_is_typed(self, N_values):
        with pytest.raises(BadLatticeError, match="N=|no N values"):
            run_exploration(N_values, seed=0, trials=3)

    def test_negative_trials_raise(self):
        with pytest.raises(ValueError, match="trials must be non-negative, got -3"):
            run_exploration([4, 5, 6], seed=0, trials=-3)
        assert run_exploration([4], seed=0, trials=0)["records"] == []

    def test_negative_seed_raises_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(gabor, "_trial_states", no_draw)
        monkeypatch.setattr(np.random, "PCG64", no_draw)
        for seed, trials in ((-1, 3), (-5, 0)):
            with pytest.raises(ValueError, match=f"seed must be non-negative, got {seed}$"):
                run_exploration([4, 5, 6], seed=seed, trials=trials)

    def test_trials_past_one_uint32_word_raise_before_any_allocation(self, monkeypatch):
        # the trial index is one uint32 word of the seed entropy; the
        # guard runs before the states (trials x 32 bytes) are allocated
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(gabor, "_trial_states", reached)
        with pytest.raises(ValueError, match=r"trials must be at most 2\*\*32, got 4294967297$"):
            run_exploration([4], seed=0, trials=2**32 + 1)
        with pytest.raises(Reached):
            run_exploration([4], seed=0, trials=2**32)

    def test_no_default_rng_is_built(self, monkeypatch):
        default_rng, calls = np.random.default_rng, []

        def counted(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        run_exploration(range(4, 13), seed=1, trials=1000)
        assert len(calls) == 0

    def test_numpy_integer_seed_draws_as_int(self):
        want = json.dumps(run_exploration([4, 6], seed=7, trials=20), sort_keys=True)
        got = run_exploration([4, 6], seed=np.int64(7), trials=20)
        assert json.dumps(got, sort_keys=True, default=int) == want
        with pytest.raises(TypeError):
            run_exploration([4, 6], seed=7.0, trials=20)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_trial_states_match_seed_sequence(self, seed):
        states = gabor._trial_states(seed, 3000)
        assert states.shape == (3000, 4) and states.dtype == np.uint64
        for t, row in enumerate(states):
            want = np.random.SeedSequence([seed, t]).generate_state(4, np.uint64)
            assert np.array_equal(row, want), t

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_trial_draws_match_default_rng(self, seed, monkeypatch):
        # every trial's lattice and window, taken where run_exploration
        # hands them to the evaluator, equal the default_rng replay
        def drawn(lat, windows, tol):
            return [{"verdict": "Drawn", "lat": lat, "window": w} for w in windows]

        monkeypatch.setattr(gabor, "_evaluate_trials", drawn)
        n_values = list(range(4, 13))
        records = run_exploration(n_values, seed=seed, trials=300)["records"]
        for t, rec in enumerate(records):
            lat, window = _replayed_draw(n_values, seed, t)
            assert rec["lat"] == lat, t
            assert rec["window"].tobytes() == window.tobytes(), t

    def test_no_generator_outlives_its_draw(self, monkeypatch):
        # a trial's generator is dropped once its lattice and window are
        # drawn, so when the first lattice is evaluated at most the last
        # trial's generator is still alive
        def generators():
            gc.collect()
            return sum(isinstance(o, np.random.Generator) for o in gc.get_objects())

        evaluate, live = gabor._evaluate_trials, []

        def counted(*args):
            if not live:
                live.append(generators() - before)
            return evaluate(*args)

        monkeypatch.setattr(gabor, "_evaluate_trials", counted)
        before = generators()
        report = run_exploration(range(4, 13), seed=1, trials=1000)
        assert live[0] <= 1
        gated = [rec for rec in report["records"] if rec["verdict"] == "Gated"]
        assert gated
        for rec in gated:
            assert [c["name"] for c in rec["candidates"]] == ["conjugated_dual"]

    def test_manifest_lists_noncritical_lattices(self):
        rep = run_exploration([4], seed=0, trials=1)
        pairs = {(m["a"], m["b"]) for m in rep["lattice_manifest"]}
        assert (2, 2) not in pairs and (1, 4) not in pairs
        assert (1, 2) in pairs and (4, 4) in pairs
