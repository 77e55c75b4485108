"""Weak R-dual machinery: certificates, constructions, interleavings,
coisometric transfer, and conjugate-linear witnesses."""

from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest

from helpers import fam, perturb_member, trio, trio_parseval, unit, weak_dual_instance
from framedual import VectorFamily
from framedual.errors import (
    BadCutoffError,
    DeficitOrderError,
    DimensionCaseError,
    EmptySpanError,
    GateFailedError,
    HypothesisFailedError,
    NotInvertibleError,
    NotParsevalComplementError,
    NotParsevalError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    ShapeMismatchError,
)
from framedual.frames import (
    analyze,
    canonical_dual,
    frame_operator,
    random_frame,
    random_parseval,
    random_unitary,
)
from framedual.gabor import (
    GaborLattice,
    adjoint_system,
    canonical_tight_window,
    gabor_system,
)
from framedual.numerics import DEFAULT_TOL, Tolerance, hermitian_eig, singular_rank
from framedual.rduality import (
    ConjugateLinearMap,
    DualSide,
    build_orthonormal_v,
    build_parseval_v,
    certify_weak_r_dual,
    characterize,
    commuting_parseval_family,
    cross_gram,
    dual_commuting_parseval,
    dual_side,
    find_conjugate_witness,
    interleave_double_prime,
    interleave_double_star,
    interleave_prime,
    interleave_star,
    interleaved_weak_r_dual,
    transfer_via_coisometry,
    verify_conjugate_witness,
    weak_r_dual,
)


def _onb(n):
    return VectorFamily(np.eye(n, dtype=complex), label=f"onb{n}")


class TestCrossGram:
    def test_orthonormal_pair(self):
        np.testing.assert_allclose(cross_gram(_onb(2), _onb(2)), np.eye(2))

    def test_repeated_family(self):
        g = cross_gram(trio(), trio())
        np.testing.assert_allclose(g, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_dual_pairing_of_riesz_sequence(self):
        w = fam([[2, 0], [0, 1]])
        g = cross_gram(canonical_dual(w), w)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            cross_gram(_onb(2), trio())

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="ambient dimensions differ"):
            cross_gram(fam([[1, 0]]), fam([[1, 0, 0]]))

    def test_inner_product_convention(self):
        g = fam([[1j, 0]])
        h = fam([[1, 0]])
        # linear in the first argument: <i*e1, e1> = i
        assert cross_gram(g, h)[0, 0] == pytest.approx(1j)


class TestWeakRDual:
    def test_orthonormal_triple_is_r_dual(self):
        w, cert = weak_r_dual(_onb(2), _onb(2), _onb(2))
        np.testing.assert_allclose(w.vectors, np.eye(2), atol=1e-12)
        assert cert.verdict == "RDual"

    def test_repeated_family_with_commuting_parseval(self):
        f = trio()
        uv = trio_parseval()
        w, cert = weak_r_dual(f, uv, uv)
        np.testing.assert_allclose(w.vectors, f.vectors, atol=1e-12)
        assert cert.verdict == "WeakRDual"
        assert cert.characterization_verdict == "WeakRDual"

    def test_diagonal_frame_with_orthonormal_pair(self):
        f = fam([[1, 0], [0, np.sqrt(2)]])
        w, cert = weak_r_dual(f, _onb(2), _onb(2))
        np.testing.assert_allclose(w.vectors, f.vectors, atol=1e-12)
        assert cert.verdict == "RDual"

    def test_rejects_grossly_non_parseval(self):
        rng = np.random.default_rng(0)
        f = random_frame(rng, 4, 2)
        with pytest.raises(NotParsevalError):
            weak_r_dual(f, f, f)

    def test_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            weak_r_dual(trio(), _onb(2), _onb(2))


def test_one_product_with_f_per_dual_side(monkeypatch):
    # dual_side takes the one product B = F conj(U_u) diag(s_u) with the
    # rows of f, and the certificate reads B off the record
    w, f, u, v, _ = weak_dual_instance(np.random.default_rng(7), 3, 6)
    calls, times = [], VectorFamily._times

    def counted(self, x):
        if self is f:
            calls.append(x.shape)
        return times(self, x)

    monkeypatch.setattr(VectorFamily, "_times", counted)
    assert certify_weak_r_dual(w, f, u, v).passes()
    assert len(calls) == 1


def test_certificate_json_dict_copies_labels():
    # the dict is built from the fields, with the tolerance moved last and
    # a copy of the labels, as the deep copy of ``asdict`` gave it
    cert = weak_dual_instance(np.random.default_rng(8), 3, 5)[4]
    out = cert.to_json_dict()
    expected = asdict(cert)
    tolerance = {key: expected.pop(key) for key in ("rel_eps", "abs_floor")}
    expected["tolerance"] = tolerance
    assert out == expected and list(out) == list(expected)
    out["labels"]["w"] = "changed"
    assert cert.labels["w"] != "changed"


class TestCommutingParsevalFamily:
    def test_repeated_family_real_case(self):
        res = commuting_parseval_family(trio())
        np.testing.assert_allclose(
            res.family.vectors, trio_parseval().vectors, atol=1e-12
        )
        assert not res.input_is_riesz_basis and not res.output_is_onb

    def test_orthonormal_input_degenerates(self):
        res = commuting_parseval_family(_onb(3))
        assert res.input_is_riesz_basis and res.output_is_onb

    def test_gram_identity_against_inverse_frame_operator(self):
        # <v_i, v_j> must equal <S^{-1} f_j, f_i> for complex input
        rng = np.random.default_rng(1)
        f = random_frame(rng, 5, 3)
        v = commuting_parseval_family(f).family
        s_inv = np.linalg.inv(frame_operator(f))
        expected = np.array(
            [
                [np.vdot(f.vectors[i], s_inv @ f.vectors[j]) for j in range(5)]
                for i in range(5)
            ]
        )
        np.testing.assert_allclose(cross_gram(v, v), expected, atol=1e-10)

    def test_commutation_holds_for_any_u(self):
        rng = np.random.default_rng(2)
        f = random_frame(rng, 6, 3)
        v = commuting_parseval_family(f).family
        g_vv = cross_gram(v, v)
        for _ in range(3):
            u = random_frame(rng, 6, 3)
            g_fu = f.vectors @ u.vectors.conj().T
            res = np.linalg.norm((g_vv.T - np.eye(6)) @ g_fu)
            assert res <= 1e-9 * max(1, np.linalg.norm(g_fu))


class TestCharacterizingSequence:
    def test_orthonormal_triple(self):
        y = dual_side(_onb(2), _onb(2), _onb(2)).sequence
        np.testing.assert_allclose(y.vectors, np.eye(2), atol=1e-12)

    def test_repeated_family(self):
        y = dual_side(trio(), trio(), trio_parseval()).sequence
        np.testing.assert_allclose(y.vectors, trio_parseval().vectors, atol=1e-12)

    def test_spanning_dual_forces_v_equal_y(self):
        # when span{w} is the whole space a passing v must coincide with y
        rng = np.random.default_rng(3)
        w, f, u, v, cert = weak_dual_instance(rng, 3, 6)
        assert cert.passes() and cert.span_deficit == 0
        y = dual_side(w, f, u).sequence
        assert float(np.max(np.abs(v.vectors - y.vectors))) <= 1e-9


class TestDualCommutationResidual:
    def test_riesz_sequence_trivial(self):
        rng = np.random.default_rng(4)
        w = fam([[2, 0], [0, 1]])
        f = random_frame(rng, 2, 2)
        u = random_frame(rng, 2, 2)
        assert dual_side(w, f, u).dual_res <= 1e-12

    def test_repeated_family_fixture(self):
        assert dual_side(trio(), trio(), trio_parseval()).dual_res <= 1e-12

    def test_zero_member_breaks_condition(self):
        w = fam([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        res = dual_side(w, _onb(3), _onb(3)).dual_res
        assert res == pytest.approx(1.0, abs=1e-12)


class TestDualSide:
    def test_unequal_counts_rejected(self):
        # pairing u with a w of another count (zero padding) is gabor's job
        with pytest.raises(ShapeMismatchError):
            dual_side(_onb(2), _onb(2), fam([[1, 0], [0, 1], [0, 0]]), DEFAULT_TOL)

    def test_rank_svd_failure_is_typed(self, monkeypatch):
        # the rank of Y is read off the values-only SVD of the small matrix
        # c, which goes through numerics._svd: a LAPACK failure there is a
        # NumericalFailureError, not a bare LinAlgError.  Random families
        # give a c far from an isometry, so its SVD is taken
        rng = np.random.default_rng(19)
        w, f, u = (random_frame(rng, 6, 3) for _ in range(3))
        assert dual_side(w, f, u, DEFAULT_TOL).parseval_res > 1.0
        for family in (w, f, u):
            family.svd  # the families' own factorizations are not the target
        svd = np.linalg.svd

        def failing(a, *args, **kwargs):
            if kwargs.get("compute_uv", True) is False:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NumericalFailureError):
            dual_side(w, f, u, DEFAULT_TOL)

    @staticmethod
    def _values_only_svds(monkeypatch):
        svd, calls = np.linalg.svd, []

        def recorded(a, *args, **kwargs):
            if kwargs.get("compute_uv", True) is False:
                calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        return calls

    def test_rank_shortcut_agrees_with_the_svd_rank(self, monkeypatch):
        # on passing triples c is near an isometry, so rank(Y) is read off
        # its Parseval residual with no SVD, and equals the SVD's rank
        calls = self._values_only_svds(monkeypatch)
        checked = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 6))
            count = int(rng.integers(1, 9))
            w, f, u, _, cert = weak_dual_instance(rng, dim, count)
            assert cert.passes()
            del calls[:]
            side = dual_side(w, f, u)
            assert side.parseval_ok and calls == []
            s_c = np.linalg.svd(side.c, compute_uv=False)
            assert side.kernel == f.count - singular_rank(s_c, DEFAULT_TOL)
            checked += 1
        assert checked == 12

    @pytest.mark.parametrize("past, svds", [(-1e-3, []), (1e-3, [(2, 2)])])
    def test_rank_shortcut_bound(self, monkeypatch, past, svds):
        # with w = u = I_2 and f = diag(sigma), c has the singular values
        # sigma, and sigma^2 = 1 +- x gives eps = sqrt(2) x.  At rel_eps =
        # 0.5 the shortcut holds while sqrt(1 - eps) > 0.5 sqrt(1 + eps),
        # that is eps < 0.6; just past it the SVD is taken, with the rank
        # the shortcut would have given
        x = (0.6 + past) / np.sqrt(2.0)
        f = fam(np.diag(np.sqrt([1.0 + x, 1.0 - x])), label="f")
        tol = Tolerance(rel_eps=0.5)
        f.svd  # the family's own factorization is not the target
        calls = self._values_only_svds(monkeypatch)
        side = dual_side(_onb(2), f, _onb(2), tol)
        assert side.parseval_res == pytest.approx(0.6 + past, rel=1e-12)
        assert calls == svds
        assert side.kernel == 0

    def test_public_record_contract(self):
        # the rectangular triple of the tight pipeline: the K = ab = 6
        # adjoint members paired with 6 rows of the identity, against the
        # M = 24 system members
        from framedual import DualSide as PublicDualSide, dual_side as public_dual_side

        lat = GaborLattice(12, 2, 3)
        g = np.random.default_rng(5).standard_normal(12) + 0j
        sys = gabor_system(lat, canonical_tight_window(lat, g))
        w = adjoint_system(sys).family
        u = VectorFamily(np.eye(6, 12, dtype=complex), label="eye(6, 12)")
        side = public_dual_side(w, sys.family, u)
        assert isinstance(side, PublicDualSide) and PublicDualSide is DualSide
        rank = w.rank()
        assert (w.count, sys.family.count, side.q.shape) == (6, 24, (12, rank))
        assert side.coef.shape == (24, rank)
        assert side.kernel == 24 - side.sequence.rank()
        with pytest.raises(FrozenInstanceError):
            side.kernel = 0
        for arr in (side.q, side.coef):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


class TestCharacterize:
    def test_agrees_on_passing_instance(self):
        rng = np.random.default_rng(5)
        w, f, u, v, cert = weak_dual_instance(rng, 3, 5)
        assert cert.verdict == "WeakRDual"
        again = characterize(w, f, u, v)
        assert again.characterization_verdict == "WeakRDual"
        assert again.verdict == "WeakRDual"

    def test_perturbed_v_fails_with_projection_residual(self):
        rng = np.random.default_rng(6)
        w, f, u, v, _ = weak_dual_instance(rng, 3, 5)
        bad = perturb_member(rng, v, noise=1e-3)
        cert = characterize(w, f, u, bad)
        assert cert.characterization_verdict == "NotWeakRDual"
        assert cert.projection_residual > 1e-6


class TestDimensionReport:
    # the span deficit of w against the kernel dimension of Y, read off the
    # dual-side record; the conjugate kernel is that of f's synthesis
    def test_orthonormal_triple(self):
        side = dual_side(_onb(2), _onb(2), _onb(2))
        assert (side.deficit, side.kernel) == (0, 0)

    def test_diagonal_case_equal(self):
        f = fam([[1, 0], [0, np.sqrt(2)]])
        side = dual_side(f, f, _onb(2))
        assert side.deficit == side.kernel == 0
        assert f.count - f.rank() == 0

    def test_strictly_less_for_non_onb_instance(self):
        rng = np.random.default_rng(7)
        w, f, u, v, cert = weak_dual_instance(rng, 3, 6)
        side = dual_side(w, f, u)
        assert side.deficit < side.kernel
        assert side.kernel == f.count - f.rank() == 3


class TestBuildOrthonormalV:
    def test_diagonal_frame(self):
        f = fam([[1, 0], [0, np.sqrt(2)]])
        v = build_orthonormal_v(f, f, _onb(2))
        np.testing.assert_allclose(v.vectors, np.eye(2), atol=1e-12)

    def test_repeated_family_in_three_dims(self):
        f3 = fam([unit(3, 0), unit(3, 0), unit(3, 1)], label="trio3")
        u3 = fam(
            [unit(3, 0) / np.sqrt(2), unit(3, 0) / np.sqrt(2), unit(3, 1)],
            label="trio3-parseval",
        )
        v = build_orthonormal_v(f3, f3, u3)
        assert analyze(v).is_onb
        cert = certify_weak_r_dual(f3, f3, u3, v)
        assert cert.passes() and cert.projection_residual <= 1e-10

    def test_gate_on_count(self):
        with pytest.raises(GateFailedError):
            build_orthonormal_v(trio(), trio(), trio_parseval())

    def test_hypothesis_gate_on_bad_u(self):
        f3 = fam([unit(3, 0), unit(3, 0), unit(3, 1)])
        u_bad = fam([unit(3, 2), unit(3, 0), unit(3, 1)])
        with pytest.raises(HypothesisFailedError):
            build_orthonormal_v(f3, f3, u_bad)

    def test_deficit_and_kernel_differ_under_a_loose_tolerance(self):
        # exactly, a characterizing sequence Parseval for span{w} has the
        # rank of w; at rel_eps = 0.9, c c^* = diag(1, 0.25) passes as
        # Parseval (residual 0.75 <= 0.9 sqrt(2)) while the rank rule
        # drops the singular value 0.5 of c, so the deficit 0 meets a
        # kernel of dimension 1
        f = fam([[1, 0], [0, 0.5]])
        with pytest.raises(
            HypothesisFailedError, match="span deficit 0 != kernel dimension 1"
        ):
            build_orthonormal_v(_onb(2), f, _onb(2), Tolerance(rel_eps=0.9))


class TestBuildParsevalV:
    def test_zero_deficit_returns_characterizing_sequence(self):
        rng = np.random.default_rng(8)
        w, f, u, v, cert = weak_dual_instance(rng, 3, 6)
        assert cert.span_deficit == 0
        built = build_parseval_v(w, f, u)
        y = dual_side(w, f, u).sequence
        np.testing.assert_allclose(built.vectors, y.vectors, atol=1e-12)
        a = analyze(built)
        assert a.is_parseval_for_span and a.deficit == 0 and not a.is_onb

    def test_strict_case_certifies_not_onb(self):
        # proper span: the doubled half-weight fixture in three dimensions
        r2 = np.sqrt(2.0)
        f = fam([unit(3, 0) / r2, unit(3, 0) / r2, unit(3, 1) / r2, unit(3, 1) / r2])
        w = fam([unit(3, 1) / r2, unit(3, 1) / r2, unit(3, 2) / r2, unit(3, 2) / r2])
        v = build_parseval_v(w, f, f)
        a = analyze(v)
        assert a.is_parseval_for_span and a.deficit == 0 and not a.is_onb
        cert = certify_weak_r_dual(w, f, f, v)
        assert cert.passes() and cert.characterization_verdict == "WeakRDual"

    def test_dimension_case_gate(self):
        w = fam([unit(3, 0), 0 * unit(3, 0)])
        f = fam([unit(3, 0), unit(3, 1)])
        u = fam([unit(3, 0), 0 * unit(3, 0)])
        with pytest.raises(DimensionCaseError):
            build_parseval_v(w, f, u)

    def test_equality_case_refers_to_orthonormal_construction(self):
        w = fam([unit(2, 0), 0 * unit(2, 0)])
        f = fam([unit(2, 0), unit(2, 1)])
        u = fam([unit(2, 0), 0 * unit(2, 0)])
        with pytest.raises(HypothesisFailedError):
            build_parseval_v(w, f, u)


class TestInterleavings:
    def test_prime(self):
        out = interleave_prime(fam([[1, 0], [0, 1]]))
        np.testing.assert_allclose(out.vectors, [[1, 0], [0, 0], [0, 1], [0, 0]])

    def test_double_prime(self):
        out = interleave_double_prime(fam([[1, 0], [0, 1]]))
        np.testing.assert_allclose(out.vectors, [[0, 0], [1, 0], [0, 0], [0, 1]])

    def test_star_with_unit_cutoff(self):
        h = fam([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        out = interleave_star(h, 1)
        np.testing.assert_allclose(
            out.vectors, [[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_double_star_with_unit_cutoff(self):
        h = fam([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        out = interleave_double_star(h, 1)
        np.testing.assert_allclose(
            out.vectors, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_full_cutoff_matches_prime(self):
        h = fam([[1, 0], [0, 1]])
        np.testing.assert_allclose(
            interleave_star(h, 2).vectors, interleave_prime(h).vectors
        )

    def test_bad_cutoff(self):
        with pytest.raises(BadCutoffError):
            interleave_star(trio(), 4)


class TestInterleavedWeakRDual:
    def test_proper_span_with_complement_completion(self):
        f = fam([unit(3, 0), unit(3, 0), unit(3, 1)], label="f")
        u = fam(
            [unit(3, 0) / np.sqrt(2), unit(3, 0) / np.sqrt(2), unit(3, 1)], label="u"
        )
        q = fam([unit(3, 2), 0 * unit(3, 0), 0 * unit(3, 0)], label="q")
        res = interleaved_weak_r_dual(f, f, u, q)
        r2 = np.sqrt(2.0)
        expected_v = [
            unit(3, 0) / r2,
            unit(3, 2),
            unit(3, 0) / r2,
            0 * unit(3, 0),
            unit(3, 1),
            0 * unit(3, 0),
        ]
        np.testing.assert_allclose(res.v.vectors, expected_v, atol=1e-12)
        a = analyze(res.v)
        assert a.is_parseval_for_span and a.deficit == 0 and not a.is_onb
        assert res.certificate.passes()
        assert res.certificate.characterization_verdict == "WeakRDual"

    def test_zero_deficit_with_zero_completion(self):
        rng = np.random.default_rng(10)
        w, f, u, v, cert = weak_dual_instance(rng, 3, 6)
        assert cert.span_deficit == 0
        q = VectorFamily(np.zeros((6, 3), dtype=complex), label="q0")
        res = interleaved_weak_r_dual(w, f, u, q)
        assert res.certificate.passes()

    def test_bad_complement_family(self):
        f = fam([unit(3, 0), unit(3, 0), unit(3, 1)])
        u = fam([unit(3, 0) / np.sqrt(2), unit(3, 0) / np.sqrt(2), unit(3, 1)])
        q = fam([unit(3, 0), 0 * unit(3, 0), 0 * unit(3, 0)])  # inside the span
        with pytest.raises(NotParsevalComplementError):
            interleaved_weak_r_dual(f, f, u, q)


class TestTransferViaCoisometry:
    def test_identity_transfer(self):
        rng = np.random.default_rng(11)
        w, f, u, v, cert = weak_dual_instance(rng, 3, 6)
        res = transfer_via_coisometry(w, w, f, u, v)
        np.testing.assert_allclose(res.operator, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(res.transported.vectors, v.vectors, atol=1e-9)
        assert res.certificate is not None and res.certificate.passes()

    def test_unitary_image_recovery(self):
        rng = np.random.default_rng(12)
        p, f, u, h, cert = weak_dual_instance(rng, 4, 7)
        q = random_unitary(rng, 4)
        w = VectorFamily((q @ p.vectors.T).T, label="rotated")
        res = transfer_via_coisometry(w, p, f, u, h)
        assert res.coisometry_residual <= 1e-8
        assert res.transfer_residual <= 1e-8
        assert res.certificate is not None and res.certificate.passes()

    def test_deficit_order_gate(self):
        f3 = fam([unit(3, 0), unit(3, 0), unit(3, 1)], label="f")
        u3 = fam(
            [unit(3, 0) / np.sqrt(2), unit(3, 0) / np.sqrt(2), unit(3, 1)], label="u"
        )
        p = f3  # certifies with h = u3 (deficit 1)
        w = fam([unit(3, 0), unit(3, 0), 0 * unit(3, 0)], label="small")  # deficit 2
        with pytest.raises(DeficitOrderError):
            transfer_via_coisometry(w, p, f3, u3, u3)

    def test_requires_base_weak_dual(self):
        rng = np.random.default_rng(13)
        w, f, u, v, _ = weak_dual_instance(rng, 3, 6)
        not_dual = random_parseval(rng, 6, 3)
        p = VectorFamily(rng.standard_normal((6, 3)) + 0j, label="not-a-dual")
        with pytest.raises(HypothesisFailedError):
            transfer_via_coisometry(w, p, f, u, not_dual)


class TestDualCommutingParseval:
    def test_riesz_input_gives_orthonormal_output(self):
        w = fam([[2, 0], [0, 1]])
        f = fam([[1, 0], [0, 1]])
        u = dual_commuting_parseval(w, f)
        np.testing.assert_allclose(u.vectors, np.eye(2), atol=1e-12)

    def test_repeated_family(self):
        u = dual_commuting_parseval(trio(), trio())
        np.testing.assert_allclose(u.vectors, trio_parseval().vectors, atol=1e-12)
        a = analyze(u)
        assert a.is_parseval_for_span and a.deficit == 0 and not a.is_onb
        assert dual_side(trio(), trio(), u).dual_res <= 1e-10

    def test_condition_holds_for_any_f(self):
        rng = np.random.default_rng(14)
        w = random_frame(rng, 6, 3, label="w")
        u = dual_commuting_parseval(w, w)
        for _ in range(3):
            f = random_frame(rng, 6, 3)
            assert dual_side(w, f, u).dual_res <= 1e-8

    def test_proper_span_gate(self):
        w = fam([unit(3, 0), unit(3, 1)])
        f = fam([unit(3, 0), unit(3, 1)])
        with pytest.raises(GateFailedError):
            dual_commuting_parseval(w, f)

    def test_all_zero_w_is_an_empty_span(self):
        zero = VectorFamily(np.zeros((3, 3)), label="zero")
        with pytest.raises(EmptySpanError):
            dual_commuting_parseval(zero, _onb(3))

    def test_factors_w_alone(self, monkeypatch):
        # the output is built from the thin SVD of w; it is not factored
        # itself, as commuting_parseval_family's flags would need
        from framedual import frames

        rng = np.random.default_rng(16)
        w = random_frame(rng, 40, 4, label="w")
        calls = []
        thin_svd = frames.thin_svd
        monkeypatch.setattr(
            frames, "thin_svd", lambda a: calls.append(a.shape) or thin_svd(a)
        )
        u = dual_commuting_parseval(w, w)
        assert calls == [(4, 40)]
        assert u.label == "dual-commuting(w)"
        np.testing.assert_array_equal(
            u.vectors, commuting_parseval_family(w).family.vectors
        )


class TestConjugateLinearMap:
    def test_adjoint_identity(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lmap = ConjugateLinearMap(m)
        for _ in range(5):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = np.vdot(z, lmap.apply(x))
            rhs = np.vdot(x, lmap.adjoint_apply(z))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_compositions(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lmap = ConjugateLinearMap(m)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        np.testing.assert_allclose(
            lmap.apply(lmap.adjoint_apply(x)),
            lmap.compose_adjoint_right() @ x,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            lmap.adjoint_apply(lmap.apply(x)),
            lmap.compose_adjoint_left() @ x,
            atol=1e-12,
        )


class TestVerifyConjugateWitness:
    def test_identity_witness(self):
        res = verify_conjugate_witness(
            ConjugateLinearMap(np.eye(2, dtype=complex)), _onb(2), _onb(2)
        )
        assert res.ok
        assert res.w_residual <= 1e-12 and res.f_residual <= 1e-12
        assert res.u_parseval_residual <= 1e-10
        assert res.dual_commutation_residual <= 1e-10
        assert res.projected_parseval_residual <= 1e-10

    def test_diagonal_witness(self):
        m = np.diag([1.0, 1.0 / np.sqrt(2)]).astype(complex)
        wf = fam([[1, 0], [0, np.sqrt(2)]])
        res = verify_conjugate_witness(ConjugateLinearMap(m), wf, wf)
        assert res.ok
        np.testing.assert_allclose(res.induced_u.vectors, np.eye(2), atol=1e-10)

    def test_mismatch_reports_residuals(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        res = verify_conjugate_witness(
            ConjugateLinearMap(m), fam([[3, 0], [0, 1]]), _onb(2)
        )
        assert not res.ok and res.induced_u is None

    def test_singular_gate(self):
        with pytest.raises(NotInvertibleError):
            verify_conjugate_witness(
                ConjugateLinearMap(np.zeros((2, 2), dtype=complex)), _onb(2), _onb(2)
            )

    def test_non_square_witness(self):
        with pytest.raises(GateFailedError, match="witness matrix must be 2x2"):
            verify_conjugate_witness(
                ConjugateLinearMap(np.eye(2, 3, dtype=complex)), _onb(2), _onb(2)
            )

    def test_proper_span_gate(self):
        w = fam([unit(3, 0), unit(3, 1), 0 * unit(3, 0)])
        with pytest.raises(GateFailedError):
            verify_conjugate_witness(
                ConjugateLinearMap(np.eye(3, dtype=complex)), w, _onb(3)
            )

    def test_all_zero_w_is_an_empty_span(self):
        zero = VectorFamily(np.zeros((3, 3)), label="zero")
        with pytest.raises(EmptySpanError):
            verify_conjugate_witness(
                ConjugateLinearMap(np.eye(3, dtype=complex)), zero, _onb(3)
            )


class TestFindConjugateWitness:
    def test_identity_pair(self):
        lmap = find_conjugate_witness(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        assert lmap is not None
        res = verify_conjugate_witness(lmap, _onb(2), _onb(2))
        assert res.ok

    def test_shared_spectrum_pair(self):
        s_w = np.diag([1.0, 2.0]).astype(complex)
        s_f = np.diag([2.0, 1.0]).astype(complex)
        lmap = find_conjugate_witness(s_w, s_f)
        assert lmap is not None
        w = fam([[1, 0], [0, np.sqrt(2)]])
        f = fam([[np.sqrt(2), 0], [0, 1]])
        res = verify_conjugate_witness(lmap, w, f)
        assert res.ok and res.u_parseval_residual <= 1e-9

    def test_distinct_spectra(self):
        assert (
            find_conjugate_witness(
                np.diag([1.0, 2.0]).astype(complex), np.diag([1.0, 3.0]).astype(complex)
            )
            is None
        )

    def test_operators_of_different_sizes(self):
        assert find_conjugate_witness(np.eye(2), np.eye(3)) is None

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            find_conjugate_witness(
                np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)
            )

    @pytest.mark.parametrize(
        "top, factor, rejected",
        [
            (1.0, 1.0, True),  # smallest eigenvalue at the cut
            (1.0, 1 + 1e-6, False),  # just above it
            (1.0, 1 - 1e-6, True),  # just below it
            (1e6, 1.0, True),  # the relative cut at a large scale
            (1e6, 1 + 1e-6, False),
            (8e-13, 0.5, True),  # largest eigenvalue below the absolute floor
            (1.0, -1.0, True),  # an indefinite operator
        ],
    )
    def test_positive_definite_cut_is_the_rank_rule(self, top, factor, rejected):
        # the cut is the rank rule on the descending spectrum, which rejects
        # exactly where the smallest eigenvalue is at most
        # tol.threshold(largest)
        tol = Tolerance()
        small = factor * (tol.threshold(top) if top >= tol.abs_floor else top)
        s = np.diag([small, top]).astype(complex)
        lam = hermitian_eig(s, tol).eigenvalues
        assert (lam[0] <= tol.threshold(lam[-1])) == rejected
        if rejected:
            with pytest.raises(NotPositiveDefiniteError):
                find_conjugate_witness(s, s, tol)
        else:
            assert find_conjugate_witness(s, s, tol) is not None

    def test_gauge_freedom(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s_w = a @ a.conj().T + 0.5 * np.eye(3)
        q = random_unitary(rng, 3)
        s_f = np.conj(q @ s_w @ q.conj().T)  # conjugate so spectra align
        lmap = find_conjugate_witness(s_w, s_f)
        assert lmap is not None
        # compose with a unitary commuting with the right-hand operator
        vals, vecs = np.linalg.eigh(np.conj(s_f))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        gauge = (vecs * phases) @ vecs.conj().T
        gauged = ConjugateLinearMap(lmap.matrix @ gauge)
        np.testing.assert_allclose(
            gauged.compose_adjoint_right(), lmap.compose_adjoint_right(), atol=1e-9
        )
        np.testing.assert_allclose(
            np.linalg.inv(gauged.compose_adjoint_left()), s_f, atol=1e-8
        )


class TestInstanceProperties:
    """Randomized invariants of passing instances."""

    def test_commutation_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            count = int(rng.integers(dim + 1, 13))
            w, f, u, v, cert = weak_dual_instance(rng, dim, count)
            assert cert.commutation_residual <= 1e-8
            assert cert.verdict == "WeakRDual"

    def test_iff_agreement_including_negatives(self):
        rng = np.random.default_rng(20)
        for k in range(30):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(dim + 1, 11))
            w, f, u, v, cert = weak_dual_instance(rng, dim, count)
            if k % 2:
                v = perturb_member(rng, v, noise=1e-3)
                w = weak_r_dual(f, u, v)[0]
                # re-synthesized w always satisfies the synthesis identity,
                # so a failing commutation must be caught on both routes
            direct = certify_weak_r_dual(w, f, u, v)
            assert (direct.verdict == "NotWeakRDual") == (
                direct.characterization_verdict == "NotWeakRDual"
            )

    def test_kernel_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            w, f, u, v, cert = weak_dual_instance(rng, 3, 7)
            assert cert.passes()
            assert dual_side(w, f, u).kernel == f.count - f.rank()

    def test_pairing_bridge(self):
        # whenever the dual commutation holds, <f_i, u_j> = <w_j, y_i>
        rng = np.random.default_rng(22)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(dim + 1, 11))
            w, f, u, v, cert = weak_dual_instance(rng, dim, count)
            y = dual_side(w, f, u).sequence
            g_fu = cross_gram(f, u)
            g_wy = cross_gram(w, y)
            np.testing.assert_allclose(g_fu, g_wy.T, atol=1e-9)

    def test_deficit_monotonicity_strict_for_non_onb(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            w, f, u, v, cert = weak_dual_instance(rng, 3, 6)
            assert cert.passes() and not cert.v_is_onb
            assert cert.span_deficit < cert.kernel_dim

    def test_riesz_basis_forces_orthonormal_v(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            f = random_frame(rng, n, n, label="riesz-basis")
            assert analyze(f).is_riesz_basis
            v = commuting_parseval_family(f).family
            assert np.linalg.norm(cross_gram(v, v) - np.eye(n)) <= 1e-8
