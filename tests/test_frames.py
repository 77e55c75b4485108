"""Family-level operations: synthesis, frame operator, classification,
duals, tightening, projections, and fixture I/O."""

import json
import re

import numpy as np
import pytest

from helpers import fam, trio, trio_parseval, unit, weak_dual_instance
from framedual import VectorFamily
from framedual.errors import EmptySpanError, FixtureParseError, ShapeMismatchError
from framedual.frames import (
    analyze,
    canonical_dual,
    family_from_json_dict,
    family_to_json_dict,
    frame_operator,
    load_family,
    parseval_tighten,
    random_frame,
    random_parseval,
    save_family,
    span_projector,
    synthesis_matrix,
)
from framedual.numerics import Tolerance
from framedual.rduality import cross_gram


class TestVectorFamily:
    def test_constructor_copies_the_callers_array(self):
        arr = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.complex128)
        f = VectorFamily(arr)
        arr[0, 0] = 7.0
        np.testing.assert_array_equal(f.vectors[0], [1, 0])
        assert not f.vectors.flags.writeable

    @pytest.mark.parametrize("rows", [np.ones(3), np.ones((0, 2)), np.ones((2, 0))])
    def test_members_must_be_a_non_empty_matrix(self, rows):
        with pytest.raises(ValueError, match="expected \\(count, dim\\) members"):
            VectorFamily(rows)

    def test_relabel_shares_rows_and_factors(self, monkeypatch):
        from framedual import frames, gabor

        rng = np.random.default_rng(3)
        dense = random_frame(rng, 5, 3)
        lat = gabor.GaborLattice(12, 2, 2)
        window = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        coset = gabor.gabor_system(lat, window).family
        # the dense family is fully factored; the Gabor family has its rows
        # and U built, and its Vh not
        built = [
            (dense, dense.vectors, "svd", dense.svd),
            (coset, coset.vectors, "_us", coset._us),
        ]
        calls = []
        for module, name in (
            (frames, "thin_svd"),
            (gabor, "_assemble_rows"),
            (gabor, "_assemble_u"),
            (gabor, "_assemble_vh"),
        ):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, fn=fn: calls.append(a) or fn(a))
        for f, rows, reader, factors in built:
            g = f.relabel("other")
            assert type(g) is type(f)
            assert g.label == "other"
            assert g.vectors is rows
            assert all(x is y for x, y in zip(getattr(g, reader), factors))
        assert "svd" not in g.__dict__  # g is the relabelled Gabor family
        assert not calls


    def test_len_and_member(self):
        # len reads the count alone, so a Gabor family builds no rows for
        # it; member i is row i, whatever the family
        from framedual import gabor

        lat = gabor.GaborLattice(12, 2, 2)
        window = np.random.default_rng(5).standard_normal(12)
        coset = gabor.gabor_system(lat, window).family
        dense = fam([[1, 0], [0, 1j], [1, 1]])
        assert (len(coset), len(dense)) == (36, 3)
        assert "vectors" not in coset.__dict__
        for f in (coset, dense):
            for i in (0, len(f) - 1):
                np.testing.assert_array_equal(f.member(i), f.vectors[i])
        np.testing.assert_array_equal(dense.member(1), [0, 1j])

    def test_equality_and_hash_are_by_identity(self):
        f = fam([[1, 0], [0, 1]])
        g = fam([[1, 0], [0, 1]])
        assert f == f and f != g
        assert len({f, g, f}) == 2

    def test_repr_reads_no_members(self):
        from framedual import gabor
        from framedual.fixtures import build_fixture
        from framedual.rduality import build_parseval_v

        rng = np.random.default_rng(4)
        lat = gabor.GaborLattice(12, 2, 2)
        window = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        sys = gabor.gabor_system(lat, window)
        assert repr(sys.family) == (
            "_CosetFamily(label='gabor(N=12,a=2,b=2)', count=36, ambient_dim=12)"
        )
        assert "vectors" not in sys.family.__dict__
        repr(sys)
        assert "vectors" not in sys.family.__dict__
        fams = build_fixture("2.8").families
        v = build_parseval_v(fams["w"], fams["f"], fams["u"])
        assert repr(v) == (
            "_ExtensionFamily(label='parseval-v(w-2.8)', count=4, ambient_dim=3)"
        )
        assert "vectors" not in v.__dict__


def _coordinate_rows(count, dim, members, positions):
    """``count`` members in ``C^dim``, member ``members[j]`` the coordinate
    vector ``e_{positions[j]}`` and every other zero."""
    v = np.zeros((count, dim), dtype=np.complex128)
    v[members, positions] = 1.0
    return v


def _recorded_thin_svd(monkeypatch):
    from framedual import frames

    calls, thin_svd = [], frames.thin_svd

    def recorded(a):
        calls.append(np.shape(a))
        return thin_svd(a)

    monkeypatch.setattr(frames, "thin_svd", recorded)
    return calls


class TestCoordinateFamily:
    # a family of distinct unit coordinate vectors and zeros has its SVD
    # read off its positions; LAPACK gives the same values
    @pytest.mark.parametrize(
        "count, dim, members, positions",
        [
            (4, 4, [0, 1, 2, 3], [2, 0, 3, 1]),  # permuted basis
            (7, 4, [0, 1, 2, 3], [0, 1, 2, 3]),  # padded standard basis
            (9, 4, [1, 4, 8], [3, 0, 2]),  # padded, zeros between, p < dim
            (3, 5, [0, 1, 2], [4, 1, 2]),  # short: count < dim
            (4, 6, [0, 2], [5, 3]),  # short with zeros
            (1, 3, [0], [1]),
        ],
    )
    def test_factors_match_lapack_and_reconstruct(
        self, monkeypatch, count, dim, members, positions
    ):
        rows = _coordinate_rows(count, dim, members, positions)
        calls = _recorded_thin_svd(monkeypatch)
        u, s, vh = VectorFamily(rows).svd
        assert calls == []
        k = min(count, dim)
        assert (u.shape, s.shape, vh.shape) == ((dim, k), (k,), (k, count))
        np.testing.assert_array_equal(s, np.linalg.svd(rows.T, compute_uv=False))
        np.testing.assert_array_equal((u * s) @ vh, rows.T)
        for factor in (u.conj().T @ u, vh @ vh.conj().T):
            np.testing.assert_array_equal(factor, np.eye(k))
        assert not any(f.flags.writeable for f in (u, s, vh))

    @pytest.mark.parametrize(
        "entry, where",
        [
            (-1.0, (1, 1)),  # a -1 entry
            (1.0 + 2.0**-52, (2, 2)),  # just above 1
            (1.0, (3, 0)),  # repeats the position of member 0
            (1j, (1, 1)),  # a unit that is not 1
            (1.0, (0, 1)),  # two entries in member 0
        ],
    )
    def test_near_misses_take_lapack(self, monkeypatch, entry, where):
        rows = _coordinate_rows(4, 4, [0, 1, 2], [0, 1, 2])
        rows[where] = entry
        calls = _recorded_thin_svd(monkeypatch)
        u, s, vh = VectorFamily(rows).svd
        assert calls == [(4, 4)]
        np.testing.assert_allclose((u * s) @ vh, rows.T, atol=1e-14)

    def test_all_zero_takes_lapack_and_raises_as_before(self, monkeypatch):
        calls = _recorded_thin_svd(monkeypatch)
        zero = VectorFamily(np.zeros((3, 2)))
        np.testing.assert_array_equal(zero._s, [0.0, 0.0])
        assert calls == [(2, 3)]
        with pytest.raises(EmptySpanError):
            analyze(zero)

    def test_loaded_and_built_standard_bases_agree(self, tmp_path, monkeypatch):
        from framedual.frames import standard_basis_family

        path = tmp_path / "u.json"
        save_family(standard_basis_family(6, 9), path)
        loaded = load_family(path)
        calls = _recorded_thin_svd(monkeypatch)
        for factor, expected in zip(loaded.svd, standard_basis_family(6, 9).svd):
            np.testing.assert_array_equal(factor, expected)
        assert calls == []
        assert analyze(loaded).is_parseval_for_span


class TestSynthesisMatrix:
    def test_orthonormal_pair(self):
        assert np.allclose(synthesis_matrix(fam([[1, 0], [0, 1]])), np.eye(2))

    def test_repeated_family(self):
        t = synthesis_matrix(trio())
        np.testing.assert_allclose(t, [[1, 1, 0], [0, 0, 1]])

    def test_doubled_half_weight_pair(self):
        r2 = np.sqrt(2.0)
        t = synthesis_matrix(fam([[1 / r2, 0], [1 / r2, 0]]))
        np.testing.assert_allclose(t, [[1 / r2, 1 / r2], [0, 0]])

    def test_synthesis_action(self):
        rng = np.random.default_rng(0)
        f = random_frame(rng, 5, 3)
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        direct = sum(c[i] * f.vectors[i] for i in range(5))
        np.testing.assert_allclose(synthesis_matrix(f) @ c, direct, atol=1e-12)


class TestFrameOperator:
    def test_orthonormal_basis(self):
        np.testing.assert_allclose(frame_operator(fam([[1, 0], [0, 1]])), np.eye(2))

    def test_repeated_family_direct_summation(self):
        s = np.zeros((2, 2), dtype=complex)
        for g in trio().vectors:
            s += np.outer(g, g.conj())
        np.testing.assert_allclose(frame_operator(trio()), s)
        np.testing.assert_allclose(s, np.diag([2.0, 1.0]))

    def test_full_lattice_system_direct_summation(self):
        # modulation/translation family on two points with a delta window,
        # listed by hand
        members = [[1, 0], [0, 1], [1, 0], [0, -1]]
        s = np.zeros((2, 2), dtype=complex)
        for g in np.array(members, dtype=complex):
            s += np.outer(g, g.conj())
        np.testing.assert_allclose(frame_operator(fam(members)), s)
        np.testing.assert_allclose(s, 2 * np.eye(2))


class TestAnalyze:
    def test_orthonormal_basis(self):
        a = analyze(fam([[1, 0], [0, 1]]))
        assert a.lower_bound == pytest.approx(1.0)
        assert a.upper_bound == pytest.approx(1.0)
        assert a.is_onb and a.is_riesz_basis and a.is_parseval_for_span

    def test_doubled_half_weight_parseval_not_onb(self):
        r2 = np.sqrt(2.0)
        u = fam(
            [[1 / r2, 0], [1 / r2, 0], [0, 1 / r2], [0, 1 / r2]],
            label="doubled",
        )
        a = analyze(u)
        assert a.is_parseval_for_span and a.is_frame_for_ambient
        assert not a.is_onb and not a.is_riesz_sequence
        assert a.kernel_dim == 2

    def test_sign_split_pair_is_half_tight(self):
        # truncated sign-split family in four dimensions
        n = 4
        y1 = (unit(n, 1) + unit(n, 2)) / 2
        y2 = (unit(n, 1) - unit(n, 2)) / 2
        a = analyze(fam([y1, y2]))
        # oracle: eigenvalues of the Gram by direct computation
        gram = np.array([[np.vdot(y1, y1), np.vdot(y2, y1)], [np.vdot(y1, y2), np.vdot(y2, y2)]])
        eigs = np.linalg.eigvalsh(gram)
        np.testing.assert_allclose(eigs, [0.5, 0.5], atol=1e-12)
        assert a.lower_bound == pytest.approx(0.5)
        assert a.upper_bound == pytest.approx(0.5)
        assert not a.is_frame_for_ambient

    def test_zero_member_blocks_riesz(self):
        a = analyze(fam([[1, 0], [0, 0]]))
        assert not a.is_riesz_sequence

    def test_onb_needs_as_many_members_as_dimensions(self):
        # two members of norm sqrt(50) in C^1 pass the Parseval and Gram
        # residual tests under a very loose tolerance, but cannot be a basis
        loose = Tolerance(rel_eps=0.999)
        pair = analyze(fam([[np.sqrt(50)], [np.sqrt(50)]]), loose)
        assert pair.is_parseval_for_span and pair.span_dim == 1
        assert not pair.is_onb
        assert analyze(fam([[1, 0], [0, 1]]), loose).is_onb

    def test_empty_span_raises(self):
        with pytest.raises(EmptySpanError):
            analyze(fam([[0, 0], [0, 0]]))

    def test_frame_inequality_on_span(self):
        rng = np.random.default_rng(5)
        for count, dim in ((6, 4), (4, 6), (5, 5)):
            f = random_frame(rng, count, dim)
            a = analyze(f)
            t = synthesis_matrix(f)
            p = t @ np.linalg.pinv(t)  # projector onto the span
            for _ in range(100):
                x = p @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                total = float(np.sum(np.abs(t.conj().T @ x) ** 2))
                nx = float(np.linalg.norm(x) ** 2)
                assert a.lower_bound * nx * (1 - 1e-8) <= total
                assert total <= a.upper_bound * nx * (1 + 1e-8)


class TestCanonicalDual:
    def test_orthonormal_basis_is_self_dual(self):
        f = fam([[1, 0], [0, 1]])
        np.testing.assert_allclose(canonical_dual(f).vectors, f.vectors, atol=1e-12)

    def test_repeated_family(self):
        d = canonical_dual(trio())
        np.testing.assert_allclose(d.vectors, [[0.5, 0], [0.5, 0], [0, 1]], atol=1e-12)

    def test_diagonal_scaling(self):
        d = canonical_dual(fam([[2, 0], [0, 1]]))
        np.testing.assert_allclose(d.vectors, [[0.5, 0], [0, 1]], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(9)
        f = random_frame(rng, 7, 4)
        dd = canonical_dual(canonical_dual(f))
        np.testing.assert_allclose(dd.vectors, f.vectors, atol=1e-9)

    def test_biorthogonality_for_riesz_sequence(self):
        rng = np.random.default_rng(13)
        vecs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        f = VectorFamily(vecs, label="riesz")
        g = cross_gram(f, canonical_dual(f))
        np.testing.assert_allclose(g.T, np.eye(3), atol=1e-8)

    def test_reconstruction_on_span(self):
        rng = np.random.default_rng(17)
        f = random_frame(rng, 4, 6)  # frame sequence with a proper span
        d = canonical_dual(f)
        t = synthesis_matrix(f)
        x = t @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        recon = sum(
            np.vdot(d.vectors[i], x) * f.vectors[i] for i in range(f.count)
        )
        np.testing.assert_allclose(recon, x, atol=1e-9)


class TestParsevalTighten:
    def test_orthonormal_basis_fixed(self):
        f = fam([[1, 0], [0, 1]])
        np.testing.assert_allclose(parseval_tighten(f).vectors, f.vectors, atol=1e-12)

    def test_repeated_family(self):
        r2 = np.sqrt(2.0)
        t = parseval_tighten(trio())
        np.testing.assert_allclose(
            t.vectors, [[1 / r2, 0], [1 / r2, 0], [0, 1]], atol=1e-12
        )

    def test_diagonal(self):
        t = parseval_tighten(fam([[2, 0], [0, 1]]))
        np.testing.assert_allclose(t.vectors, np.eye(2), atol=1e-12)

    def test_always_parseval_for_span(self):
        rng = np.random.default_rng(23)
        for count, dim in ((6, 3), (3, 6), (5, 5)):
            f = random_frame(rng, count, dim)
            assert analyze(parseval_tighten(f)).is_parseval_for_span


class TestProjectOntoSpan:
    def test_single_direction(self):
        p = span_projector(fam([[1, 0]])) @ np.array([1, 1], dtype=complex)
        np.testing.assert_allclose(p, [1, 0], atol=1e-12)

    def test_spanning_family_is_identity(self):
        rng = np.random.default_rng(29)
        f = random_frame(rng, 5, 3)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(span_projector(f) @ x, x, atol=1e-10)

    def test_orthogonal_direction_projects_to_zero(self):
        w = fam([unit(4, 0), unit(4, 2)])
        p = span_projector(w) @ unit(4, 1)
        np.testing.assert_allclose(p, np.zeros(4), atol=1e-12)


class TestFixtureIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        f = random_frame(rng, 4, 3, label="round-trip")
        path = tmp_path / "fam.json"
        save_family(f, path)
        g = load_family(path)
        assert g.label == "round-trip"
        np.testing.assert_array_equal(g.vectors, f.vectors)

    def test_json_dict_round_trip_exact(self):
        f = fam([[0.1 + 0.2j, -3.7e-15], [1 / 3, 2.0]])
        g = family_from_json_dict(json.loads(json.dumps(family_to_json_dict(f))))
        np.testing.assert_array_equal(g.vectors, f.vectors)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FixtureParseError):
            load_family(path)

    def test_wrong_row_length(self):
        with pytest.raises(FixtureParseError):
            family_from_json_dict({"dim": 2, "vectors": [[[1, 0]]], "label": ""})

    def test_missing_field(self):
        with pytest.raises(FixtureParseError):
            family_from_json_dict({"vectors": [[[1, 0]]]})

    @pytest.mark.parametrize(
        "data, message",
        [
            ([[[1, 0]]], "fixture root must be a JSON object"),
            ({"dim": 1, "vectors": []}, "field 'vectors' must be a non-empty list"),
            ({"dim": 1, "vectors": [[[1, 0, 2]]]}, "vector 0: entries must be [re, im]"),
            ({"dim": 1, "vectors": [[["1", 0]]]}, "vector 0: entries must be [re, im]"),
            ({"dim": 1, "vectors": [[[float("inf"), 0]]]}, "entries must be finite"),
        ],
    )
    def test_malformed_fixture_dict(self, data, message):
        with pytest.raises(FixtureParseError, match=re.escape(message)):
            family_from_json_dict(data)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(FixtureParseError, match="cannot read"):
            load_family(tmp_path / "missing.json")


def test_random_parseval_needs_dim_members():
    with pytest.raises(ShapeMismatchError, match="at least dim members"):
        random_parseval(np.random.default_rng(0), 2, 3)


def test_trio_parseval_is_parseval():
    a = analyze(trio_parseval())
    assert a.is_parseval_for_span and a.is_frame_for_ambient and not a.is_onb


def test_array_holding_records_compare_by_identity():
    # each record holds arrays, so value equality has no truth value and
    # value hashing fails; two records built from the same inputs are two
    # records, and each equals itself and hashes
    from framedual import gabor, numerics, rduality

    lat = gabor.GaborLattice(12, 2, 2)
    window = np.random.default_rng(4).standard_normal(12).astype(complex)
    w, f, u, v, _ = weak_dual_instance(np.random.default_rng(11), 3, 6)
    builders = {
        "GaborSystem": lambda: gabor.gabor_system(lat, window),
        "AdjointSystem": lambda: gabor.adjoint_system(gabor.gabor_system(lat, window)),
        "_Cosets": lambda: gabor._coset_svd(window[None], lat),
        "DualSide": lambda: rduality.dual_side(w, f, u, numerics.DEFAULT_TOL),
        "ConjugateLinearMap": lambda: rduality.ConjugateLinearMap(np.eye(2)),
        "TransferResult": lambda: rduality.transfer_via_coisometry(w, w, f, u, v),
        "EigenDecomposition": lambda: numerics.hermitian_eig(np.eye(2)),
    }
    for name, build in builders.items():
        x, y = build(), build()
        assert type(x).__name__ == name
        assert x == x and x != y, name
        assert len({x, y, x}) == 2, name
    assert lat == gabor.GaborLattice(12, 2, 2)  # a lattice is a value
