"""Kernel-level linear algebra checks, including the frozen examples."""

import numpy as np
import pytest

from helpers import ZeroMatrixError, psd_inverse_sqrt
from framedual.errors import NotHermitianError, NumericalFailureError
from framedual.numerics import (
    Tolerance,
    frobenius,
    hermitian_eig,
    singular_rank,
)


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _random_psd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


class TestTolerance:
    def test_threshold_uses_relative_with_floor(self):
        tol = Tolerance(rel_eps=1e-9, abs_floor=1e-12)
        assert tol.threshold(1.0) == 1e-9
        assert tol.threshold(0.0) == 1e-12
        assert tol.threshold(100.0) == pytest.approx(1e-7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(rel_eps=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs_floor=-1.0)

    @pytest.mark.parametrize("field", ["rel_eps", "abs_floor"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -1.0])
    def test_rejects_nonfinite_like_nonpositive(self, field, value):
        message = "^rel_eps and abs_floor must be positive and finite$"
        with pytest.raises(ValueError, match=message):
            Tolerance(**{field: value})

    def test_threshold_of_an_array_is_elementwise(self):
        tol = Tolerance(rel_eps=1e-9, abs_floor=1e-12)
        scales = np.array([[0.0, 1.0], [100.0, 1e-5]])
        want = [[tol.threshold(float(x)) for x in row] for row in scales]
        np.testing.assert_array_equal(tol.threshold(scales), want)
        assert isinstance(tol.threshold(np.float64(2.0)), float)


class TestStacks:
    """Stacked operands get one result per member, equal to the result on
    the member alone."""

    def test_singular_rank_per_spectrum(self):
        rng = np.random.default_rng(4)
        s = -np.sort(-np.abs(rng.standard_normal((3, 4, 6))), axis=-1)
        s[0, 1, 3:] = 1e-12 * s[0, 1, 0]
        s[1, 2] = 1e-13  # every value below the absolute floor
        s[2, 0, 1:] = 0.0
        ranks = singular_rank(s)
        assert ranks.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert ranks[idx] == singular_rank(s[idx])
        assert ranks[0, 1] == 3 and ranks[1, 2] == 0 and ranks[2, 0] == 1
        assert singular_rank(np.zeros(0)) == 0
        assert singular_rank(np.zeros((2, 0))).tolist() == [0, 0]

    def test_frobenius_per_matrix(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 3, 4), (2, 3, 7, 2), (4, 1, 1)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            norms = frobenius(a)
            assert norms.shape == shape[:-2]
            for idx in np.ndindex(*shape[:-2]):
                assert norms[idx] == frobenius(a[idx])
        real = rng.standard_normal((2, 3, 3))
        assert frobenius(real).tolist() == [frobenius(m) for m in real]


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(2, dtype=complex))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(2), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        dec = hermitian_eig(np.diag([2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])

    def test_frame_operator_of_repeated_family(self):
        # direct summation oracle for the frame operator of {e1, e1, e2}
        e1 = np.array([1, 0], dtype=complex)
        e2 = np.array([0, 1], dtype=complex)
        s = np.zeros((2, 2), dtype=complex)
        for g in (e1, e1, e2):
            s += np.outer(g, g.conj())
        dec = hermitian_eig(s)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0], atol=1e-12)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 5, 16):
            a = _random_hermitian(rng, n)
            dec = hermitian_eig(a)
            res = np.linalg.norm(a - dec.reconstruct())
            assert res <= 1e-8 * np.linalg.norm(a)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.ones((2, 3), dtype=complex))

    @pytest.mark.parametrize(
        "a, message",
        [(np.zeros((0, 0)), "non-empty 2-D matrix"), ([[np.nan]], "must be finite")],
    )
    def test_rejects_empty_or_non_finite(self, a, message):
        with pytest.raises(ValueError, match=message):
            hermitian_eig(a)

    def test_lapack_failure_is_typed(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            hermitian_eig(np.eye(2, dtype=complex))


class TestPsdInverseSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_inverse_sqrt(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        b = psd_inverse_sqrt(np.diag([4.0, 1.0]).astype(complex))
        np.testing.assert_allclose(b, np.diag([0.5, 1.0]), atol=1e-12)

    def test_rank_deficient_diagonal(self):
        b = psd_inverse_sqrt(np.diag([2.0, 1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(b, np.diag([1 / np.sqrt(2), 1.0, 0.0]), atol=1e-12)

    def test_bab_is_projection_and_commutes(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 9):
            a = _random_psd(rng, n)
            b = psd_inverse_sqrt(a)
            scale = np.linalg.norm(a)
            assert np.linalg.norm(a @ b - b @ a) <= 1e-8 * scale
            p = b @ a @ b
            assert np.linalg.norm(p @ p - p) <= 1e-8
            np.testing.assert_allclose(b, b.conj().T, atol=1e-10)

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrixError):
            psd_inverse_sqrt(np.zeros((2, 2), dtype=complex))

    def test_roundoff_negatives_are_clamped(self):
        a = np.diag([1.0, -1e-16]).astype(complex)
        b = psd_inverse_sqrt(a)
        np.testing.assert_allclose(b, np.diag([1.0, 0.0]), atol=1e-12)

