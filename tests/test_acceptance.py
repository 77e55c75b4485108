"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance below is pinned to its stated value.
"""

import json

import numpy as np
import pytest

from helpers import perturb_member, weak_dual_instance
from framedual import VectorFamily
from framedual.errors import CriticalDensityError
from framedual.frames import (
    analyze,
    random_frame,
    random_parseval,
    random_unitary,
    standard_basis_family,
)
from framedual.fixtures import FIXTURE_IDS, run_repro
from framedual.gabor import (
    adjoint_system,
    canonical_tight_window,
    divisor_lattices,
    gabor_system,
    promote_to_r_dual,
    run_exploration,
    tight_gabor_weak_r_dual,
)
from framedual.rduality import (
    build_parseval_v,
    characterize,
    characterizing_sequence_bounds,
    commuting_parseval_family,
    cross_gram,
    dual_side,
    find_conjugate_witness,
    synthesized_gram_invariance_residual,
    transfer_via_coisometry,
    verify_conjugate_witness,
    weak_r_dual,
)

CORPUS_N = (2, 4, 6, 8, 12, 16)


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _random_sizes(rng):
    dim = int(rng.integers(2, 9))
    count = int(rng.integers(dim + 1, 13))
    return dim, count


def test_criterion_1_definition_round_trip():
    rng = np.random.default_rng(101)
    for k in range(200):
        dim, count = _random_sizes(rng)
        w, f, u, v, cert = weak_dual_instance(rng, dim, count)
        assert cert.verdict == "WeakRDual", (k, cert.verdict)
        assert cert.commutation_residual <= 1e-8
        agreed = characterize(w, f, u, v)
        assert agreed.characterization_verdict == "WeakRDual"
    for k in range(200):
        dim, count = _random_sizes(rng)
        w, f, u, v, _ = weak_dual_instance(rng, dim, count)
        bad = perturb_member(rng, v, noise=1e-3)
        w_bad, cert = weak_r_dual(f, u, bad)
        assert cert.verdict == "NotWeakRDual", k
        agreed = characterize(w_bad, f, u, bad)
        assert agreed.characterization_verdict == "NotWeakRDual"
    _report(1, "definition round-trip with perturbed negatives")


def test_criterion_2_commuting_parseval_construction():
    rng = np.random.default_rng(102)
    for k in range(100):
        dim = int(rng.integers(2, 9))
        count = int(rng.integers(dim + 1, 13))
        f = random_frame(rng, count, dim)
        assert not analyze(f).is_riesz_basis
        res = commuting_parseval_family(f)
        v = res.family
        gram_dev = float(np.linalg.norm(cross_gram(v, v) - np.eye(count)))
        assert gram_dev > 1e-3, k
        assert analyze(v).parseval_residual <= 1e-9
        assert not res.output_is_onb
    for k in range(10):
        dim = int(rng.integers(2, 9))
        f = random_frame(rng, dim, dim)
        res = commuting_parseval_family(f)
        assert res.input_is_riesz_basis and res.output_is_onb
    _report(2, "commuting Parseval family, degenerate case flagged")


def test_criterion_3_kernel_identity_and_monotonicity():
    rng = np.random.default_rng(103)
    for k in range(100):
        dim, count = _random_sizes(rng)
        w, f, u, v, cert = weak_dual_instance(rng, dim, count)
        assert cert.passes()
        side = dual_side(w, f, u)
        assert side.kernel == f.count - f.rank(), k
        assert side.deficit <= side.kernel
        if not cert.v_is_onb:
            assert side.deficit < side.kernel
    _report(3, "kernel identity and strict deficit monotonicity")


def test_criterion_4_parseval_completion_construction():
    rng = np.random.default_rng(104)
    built = 0
    while built < 50:
        dim, count = _random_sizes(rng)
        w, f, u, v, cert = weak_dual_instance(rng, dim, count)
        side = dual_side(w, f, u)
        if not (cert.passes() and side.deficit < side.kernel):
            continue
        v2 = build_parseval_v(w, f, u)
        cert2 = characterize(w, f, u, v2)
        assert cert2.characterization_verdict == "WeakRDual"
        assert cert2.verdict == "WeakRDual"
        assert not analyze(v2).is_onb
        built += 1
    _report(4, "isometric-extension Parseval completion")


def test_criterion_5_coisometric_transfer():
    rng = np.random.default_rng(105)
    for k in range(50):
        dim, count = _random_sizes(rng)
        p, f, u, h, cert = weak_dual_instance(rng, dim, count)
        assert cert.passes()
        q = random_unitary(rng, dim)
        w = VectorFamily((q @ p.vectors.T).T, label="rotated")
        res = transfer_via_coisometry(w, p, f, u, h)
        assert res.coisometry_residual <= 1e-8, k
        assert res.transfer_residual <= 1e-8, k
    _report(5, "coisometric transfer recovers rotated duals")


def test_criterion_6_conjugate_witness_iff():
    rng = np.random.default_rng(106)
    found, refused = 0, 0
    for k in range(100):
        dim = int(rng.integers(2, 7))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s_w = a @ a.conj().T + 0.3 * np.eye(dim)
        if k % 2 == 0:
            q = random_unitary(rng, dim)
            s_f = np.conj(q @ s_w @ q.conj().T)  # planted spectral match
            expect = True
        else:
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            s_f = b @ b.conj().T + 0.3 * np.eye(dim)
            lam_w = np.linalg.eigvalsh(s_w)
            lam_f = np.linalg.eigvalsh(s_f)
            expect = bool(np.max(np.abs(lam_w - lam_f)) <= 1e-9 * lam_w[-1])
        witness = find_conjugate_witness(s_w, s_f)
        assert (witness is not None) == expect, k
        if witness is None:
            refused += 1
            continue
        found += 1
        # realize families with the prescribed frame operators and verify
        w_fam = VectorFamily(_sqrtm(s_w).T, label="w")
        f_fam = VectorFamily(_sqrtm(s_f).T, label="f")
        res = verify_conjugate_witness(witness, w_fam, f_fam)
        assert res.ok and res.w_residual <= 1e-8 and res.f_residual <= 1e-8
        assert res.u_parseval_residual <= 1e-8
        assert res.dual_commutation_residual <= 1e-8
        assert res.projected_parseval_residual <= 1e-8
    assert found >= 40 and refused >= 40
    _report(6, "conjugate-linear witness iff shared spectra")


def _sqrtm(s):
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def test_criterion_7_sequence_condition_suite():
    rng = np.random.default_rng(107)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(dim, 11))
        f = random_frame(rng, count, dim)
        v = random_frame(rng, count, dim)
        u = random_parseval(rng, count, dim)
        assert synthesized_gram_invariance_residual(f, u, v) <= 1e-9
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        f = random_frame(rng, dim, dim)
        w = random_frame(rng, dim, dim)
        u = VectorFamily(random_unitary(rng, dim).T, label="onb")
        res = characterizing_sequence_bounds(w, f, u)
        assert res.sandwich_ok
    report = run_repro("3.3")
    by_name = {a["name"]: a for a in report["assertions"]}
    assert by_name["tight_half_bounds"]["passed"]
    assert by_name["gram_invariance_fails"]["passed"]
    assert by_name["invariance_defect_vector_matches"]["passed"]
    _report(7, "necessity residuals, bound sandwich, tight fixture")


def test_criterion_8_gabor_duality_corpus():
    rng = np.random.default_rng(108)
    systems = 0
    for N in CORPUS_N:
        for lat in divisor_lattices(N):
            for _ in range(20):
                w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                w /= np.linalg.norm(w)
                sys = gabor_system(lat, w)
                sa = analyze(sys.family)
                aa = analyze(adjoint_system(sys).family)
                scale = max(sa.upper_bound, aa.upper_bound)
                assert abs(sa.lower_bound - aa.lower_bound) <= 1e-8 * scale
                assert abs(sa.upper_bound - aa.upper_bound) <= 1e-8 * scale
                assert sa.is_frame_for_ambient == aa.is_riesz_sequence
                systems += 1
    assert systems == 20 * sum(len(divisor_lattices(N)) for N in CORPUS_N)
    _report(8, f"duality bounds across {systems} systems certify the adjoint scale")


def test_criterion_9_tight_pipeline_and_critical_promotion():
    rng = np.random.default_rng(109)
    redundant, critical = 0, 0
    for N in CORPUS_N:
        for lat in divisor_lattices(N):
            if lat.redundancy <= 1.0:
                continue
            seed_window = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            g = canonical_tight_window(lat, seed_window)
            sys = gabor_system(lat, g)
            assert analyze(sys.family).is_tight
            res = tight_gabor_weak_r_dual(sys)
            cert = res.certificate
            assert cert.verdict == "WeakRDual", (lat.N, lat.a, lat.b)
            assert cert.synthesis_residual <= 1e-9
            assert cert.commutation_residual <= 1e-9
            assert cert.dual_commutation_residual <= 1e-9
            assert cert.projected_parseval_residual <= 1e-9
            assert not analyze(res.v).is_onb
            redundant += 1
        for lat in divisor_lattices(N, critical=True):
            seed_window = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            g = canonical_tight_window(lat, seed_window)
            sys = gabor_system(lat, g)
            assert analyze(sys.family).is_riesz_basis
            with pytest.raises(CriticalDensityError):
                tight_gabor_weak_r_dual(sys)
            adj = adjoint_system(sys)
            u = standard_basis_family(lat.N)
            promo = promote_to_r_dual(adj.family, sys.family, u)
            assert promo.certificate.verdict == "RDual"
            assert analyze(promo.v_prime).is_onb
            critical += 1
    assert redundant >= 30 and critical >= 10
    _report(
        9,
        f"tight pipeline on {redundant} redundant systems;"
        f" {critical} critical promotions",
    )


def test_criterion_10_repro_and_deterministic_exploration():
    for fid in FIXTURE_IDS:
        report = run_repro(fid)
        assert report["all_passed"], (fid, report["assertions"])
    r1 = run_exploration([4, 6, 8], seed=1, trials=40)
    r2 = run_exploration([4, 6, 8], seed=1, trials=40)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert sum(r1["verdict_counts"].values()) == 40
    _report(10, "reproduction fixtures and byte-identical exploration")
