"""Thin-factor core against a dense oracle.

The library derives every classification, dual, tightening and
certificate residual from one thin SVD per family and never forms a
count x count matrix.  The oracle below is the textbook dense form: full
Gram matrices, frame operators and ``full_matrices=True`` null bases.
Verdicts, ranks and flags must match exactly; residuals must agree
within the tolerance threshold at the scale the verdict uses.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import (
    dense_extension_head,
    perturb_member,
    psd_inverse_sqrt,
    weak_dual_instance,
)
from framedual import VectorFamily, frames, numerics, rduality
from framedual.errors import (
    DimensionCaseError,
    GateFailedError,
    HypothesisFailedError,
    NotParsevalError,
)
from framedual.fixtures import FIXTURE_IDS, build_fixture
from framedual.frames import (
    _parseval_residual,
    analyze,
    canonical_dual,
    frame_operator,
    parseval_tighten,
    random_frame,
    random_parseval,
    random_unitary,
    span_projector,
    standard_basis_family,
)
from framedual import gabor
from framedual.gabor import (
    GaborLattice,
    _coset_gather,
    _coset_phases,
    _row_tables,
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
from framedual.numerics import DEFAULT_TOL, singular_rank
from framedual.rduality import (
    PARSEVAL_GATE,
    _ExtensionFamily,
    _certificate,
    _constructed_v,
    _gate_parseval,
    build_parseval_v,
    certify_weak_r_dual,
    commuting_parseval_family,
    dual_side,
    weak_r_dual,
)

TOL = DEFAULT_TOL


# ----------------------------------------------------------------------
# Dense oracle
# ----------------------------------------------------------------------


def dense_rank_nullspace(a):
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    if s.size == 0 or s[0] < TOL.abs_floor:
        rank = 0
    else:
        rank = int(np.sum(s > TOL.threshold(float(s[0]))))
    return rank, vh[rank:].conj().T


def dense_projector(syn):
    u, s, _ = np.linalg.svd(syn, full_matrices=False)
    rank = dense_rank_nullspace(syn)[0]
    return u[:, :rank] @ u[:, :rank].conj().T


def dense_dual_syn(fam):
    """``S^+ T`` with the pseudo-inverse taken on the frame operator."""
    t = fam.vectors.T
    u, s, _ = np.linalg.svd(t, full_matrices=False)
    rank = dense_rank_nullspace(t)[0]
    s_pinv = (u[:, :rank] / s[:rank] ** 2) @ u[:, :rank].conj().T
    return s_pinv @ t


def fro(a):
    return float(np.linalg.norm(a))


def dense_analyze(fam):
    m, n = fam.count, fam.ambient_dim
    t = fam.vectors.T
    rank = dense_rank_nullspace(t)[0]
    s_op = t @ t.conj().T
    gram = fam.vectors @ fam.vectors.conj().T
    pars = fro(s_op - dense_projector(t))
    gram_res = fro(gram - np.eye(m))
    is_parseval = pars <= TOL.threshold(max(1.0, fro(s_op)))
    return {
        "span_dim": rank,
        "is_parseval_for_span": is_parseval,
        "is_onb": is_parseval
        and rank == n
        and gram_res <= TOL.threshold(max(1.0, fro(gram))),
        "parseval_residual": (pars, max(1.0, fro(s_op))),
        "gram_identity_residual": (gram_res, max(1.0, fro(gram))),
    }


def _against(a, b):
    """``||a - b||_F`` with the scale of its operands: rounding in either
    form is relative to them, not to the (possibly large) difference."""
    return fro(a - b), max(1.0, fro(a), fro(b))


def dense_certificate(w, f, u, v):
    n = w.ambient_dim
    g_fu = f.vectors @ u.vectors.conj().T
    g_uf = g_fu.conj().T
    v_syn, w_syn = v.vectors.T, w.vectors.T
    g_vv = v.vectors @ v.vectors.conj().T
    wd_syn = dense_dual_syn(w)
    g_wd_w = wd_syn.T @ w.vectors.conj().T
    y_syn = wd_syn @ g_uf
    p = dense_projector(w_syn)
    w_scale = max(1.0, float(np.max(np.linalg.norm(w_syn, axis=0))))
    g_scale = max(1.0, fro(g_fu))
    synth = float(np.max(np.linalg.norm(w_syn - v_syn @ g_fu, axis=0)))
    comm = fro((g_vv.T - np.eye(v.count)) @ g_fu)
    dual = fro((g_wd_w.T - np.eye(w.count)) @ g_uf)
    proj = float(np.max(np.linalg.norm(p @ v_syn - y_syn, axis=0)))
    onb = dense_analyze(u)["is_onb"] and dense_analyze(v)["is_onb"]

    def verdict(ok):
        return "NotWeakRDual" if not ok else ("RDual" if onb else "WeakRDual")

    return {
        "synthesis_residual": (synth, w_scale),
        "commutation_residual": (comm, g_scale),
        "dual_commutation_residual": (dual, g_scale),
        "projected_parseval_residual": _against(y_syn @ y_syn.conj().T, p),
        "projection_residual": (proj, w_scale),
        "u_parseval_residual": _against(u.vectors.T @ u.vectors.conj(), np.eye(n)),
        "v_parseval_residual": _against(v.vectors.T @ v.vectors.conj(), np.eye(n)),
        "span_deficit": n - dense_rank_nullspace(w_syn)[0],
        "kernel_dim": f.count - dense_rank_nullspace(y_syn)[0],
        "verdict": verdict(
            synth <= TOL.threshold(w_scale) and comm <= TOL.threshold(g_scale)
        ),
        "characterization_verdict": verdict(
            dual <= TOL.threshold(g_scale) and proj <= TOL.threshold(w_scale)
        ),
    }


def pad_adjoint(w0, count):
    """The adjoint zero-padded to the system count: the library never
    builds it, the dense oracle takes it as input."""
    out = np.zeros((count, w0.ambient_dim), dtype=np.complex128)
    out[: w0.count] = w0.vectors
    return VectorFamily(out, label=f"padded-{w0.label}")


def dense_padded_dual_residual(w_pad, f, u):
    wd_syn = dense_dual_syn(w_pad)
    g = wd_syn.T @ w_pad.vectors.conj().T
    return fro((g.T - np.eye(w_pad.count)) @ (u.vectors @ f.vectors.conj().T))


def dense_candidate(w_pad, f, u, p):
    """Oracle for one exploration candidate record."""
    g_uf = u.vectors @ f.vectors.conj().T
    y_syn = dense_dual_syn(w_pad) @ g_uf
    dual = dense_padded_dual_residual(w_pad, f, u)
    proj = _against(y_syn @ y_syn.conj().T, p)
    scale = max(1.0, fro(g_uf))
    ok = dual <= TOL.threshold(scale) and proj[0] <= TOL.threshold(max(1.0, fro(p)))
    return {
        "verdict": "ConditionsHold" if ok else "ConditionsFail",
        "dual_commutation_residual": (dual, scale),
        "projected_parseval_residual": proj,
    }


def assert_spectrum_matches(got: list, fam):
    """The nonzero frame-operator eigenvalues, ascending, against a dense
    ``eigvalsh`` cut at the threshold of the largest eigenvalue."""
    vals = np.linalg.eigvalsh(fam.vectors.T @ fam.vectors.conj())
    top = float(vals[-1])
    want = vals[vals > TOL.threshold(top)]
    assert len(got) == len(want)
    assert np.all(np.abs(np.array(got) - want) <= TOL.threshold(top))


def assert_matches(got: dict, want: dict):
    """Exact agreement on discrete fields; residuals within the threshold
    at the scale the verdict compares them with."""
    for key, expected in want.items():
        if isinstance(expected, tuple):
            value, scale = expected
            assert abs(got[key] - value) <= TOL.threshold(scale), (key, got[key], value)
        else:
            assert got[key] == expected, (key, got[key], expected)


# ----------------------------------------------------------------------
# Random families: tall, wide, rank-deficient, zero members
# ----------------------------------------------------------------------


def _families():
    rng = np.random.default_rng(2024)
    yield random_frame(rng, 11, 4, label="tall")
    yield random_frame(rng, 3, 7, label="wide")
    yield random_parseval(rng, 9, 5, label="parseval")
    low = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
    yield VectorFamily(low + 0j, label="rank-deficient")
    zero = np.array(random_frame(rng, 6, 4).vectors)
    zero[[1, 4]] = 0.0
    yield VectorFamily(zero, label="zero-members")
    yield VectorFamily(random_unitary(rng, 6), label="unitary")
    yield standard_basis_family(5, 8)


@pytest.mark.parametrize("fam", list(_families()), ids=lambda f: f.label)
def test_analyze_matches_dense(fam):
    a = analyze(fam)
    assert_matches(a.to_json_dict(), dense_analyze(fam))


@pytest.mark.parametrize("fam", list(_families()), ids=lambda f: f.label)
def test_duals_and_projector_match_dense(fam):
    scale = max(1.0, float(np.max(np.abs(fam.vectors))))
    np.testing.assert_allclose(
        canonical_dual(fam).vectors.T, dense_dual_syn(fam), atol=TOL.threshold(scale)
    )
    np.testing.assert_allclose(
        span_projector(fam), dense_projector(fam.vectors.T), atol=TOL.threshold(1.0)
    )
    t = fam.vectors.T
    tight = psd_inverse_sqrt(t @ t.conj().T) @ t
    np.testing.assert_allclose(
        parseval_tighten(fam).vectors.T, tight, atol=TOL.threshold(1.0)
    )


@pytest.mark.parametrize(
    "fam",
    list(_families()) + [VectorFamily(np.zeros((4, 3)), label="all-zero")],
    ids=lambda f: f.label,
)
def test_parseval_gate_matches_dense(fam):
    # the gate reads ||S - P||_F off the singular values; the dense form
    # builds S and P, and its accept/reject must be the gate's (the
    # all-zero family has S = P = 0, so it passes, with no EmptySpanError)
    t = fam.vectors.T
    s_op = t @ t.conj().T
    dense_res, dense_scale = fro(s_op - dense_projector(t)), max(1.0, fro(s_op))
    res, scale = _parseval_residual(fam.svd[1], fam.rank(TOL))
    assert abs(res - dense_res) <= TOL.threshold(dense_scale)
    assert abs(scale - dense_scale) <= TOL.threshold(dense_scale)
    try:
        _gate_parseval(fam, TOL, "fam")
        accepted = True
    except NotParsevalError:
        accepted = False
    assert accepted == (dense_res <= PARSEVAL_GATE * dense_scale)


def _frame_operator_inputs():
    yield from _families()
    rng = np.random.default_rng(31)
    f_order = np.asfortranarray(random_frame(rng, 9, 5).vectors)
    assert not f_order.flags.c_contiguous
    yield VectorFamily(f_order, label="f-ordered")


@pytest.mark.parametrize("fam", list(_frame_operator_inputs()), ids=lambda f: f.label)
def test_frame_operator_matches_dense(fam):
    s = frame_operator(fam)
    dense = fam.vectors.T @ fam.vectors.conj()
    assert fro(s - dense) <= TOL.threshold(max(1.0, fro(dense)))
    assert np.array_equal(s, s.conj().T)  # exactly Hermitian


def test_svd_is_computed_once_and_read_only():
    fam = random_frame(np.random.default_rng(5), 7, 3)
    first = fam.svd
    assert fam.svd is first
    for factor in first:
        assert not factor.flags.writeable
    assert fam.rank() == 3


def _certificate_instances():
    rng = np.random.default_rng(77)
    for dim, count in ((3, 5), (4, 4), (2, 7)):
        w, f, u, v, _ = weak_dual_instance(rng, dim, count)
        yield f"positive-{dim}x{count}", (w, f, u, v)
        yield f"perturbed-{dim}x{count}", (perturb_member(rng, w), f, u, v)
    # rank-deficient f and w, and a w with zero members
    u = random_parseval(rng, 6, 4)
    v = random_parseval(rng, 6, 4)
    f = VectorFamily(
        (rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))) + 0j, label="low"
    )
    w = VectorFamily(((v.vectors.T @ f.vectors) @ u.vectors.conj().T).T, label="w")
    yield "rank-deficient", (w, f, u, v)
    zero = np.array(w.vectors)
    zero[2] = 0.0
    yield "zero-member", (VectorFamily(zero, label="w0"), f, u, v)
    q = VectorFamily(random_unitary(rng, 5), label="q")
    yield "orthonormal", (q, q, q, q)
    # wide (count < dim): u, v and w have rank count < dim, the low-rank
    # case of the factor associations
    for dim, count in ((7, 3), (9, 4)):
        w, f, u, v, _ = weak_dual_instance(rng, dim, count)
        yield f"positive-{dim}x{count}", (w, f, u, v)
        yield f"perturbed-{dim}x{count}", (perturb_member(rng, w), f, u, v)
    # a rank-deficient u: orthonormal members with one set to zero, so
    # rank(u) = 2 < min(n, K) = 3 and the thin factors of u carry a zero
    # singular value
    f = random_frame(rng, 3, 5, label="f")
    rows = random_unitary(rng, 5)[:3]
    rows[1] = 0.0
    u = VectorFamily(rows, label="u-zero-member")
    assert u.rank() == 2
    v = commuting_parseval_family(f).family
    w, _ = weak_r_dual(f, u, v)
    yield "positive-rank-deficient-u", (w, f, u, v)
    yield "perturbed-rank-deficient-u", (perturb_member(rng, w), f, u, v)


@pytest.mark.parametrize(
    "quad", [q for _, q in _certificate_instances()],
    ids=[name for name, _ in _certificate_instances()],
)
def test_certificate_matches_dense(quad):
    cert = certify_weak_r_dual(*quad)
    assert_matches(cert.to_json_dict(), dense_certificate(*quad))


def dense_sequence_syn(w, f, u):
    """``Y = W~^t G(u,f)``, the synthesis of the characterizing sequence."""
    return dense_dual_syn(w) @ (u.vectors @ f.vectors.conj().T)


def dense_projection_residual(w, f, u, v):
    """``max_i ||P v_i - y_i||`` with the dense projector of span{w}."""
    p = dense_projector(w.vectors.T)
    diff = p @ v.vectors.T - dense_sequence_syn(w, f, u)
    return float(np.max(np.linalg.norm(diff, axis=0)))


def test_dual_side_in_span_coordinates_matches_dense():
    # the record's span-coordinate quantities against the dense forms:
    # ||G(u,f)||, ||(G(w~,w)^t - I) G(u,f)||, ||Y Y^* - P||, rank(Y), the
    # rows of Y, and the certificate's max ||P v_i - y_i||
    for name, (w, f, u, v) in _certificate_instances():
        side = dual_side(w, f, u, TOL)
        g_uf = u.vectors @ f.vectors.conj().T
        g_scale = max(1.0, fro(g_uf))
        y_syn = dense_sequence_syn(w, f, u)
        g_wd_w = dense_dual_syn(w).T @ w.vectors.conj().T
        dual = fro((g_wd_w.T - np.eye(w.count)) @ g_uf)
        p = dense_projector(w.vectors.T)
        pars, pars_scale = _against(y_syn @ y_syn.conj().T, p)
        assert abs(side.gram_norm - fro(g_uf)) <= TOL.threshold(g_scale), name
        assert abs(side.dual_res - dual) <= TOL.threshold(g_scale), name
        assert abs(side.parseval_res - pars) <= TOL.threshold(pars_scale), name
        assert side.kernel == f.count - dense_rank_nullspace(y_syn)[0], name
        y_scale = max(1.0, fro(y_syn))
        assert fro(side.sequence.vectors - y_syn.T) <= TOL.threshold(y_scale), name
        w_scale = max(1.0, float(np.max(np.linalg.norm(w.vectors, axis=1))))
        proj = _certificate(side, v).projection_residual
        want = dense_projection_residual(w, f, u, v)
        assert abs(proj - want) <= TOL.threshold(w_scale), name


@pytest.mark.parametrize("dim,k", [(8, 2), (5, 3)])
@pytest.mark.parametrize("count", [121, 128, 129, 293])
def test_projection_residual_matches_dense(dim, k, count):
    # f and v with many more members than w and u: the residual is read as
    # the row norms of the count x rank matrix V conj(q) - conj(left)
    rng = np.random.default_rng([dim, k, count])
    w, u = random_frame(rng, k, dim), random_frame(rng, k, dim)
    f, v = random_frame(rng, count, dim), random_frame(rng, count, dim)
    got = _certificate(dual_side(w, f, u, TOL), v).projection_residual
    want = dense_projection_residual(w, f, u, v)
    assert abs(got - want) <= TOL.threshold(max(1.0, want))


# ----------------------------------------------------------------------
# Gabor: every divisor lattice with N <= 24
# ----------------------------------------------------------------------


def _lattices():
    return [lat for N in range(2, 25) for lat in divisor_lattices(N)]


def _window(lat, seed):
    rng = np.random.default_rng([seed, lat.N, lat.a, lat.b])
    return rng.standard_normal(lat.N) + 1j * rng.standard_normal(lat.N)


def _complement_basis(w):
    _, basis = dense_rank_nullspace(w.vectors.conj())
    return basis


def _lattice_families():
    """Builders of the system and the adjoint on every divisor lattice
    with N <= 24, each call a fresh family."""
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            window = _window(lat, 5)
            yield lambda lat=lat, window=window: gabor_system(lat, window).family
            yield lambda lat=lat, window=window: adjoint_system(
                gabor_system(lat, window)
            ).family


def test_seeded_factors_match_dense_on_every_lattice():
    checked = 0
    for build in _lattice_families():
        # one s per family, whatever is read first
        values_first, fam = build(), build()
        u, s, vh = fam.svd
        assert np.array_equal(values_first._s, s)
        t = fam.vectors.T
        dense = np.linalg.svd(t, compute_uv=False)
        k = dense.size
        assert u.shape == (fam.ambient_dim, k) and vh.shape == (k, fam.count)
        assert singular_rank(s) == dense_rank_nullspace(t)[0]
        assert np.all(np.abs(s - dense) <= TOL.threshold(dense[0]))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k), atol=TOL.threshold(1.0))
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(k), atol=TOL.threshold(1.0))
        np.testing.assert_allclose((u * s) @ vh, t, atol=TOL.threshold(dense[0]))
        checked += 1
    assert checked > 700


def searched_orbits(lat):
    """Per residue ``r``, the distinct block ``rho = r mod d`` and the
    shifts ``(m, j)`` of ``r = rho + j time_step - m n_freqs`` with the
    least ``j >= 0``, found by search, after checking that block ``r`` of
    the gather is block ``rho`` cyclically shifted by ``m`` rows and ``j``
    columns."""
    time_step, n_freqs = lat.a, lat.n_freqs
    coset, d = _coset_gather(lat), np.gcd(time_step, n_freqs)
    found = []
    for r in range(n_freqs):
        rho = r % d
        j = next(j for j in range(n_freqs) if (rho + j * time_step) % n_freqs == r)
        m = (rho + j * time_step - r) // n_freqs
        assert np.array_equal(coset[r], np.roll(coset[rho], (m, j), axis=(0, 1)))
        found.append((rho, m, j))
    return found


def eager_translates(c):
    """The member rows and the thin SVD ``(U, s, Vh)`` of a record's
    systems, all assembled at once: ``s`` and its order from the
    values-only SVD of the distinct coset blocks, and ``U`` and ``Vh``
    from the record's factors of those blocks, permuted by the searched
    orbits, for every residue in a loop: the oracle for the assemblers,
    which read ``U_r`` and ``Vh_r`` through the orbit table and build
    ``Vh`` only when it is read."""
    windows, lat, scale = c.windows, c.lattice, c.scale
    N, freq_step, n_times, n_freqs = lat.N, lat.b, lat.n_times, lat.n_freqs
    phase, shift = _row_tables(lat)
    coset, coset_phase = _coset_gather(lat), _coset_phases(lat)
    g, L = windows.shape[0], n_freqs
    rows = (scale * phase)[:, None, :] * windows[:, None, shift]
    orbits = searched_orbits(lat)
    d = 1 + max(rho for rho, _, _ in orbits)
    sigma_d = np.linalg.svd(windows[:, coset[:d]], compute_uv=False)
    u_d, vh_d = c.factors
    k = sigma_d.shape[-1]
    sigma = np.empty((g, L, k))
    u_r = np.empty((g, L, freq_step, k), dtype=np.complex128)
    vh_r = np.empty((g, L, k, n_times), dtype=np.complex128)
    for r, (rho, m, j) in enumerate(orbits):
        sigma[:, r] = sigma_d[:, rho]
        u_r[:, r] = np.roll(u_d[:, rho], m, axis=-2)
        vh_r[:, r] = np.roll(vh_d[:, rho], j, axis=-1)
    sigma = sigma.reshape(g, L * k)
    order = np.argsort(-sigma, axis=-1, kind="stable")
    r, i = np.divmod(order, k)
    stack, col = np.arange(g)[:, None], np.arange(L * k)
    u = np.zeros((g, freq_step, L, L * k), dtype=np.complex128)
    u[stack, :, r, col] = u_r[stack, r, :, i]
    vh = coset_phase[r][..., None] * vh_r[stack, r, i][..., None, :]
    factors = (
        u.reshape(g, N, L * k),
        (scale * np.sqrt(L)) * np.take_along_axis(sigma, order, axis=-1),
        vh.reshape(g, L * k, L * n_times),
    )
    return rows.reshape(g, n_freqs * n_times, N), factors


def test_on_demand_factors_equal_the_eager_assembly_on_every_lattice(monkeypatch):
    built = {
        name: _recorded_assembler(monkeypatch, name)
        for name in ("_assemble_u", "_assemble_vh")
    }
    checked = 0
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            sys = gabor_system(lat, _window(lat, 11))
            for fam in (sys.family, adjoint_system(sys).family):
                rows, factors = eager_translates(fam._cosets)
                assert built == {name: [] for name in built}  # no U, no Vh yet
                assert np.array_equal(fam.vectors, rows[0])
                for got, want in zip(fam.svd, factors):
                    assert np.array_equal(got, want[0])
                assert built == {name: [fam.count] for name in built}
                for counts in built.values():
                    counts.clear()
                checked += 1
    assert checked > 700


def test_orbit_factors_reproduce_every_block_on_every_lattice():
    # the block vectors of the d distinct blocks, read through the orbit
    # table, factor every block G_r of the system and of the adjoint, and
    # each block's singular values are those of its own values-only SVD;
    # stacks of two windows
    checked = 0
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            windows = np.stack([_window(lat, 16), _window(lat, 17)])
            for c in (
                gabor._coset_svd(windows, lat),
                gabor._adjoint_cosets(windows, lat),
            ):
                blocks = c.blocks()  # (2, L, freq_step, n_times), every residue
                u_d, vh_d = c.factors
                base, rows, cols = gabor._coset_orbits(c.lattice)
                L = c.lattice.n_freqs
                assert u_d.shape[1] == vh_d.shape[1] == np.gcd(c.lattice.a, L)
                assert np.array_equal(np.unique(base), np.arange(u_d.shape[1]))
                g, k = len(windows), u_d.shape[-1]
                sigma = np.zeros((g, L, k))
                sigma[np.arange(g)[:, None], c.r, c.i] = c.s / (c.scale * np.sqrt(L))
                u_r = u_d[:, base[:, None], rows]
                vh_r = vh_d[:, base[:, None, None], np.arange(k)[:, None], cols[:, None]]
                dense = np.linalg.svd(blocks, compute_uv=False)
                for w in range(g):
                    scale = dense[w].max()
                    assert np.all(np.abs(sigma[w] - dense[w]) <= TOL.threshold(scale))
                    got = (u_r[w] * sigma[w][:, None, :]) @ vh_r[w]
                    assert np.all(np.abs(got - blocks[w]) <= TOL.threshold(scale))
                checked += 1
    assert checked > 700


def test_derived_adjoint_matches_its_own_factorization_on_every_lattice():
    # the adjoint record derived from the system's (gabor._adjoint_of)
    # against the adjoint factored on its own (gabor._adjoint_cosets):
    # the same singular values, orthonormal factors that reproduce the
    # adjoint's rows; a stack of two random windows and the delta
    # window, whose blocks are rank deficient
    checked = 0
    for N in range(1, 25):
        delta = np.zeros(N, dtype=np.complex128)
        delta[0] = 1.0
        for lat in divisor_lattices(N):
            windows = np.stack([_window(lat, 18), _window(lat, 19), delta])
            derived = gabor._adjoint_of(gabor._coset_svd(windows, lat))
            own = gabor._adjoint_cosets(windows, lat)
            assert derived.lattice == own.lattice and derived.scale == own.scale
            rows = gabor._assemble_rows(own)
            assert np.array_equal(gabor._assemble_rows(derived), rows)
            u, vh = gabor._assemble_u(derived), gabor._assemble_vh(derived)
            k = derived.s.shape[-1]
            for w in range(len(windows)):
                top = own.s[w, 0]
                assert np.all(np.abs(derived.s[w] - own.s[w]) <= 1e-13 * top)
                syn = (u[w] * derived.s[w]) @ vh[w]
                assert fro(syn - rows[w].T) <= 1e-13 * max(1.0, fro(rows[w]))
                for factor in (u[w].conj().T @ u[w], vh[w] @ vh[w].conj().T):
                    assert fro(factor - np.eye(k)) <= 1e-13 * k
            checked += 1
    assert checked > 300


def test_adjoint_lattice_is_an_involution_on_every_lattice():
    # the adjoint lattice GaborLattice(N, N/b, N/a) of the adjoint lattice
    # is the lattice; the derived adjoint record and the one factored on
    # its own carry that one lattice, scale and cached tables
    checked = 0
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            adj, kappa = gabor._adjoint_lattice(lat)
            assert adj == GaborLattice(N, N // lat.b, N // lat.a)
            assert gabor._adjoint_lattice(adj)[0] == lat
            assert (adj.n_times, adj.n_freqs) == (lat.b, lat.a)
            assert adj.member_count == lat.adjoint_count
            assert kappa == float(np.sqrt(N / (lat.a * lat.b)))
            windows = _window(lat, 20)[None]
            derived = gabor._adjoint_of(gabor._coset_svd(windows, lat))
            own = gabor._adjoint_cosets(windows, lat)
            assert derived.lattice == own.lattice == adj
            assert derived.scale == own.scale == kappa
            for table in (gabor._coset_gather, gabor._coset_orbits):
                assert table(derived.lattice) is table(own.lattice)
            checked += 1
    assert checked > 300


def test_coordinate_selections_are_gathered_on_every_lattice(monkeypatch):
    # rows @ x for an x whose columns are distinct coordinate vectors is a
    # gather of the rows' columns, bit for bit, and x conj(U) diag(s) for
    # an x whose rows are coordinate vectors a gather of the rows of
    # conj(U) diag(s); neither takes a block product
    def refused(*args):
        raise AssertionError("block product taken for a coordinate selection")

    checked = 0
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            sys = gabor_system(lat, _window(lat, 17))
            rng = np.random.default_rng([17, N, lat.a, lat.b])
            pos = rng.permutation(N)[: rng.integers(1, N + 1)]
            x = np.eye(N, dtype=np.complex128)[:, pos]
            for fam in (sys.family, adjoint_system(sys).family):
                with monkeypatch.context() as patched:
                    patched.setattr(gabor, "_coset_product", refused)
                    patched.setattr(gabor, "_coset_adjoint_factor", refused)
                    cols = fam._times(x)
                    rows = fam._adjoint_factor(x.T)
                assert "vectors" not in fam.__dict__ and "_us" not in fam.__dict__
                np.testing.assert_array_equal(cols, fam.vectors[:, pos])
                u, s = fam._us
                np.testing.assert_allclose(
                    rows, (x.T @ np.conj(u)) * s, rtol=0, atol=1e-15 * s[0]
                )
                checked += 1
    assert checked > 700


def test_coset_product_matches_the_rows_on_every_lattice():
    # rows @ x for the system and the adjoint, taken from the coset blocks
    # without assembling the rows, against the assembled rows; x is a
    # transposed view, as the pipeline passes it
    checked = 0
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            sys = gabor_system(lat, _window(lat, 13))
            rng = np.random.default_rng([13, N, lat.a, lat.b])
            x = (rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))).T
            for fam in (sys.family, adjoint_system(sys).family):
                got = fam._times(x)
                assert "vectors" not in fam.__dict__  # rows not assembled
                want = fam.vectors @ x
                assert got.shape == want.shape == (fam.count, 3)
                assert fro(got - want) <= TOL.threshold(max(1.0, fro(want)))
                checked += 1
    assert checked > 700


def test_coset_adjoint_factor_and_time_norms_match_the_assembly():
    # x conj(U) diag(s), ||x F^*||_F and the norm of the members at the
    # times t >= start, for the system and the adjoint, taken from the
    # block vectors without assembling U or the rows, against the
    # assembled U and rows
    checked = 0
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            sys = gabor_system(lat, _window(lat, 14))
            rng = np.random.default_rng([14, N, lat.a, lat.b])
            x = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
            for fam in (sys.family, adjoint_system(sys).family):
                got = fam._adjoint_factor(x)
                gram = gabor._coset_gram_norm(fam._cosets, x)
                starts = (0, N // 2, N - 1)
                tails = [gabor._coset_gram_norm(fam._cosets, start=t) for t in starts]
                assert "_us" not in fam.__dict__ and "vectors" not in fam.__dict__
                u, s = fam._us
                want = (x @ u.conj()) * s
                assert got.shape == want.shape == (3, len(s))
                assert fro(got - want) <= TOL.threshold(max(1.0, fro(want)))
                want = fro(x @ fam.vectors.conj().T)
                assert abs(gram - want) <= TOL.threshold(max(1.0, want))
                for start, tail in zip(starts, tails):
                    want = fro(fam.vectors[:, start:])
                    assert abs(tail - want) <= TOL.threshold(max(1.0, want))
                checked += 1
    assert checked > 700


def test_stacked_coset_adjoint_factor_matches_each_window_on_every_lattice():
    # a (g, p, N) stack of operands, one per window, as the exploration
    # passes its candidates, for the systems and their derived adjoints:
    # each window's slice against x_g conj(U_g) diag(s_g) with its own
    # assembled U
    checked = 0
    for N in range(1, 13):
        for lat in divisor_lattices(N, critical=False):
            windows = np.stack([_window(lat, seed) for seed in (21, 22, 23)])
            rng = np.random.default_rng([21, N, lat.a, lat.b])
            x = rng.standard_normal((3, 2, N)) + 1j * rng.standard_normal((3, 2, N))
            system = gabor._coset_svd(windows, lat)
            for c in (system, gabor._adjoint_of(system)):
                got = gabor._coset_adjoint_factor(c, x)
                u = gabor._assemble_u(c)
                assert got.shape == (3, 2, c.s.shape[-1])
                for g in range(len(windows)):
                    want = (x[g] @ np.conj(u[g])) * c.s[g]
                    assert fro(got[g] - want) <= TOL.threshold(max(1.0, fro(want)))
                checked += 1
    assert checked > 150


def test_canonical_tight_window_matches_dense_on_every_lattice():
    for N in range(1, 25):
        for lat in divisor_lattices(N):
            window = _window(lat, 6)
            t = gabor_system(lat, window).family.vectors.T
            want = psd_inverse_sqrt(t @ t.conj().T) @ window
            got = canonical_tight_window(lat, window)
            np.testing.assert_allclose(got, want, atol=TOL.threshold(1.0))


def test_canonical_tight_window_assembles_nothing(monkeypatch):
    # the window is summed block by block from the block vectors: no N x N
    # U, no Vh and no rows
    built = {
        name: _recorded_assembler(monkeypatch, name)
        for name in ("_assemble_u", "_assemble_rows", "_assemble_vh")
    }
    lat = GaborLattice(24, 2, 3)
    canonical_tight_window(lat, _window(lat, 6))
    assert built == {name: [] for name in built}


def test_tight_pipeline_factors_no_member_axis(monkeypatch):
    # the system and the output v have M = 2304 members in C^96; neither
    # is handed to LAPACK, so no factored array has an axis of length M
    lat = GaborLattice(96, 2, 2)
    m = lat.member_count
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 7)))
    res = tight_gabor_weak_r_dual(sys)
    assert res.certificate.verdict == "WeakRDual"
    assert not res.certificate.v_is_onb
    assert shapes
    assert all(m not in shape for shape in shapes), shapes


def test_tight_pipeline_matches_dense_on_every_lattice():
    checked = 0
    for lat in _lattices():
        if lat.a * lat.b >= lat.N:
            continue  # not a frame, or critical density: the pipeline gates
        sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 1)))
        res = tight_gabor_weak_r_dual(sys)
        w0 = adjoint_system(sys).family
        u = standard_basis_family(lat.N, lat.member_count)
        u_slice = VectorFamily(u.vectors[: lat.adjoint_count])
        assert_matches(
            res.certificate.to_json_dict(),
            dense_certificate(w0, sys.family, u_slice, res.v),
        )
        assert res.certificate.verdict == "WeakRDual"
        assert res.certificate.characterization_verdict == "WeakRDual"
        w_pad = pad_adjoint(w0, lat.member_count)
        padded = dense_padded_dual_residual(w_pad, sys.family, u)
        scale = max(1.0, fro(u.vectors @ sys.family.vectors.conj().T))
        assert abs(res.padded_dual_commutation_residual - padded) <= TOL.threshold(
            scale
        )
        checked += 1
    assert checked > 50


def _scattered_parseval_u(lat, rng):
    """A Parseval ``u`` that is not the padded standard basis: the rows of
    a random unitary, the first K at the unpadded slots (so the
    characterizing sequence stays Parseval) and the rest at random slots
    past K, most of them past N; every other member is zero."""
    n, k, m = lat.N, lat.adjoint_count, lat.member_count
    rows = np.zeros((m, n), dtype=np.complex128)
    slots = np.concatenate([np.arange(k), k + rng.choice(m - k, n - k, replace=False)])
    rows[slots] = random_unitary(rng, n)
    assert np.any(slots >= n)
    return VectorFamily(rows, label="scattered")


@pytest.mark.parametrize("shape", [(8, 1, 2), (12, 2, 2), (16, 2, 4), (24, 3, 2)])
def test_tight_pipeline_custom_u_matches_dense(shape):
    # the Parseval gate and the padded tail norm read the nonzero members
    # of u alone, wherever they sit
    lat = GaborLattice(*shape)
    rng = np.random.default_rng(list(shape))
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 8)))
    u = _scattered_parseval_u(lat, rng)
    res = tight_gabor_weak_r_dual(sys, u=u)
    w0 = adjoint_system(sys).family
    u_slice = VectorFamily(u.vectors[: lat.adjoint_count])
    assert_matches(
        res.certificate.to_json_dict(),
        dense_certificate(w0, sys.family, u_slice, res.v),
    )
    assert res.certificate.verdict == "WeakRDual"
    padded = dense_padded_dual_residual(
        pad_adjoint(w0, lat.member_count), sys.family, u
    )
    assert padded > 1e-3  # the tail members are not zero
    scale = max(1.0, fro(u.vectors @ sys.family.vectors.conj().T))
    assert abs(res.padded_dual_commutation_residual - padded) <= TOL.threshold(scale)

    # a padded basis whose one defect is a nonzero member past N
    bad = np.array(standard_basis_family(lat.N, lat.member_count).vectors)
    bad[lat.member_count - 1] = random_unitary(rng, lat.N)[0]
    with pytest.raises(NotParsevalError):
        tight_gabor_weak_r_dual(sys, u=VectorFamily(bad))


@pytest.mark.parametrize(
    "shape",
    [(8, 1, 2), (12, 2, 2), (24, 3, 2), (96, 2, 2), (16, 2, 4), (18, 3, 2),
     (20, 2, 2), (24, 2, 3)],
)
def test_tight_pipeline_default_u_is_the_padded_standard_basis(shape):
    # the default u is read as its nonzero members and never built; an
    # explicit padded standard basis gives exactly the same result, the
    # tail norm included, as both sum the same squares in the same order
    lat = GaborLattice(*shape)
    for seed in range(9, 14):
        sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, seed)))
        default = tight_gabor_weak_r_dual(sys)
        explicit = tight_gabor_weak_r_dual(
            sys, u=standard_basis_family(lat.N, lat.member_count)
        )
        # the certificate, the padding positions and the padded residual
        assert default.to_json_dict() == explicit.to_json_dict()
        assert np.array_equal(default.v.vectors, explicit.v.vectors)


def test_exploration_trials_match_dense_on_every_lattice():
    for lat in _lattices():
        if lat.redundancy == 1.0:
            continue
        window = _window(lat, 2)
        window /= np.linalg.norm(window)
        rec = evaluate_exploration_trial(lat, window)
        sys = gabor_system(lat, window)
        assert_spectrum_matches(rec["system_spectrum"], sys.family)
        sa = dense_analyze(sys.family)
        if sa["span_dim"] < lat.N:
            assert rec["verdict"] == "NotFrame"
            continue
        if rec["verdict"] == "Tight":
            continue
        w_pad = pad_adjoint(adjoint_system(sys).family, lat.member_count)
        assert_spectrum_matches(rec["adjoint_spectrum"], w_pad)
        p = dense_projector(w_pad.vectors.T)
        t = w_pad.vectors.T
        conj_dual = VectorFamily(np.conj(psd_inverse_sqrt(t @ t.conj().T) @ t).T)
        (got,) = rec["candidates"]
        assert got["name"] == "conjugated_dual"
        assert_matches(got, dense_candidate(w_pad, sys.family, conj_dual, p))


def test_run_exploration_records_match_dense():
    seed, trials, n_values = 3, 40, list(range(4, 13))
    report = run_exploration(n_values, seed=seed, trials=trials)
    for rec in report["records"]:
        if "candidates" not in rec:
            continue
        lat = GaborLattice(rec["N"], rec["a"], rec["b"])
        replay = np.random.default_rng([seed, rec["trial"]])
        n_val = n_values[int(replay.integers(0, len(n_values)))]
        options = divisor_lattices(n_val, critical=False)
        assert options[int(replay.integers(0, len(options)))] == lat
        window = replay.standard_normal(lat.N) + 1j * replay.standard_normal(lat.N)
        window /= np.linalg.norm(window)
        sys = gabor_system(lat, window)
        w_pad = pad_adjoint(adjoint_system(sys).family, lat.member_count)
        t = w_pad.vectors.T
        conj_dual = VectorFamily(np.conj(psd_inverse_sqrt(t @ t.conj().T) @ t).T)
        got = {c["name"]: c for c in rec["candidates"]}
        assert_matches(
            got["conjugated_dual"],
            dense_candidate(w_pad, sys.family, conj_dual, dense_projector(t)),
        )


def test_exploration_assembles_no_system_u(monkeypatch):
    # the candidates' factor U conj(U_f) diag(s_f) is taken from the
    # systems' blocks, so U is assembled for the derived adjoint records
    # alone, once per lattice with gated trials
    adjoints, assembled = [], []
    adjoint_of, assemble_u = gabor._adjoint_of, gabor._assemble_u

    def recorded_adjoint(c):
        adjoints.append(adjoint_of(c))
        return adjoints[-1]

    def recorded_u(c):
        assembled.append(c)
        return assemble_u(c)

    monkeypatch.setattr(gabor, "_adjoint_of", recorded_adjoint)
    monkeypatch.setattr(gabor, "_assemble_u", recorded_u)
    report = run_exploration(range(4, 13), seed=1, trials=200)
    assert report["verdict_counts"]["Gated"] > 0
    assert len(assembled) == len(adjoints) > 0
    assert all(c is a for c, a in zip(assembled, adjoints))


def test_gated_evidence_with_adjoint_ranks_differing_across_the_stack():
    # the adjoint of the delta window on (12, 2, 2) has rank 2, that of a
    # random window rank 4: the span coordinates are padded to width 4,
    # and the identity in ||c c^* - I_r|| must be each trial's rank mask
    lat = GaborLattice(12, 2, 2)
    delta = np.zeros(lat.N, dtype=np.complex128)
    delta[0] = 1.0
    random = _window(lat, 14)
    windows = np.stack([random / np.linalg.norm(random), delta])
    records = gabor._gated_evidence(lat, gabor._coset_svd(windows, lat), TOL)
    assert [len(rec["adjoint_spectrum"]) for rec in records] == [4, 2]
    for window, rec in zip(windows, records):
        sys = gabor_system(lat, window)
        w_pad = pad_adjoint(adjoint_system(sys).family, lat.member_count)
        t = w_pad.vectors.T
        conj_dual = VectorFamily(np.conj(psd_inverse_sqrt(t @ t.conj().T) @ t).T)
        (got,) = rec["candidates"]
        want = dense_candidate(w_pad, sys.family, conj_dual, dense_projector(t))
        assert_matches(got, want)


# ----------------------------------------------------------------------
# ONB guard, kernel columns, memory
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 96])
def test_random_unitaries_stay_orthonormal(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = analyze(VectorFamily(random_unitary(rng, n)))
        assert a.is_onb
        assert a.gram_identity_residual <= 1e-12


def _onb_flag_cases():
    """``(name, certificate, u, v)``: the certificate corpus, the repro
    fixtures with their given and constructed ``v``, and the promotion on
    the canonical tight window of every critical lattice with N <= 24."""
    for name, quad in _certificate_instances():
        yield name, certify_weak_r_dual(*quad), quad[2], quad[3]
    for fid in FIXTURE_IDS:
        fams = build_fixture(fid).families
        w, f, u = fams["w"], fams["f"], fams["u"]
        if "x" in fams:
            side = dual_side(w, f, u, TOL)
            v = VectorFamily(side.sequence.vectors + fams["x"].vectors)
            yield fid, _certificate(side, v), u, v
        for side, v in _constructed(w, f, u):
            yield f"{fid} {v.label}", _certificate(side, v), u, v
    critical = [lat for lat in _lattices() if lat.redundancy == 1.0]
    assert len(critical) == 83
    for lat in critical:
        sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 20)))
        u = standard_basis_family(lat.N)
        promo = promote_to_r_dual(adjoint_system(sys).family, sys.family, u)
        assert promo.certificate.verdict == "RDual", lat
        yield str(lat), promo.certificate, u, promo.v_prime


def test_onb_flags_match_analyze_and_the_dense_oracle():
    # the certificate reads each flag off its own Parseval residual
    # (frames._is_onb); the flag must be the one analyze gives the family
    # and the one the dense oracle reads off full frame operators and
    # Gram matrices
    flags = Counter()
    for name, cert, u, v in _onb_flag_cases():
        for flag, fam in ((cert.u_is_onb, u), (cert.v_is_onb, v)):
            assert flag == (fam.count == fam.ambient_dim and analyze(fam).is_onb), name
            assert flag == dense_analyze(fam)["is_onb"], name
            flags[flag] += 1
    assert flags[True] >= 2 * 83 and flags[False] > 10, flags


def _kernel_columns(v, y_syn, w):
    """Recover ``K`` from ``v = Y + C K^*`` with ``C`` any orthonormal
    basis of the span complement of ``w`` (``K`` is unique up to a
    unitary factor, which preserves both checked properties)."""
    return (v.vectors.T - y_syn).conj().T @ _complement_basis(w)


def test_kernel_columns_are_orthonormal_and_annihilated():
    # the tight pipeline on (12, 2, 2) and on (24, 4, 4), whose adjoint
    # (16 members in C^24) leaves a large span deficit
    cases = []
    for lat, seed in ((GaborLattice(12, 2, 2), 3), (GaborLattice(24, 4, 4), 15)):
        sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, seed)))
        res = tight_gabor_weak_r_dual(sys)
        u = standard_basis_family(lat.N, lat.member_count)
        w0 = adjoint_system(sys).family
        y_syn = dense_dual_syn(pad_adjoint(w0, lat.member_count)) @ (
            u.vectors @ sys.family.vectors.conj().T
        )
        cases.append((res.v, y_syn, w0, res.certificate.span_deficit))
    rng = np.random.default_rng(9)
    # The doubled half-weight construct-v instance (span{w} proper in C^3),
    # moved by one random unitary, which keeps every Gram matrix.
    q = random_unitary(rng, 3).T
    e = np.eye(3) / np.sqrt(2.0)
    f = VectorFamily(np.array([e[0], e[0], e[1], e[1]]) @ q)
    w = VectorFamily(np.array([e[1], e[1], e[2], e[2]]) @ q)
    v = build_parseval_v(w, f, f)
    deficit = certify_weak_r_dual(w, f, f, v).span_deficit
    cases.append((v, dense_dual_syn(w) @ (f.vectors @ f.vectors.conj().T), w, deficit))
    for v, y_syn, w, deficit in cases:
        k = _kernel_columns(v, y_syn, w)
        assert k.shape[1] == deficit
        assert deficit == w.ambient_dim - dense_rank_nullspace(w.vectors.T)[0] > 0
        np.testing.assert_allclose(k.conj().T @ k, np.eye(k.shape[1]), atol=1e-10)
        assert fro(y_syn @ k) <= TOL.threshold(max(1.0, fro(y_syn)))


def test_tight_pipeline_peak_memory_below_one_gram():
    lat = GaborLattice(32, 1, 1)
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 4)))
    m = lat.member_count
    tracemalloc.start()
    try:
        res = tight_gabor_weak_r_dual(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.certificate.verdict == "WeakRDual"
    assert peak < m * m * 16  # one M x M complex128 array: 16 MiB


def test_gabor_system_adopts_its_rows():
    # U and s are built once and adopted, not copied; the rows and the
    # M-column Vh are not built until they are read, and then read-only
    lat = GaborLattice(96, 2, 2)
    window = _window(lat, 10)
    member_array = lat.member_count * lat.N * 16  # one M x N complex128
    tracemalloc.start()
    try:
        sys = gabor_system(lat, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not sys.family.vectors.flags.writeable
    assert peak < 1.5 * member_array, peak / member_array


def test_tight_pipeline_from_a_window_peak_below_three_member_arrays():
    # from the window to the result, no M x n array is written: the
    # system's products are taken from its coset blocks, v is held as its
    # factors, and the characterizing sequence and the certificate's
    # products stay M x rank
    lat = GaborLattice(96, 2, 2)
    window = canonical_tight_window(lat, _window(lat, 10))
    member_array = lat.member_count * lat.N * 16
    tracemalloc.start()
    try:
        res = tight_gabor_weak_r_dual(gabor_system(lat, window))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.certificate.verdict == "WeakRDual"
    assert peak < 0.75 * member_array, peak / member_array


def _recorded_assembler(monkeypatch, name):
    """Wrap ``gabor.<name>`` to record the member count it assembles for."""
    counts = []
    assemble = getattr(gabor, name)

    def recorded(c):
        counts.append(c.lattice.member_count)
        return assemble(c)

    monkeypatch.setattr(gabor, name, recorded)
    return counts


def test_tight_pipeline_never_assembles_the_system_vh(monkeypatch):
    # the adjoint's a b x a b Vh is read by its span factors; the system's
    # Vh, with M columns, is read by nothing in the pipeline or the duality
    # check
    lat = GaborLattice(24, 2, 2)
    counts = _recorded_assembler(monkeypatch, "_assemble_vh")
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 12)))
    res = tight_gabor_weak_r_dual(sys)
    assert res.certificate.verdict == "WeakRDual"
    assert duality_check(sys).match
    assert lat.member_count not in counts, counts
    assert "svd" not in sys.family.__dict__
    sys.family.svd  # reading svd assembles it, through the wrapper
    assert counts[-1] == lat.member_count


def test_analyze_and_duality_assemble_nothing(monkeypatch):
    # both read singular values alone, which the system and its adjoint
    # take off their coset blocks: no N x N U, no rows and no Vh is built
    lat = GaborLattice(24, 2, 2)
    built = {
        name: _recorded_assembler(monkeypatch, name)
        for name in ("_assemble_u", "_assemble_rows", "_assemble_vh")
    }
    sys = gabor_system(lat, _window(lat, 12))
    assert analyze(sys.family).is_frame_for_ambient
    assert duality_check(sys).match
    assert built == {name: [] for name in built}


def test_tight_pipeline_and_duality_never_assemble_the_system_rows(monkeypatch):
    # the pipeline's products with the system rows come from the coset
    # blocks, and the duality check reads singular values alone; the
    # adjoint's a b rows are read
    lat = GaborLattice(24, 2, 2)
    counts = _recorded_assembler(monkeypatch, "_assemble_rows")
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 12)))
    res = tight_gabor_weak_r_dual(sys)
    assert res.certificate.verdict == "WeakRDual"
    assert duality_check(sys).match
    assert lat.member_count not in counts, counts
    assert lat.adjoint_count in counts
    sys.family.vectors  # reading the rows assembles them, through the wrapper
    assert counts[-1] == lat.member_count


def test_tight_pipeline_peak_memory_below_five_member_arrays():
    # on a prebuilt system, the pipeline writes v and no M x n array that
    # nothing reads
    lat = GaborLattice(96, 2, 2)
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 10)))
    sys.family.svd
    member_array = lat.member_count * lat.N * 16  # one M x n complex128
    tracemalloc.start()
    try:
        res = tight_gabor_weak_r_dual(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.certificate.verdict == "WeakRDual"
    assert peak < 5 * member_array, peak / member_array


def test_duality_builds_no_row_or_vh_table(monkeypatch):
    # the coset SVD reads the coset gather alone: the modulation phases and
    # the translate gather (for rows) and the coset phases (for Vh) of the
    # system's lattice, 64 + 32 + 16 MiB here, are not built
    lat = GaborLattice(4096, 4, 4)
    read = []
    for name in ("_row_tables", "_coset_phases"):
        table = getattr(gabor, name)

        def recorded(lat, table=table, name=name):
            read.append((name, lat))
            return table(lat)

        monkeypatch.setattr(gabor, name, recorded)
    window = np.zeros(lat.N, dtype=np.complex128)
    window[0] = 1.0
    tracemalloc.start()
    try:
        report = duality_check(gabor_system(lat, window))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.match
    assert read == []
    assert peak < 200 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "shape", [GaborLattice(12, 2, 3), GaborLattice(96, 2, 2), GaborLattice(8, 8, 1)]
)
def test_translate_gather_shares_the_coset_gather(shape):
    # a process that reads rows and coset blocks of one lattice holds the
    # gather once
    N, time_step, n_times = shape.N, shape.a, shape.n_times
    shift = _row_tables(shape)[1]
    assert np.shares_memory(shift, _coset_gather(shape))
    np.testing.assert_array_equal(
        shift, (np.arange(N) - np.arange(n_times)[:, None] * time_step) % N
    )


# ----------------------------------------------------------------------
# The constructed v, held as its factors
# ----------------------------------------------------------------------


def _constructed(w, f, u):
    """The ``v`` of each construction whose hypotheses ``(w, f, u)`` meet,
    with the dual side it was built on."""
    out = []
    for onb in (False, True):
        try:
            out.append(_constructed_v(w, f, u, TOL, orthonormal=onb))
        except (DimensionCaseError, GateFailedError, HypothesisFailedError):
            pass
    return out


def assert_factored_v_matches_dense(side, v):
    """With no span deficit, ``v`` is the characterizing sequence itself,
    a plain family.  Otherwise the readers of the factored ``v`` and its
    certificate against a dense copy of its rows, which takes the base
    class's readers, and its leading rows against the complete-QR
    construction; neither the factored readers nor the certificate, whose
    ONB flag reads the Parseval residual, assemble its rows, whatever
    its member count."""
    if side.deficit == 0:
        assert type(v) is VectorFamily
        assert np.array_equal(v.vectors, side.sequence.vectors)
        return
    assert isinstance(v, _ExtensionFamily)
    n, m = v.ambient_dim, v.count
    rng = np.random.default_rng([n, m])
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    y = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    got = (v._times(x), v._transposed_times(y), frame_operator(v))
    assert "vectors" not in v.__dict__
    cert = _certificate(side, v).to_json_dict()
    assert "vectors" not in v.__dict__
    dense = VectorFamily(v.vectors, label=v.label)
    assert type(dense) is VectorFamily
    # the leading rows, held as the identity pattern plus products of
    # n x O(rank) factors from the compact WY forms, against the complete
    # QRs they replace
    head = dense_extension_head(side)
    assert fro(dense.vectors[: len(head)] - head) <= 1e-13 * max(1.0, fro(head))
    want = (dense._times(x), dense._transposed_times(y), frame_operator(dense))
    v_norm = fro(dense.vectors)
    scales = (v_norm * fro(x), v_norm * fro(y), v_norm**2)
    for g, w_, scale in zip(got, want, scales):
        assert g.shape == w_.shape
        assert fro(g - w_) <= 1e-13 * max(1.0, scale), fro(g - w_)
    assert np.array_equal(got[2], got[2].conj().T)  # exactly Hermitian
    dense_cert = _certificate(side, dense).to_json_dict()
    assert cert.keys() == dense_cert.keys()
    for key, value in cert.items():
        if isinstance(value, float):
            assert abs(value - dense_cert[key]) <= 1e-13, (key, value, dense_cert[key])
        else:
            assert value == dense_cert[key], key


def test_constructed_v_matches_its_dense_copy():
    # the certificate instances, and the repro fixtures, whose span
    # deficits make the kernel term of the isometric extension nonzero
    triples = [(w, f, u) for _, (w, f, u, _) in _certificate_instances()]
    for fid in ("2.8", "2.9", "2.10"):
        fams = build_fixture(fid).families
        triples.append((fams["w"], fams["f"], fams["u"]))
    deficits = []
    for w, f, u in triples:
        for side, v in _constructed(w, f, u):
            assert_factored_v_matches_dense(side, v)
            deficits.append(side.deficit)
    assert len(deficits) == 7
    assert sum(d > 0 for d in deficits) == 3


def test_tight_pipeline_v_is_factored_on_every_lattice():
    checked = 0
    for lat in _lattices():
        if lat.a * lat.b >= lat.N:
            continue  # not a frame, or critical density: the pipeline gates
        sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 15)))
        res = tight_gabor_weak_r_dual(sys)
        assert "vectors" not in res.v.__dict__  # the rows were never assembled
        # the default u at the unpadded slots and the adjoint derived from
        # the system, as the pipeline reads them: the adjoint of a tight
        # system has equal singular values, so its span basis, and with it
        # v, is fixed only up to a unitary in the span, and an adjoint
        # factored on its own may pick another
        u_slice = VectorFamily(np.eye(lat.adjoint_count, lat.N))
        w0 = gabor._adjoint_family(gabor._adjoint_of(sys.family._cosets), lat)
        side = dual_side(w0, sys.family, u_slice, TOL)
        assert_factored_v_matches_dense(side, res.v)
        checked += 1
    assert checked > 50


def _extension_factors(rng, which=None, bad=None):
    """Random factors of a 7-member v in C^4 with 3 leading rows: ``head``
    (3 x 5), ``basis`` (4 x 5) and ``tail`` (4 x 2), so r = 2, d = 2 and
    the identity pattern takes coordinates 2, 3 to rows 1, 2; entry
    ``[-1, -1]`` of factor ``which`` is set to ``bad``."""
    factors = [
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for shape in ((3, 5), (4, 5), (4, 2))
    ]
    if which is not None:
        factors[which][-1, -1] = bad
    return factors


def test_factored_v_rows_and_finite_factors():
    rng = np.random.default_rng(16)
    head, basis, tail = _extension_factors(rng)
    v = _ExtensionFamily(head, basis, tail, "v")
    assert (v.count, v.ambient_dim) == (7, 4)
    pattern = np.zeros((3, 4))
    pattern[1, 2] = pattern[2, 3] = 1.0
    rows = np.concatenate([pattern + head @ basis.T, tail @ basis[:, :2].T])
    np.testing.assert_allclose(v.vectors, rows)
    assert not v.vectors.flags.writeable
    for which in range(3):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                _ExtensionFamily(*_extension_factors(rng, which, bad), "bad")


def test_factored_v_readers_match_its_rows_off_parseval():
    # on random factors S - I is of order one, so the low-rank form of the
    # frame operator and of ||S - I||_F is checked entry for entry
    rng = np.random.default_rng(17)
    v = _ExtensionFamily(*_extension_factors(rng), "v")
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    y = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    got = (v._times(x), v._transposed_times(y), frame_operator(v), v._frame_residual())
    assert "vectors" not in v.__dict__
    dense = VectorFamily(v.vectors)
    want = (
        dense._times(x), dense._transposed_times(y), frame_operator(dense),
        dense._frame_residual(),
    )
    for g, w_ in zip(got, want):
        assert np.shape(g) == np.shape(w_)
        assert fro(np.subtract(g, w_)) <= 1e-12 * fro(w_)
    assert np.array_equal(got[2], got[2].conj().T)  # exactly Hermitian
    assert got[3] > 1.0


def test_parseval_residuals_have_one_reader(monkeypatch):
    # ||S - I||_F of u is read by VectorFamily._frame_residual alone: the
    # tight pipeline's gate on the nonzero members of an explicit u, the
    # ambient gate of synthesized_gram_invariance_residual and the
    # witness's u_parseval_residual
    read = []
    reader = VectorFamily._frame_residual

    def counted(fam):
        res = reader(fam)
        read.append((fam, res))
        return res

    monkeypatch.setattr(VectorFamily, "_frame_residual", counted)
    lat = GaborLattice(12, 2, 2)
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 8)))
    u = _scattered_parseval_u(lat, np.random.default_rng(12))
    tight_gabor_weak_r_dual(sys, u=u)
    nonzero = u.vectors[np.any(u.vectors, axis=1)]
    gated = [fam for fam, _ in read if fam.count == len(nonzero)]
    assert len(gated) == 1 and np.array_equal(gated[0].vectors, nonzero)

    rng = np.random.default_rng(13)
    f, u = random_frame(rng, 5, 3), random_parseval(rng, 5, 3)
    read.clear()
    rduality.synthesized_gram_invariance_residual(f, u, random_frame(rng, 5, 3))
    assert [fam for fam, _ in read] == [u]

    w = random_frame(rng, 5, 3)
    lmap = rduality.find_conjugate_witness(frame_operator(w), frame_operator(w))
    read.clear()
    res = rduality.verify_conjugate_witness(lmap, w, w)
    assert res.ok and read == [(res.induced_u, res.u_parseval_residual)]


def test_tight_pipeline_forms_no_n_by_n_factor(monkeypatch):
    # at N = 96, a = b = 2 (n = 96, M = 2304, rank 4) the pipeline runs no
    # complete QR, factors no operand that is n x n or larger, takes no
    # real symmetric square (the frame operators of u and v) and returns a
    # v with no n x n factor
    lat = GaborLattice(96, 2, 2)
    sys = gabor_system(lat, canonical_tight_window(lat, _window(lat, 15)))
    n, modes, operands, squares = lat.N, [], [], []
    qr, svd = np.linalg.qr, numerics._svd

    def counted_qr(a, mode="reduced"):
        modes.append(mode)
        operands.append(np.shape(a))
        return qr(a, mode=mode)

    def counted_svd(a, **kwargs):
        operands.append(np.shape(a))
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    for mod in (numerics, rduality, gabor):
        monkeypatch.setattr(mod, "_svd", counted_svd)
    square = frames._real_symmetric_square
    monkeypatch.setattr(
        frames, "_real_symmetric_square",
        lambda rows: squares.append(rows.shape) or square(rows),
    )
    res = tight_gabor_weak_r_dual(sys)
    assert res.certificate.verdict == "WeakRDual"
    assert modes and "complete" not in modes
    assert operands and all(min(shape[-2:]) < n for shape in operands), operands
    assert squares == []
    factors = [val for val in vars(res.v).values() if isinstance(val, np.ndarray)]
    assert len(factors) == 3
    assert all(factor.shape != (n, n) for factor in factors)
