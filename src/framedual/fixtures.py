"""Built-in reproduction fixtures.

Each fixture is a finite truncation of an infinite doubled-pattern
family; the truncation note records the rule used and which indices
carry the exact pattern (boundary members that the infinite pattern
cannot close are padded with zeros, and assertions shrink to the
interior indices).  ``run_repro`` regenerates the fixture and evaluates
its assertions, reporting one pass/fail entry per assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HypothesisFailedError
from .frames import (
    VectorFamily,
    analyze,
    canonical_dual,
    span_projector,
    synthesis_matrix,
)
from .numerics import DEFAULT_TOL, Tolerance
from .rduality import (
    _certificate,
    _isometric_extension_v,
    completeness_implies_invariance,
    cross_gram,
    dual_side,
    gram_invariance_residual,
)

__all__ = ["FIXTURE_IDS", "build_fixture", "run_repro", "ReproFixture"]


def _unit(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.complex128)
    v[i] = 1.0
    return v


@dataclass(frozen=True)
class ReproFixture:
    fixture_id: str
    description: str
    truncation_note: str
    interior_indices: list[int]
    families: dict[str, VectorFamily]


def _fixture_2_8() -> ReproFixture:
    n = 3
    r2 = np.sqrt(2.0)
    z = [_unit(n, i) for i in range(n)]
    f = VectorFamily([z[0] / r2, z[0] / r2, z[1] / r2, z[1] / r2], label="f-2.8")
    w = VectorFamily([z[1] / r2, z[1] / r2, z[2] / r2, z[2] / r2], label="w-2.8")
    x = VectorFamily([z[0] / r2, -z[0] / r2, 0 * z[0], 0 * z[0]], label="x-2.8")
    return ReproFixture(
        fixture_id="2.8",
        description="doubled half-weight pattern; the dual family is the"
        " shifted copy and the completion uses one sign-split pair",
        truncation_note="two blocks of the doubled pattern in ambient"
        " dimension 3; all four indices close exactly",
        interior_indices=[0, 1, 2, 3],
        families={"f": f, "u": f.relabel("u-2.8"), "w": w, "x": x},
    )


def _fixture_2_9() -> ReproFixture:
    n = 4
    z = [_unit(n, i) for i in range(n)]
    f = VectorFamily([z[0] / 2] * 4 + [z[1] / 2] * 4, label="f-2.9")
    w = VectorFamily([z[0] / 2] * 4 + [z[2] / 2] * 4, label="w-2.9")
    x = VectorFamily(
        [z[1] / 2, z[1] / 2, -z[1] / 2, -z[1] / 2, z[3] / 2, z[3] / 2, -z[3] / 2, -z[3] / 2],
        label="x-2.9",
    )
    return ReproFixture(
        fixture_id="2.9",
        description="quadrupled quarter-weight pattern over alternating"
        " directions; completion splits signs across the skipped directions",
        truncation_note="two blocks of the quadrupled pattern in ambient"
        " dimension 4; the doubly-infinite dimension equality collapses to a"
        " strict finite inequality",
        interior_indices=list(range(8)),
        families={"f": f, "u": f.relabel("u-2.9"), "w": w, "x": x},
    )


def _fixture_2_10() -> ReproFixture:
    n = 7
    r2 = np.sqrt(2.0)
    z = [_unit(n, i) for i in range(n)]
    f = VectorFamily(
        [z[0] / r2, z[0] / r2, z[1] / r2, z[1] / r2, z[2], z[3], z[4]],
        label="f-2.10",
    )
    w = VectorFamily(
        [z[2] / r2, z[2] / r2, z[3] / r2, z[3] / r2, z[4], z[5], z[6]],
        label="w-2.10",
    )
    x = VectorFamily(
        [z[0] / r2, -z[0] / r2, z[1] / r2, -z[1] / r2, 0 * z[0], 0 * z[0], 0 * z[0]],
        label="x-2.10",
    )
    return ReproFixture(
        fixture_id="2.10",
        description="mixed half-weight head with orthonormal tail; span"
        " deficit equals the kernel dimension, so the completion is an"
        " orthonormal basis",
        truncation_note="head blocks plus a three-member orthonormal tail in"
        " ambient dimension 7; all indices close exactly",
        interior_indices=list(range(7)),
        families={"f": f, "u": f.relabel("u-2.10"), "w": w, "x": x},
    )


def _fixture_3_1() -> ReproFixture:
    n = 7
    r2 = np.sqrt(2.0)
    z = [_unit(n, i) for i in range(n)]
    u = VectorFamily([z[0] / r2, z[0] / r2, z[1] / r2, z[1] / r2], label="u-3.1")
    f = VectorFamily([z[0], z[0], z[1], z[1]], label="f-3.1")
    w = VectorFamily([z[0], z[2], z[4], z[6]], label="w-3.1")
    return ReproFixture(
        fixture_id="3.1",
        description="orthonormal odd-index family paired with a doubled"
        " pattern; the characterizing sequence spans a strictly smaller"
        " subspace",
        truncation_note="four members in ambient dimension 7; the two"
        " pattern blocks close exactly",
        interior_indices=[0, 1, 2, 3],
        families={"f": f, "u": u, "w": w},
    )


def _fixture_3_3() -> ReproFixture:
    n = 8
    r2 = np.sqrt(2.0)
    z = [_unit(n, i) for i in range(n)]
    f = VectorFamily([z[i] for i in range(8)], label="f-3.3")
    u = VectorFamily(
        [z[0] / r2, z[0] / r2, z[1] / r2, z[1] / r2, z[2] / r2, z[2] / r2, z[3] / r2, z[3] / r2],
        label="u-3.3",
    )
    w = VectorFamily(
        [z[1] / r2, z[2] / r2, z[1] / r2, -z[2] / r2, z[3] / r2, z[4] / r2, z[3] / r2, -z[4] / r2],
        label="w-3.3",
    )
    return ReproFixture(
        fixture_id="3.3",
        description="sign-alternating half-weight family; the"
        " characterizing sequence is a tight frame sequence even though the"
        " Gram invariance condition fails",
        truncation_note="two four-member blocks in ambient dimension 8; the"
        " first four characterizing members carry the exact pattern, the"
        " rest vanish under truncation",
        interior_indices=[0, 1, 2, 3],
        families={"f": f, "u": u, "w": w},
    )


def build_fixture(fixture_id: str) -> ReproFixture:
    try:
        build = _FIXTURES[fixture_id][0]
    except KeyError:
        raise KeyError(
            f"unknown fixture id {fixture_id!r}; available: {', '.join(FIXTURE_IDS)}"
        ) from None
    return build()


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _run_weak_dual_fixture(fix: ReproFixture, tol: Tolerance) -> list[dict]:
    f, u, w, x = (fix.families[k] for k in ("f", "u", "w", "x"))
    out = []

    ua = analyze(u, tol)
    out.append(
        _assertion(
            "u_parseval_for_span",
            ua.is_parseval_for_span,
            f"parseval residual {ua.parseval_residual:.3e}",
        )
    )
    dual = canonical_dual(w, tol)
    dual_res = _deviation(dual.vectors, w.vectors)
    out.append(
        _assertion(
            "canonical_dual_is_itself",
            dual_res <= tol.threshold(1.0),
            f"max entry deviation {dual_res:.3e}",
        )
    )

    side = dual_side(w, f, u, tol)
    y = side.sequence
    # the characterizing sequence is the dual family itself (the patterns
    # close under truncation)
    y_res = _deviation(y.vectors, w.vectors)
    out.append(
        _assertion(
            "characterizing_sequence_matches_pattern",
            y_res <= tol.threshold(1.0),
            f"max entry deviation {y_res:.3e} on indices {fix.interior_indices}",
        )
    )

    out.append(
        _assertion(
            "dual_commutation_holds",
            side.dual_ok,
            f"residual {side.dual_res:.3e}",
        )
    )

    v = VectorFamily._factored(y.vectors + x.vectors, label=f"v-{fix.fixture_id}")
    va = analyze(v, tol)
    cert = _certificate(side, v)
    deficit_detail = f"deficit {side.deficit}, kernel {side.kernel}"
    # the orthonormal case: w has as many members as dimensions, so
    # build_orthonormal_v's count gate holds (of these fixtures, only 2.10)
    onb = w.count == w.ambient_dim
    built = _isometric_extension_v(side, orthonormal=onb)
    built_cert, built_a = _certificate(side, built), analyze(built, tol)
    out.append(
        _assertion(
            "v_parseval_for_ambient",
            va.is_parseval_for_span and va.deficit == 0,
            f"parseval residual {va.parseval_residual:.3e}, deficit {va.deficit}",
        )
    )
    out.append(
        _assertion(
            "certificate_passes",
            cert.verdict == "WeakRDual"
            and cert.characterization_verdict == "WeakRDual",
            f"verdicts {cert.verdict}/{cert.characterization_verdict},"
            f" synthesis {cert.synthesis_residual:.3e},"
            f" commutation {cert.commutation_residual:.3e}",
        )
    )

    if onb:
        out.append(
            _assertion(
                "v_is_orthonormal_basis",
                va.is_onb,
                f"gram identity residual {va.gram_identity_residual:.3e}",
            )
        )
        out.append(
            _assertion(
                "deficit_equals_kernel",
                side.deficit == side.kernel,
                deficit_detail,
            )
        )
        out.append(
            _assertion(
                "orthonormal_construction_certifies",
                built_cert.passes() and built_a.is_onb,
                f"verdict {built_cert.verdict}",
            )
        )
    else:
        out.append(
            _assertion(
                "v_not_orthonormal",
                not va.is_onb and va.gram_identity_residual > 1e-3,
                f"gram identity residual {va.gram_identity_residual:.3e}",
            )
        )
        out.append(
            _assertion(
                "deficit_strictly_below_kernel",
                side.deficit < side.kernel,
                deficit_detail,
            )
        )
        out.append(
            _assertion(
                "parseval_construction_certifies",
                built_cert.passes() and not built_a.is_onb,
                f"verdict {built_cert.verdict}, gram identity residual"
                f" {built_a.gram_identity_residual:.3e}",
            )
        )
    return out


def _run_3_1(fix: ReproFixture, tol: Tolerance) -> list[dict]:
    f, u, w = (fix.families[k] for k in ("f", "u", "w"))
    out = []
    side = dual_side(w, f, u, tol)
    y = side.sequence
    n = w.ambient_dim
    r2 = np.sqrt(2.0)
    expected = np.zeros((4, n), dtype=np.complex128)
    expected[0] = (_unit(n, 0) + _unit(n, 2)) / r2
    expected[1] = expected[0]
    expected[2] = (_unit(n, 4) + _unit(n, 6)) / r2
    expected[3] = expected[2]
    y_res = _deviation(y.vectors, expected)
    out.append(
        _assertion(
            "characterizing_sequence_matches_pattern",
            y_res <= tol.threshold(1.0),
            f"max entry deviation {y_res:.3e}",
        )
    )
    ya = analyze(y, tol)
    wa = analyze(w, tol)
    out.append(
        _assertion(
            "span_strictly_smaller",
            ya.span_dim < wa.span_dim,
            f"span dims {ya.span_dim} < {wa.span_dim}",
        )
    )
    z1 = _unit(n, 0)
    gap = float(np.linalg.norm(z1 - span_projector(y, tol) @ z1))
    out.append(
        _assertion(
            "first_direction_outside_span",
            abs(gap - 1.0 / r2) <= 1e-10,
            f"distance {gap:.12f}, expected {1.0 / r2:.12f}",
        )
    )
    try:
        completeness_implies_invariance(side)
        out.append(
            _assertion("incompleteness_detected", False, "hypothesis gate missed")
        )
    except HypothesisFailedError as exc:
        out.append(_assertion("incompleteness_detected", True, str(exc)))
    return out


def _run_3_3(fix: ReproFixture, tol: Tolerance) -> list[dict]:
    f, u, w = (fix.families[k] for k in ("f", "u", "w"))
    out = []
    n = w.ambient_dim
    dual = canonical_dual(w, tol)
    dual_res = _deviation(dual.vectors, w.vectors)
    out.append(
        _assertion(
            "canonical_dual_is_itself",
            dual_res <= tol.threshold(1.0),
            f"max entry deviation {dual_res:.3e}",
        )
    )
    y = dual_side(w, f, u, tol).sequence
    expected = np.zeros((8, n), dtype=np.complex128)
    expected[0] = (_unit(n, 1) + _unit(n, 2)) / 2
    expected[1] = (_unit(n, 1) - _unit(n, 2)) / 2
    expected[2] = (_unit(n, 3) + _unit(n, 4)) / 2
    expected[3] = (_unit(n, 3) - _unit(n, 4)) / 2
    y_res = _deviation(y.vectors, expected)
    out.append(
        _assertion(
            "characterizing_sequence_matches_pattern",
            y_res <= tol.threshold(1.0),
            f"max entry deviation {y_res:.3e} (tail truncates to zero)",
        )
    )
    ya = analyze(y, tol)
    out.append(
        _assertion(
            "tight_half_bounds",
            abs(ya.lower_bound - 0.5) <= 1e-10 and abs(ya.upper_bound - 0.5) <= 1e-10,
            f"bounds ({ya.lower_bound:.12f}, {ya.upper_bound:.12f})",
        )
    )
    wa = analyze(w, tol)
    out.append(
        _assertion(
            "spans_agree",
            ya.span_dim == wa.span_dim,
            f"span dims {ya.span_dim} == {wa.span_dim}",
        )
    )
    inv_res = gram_invariance_residual(u, w)
    out.append(
        _assertion(
            "gram_invariance_fails",
            inv_res > 1e-3,
            f"residual {inv_res:.3e}",
        )
    )
    g_uu = cross_gram(u, u)
    first = synthesis_matrix(w) @ g_uu[:, 0]
    expected_first = (_unit(n, 1) + _unit(n, 2)) / (2 * np.sqrt(2.0))
    vec_res = _deviation(first, expected_first)
    out.append(
        _assertion(
            "invariance_defect_vector_matches",
            vec_res <= 1e-10,
            f"max entry deviation {vec_res:.3e}",
        )
    )
    return out


# each id's builder and the runner of its assertions
_FIXTURES: dict[str, tuple[Callable, Callable]] = {
    "2.8": (_fixture_2_8, _run_weak_dual_fixture),
    "2.9": (_fixture_2_9, _run_weak_dual_fixture),
    "2.10": (_fixture_2_10, _run_weak_dual_fixture),
    "3.1": (_fixture_3_1, _run_3_1),
    "3.3": (_fixture_3_3, _run_3_3),
}

FIXTURE_IDS = tuple(sorted(_FIXTURES))


def run_repro(fixture_id: str, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Regenerate a fixture, run its assertions, and report the results."""
    fix = build_fixture(fixture_id)
    assertions = _FIXTURES[fixture_id][1](fix, tol)
    return {
        "fixture_id": fix.fixture_id,
        "description": fix.description,
        "truncation_note": fix.truncation_note,
        "interior_indices": fix.interior_indices,
        "assertions": assertions,
        "all_passed": all(a["passed"] for a in assertions),
    }
