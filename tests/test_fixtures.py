"""Embedded reproduction fixtures and their assertion suites."""

import pytest

from helpers import trio, trio_parseval
from framedual import fixtures, gabor, rduality
from framedual.fixtures import FIXTURE_IDS, build_fixture, run_repro
from framedual.frames import analyze


def test_fixture_ids():
    assert FIXTURE_IDS == ("2.10", "2.8", "2.9", "3.1", "3.3")


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_repro_passes(fixture_id):
    report = run_repro(fixture_id)
    failing = [a for a in report["assertions"] if not a["passed"]]
    assert report["all_passed"], failing


def test_unknown_fixture():
    with pytest.raises(KeyError):
        build_fixture("9.99")


def test_fixture_families_are_well_formed():
    for fid in FIXTURE_IDS:
        fix = build_fixture(fid)
        assert fix.truncation_note
        for fam in fix.families.values():
            analyze(fam)  # raises on degenerate input


def test_2_10_completion_is_orthonormal_basis():
    fix = build_fixture("2.10")
    report = run_repro("2.10")
    names = {a["name"] for a in report["assertions"]}
    assert "v_is_orthonormal_basis" in names
    assert "deficit_equals_kernel" in names


def test_3_3_reports_expected_assertions():
    report = run_repro("3.3")
    names = [a["name"] for a in report["assertions"]]
    assert "tight_half_bounds" in names
    assert "gram_invariance_fails" in names
    assert "invariance_defect_vector_matches" in names


def test_reports_are_deterministic():
    a = run_repro("2.8")
    b = run_repro("2.8")
    assert a == b


def test_repro_evaluates_dual_side_once_per_triple(monkeypatch):
    # every certificate and construction of a fixture reads one dual-side
    # record per distinct (w, f, u) triple
    original = rduality.dual_side
    calls = []

    def counted(w, f, u, tol):
        calls.append(tuple((x.vectors.shape, x.vectors.tobytes()) for x in (w, f, u)))
        return original(w, f, u, tol)

    for mod in (rduality, fixtures, gabor):
        if hasattr(mod, "dual_side"):
            monkeypatch.setattr(mod, "dual_side", counted)
    for fid in FIXTURE_IDS:
        calls.clear()
        assert run_repro(fid)["all_passed"]
        assert calls, fid
        assert len(calls) == len(set(calls)), fid
    # the characterizing-sequence bounds read the sequence off one record
    calls.clear()
    bounds = rduality.characterizing_sequence_bounds(trio(), trio(), trio_parseval())
    assert bounds.sandwich_ok
    assert len(calls) == 1
