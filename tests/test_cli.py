"""Command-line surface: exit codes, report shapes, and determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import fam, perturb_member, trio, trio_parseval
from framedual import VectorFamily, cli, rduality
from framedual.cli import build_parser, main
from framedual.fixtures import build_fixture
from framedual.frames import family_to_json_dict, parseval_tighten, save_family
from framedual.numerics import Tolerance


def _write(tmp_path, name, family):
    path = tmp_path / f"{name}.json"
    save_family(family, path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestAnalyze:
    def test_orthonormal_fixture(self, tmp_path, capsys):
        path = _write(tmp_path, "onb", fam([[1, 0], [0, 1]], label="onb"))
        code, report = _run(capsys, ["analyze", path])
        assert code == 0
        assert report["schema_version"] == 4
        assert report["analysis"]["is_onb"] is True

    def test_doubled_pattern_fixture(self, tmp_path, capsys):
        r2 = np.sqrt(2.0)
        u = fam(
            [[1 / r2, 0], [1 / r2, 0], [0, 1 / r2], [0, 1 / r2]], label="doubled"
        )
        path = _write(tmp_path, "u", u)
        code, report = _run(capsys, ["analyze", path])
        assert code == 0
        assert report["analysis"]["is_parseval_for_span"] is True
        assert report["analysis"]["is_onb"] is False

    def test_malformed_fixture_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, report = _run(capsys, ["analyze", str(path)])
        assert code == 2
        assert report["error"]["type"] == "FixtureParseError"

    def test_invalid_tolerance_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "onb", fam([[1, 0], [0, 1]]))
        code, report = _run(capsys, ["analyze", path, "--tol", "-1"])
        assert code == 2
        assert report["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("flag", ["--tol", "--abs-floor"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_nonfinite_tolerance_gets_the_tolerance_error(
        self, flag, value, capsysbinary
    ):
        # an infinite cut would accept every residual and zero every rank
        assert main(["repro", "2.8", flag, value]) == 2
        assert capsysbinary.readouterr().out == (
            b'{"error": {"message": "rel_eps and abs_floor must be positive and'
            b' finite", "type": "ValueError"}, "schema_version": 4}\n'
        )

    def test_tolerance_is_checked_before_the_fixture(self, tmp_path, capsys):
        # as for every other command, the tolerance error is reported first
        missing = str(tmp_path / "missing.json")
        code, report = _run(capsys, ["analyze", missing, "--abs-floor", "0"])
        assert code == 2
        assert report["error"]["type"] == "ValueError"


class TestWrd:
    def test_build_passes(self, tmp_path, capsys):
        f = _write(tmp_path, "f", trio())
        uv = _write(tmp_path, "uv", trio_parseval())
        code, report = _run(capsys, ["wrd", "build", "--f", f, "--u", uv, "--v", uv])
        assert code == 0
        assert report["certificate"]["verdict"] == "WeakRDual"

    def test_check_with_perturbed_v_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        f = trio()
        uv = trio_parseval()
        bad = perturb_member(rng, uv, noise=1e-3)
        fp = _write(tmp_path, "f", f)
        up = _write(tmp_path, "u", uv)
        vp = _write(tmp_path, "v", bad)
        wp = _write(tmp_path, "w", f)
        code, report = _run(
            capsys, ["wrd", "check", "--w", wp, "--f", fp, "--u", up, "--v", vp]
        )
        assert code == 1
        assert report["certificate"]["verdict"] == "NotWeakRDual"

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        f = _write(tmp_path, "f", trio())
        u = _write(tmp_path, "u", fam([[1, 0], [0, 1]]))
        code, report = _run(capsys, ["wrd", "build", "--f", f, "--u", u, "--v", u])
        assert code == 2
        assert report["error"]["type"] == "ShapeMismatchError"

    def test_construct_v(self, tmp_path, capsys):
        r2 = np.sqrt(2.0)
        f = fam(
            [[1 / r2, 0, 0], [1 / r2, 0, 0], [0, 1 / r2, 0], [0, 1 / r2, 0]],
            label="f",
        )
        w = fam(
            [[0, 1 / r2, 0], [0, 1 / r2, 0], [0, 0, 1 / r2], [0, 0, 1 / r2]],
            label="w",
        )
        fp = _write(tmp_path, "f", f)
        wp = _write(tmp_path, "w", w)
        code, report = _run(
            capsys, ["wrd", "construct-v", "--w", wp, "--f", fp, "--u", fp]
        )
        assert code == 0
        assert report["certificate"]["verdict"] == "WeakRDual"
        assert len(report["v"]) == 4

    def test_construct_v_prints_the_fixture_encoding(self, tmp_path, capsys):
        fams = build_fixture("2.8").families
        argv = ["wrd", "construct-v"]
        for k in "wfu":
            argv += [f"--{k}", _write(tmp_path, k, fams[k])]
        code, report = _run(capsys, argv)
        assert code == 0
        v = rduality.build_parseval_v(fams["w"], fams["f"], fams["u"])
        assert report["v"] == family_to_json_dict(v)["vectors"]

    def test_characterize(self, tmp_path, capsys):
        # the 2.8 fixtures with their constructed v pass; with f and w scaled
        # by 1e9 and v perturbed by 1e-3 and re-tightened, the
        # characterization verdict fails
        fams = build_fixture("2.8").families
        f, u, w = fams["f"], fams["u"], fams["w"]
        v = rduality.build_parseval_v(w, f, u)
        e = np.random.default_rng(0).standard_normal(v.vectors.shape)
        bad = parseval_tighten(VectorFamily(v.vectors + 1e-3 * e / np.linalg.norm(e)))
        cases = [
            ((w, f, u, v), 0, "WeakRDual"),
            ((fam(1e9 * w.vectors), fam(1e9 * f.vectors), u, bad), 1, "NotWeakRDual"),
        ]
        for families, expected_code, verdict in cases:
            argv = ["wrd", "characterize"]
            for k, family in zip("wfuv", families):
                argv += [f"--{k}", _write(tmp_path, k, family)]
            code, report = _run(capsys, argv)
            assert code == expected_code
            assert report["certificate"]["characterization_verdict"] == verdict

    def test_construct_v_onb(self, tmp_path, capsys):
        # fixture 2.10: span deficit equals kernel dimension, so the
        # orthonormal construction applies; u is not an ONB, so WeakRDual
        families = build_fixture("2.10").families
        argv = ["wrd", "construct-v", "--onb"]
        for name in ("w", "f", "u"):
            argv += [f"--{name}", _write(tmp_path, name, families[name])]
        code, report = _run(capsys, argv)
        assert code == 0
        cert = report["certificate"]
        assert cert["verdict"] == cert["characterization_verdict"] == "WeakRDual"
        assert cert["v_is_onb"] is True and cert["u_is_onb"] is False
        assert len(report["v"]) == 7

    @pytest.mark.parametrize("onb", [True, False])
    def test_construct_v_evaluates_dual_side_once(self, tmp_path, capsys, monkeypatch, onb):
        # v and its certificate are read from one dual-side record
        original, calls = rduality.dual_side, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for mod in (rduality, cli):
            if hasattr(mod, "dual_side"):
                monkeypatch.setattr(mod, "dual_side", counted)
        families = build_fixture("2.10").families
        argv = ["wrd", "construct-v"] + (["--onb"] if onb else [])
        for name in ("w", "f", "u"):
            argv += [f"--{name}", _write(tmp_path, name, families[name])]
        code, _ = _run(capsys, argv)
        # without --onb, fixture 2.10 has deficit == kernel: a usage error
        assert code == (0 if onb else 2)
        assert len(calls) == 1


class TestWrdPromote:
    def test_promote_riesz_basis(self, tmp_path, capsys):
        w = _write(tmp_path, "w", fam([[1, 0], [0, np.sqrt(2)]], label="w"))
        u = _write(tmp_path, "u", fam([[1, 0], [0, 1]], label="u"))
        code, report = _run(capsys, ["wrd", "promote", "--w", w, "--f", w, "--u", u])
        assert code == 0
        assert report["certificate"]["verdict"] == "RDual"

    def test_promote_gate_exits_2(self, tmp_path, capsys):
        w = _write(tmp_path, "w", fam([[1, 0], [1, 0]], label="dependent"))
        u = _write(tmp_path, "u", fam([[1, 0], [0, 1]], label="u"))
        code, report = _run(capsys, ["wrd", "promote", "--w", w, "--f", w, "--u", u])
        assert code == 2
        assert report["error"]["type"] == "HypothesisFailedError"

    def test_orthonormal_gate_is_shared_with_construct_v(self, tmp_path, capsys):
        # fixture 2.8 has 4 members in C^3: promote stops at the count gate
        # of construct-v --onb, with the same report
        fams = build_fixture("2.8").families
        args = []
        for k in "wfu":
            args += [f"--{k}", _write(tmp_path, k, fams[k])]
        code, promote = _run(capsys, ["wrd", "promote", *args])
        assert code == 2
        assert promote["error"]["type"] == "GateFailedError"
        assert _run(capsys, ["wrd", "construct-v", "--onb", *args]) == (2, promote)


class TestWindowFile:
    def test_gabor_duality_with_file_window(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        path = _write(tmp_path, "win", fam([vec], label="window"))
        code, report = _run(
            capsys,
            [
                "gabor", "duality", "--N", "4", "--a", "2", "--b", "2",
                "--window", path, "--normalize",
            ],
        )
        assert code == 0
        assert report["duality"]["match"] is True

    def test_window_of_the_wrong_length_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "win", fam([[1, 0, 0]], label="window"))
        argv = ["gabor", "duality", "--N", "4", "--a", "2", "--b", "2"]
        code, report = _run(capsys, argv + ["--window", path])
        assert code == 2
        assert report["error"] == {
            "type": "FixtureParseError",
            "message": "window fixture must hold one vector of length 4",
        }

    @pytest.mark.parametrize("command", ["duality", "tight-wrd"])
    def test_normalizing_a_zero_window_exits_2(self, command, tmp_path, capsys):
        path = _write(tmp_path, "win", fam([[0, 0, 0, 0]], label="window"))
        argv = ["gabor", command, "--N", "4", "--a", "2", "--b", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report = _run(capsys, argv + ["--window", path, "--normalize"])
        assert code == 2
        assert report["error"] == {
            "type": "ZeroWindowError",
            "message": "window is zero",
        }

    def test_small_window_meets_the_floor_in_its_units(self, tmp_path, capsys):
        path = _write(tmp_path, "win", fam([[1e-20, 0, 0, 0]], label="window"))
        argv = ["gabor", "tight-wrd", "--N", "4", "--a", "1", "--b", "2"]
        argv += ["--window", path]
        code, report = _run(capsys, argv)
        assert code == 2
        assert report["error"]["type"] == "EmptySpanError"
        code, report = _run(capsys, argv + ["--abs-floor", "1e-32"])
        assert code == 0
        assert report["tight_weak_r_dual"]["certificate"]["verdict"] == "WeakRDual"


class TestRepro:
    def test_single(self, capsys):
        code, report = _run(capsys, ["repro", "3.3"])
        assert code == 0
        assert report["repro"][0]["all_passed"] is True

    def test_all(self, capsys):
        code, report = _run(capsys, ["repro", "all"])
        assert code == 0
        assert len(report["repro"]) == 5
        assert all(r["all_passed"] for r in report["repro"])


class TestGaborCommands:
    def test_duality(self, capsys):
        code, report = _run(
            capsys,
            ["gabor", "duality", "--N", "4", "--a", "1", "--b", "2", "--window", "delta"],
        )
        assert code == 0
        assert report["duality"]["match"] is True

    def test_tight_wrd(self, capsys):
        code, report = _run(
            capsys,
            ["gabor", "tight-wrd", "--N", "4", "--a", "1", "--b", "2", "--window", "delta"],
        )
        assert code == 0
        assert report["tight_weak_r_dual"]["certificate"]["verdict"] == "WeakRDual"
        assert report["v_is_onb"] is False

    def test_bad_lattice_exits_2(self, capsys):
        code, report = _run(
            capsys, ["gabor", "duality", "--N", "4", "--a", "3", "--b", "1"]
        )
        assert code == 2
        assert report["error"]["type"] == "BadLatticeError"

    def test_explore_deterministic_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(
                [
                    "gabor",
                    "explore",
                    "--N",
                    "4,6",
                    "--trials",
                    "6",
                    "--seed",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_explore_range_syntax(self, capsys):
        code, report = _run(
            capsys, ["gabor", "explore", "--N", "4..5", "--trials", "2", "--seed", "0"]
        )
        assert code == 0
        assert report["N_values"] == [4, 5]

    @pytest.mark.parametrize("spec", ["1", "0", "2..1", ","])
    def test_explore_without_lattices_exits_2(self, spec, capsys):
        code, report = _run(capsys, ["gabor", "explore", "--N", spec, "--trials", "3"])
        assert code == 2
        assert report["error"]["type"] == "BadLatticeError"

    def test_negative_trials_exit_2_with_an_error_report(self, capsysbinary):
        code = main(["gabor", "explore", "--N", "4..6", "--trials", "-3"])
        assert code == 2
        assert capsysbinary.readouterr().out == (
            b'{"error": {"message": "trials must be non-negative, got -3",'
            b' "type": "ValueError"}, "schema_version": 4}\n'
        )

    @pytest.mark.parametrize("trials", ["3", "0"])
    def test_negative_seed_exits_2_with_an_error_report(self, trials, capsysbinary):
        argv = ["gabor", "explore", "--N", "4..6", "--trials", trials, "--seed", "-1"]
        assert main(argv) == 2
        assert capsysbinary.readouterr().out == (
            b'{"error": {"message": "seed must be non-negative, got -1",'
            b' "type": "ValueError"}, "schema_version": 4}\n'
        )

    def test_malformed_n_spec_exits_2_naming_the_flag(self, capsysbinary):
        assert main(["gabor", "explore", "--N", "4..", "--trials", "3"]) == 2
        assert capsysbinary.readouterr().out == (
            b'{"error": {"message": "--N expects lo..hi or a comma-separated list'
            b' of integers, got \'4..\'", "type": "ValueError"}, "schema_version": 4}\n'
        )

    def test_repeated_n_values_exit_2_with_an_error_report(self, capsysbinary):
        assert main(["gabor", "explore", "--N", "4,4,6", "--trials", "3"]) == 2
        assert capsysbinary.readouterr().out == (
            b'{"error": {"message": "N values must be distinct, got [4, 4, 6]",'
            b' "type": "ValueError"}, "schema_version": 4}\n'
        )


class TestTableMode:
    def test_table_output(self, capsys):
        code = main(["repro", "2.8", "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all_passed" in out and "{" not in out.splitlines()[0]

    def test_one_line_per_leaf(self, capsys):
        def leaves(obj):
            if isinstance(obj, (dict, list)):
                values = obj.values() if isinstance(obj, dict) else obj
                return sum(leaves(v) for v in values)
            return 1

        main(["repro", "all"])
        report = json.loads(capsys.readouterr().out)
        main(["repro", "all", "--table"])
        lines = capsys.readouterr().out.split("\n")
        assert lines.pop() == ""
        assert len(lines) == leaves(report)
        assert lines[-1] == f"{'schema_version':<48} 4"


_SLICE = cli._JSON_SLICE
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"b": [], "a": {}, "c": [[], {}, ()]},
        {"z": {"y": [1, {"b": 2.5, "a": [None, True]}]}, "a": "s", "m": False},
        *[list(range(n)) for n in (_SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 5)],
        *[
            [{"t": i, "v": [i, -i], "k": {"x": 0.1 * i}} for i in range(n)]
            for n in (_SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE)
        ],
        tuple(range(2 * _SLICE + 1)),
        {"x": _NAN, "y": [_INF] * (_SLICE + 1), "z": -_INF, "w": [_NAN, -_INF]},
        {"ключ": "värde ✓", "é": ["😀"] * (_SLICE + 2), "a\u0000b": "\t\n\""},
        {10: "a", 9: "b"},
        {"outer": {2.5: [1], 1.5: {"c": 3}}, "b": [{1: 2}] * (_SLICE + 1)},
        {True: 1, False: 0},
        {None: [1] * (_SLICE + 1)},
        [[i, [i, {"q": i}]] for i in range(2 * _SLICE + 3)],
    ],
    ids=lambda obj: type(obj).__name__ + str(len(obj)),
)
def test_json_chunks_match_json_dumps(obj):
    assert "".join(cli._json_chunks(obj)) == json.dumps(obj, sort_keys=True)


def test_a_long_list_is_encoded_slice_by_slice():
    chunks = list(cli._json_chunks(list(range(3 * _SLICE))))
    # three slices and the closing bracket
    assert len(chunks) == 4 and chunks[-1] == "]"


@pytest.mark.parametrize(
    "argv",
    [
        ["gabor", "explore", "--N", "4..12", "--trials", "200", "--seed", "1"],
        ["gabor", "tight-wrd", "--N", "24", "--a", "1", "--b", "2", "--window", "delta"],
        ["repro", "all", "--table"],
    ],
    ids=" ".join,
)
def test_stdout_and_out_file_get_the_same_bytes(argv, tmp_path, capsysbinary):
    code = main(argv)
    printed = capsysbinary.readouterr().out
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == code == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed
    if "--table" not in argv:
        assert printed == (json.dumps(json.loads(printed), sort_keys=True) + "\n").encode()


_GABOR = ["--N", "4", "--a", "1", "--b", "2"]
_WFU = ["--w", "w", "--f", "f", "--u", "u"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["repro", "all"], ["--json"]),
        (["analyze", "f.json"], ["--seed", "1"]),
        (["wrd", "build", "--f", "f", "--u", "u", "--v", "v"], ["--seed", "1"]),
        (["wrd", "check", *_WFU, "--v", "v"], ["--seed", "1"]),
        (["wrd", "characterize", *_WFU, "--v", "v"], ["--seed", "1"]),
        (["wrd", "construct-v", *_WFU], ["--seed", "1"]),
        (["wrd", "promote", *_WFU], ["--seed", "1"]),
        (["repro", "all"], ["--seed", "1"]),
        (["gabor", "duality", *_GABOR], ["--seed", "1"]),
        (["gabor", "tight-wrd", *_GABOR], ["--seed", "1"]),
        (["gabor", "explore", "--N", "4"], ["--normalize"]),
    ],
    ids=lambda v: " ".join(v),
)
def test_removed_flags_are_usage_errors(argv, flag, capsys):
    build_parser().parse_args(argv)  # the command itself is valid
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert main(["repro", "3.3"]) == 0
    assert main(["gabor", "duality", *_GABOR, "--window", "delta"]) == 0
    assert len(built) == 1
    # build_parser() stays fresh: extending one does not reach main
    extended = build_parser()
    assert extended is not build_parser() and extended is not cli._parser()
    extended.add_argument("--extra")
    extended.parse_args(["--extra", "1", "repro", "3.3"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--extra", "1", "repro", "3.3"])
    assert exc.value.code == 2


def _report_bytes(run, argv, capsysbinary):
    """Exit code of ``run(argv)`` and the bytes of the report it writes."""
    code = run(argv)
    out = capsysbinary.readouterr().out
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        out += path.read_bytes()
        path.unlink()
    return code, out


def _fresh(argv):
    """A command run on a parser and namespace of its own, as in a new process."""
    args = build_parser().parse_args(argv)
    return args.func(args, Tolerance(rel_eps=args.tol, abs_floor=args.abs_floor))


def test_repeated_main_calls_share_no_state(tmp_path, capsysbinary, monkeypatch):
    rng = np.random.default_rng(3)
    window = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    win = _write(tmp_path, "win", fam([window]))
    w = _write(tmp_path, "w", fam([[1, 0], [0, np.sqrt(2)]]))
    u = _write(tmp_path, "u", fam([[1, 0], [0, 1]]))
    fx = {}
    for fid in ("2.8", "2.10"):
        for k, family in build_fixture(fid).families.items():
            fx[fid, k] = _write(tmp_path, f"{fid}-{k}", family)
    duality = ["gabor", "duality", "--N", "4", "--a", "2", "--b", "2", "--window", win]
    promote = ["wrd", "promote", "--w", w, "--f", w, "--u", u]
    construct = ["wrd", "construct-v"]
    # each setter sets a flag or option that a later command leaves out
    setters = [
        duality + ["--normalize", "--table"],
        promote + ["--v", u, "--tol", "1e-6", "--out", str(tmp_path / "out.json")],
        construct + ["--onb", *(f"--{k}={fx['2.10', k]}" for k in "wfu")],
    ]
    later = [
        duality,
        promote,
        construct + [f"--{k}={fx['2.8', k]}" for k in "wfu"],
        ["gabor", "tight-wrd", *_GABOR, "--window", "delta"],
        ["gabor", "explore", "--N", "4..6", "--trials", "3", "--seed", "1"],
        ["repro", "3.3"],
    ]
    first = {tuple(a): _report_bytes(_fresh, a, capsysbinary) for a in setters + later}
    assert {code for code, _ in first.values()} == {0}
    parsed, emit = [], cli._emit

    def recorded(report, args):
        parsed.append(vars(args))
        emit(report, args)

    monkeypatch.setattr(cli, "_emit", recorded)
    for argv in setters + later + setters:
        assert _report_bytes(main, argv, capsysbinary) == first[tuple(argv)], argv
        assert parsed.pop() == vars(build_parser().parse_args(argv))


def test_tight_wrd_leaves_numpy_ma_unimported(tmp_path):
    # a coordinate family is recognized by plain indexing, as np.unique,
    # np.setdiff1d and np.isin import numpy.ma on first use: one tight-wrd
    # op in a fresh process must not import it
    import framedual
    from framedual.gabor import GaborLattice, canonical_tight_window

    lat = GaborLattice(96, 2, 2)
    rng = np.random.default_rng(1)
    g = canonical_tight_window(lat, rng.standard_normal(96) + 1j * rng.standard_normal(96))
    window = _write(tmp_path, "window", VectorFamily(g[None, :]))
    argv = ["gabor", "tight-wrd", "--N", "96", "--a", "2", "--b", "2",
            "--window", str(window), "--out", str(tmp_path / "tight.json")]
    code = (
        "import sys\n"
        "from framedual.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    src = str(Path(framedual.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
