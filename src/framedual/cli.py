"""Command-line front end.

Exit codes: 0 when the asserted property holds, 1 when it fails (a valid
negative result), 2 on usage, parse, shape, or gate errors.  JSON output
is byte-identical for identical configurations.

``main`` can be called repeatedly in one process: it parses with one
parser, built on its first call, and each call's report depends only on
its own arguments.  ``build_parser()`` returns a fresh parser on every
call, so a caller that extends one does not change what ``main`` parses.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Iterator, Optional

import numpy as np

from .errors import FixtureParseError, FrameDualError
from .fixtures import FIXTURE_IDS, run_repro
from .frames import analyze, family_to_json_dict, load_family
from .gabor import (
    SCHEMA_VERSION,
    GaborLattice,
    duality_check,
    gabor_system,
    promote_to_r_dual,
    run_exploration,
    tight_gabor_weak_r_dual,
)
from .numerics import Tolerance
from .rduality import (
    _certificate,
    _constructed_v,
    certify_weak_r_dual,
    characterize,
    weak_r_dual,
)


def _report(payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, **payload}


# Items of a long list that one encoder call writes together.
_JSON_SLICE = 64
# ``json.dumps(obj, sort_keys=True)`` without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.table:
        chunks = _as_table(report)
    else:
        chunks = itertools.chain(_json_chunks(report), ("\n",))
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _streamed(obj) -> bool:
    """Whether ``_json_chunks`` splits ``obj``: a list longer than
    ``_JSON_SLICE``, or a dict with ``str`` keys that holds a split value."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) for k in obj) and any(map(_streamed, obj.values()))
    return isinstance(obj, (list, tuple)) and len(obj) > _JSON_SLICE


def _json_chunks(obj) -> Iterator[str]:
    """Yield ``json.dumps(obj, sort_keys=True)`` in pieces.

    A split dict is written key by key and a split list slice by slice,
    each slice encoded by the C encoder with its brackets stripped;
    anything else is one encoder call.  The whole text of a report is
    never held at once.
    """
    if not _streamed(obj):
        yield _encode(obj)
    elif isinstance(obj, dict):
        sep = "{"
        for key in sorted(obj):
            yield f"{sep}{_encode(key)}: "
            yield from _json_chunks(obj[key])
            sep = ", "
        yield "}"
    else:
        sep = "["
        for i in range(0, len(obj), _JSON_SLICE):
            yield sep + _encode(obj[i:i + _JSON_SLICE])[1:-1]
            sep = ", "
        yield "]"


def _as_table(obj, prefix: str = "") -> Iterator[str]:
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _as_table(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _as_table(item, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]:<48} {obj}\n"


def _window(spec: str, n: int, normalize: bool) -> np.ndarray:
    if spec == "delta":
        w = np.zeros(n, dtype=np.complex128)
        w[0] = 1.0
    else:
        fam = load_family(spec)
        if fam.ambient_dim != n or fam.count != 1:
            raise FixtureParseError(
                f"window fixture must hold one vector of length {n}"
            )
        w = np.asarray(fam.vectors[0])
    # a zero window is left as it is, for the library's "window is zero"
    if normalize and np.any(w):
        w = w / np.linalg.norm(w)
    return w


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace, tol: Tolerance) -> int:
    fam = load_family(args.fixture)
    result = analyze(fam, tol)
    _emit(_report({"analysis": result.to_json_dict(), "label": fam.label}), args)
    return 0


def _emit_certificate(cert, args: argparse.Namespace, passed: bool, **extra) -> int:
    _emit(_report({"certificate": cert.to_json_dict(), **extra}), args)
    return 0 if passed else 1


def _cmd_wrd_build(args: argparse.Namespace, tol: Tolerance) -> int:
    _, cert = weak_r_dual(*map(load_family, (args.f, args.u, args.v)), tol)
    return _emit_certificate(cert, args, cert.passes())


def _cmd_wrd_check(args: argparse.Namespace, tol: Tolerance) -> int:
    cert = certify_weak_r_dual(*map(load_family, (args.w, args.f, args.u, args.v)), tol)
    return _emit_certificate(cert, args, cert.passes())


def _cmd_wrd_characterize(args: argparse.Namespace, tol: Tolerance) -> int:
    cert = characterize(*map(load_family, (args.w, args.f, args.u, args.v)), tol)
    passed = cert.characterization_verdict != "NotWeakRDual"
    return _emit_certificate(cert, args, passed)


def _cmd_wrd_construct_v(args: argparse.Namespace, tol: Tolerance) -> int:
    w, f, u = map(load_family, (args.w, args.f, args.u))
    side, v = _constructed_v(w, f, u, tol, orthonormal=args.onb)
    cert = _certificate(side, v)
    rows = family_to_json_dict(v)["vectors"]
    return _emit_certificate(cert, args, cert.passes(), v=rows)


def _cmd_wrd_promote(args: argparse.Namespace, tol: Tolerance) -> int:
    w, f, u = map(load_family, (args.w, args.f, args.u))
    v = load_family(args.v) if args.v else None
    cert = promote_to_r_dual(w, f, u, tol, v=v).certificate
    return _emit_certificate(cert, args, cert.verdict == "RDual")


def _cmd_repro(args: argparse.Namespace, tol: Tolerance) -> int:
    ids = FIXTURE_IDS if args.id == "all" else (args.id,)
    reports = [run_repro(fid, tol) for fid in ids]
    _emit(_report({"repro": reports}), args)
    return 0 if all(r["all_passed"] for r in reports) else 1


def _cmd_gabor_explore(args: argparse.Namespace, tol: Tolerance) -> int:
    N_values = _parse_n_values(args.N)
    _emit(_report(run_exploration(N_values, args.seed, args.trials, tol)), args)
    return 0


def _system(args: argparse.Namespace):
    lattice = GaborLattice(args.N_single, args.a, args.b)
    return gabor_system(lattice, _window(args.window, lattice.N, args.normalize))


def _cmd_gabor_duality(args: argparse.Namespace, tol: Tolerance) -> int:
    report = duality_check(_system(args), tol)
    _emit(_report({"duality": report.to_json_dict()}), args)
    return 0 if report.match else 1


def _cmd_gabor_tight_wrd(args: argparse.Namespace, tol: Tolerance) -> int:
    result = tight_gabor_weak_r_dual(_system(args), tol=tol)
    v_is_onb = result.certificate.v_is_onb
    report = {"tight_weak_r_dual": result.to_json_dict(), "v_is_onb": v_is_onb}
    _emit(_report(report), args)
    return 0 if result.certificate.passes() and not v_is_onb else 1


def _parse_n_values(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(part) for part in spec.split(",") if part]
    except ValueError:
        raise ValueError(
            f"--N expects lo..hi or a comma-separated list of integers, got {spec!r}"
        ) from None


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="relative tolerance")
    parser.add_argument(
        "--abs-floor", type=float, default=1e-12, help="absolute tolerance floor"
    )
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--out", type=str, default=None, help="write report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framedual",
        description="Finite-dimensional weak R-dual toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="classify a family fixture")
    p_an.add_argument("fixture")
    _add_common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_wrd = sub.add_parser("wrd", help="weak R-dual operations")
    wrd_sub = p_wrd.add_subparsers(dest="wrd_command", required=True)
    for name, needs, func in (
        ("build", "fuv", _cmd_wrd_build),
        ("check", "wfuv", _cmd_wrd_check),
        ("characterize", "wfuv", _cmd_wrd_characterize),
        ("construct-v", "wfu", _cmd_wrd_construct_v),
        ("promote", "wfu", _cmd_wrd_promote),
    ):
        p = wrd_sub.add_parser(name)
        for letter in needs:
            p.add_argument(f"--{letter}", required=True, help=f"fixture for {letter}")
        if name == "construct-v":
            p.add_argument("--onb", action="store_true", help="orthonormal output")
        if name == "promote":
            p.add_argument("--v", required=False, default=None)
        _add_common(p)
        p.set_defaults(func=func)

    p_re = sub.add_parser("repro", help="run a built-in reproduction fixture")
    p_re.add_argument("id", choices=list(FIXTURE_IDS) + ["all"])
    _add_common(p_re)
    p_re.set_defaults(func=_cmd_repro)

    p_ga = sub.add_parser("gabor", help="Gabor operations on Z_N")
    ga_sub = p_ga.add_subparsers(dest="gabor_command", required=True)
    for name, func in (
        ("duality", _cmd_gabor_duality),
        ("tight-wrd", _cmd_gabor_tight_wrd),
    ):
        p = ga_sub.add_parser(name)
        p.add_argument("--N", dest="N_single", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--window", type=str, default="delta")
        p.add_argument("--normalize", action="store_true")
        _add_common(p)
        p.set_defaults(func=func)
    p_ex = ga_sub.add_parser("explore")
    p_ex.add_argument("--N", type=str, required=True, help="e.g. 4..8 or 4,6,8")
    p_ex.add_argument("--trials", type=int, default=100)
    p_ex.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_common(p_ex)
    p_ex.set_defaults(func=_cmd_gabor_explore)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process: parsing keeps no
    state in it, and a discarded parser is a graph of reference cycles
    that only the cyclic garbage collector frees."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, Tolerance(rel_eps=args.tol, abs_floor=args.abs_floor))
    except (FrameDualError, ValueError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(_encode(_report(error)) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
