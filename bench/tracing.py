"""Outside-in layer trace for framedual.

``Tracer.installed()`` replaces every module-level function defined in a
framedual layer module, at every module binding, with a wrapper that
records one span per call; it also wraps the ``numpy.linalg`` LAPACK
entry points.  The library source is not touched, and the originals are
restored on exit, so untraced ops run the unwrapped code.

Private helpers are wrapped as well as public functions, so that a call
such as ``gabor -> rduality._certificate`` is charged to rduality.
Matrix products (``@``) cannot be wrapped and land in the self time of
the layer that evaluates them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

LAYERS = ("numerics", "frames", "rduality", "gabor", "fixtures", "cli")
LAPACK_ENTRY_POINTS = ("svd", "eigh", "eigvalsh", "qr")
LAPACK_LAYER = "lapack"

# Span record fields, kept as lists for low per-call overhead.  ELEMS is
# the largest array a LAPACK call returns; NBYTES the bytes of its input
# and output arrays, computed from their shapes (not measured traffic).
SPAN_FIELDS = ["name", "layer", "start", "end", "parent", "op", "max_elems",
               "computed_bytes"]
NAME, LAYER, START, END, PARENT, OP, ELEMS, NBYTES = range(len(SPAN_FIELDS))


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):  # SVDResult, EighResult, QRResult
        for item in obj:
            yield from _arrays(item)


class Tracer:
    """Collects spans in memory; ``op`` tags every span with its op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int = -1

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _wrap_lapack(self, fn):
        name = f"numpy.linalg.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, LAPACK_LAYER)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            outs = list(_arrays(out))
            ins = [a for a in args if isinstance(a, np.ndarray)]
            rec[ELEMS] = max((a.size for a in outs), default=0)
            rec[NBYTES] = sum(a.nbytes for a in ins + outs)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self, op: int):
        """Wrap every layer function and LAPACK entry point while the
        block runs; spans opened inside carry ``op``."""
        self.op = op
        modules = [importlib.import_module("framedual")] + [
            importlib.import_module(f"framedual.{layer}") for layer in LAYERS
        ]
        wrappers: dict[int, object] = {}
        patched: list[tuple[object, str, object]] = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("framedual.") or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for attr in LAPACK_ENTRY_POINTS:
            fn = getattr(np.linalg, attr)
            patched.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._wrap_lapack(fn))
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)
            self.op = -1

    def write(self, path: Path) -> None:
        """One JSON array per span, after a header line naming the fields;
        ``parent`` is the index of the enclosing span, or -1."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children
    (spans are strictly nested, since the program is single-threaded)."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans: list[list], ops: set[int]) -> dict[str, float]:
    """Per-op layer metrics over the spans of the given op ids."""
    own = self_times(spans)
    total: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    max_elems = 0
    trials = candidate_stages = 0
    for i, rec in enumerate(spans):
        if rec[OP] not in ops:
            continue
        name, layer, dur = rec[NAME], rec[LAYER], rec[END] - rec[START]
        if layer == LAPACK_LAYER:
            add("numerics.lapack_s", dur)
            add("numerics.lapack_calls", 1)
            add("numerics.lapack_bytes", rec[NBYTES])
            max_elems = max(max_elems, rec[ELEMS])
            continue
        add(f"{layer}.self_s", own[i])
        add(f"{layer}.calls", 1)
        if name == "frames.analyze":
            add("frames.analyze_calls", 1)
        elif name == "frames.load_family":
            add("frames.load_family_s", dur)
        elif name in ("gabor.gabor_system", "gabor.adjoint_system"):
            add("gabor.generate_s", dur)
        elif name == "gabor.evaluate_exploration_trial":
            trials += 1
        elif name == "gabor._candidate_u_records":
            candidate_stages += 1
    n = max(len(ops), 1)
    out = {key: value / n for key, value in total.items()}
    out["numerics.lapack_max_elems"] = max_elems
    out["gabor.explore_useful_frac"] = candidate_stages / trials if trials else 0.0
    return out
