"""Spans around circspec's public functions, installed from outside the package.

The package binds names with ``from .x import y``, so a function is wrapped
in every module that looks it up, not only where it is defined.  Spans stay
in memory while the benchmark runs; every original is restored when a traced
pass ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

_FOURIER = ("project", "interpolate", "evaluate_on_grid")

# (module that looks the name up, attribute, span name)
BINDINGS = (
    ("circspec.cli", "main_convergence", "cli"),
    ("circspec.cli", "run_experiment", "harness"),
    ("circspec.cli", "emit_csv", "harness.csv"),
    ("circspec.harness", "solve_ode", "ode"),
    ("circspec.harness", "solve_rhp", "rhp.solve"),
    ("circspec.harness", "winding_number", "rhp.winding"),
    ("circspec.harness", "eigenvalues_self_adjoint", "spectrum.eig"),
    ("circspec.harness", "eigen_distances", "spectrum.match"),
    ("circspec.harness", "diff_norm", "fourier"),
    *(("circspec.problems", f, "problems") for f in
      ("third_order_ode", "second_order_operator", "third_order_operator", "rhp_jump")),
    ("circspec.ode", "solve_checked", "linsolve"),
    ("circspec.ode", "assemble_finite_section_ode", "operators.fs"),
    ("circspec.ode", "assemble_collocation_ode", "operators.colloc"),
    *(("circspec.ode", f, "fourier") for f in _FOURIER),
    ("circspec.rhp", "solve_checked", "linsolve"),
    ("circspec.rhp", "assemble_sie", "operators.sie"),
    *(("circspec.rhp", f, "fourier") for f in _FOURIER),
    ("circspec.rhp", "solve_rhp", "rhp.solve"),
    ("circspec.rhp", "evaluate_phi", "rhp.eval"),
    ("circspec.rhp", "jump_residual", "rhp.residual"),
    ("circspec.spectrum", "assemble_finite_section_ode", "operators.fs"),
)

_SELF = ("linsolve", "operators.fs", "operators.sie", "operators.colloc", "rhp.eval", "rhp.residual",
         "ode", "rhp.solve", "rhp.winding", "harness", "cli", "fourier", "spectrum.eig",
         "spectrum.match", "problems")
_CALLS = {"linsolve.calls": ("linsolve",), "ode.calls": ("ode",), "fourier.calls": ("fourier",),
          "spectrum.calls": ("spectrum.eig",), "rhp.eval.points": ("rhp.eval",),
          "operators.calls": ("operators.fs", "operators.sie", "operators.colloc")}
_EXPONENTS = {"linsolve.n_exp": "linsolve", "operators.fs.n_exp": "operators.fs",
              "operators.colloc.n_exp": "operators.colloc", "spectrum.n_exp": "spectrum.eig"}

# per-layer metrics derived from spans, with their units
SPAN_METRICS = (
    *((f"{name}.self_s", "s") for name in _SELF),
    ("linsolve.ref.self_s", "s"),
    ("harness.csv_s", "s"),
    *((name, "count") for name in _CALLS),
    ("linsolve.failed", "count"),
    *((name, "exponent") for name in _EXPONENTS),
    ("operators.bytes", "bytes"),
    ("harness.csv_bytes", "bytes"),
)
# every per-layer metric, in the order they are printed; the last three come
# from the untraced passes, from pairing traced with untraced passes, and
# from the correctness checks
LAYER_METRICS = SPAN_METRICS + (("pass_s.tail", "s"), ("trace.overhead_s", "s"), ("fail_share", "ratio"))


@dataclass
class Span:
    pass_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    n: int | None = None  # window size, when the call has one
    nbytes: int = 0       # computed bytes: operator entries returned, or CSV written
    failed: bool = False


def _window_size(args) -> int | None:
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
        size = getattr(a, "N", None) or getattr(getattr(a, "window", None), "N", None)
        if isinstance(size, int):
            return size
    return None


def _nbytes(name: str, args, out) -> int:
    if name.startswith("operators."):
        return out.entries.nbytes
    if name == "harness.csv":
        return os.path.getsize(args[1])
    return 0


class Tracer:
    """Spans of one run, kept in memory; pass_id tags the spans of the current pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_id = 0

    @contextlib.contextmanager
    def span(self, name: str, args=()):
        s = Span(self.pass_id, len(self.spans), self._open[-1] if self._open else None,
                 name, time.perf_counter(), n=_window_size(args))
        self.spans.append(s)
        self._open.append(s.span_id)
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name, args) as s:
                out = fn(*args, **kwargs)
            s.nbytes = _nbytes(name, args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block, then restore the originals."""
        saved = []
        try:
            for module, attr, name in BINDINGS:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(saved[-1][2], name))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def wrappers_left() -> list[str]:
    """Bindings that still hold a wrapper; empty once every original is restored."""
    return [f"{module}.{attr}" for module, attr, _ in BINDINGS
            if getattr(importlib.import_module(module), attr).__name__ == "traced"]


def _n_exponent(calls: dict[int, list[float]]) -> float:
    """Log-log slope of the median self time per call against N; 0 with fewer than two sizes."""
    sizes = sorted(n for n in calls if n)
    if len(sizes) < 2:
        return 0.0
    times = [float(np.median(calls[n])) for n in sizes]
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def layer_metrics(spans: list[Span], ref_sizes: set[int]) -> dict[str, float]:
    """Per-layer metrics: per-pass sums, then the median over traced passes.

    Self time is a span's duration minus its direct children's; spans nest
    because the program is single-threaded.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    per_pass: dict[int, Counter] = {}
    per_call: dict[str, dict[int, list[float]]] = {name: {} for name in _EXPONENTS.values()}
    for s in spans:
        own = (s.end - s.start) - child_time.get(s.span_id, 0.0)
        acc = per_pass.setdefault(s.pass_id, Counter())
        if s.name in _SELF:
            acc[f"{s.name}.self_s"] += own
        for key, names in _CALLS.items():
            acc[key] += s.name in names
        if s.name == "linsolve":
            acc["linsolve.failed"] += s.failed
            if s.n in ref_sizes:
                acc["linsolve.ref.self_s"] += own
        if s.name.startswith("operators."):
            acc["operators.bytes"] += s.nbytes
        if s.name == "harness.csv":
            acc["harness.csv_s"] += own
            acc["harness.csv_bytes"] += s.nbytes
        if s.name in per_call:
            per_call[s.name].setdefault(s.n, []).append(own)

    out = {}
    for name, _unit in SPAN_METRICS:
        if name in _EXPONENTS:
            out[name] = _n_exponent(per_call[_EXPONENTS[name]])
        else:
            out[name] = float(np.median([acc.get(name, 0.0) for acc in per_pass.values()]))
    return out
