"""Experiment configuration, convergence pipelines, slope fitting, and CSV output.

Four experiments are wired up: the third-order periodic equation, the two
self-adjoint spectrum studies, and the circle Riemann-Hilbert problem.
Each computes a reference at N_ref, sweeps the window sizes in N_list,
measures errors (a weighted coefficient norm against the reference for the
solvers, the largest matched eigenvalue distance under a modulus cap for
the spectra), and fits a log-log slope.  Runs are deterministic: the same
configuration at the same BLAS thread count yields byte-identical CSV
output.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import problems
from .fourier import BandWindow, diff_norm
from .linsolve import SolveError
from .ode import solve_ode
from .operators import check_mode
from .rhp import solve_rhp
# not called here: bench/spans.py times winding_number where this module looks it up
from .rhp import winding_number  # noqa: F401
from .spectrum import eigen_distances, eigenvalues_self_adjoint

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ConvergenceReport",
    "fit_slope",
    "run_experiment",
    "emit_csv",
    "ERROR_FLOOR",
]

log = logging.getLogger(__name__)

EXPERIMENTS = ("ode3", "spectrum2", "spectrum3", "rhp")

# errors below this are double-precision noise and are excluded from slope
# fits, with the exclusion logged per row
ERROR_FLOOR = 1e-12

_DEFAULTS: dict[str, dict] = {
    "ode3": dict(alpha=1.51, epsilon=0.0, s=0.0, t=1.0,
                 N_list=list(range(40, 401, 20)), N_ref=2001,
                 mode="finite_section", output_path="ode3.csv",
                 lambda_cap=50.0, g_scale=1.0),
    "rhp": dict(alpha=1.51, epsilon=0.01, s=0.25, t=1.0,
                N_list=list(range(40, 401, 20)), N_ref=2000,
                mode="finite_section", output_path="rhp.csv",
                lambda_cap=50.0, g_scale=1.0),
    "spectrum2": dict(alpha=2.51, epsilon=0.0, s=0.0, t=0.0,
                      N_list=[41, 81, 161, 321], N_ref=501,
                      mode="finite_section", output_path="spectrum2.csv",
                      lambda_cap=50.0, g_scale=1.0),
    "spectrum3": dict(alpha=2.51, epsilon=0.0, s=0.0, t=0.0,
                      N_list=[41, 81, 161, 321], N_ref=501,
                      mode="finite_section", output_path="spectrum3.csv",
                      lambda_cap=50.0, g_scale=1.0),
}


class ConfigError(ValueError):
    """Raised for malformed experiment configurations."""


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value) \
            or value != int(value):
        raise ConfigError(f"{name} entries must be integers, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class ExperimentConfig:
    experiment: str
    alpha: float
    epsilon: float
    s: float
    t: float
    N_list: list[int]
    N_ref: int
    mode: str
    output_path: str
    lambda_cap: float = 50.0
    g_scale: float = 1.0

    def __post_init__(self):
        """Validate every field; the single check on configuration input."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        try:
            check_mode(self.mode)
        except ValueError as exc:
            raise ConfigError(f"unknown mode {self.mode!r}") from exc
        if self.experiment.startswith("spectrum") and self.mode != "finite_section":
            raise ConfigError("spectrum experiments support only the finite_section mode")
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        for name in ("alpha", "epsilon", "s", "t", "lambda_cap", "g_scale"):
            setattr(self, name, _as_float(getattr(self, name), name))
        if not isinstance(self.N_list, (list, tuple)):
            raise ConfigError(f"N_list must be a list of integers, got {self.N_list!r}")
        self.N_list = [_as_int(n, "N_list") for n in self.N_list]
        self.N_ref = _as_int(self.N_ref, "N_ref")
        if not self.N_list:
            raise ConfigError("N_list must be nonempty")
        if any(n < 1 for n in self.N_list) or any(b <= a for a, b in zip(self.N_list, self.N_list[1:])):
            raise ConfigError("N_list must be ascending positive integers")
        if self.N_ref <= max(self.N_list):
            raise ConfigError(f"N_ref={self.N_ref} must exceed max(N_list)={max(self.N_list)}")
        if self.alpha <= 0.5:
            raise ConfigError("alpha must exceed 1/2")
        if self.lambda_cap <= 0.0:
            raise ConfigError("lambda_cap must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        if "experiment" not in raw:
            raise ConfigError("configuration requires an 'experiment' key")
        experiment = raw["experiment"]
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        merged = dict(_DEFAULTS[experiment])
        merged.update({k: v for k, v in raw.items() if k != "experiment"})
        try:
            return cls(experiment=experiment, **merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)


@dataclass
class ConvergenceReport:
    """Per-N errors, the fitted log-log slope, and what went into the fit."""

    rows: list
    fitted_slope: float | None
    fit_range: list
    excluded: list = field(default_factory=list)   # (N, error, reason)
    eigen_rows: list | None = None                 # (N, lambda, d, r) for spectrum runs
    notes: list = field(default_factory=list)


def _fit_detail(rows, floor: float):
    usable = [(i, n, e) for i, (n, e) in enumerate(rows) if e >= floor]
    excluded = [(n, e, f"error below {floor:g} floor") for n, e in rows if e < floor]
    if len(usable) < 2:
        return None, [i for i, _, _ in usable], excluded
    xs = np.log([n for _, n, _ in usable])
    ys = np.log([e for _, _, e in usable])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, [i for i, _, _ in usable], excluded


def fit_slope(rows, floor: float = ERROR_FLOOR) -> float:
    """Least-squares slope of log(error) against log(N).

    Rows with error below the floor (which covers zero and negative values)
    are excluded; fewer than two usable rows is an error.
    """
    slope, used, _ = _fit_detail(list(rows), floor)
    if slope is None:
        raise ValueError(f"need at least 2 rows with error >= {floor:g} to fit a slope")
    return slope


def run_experiment(cfg: ExperimentConfig) -> ConvergenceReport:
    """Run one configured convergence experiment; deterministic given cfg."""
    if cfg.experiment == "ode3":
        rows = _run_ode3(cfg)
        eigen_rows, notes = None, []
    elif cfg.experiment == "rhp":
        rows = _run_rhp(cfg)
        eigen_rows, notes = None, []
    else:
        rows, eigen_rows, notes = _run_spectrum(cfg)

    slope, used, excluded = _fit_detail(rows, ERROR_FLOOR)
    for n, e, reason in excluded:
        log.info("slope fit: excluded N=%d error=%.3e (%s)", n, e, reason)
    if slope is None:
        notes = notes + ["slope undefined: fewer than 2 errors above the precision floor"]
    return ConvergenceReport(rows=rows, fitted_slope=slope, fit_range=used,
                             excluded=excluded, eigen_rows=eigen_rows, notes=notes)


def _run_ode3(cfg: ExperimentConfig) -> list:
    spec, rhs = problems.third_order_ode(cfg.alpha, cfg.N_ref, g_scale=cfg.g_scale)
    try:
        ref = solve_ode(spec, rhs, BandWindow(cfg.N_ref), mode=cfg.mode)
    except SolveError as exc:
        raise SolveError(f"ode3 reference failed at N={cfg.N_ref}: {exc}") from exc
    rows = []
    for n in cfg.N_list:
        try:
            u = solve_ode(spec, rhs, BandWindow(n), mode=cfg.mode)
        except SolveError as exc:
            raise SolveError(f"ode3 failed at N={n}: {exc}") from exc
        rows.append((n, diff_norm(ref, u, cfg.s)))
    return rows


def _run_rhp(cfg: ExperimentConfig) -> list:
    # solve_rhp rejects a jump of nonzero winding, naming the winding number
    jump = problems.rhp_jump(cfg.alpha, cfg.epsilon, cfg.N_ref)
    try:
        ref = solve_rhp(jump, BandWindow(cfg.N_ref), mode=cfg.mode).u
    except SolveError as exc:
        raise SolveError(f"rhp reference failed at N={cfg.N_ref}: {exc}") from exc
    rows = []
    for n in cfg.N_list:
        try:
            u = solve_rhp(jump, BandWindow(n), mode=cfg.mode).u
        except SolveError as exc:
            raise SolveError(f"rhp failed at N={n}: {exc}") from exc
        rows.append((n, diff_norm(ref, u, cfg.s)))
    return rows


def _run_spectrum(cfg: ExperimentConfig):
    build = problems.second_order_operator if cfg.experiment == "spectrum2" else problems.third_order_operator
    spec = build(cfg.alpha, cfg.N_ref, g_scale=cfg.g_scale)
    reference = eigenvalues_self_adjoint(spec, BandWindow(cfg.N_ref))
    rows, eigen_rows = [], []
    for n in cfg.N_list:
        report = eigenvalues_self_adjoint(spec, BandWindow(n))
        matched = eigen_distances(report, reference)
        for lam, d, r in zip(matched.lam, matched.dist, matched.rescaled):
            eigen_rows.append((n, float(lam), float(d), float(r)))
        capped = matched.dist[np.abs(matched.lam) <= cfg.lambda_cap]
        rows.append((n, float(capped.max()) if len(capped) else 0.0))
    notes = ["eigenvalue distances floor near 1e-12 in double precision; "
             "floored rows are excluded from the slope fit"]
    return rows, eigen_rows, notes


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_csv(report: ConvergenceReport, path: str) -> None:
    """Write the report: data rows, then '# slope=...', then note/exclusion comments.

    Solver experiments use the schema N,error; spectrum experiments write
    one N,lambda,d,r row per matched eigenvalue.  Numbers are written in
    round-trip precision, so identical reports give identical bytes.
    """
    lines = []
    if report.eigen_rows is not None:
        lines.append("N,lambda,d,r")
        for n, lam, d, r in report.eigen_rows:
            lines.append(f"{n},{_fmt(lam)},{_fmt(d)},{_fmt(r)}")
    else:
        lines.append("N,error")
        for n, e in report.rows:
            lines.append(f"{n},{_fmt(e)}")
    slope = "undefined" if report.fitted_slope is None else _fmt(report.fitted_slope)
    lines.append(f"# slope={slope}")
    for n, e, reason in report.excluded:
        lines.append(f"# excluded: N={n} error={_fmt(e)} ({reason})")
    for note in report.notes:
        lines.append(f"# note: {note}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
