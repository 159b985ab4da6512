"""Experiment configuration, convergence pipelines, slope fitting, and CSV output.

Four experiments are wired up: the third-order periodic equation, the two
self-adjoint spectrum studies, and the circle Riemann-Hilbert problem.
All four run through one sweep, _sweep, which builds the problem and solves
it at N_ref, then at each N in N_list, measuring each solution against the
reference in the same floating-point guard as the solve (a weighted
coefficient norm for the solvers, matched eigenvalue distances for the
spectra, reported as the largest under a modulus cap).  Each experiment
gives the sweep one solve for a list of N, and the sweep takes N_list in
stacks (_stacks): consecutive N, up to the modes and circulant entries of
the reference window or of one STACK_MODES window, whichever is larger.
A solver, in either mode, solves a stack as one GMRES on its windows'
stack; the spectra run a stack's eigensolves one after another.  A stack
that fails is solved again one N at a time, so the first failing N is the
one solving N by N finds.  Each experiment then fits a log-log slope.
Runs are deterministic: the same configuration at the same BLAS thread
count yields byte-identical CSV output.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import problems
from .fourier import BandWindow, diff_norm
from .linsolve import SolveError
from .ode import solve_ode_windows
from .operators import check_mode, circulant_length
from .rhp import solve_rhp_windows
# not called here: bench/spans.py times these where this module looks them up
from .ode import solve_ode  # noqa: F401
from .rhp import solve_rhp, winding_number  # noqa: F401
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

# errors below this are double-precision noise and are excluded from slope
# fits, with the exclusion reported per row
ERROR_FLOOR = 1e-12

# largest accepted N_ref: a solver window takes O(steps N) memory, with the
# few GMRES steps the regulated solves take; spectrum windows build a dense
# N_ref x N_ref matrix
MAX_SOLVER_N = 2 ** 20
MAX_SPECTRUM_N = 4096
# a sweep's stack may hold the modes and circulant entries of one window this
# large even when the reference is smaller: below a few thousand modes an FFT
# pair costs per-call overhead, not flops, so fewer, larger stacks are faster
STACK_MODES = 4096

# the one configuration schema: each experiment's entry lists exactly the keys it
# reads, with their defaults; from_dict rejects any other key
_DEFAULTS: dict[str, dict] = {
    "ode3": dict(alpha=1.51, s=0.0, N_list=list(range(40, 401, 20)), N_ref=2001,
                 mode="finite_section", output_path="ode3.csv", g_scale=1.0),
    "rhp": dict(alpha=1.51, epsilon=0.01, s=0.25, N_list=list(range(40, 401, 20)), N_ref=2000,
                mode="finite_section", output_path="rhp.csv"),
    "spectrum2": dict(alpha=2.51, N_list=[41, 81, 161, 321], N_ref=501,
                      output_path="spectrum2.csv", lambda_cap=50.0, g_scale=1.0),
    "spectrum3": dict(alpha=2.51, N_list=[41, 81, 161, 321], N_ref=501,
                      output_path="spectrum3.csv", lambda_cap=50.0, g_scale=1.0),
}
EXPERIMENTS = tuple(_DEFAULTS)


class ConfigError(ValueError):
    """Raised for malformed experiment configurations."""


def _is_finite_real(value) -> bool:
    """A real number, not a bool, that a float holds finitely (json ints can be larger)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _as_int(value, name: str) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not _is_finite_real(value) or value != int(value):
        raise ConfigError(f"{name} entries must be integers, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    if not _is_finite_real(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class ExperimentConfig:
    experiment: str
    alpha: float
    N_list: list[int]
    N_ref: int
    output_path: str
    # the experiments that do not read a field keep its neutral default
    mode: str = "finite_section"
    epsilon: float = 0.0
    s: float = 0.0
    lambda_cap: float = 50.0
    g_scale: float = 1.0

    def __post_init__(self):
        """Validate every field's value; from_dict has already checked which keys are allowed."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        try:
            check_mode(self.mode)
        except ValueError as exc:
            raise ConfigError(f"unknown mode {self.mode!r}") from exc
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        if "\0" in self.output_path:
            raise ConfigError(f"output_path must not contain a NUL byte, got {self.output_path!r}")
        for name in ("alpha", "epsilon", "s", "lambda_cap", "g_scale"):
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
        n_max = MAX_SPECTRUM_N if self.experiment.startswith("spectrum") else MAX_SOLVER_N
        if self.N_ref > n_max:
            raise ConfigError(f"N_ref={self.N_ref} exceeds the largest {self.experiment} window {n_max}")
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
        reads = _DEFAULTS[experiment]
        unknown = set(raw) - {"experiment", *reads}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown, key=str)}; "
                              f"{experiment} reads {', '.join(reads)}")
        merged = {**reads, **raw}
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, or nested too deep
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


def _fit_detail(rows):
    for n, e in rows:
        if not (0 < n < np.inf and np.isfinite(e)):
            raise ValueError(f"cannot fit the row N={n}, error={e}: N must be positive and finite, the error finite")
    usable = [(i, n, e) for i, (n, e) in enumerate(rows) if e >= ERROR_FLOOR]
    excluded = [(n, e, f"error below {ERROR_FLOOR:g} floor") for n, e in rows if e < ERROR_FLOOR]
    if len({n for _, n, _ in usable}) < 2:
        return None, [i for i, _, _ in usable], excluded
    xs = np.log([n for _, n, _ in usable])
    ys = np.log([e for _, _, e in usable])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, [i for i, _, _ in usable], excluded


def fit_slope(rows) -> float:
    """Least-squares slope of log(error) against log(N).

    Rows with error below ERROR_FLOOR (which covers zero and negative values)
    are excluded; usable rows at fewer than two distinct N are an error, and
    so is a row whose N is not positive and finite or whose error is not finite.
    """
    slope, _, _ = _fit_detail(list(rows))
    if slope is None:
        raise ValueError(f"need at least 2 rows at distinct N with error >= {ERROR_FLOOR:g} to fit a slope")
    return slope


def run_experiment(cfg: ExperimentConfig) -> ConvergenceReport:
    """Run one configured convergence experiment; deterministic given cfg."""
    if cfg.experiment.startswith("spectrum"):
        build = problems.second_order_operator if cfg.experiment == "spectrum2" else problems.third_order_operator
        matches = _sweep(lambda: build(cfg.alpha, cfg.N_ref, g_scale=cfg.g_scale),
                         lambda spec, ns: [eigenvalues_self_adjoint(spec, BandWindow(n)) for n in ns],
                         eigen_distances, cfg)
        rows, eigen_rows = [], []
        for n, matched in zip(cfg.N_list, matches):
            for lam, d, r in zip(matched.lam, matched.dist, matched.rescaled):
                eigen_rows.append((n, float(lam), float(d), float(r)))
            capped = matched.dist[np.abs(matched.lam) <= cfg.lambda_cap]
            rows.append((n, float(capped.max()) if len(capped) else 0.0))
        notes = ["eigenvalue distances floor near 1e-12 in double precision; "
                 "floored rows are excluded from the slope fit"]
    else:
        def error(u, ref):
            return diff_norm(ref, u, cfg.s)

        if cfg.experiment == "ode3":
            errors = _sweep(lambda: problems.third_order_ode(cfg.alpha, cfg.N_ref, g_scale=cfg.g_scale),
                            lambda p, ns: solve_ode_windows(*p, [BandWindow(n) for n in ns], mode=cfg.mode),
                            error, cfg)
        else:
            # solve_rhp_windows rejects a jump of nonzero winding, naming the winding number
            errors = _sweep(lambda: problems.rhp_jump(cfg.alpha, cfg.epsilon, cfg.N_ref),
                            lambda jump, ns: [sol.u for sol in
                                              solve_rhp_windows(jump, [BandWindow(n) for n in ns], mode=cfg.mode)],
                            error, cfg)
        rows = list(zip(cfg.N_list, errors))
        eigen_rows, notes = None, []

    slope, used, excluded = _fit_detail(rows)
    if slope is None:
        notes = notes + ["slope undefined: fewer than 2 errors above the precision floor"]
    return ConvergenceReport(rows=rows, fitted_slope=slope, fit_range=used,
                             excluded=excluded, eigen_rows=eigen_rows, notes=notes)


def _stacks(cfg: ExperimentConfig) -> list[list[int]]:
    """N_list cut into the stacks that _sweep solves in one call.

    Consecutive N go into one stack for as long as its B windows hold no
    more modes than one window of modes = max(N_ref, STACK_MODES)
    (B max(N) <= modes) and its B circulants, each of its largest window's
    circulant_length, no more entries than that window's
    (B length <= circulant_length(modes)): a solver's stack needs no more
    memory than the reference solve or one STACK_MODES solve, whichever is
    larger.  A spectrum stack holds one eigensolve at a time, so the shipped
    windows 41, 81, 161 and 321 are one stack.
    """
    modes = max(cfg.N_ref, STACK_MODES)
    room = circulant_length(modes)
    out = []
    for n in cfg.N_list:
        last = out[-1] if out else []
        if last and (len(last) + 1) * n <= modes and (len(last) + 1) * circulant_length(n) <= room:
            last.append(n)
        else:
            out.append([n])
    return out


def _sweep(build, solve, measure, cfg: ExperimentConfig) -> list:
    """Build the problem and solve it at N_ref, then solve it at each N in N_list and
    return measure(result, reference) per N.  solve(problem, ns) returns the results for
    a list of N: the reference goes to it alone, N_list in the stacks of _stacks.  Each
    step, the measurement included, raises floating-point overflow, division by zero and
    invalid operations (not underflow); a SolveError, ValueError or FloatingPointError from
    a step is re-raised as a SolveError naming the step and N.  Every stack takes one such
    step; a stack that raises, one N or more, is solved again one N at a time, in order, so
    the first failing N, and its message, are those of the N-by-N sweep."""
    def step(what: str, n: int, fn):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fn()
        except (SolveError, ValueError, FloatingPointError) as exc:
            raise SolveError(f"{what} failed at N={n}: {exc}") from exc

    problem = step(f"{cfg.experiment} reference", cfg.N_ref, build)
    ref = step(f"{cfg.experiment} reference", cfg.N_ref, lambda: solve(problem, [cfg.N_ref])[0])
    out = []
    for ns in _stacks(cfg):
        try:
            solved = dict(zip(ns, step(cfg.experiment, ns[0], lambda: solve(problem, ns))))
        except SolveError:
            solved = {}  # solved again one N at a time below, which raises what the N-by-N sweep raises
        for n in ns:
            out.append(step(cfg.experiment, n,
                            lambda: measure(solved[n] if solved else solve(problem, [n])[0], ref)))
        del solved  # a stack's results are freed before the next stack is solved
    return out


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
