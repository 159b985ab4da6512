"""Command-line entry points for the convergence experiments.

Each command loads a JSON configuration, runs the experiment, writes the
CSV report, and prints a short summary.  Exit codes: 0 on success, 1 on a
solver failure, 2 on a configuration error, including a report that cannot
be written.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, ExperimentConfig, emit_csv, run_experiment
from .linsolve import SolveError


def _run(argv, allowed: tuple | None, prog: str) -> int:
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--config", required=True, help="path to a JSON experiment configuration")
    parser.add_argument("--output", default=None, help="override the configured output path")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_json_file(args.config)
        if allowed is not None and cfg.experiment not in allowed:
            raise ConfigError(
                f"{prog} runs {', '.join(allowed)} configurations, got {cfg.experiment!r}"
            )
    except (ConfigError, OSError) as exc:
        print(f"{prog}: configuration error: {exc}", file=sys.stderr)
        return 2

    if args.output is not None:
        cfg.output_path = args.output

    try:
        report = run_experiment(cfg)
    except SolveError as exc:
        print(f"{prog}: solver failure: {exc}", file=sys.stderr)
        return 1

    try:
        emit_csv(report, cfg.output_path)
    except OSError as exc:
        print(f"{prog}: configuration error: {exc}", file=sys.stderr)
        return 2
    for n, e in report.rows:
        print(f"N={n} error={e:.6e}")
    slope = "undefined" if report.fitted_slope is None else f"{report.fitted_slope:.4f}"
    print(f"slope={slope}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote {cfg.output_path}")
    return 0


def main_solve_ode(argv=None) -> int:
    return _run(sys.argv[1:] if argv is None else argv, ("ode3",), "solve-ode")


def main_solve_rhp(argv=None) -> int:
    return _run(sys.argv[1:] if argv is None else argv, ("rhp",), "solve-rhp")


def main_spectrum(argv=None) -> int:
    return _run(sys.argv[1:] if argv is None else argv, ("spectrum2", "spectrum3"), "spectrum")


def main_convergence(argv=None) -> int:
    return _run(sys.argv[1:] if argv is None else argv, None, "convergence")


if __name__ == "__main__":
    sys.exit(main_convergence())
