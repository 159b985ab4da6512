"""Correctness checks on one pass's outputs.

An operation is a per-N solve or eigensolve, or an evaluation batch.  Each
check returns (attempted, failed, messages) over the operations it covers.
Recorded values come from the seed commit (see record.py).  Tolerances admit
roundoff-level algorithm changes (BLAS thread count, dense LU against an
iterative solve at 1e-14) and reject wrong answers; outputs are never
compared byte for byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# solver errors: |e - e_rec| <= ERR_RTOL e_rec + ERR_ATOL, in the study's
# weighted norm of solutions of unit size
ERR_RTOL, ERR_ATOL = 1e-6, 1e-12
# eigenvalues and their distances: within EIG_RTOL of the window's largest |lambda|
EIG_RTOL = 1e-12
# jump residuals against the recorded ones
RES_RTOL, RES_ATOL = 1e-6, 1e-13
# evaluate_phi against the Horner oracle, relative to sum |u_j| |z|^j
PHI_RTOL = 1e-12


def read_report(path: Path):
    """(header, rows, slope) of a report CSV; slope is None when undefined."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    header = lines[0]
    rows = np.array([[float(x) for x in r] for r in lines[1:] if r and not r[0].startswith("#")])
    slope_text = next(r[0] for r in lines if r and r[0].startswith("# slope="))[len("# slope="):]
    return header, rows, None if slope_text == "undefined" else float(slope_text)


def check_study(n_ops: int, outcome, out: Path, expected: Path, slope_band) -> tuple[int, int, list]:
    """Check a study's CSV against its recorded copy.

    n_ops is len(N_list) + 1 (the reference); outcome is the CLI's exit code
    or the exception it raised.
    """
    if outcome != 0:
        return n_ops, n_ops, [f"{out.name}: CLI ended with {outcome}"]
    try:
        header, rows, slope = read_report(out)
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        return n_ops, n_ops, [f"{out.name}: unreadable report: {exc}"]
    want_header, want_rows, _ = read_report(expected)
    if header != want_header:
        return n_ops, n_ops, [f"{out.name}: header {header} != {want_header}"]

    ns = np.unique(want_rows[:, 0])
    bad = set(np.unique(rows[:, 0])) - set(ns) if len(rows) else set()
    messages = [f"{out.name}: rows for N={n:g}, which the study does not run" for n in sorted(bad)]
    for n in ns:
        got = rows[rows[:, 0] == n] if len(rows) else rows
        want = want_rows[want_rows[:, 0] == n]
        if got.shape != want.shape:
            bad.add(n)
            messages.append(f"{out.name}: N={n:g} has {len(got)} rows, recorded {len(want)}")
            continue
        if want.shape[1] == 2:
            tol = ERR_RTOL * np.abs(want[:, 1]) + ERR_ATOL
        else:
            tol = EIG_RTOL * max(1.0, float(np.abs(want[:, 1]).max()))
        dev = np.abs(got[:, 1:3] - want[:, 1:3])
        if np.any(dev > np.reshape(tol, (-1, 1))):
            bad.add(n)
            messages.append(f"{out.name}: N={n:g} deviates from the recorded values by {dev.max():.3e}")
    failed = len(bad)
    if slope_band is not None:
        lo, hi = slope_band
        if slope is None or not lo <= slope <= hi:
            failed += 1  # the slope fit stands for the reference solve
            messages.append(f"{out.name}: slope {slope} outside [{lo}, {hi}]")
    return n_ops, min(failed, n_ops), messages


def phi_oracle(coeffs: np.ndarray, j_min: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi from the density by Horner, and the size sum |u_j| |z|^j of the sum it takes.

    Inside the circle phi = 1 + sum_{j>=0} u_j z^j; outside phi = 1 - sum_{j<0} u_j z^j.
    """
    modes = j_min + np.arange(len(coeffs))
    plus = coeffs[modes >= 0][::-1]
    minus = np.append(coeffs[modes < 0], 0.0)  # u_{-K} .. u_{-1}, 0: a polynomial in 1/z
    inside = np.abs(z) < 1.0
    w = np.where(inside, z, 1.0 / z)
    value = np.where(inside, 1.0 + np.polyval(plus, w), 1.0 - np.polyval(minus, w))
    size = np.where(inside, np.polyval(np.abs(plus), np.abs(w)), np.polyval(np.abs(minus), np.abs(w)))
    return value, 1.0 + size


def check_phi(coeffs: np.ndarray, j_min: int, z: np.ndarray, values: np.ndarray) -> float:
    """Largest deviation of evaluate_phi values from the oracle, in units of the tolerance."""
    want, size = phi_oracle(coeffs, j_min, z)
    return float(np.max(np.abs(values - want) / (PHI_RTOL * size)))


def check_post(results, expected: Path) -> tuple[int, int, list]:
    """Check the RHP post-processing: per ladder N a solve, an evaluation batch and a residual.

    results holds (N, points, density coeffs, j_min, phi values, residual, error)
    with error set when an operation raised.
    """
    recorded = {int(n): r for n, r in json.loads(expected.read_text()).items()}
    attempted = failed = 0
    messages = []
    for n, z, coeffs, j_min, values, residual, error in results:
        attempted += 3
        if error is not None:
            failed += 3 if coeffs is None else 2
            messages.append(f"post N={n}: {error}")
            continue
        worst = check_phi(coeffs, j_min, z, values)
        if not worst <= 1.0:
            failed += 1
            messages.append(f"post N={n}: evaluate_phi off the oracle by {worst:.2f} tolerances")
        want = recorded[n]
        if not abs(residual - want) <= RES_RTOL * abs(want) + RES_ATOL:
            failed += 1
            messages.append(f"post N={n}: jump residual {residual:.6e}, recorded {want:.6e}")
    return attempted, failed, messages


def phi_self_test(result) -> bool:
    """True when the oracle check rejects a value perturbed by one part in 1e8."""
    n, z, coeffs, j_min, values, residual, error = result
    if error is not None:
        return False
    perturbed = np.array(values)
    perturbed[0] *= 1.0 + 1e-8
    return check_phi(coeffs, j_min, z, values) <= 1.0 < check_phi(coeffs, j_min, z, perturbed)
