"""Periodic differential equation solvers on a Fourier mode window.

solve_ode compresses the operator to the window with either the truncation
projection (finite-section) or trigonometric interpolation (collocation),
applies the compression matrix-free and solves by GMRES, right-regulated so
that the operator becomes identity plus compact.  Every operator, with or
without a variable part, takes that one path, with the regulator from
operators.ode_regulator and the gate on the regulated operator's condition.
solve_ode_windows solves several windows that share a circulant length in
one GMRES on their stack, each row on its own window; solve_ode is it on one
window.  exact_constant_solve is the diagonal oracle for operators without
a variable part.
"""

from __future__ import annotations

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid, interpolate, project
from .linsolve import GMRES_TOL, SolveError, solve_checked
from .operators import DiffOpSpec, check_mode, ode_matvec, ode_regulator, window_slots
# not called here: bench/spans.py times the dense assemblers where this module looks them up
from .operators import assemble_collocation_ode, assemble_finite_section_ode  # noqa: F401

__all__ = ["solve_ode", "solve_ode_windows", "exact_constant_solve", "SolveError"]


def solve_ode(spec: DiffOpSpec, f: CoeffVec, w: BandWindow,
              mode: str = "finite_section", cond_cap: float = 1e12) -> CoeffVec:
    """Solve the compressed equation on the window of w.

    finite_section solves (L0 + P L1) u = P f with P the window truncation;
    collocation replaces P by interpolation from the N-point grid, for the
    operator and the right-hand side alike.  The low-mode block of the
    regulator is the finite-section compression's inverse in both modes; in
    collocation it is off by the aliased coefficients, which only costs
    iterations.  cond_cap bounds the regulated operator's condition
    estimate (see solve_checked).  An operator without a variable part is
    diagonal: a mode where its symbol vanishes is solvable iff the data
    there is below GMRES_TOL |rhs|, collocation's roundoff, and then
    carries zero.  This is solve_ode_windows on the one window.
    """
    return solve_ode_windows(spec, f, [w], mode, cond_cap)[0]


def solve_ode_windows(spec: DiffOpSpec, f: CoeffVec, windows, mode: str = "finite_section",
                      cond_cap: float = 1e12) -> list[CoeffVec]:
    """solve_ode on each window, as one regulated GMRES on the windows' (B, N) stack.

    The windows must share one circulant length (operators.circulant_length);
    each row is solved, checked and gated on its own window, and the first
    window that fails raises, naming its N.
    """
    check_mode(mode)
    big, slots = window_slots(windows)
    rhs = np.zeros((len(windows), big.N), dtype=complex)
    contexts = [f"{mode} solve at N={w.N}" for w in windows]
    diagonal = not spec.has_variable_part()
    for row, s, w, context in zip(rhs, slots, windows, contexts):
        if mode == "finite_section":
            data = project(f, w).coeffs
        else:
            data = interpolate(evaluate_on_grid(f, w.N)).coeffs
        if diagonal:
            hit = (spec.symbol(w.modes()) == 0.0) & (np.abs(data) > GMRES_TOL * np.linalg.norm(data))
            if np.any(hit):
                m = int(w.modes()[np.argmax(hit)])
                raise SolveError(
                    f"{context}: condition estimate inf (symbol vanishes at mode {m} with nonzero data)"
                )
        row[s] = data
    # one window is solved as a vector: its products then skip broadcasting against a stack of one
    x = solve_checked(ode_matvec(spec, windows, mode), rhs if len(windows) > 1 else rhs[0],
                      ode_regulator(spec, windows), cond_cap=cond_cap, context=contexts,
                      sizes=[w.N for w in windows]).reshape(rhs.shape)
    return [CoeffVec(-w.n_minus, row[s]) for row, s, w in zip(x, slots, windows)]


def exact_constant_solve(spec: DiffOpSpec, f: CoeffVec) -> CoeffVec:
    """Divide by the symbol: the exact solution when the variable part vanishes."""
    if spec.has_variable_part():
        raise ValueError("exact solve requires a vanishing variable part")
    sym = spec.symbol(f.modes())
    zero = np.abs(sym) == 0.0
    if np.any(zero):
        m = int(f.modes()[np.argmax(zero)])
        raise SolveError(f"symbol vanishes at mode {m}; constant-coefficient solve undefined")
    return CoeffVec(f.j_min, f.coeffs / sym)
