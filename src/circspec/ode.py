"""Periodic differential equation solvers on a Fourier mode window.

solve_ode compresses the operator to the window with either the truncation
projection (finite-section) or trigonometric interpolation (collocation),
applies the compression matrix-free and solves by GMRES, right-regulated so
that the operator becomes identity plus compact.  Every operator, with or
without a variable part, takes that one path, with the regulator from
operators.ode_regulator and the gate on the regulated operator's condition.
exact_constant_solve is the diagonal oracle for operators without a
variable part.
"""

from __future__ import annotations

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid, interpolate, project
from .linsolve import GMRES_TOL, SolveError, solve_checked
from .operators import DiffOpSpec, check_mode, ode_matvec, ode_regulator
# not called here: bench/spans.py times the dense assemblers where this module looks them up
from .operators import assemble_collocation_ode, assemble_finite_section_ode  # noqa: F401

__all__ = ["solve_ode", "exact_constant_solve", "SolveError"]


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
    carries zero.
    """
    check_mode(mode)
    if mode == "finite_section":
        rhs = project(f, w).coeffs
    else:
        rhs = interpolate(evaluate_on_grid(f, w.N)).coeffs
    context = f"{mode} solve at N={w.N}"
    if not spec.has_variable_part():
        hit = (spec.symbol(w.modes()) == 0.0) & (np.abs(rhs) > GMRES_TOL * np.linalg.norm(rhs))
        if np.any(hit):
            m = int(w.modes()[np.argmax(hit)])
            raise SolveError(
                f"{context}: condition estimate inf (symbol vanishes at mode {m} with nonzero data)"
            )
    x = solve_checked(ode_matvec(spec, w, mode), rhs, ode_regulator(spec, w), cond_cap=cond_cap, context=context)
    return CoeffVec(-w.n_minus, x)


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
