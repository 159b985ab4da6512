"""Periodic differential equation solvers on a Fourier mode window.

solve_ode compresses the operator to the window with either the truncation
projection (finite-section) or trigonometric interpolation (collocation),
applies the compression matrix-free and solves by GMRES, right-regulated by
the diagonal (L0 - zeta)^(-1) that turns the operator into identity plus
compact.  exact_constant_solve is the diagonal oracle for operators without
a variable part.
"""

from __future__ import annotations

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid, interpolate, project
from .linsolve import SolveError, solve_checked
from .operators import DiffOpSpec, check_mode, choose_zeta, ode_matvec
# not called here: bench/spans.py times the dense assemblers where this module looks them up
from .operators import assemble_collocation_ode, assemble_finite_section_ode  # noqa: F401

__all__ = ["solve_ode", "exact_constant_solve", "SolveError"]


def solve_ode(spec: DiffOpSpec, f: CoeffVec, w: BandWindow,
              mode: str = "finite_section", cond_cap: float = 1e12) -> CoeffVec:
    """Solve the compressed equation on the window of w.

    finite_section solves (L0 + P L1) u = P f with P the window truncation;
    collocation replaces P by interpolation from the N-point grid, for the
    operator and the right-hand side alike.  The condition estimate gated
    against cond_cap is that of the unregulated matrix (see solve_checked).
    """
    check_mode(mode)
    if mode == "finite_section":
        rhs = project(f, w).coeffs
    else:
        rhs = interpolate(evaluate_on_grid(f, w.N)).coeffs
    context = f"{mode} solve at N={w.N}"
    sym = spec.symbol(w.modes())
    if spec.has_variable_part():
        reg = 1.0 / (sym - choose_zeta(spec))
        x = solve_checked(ode_matvec(spec, w, mode), rhs, reg, cond_cap=cond_cap, context=context)
        return CoeffVec(-w.n_minus, x)
    # diagonal operator: the symbol itself is the exact regulator, and dead
    # modes are solvable iff the data avoids them, in which case they carry zero
    dead = sym == 0.0
    hit = dead & (rhs != 0.0)
    if np.any(hit):
        m = int(w.modes()[np.argmax(hit)])
        raise SolveError(
            f"{context}: condition estimate inf (symbol vanishes at mode {m} with nonzero data)"
        )
    x = np.zeros(w.N, dtype=complex)
    live = ~dead
    if np.any(live):
        s = sym[live]
        x[live] = solve_checked(lambda v: s * v, rhs[live], 1.0 / s, cond_cap=cond_cap, context=context)
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
