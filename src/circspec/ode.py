"""Periodic differential equation solvers on a Fourier mode window.

solve_ode compresses the operator to the window with either the truncation
projection (finite-section) or trigonometric interpolation (collocation),
applies the compression matrix-free and solves by GMRES, right-regulated so
that the operator becomes identity plus compact.  Every operator, with or
without a variable part, takes that one path, with the regulator from
operators.ode_regulator and the gate on the regulated operator's condition.
The right-hand side is compressed by the same rule as the operator: its
rows come from operators.window_data, which reads the same mode-difference
row, so collocation data is f folded mod N.  solve_ode_windows solves
several windows of any sizes in one GMRES on their stack, each row on its
own window; solve_ode is it on one window.  This module supplies the ODE's
product, its regulator and its dead-mode check; the windows solve itself
(data layout, solve_checked, unpacking) is operators._solve_windows, which
the RHP solver shares.
exact_constant_solve is the diagonal oracle for operators without a
variable part.
"""

from __future__ import annotations

import numpy as np

from .fourier import BandWindow, CoeffVec
from .operators import DiffOpSpec, _solve_windows, ode_matvec, ode_regulator, window_data
# not called here: bench/spans.py times the solve, the dense assemblers and the Fourier maps
# where this module looks them up
from .linsolve import GMRES_TOL, SolveError, solve_checked  # noqa: F401
from .fourier import evaluate_on_grid, interpolate, project  # noqa: F401
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
    there is below GMRES_TOL |rhs|, the stopping tolerance under which
    GMRES does not tell data from zero, and then carries zero.  This is
    solve_ode_windows on the one window.
    """
    return solve_ode_windows(spec, f, [w], mode, cond_cap)[0]


def solve_ode_windows(spec: DiffOpSpec, f: CoeffVec, windows, mode: str = "finite_section",
                      cond_cap: float = 1e12) -> list[CoeffVec]:
    """solve_ode on each window, as one regulated GMRES on the windows' (B, N) stack.

    The windows may have any sizes; each row is solved, checked and gated
    on its own window, and the first window that fails raises, naming its N.
    The product is built first, so errors come in one order: an unknown
    mode, an empty group, then, for an operator without a variable part, a
    dead mode with data (read from window_data), then the solve, which is
    operators._solve_windows with ode_matvec and ode_regulator.
    """
    product = ode_matvec(spec, windows, mode)
    if not spec.has_variable_part():
        rhs, slots = window_data(f, windows, mode)
        for row, s, w in zip(rhs, slots, windows):
            hit = (spec.symbol(w.modes()) == 0.0) & (np.abs(row[s]) > GMRES_TOL * np.linalg.norm(row[s]))
            if np.any(hit):
                raise SolveError(f"{mode} solve at N={w.N}: condition estimate inf (symbol vanishes at mode "
                                 f"{int(w.modes()[np.argmax(hit)])} with nonzero data)")
    return _solve_windows(f, product, ode_regulator(spec, windows), windows, mode, cond_cap, "solve")


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
