"""Scalar Riemann-Hilbert problems on the unit circle via a singular integral equation.

A sectionally analytic phi with phi(inf) = 1 and boundary jump
phi+ = phi- g is sought as phi = 1 + Cauchy transform of a density u.  The
density solves C+ u - (C- u) g = g - 1, which is compressed to a window,
its right-hand side laid out by operators.window_data with the same
compression, applied matrix-free and solved by GMRES, right-regulated by
C+ - M(1/g) C- (operators.sie_regulator) so that, as in the ODE solve, the
operator becomes the identity plus a compact one.  Both equations end in
the same windows solve, operators._solve_windows; this module supplies
the SIE product, its regulator and the winding check.  The jump arrives
certified: JumpSpec(g) has checked once that g has no zero on the circle
and recorded its winding number, which winding_number returns and
solve_rhp requires to be 0, the index-0 case the regulator covers.  As in
the ODE solve, solve_rhp_windows solves windows of any sizes in one GMRES
on their stack, and solve_rhp is it on one window.  phi is reconstructed
off the circle from truncated Laurent sums of u by one power-series kernel
in evaluate_phi: it reads one contiguous slice of u's coefficients,
forward for the modes j >= 0 and reversed for j <= -1, and sums it as a
power series in z or 1/z whose powers are cumulative products; a window
that does not reach mode 0 (or -1) keeps its offset as one leading power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid
from .operators import JumpSpec, _solve_windows, sie_matvec, sie_regulator
# not called here: bench/spans.py times the solve, the dense assembler and the Fourier maps
# where this module looks them up
from .linsolve import SolveError, solve_checked  # noqa: F401
from .fourier import interpolate, project  # noqa: F401
from .operators import assemble_sie  # noqa: F401

__all__ = ["RHSolution", "solve_rhp", "solve_rhp_windows", "evaluate_phi", "jump_residual", "winding_number"]


@dataclass(frozen=True)
class RHSolution:
    """Density u on a window; both boundary values of phi are recoverable from it."""

    u: CoeffVec
    window: BandWindow


def solve_rhp(jump: JumpSpec, w: BandWindow, mode: str = "finite_section",
              cond_cap: float = 1e12) -> RHSolution:
    """Solve the compressed singular integral equation for the density u.

    The right-hand side is g - 1, truncated to the window (finite_section)
    or interpolated from the N-point grid, which folds it mod N
    (collocation).  A jump with nonzero
    winding gives an operator of nonzero Fredholm index, which has no
    unique solution; it is rejected before solving.  The solve is
    right-regulated by operators.sie_regulator, and cond_cap bounds the
    regulated operator's condition estimate (see solve_checked).  This is
    solve_rhp_windows on the one window.
    """
    return solve_rhp_windows(jump, [w], mode, cond_cap)[0]


def solve_rhp_windows(jump: JumpSpec, windows, mode: str = "finite_section",
                      cond_cap: float = 1e12) -> list[RHSolution]:
    """solve_rhp on each window, as one regulated GMRES on the windows' (B, N) stack.

    The windows may have any sizes; each row is solved, checked and gated
    on its own window, and the first window that fails raises, naming its N.
    The product is built first, so errors come in one order: an unknown
    mode, an empty group, a nonzero winding (named at the first window's
    N), then the solve, which is operators._solve_windows with sie_matvec
    and sie_regulator, each row wrapped in an RHSolution.
    """
    product = sie_matvec(jump, windows, mode)
    if jump.winding != 0:
        raise SolveError(f"{mode} SIE solve at N={windows[0].N}: condition estimate inf (jump winding number "
                         f"{jump.winding}, nonzero Fredholm index)")
    us = _solve_windows(jump._perturbations[0], product, sie_regulator(jump, windows, mode), windows, mode,
                        cond_cap, "SIE solve")
    return [RHSolution(u=u, window=w) for u, w in zip(us, windows)]


def evaluate_phi(sol: RHSolution, z: complex, side: str | None = None) -> complex:
    """Evaluate phi = 1 + Cauchy transform of u at a point off the circle.

    Inside the circle phi = 1 + sum_{j>=0} u_j z^j, the "plus" side;
    outside, phi = 1 - sum_{j<=-1} u_j z^j, the "minus" side.  Off the
    circle the point picks its own side and `side` is ignored; on it,
    `side` must be "plus" (interior boundary value) or "minus" (exterior).
    A NaN point is off the circle and gives NaN.  Any
    window of u is accepted, including one on a single side of mode 0: the
    plus sum then starts at z^j_min, the minus sum at z^j_max.  Either side
    is one power series w^start sum_k c_k w^k: the plus side reads
    u.coeffs forward from mode max(j_min, 0) with w = z, the minus side
    reads them reversed from mode min(j_max, -1) with w = 1/z, and the
    powers 1, w, w^2, ... are cumulative products.  A point costs O(modes)
    and a few numpy calls, with no index array.
    """
    zc = complex(z)
    r = abs(zc)
    if not abs(r - 1.0) <= 1e-14:
        side = "plus" if r < 1.0 else "minus"
    elif side not in ("plus", "minus"):
        raise ValueError("evaluation on the circle requires side='plus' or side='minus'")
    u = sol.u
    if side == "plus":
        start, w, c = max(u.j_min, 0), zc, u.coeffs[max(-u.j_min, 0):]
    else:
        hi = min(u.j_max, -1)
        start, w, c = -hi, 1.0 / zc, u.coeffs[:max(hi - u.j_min + 1, 0)][::-1]
    # the powers 1, w, ..., w^len(c): one more than c needs, so that p[0] exists for an empty c
    p = np.full(len(c) + 1, w)
    p[0] = 1.0
    np.cumprod(p, out=p)
    total = w ** start * complex(c @ p[:-1])
    return 1.0 + total if side == "plus" else 1.0 - total


def jump_residual(sol: RHSolution, jump: JumpSpec, m: int) -> float:
    """Max over an m-point circle grid of |phi+ - phi- g|; zero for an exact solution."""
    if m < sol.window.N:
        raise ValueError(f"grid size {m} must be at least the window size {sol.window.N}")
    u = sol.u
    pos = CoeffVec(u.j_min, np.where(u.modes() >= 0, u.coeffs, 0.0))
    neg = CoeffVec(u.j_min, np.where(u.modes() < 0, u.coeffs, 0.0))
    phi_plus = 1.0 + evaluate_on_grid(pos, m)
    phi_minus = 1.0 - evaluate_on_grid(neg, m)
    gz = evaluate_on_grid(jump.g, m)
    return float(np.abs(phi_plus - phi_minus * gz).max())


def winding_number(jump: JumpSpec) -> int:
    """Winding of g around the origin, as JumpSpec recorded it when it certified g.

    Nonzero winding rules out solutions with phi(inf) = 1 of the assumed
    form; solve_rhp rejects such a jump.
    """
    return jump.winding
