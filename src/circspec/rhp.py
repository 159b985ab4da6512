"""Scalar Riemann-Hilbert problems on the unit circle via a singular integral equation.

A sectionally analytic phi with phi(inf) = 1 and boundary jump
phi+ = phi- g is sought as phi = 1 + Cauchy transform of a density u.  The
density solves C+ u - (C- u) g = g - 1, which is compressed to a window,
its right-hand side laid out by operators.window_data with the same
compression, applied matrix-free and solved by GMRES, right-regulated by
C+ - M(1/g) C- (operators.sie_regulator) so that, as in the ODE solve, the
operator becomes the identity plus a compact one.  The jump arrives
certified: JumpSpec(g) has checked once that g has no zero on the circle
and recorded its winding number, which winding_number returns and
solve_rhp requires to be 0, the index-0 case the regulator covers.  As in
the ODE solve, solve_rhp_windows solves windows that share a circulant
length in one GMRES on their stack, and solve_rhp is it on one window.  phi is reconstructed
off the circle from truncated Laurent sums of u.  Each sum reads one contiguous
slice of u's coefficients, forward for the modes j >= 0 and reversed for
j <= -1, and sums it as a power series in z or 1/z whose powers are
cumulative products; a window that does not reach mode 0 (or -1) keeps
its offset as one leading power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid
from .linsolve import SolveError, solve_checked
from .operators import JumpSpec, sie_matvec, sie_regulator, window_data
# not called here: bench/spans.py times the dense assembler and the Fourier maps where this
# module looks them up
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

    The windows must share one circulant length (operators.circulant_length);
    each row is solved, checked and gated on its own window, and the first
    window that fails raises, naming its N.
    """
    # window_data checks the mode before the winding is checked
    rhs, slots = window_data(jump._perturbations[0], windows, mode)
    contexts = [f"{mode} SIE solve at N={w.N}" for w in windows]
    if jump.winding != 0:
        raise SolveError(
            f"{contexts[0]}: condition estimate inf (jump winding number {jump.winding}, "
            "nonzero Fredholm index)"
        )
    x = solve_checked(sie_matvec(jump, windows, mode), rhs, sie_regulator(jump, windows, mode),
                      cond_cap=cond_cap, context=contexts, sizes=[w.N for w in windows])
    return [RHSolution(u=CoeffVec(-w.n_minus, row[s]), window=w) for row, s, w in zip(x, slots, windows)]


def _power_series(c: np.ndarray, w: complex, start: int) -> complex:
    """w^start * sum_k c_k w^k, with the powers 1, w, w^2, ... built by cumulative products in place."""
    if len(c) == 0:
        return 0j
    p = np.full(len(c), w)
    p[0] = 1.0
    np.cumprod(p, out=p)
    return w ** start * complex(c @ p)


def _plus_sum(u: CoeffVec, z: complex) -> complex:
    """sum_{j>=0} u_j z^j over u's window: a forward slice of u.coeffs from mode max(j_min, 0)."""
    lo = max(u.j_min, 0)
    return _power_series(u.coeffs[lo - u.j_min:], z, lo)


def _minus_sum(u: CoeffVec, z: complex) -> complex:
    """sum_{j<=-1} u_j z^j over u's window: a reversed slice of u.coeffs from mode
    min(j_max, -1) down to j_min, summed as a power series in 1/z."""
    hi = min(u.j_max, -1)
    if hi < u.j_min:
        return 0j
    return _power_series(u.coeffs[hi - u.j_min::-1], 1.0 / z, -hi)


def evaluate_phi(sol: RHSolution, z: complex, side: str | None = None) -> complex:
    """Evaluate phi = 1 + Cauchy transform of u at a point off the circle.

    Inside the circle phi = 1 + sum_{j>=0} u_j z^j, the "plus" side;
    outside, phi = 1 - sum_{j<=-1} u_j z^j, the "minus" side.  Off the
    circle the point picks its own side and `side` is ignored; on it,
    `side` must be "plus" (interior boundary value) or "minus" (exterior).
    A NaN point is off the circle and gives NaN.  Any
    window of u is accepted, including one on a single side of mode 0: the
    plus sum then starts at z^j_min, the minus sum at z^j_max.  The sum
    costs O(modes) with no index array, so a point costs a few numpy calls.
    """
    zc = complex(z)
    r = abs(zc)
    on_circle = abs(r - 1.0) <= 1e-14
    if not on_circle:
        side = "plus" if r < 1.0 else "minus"
    elif side not in ("plus", "minus"):
        raise ValueError("evaluation on the circle requires side='plus' or side='minus'")
    return 1.0 + _plus_sum(sol.u, zc) if side == "plus" else 1.0 - _minus_sum(sol.u, zc)


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
