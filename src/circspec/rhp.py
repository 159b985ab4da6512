"""Scalar Riemann-Hilbert problems on the unit circle via a singular integral equation.

A sectionally analytic phi with phi(inf) = 1 and boundary jump
phi+ = phi- g is sought as phi = 1 + Cauchy transform of a density u.  The
density solves C+ u - (C- u) g = g - 1, which is compressed to a window,
applied matrix-free and solved by GMRES; the operator is already identity
plus compact, so no regulator is needed.  phi is reconstructed off the
circle from truncated Laurent sums of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid, interpolate, project
from .linsolve import SolveError, solve_checked
from .operators import JumpSpec, _jump_minus_one, _winding, check_mode, sie_matvec
# not called here: bench/spans.py times the dense assembler where this module looks it up
from .operators import assemble_sie  # noqa: F401

__all__ = ["RHSolution", "solve_rhp", "evaluate_phi", "jump_residual", "winding_number"]


@dataclass(frozen=True)
class RHSolution:
    """Density u on a window; both boundary values of phi are recoverable from it."""

    u: CoeffVec
    window: BandWindow


def solve_rhp(jump: JumpSpec, w: BandWindow, mode: str = "finite_section",
              cond_cap: float = 1e12) -> RHSolution:
    """Solve the compressed singular integral equation for the density u.

    The right-hand side is g - 1, truncated to the window (finite_section)
    or interpolated from grid samples (collocation).  A jump with nonzero
    winding gives an operator of nonzero Fredholm index, which has no
    unique solution; it is rejected before solving.
    """
    check_mode(mode)
    if jump.min_modulus <= 0.0:
        raise ValueError("jump function must be bounded away from zero")
    context = f"{mode} SIE solve at N={w.N}"
    if jump.winding != 0:
        raise SolveError(
            f"{context}: condition estimate inf (jump winding number {jump.winding}, "
            "nonzero Fredholm index)"
        )
    h = _jump_minus_one(jump)
    if mode == "finite_section":
        rhs = project(h, w).coeffs
    else:
        rhs = interpolate(evaluate_on_grid(h, w.N)).coeffs
    x = solve_checked(sie_matvec(jump, w, mode), rhs, cond_cap=cond_cap, context=context)
    return RHSolution(u=CoeffVec(-w.n_minus, x), window=w)


def _power_series(c: np.ndarray, w: complex) -> complex:
    """sum_k c_k w^k, with the powers 1, w, w^2, ... built by cumulative products."""
    if len(c) == 0:
        return 0j
    return complex(c @ np.cumprod(np.append(1.0, np.full(len(c) - 1, w))))


def _plus_sum(u: CoeffVec, z: complex) -> complex:
    """sum_{j>=0} u_j z^j over u's window."""
    return _power_series(u.get(np.arange(0, u.j_max + 1)), z)


def _minus_sum(u: CoeffVec, z: complex) -> complex:
    """sum_{j<=-1} u_j z^j over u's window, a power series in 1/z."""
    w = 1.0 / z
    return w * _power_series(u.get(np.arange(-1, min(u.j_min, 0) - 1, -1)), w)


def evaluate_phi(sol: RHSolution, z: complex, side: str | None = None) -> complex:
    """Evaluate phi = 1 + Cauchy transform of u at a point off the circle.

    Inside the circle phi = 1 + sum_{j>=0} u_j z^j; outside,
    phi = 1 - sum_{j<=-1} u_j z^j.  On the circle a side flag "plus"
    (interior boundary value) or "minus" (exterior) must be given.
    """
    zc = complex(z)
    r = abs(zc)
    on_circle = abs(r - 1.0) <= 1e-14
    if on_circle:
        if side == "plus":
            return 1.0 + _plus_sum(sol.u, zc)
        if side == "minus":
            return 1.0 - _minus_sum(sol.u, zc)
        raise ValueError("evaluation on the circle requires side='plus' or side='minus'")
    if r < 1.0:
        return 1.0 + _plus_sum(sol.u, zc)
    return 1.0 - _minus_sum(sol.u, zc)


def jump_residual(sol: RHSolution, jump: JumpSpec, m: int) -> float:
    """Max over an m-point circle grid of |phi+ - phi- g|; zero for an exact solution."""
    if m < sol.window.N:
        raise ValueError(f"grid size {m} must be at least the window size {sol.window.N}")
    z = np.exp(2j * np.pi * np.arange(m) / m)
    u = sol.u
    pos = CoeffVec(u.j_min, np.where(u.modes() >= 0, u.coeffs, 0.0))
    neg = CoeffVec(u.j_min, np.where(u.modes() < 0, u.coeffs, 0.0))
    phi_plus = 1.0 + evaluate_on_grid(pos, m)
    phi_minus = 1.0 - evaluate_on_grid(neg, m)
    gz = evaluate_on_grid(jump.g, m)
    return float(np.abs(phi_plus - phi_minus * gz).max())


def winding_number(jump: JumpSpec, grid_factor: int = 16) -> int:
    """Winding of g around the origin, from phase increments on a fine grid.

    Nonzero winding rules out solutions with phi(inf) = 1 of the assumed
    form.  JumpSpec.from_coeffs records the same number on the same default
    grid, and solve_rhp rejects a jump whose recorded winding is nonzero.
    """
    npts = max(grid_factor * len(jump.g.coeffs), 64)
    vals = evaluate_on_grid(jump.g, npts)
    if np.any(np.abs(vals) == 0.0):
        raise ValueError("jump function vanishes on the winding grid")
    return _winding(vals)
