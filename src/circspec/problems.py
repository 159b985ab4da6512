"""Builders for the power-law test problems driven by the experiment harness.

Coefficient windows are sized so that every Toeplitz assembly up to the
reference truncation uses exact coefficients: a compression at window size
N reads mode differences up to N-1, so coefficients are generated on
+-(n_ref - 1).
"""

from __future__ import annotations

from .fourier import BandWindow, CoeffVec, synth_powerlaw
from .operators import DiffOpSpec, JumpSpec

__all__ = [
    "coefficient_window",
    "third_order_ode",
    "second_order_operator",
    "third_order_operator",
    "rhp_jump",
]


def coefficient_window(n_ref: int) -> BandWindow:
    """Window holding modes -(n_ref-1)..(n_ref-1)."""
    return BandWindow(2 * n_ref - 1)


def _potential(alpha: float, n_ref: int, g_scale: float) -> CoeffVec:
    """The power-law variable part g_scale (1+|j|)^(-alpha) on the coefficient window."""
    return synth_powerlaw("g", alpha, coefficient_window(n_ref)).scaled(g_scale)


def third_order_ode(alpha: float, n_ref: int, g_scale: float = 1.0) -> tuple[DiffOpSpec, CoeffVec]:
    """-u''' + g u = h with power-law data; returns (operator, right-hand side)."""
    spec = DiffOpSpec.from_orders({3: -1.0}, var=(_potential(alpha, n_ref, g_scale),), ell=1.0)
    return spec, synth_powerlaw("h", alpha, coefficient_window(n_ref))


def second_order_operator(alpha: float, n_ref: int, g_scale: float = 1.0) -> DiffOpSpec:
    """-d^2/dtheta^2 + g with power-law g; self-adjoint."""
    return DiffOpSpec.from_orders({2: -1.0}, var=(_potential(alpha, n_ref, g_scale),), ell=2.0)


def third_order_operator(alpha: float, n_ref: int, g_scale: float = 1.0) -> DiffOpSpec:
    """-i d^3/dtheta^3 + g with power-law g; real symbol -m^3, self-adjoint."""
    return DiffOpSpec.from_orders({3: -1.0j}, var=(_potential(alpha, n_ref, g_scale),), ell=2.0)


def rhp_jump(alpha: float, epsilon: float, n_ref: int) -> JumpSpec:
    """Jump function 1 at mode zero, epsilon (1+|j|)^(-alpha) elsewhere."""
    w = coefficient_window(n_ref)
    return JumpSpec(synth_powerlaw("gg", alpha, w, epsilon=epsilon))
