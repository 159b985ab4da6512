"""Matrix-free linear solves: regulated GMRES with a conditioning gate and a residual check.

solve_checked needs only the product x -> A x.  Given the diagonal of a
regulator R that inverts the leading part of A, it runs GMRES (Saad &
Schultz 1986) on A R y = f and returns x = R y.  For the operators solved
here A R is the identity plus a compact operator, so the iteration count
stays flat as the window grows.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["SolveError", "solve_checked"]

# most Arnoldi steps per solve; the shipped problems need 7 (rhp) to 13 (ode3)
MAX_ITER = 200
# GMRES stops once its residual estimate falls below this fraction of |rhs|
GMRES_TOL = 1e-14
# a true residual above this fraction of |rhs| fails the solve
RESID_TOL = 1e-10


class SolveError(RuntimeError):
    """Raised when a linear system is singular, ill-conditioned, or inaccurate."""


def solve_checked(apply: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray,
                  reg: np.ndarray | None = None, cond_cap: float = 1e12,
                  context: str = "linear solve") -> np.ndarray:
    """Solve apply(x) = rhs by GMRES on apply(reg * y) = rhs; return x = reg * y.

    reg is the diagonal of the regulator, None for the identity.  The
    condition estimate is sigma_max / sigma_min of the Arnoldi Hessenberg
    matrix, times max|reg| / min|reg|, the exact condition number of the
    regulator; this keeps it on the scale of the unregulated matrix.

    GMRES stops when its residual estimate falls below GMRES_TOL relative
    to the right-hand side, or after min(N, MAX_ITER) iterations.  Raises
    SolveError naming the condition estimate when it exceeds cond_cap, when
    the true residual then exceeds 1e-10 relative to the right-hand side,
    and when the right-hand side or the operator's output is not finite.  A
    zero right-hand side returns zero without iterating.
    """
    rhs = np.asarray(rhs, dtype=complex)
    n = rhs.size
    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        return np.zeros(n, dtype=complex)
    if not math.isfinite(beta):
        raise SolveError(f"{context}: right-hand side is not finite")
    op = apply if reg is None else (lambda y: apply(reg * y))
    m = min(n, MAX_ITER)
    basis = np.empty((m + 1, n), dtype=complex)
    hess = np.zeros((m + 1, m), dtype=complex)
    # Givens rotations that triangularise hess, and the rotated beta e_1; its
    # last entry is the GMRES residual at the current step
    rotations = []
    g = [complex(beta)]
    basis[0] = rhs / beta
    for k in range(m):
        w = op(basis[k])
        # classical Gram-Schmidt, run twice to keep the basis orthogonal to working precision
        v = basis[:k + 1]
        h = v.conj() @ w
        w = w - h @ v
        again = v.conj() @ w
        w -= again @ v
        h += again
        hn = float(np.linalg.norm(w))
        if not math.isfinite(hn):
            raise SolveError(f"{context}: operator is not finite")
        hess[:k + 1, k] = h
        hess[k + 1, k] = hn
        col = h.tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s.conjugate() * col[i]
        a = col[k]
        r = math.hypot(abs(a), hn)
        if a == 0.0:
            c, s, col[k] = 0.0, 1.0 + 0j, complex(hn)
        else:
            phase = a / abs(a)
            c, s, col[k] = abs(a) / r, phase * hn / r, phase * r
        rotations.append((c, s))
        g.append(-s.conjugate() * g[k])
        g[k] = c * g[k]
        if abs(g[k + 1]) <= GMRES_TOL * beta or hn == 0.0:
            break
        basis[k + 1] = w / hn
    steps = len(rotations)

    left, sigma, right = np.linalg.svd(hess[:steps + 1, :steps], full_matrices=False)
    cond = np.inf if sigma[-1] == 0.0 else float(sigma[0] / sigma[-1])
    if reg is not None:
        mag = np.abs(reg)
        cond *= float(mag.max() / mag.min())
    if not np.isfinite(cond) or cond > cond_cap:
        raise SolveError(
            f"{context}: condition estimate {cond:.3e} exceeds cap {cond_cap:.1e} "
            "(operator not invertible at this truncation, or truncation too small)"
        )
    # least-squares minimiser of |beta e_1 - hess y|
    y = right.conj().T @ (beta * left[0].conj() / sigma)
    x = y @ basis[:steps]
    if reg is not None:
        x = reg * x
    resid = float(np.linalg.norm(apply(x) - rhs))
    if resid > RESID_TOL * beta:
        raise SolveError(
            f"{context}: residual {resid:.3e} exceeds 1e-10 of the right-hand side "
            f"after {steps} GMRES iterations"
        )
    return x
