"""Matrix-free linear solves: regulated GMRES with a conditioning gate and a residual check.

solve_checked needs only the product x -> A x.  Given a right regulator R,
passed as the product y -> R y, it runs GMRES (Saad & Schultz 1986) on
A R y = f, gates the condition estimate of A R and returns x = R y.  For
the operators solved here A R is the identity plus a compact operator, so
its condition and the iteration count stay flat as the window grows.
GMRES keeps k + 1 basis vectors after k steps, so a solve's memory is
O(steps N): the workspace starts at FIRST_STEPS steps and doubles when full.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["SolveError", "solve_checked"]

# cap on Arnoldi steps per solve, not a workspace size: the shipped problems
# take 6 (ode3) and 3 (rhp), and the workspace grows with the steps taken
MAX_ITER = 200
# Arnoldi steps the GMRES workspace holds before it first doubles
FIRST_STEPS = 16
# GMRES stops once its residual estimate falls below this fraction of |rhs|
GMRES_TOL = 1e-14
# a true residual above this fraction of |rhs| fails the solve
RESID_TOL = 1e-10


class SolveError(RuntimeError):
    """Raised when a linear system is singular, ill-conditioned, or inaccurate."""


def solve_checked(apply: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray,
                  regulator: Callable[[np.ndarray], np.ndarray] | None = None,
                  cond_cap: float = 1e12, context: str = "linear solve") -> np.ndarray:
    """Solve apply(x) = rhs by GMRES on apply(R y) = rhs; return x = R y.

    regulator is the product y -> R y; None stands for the identity.  The
    condition estimate is sigma_max / sigma_min of the Arnoldi Hessenberg
    matrix of the regulated operator x -> apply(R x), gated against cond_cap.

    GMRES stops when its residual estimate falls below GMRES_TOL relative
    to the right-hand side, or after min(N, MAX_ITER) iterations.  When the
    estimate was met but the true residual exceeds 1e-10 relative to the
    right-hand side, one more GMRES pass solves for the residual and corrects
    x (iterative refinement).  Raises SolveError naming the condition
    estimate when it exceeds cond_cap, when the true residual then still
    exceeds 1e-10 relative to the right-hand side, and when the right-hand
    side or the operator's output is not finite.  A zero right-hand side
    returns zero without iterating.
    """
    rhs = np.ascontiguousarray(rhs, dtype=complex)
    top = float(np.abs(rhs.view(float)).max(initial=0.0))
    if top == 0.0:
        return np.zeros(rhs.size, dtype=complex)
    if not math.isfinite(top):
        raise SolveError(f"{context}: right-hand side is not finite")
    # solve for rhs 2^-e, whose largest part is in [1/2, 1): exact, and its norm cannot under/overflow
    e = math.frexp(top)[1]
    rhs = np.ldexp(rhs.view(float), -e).view(complex)
    beta = float(np.linalg.norm(rhs))
    regulate = regulator if regulator is not None else (lambda y: y)

    def op(y):
        return apply(regulate(y))

    y, cond, steps, met = _gmres(op, rhs, beta, context)
    if not np.isfinite(cond) or cond > cond_cap:
        raise SolveError(
            f"{context}: condition estimate {cond:.3e} exceeds cap {cond_cap:.1e} "
            "(operator not invertible at this truncation, or truncation too small)"
        )
    x = regulate(y)
    r = rhs - apply(x)
    resid = float(np.linalg.norm(r))
    if resid > RESID_TOL * beta and met:
        dy, _, more, _ = _gmres(op, r, resid, context)
        if dy is not None:
            x = x + regulate(dy)
            resid = float(np.linalg.norm(apply(x) - rhs))
        steps += more
    if resid > RESID_TOL * beta:
        raise SolveError(
            f"{context}: residual {resid:.3e} exceeds 1e-10 of the right-hand side "
            f"after {steps} GMRES iterations"
        )
    return np.ldexp(x.view(float), e).view(complex)


def _gmres(op: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray, beta: float,
           context: str) -> tuple[np.ndarray | None, float, int, bool]:
    """GMRES on op(y) = rhs from y = 0, with beta = |rhs|.

    Returns (y, sigma_max / sigma_min of the Hessenberg matrix, Arnoldi
    steps, whether the residual estimate fell below GMRES_TOL beta).  y is
    None and the ratio inf when the Hessenberg matrix is singular.
    """
    n = rhs.size
    m = min(n, MAX_ITER)
    cap = min(m, FIRST_STEPS)
    basis = np.empty((cap + 1, n), dtype=complex)
    hess = np.zeros((cap + 1, cap), dtype=complex)
    # Givens rotations that triangularise hess, and the rotated beta e_1; its
    # last entry is the GMRES residual at the current step
    rotations = []
    g = [complex(beta)]
    basis[0] = rhs / beta
    met = False
    for k in range(m):
        if k == cap:
            # the workspace is full: double it, keeping the filled part
            cap = min(2 * cap, m)
            basis = np.concatenate((basis, np.empty((cap - k, n), dtype=complex)))
            hess = np.pad(hess, ((0, cap - k), (0, cap - k)))
        w = op(basis[k])
        # classical Gram-Schmidt, run twice to keep the basis orthogonal to working
        # precision; conj(V) w is formed as conj(conj(w) V^T), which conjugates
        # one vector instead of copying the basis
        v = basis[:k + 1]
        h = (w.conj() @ v.T).conj()
        w = w - h @ v
        again = (w.conj() @ v.T).conj()
        w -= again @ v
        h += again
        hn = math.sqrt(np.vdot(w, w).real)
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
        met = abs(g[k + 1]) <= GMRES_TOL * beta or hn == 0.0
        if met:
            break
        basis[k + 1] = w / hn
    steps = len(rotations)
    left, sigma, right = np.linalg.svd(hess[:steps + 1, :steps], full_matrices=False)
    if sigma[-1] == 0.0:
        return None, np.inf, steps, met
    # least-squares minimiser of |beta e_1 - hess y|, in the Krylov basis
    y = right.conj().T @ (beta * left[0].conj() / sigma)
    return y @ basis[:steps], float(sigma[0] / sigma[-1]), steps, met
