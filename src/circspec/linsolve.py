"""Matrix-free linear solves: regulated GMRES with a conditioning gate and a residual check.

solve_checked needs only the product x -> A x.  Given a right regulator R,
passed as the product y -> R y, it runs GMRES (Saad & Schultz 1986) on
A R y = f, gates the condition estimate of A R and returns x = R y.  For
the operators solved here A R is the identity plus a compact operator, so
its condition and the iteration count stay flat as the window grows.

The right-hand side is a (B, n) stack of independent systems whose
products act row by row; one right-hand side of shape (n,) is solved as a
stack of one.  The rows are solved in lockstep: each step applies
one product to the stack and runs one stacked Gram-Schmidt pass and one
normalisation, while every row keeps its own scaling, Givens recurrence
(on Python scalars), stopping test, condition gate, residual check,
refinement and step cap, min(its own size, MAX_ITER): a row that pads a
smaller system with zeros stops where that system would stop alone.  A row that has converged, or reached its cap, is frozen: its basis
vectors are zero from then on.  GMRES keeps k + 1 basis vectors per row
after k steps, so a solve's memory is O(steps B n): the workspace starts at
FIRST_STEPS steps and doubles when full.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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
                  cond_cap: float = 1e12, context: str | Sequence[str] = "linear solve",
                  sizes: Sequence[int] | None = None) -> np.ndarray:
    """Solve apply(x) = rhs by GMRES on apply(R y) = rhs; return x = R y.

    rhs is one right-hand side of shape (n,) or a (B, n) stack of them,
    with n >= 1 (ValueError otherwise, naming the shape); the result has
    rhs's shape.  apply and regulator map (B, n) stacks to (B, n) stacks,
    row by row: one right-hand side reaches them as a stack of one.
    regulator is the product y -> R y; None stands for the
    identity.  context names the solve in errors: one string, or one per
    row (ValueError otherwise).  sizes gives each row's own number of
    unknowns, for a stack whose rows hold smaller systems padded with
    zeros: one integer in 1..n per row (ValueError otherwise); None gives
    every row the stack's n.  The condition estimate of a row is
    sigma_max / sigma_min of its Arnoldi Hessenberg matrix of the regulated
    operator x -> apply(R x), gated against cond_cap.

    GMRES stops a row when its residual estimate falls below GMRES_TOL
    relative to its right-hand side, or after min(size, MAX_ITER)
    iterations, with size the row's own number of unknowns.
    When the estimate was met but the true residual exceeds 1e-10 relative
    to the right-hand side, one more GMRES pass solves for the residual and
    corrects x (iterative refinement).  Raises SolveError naming the
    condition estimate when it exceeds cond_cap, when the true residual then
    still exceeds 1e-10 relative to the right-hand side, and when the
    right-hand side or the operator's output is not finite; in a stack the
    first row that fails a check raises.  A zero right-hand side, or zero
    row, is solved by zero without iterating.
    """
    shape = np.shape(rhs)
    if len(shape) not in (1, 2) or shape[-1] < 1:
        raise ValueError(f"rhs must have shape (n,) or (B, n) with n >= 1, got {shape}")
    rows = np.ascontiguousarray(rhs, dtype=complex).reshape(-1, shape[-1])
    contexts = [context] * len(rows) if isinstance(context, str) else list(context)
    if len(contexts) != len(rows):
        raise ValueError(f"context must give one name per row: {len(rows)} rows, {len(contexts)} names")
    sizes = [shape[-1]] * len(rows) if sizes is None else list(sizes)
    if len(sizes) != len(rows) or not all(1 <= size <= shape[-1] for size in sizes):
        raise ValueError(f"sizes must give one size in 1..{shape[-1]} per row: {len(rows)} rows, got {sizes}")
    tops = np.abs(rows.view(float)).max(axis=1, initial=0.0).tolist()
    if not any(tops):
        return np.zeros(shape, dtype=complex)
    for top, where in zip(tops, contexts):
        if not math.isfinite(top):
            raise SolveError(f"{where}: right-hand side is not finite")
    # solve for each row times 2^-e, whose largest part is in [1/2, 1): exact, and its norm
    # cannot under/overflow; a zero row keeps e = 0
    e = np.array([math.frexp(top)[1] for top in tops], dtype=np.intc)[:, None]
    rows = np.ldexp(rows.view(float), -e).view(complex)
    beta = _norms(rows)
    regulate = regulator if regulator is not None else (lambda y: y)

    def op(y):
        return apply(regulate(y))

    y, cond, steps, met = _gmres(op, rows, beta, contexts, sizes)
    for c, where in zip(cond, contexts):
        if not math.isfinite(c) or c > cond_cap:
            raise SolveError(
                f"{where}: condition estimate {c:.3e} exceeds cap {cond_cap:.1e} "
                "(operator not invertible at this truncation, or truncation too small)"
            )
    x = regulate(y)
    r = rows - apply(x)
    resid = _norms(r)
    refine = [rb > RESID_TOL * bb and mb for rb, bb, mb in zip(resid, beta, met)]
    if any(refine):
        # rows that need no refinement enter with beta 0, so they take no step and add zero
        dy, _, more, _ = _gmres(op, r, [rb if fb else 0.0 for rb, fb in zip(resid, refine)], contexts, sizes)
        x = x + regulate(dy)
        resid = _norms(apply(x) - rows)
        steps = [s + m for s, m in zip(steps, more)]
    for rb, bb, s, where in zip(resid, beta, steps, contexts):
        if rb > RESID_TOL * bb:
            raise SolveError(
                f"{where}: residual {rb:.3e} exceeds 1e-10 of the right-hand side "
                f"after {s} GMRES iterations"
            )
    return np.ldexp(x.view(float), e).view(complex).reshape(shape)


def _norms(rows: np.ndarray) -> list[float]:
    """Euclidean norm of each row of a (B, n) stack."""
    return np.sqrt(np.vecdot(rows, rows).real).tolist()


def _gmres(op: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray, beta: list[float],
           context: list[str], sizes: list[int]) -> tuple[np.ndarray, list[float], list[int], list[bool]]:
    """GMRES on op(y) = rhs from y = 0 for a (B, n) stack, with beta[b] = |rhs[b]|.

    Row b takes at most min(sizes[b], MAX_ITER) Arnoldi steps.

    Returns y and, per row, sigma_max / sigma_min of the Hessenberg matrix,
    the Arnoldi steps and whether the residual estimate fell below
    GMRES_TOL beta.  A row whose Hessenberg matrix is singular gets y = 0
    and ratio inf; a row with beta 0 takes no step and gets y = 0 and ratio 1.
    """
    count, n = rhs.shape
    limits = [min(size, MAX_ITER) for size in sizes]
    m = max(limits)
    cap = min(m, FIRST_STEPS)
    basis = np.empty((count, cap + 1, n), dtype=complex)
    # per row: the columns of the Hessenberg matrix, the Givens rotations that
    # triangularise it, and the rotated beta e_1, whose last entry is the GMRES
    # residual at the current step
    columns = [[] for _ in range(count)]
    rotations = [[] for _ in range(count)]
    g = [[complex(b)] for b in beta]
    met = [b == 0.0 for b in beta]
    live = [i for i in range(count) if not met[i]]
    basis[:, 0] = rhs * np.array([0.0 if b == 0.0 else 1.0 / b for b in beta], dtype=complex)[:, None]
    for k in range(m):
        if not live:
            break
        if k == cap:
            # the workspace is full: double it, keeping the filled part
            cap = min(2 * cap, m)
            basis = np.concatenate((basis, np.empty((count, cap - k, n), dtype=complex)), axis=1)
        w = op(basis[:, k])
        # classical Gram-Schmidt, run twice to keep the basis orthogonal to working
        # precision, as stacked products: vecdot forms conj(V) w and matvec V^T h row by row
        v = basis[:, :k + 1]
        h = np.vecdot(v, w[:, None])
        w = w - np.matvec(v.mT, h)
        again = np.vecdot(v, w[:, None])
        w -= np.matvec(v.mT, again)
        h += again
        cols, hn = h.tolist(), np.vecdot(w, w).real.tolist()
        scale = [0.0] * count
        for i in live[:]:
            if not math.isfinite(hn[i]):
                raise SolveError(f"{context[i]}: operator is not finite")
            hn[i] = math.sqrt(hn[i])
            col, gi, rot = cols[i], g[i], rotations[i]
            columns[i].append(col + [hn[i]])
            for j, (c, s) in enumerate(rot):
                col[j], col[j + 1] = c * col[j] + s * col[j + 1], c * col[j + 1] - s.conjugate() * col[j]
            a = col[k]
            r = math.hypot(abs(a), hn[i])
            if a == 0.0:
                c, s = 0.0, 1.0 + 0j
            else:
                phase = a / abs(a)
                c, s = abs(a) / r, phase * hn[i] / r
            rot.append((c, s))
            gi.append(-s.conjugate() * gi[k])
            gi[k] = c * gi[k]
            if abs(gi[k + 1]) <= GMRES_TOL * beta[i] or hn[i] == 0.0:
                met[i] = True
                live.remove(i)
            elif k + 1 == limits[i]:
                live.remove(i)  # the row's own step cap: it stops unconverged, as it would alone
            else:
                scale[i] = 1.0 / hn[i]
        if live:
            np.multiply(w, np.array(scale, dtype=complex)[:, None], out=basis[:, k + 1])
    steps = [len(rot) for rot in rotations]
    y = np.zeros((count, n), dtype=complex)
    cond = [1.0] * count
    for k in set(steps) - {0}:
        # one SVD for the rows that took k steps
        rows = [i for i in range(count) if steps[i] == k]
        hess = np.array([[c + [0j] * (k - len(c) + 1) for c in columns[i]] for i in rows]).transpose(0, 2, 1)
        left, sigma, right = np.linalg.svd(hess, full_matrices=False)
        for i, lf, sg, rt, values in zip(rows, left, sigma, right, sigma.tolist()):
            if values[-1] == 0.0:
                cond[i] = math.inf
                continue
            # least-squares minimiser of |beta e_1 - hess y|, in the Krylov basis
            y[i] = (rt.conj().T @ (beta[i] * lf[0].conj() / sg)) @ basis[i, :k]
            cond[i] = values[0] / values[-1]
    return y, cond, steps, met
