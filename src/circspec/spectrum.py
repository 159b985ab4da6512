"""Eigenvalue approximation for self-adjoint periodic differential operators.

Eigenvalues of the window compression approximate the operator spectrum.
This module computes them with a residual check, matches them against a
finer-window reference by nearest distance, counts cluster multiplicities,
evaluates weighted resolvent norms on point grids, and compares the
compressed spectrum with the spectrum of the compression extended by the
untouched diagonal tail.

The Hermitian eigensolve applies one Rayleigh-quotient pass to the computed
eigenvectors.  For the graded matrices assembled here that drops the
absolute eigenvalue error near the origin from order eps*||A|| to roughly
eps*(|lambda| + coupling), which is what makes double-precision
convergence studies readable below 1e-10.

The eigensolve works in the field the compression is assembled in, and
only operators._compression_entries chooses it: float64 when the
variable part has order 0 with real coefficients and the symbol is real,
as both shipped operators have, complex otherwise, even when the summed
imaginary part is zero.  A real symmetric eigensolve costs about a quarter
of the flops of a complex Hermitian one.

A compression that commutes with the mode flip m -> -m is split into its
even and odd halves before the eigensolve, the classical cosine/sine
splitting of Hill's equation (Magnus & Winkler, Hill's Equation, 1966).
The split is taken exactly when N is odd, N >= 3, and the assembled matrix
equals itself reversed in both indices, np.array_equal(A, A[::-1, ::-1]);
-d^2 + g with real even g passes, while an odd symbol such as that of
-i d^3, or an even N (whose window is not symmetric), keeps the full
solve.  Two half-size eigensolves cost about a quarter of the flops of one
full-size solve.  Every path keeps the same Hermitian check, refinement and
residual gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fourier import BandWindow, sobolev_weights
from .operators import DiffOpSpec, _compression_entries, _symbol_reach
# not called here: bench/spans.py times the dense assembler where this module looks it up
from .operators import assemble_finite_section_ode  # noqa: F401

__all__ = [
    "EigenReport",
    "EigenDistances",
    "eigenvalues_self_adjoint",
    "eigenpairs_self_adjoint",
    "eigen_distances",
    "cluster_multiplicities",
    "resolvent_norm_grid",
    "truncation_coincidence",
    "TruncationCoincidence",
]

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class EigenReport:
    """Ascending real eigenvalues of a window compression, with operator metadata."""

    window: BandWindow
    eigenvalues: np.ndarray
    ell: float | None
    k: int
    p: int

    def __post_init__(self):
        e = np.array(self.eigenvalues, dtype=float)
        if e.shape != (self.window.N,):
            raise ValueError("eigenvalue count must equal the window size")
        if np.any(np.diff(e) < 0):
            raise ValueError("eigenvalues must be ascending")
        e.setflags(write=False)
        object.__setattr__(self, "eigenvalues", e)


class EigenDistances(NamedTuple):
    lam: np.ndarray        # test eigenvalues
    dist: np.ndarray       # nearest distance to the reference set
    rescaled: np.ndarray   # dist * N^ell * (2 + |lam|)^(-ell/k)


def eigenpairs_self_adjoint(spec: DiffOpSpec, w: BandWindow) -> tuple[EigenReport, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian window compression.

    Rejects matrices with asymmetry beyond 1e-12 (relative to the largest
    entry); verifies ||A v - lambda v|| <= 1e-10 ||A|| for every pair.
    The eigenvectors are real when the compression is assembled real (an
    order-0 variable part with real coefficients, a real symbol) and
    complex otherwise.

    When N is odd (N >= 3) and A equals A[::-1, ::-1] exactly, that is
    A_{m,n} = A_{-m,-n} for all window modes, A commutes with the mode flip
    m -> -m.  The orthonormal even vectors e_0, (e_p + e_-p)/sqrt(2) and odd
    vectors (e_p - e_-p)/sqrt(2), p = 1..N//2, then block-diagonalise A, and
    the two half-size blocks are solved instead of A; every returned
    eigenvector is even or odd under the flip.
    """
    report, vecs, order = _eigensolve(spec, w)
    return report, _unflip(*vecs, order) if len(vecs) == 2 else vecs[0][:, order]


def eigenvalues_self_adjoint(spec: DiffOpSpec, w: BandWindow) -> EigenReport:
    """The report of eigenpairs_self_adjoint, with the same checks, without
    assembling the N x N eigenvector matrix."""
    return _eigensolve(spec, w)[0]


def _eigensolve(spec: DiffOpSpec, w: BandWindow) -> tuple[EigenReport, tuple, np.ndarray]:
    """Checked eigensolve of the compression, by blocks when it commutes with the flip.

    Returns the report, the eigenvectors of each block (one block, or the
    even and the odd one), and the order that sorts their concatenated
    eigenvalues.  The compression is solved in the field
    _compression_entries assembles it in.  The Hermitian check compares
    64-row blocks of A with the matching columns of A^H, so it forms no
    N x N temporary.
    """
    a = _compression_entries(spec, w)
    scale = max(1.0, float(np.abs(a).max()))
    asym = max(float(np.abs(a[i:i + 64] - a[:, i:i + 64].conj().T).max()) for i in range(0, w.N, 64))
    if asym > 1e-12 * scale:
        raise ValueError(f"compressed operator is not Hermitian: asymmetry {asym:.2e}")
    split = w.N >= 3 and w.N % 2 == 1 and np.array_equal(a, a[::-1, ::-1])
    blocks = _flip_blocks(a) if split else (a,)
    evals, vecs = zip(*(np.linalg.eigh(b) for b in blocks))
    lams, resids = zip(*(_rayleigh(b, y) for b, y in zip(blocks, vecs)))
    anorm = max(max(float(np.abs(e).max()) for e in evals), 1.0)
    worst = max(float(r.max()) for r in resids)
    if worst > 1e-10 * anorm:
        raise ValueError(f"eigenpair residual {worst:.2e} exceeds 1e-10 * ||A||")
    refined = np.concatenate(lams)
    order = np.argsort(refined, kind="stable")
    report = EigenReport(window=w, eigenvalues=refined[order], ell=spec.ell, k=spec.k, p=spec.p)
    return report, vecs, order


def _rayleigh(a: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh quotients of the columns of vecs and their residuals ||a v - lambda v||."""
    av = a @ vecs
    num = np.einsum("ij,ij->j", vecs.conj(), av).real
    den = np.einsum("ij,ij->j", vecs.conj(), vecs).real
    lam = num / den
    av -= vecs * lam[None, :]
    return lam, np.linalg.norm(av, axis=0)


def _flip_blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a flip-symmetric matrix of size 2h+1 (mode 0 at row h).

    With B = a[h:, h:] and C = a[h:, h::-1] (column q of C is mode -q), the
    even block is B + C with row and column 0 rescaled, because mode 0 is its
    own mirror image, and the odd block is (B - C) without mode 0.
    """
    h = len(a) // 2
    b, c = a[h:, h:], a[h:, h::-1]
    even = b + c
    even[0, :] = _SQRT2 * b[0, :]
    even[:, 0] = _SQRT2 * b[:, 0]
    even[0, 0] = b[0, 0]
    odd = b[1:, 1:] - c[1:, 1:]
    return even, odd


def _unflip(ye: np.ndarray, yo: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Full-window eigenvectors from the even and odd block eigenvectors.

    Column j of the result is eigenvector number order[j] in the
    even-then-odd numbering.  An even block vector y (modes 0..h) puts y[0]
    on mode 0 and y[p]/sqrt(2) on modes p and -p; an odd block vector y
    (modes 1..h) puts y[p-1]/sqrt(2) on mode p and its negative on mode -p.
    """
    h = len(yo)
    rank = np.argsort(order)
    cols_e, cols_o = rank[:h + 1], rank[h + 1:]
    vecs = np.zeros((2 * h + 1, 2 * h + 1), dtype=np.result_type(ye, yo))
    vecs[h, cols_e] = ye[0]
    half = ye[1:] / _SQRT2
    vecs[h + 1:, cols_e] = half
    vecs[h - 1::-1, cols_e] = half
    half = yo / _SQRT2
    vecs[h + 1:, cols_o] = half
    vecs[h - 1::-1, cols_o] = -half
    return vecs


def eigen_distances(test: EigenReport, reference: EigenReport) -> EigenDistances:
    """Nearest-distance matching of test eigenvalues against a finer reference.

    d_j = min_i |lam_j - ref_i|, read from the two reference values around
    lam_j's insertion index in the ascending reference, and the rescaled
    error d_j N^ell (2 + |lam_j|)^(-ell/k) uses the test window size and the
    test eigenvalue.
    """
    if reference.window.N < test.window.N:
        raise ValueError("reference window must not be smaller than the test window")
    if test.ell is None:
        raise ValueError("test report carries no coefficient-regularity metadata")
    lam = test.eigenvalues
    ref = reference.eigenvalues
    # ref ascends, so the nearest value is a neighbour of lam's insertion index
    i = np.searchsorted(ref, lam)
    below = ref[np.maximum(i - 1, 0)]
    above = ref[np.minimum(i, len(ref) - 1)]
    dist = np.minimum(np.abs(lam - below), np.abs(lam - above))
    rescaled = dist * float(test.window.N) ** test.ell * (2.0 + np.abs(lam)) ** (-test.ell / test.k)
    return EigenDistances(lam=lam, dist=dist, rescaled=rescaled)


def cluster_multiplicities(report: EigenReport, centers, delta: float) -> np.ndarray:
    """Count eigenvalues within delta of each center.

    Centers must be finite and pairwise separated by more than 3*delta, a
    finite positive radius, so the clusters cannot overlap; violations are
    rejected.
    """
    centers = np.asarray(centers, dtype=float)
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if not np.all(np.isfinite(centers)):
        raise ValueError("cluster centers must be finite")
    if len(centers) > 1:
        diffs = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() <= 3.0 * delta:
            raise ValueError("cluster centers overlap: pairwise separation must exceed 3*delta")
    lam = report.eigenvalues
    return np.array([int(np.sum(np.abs(lam - c) < delta)) for c in centers])


def resolvent_norm_grid(spec: DiffOpSpec, w: BandWindow, z_grid, s: float) -> np.ndarray:
    """Weighted resolvent norms of the window compression on a point grid.

    For each z returns 1/sigma_min(W_{s-k} (z Id - A) W_s^{-1}), the norm of
    the resolvent acting from order s-k into order s; inf where z Id - A is
    singular.  The SVD runs in the field of the compression and z: a real
    compression (see _compression_entries) at a real z takes a real SVD.
    Next to an eigenvalue sigma_min is set by roundoff in either field, so
    there the two fields may differ by about 1e-6 relative.
    """
    a = _compression_entries(spec, w)
    modes = w.modes()
    w_low = sobolev_weights(modes, s - spec.k)
    w_high_inv = 1.0 / sobolev_weights(modes, s)
    eye = np.eye(w.N)
    out = np.empty(len(np.atleast_1d(z_grid)), dtype=float)
    for i, z in enumerate(np.atleast_1d(z_grid)):
        scaled = w_low[:, None] * (z * eye - a) * w_high_inv[None, :]
        smin = float(np.linalg.svd(scaled, compute_uv=False)[-1])
        out[i] = np.inf if smin == 0.0 else 1.0 / smin
    return out


@dataclass(frozen=True)
class TruncationCoincidence:
    """Spectra inside |z| <= radius: compression alone vs compression plus diagonal tail."""

    radius: float
    finite_section: np.ndarray
    full_space: np.ndarray
    hausdorff: float


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return float("inf")
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def truncation_coincidence(spec: DiffOpSpec, w: BandWindow, c: float) -> TruncationCoincidence:
    """Compare the compressed spectrum with the full-space one inside |z| <= c N^(k-1).

    The operator with a truncated variable part acts diagonally on the modes
    outside the window, so its full-space spectrum is the compression
    spectrum united with the tail symbol values.  Inside the stated ball the
    two sets coincide once the tail symbols have outgrown the radius; the
    report carries both sets and their Hausdorff distance.
    """
    report = eigenvalues_self_adjoint(spec, w)
    radius = float(c) * float(w.N) ** (spec.k - 1)
    inside = report.eigenvalues[np.abs(report.eigenvalues) <= radius]

    # tail symbol values with modulus below the radius, on the modes outside the window
    reach = _symbol_reach(spec, radius, (1 << 22) + 1)
    if reach > 1 << 22:
        raise ValueError("tail symbol scan did not terminate; radius too large")
    sym = np.real(spec.symbol(np.r_[w.n_plus + 1:reach + 1, -reach:-w.n_minus]))
    tails = sym[np.abs(sym) <= radius]
    full = np.sort(np.concatenate([inside, tails]))
    return TruncationCoincidence(
        radius=radius,
        finite_section=inside,
        full_space=full,
        hausdorff=_hausdorff(inside, full),
    )
