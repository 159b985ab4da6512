"""Coefficient-space representation of periodic functions.

Functions on the torus [0, 2pi) (equivalently the unit circle) are carried
around as finite windows of Laurent/Fourier coefficients.  This module
provides the two projections used throughout the package -- truncation onto
a mode window and trigonometric interpolation from grid samples -- together
with weighted Sobolev norms and the power-law coefficient families used by
the convergence experiments.

Everything here is a pure function of its inputs; coefficient vectors are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BandWindow",
    "CoeffVec",
    "project",
    "interpolate",
    "evaluate_on_grid",
    "sobolev_norm",
    "diff_norm",
    "synth_powerlaw",
    "sobolev_weights",
    "align_windows",
]


def _integer(value, what: str) -> int:
    """value as an int: an int or a numpy integer, not a bool; TypeError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BandWindow:
    """Mode window of size N covering -floor(N/2) .. floor((N-1)/2).

    With n_minus = floor(N/2) and n_plus = floor((N-1)/2) one always has
    n_minus + n_plus + 1 = N, so the window holds exactly N modes and is
    the index set retained by an N-point truncation.
    """

    N: int

    def __post_init__(self):
        object.__setattr__(self, "N", _integer(self.N, "window size"))
        if self.N < 1:
            raise ValueError(f"window size must be >= 1, got {self.N}")

    @property
    def n_minus(self) -> int:
        return self.N // 2

    @property
    def n_plus(self) -> int:
        return (self.N - 1) // 2

    def modes(self) -> np.ndarray:
        return np.arange(-self.n_minus, self.n_plus + 1)

    def grid(self) -> np.ndarray:
        """Uniform grid x_l = 2*pi*l/N, l = 0..N-1."""
        return 2.0 * np.pi * np.arange(self.N) / self.N


@dataclass(frozen=True)
class CoeffVec:
    """Contiguous window of Laurent coefficients for modes j_min..j_max.

    Mode j lives in slot j - j_min.  Coefficients are stored read-only;
    build a new vector instead of mutating.
    """

    j_min: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j_min", _integer(self.j_min, "j_min"))
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d array")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        # the generated __eq__ would compare the arrays with ==, whose truth value is ambiguous
        if not isinstance(other, CoeffVec):
            return NotImplemented
        return self.j_min == other.j_min and np.array_equal(self.coeffs, other.coeffs)

    @classmethod
    def from_dict(cls, entries: dict[int, complex]) -> "CoeffVec":
        if not entries:
            raise ValueError("need at least one coefficient")
        lo, hi = min(entries), max(entries)
        c = np.zeros(hi - lo + 1, dtype=complex)
        for j, v in entries.items():
            c[j - lo] = v
        return cls(lo, c)

    @property
    def j_max(self) -> int:
        return self.j_min + len(self.coeffs) - 1

    def modes(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def get(self, j) -> complex | np.ndarray:
        """Coefficient of mode j, zero outside the window. Accepts arrays."""
        j = np.asarray(j)
        idx = j - self.j_min
        inside = (idx >= 0) & (idx < len(self.coeffs))
        out = np.where(inside, self.coeffs[np.clip(idx, 0, len(self.coeffs) - 1)], 0.0)
        return out[()] if out.ndim == 0 else out

    def padded(self, j_min: int, j_max: int) -> np.ndarray:
        """Coefficients of modes j_min..j_max as a new writable array, zero outside the window.

        Equal to get(arange(j_min, j_max + 1)), but the overlap with this
        vector's window is copied as one contiguous slice, with no index array.
        """
        if j_max < j_min:
            raise ValueError("empty window")
        out = np.zeros(j_max - j_min + 1, dtype=complex)
        lo, hi = max(j_min, self.j_min), min(j_max, self.j_max)
        if lo <= hi:
            out[lo - j_min:hi - j_min + 1] = self.coeffs[lo - self.j_min:hi - self.j_min + 1]
        return out

    def windowed(self, j_min: int, j_max: int) -> "CoeffVec":
        """Copy onto the window j_min..j_max, zero-padding or truncating."""
        return CoeffVec(j_min, self.padded(j_min, j_max))

    def folded(self, n: int) -> np.ndarray:
        """Slot r holds the sum of the u_j with j = r mod n: whole periods of n modes,
        zero-padded from a multiple of n, summed as the rows of one reshape."""
        lo = self.j_min // n * n
        periods = (self.j_max - lo) // n + 1
        return self.padded(lo, lo + periods * n - 1).reshape(periods, n).sum(axis=0)

    def scaled(self, factor: complex) -> "CoeffVec":
        return CoeffVec(self.j_min, factor * self.coeffs)


def sobolev_weights(modes: np.ndarray, s: float) -> np.ndarray:
    """Weights (1 + |j|)^s; strictly positive for every real s."""
    return (1.0 + np.abs(modes)) ** float(s)


def project(u: CoeffVec, w: BandWindow) -> CoeffVec:
    """Truncate u onto the mode window of w.

    The result lives exactly on -n_minus..n_plus; coefficients outside are
    dropped, missing ones are zero.  Idempotent, and norm-nonincreasing in
    every weighted norm.
    """
    return u.windowed(-w.n_minus, w.n_plus)


def interpolate(values: np.ndarray) -> CoeffVec:
    """Trigonometric interpolation from samples on the uniform N-point grid.

    values[l] is the sample at x_l = 2*pi*l/N.  Returns coefficients on the
    window -floor(N/2)..floor((N-1)/2).  Exact (to roundoff) for inputs
    sampled from a series supported inside that window; a mode p*N + j of
    the sampled function folds onto mode j.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < 1:
        raise ValueError("need a nonempty 1-d sample array")
    n = values.size
    w = BandWindow(n)
    f = np.fft.fft(values) / n
    return CoeffVec(-w.n_minus, f[w.modes() % n])


def evaluate_on_grid(u: CoeffVec, n: int) -> np.ndarray:
    """Evaluate the series of u at the n uniform grid points x_l = 2*pi*l/n.

    Exact for any coefficient window: the coefficients are folded mod n
    (CoeffVec.folded) before the inverse transform, which agrees with direct
    summation of the series at the grid points.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    return np.fft.ifft(u.folded(n)) * n


def sobolev_norm(u: CoeffVec, s: float) -> float:
    """Weighted coefficient norm (sum |u_j|^2 (1+|j|)^(2s))^(1/2) over u's window."""
    w = sobolev_weights(u.modes(), s)
    return float(np.sqrt(np.sum((np.abs(u.coeffs) * w) ** 2)))


def align_windows(u: CoeffVec, v: CoeffVec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-pad u and v to their union window; returns (modes, a, b)."""
    lo = min(u.j_min, v.j_min)
    hi = max(u.j_max, v.j_max)
    return np.arange(lo, hi + 1), u.padded(lo, hi), v.padded(lo, hi)


def diff_norm(u: CoeffVec, v: CoeffVec, s: float) -> float:
    """Sobolev norm of u - v on the union window."""
    modes, a, b = align_windows(u, v)
    return sobolev_norm(CoeffVec(modes[0], a - b), s)


def synth_powerlaw(kind: str, alpha: float, window: BandWindow, epsilon: float = 0.0) -> CoeffVec:
    """Power-law coefficient families used by the experiments.

    kind "g":  u_j = (1+|j|)^(-alpha)
    kind "h":  u_0 = 1, u_j = sign(j) (1+|j|)^(-alpha) otherwise
    kind "gg": u_0 = 1, u_j = epsilon (1+|j|)^(-alpha) otherwise

    alpha must exceed 1/2 so the full-line coefficients are square-summable.
    """
    if alpha <= 0.5:
        raise ValueError(f"alpha must exceed 1/2, got {alpha}")
    j = window.modes()
    base = (1.0 + np.abs(j)) ** (-float(alpha))
    if kind == "g":
        c = base.astype(complex)
    elif kind == "h":
        c = np.sign(j) * base + 0j
        c[j == 0] = 1.0
    elif kind == "gg":
        c = epsilon * base + 0j
        c[j == 0] = 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}, expected 'g', 'h' or 'gg'")
    return CoeffVec(-window.n_minus, c)
