"""Operators compressed to a Fourier mode window, applied matrix-free or assembled densely.

The solvers apply the finite-section / collocation compressions of the
differential operators and of the singular-integral operator matrix-free
(ode_matvec, sie_matvec): Toeplitz products through a circulant embedding,
grid products through the FFT, O(N) storage and O(N log N) work per product.

Dense assembly over the modes of a BandWindow is kept for the eigensolver
and as the reference the matrix-free products are tested against: diagonal
differential symbols, Toeplitz multiplication, the Cauchy projectors,
diagonal resolvent-type regulators, Hankel-type couplings from negative to
nonnegative modes, and the same compressions as dense matrices.  Row and
column index i of a matrix corresponds to mode i - n_minus, the same map on
both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid, sobolev_weights

__all__ = [
    "DiffOpSpec",
    "JumpSpec",
    "OperatorMatrix",
    "assemble_L0",
    "assemble_mult_toeplitz",
    "assemble_cauchy_projectors",
    "choose_zeta",
    "assemble_regulator",
    "assemble_finite_section_ode",
    "assemble_collocation_ode",
    "assemble_sie",
    "assemble_hankel",
    "operator_norm_weighted",
    "ode_matvec",
    "sie_matvec",
]

MODES = ("finite_section", "collocation")


def check_mode(mode) -> None:
    """Raise ValueError unless mode names one of the two compressions."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class DiffOpSpec:
    """A periodic differential operator with constant top part.

    The constant part applies c_j d^j/dtheta^j for j = q..k (c_k != 0); the
    variable part applies a_j(theta) d^j/dtheta^j for j = 0..p with p < k.
    `ell` records the coefficient regularity used by eigenvalue-error
    rescalings; it is metadata, not used in assembly.
    """

    k: int
    q: int
    const_coeffs: tuple
    var_coeffs: tuple = ()
    ell: float | None = None

    def __post_init__(self):
        if not (0 <= self.q <= self.k):
            raise ValueError(f"need 0 <= q <= k, got q={self.q}, k={self.k}")
        cc = tuple(complex(c) for c in self.const_coeffs)
        if len(cc) != self.k - self.q + 1:
            raise ValueError("const_coeffs must cover orders q..k")
        if cc[-1] == 0:
            raise ValueError("leading constant coefficient must be nonzero")
        vc = tuple(self.var_coeffs)
        for a in vc:
            if not isinstance(a, CoeffVec):
                raise TypeError("variable coefficients must be CoeffVec")
        if len(vc) - 1 >= self.k:
            raise ValueError("variable orders must stay below k")
        object.__setattr__(self, "const_coeffs", cc)
        object.__setattr__(self, "var_coeffs", vc)

    @classmethod
    def from_orders(cls, const: dict[int, complex], var: tuple = (), ell: float | None = None) -> "DiffOpSpec":
        """Build from {derivative order: coefficient}; gaps are filled with zeros."""
        if not const:
            raise ValueError("need at least one constant coefficient")
        q, k = min(const), max(const)
        cc = tuple(complex(const.get(j, 0.0)) for j in range(q, k + 1))
        return cls(k=k, q=q, const_coeffs=cc, var_coeffs=tuple(var), ell=ell)

    @property
    def p(self) -> int:
        """Top variable-coefficient order; -1 when the variable part is empty."""
        return len(self.var_coeffs) - 1

    def has_variable_part(self) -> bool:
        return any(np.any(a.coeffs != 0) for a in self.var_coeffs)

    def symbol(self, m) -> np.ndarray:
        """Constant-part symbol sum_j c_j (i m)^j at integer modes m."""
        m = np.asarray(m)
        im = 1j * m
        out = np.zeros(m.shape, dtype=complex)
        for j, c in zip(range(self.q, self.k + 1), self.const_coeffs):
            out += c * im ** j
        return out


@dataclass(frozen=True)
class JumpSpec:
    """Scalar jump function on the unit circle with a certified lower bound.

    min_modulus is the minimum of |g| over a fine evaluation grid -- the
    computable surrogate for nonvanishing of g on the whole circle -- and
    winding is the winding number of g about the origin on the same grid.
    """

    g: CoeffVec
    min_modulus: float
    winding: int

    @classmethod
    def from_coeffs(cls, g: CoeffVec, grid_factor: int = 16) -> "JumpSpec":
        npts = max(grid_factor * len(g.coeffs), 64)
        vals = evaluate_on_grid(g, npts)
        mm = float(np.abs(vals).min())
        if mm <= 0.0:
            raise ValueError("jump function vanishes on the evaluation grid")
        return cls(g=g, min_modulus=mm, winding=_winding(vals))


def _winding(vals: np.ndarray) -> int:
    """Winding about the origin of a closed curve sampled finely, from its phase increments."""
    increments = np.angle(np.roll(vals, -1) / vals)
    return int(np.rint(increments.sum() / (2.0 * np.pi)))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix over the modes of a window."""

    window: BandWindow
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        n = self.window.N
        if e.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}, got {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def assemble_L0(spec: DiffOpSpec, w: BandWindow) -> OperatorMatrix:
    """Diagonal matrix of the constant-part symbol on the window."""
    return OperatorMatrix(w, np.diag(spec.symbol(w.modes())))


def _toeplitz_entries(h: CoeffVec, w: BandWindow) -> np.ndarray:
    # imported here, so that the matrix-free solvers never pay scipy's import time
    from scipy.linalg import toeplitz

    n = np.arange(w.N)
    return toeplitz(h.get(n), h.get(-n))


def assemble_mult_toeplitz(h: CoeffVec, w: BandWindow) -> OperatorMatrix:
    """Multiplication by h compressed to the window: entry (r, c) = h_{r-c}."""
    return OperatorMatrix(w, _toeplitz_entries(h, w))


def assemble_cauchy_projectors(w: BandWindow) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Boundary-value projectors of the Cauchy transform, as diagonal masks.

    C+ keeps modes j >= 0; C- = C+ - Id is -1 on modes j < 0.  With this
    convention C+ - C- = Id, C+C+ = C+, C-C- = -C-, and C+C- = C-C+ = 0
    hold exactly at every window size.
    """
    modes = w.modes()
    plus = np.diag((modes >= 0).astype(complex))
    minus = plus - np.eye(w.N, dtype=complex)
    return OperatorMatrix(w, plus), OperatorMatrix(w, minus)


def choose_zeta(spec: DiffOpSpec, max_candidates: int = 64) -> complex:
    """Pick a spectral shift zeta away from the constant-part symbol values.

    For the plain k-th derivative (c_k = 1, no lower constant orders) the
    classical choice (-1)^(k/2) for even k, 1 for odd k, is returned as-is.
    Otherwise candidates 1, -1, i, -i, 2, -2, 2i, -2i, ... are scanned and
    the first one further than 1/2 from every symbol value wins.  Only
    finitely many modes matter because |symbol| grows without bound.
    """
    if spec.q == spec.k and spec.const_coeffs[0] == 1.0:
        if spec.k % 2 == 0:
            return complex((-1) ** (spec.k // 2))
        return 1.0 + 0j

    # symbol values large enough in modulus cannot sit near any candidate
    cand_radius = float(np.ceil(max_candidates / 4.0)) + 1.0
    m_half = 8
    while True:
        shell = np.arange(m_half // 2 + 1, m_half + 1)
        shell = np.concatenate([-shell, shell])
        if np.min(np.abs(spec.symbol(shell))) > cand_radius + 1.0 or m_half >= (1 << 20):
            break
        m_half *= 2
    symbols = spec.symbol(np.arange(-m_half, m_half + 1))

    count = 0
    r = 1
    while count < max_candidates:
        for cand in (r, -r, 1j * r, -1j * r):
            count += 1
            if np.min(np.abs(symbols - cand)) > 0.5:
                return complex(cand)
            if count >= max_candidates:
                break
        r += 1
    raise ValueError(f"no shift among the first {max_candidates} candidates clears the symbol set")


def assemble_regulator(spec: DiffOpSpec, zeta: complex, w: BandWindow) -> OperatorMatrix:
    """Diagonal inverse of (constant part - zeta Id) on the window."""
    gaps = spec.symbol(w.modes()) - zeta
    bad = np.abs(gaps) <= 1e-12 * max(1.0, abs(zeta))
    if np.any(bad):
        m = int(w.modes()[np.argmax(bad)])
        raise ValueError(f"shift {zeta} collides with the symbol value at mode {m}")
    return OperatorMatrix(w, np.diag(1.0 / gaps))


def _variable_part_toeplitz(spec: DiffOpSpec, w: BandWindow) -> np.ndarray:
    """sum_j Toeplitz(a_j) diag((i m)^j) on the window."""
    modes = w.modes()
    out = np.zeros((w.N, w.N), dtype=complex)
    for j, a in enumerate(spec.var_coeffs):
        t = _toeplitz_entries(a, w)
        # (i m)^0 = 1, so order 0 adds its Toeplitz matrix unscaled
        out += t * (1j * modes[None, :]) ** j if j else t
    return out


def assemble_finite_section_ode(spec: DiffOpSpec, w: BandWindow) -> OperatorMatrix:
    """Matrix of (constant part + truncated variable part) on the window.

    On the window this is the compression of the full operator: the
    diagonal symbol plus, for each variable order j, the Toeplitz matrix of
    a_j times the diagonal of (i m)^j.
    """
    entries = _variable_part_toeplitz(spec, w)
    entries[np.diag_indices(w.N)] += spec.symbol(w.modes())
    return OperatorMatrix(w, entries)


def _interpolate_columns(samples: np.ndarray, w: BandWindow) -> np.ndarray:
    """Interpolate each column of an (N, ncols) sample matrix onto the window."""
    f = np.fft.fft(samples, axis=0) / w.N
    return f[w.modes() % w.N, :]


def assemble_collocation_ode(spec: DiffOpSpec, w: BandWindow) -> OperatorMatrix:
    """Collocation compression: samples of the variable part are re-interpolated.

    The variable part is applied to each basis mode, sampled on the N-point
    grid, and interpolated back; the constant part stays diagonal because
    interpolation agrees with truncation on the window itself.  When a
    coefficient has modes beyond the window, the columns differ from the
    finite-section matrix by aliased wrap-around.
    """
    modes = w.modes()
    diag = np.diag(spec.symbol(modes))
    if not spec.var_coeffs:
        return OperatorMatrix(w, diag)
    grids = np.stack([evaluate_on_grid(a, w.N) for a in spec.var_coeffs], axis=1)
    powers = (1j * modes[None, :]) ** np.arange(len(spec.var_coeffs))[:, None]
    pointwise = grids @ powers  # (N, N): column m holds sum_j a_j(x) (i m)^j
    phases = np.exp(1j * np.outer(w.grid(), modes))
    cols = _interpolate_columns(pointwise * phases, w)
    return OperatorMatrix(w, diag + cols)


def assemble_sie(jump: JumpSpec, w: BandWindow, mode: str = "finite_section") -> OperatorMatrix:
    """Compression of the singular-integral operator Id - M(g-1) C-.

    finite_section truncates the multiplication to the window (Toeplitz
    columns on the negative modes); collocation multiplies by g-1 on the
    N-point grid and interpolates back, so out-of-window products fold in.
    """
    check_mode(mode)
    modes = w.modes()
    h = _jump_minus_one(jump)
    entries = np.eye(w.N, dtype=complex)
    neg = modes < 0
    if mode == "finite_section":
        entries[:, neg] += _toeplitz_entries(h, w)[:, neg]
    else:
        hvals = evaluate_on_grid(h, w.N)
        phases = np.exp(1j * np.outer(w.grid(), modes[neg]))
        entries[:, neg] += _interpolate_columns(hvals[:, None] * phases, w)
    return OperatorMatrix(w, entries)


def _jump_minus_one(jump: JumpSpec) -> CoeffVec:
    g = jump.g.windowed(min(jump.g.j_min, 0), max(jump.g.j_max, 0))
    c = np.array(g.coeffs)
    c[-g.j_min] -= 1.0
    return CoeffVec(g.j_min, c)


def _multiplication(coeffs: tuple, w: BandWindow, mode: str) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free v -> sum_j compress(a_j v_j) for a (len(coeffs), N) stack v.

    finite_section applies each Toeplitz matrix through a circulant embedding
    of length >= 2N-1 (Chan & Ng, SIAM Rev. 1996), whose symbol is one FFT of
    a_j on modes -(N-1)..N-1; collocation multiplies by a_j on the N-point
    grid and interpolates back.  Both cost one batched FFT each way per
    product.
    """
    check_mode(mode)
    n = w.N
    if mode == "finite_section":
        size = 1 << (2 * n - 2).bit_length()
        cols = np.zeros((len(coeffs), size), dtype=complex)
        for col, a in zip(cols, coeffs):
            t = a.get(np.arange(1 - n, n))
            col[:n] = t[n - 1:]
            col[size - n + 1:] = t[:n - 1]
        symbols = np.fft.fft(cols, axis=1)
        return lambda v: np.fft.ifft((symbols * np.fft.fft(v, size, axis=1)).sum(axis=0))[:n]
    # window slot i holds mode i - n_minus, which sits at FFT slot (i - n_minus) mod n
    to_window = w.modes() % n
    to_fft = np.argsort(to_window)
    samples = np.stack([evaluate_on_grid(a, n) for a in coeffs])
    return lambda v: np.fft.fft((samples * np.fft.ifft(v[:, to_fft], axis=1)).sum(axis=0))[to_window]


def ode_matvec(spec: DiffOpSpec, w: BandWindow, mode: str = "finite_section") -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free x -> A x for the matrix A that assemble_finite_section_ode or
    assemble_collocation_ode builds: sym x + sum_j compress(a_j (i m)^j x)."""
    modes = w.modes()
    sym = spec.symbol(modes)
    if not spec.var_coeffs:
        check_mode(mode)
        return lambda x: sym * x
    powers = (1j * modes) ** np.arange(len(spec.var_coeffs))[:, None]
    mult = _multiplication(spec.var_coeffs, w, mode)
    return lambda x: sym * x + mult(powers * x)


def sie_matvec(jump: JumpSpec, w: BandWindow, mode: str = "finite_section") -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free x -> A x for the matrix A that assemble_sie builds: x - compress((g-1) C- x)."""
    neg = (w.modes() < 0)[None, :]
    mult = _multiplication((_jump_minus_one(jump),), w, mode)
    return lambda x: x + mult(neg * x)


def assemble_hankel(h: CoeffVec, w: BandWindow) -> OperatorMatrix:
    """Coupling of negative modes into nonnegative ones through shifts of h.

    Matrix of u -> C+((C- u) h): entry (row mode k >= 0, column mode -j,
    j >= 1) is -h_{j+k}; everything else vanishes.  Finite rank whenever h
    has finitely many positive modes.
    """
    modes = w.modes()
    entries = _toeplitz_entries(h, w)
    mask = (modes[:, None] >= 0) & (modes[None, :] < 0)
    return OperatorMatrix(w, np.where(mask, -entries, 0.0))


def operator_norm_weighted(a: OperatorMatrix, s: float, t: float) -> float:
    """Operator norm between weighted spaces: largest singular value of W_t A W_s^{-1}."""
    modes = a.window.modes()
    scaled = sobolev_weights(modes, t)[:, None] * a.entries / sobolev_weights(modes, s)[None, :]
    return float(np.linalg.norm(scaled, 2))
