"""Operators compressed to a Fourier mode window, applied matrix-free or assembled densely.

The solvers apply the finite-section / collocation compressions of the
differential operators and of the singular-integral operator matrix-free
(ode_matvec, sie_matvec) through one circulant product, O(N) storage and
O(N log N) work.  Both compressions of a multiplication are Toeplitz, so
both embed in the power-of-two circulant of circulant_length; they differ
only in the mode-difference row (_difference_row).  Every product and
regulator takes a group of windows of any sizes and acts on their (B, N)
stack, laid out by window_slots on the modes of the largest window, each
row masked back to its own window.  The group's circulant is the largest
window's, at least 2 N_b - 1 long for every window b, so each row's
Toeplitz matrix embeds in it exactly.  One window is the group [w], whose
stack may hold any number of rows, so R(np.eye(N)).T is R's matrix.
window_data lays a solve's data out on the same stack: the data's
compression to each window, read from the same _difference_row at the
differences m - 0.  _solve_windows is the windows solve both solvers end
in, and the one call of linsolve.solve_checked: the data laid out by
window_data, one solve_checked on the stack with a named row and its own
size per window, and one CoeffVec back per window.  ode.solve_ode_windows
and rhp.solve_rhp_windows bring only their product, regulator and
pre-check.

ode_regulator and sie_regulator are the solvers' right regulators, each
returned as the product y -> R y.  ode_regulator is the only code that
knows the ODE regulator's two levels: the exact inverse of the
finite-section compression on the modes |m| <= LOW_MODES, and the diagonal
(L0 - zeta)^(-1) on every other mode.  sie_regulator is C+ - M(1/g) C-,
the SIE product with 1/g in place of g.  The shift and the low block's
inverse depend only on the operator, so each DiffOpSpec builds them once.
JumpSpec(g) certifies g once: one pass over one grid gives min|g|, the
winding number, g - 1 and 1/g - 1.

Dense assembly over the modes of a BandWindow is kept for the eigensolver,
for the regulator's low block and as the reference the matrix-free products
are tested against: diagonal differential symbols, Toeplitz multiplication,
the Cauchy projectors, diagonal resolvent-type regulators, Hankel-type
couplings from negative to nonnegative modes, and the same compressions as
dense matrices.  Row and column index i of a matrix corresponds to mode
i - n_minus, the same map on both sides.  Every dense compression of a
multiplication is the Toeplitz matrix of one row, _difference_row, which
gives the multiplier's entry for each mode difference 1-N..N-1: its
coefficients for the finite section, and its coefficients folded mod N
for collocation.  The circulant product embeds the same row, and
window_data reads it for the data, so _difference_row is the one place
that knows what each compression means.
The eigensolver reads the finite-section compression through
_compression_entries, which builds a real compression as float64, without
a complex N x N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .fourier import BandWindow, CoeffVec, evaluate_on_grid, interpolate, sobolev_weights
from .linsolve import solve_checked

__all__ = [
    "DiffOpSpec",
    "JumpSpec",
    "OperatorMatrix",
    "assemble_L0",
    "assemble_mult_toeplitz",
    "assemble_cauchy_projectors",
    "choose_zeta",
    "assemble_regulator",
    "ode_regulator",
    "assemble_finite_section_ode",
    "assemble_collocation_ode",
    "assemble_sie",
    "assemble_hankel",
    "operator_norm_weighted",
    "ode_matvec",
    "sie_matvec",
    "sie_regulator",
    "circulant_length",
    "window_slots",
    "window_data",
]

MODES = ("finite_section", "collocation")
# grid points per coefficient on which a jump function is checked when no coarser grid certifies it
GRID_FACTOR = 16
# shifts choose_zeta tries, in order: 1, -1, i, -i, 2, -2, 2i, -2i, ..., 16, -16, 16i, -16i
ZETA_CANDIDATES = tuple(complex(z) for r in range(1, 17) for z in (r, -r, 1j * r, -1j * r))
# the two-level ODE regulator inverts the compression exactly on the modes |m| <= LOW_MODES
LOW_MODES = 8
# the margin choose_zeta keeps between the shift and every symbol value; the low block
# is used only when its smallest singular value is at least this
LOW_BLOCK_MARGIN = 0.5


def check_mode(mode) -> None:
    """Raise ValueError unless mode names one of the two compressions."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class DiffOpSpec:
    """A periodic differential operator with constant top part.

    The constant part applies c_j d^j/dtheta^j for j = q..k (c_k != 0); the
    variable part applies a_j(theta) d^j/dtheta^j for j = 0..p with p < k.
    Every coefficient must be finite (ValueError otherwise).  `ell` records
    the coefficient regularity used by eigenvalue-error rescalings; it is
    metadata, not used in assembly, and must be None or finite (ValueError
    otherwise).
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
        if not np.all(np.isfinite(cc)):
            raise ValueError(f"constant coefficients must be finite, got {cc}")
        vc = tuple(self.var_coeffs)
        for j, a in enumerate(vc):
            if not isinstance(a, CoeffVec):
                raise TypeError("variable coefficients must be CoeffVec")
            if not np.all(np.isfinite(a.coeffs)):
                raise ValueError(f"variable coefficient of order {j} must be finite")
        if len(vc) - 1 >= self.k:
            raise ValueError("variable orders must stay below k")
        if self.ell is not None and not np.isfinite(self.ell):
            raise ValueError(f"ell must be None or finite, got {self.ell}")
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
        return any(a.coeffs.any() for a in self.var_coeffs)

    def symbol(self, m) -> np.ndarray:
        """Constant-part symbol sum_j c_j (i m)^j at integer modes m; ValueError, with
        numpy's text, when it overflows."""
        m = np.asarray(m)
        im = 1j * m
        out = np.zeros(m.shape, dtype=complex)
        try:
            with np.errstate(over="raise"):
                for j, c in zip(range(self.q, self.k + 1), self.const_coeffs):
                    out += c * im ** j
        except FloatingPointError as exc:
            raise ValueError(str(exc)) from exc
        return out

    @cached_property
    def _low_regulator(self) -> tuple[complex, np.ndarray | None]:
        """(zeta, inverse of the low block), built once.

        zeta is choose_zeta's shift.  The low block is the finite-section
        compression on the 2 LOW_MODES + 1 modes |m| <= LOW_MODES; its inverse
        is None when its smallest singular value is below LOW_BLOCK_MARGIN, so
        a singular block is never divided by.
        """
        low = assemble_finite_section_ode(self, BandWindow(2 * LOW_MODES + 1)).entries
        singular = np.linalg.svd(low, compute_uv=False)[-1] < LOW_BLOCK_MARGIN
        return choose_zeta(self), None if singular else np.linalg.inv(low)


@dataclass(frozen=True)
class JumpSpec:
    """Scalar jump function on the unit circle, certified once at construction.

    JumpSpec(g) samples g once, on _certified_samples' grid, and derives every
    other field from those samples: min_modulus = min |g| there, winding from
    the phase increments, and _perturbations = (g - 1 on g's window widened
    to hold mode 0, the interpolant of 1/g - 1).  Where the grid certifies
    that g has no zero, the winding is exact; past GRID_FACTOR points per
    coefficient the grid minimum is the computable surrogate for
    nonvanishing.  A g that is not a CoeffVec raises TypeError; one that is
    not finite or vanishes on the grid raises ValueError before anything
    divides by it, and so does one so close to zero there that 1/g, or its
    interpolant, is not finite.
    """

    g: CoeffVec
    min_modulus: float = field(init=False)
    winding: int = field(init=False)
    _perturbations: tuple[CoeffVec, CoeffVec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.g, CoeffVec):
            raise TypeError("jump function g must be CoeffVec")
        vals = _certified_samples(self.g)
        # a g that is tiny but not zero on the grid overflows 1/g or its interpolant
        with np.errstate(over="ignore", invalid="ignore"):
            inverse = interpolate(1.0 / vals - 1.0)
        if not np.all(np.isfinite(inverse.coeffs)):
            raise ValueError("jump function vanishes on the evaluation grid: 1/g is not finite")
        increments = np.angle(np.roll(vals, -1) / vals)
        lo = min(self.g.j_min, 0)
        h = self.g.padded(lo, max(self.g.j_max, 0))
        h[-lo] -= 1.0
        object.__setattr__(self, "min_modulus", float(np.abs(vals).min()))
        object.__setattr__(self, "winding", int(np.rint(increments.sum() / (2.0 * np.pi))))
        object.__setattr__(self, "_perturbations", (CoeffVec(lo, h), inverse))


def _certified_samples(g: CoeffVec) -> np.ndarray:
    """Samples of g on the grid that decides whether it vanishes.

    The grid starts at the smallest power of two >= max(2 len(g.coeffs), 64)
    points and doubles while min|g| on it is <= 2 pi L / n, with
    L = sum |j| |g_j| >= max|g'|, up to the cap max(GRID_FACTOR len(g.coeffs), 64).
    Past that bound, g moves less than min|g| between neighbouring points: it
    has no zero on the circle.  Otherwise the cap grid decides, as a
    surrogate.  Raises ValueError when g is not finite or vanishes on a grid.
    """
    cap = max(GRID_FACTOR * len(g.coeffs), 64)
    lipschitz = float(np.abs(g.modes() * g.coeffs).sum())
    n = min(1 << (max(2 * len(g.coeffs), 64) - 1).bit_length(), cap)
    while True:
        vals = evaluate_on_grid(g, n)
        if not np.all(np.isfinite(vals)):
            raise ValueError("jump function is not finite on the evaluation grid")
        mm = float(np.abs(vals).min())
        if mm <= 0.0:
            raise ValueError("jump function vanishes on the evaluation grid")
        # every point lies within pi/n of a sample, so pi L / n would prove it too: 2 pi keeps a margin
        if n == cap or mm > 2.0 * np.pi * lipschitz / n:
            return vals
        n = min(2 * n, cap)


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


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """N x N matrix with entry (r, c) = row[N - 1 + r - c], from the 2N - 1 values of modes 1-N..N-1."""
    n = (len(row) + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(row[::-1], n)[::-1].copy()


def _difference_row(h: CoeffVec, n: int, mode: str) -> np.ndarray:
    """h's entry for each mode difference 1-n..n-1 of an n-mode compression.

    finite_section reads h's coefficient of the difference; collocation, which
    multiplies on the n-point grid and interpolates back, reads the coefficients
    folded mod n, so difference d takes folded slot d mod n.
    """
    if mode == "finite_section":
        return h.padded(1 - n, n - 1)
    f = h.folded(n)
    return np.concatenate((f[1:], f))


def _toeplitz_entries(h: CoeffVec, w: BandWindow, mode: str = "finite_section") -> np.ndarray:
    """Entry (r, c) = h's entry for the mode difference r - c (see _difference_row)."""
    return _toeplitz(_difference_row(h, w.N, mode))


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


def choose_zeta(spec: DiffOpSpec) -> complex:
    """Pick a spectral shift zeta further than LOW_BLOCK_MARGIN from every constant-part symbol value.

    The first of ZETA_CANDIDATES to clear them wins.  Only a symbol value of
    modulus <= max|candidate| + LOW_BLOCK_MARGIN can come near a candidate, so the modes
    |m| <= _symbol_reach of that radius (capped at 2^20) are checked; a
    constant symbol (k = 0) has its one value at m = 0.
    """
    radius = max(abs(z) for z in ZETA_CANDIDATES) + LOW_BLOCK_MARGIN
    reach = max(_symbol_reach(spec, radius, 2 ** 20), 0) if spec.k else 0
    symbols = spec.symbol(np.arange(-reach, reach + 1))
    for cand in ZETA_CANDIDATES:
        # >= would do as well: either bounds every regulator entry by 1 / LOW_BLOCK_MARGIN
        if np.min(np.abs(symbols - cand)) > LOW_BLOCK_MARGIN:
            return cand
    raise ValueError(f"no shift among the {len(ZETA_CANDIDATES)} candidates clears the symbol set")


def _symbol_reach(spec: DiffOpSpec, r: float, cap: int) -> int:
    """Largest |m| <= cap with |symbol(m)| <= r, or -1 when there is none.

    |symbol(m)| >= |c_k| |m|^k - sum_{j<k} |c_j| |m|^j, so |symbol(m)| > r
    wherever excess(|m|) = |c_k| - sum_{j<k} |c_j| |m|^(j-k) - r |m|^(-k) > 0.
    excess increases in x, so once it is positive at hi, every |m| >= hi is
    beyond r.  hi doubles from 1 until it is, or until it passes cap, and
    only |m| <= min(hi, cap) are scanned.  A constant symbol is within r at
    every mode or at none.
    """
    c = [float(v) for v in np.abs(spec.const_coeffs)]
    if spec.k == 0:
        return cap if c[0] <= r else -1

    def excess(x):
        return c[-1] - sum(cj * x ** (j - spec.k) for j, cj in zip(range(spec.q, spec.k), c)) - r * x ** -spec.k

    hi = 1.0
    while excess(hi) <= 0.0 and hi <= cap:
        hi *= 2.0
    m = np.arange(int(min(hi, cap)) + 1)
    near = np.flatnonzero(np.minimum(np.abs(spec.symbol(m)), np.abs(spec.symbol(-m))) <= r)
    return int(near[-1]) if near.size else -1


def _regulator_diagonal(sym: np.ndarray, zeta: complex, w: BandWindow) -> np.ndarray:
    """1 / (sym - zeta) for the constant-part symbol sym on w; a collision raises ValueError."""
    gaps = sym - zeta
    bad = np.abs(gaps) <= 1e-12 * max(1.0, abs(zeta))
    if np.any(bad):
        m = int(w.modes()[np.argmax(bad)])
        raise ValueError(f"shift {zeta} collides with the symbol value at mode {m}")
    return 1.0 / gaps


def ode_regulator(spec: DiffOpSpec, windows) -> Callable[[np.ndarray], np.ndarray]:
    """Two-level right regulator of the compressed ODE on each window of a group, as the
    product y -> R y on the group's (B, N) stack, as for ode_matvec.

    R is the diagonal (L0 - zeta)^(-1), except on the modes |m| <= LOW_MODES
    of windows that hold them when spec._low_regulator has a block: there
    it is the inverse of the finite-section compression on those modes.
    Each row of the stack decides by its own window, so a group may mix
    windows with the block and without it.
    """
    zeta, inverse = spec._low_regulator
    big, _ = window_slots(windows)
    reg = _regulator_diagonal(spec.symbol(big.modes()), zeta, big)
    if inverse is None or big.N < 2 * LOW_MODES + 1:
        return lambda y: reg * y
    slots = slice(big.n_minus - LOW_MODES, big.n_minus + LOW_MODES + 1)
    # the rows whose window holds the low modes, as a (B, 1) mask that broadcasts over the
    # stack: the group [w] may carry any number of rows
    held = np.array([[v.N > 2 * LOW_MODES] for v in windows])

    def regulate(y):
        x = reg * y
        np.copyto(x[:, slots], np.matvec(inverse, y[:, slots]), where=held)
        return x
    return regulate


def assemble_regulator(spec: DiffOpSpec, zeta: complex, w: BandWindow) -> OperatorMatrix:
    """Diagonal inverse of (constant part - zeta Id) on the window."""
    return OperatorMatrix(w, np.diag(_regulator_diagonal(spec.symbol(w.modes()), zeta, w)))


def assemble_finite_section_ode(spec: DiffOpSpec, w: BandWindow) -> OperatorMatrix:
    """Matrix of (constant part + truncated variable part) on the window.

    On the window this is the compression of the full operator: the
    diagonal symbol plus, for each variable order j, the Toeplitz matrix of
    a_j times the diagonal of (i m)^j.
    """
    return OperatorMatrix(w, _compression_entries(spec, w))


def _compression_entries(spec: DiffOpSpec, w: BandWindow, mode: str = "finite_section") -> np.ndarray:
    """The entries of assemble_finite_section_ode or assemble_collocation_ode, writable
    and in the field they live in.

    The field is chosen once, before the terms are summed: float64 when the
    variable part has order 0 with real entries on the mode differences
    1-N..N-1 and the symbol is real on the window, complex otherwise, even
    when terms of order >= 1 sum to a real matrix.  Each variable order j
    adds the Toeplitz matrix of a_j's difference row times the diagonal of
    (i m)^j, and the symbol is added on the diagonal.
    """
    n = w.N
    modes = w.modes()
    sym = spec.symbol(modes)
    rows = [_difference_row(a, n, mode) for a in spec.var_coeffs]
    if spec.p <= 0 and not sym.imag.any() and not any(row.imag.any() for row in rows):
        sym, rows = sym.real, [row.real for row in rows]
    # order 0 seeds the sum; adding 0.0 turns -0.0 into 0.0, as a sum started from zero does
    entries = _toeplitz(rows[0] + 0.0) if rows else np.zeros((n, n), dtype=sym.dtype)
    for j, row in enumerate(rows[1:], 1):
        entries += _toeplitz(row) * (1j * modes[None, :]) ** j
    entries[np.diag_indices(n)] += sym
    return entries


def assemble_collocation_ode(spec: DiffOpSpec, w: BandWindow) -> OperatorMatrix:
    """Collocation compression: the variable part multiplied on the N-point grid and
    interpolated back.

    That is the finite-section assembly with each coefficient folded mod N:
    entry (r, c) reads a_j's folded slot (m_r - m_c) mod N.  The constant
    part stays diagonal because interpolation agrees with truncation on the
    window itself; a coefficient with modes beyond the window aliases in.
    """
    return OperatorMatrix(w, _compression_entries(spec, w, "collocation"))


def assemble_sie(jump: JumpSpec, w: BandWindow, mode: str = "finite_section") -> OperatorMatrix:
    """Compression of the singular-integral operator Id - M(g-1) C-.

    finite_section truncates the multiplication to the window (Toeplitz
    columns on the negative modes); collocation multiplies by g-1 on the
    N-point grid and interpolates back, so out-of-window products fold in.
    """
    check_mode(mode)
    neg = w.modes() < 0
    entries = np.eye(w.N, dtype=complex)
    entries[:, neg] += _toeplitz_entries(jump._perturbations[0], w, mode)[:, neg]
    return OperatorMatrix(w, entries)


def circulant_length(n: int) -> int:
    """Length of the circulant that applies an n-mode compression in either mode: the
    power of two >= 2n - 1, which holds the 2n - 1 mode differences of n modes."""
    return 1 << (2 * n - 2).bit_length()


def window_slots(windows) -> tuple[BandWindow, list[slice]]:
    """Layout of a group of windows as a (B, N) stack: the largest window, and each window's slots.

    The stack follows the modes of the largest window, whose slot i holds
    mode i - n_minus, and row b holds window b's modes on its slots and zero
    elsewhere.  Every smaller window's modes lie inside the largest's.  This
    is the only code that lays out a group: every product, regulator and
    windows solve reads its layout here.  An empty group raises ValueError,
    and a bare BandWindow is not a group and raises TypeError.
    """
    if not windows:
        raise ValueError("a group needs at least one window")
    big = max(windows, key=lambda v: v.N)
    return big, [slice(big.n_minus - v.n_minus, big.n_minus + v.n_plus + 1) for v in windows]


def window_data(h: CoeffVec, windows, mode: str) -> tuple[np.ndarray, list[slice]]:
    """h compressed to each window of a group, as their (B, N) stack laid out by window_slots,
    and each window's slots.

    Row b holds _difference_row(h, N_b, mode) at the differences m - 0 for the
    modes m of window b: h's coefficients there for the finite section
    (project(h, w).coeffs), h folded mod N_b for collocation.  A mode that is
    not a compression raises ValueError.
    """
    check_mode(mode)
    big, slots = window_slots(windows)
    rhs = np.zeros((len(windows), big.N), dtype=complex)
    for row, s, w in zip(rhs, slots, windows):
        row[s] = _difference_row(h, w.N, mode)[w.N - 1 - w.n_minus:w.N + w.n_plus]
    return rhs, slots


def _solve_windows(h: CoeffVec, product, regulator, windows, mode: str, what: str) -> list[CoeffVec]:
    """The windows solve both solvers share: product(x) = h compressed to each window of a
    group, right-regulated by regulator, as one solve_checked on the group's (B, N) stack.

    product and regulator act on that stack (ode_matvec and ode_regulator, or
    sie_matvec and sie_regulator); the data is laid out by window_data.  Row b
    is solved, checked and gated on its own window, with its own N_b unknowns,
    and named "{mode} {what} at N={N_b}" in errors, so the first window that
    fails raises naming its N.  Returns one CoeffVec per window.
    """
    rhs, slots = window_data(h, windows, mode)
    x = solve_checked(product, rhs, regulator, context=[f"{mode} {what} at N={w.N}" for w in windows],
                      sizes=[w.N for w in windows])
    return [CoeffVec(-w.n_minus, row[s]) for row, s, w in zip(x, slots, windows)]


def _multiplication(coeffs: tuple, windows, mode: str) -> tuple[BandWindow, Callable[[np.ndarray], np.ndarray]]:
    """The largest of the windows, and the matrix-free v -> sum_j compress(a_j v_j) for a
    (B, len(coeffs), N) stack v on its modes.

    Both compressions are Toeplitz: row b applies the Toeplitz matrix of
    _difference_row(a_j, N_b, mode), embedded in the circulant of the largest
    window's circulant_length, which is >= 2 N_b - 1 (Chan & Ng, SIAM Rev.
    1996), and applied by one batched FFT each way.  Row b takes window b's
    symbols on the largest window's slots, and what spills off a row's own
    window is zeroed in place.
    """
    check_mode(mode)
    big, slots = window_slots(windows)
    size = circulant_length(big.N)
    # difference d in slot d mod size: window slot i holds mode i - n_minus, and a
    # circulant depends only on slot differences
    cols = np.zeros((len(windows), len(coeffs), size), dtype=complex)
    # True on the slots off each row's window; boolean, a sixteenth of a complex mask: a
    # stack keeps one per product
    spill = np.ones((len(windows), big.N), dtype=bool)
    for col, off, s, v in zip(cols, spill, slots, windows):
        off[s] = False
        for c, row in zip(col, (_difference_row(a, v.N, mode) for a in coeffs)):
            c[:v.N], c[size - v.N + 1:] = row[v.N - 1:], row[:v.N - 1]
    symbols = np.fft.fft(cols)

    def product(v):
        spectra = np.fft.fft(v, size)
        spectra *= symbols
        total = spectra.sum(axis=-2)
        out = np.fft.ifft(total, out=total)[:, :big.N]
        np.copyto(out, 0, where=spill)
        return out
    return big, product


def ode_matvec(spec: DiffOpSpec, windows, mode: str = "finite_section") -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free x -> A x for the matrix A that assemble_finite_section_ode or
    assemble_collocation_ode builds: sym x + sum_j compress(a_j (i m)^j x).

    The product takes the (B, N) stack of a group of windows of any sizes
    (see window_slots) and applies to row b window b's compression; one
    window is the group [w]."""
    big, mult = _multiplication(spec.var_coeffs, windows, mode)
    modes = big.modes()
    sym = spec.symbol(modes)
    powers = (1j * modes) ** np.arange(len(spec.var_coeffs))[:, None]
    return lambda x: sym * x + mult(powers * x[:, None, :])


def sie_matvec(jump: JumpSpec, windows, mode: str = "finite_section") -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free x -> A x for the matrix A that assemble_sie builds: x - compress((g-1) C- x).

    The product takes the group's (B, N) stack, as for ode_matvec."""
    return _sie_product(jump._perturbations[0], windows, mode)


def sie_regulator(jump: JumpSpec, windows, mode: str = "finite_section") -> Callable[[np.ndarray], np.ndarray]:
    """Right regulator of the compressed SIE on each window of a group, as the product
    y -> R y on the group's (B, N) stack, as for ode_matvec.

    R = C+ - M(1/g) C- = Id - M(1/g - 1) C-, compressed as A is: the SIE
    product with 1/g in place of g.  For a zero-free g of winding zero,
    A R is the identity plus a compact operator.
    """
    return _sie_product(jump._perturbations[1], windows, mode)


def _sie_product(h: CoeffVec, windows, mode: str) -> Callable[[np.ndarray], np.ndarray]:
    """x -> x - compress(h C- x): sie_matvec for h = g - 1, sie_regulator for h = 1/g - 1."""
    big, mult = _multiplication((h,), windows, mode)
    # C- keeps the modes below 0, the first n_minus slots; the FFT pads the rest with zeros
    return lambda x: x + mult(x[:, None, :big.n_minus])


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
