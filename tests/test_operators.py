"""Tests for dense operator assembly on mode windows."""

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    JumpSpec,
    assemble_L0,
    assemble_cauchy_projectors,
    assemble_collocation_ode,
    assemble_finite_section_ode,
    assemble_hankel,
    assemble_mult_toeplitz,
    assemble_regulator,
    assemble_sie,
    choose_zeta,
    evaluate_on_grid,
    interpolate,
    ode_matvec,
    ode_regulator,
    operator_norm_weighted,
    project,
    sie_matvec,
    sie_regulator,
    synth_powerlaw,
    window_data,
    window_slots,
)
from circspec.operators import LOW_MODES, OperatorMatrix, _compression_entries, _symbol_reach, _toeplitz_entries
from circspec.problems import rhp_jump, second_order_operator, third_order_ode, third_order_operator

from oracles import apply_diff_op, dft_matrices, grid_multiply, random_coeffvec


def mode_index(w: BandWindow, j: int) -> int:
    return j + w.n_minus


class TestAssembleL0:
    def test_third_derivative(self):
        spec = DiffOpSpec.from_orders({3: -1.0})
        w = BandWindow(7)
        a = assemble_L0(spec, w)
        assert a.entries[mode_index(w, 1), mode_index(w, 1)] == pytest.approx(1j)
        m = w.modes()
        assert np.allclose(np.diag(a.entries), 1j * m.astype(float) ** 3)

    def test_second_derivative(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        w = BandWindow(9)
        a = assemble_L0(spec, w)
        assert a.entries[mode_index(w, 3), mode_index(w, 3)] == pytest.approx(9.0)
        assert a.entries[mode_index(w, -3), mode_index(w, -3)] == pytest.approx(9.0)

    def test_third_derivative_i_coefficient(self):
        spec = DiffOpSpec.from_orders({3: -1.0j})
        w = BandWindow(9)
        a = assemble_L0(spec, w)
        assert a.entries[mode_index(w, 2), mode_index(w, 2)] == pytest.approx(-8.0)
        assert np.abs(np.diag(a.entries).imag).max() == 0.0


class TestToeplitz:
    def test_identity_symbol(self):
        w = BandWindow(6)
        t = assemble_mult_toeplitz(CoeffVec.from_dict({0: 1.0}), w)
        assert np.array_equal(t.entries, np.eye(6))

    def test_shift_symbol(self):
        w = BandWindow(3)
        t = assemble_mult_toeplitz(CoeffVec.from_dict({1: 0.5j}), w)
        expected = np.zeros((3, 3), complex)
        for r, c in [(1, 0), (2, 1)]:
            expected[r, c] = 0.5j
        assert np.array_equal(t.entries, expected)

    def test_grid_multiplication_oracle(self):
        # matrix action equals truncation of the pointwise product computed
        # on an oversampled grid
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = BandWindow(int(rng.integers(2, 65)))
            h = random_coeffvec(rng, int(rng.integers(1, 20)))
            u = CoeffVec(-w.n_minus, rng.standard_normal(w.N) + 1j * rng.standard_normal(w.N))
            left = assemble_mult_toeplitz(h, w).entries @ u.coeffs
            right = project(grid_multiply(h, u), w).coeffs
            assert np.abs(left - right).max() <= 1e-11


class TestCauchyProjectors:
    def test_mode_masks(self):
        w = BandWindow(6)
        plus, minus = assemble_cauchy_projectors(w)
        u = CoeffVec.from_dict({-1: 2.0, 0: 3.0, 2: 5.0}).windowed(-w.n_minus, w.n_plus)
        cu = plus.entries @ u.coeffs
        cm = minus.entries @ u.coeffs
        m = w.modes()
        assert cu[m == -1] == 0.0 and cu[m == 0] == 3.0 and cu[m == 2] == 5.0
        assert cm[m == -1] == -2.0 and cm[m == 0] == 0.0 and cm[m == 2] == 0.0

    def test_algebra_exact_all_windows(self):
        for n in range(8, 129):
            w = BandWindow(n)
            plus, minus = assemble_cauchy_projectors(w)
            p, m = plus.entries, minus.entries
            eye = np.eye(n)
            assert np.array_equal(p - m, eye)
            assert np.array_equal(p @ p, p)
            assert np.array_equal(m @ m, -m)
            assert not np.any(p @ m)
            assert not np.any(m @ p)


class TestChooseZeta:
    def test_plain_even_derivative(self):
        # symbols -m^2 and m^4 take the value -1 and +1 at m = +-1
        assert choose_zeta(DiffOpSpec.from_orders({2: 1.0})) == 1.0
        assert choose_zeta(DiffOpSpec.from_orders({4: 1.0})) == -1.0

    def test_plain_odd_derivative(self):
        assert choose_zeta(DiffOpSpec.from_orders({3: 1.0})) == 1.0

    def test_scan_negative_laplacian(self):
        # symbols m^2 >= 0: candidate 1 sits on a symbol, -1 clears by 1
        assert choose_zeta(DiffOpSpec.from_orders({2: -1.0})) == -1.0

    def test_scan_skips_near_symbols(self):
        # symbols -m^3: 1, -1 rejected (distance 0 at m = -1, 1), i clears
        zeta = choose_zeta(DiffOpSpec.from_orders({3: -1.0j}))
        assert zeta == 1j


class TestSymbolReach:
    def test_scan_stops_at_the_root_bound(self, monkeypatch):
        # |m^2 - 1e6| <= 2.05 only at |m| = 1000; the bound m^2 - 1e6 = 2.05 puts the
        # scan end at 1000.001, so about 2 * 10^3 symbol values are evaluated
        evaluated = []
        symbol = DiffOpSpec.symbol
        monkeypatch.setattr(DiffOpSpec, "symbol", lambda self, m: evaluated.append(np.size(m)) or symbol(self, m))
        spec = DiffOpSpec.from_orders({2: -1.0, 0: -1e6})
        assert _symbol_reach(spec, 2.05, (1 << 22) + 1) == 1000
        assert 2000 <= sum(evaluated) <= 2100


class TestRegulator:
    def test_diagonal_entries(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        w = BandWindow(9)
        reg = assemble_regulator(spec, -1.0, w)
        m = w.modes()
        assert np.allclose(np.diag(reg.entries), 1.0 / (m.astype(float) ** 2 + 1.0))
        assert reg.entries[mode_index(w, 0), mode_index(w, 0)] == pytest.approx(1.0)

    def test_product_identity(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        w = BandWindow(33)
        reg = assemble_regulator(spec, -1.0, w)
        l0 = assemble_L0(spec, w)
        prod = reg.entries @ (l0.entries - (-1.0) * np.eye(w.N))
        assert np.abs(prod - np.eye(w.N)).max() <= 1e-15

    def test_weighted_norm_formula(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        w = BandWindow(33)
        reg = assemble_regulator(spec, -1.0, w)
        m = w.modes()
        expected = np.max((1.0 + np.abs(m)) ** 2 / np.abs(m.astype(float) ** 2 + 1.0))
        for s in (0.0, 2.0):
            got = operator_norm_weighted(reg, s - 2.0, s)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_collision(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        with pytest.raises(ValueError, match="collides"):
            assemble_regulator(spec, 4.0, BandWindow(9))


class TestFiniteSectionOde:
    def test_pure_diagonal(self):
        spec = DiffOpSpec.from_orders({3: -1.0})
        w = BandWindow(8)
        a = assemble_finite_section_ode(spec, w)
        assert np.array_equal(a.entries, np.diag(spec.symbol(w.modes())))

    def test_constant_variable_coefficient(self):
        c = 2.0 - 0.5j
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: c}),))
        w = BandWindow(8)
        a = assemble_finite_section_ode(spec, w)
        m = w.modes().astype(float)
        assert np.allclose(a.entries, np.diag(m ** 2 + c))

    def test_grid_space_oracle(self):
        rng = np.random.default_rng(31)
        w = BandWindow(24)
        for _ in range(20):
            a0 = random_coeffvec(rng, 5)
            a1 = random_coeffvec(rng, 4)
            spec = DiffOpSpec.from_orders({3: -1.0, 2: 0.7j}, var=(a0, a1))
            u = CoeffVec(-w.n_minus, rng.standard_normal(w.N) + 1j * rng.standard_normal(w.N))
            left = assemble_finite_section_ode(spec, w).entries @ u.coeffs
            right = project(apply_diff_op(spec, u), w).coeffs
            assert np.abs(left - right).max() <= 1e-11


def entrywise_finite_section(spec: DiffOpSpec, w: BandWindow, mode: str = "finite_section") -> np.ndarray:
    """Entry (r, c) = sum_j a_j(m_r - m_c) (i m_c)^j + delta_rc symbol(m_r), one entry at a time.

    a_j(d) is a_j.get(d) for the finite section and a_j.folded(N)[d % N] for collocation.
    """
    m = w.modes()
    sym = spec.symbol(m)
    if mode == "finite_section":
        entry = [a.get for a in spec.var_coeffs]
    else:
        entry = [lambda d, f=a.folded(w.N): f[d % w.N] for a in spec.var_coeffs]
    out = np.zeros((w.N, w.N), dtype=complex)
    for r in range(w.N):
        for c in range(w.N):
            v = sum(a(m[r] - m[c]) * (1j * m[c]) ** j for j, a in enumerate(entry))
            out[r, c] = v + sym[r] if r == c else v
    return out


class TestFiniteSectionField:
    """The compression is assembled real exactly when an order-0 real variable part meets a real symbol."""

    @pytest.mark.parametrize("build", [second_order_operator, third_order_operator])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17])
    def test_shipped_spectrum_operators_assemble_real(self, build, n):
        spec = build(2.51, 17)
        w = BandWindow(n)
        entries = _compression_entries(spec, w)
        assert entries.dtype == np.float64
        assert np.array_equal(entries, entrywise_finite_section(spec, w))
        public = assemble_finite_section_ode(spec, w).entries
        assert np.iscomplexobj(public) and np.array_equal(public, entries)

    @pytest.mark.parametrize("spec", [
        second_order_operator(2.51, 65),
        third_order_operator(2.51, 65),
        DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({-1: -0.0, 0: 0.5, 1: -0.0}),)),
    ], ids=["spectrum2", "spectrum3", "negative-zeros"])
    def test_real_part_of_the_complex_assembly_bit_for_bit(self, spec):
        w = BandWindow(33)
        summed = np.zeros((w.N, w.N), dtype=complex)
        summed += _toeplitz_entries(spec.var_coeffs[0], w)
        summed[np.diag_indices(w.N)] += spec.symbol(w.modes())
        assert _compression_entries(spec, w).tobytes() == np.ascontiguousarray(summed.real).tobytes()

    def test_constant_operator_assembles_real(self):
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 2.75})
        entries = _compression_entries(spec, BandWindow(9))
        assert entries.dtype == np.float64
        assert np.array_equal(entries, np.diag(BandWindow(9).modes() ** 2 + 2.75))

    @pytest.mark.parametrize("spec", [
        DiffOpSpec.from_orders({3: -1.0}),
        DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 2.0 - 0.5j}),)),
        DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({-1: -0.3j, 0: 0.5, 1: 0.3j}),)),
        DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({-1: 0.3j, 0: 0.5, 1: 0.3j}),)),
        DiffOpSpec.from_orders({3: -1.0, 2: 0.7j}, var=(CoeffVec.from_dict({-2: 0.4, 0: 1.0 + 0.2j, 1: -0.3}),
                                                         CoeffVec.from_dict({-1: 0.5j, 1: 0.25}))),
        # real coefficients, but a first-order variable term
        DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 0.5}), CoeffVec.from_dict({1: 0.2}))),
    ], ids=["pure-odd-symbol", "complex-constant", "complex-hermitian", "flip-non-hermitian",
            "first-order-complex", "first-order-real"])
    def test_complex_compressions_stay_complex(self, spec):
        w = BandWindow(9)
        entries = _compression_entries(spec, w)
        assert entries.dtype == np.complex128
        assert np.array_equal(entries, entrywise_finite_section(spec, w))
        assert np.array_equal(assemble_finite_section_ode(spec, w).entries, entries)


class TestCollocationOde:
    @pytest.mark.parametrize("spec", [
        second_order_operator(2.51, 17),
        third_order_operator(2.51, 17),
        third_order_ode(1.51, 17)[0],
        DiffOpSpec.from_orders({3: -1.0, 2: 0.7j}, var=(CoeffVec.from_dict({-11: 0.4, 0: 1.0 + 0.2j, 7: -0.3}),
                                                         CoeffVec.from_dict({-5: 0.5j, 1: 0.25, 9: -0.1j}))),
    ], ids=["spectrum2", "spectrum3", "ode3", "first-order-complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17])
    def test_entries_are_the_folded_coefficients(self, spec, n):
        # collocation is the finite section of the coefficients folded mod N, entry for entry
        w = BandWindow(n)
        assert np.array_equal(assemble_collocation_ode(spec, w).entries, entrywise_finite_section(spec, w, "collocation"))

    def test_constant_coefficient_matches_finite_section(self):
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 1.5}),))
        w = BandWindow(16)
        fs = assemble_finite_section_ode(spec, w).entries
        co = assemble_collocation_ode(spec, w).entries
        assert np.abs(fs - co).max() <= 1e-13

    def test_interior_columns_match_when_band_limited(self):
        # columns whose products stay inside the window see no aliasing
        rng = np.random.default_rng(32)
        band = 3
        a0 = random_coeffvec(rng, band)
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(a0,))
        w = BandWindow(17)
        fs = assemble_finite_section_ode(spec, w).entries
        co = assemble_collocation_ode(spec, w).entries
        m = w.modes()
        interior = (m >= -w.n_minus + band) & (m <= w.n_plus - band)
        assert np.abs((fs - co)[:, interior]).max() <= 1e-13

    def test_against_dense_dft_composition(self):
        # independent assembly: interpolation matrix * diag(samples) * evaluation matrix
        rng = np.random.default_rng(33)
        a0 = random_coeffvec(rng, 20)  # modes beyond the window alias in
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(a0,))
        w = BandWindow(12)
        co = assemble_collocation_ode(spec, w).entries
        e, q = dft_matrices(w)
        samples = np.zeros(w.N, complex)
        x = w.grid()
        for j, c in zip(a0.modes(), a0.coeffs):
            samples += c * np.exp(1j * j * x)
        dense = np.diag(spec.symbol(w.modes())) + q @ np.diag(samples) @ e
        assert np.abs(co - dense).max() <= 1e-12

    def test_wraparound_scale(self):
        # the collocation-minus-truncation difference is driven by the
        # coefficient mass beyond the window
        rng = np.random.default_rng(34)
        w = BandWindow(12)
        a0 = random_coeffvec(rng, 20, scale=0.1)
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(a0,))
        fs = assemble_finite_section_ode(spec, w).entries
        co = assemble_collocation_ode(spec, w).entries
        gap = np.linalg.norm(co - fs, 2)
        outside = np.abs(a0.modes()) > w.n_plus
        tail_l1 = np.abs(a0.coeffs[outside]).sum()
        assert gap <= 2.0 * tail_l1
        assert gap > 0.0


class TestSie:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17])
    def test_collocation_entries_are_the_folded_coefficients(self, n):
        # entry (r, c) = delta_rc + [m_c < 0] (g-1).folded(N)[(m_r - m_c) % N]
        g = rhp_jump(1.51, 0.5, 17).g
        gm1 = CoeffVec(g.j_min, g.coeffs - np.asarray(CoeffVec.from_dict({0: 1.0}).get(g.modes())))
        f = gm1.folded(n)
        w = BandWindow(n)
        m = w.modes()
        expected = np.eye(n, dtype=complex)
        for r in range(n):
            for c in range(n):
                if m[c] < 0:
                    expected[r, c] += f[(m[r] - m[c]) % n]
        assert np.array_equal(assemble_sie(JumpSpec(g), w, "collocation").entries, expected)

    def test_unit_jump_gives_identity(self):
        jump = JumpSpec(CoeffVec.from_dict({0: 1.0}))
        w = BandWindow(10)
        for mode in ("finite_section", "collocation"):
            a = assemble_sie(jump, w, mode)
            assert np.abs(a.entries - np.eye(10)).max() <= 1e-14

    def test_rational_symbol_column_structure(self):
        # g = 1 + eps/z: the column of mode -1 gains +eps at mode -2
        eps = 0.25
        jump = JumpSpec(CoeffVec.from_dict({-1: eps, 0: 1.0}))
        w = BandWindow(8)
        a = assemble_sie(jump, w, "finite_section").entries
        expected = np.eye(8, dtype=complex)
        m = w.modes()
        for c in m[m < 0]:
            r = c - 1
            if r >= -w.n_minus:
                expected[mode_index(w, r), mode_index(w, c)] += eps
        assert np.abs(a - expected).max() <= 1e-14

    def test_against_dense_composition(self):
        # Id - P M(g-1) C- assembled from the tested primitives
        rng = np.random.default_rng(41)
        g = random_coeffvec(rng, 6, scale=0.05)
        g = CoeffVec(g.j_min, g.coeffs + np.asarray(CoeffVec.from_dict({0: 1.0}).get(g.modes())))
        jump = JumpSpec(g)
        w = BandWindow(20)
        gm1 = CoeffVec(g.j_min, g.coeffs - np.asarray(CoeffVec.from_dict({0: 1.0}).get(g.modes())))
        toep = assemble_mult_toeplitz(gm1, w).entries
        _, minus = assemble_cauchy_projectors(w)
        dense = np.eye(w.N) - toep @ minus.entries
        a = assemble_sie(jump, w, "finite_section").entries
        assert np.abs(a - dense).max() <= 1e-14

    def test_collocation_difference_block(self):
        # with the jump band-limited inside the window, collocation minus
        # truncation is a single lower-left corner block built from the
        # negative coefficients of g-1
        rng = np.random.default_rng(42)
        for n in (12, 13):
            w = BandWindow(n)
            band = 4
            h = random_coeffvec(rng, band, scale=0.1)
            g = CoeffVec(h.j_min, h.coeffs + np.asarray(CoeffVec.from_dict({0: 1.0}).get(h.modes())))
            jump = JumpSpec(g)
            fs = assemble_sie(jump, w, "finite_section").entries
            co = assemble_sie(jump, w, "collocation").entries
            diff = co - fs
            m = w.modes()
            expected = np.zeros((n, n), complex)
            for r in m[m >= 0]:
                for c in m[m < 0]:
                    expected[mode_index(w, r), mode_index(w, c)] = h.get(r - c - n)
            assert np.abs(diff - expected).max() <= 1e-13
            # range condition: rows of negative mode vanish
            assert np.abs(diff[m < 0, :]).max() <= 1e-13

    def test_analytic_masked_composition_structure(self):
        # the companion composition through the analytic mask concentrates
        # in the upper-right corner and is nilpotent
        rng = np.random.default_rng(43)
        w = BandWindow(12)
        band = 4
        h = random_coeffvec(rng, band, scale=0.1)
        m = w.modes()
        x = w.grid()
        hvals = np.zeros(w.N, complex)
        for j, c in zip(h.modes(), h.coeffs):
            hvals += c * np.exp(1j * j * x)
        pos = m >= 0
        phases = np.exp(1j * np.outer(x, m[pos]))
        samples = hvals[:, None] * phases
        f = np.fft.fft(samples, axis=0) / w.N
        colloc_part = np.zeros((w.N, w.N), complex)
        colloc_part[:, pos] = f[m % w.N, :]
        toep = np.asarray(h.get(m[:, None] - m[None, :]))
        trunc_part = np.zeros((w.N, w.N), complex)
        trunc_part[:, pos] = toep[:, pos]
        diff = colloc_part - trunc_part
        assert np.abs(diff[m >= 0, :]).max() <= 1e-13   # rows live on negative modes
        assert np.abs(diff[:, m < 0]).max() <= 1e-13    # columns on nonnegative modes
        assert np.abs(diff @ diff).max() <= 1e-13
        for r in m[m < 0]:
            for c in m[m >= 0]:
                assert abs(diff[mode_index(w, r), mode_index(w, c)] - h.get(r - c + w.N)) <= 1e-13


class TestHankel:
    def test_no_positive_modes_gives_zero(self):
        h = CoeffVec.from_dict({-2: 1.0, -1: 0.5, 0: 2.0})
        k = assemble_hankel(h, BandWindow(8))
        assert not np.any(k.entries)

    def test_single_positive_mode(self):
        w = BandWindow(8)
        k = assemble_hankel(CoeffVec.from_dict({2: 1.0}), w)
        expected = np.zeros((8, 8), complex)
        expected[mode_index(w, 1), mode_index(w, -1)] = -1.0
        expected[mode_index(w, 0), mode_index(w, -2)] = -1.0
        assert np.array_equal(k.entries, expected)

    def test_composition_oracle(self):
        rng = np.random.default_rng(51)
        for n in range(2, 65, 7):
            w = BandWindow(n)
            h = random_coeffvec(rng, int(rng.integers(1, 12)))
            plus, minus = assemble_cauchy_projectors(w)
            dense = plus.entries @ assemble_mult_toeplitz(h, w).entries @ minus.entries
            k = assemble_hankel(h, w).entries
            assert np.abs(k - dense).max() <= 1e-14


class TestOperatorNormWeighted:
    def test_identity(self):
        w = BandWindow(9)
        a = OperatorMatrix(w, np.eye(9))
        assert operator_norm_weighted(a, 1.3, 1.3) == pytest.approx(1.0)

    def test_diagonal_formula(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        w = BandWindow(17)
        a = assemble_L0(spec, w)
        m = w.modes().astype(float)
        expected = np.max(m ** 2 / (1.0 + np.abs(m)) ** 2)
        got = operator_norm_weighted(a, 2.0, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < 1.0

    def test_hankel_norm_plateau(self):
        # the negative-to-nonnegative coupling of a decaying symbol has a
        # window-stable weighted norm
        vals = []
        for n in (64, 128, 256):
            w = BandWindow(n)
            h = synth_powerlaw("g", 2.51, w)
            vals.append(operator_norm_weighted(assemble_hankel(h, w), 0.0, 1.0))
        vals = np.array(vals)
        assert vals.max() / vals.min() < 1.05


class TestJumpSpec:
    def test_certifies_positive_minimum(self):
        jump = JumpSpec(CoeffVec.from_dict({-1: 0.25, 0: 1.0}))
        assert 0.7 < jump.min_modulus <= 0.8

    def test_rejects_vanishing_symbol(self):
        with pytest.raises(ValueError, match="vanishes"):
            JumpSpec(CoeffVec.from_dict({0: 1.0, 1: 1.0}))

    def test_uncertified_jump_is_checked_on_the_cap_grid(self):
        # 1.001i - z^40 comes within 0.001 of zero, below 2 pi L / n = 80 pi / n on
        # every doubled grid, so the check ends on GRID_FACTOR * 41 = 656 points;
        # the first grid, 128 points, meets the near-zero and reads 0.001
        g = CoeffVec.from_dict({0: 1.001j, 40: -1.0})
        jump = JumpSpec(g)
        assert jump.winding == 0
        assert jump.min_modulus == np.abs(evaluate_on_grid(g, 656)).min() > 0.03

    @pytest.mark.parametrize("coeffs", [[np.inf], [1.0, np.nan]], ids=["inf", "nan"])
    def test_rejects_non_finite_values(self, coeffs):
        g = CoeffVec(0, np.array(coeffs))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            JumpSpec(g)

    def test_rejects_non_coeffvec(self):
        with pytest.raises(TypeError, match="CoeffVec"):
            JumpSpec([1.0, 0.1])

    def test_equal_jumps_compare_equal(self):
        assert JumpSpec(CoeffVec.from_dict({-1: 0.25, 0: 1.0})) == JumpSpec(CoeffVec(-1, [0.25, 1.0]))
        assert JumpSpec(CoeffVec.from_dict({-1: 0.25, 0: 1.0})) != JumpSpec(CoeffVec(-1, [0.5, 1.0]))


def invert_coeffs(g: CoeffVec, half_width: int, grid: int = 8192) -> CoeffVec:
    """Coefficients of 1/g on -half_width..half_width via a fine product grid."""
    vals = np.zeros(grid, complex)
    x = 2.0 * np.pi * np.arange(grid) / grid
    for j, c in zip(g.modes(), g.coeffs):
        vals += c * np.exp(1j * j * x)
    coeff = np.fft.fft(1.0 / vals) / grid
    modes = np.arange(-half_width, half_width + 1)
    return CoeffVec(-half_width, coeff[modes % grid])


class TestRegulatorComposition:
    def test_composition_identity(self):
        # S(1/g) S(g) = Id + M(1/g - 1) K(g) as dense windows, for a
        # band-limited g supported on nonnegative modes so that no product
        # leaves the window
        n = 128
        w = BandWindow(n)
        g = CoeffVec(0, np.array([1.0, 0.4, 0.25, 0.1], complex))
        ginv = invert_coeffs(g, n - 1)
        s_g = assemble_sie(JumpSpec(g), w, "finite_section").entries
        s_gi = assemble_sie(JumpSpec(ginv), w, "finite_section").entries
        ginv_m1 = CoeffVec(ginv.j_min, ginv.coeffs - np.asarray(CoeffVec.from_dict({0: 1.0}).get(ginv.modes())))
        h = assemble_mult_toeplitz(ginv_m1, w).entries @ assemble_hankel(g, w).entries
        defect = np.linalg.norm(s_gi @ s_g - (np.eye(n) + h), 2)
        assert defect <= 1e-10


class TestCompactPartConvergence:
    def test_window_growth_converges(self):
        # K_N = (Id - M_N(g)^{-1}) C+ M_N(g) C- approaches the version
        # assembled on a 4x window, monotonically in N
        w_ref = BandWindow(512)
        g_ref = synth_powerlaw("gg", 1.51, BandWindow(2 * 512 - 1), epsilon=0.4)

        def compact_part(n):
            w = BandWindow(n)
            t = assemble_mult_toeplitz(g_ref, w).entries
            plus, minus = assemble_cauchy_projectors(w)
            return (np.eye(n) - np.linalg.inv(t)) @ plus.entries @ t @ minus.entries

        k_ref = compact_part(512)
        ref_modes = w_ref.modes()
        gaps = []
        for n in (32, 64, 128):
            k_n = compact_part(n)
            w = BandWindow(n)
            embedded = np.zeros_like(k_ref)
            idx = np.searchsorted(ref_modes, w.modes())
            embedded[np.ix_(idx, idx)] = k_n
            gaps.append(np.linalg.norm(embedded - k_ref, 2))
        assert gaps[0] > gaps[1] > gaps[2]


class TestToeplitzInverseStability:
    def test_inverse_norm_stable_in_window(self):
        # the window compressions of multiplication by the perturbed
        # constant stay uniformly invertible
        g = synth_powerlaw("gg", 1.51, BandWindow(2 * 400 - 1), epsilon=0.01)
        norms = {}
        for n in (200, 400):
            t = assemble_mult_toeplitz(g, BandWindow(n)).entries
            norms[n] = 1.0 / np.linalg.svd(t, compute_uv=False)[-1]
        assert abs(norms[200] - norms[400]) / norms[400] < 0.10


class TestMatrixFree:
    """ode_matvec and sie_matvec apply exactly the matrices the dense assemblers build."""

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 64])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_ode_matches_dense(self, n, mode):
        rng = np.random.default_rng(83 + n)
        # two variable orders, with coefficient windows wider than the small windows
        spec = DiffOpSpec.from_orders(
            {3: -1.0, 0: 0.5},
            var=(random_coeffvec(rng, 20, 0.3), random_coeffvec(rng, 5, 0.1)),
        )
        w = BandWindow(n)
        assemble = assemble_finite_section_ode if mode == "finite_section" else assemble_collocation_ode
        a = assemble(spec, w).entries
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = a @ x
        got = ode_matvec(spec, [w], mode)(x[None])[0]
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(np.abs(a) @ np.abs(x))

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 64])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_sie_matches_dense(self, n, mode):
        rng = np.random.default_rng(89 + n)
        c = 0.2 * (rng.standard_normal(41) + 1j * rng.standard_normal(41))
        c[20] += 1.0
        jump = JumpSpec(CoeffVec(-20, c))
        w = BandWindow(n)
        a = assemble_sie(jump, w, mode).entries
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = sie_matvec(jump, [w], mode)(x[None])[0]
        assert np.linalg.norm(got - a @ x) <= 1e-13 * np.linalg.norm(np.abs(a) @ np.abs(x))

    @pytest.mark.parametrize("n", [9, 41, 129])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_sie_regulator_matches_dense(self, n, mode):
        # R = Id - M(1/g - 1) C- is the SIE compression of the jump 1/g, whose
        # coefficients interpolate 1/g on the grid that certified g
        jump = rhp_jump(1.51, 1.6, 401)
        inv_minus_one = jump._perturbations[1]
        grid = inv_minus_one.coeffs.size
        on_grid = (1.0 + evaluate_on_grid(inv_minus_one, grid)) * evaluate_on_grid(jump.g, grid)
        assert np.abs(on_grid - 1.0).max() <= 1e-13
        inverse = CoeffVec(inv_minus_one.j_min, inv_minus_one.coeffs + (inv_minus_one.modes() == 0))
        w = BandWindow(n)
        dense = assemble_sie(JumpSpec(inverse), w, mode).entries
        columns = sie_regulator(jump, [w], mode)(np.eye(n)).T
        assert np.linalg.norm(columns - dense) <= 1e-14 * np.linalg.norm(dense)

    def test_constant_operator_is_diagonal(self):
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 1.0})
        w = BandWindow(9)
        x = np.arange(9) + 1j
        for mode in ("finite_section", "collocation"):
            assert np.array_equal(ode_matvec(spec, [w], mode)(x[None])[0], spec.symbol(w.modes()) * x)

    @pytest.mark.parametrize("mode, sizes", [("finite_section", (17, 20, 31, 32)), ("finite_section", (5, 8)),
                                             ("collocation", (12, 12)), ("collocation", (17, 20, 31, 32)),
                                             ("collocation", (5, 8)), ("finite_section", (16, 17)),
                                             ("collocation", (9, 17)), ("finite_section", (1, 9, 33, 100)),
                                             ("collocation", (1, 9, 33, 100))])
    def test_group_rows_take_their_own_windows(self, mode, sizes):
        # a group's stack lays each window on the modes of the largest, in the largest's
        # circulant, whatever their own lengths (32 at N = 16, 64 at N = 17); every row gets
        # its own window's product and regulator, with or without the 17-mode low block,
        # and stays zero off its window
        rng = np.random.default_rng(101)
        spec = DiffOpSpec.from_orders({3: -1.0, 0: 0.5}, var=(random_coeffvec(rng, 20, 0.3), random_coeffvec(rng, 5, 0.1)))
        c = 0.2 * (rng.standard_normal(41) + 1j * rng.standard_normal(41))
        c[20] += 1.0
        jump = JumpSpec(CoeffVec(-20, c))
        windows = [BandWindow(n) for n in sizes]
        big, slots = window_slots(windows)
        x = np.zeros((len(windows), big.N), dtype=complex)
        for row, s in zip(x, slots):
            row[s] = rng.standard_normal(s.stop - s.start) + 1j * rng.standard_normal(s.stop - s.start)
        for build in (lambda w: ode_matvec(spec, w, mode), lambda w: ode_regulator(spec, w),
                      lambda w: sie_matvec(jump, w, mode), lambda w: sie_regulator(jump, w, mode)):
            got = build(windows)(x)
            for row, xrow, s, w in zip(got, x, slots, windows):
                want = build([w])(xrow[None, s])[0]
                assert np.linalg.norm(row[s] - want) <= 1e-13 * np.linalg.norm(want)
                assert not np.delete(row, np.arange(s.start, s.stop)).any()

    def test_regulator_group_of_windows_with_and_without_the_low_block(self):
        # windows of 9..16 modes are too small for the 17-mode low block, windows of 17..32
        # modes hold it; in a group of both, each row takes its own window's regulator
        spec = third_order_ode(1.51, 401)[0]
        zeta, inverse = spec._low_regulator
        assert inverse is not None
        for sizes in ((9, 12, 16), (17, 20, 32), (9, 12, 16, 17, 20, 32)):
            windows = [BandWindow(n) for n in sizes]
            big, slots = window_slots(windows)
            x = np.zeros((len(windows), big.N), dtype=complex)
            for row, s in zip(x, slots):
                row[s] = np.arange(s.stop - s.start) + 1j - 2j * np.arange(s.stop - s.start) ** 2
            got = ode_regulator(spec, windows)(x)
            for row, xrow, s, w in zip(got, x, slots, windows):
                want = ode_regulator(spec, [w])(xrow[None, s])[0]
                assert np.linalg.norm(row[s] - want) <= 1e-15 * np.linalg.norm(want)
                diagonal = np.diag(assemble_regulator(spec, zeta, w).entries) * xrow[s]
                assert np.array_equal(want, diagonal) != (w.N >= 2 * LOW_MODES + 1)

    def test_bare_window_is_not_a_group(self):
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 1.0}),))
        jump = JumpSpec(CoeffVec.from_dict({0: 1.0, 1: 0.2}))
        for build in (lambda w: ode_matvec(spec, w), lambda w: ode_regulator(spec, w),
                      lambda w: sie_matvec(jump, w), lambda w: sie_regulator(jump, w)):
            with pytest.raises(TypeError):
                build(BandWindow(8))

    def test_unknown_mode_rejected(self):
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 1.0}),))
        jump = JumpSpec(CoeffVec.from_dict({0: 1.0}))
        with pytest.raises(ValueError, match="mode"):
            ode_matvec(spec, [BandWindow(8)], "nodal")
        with pytest.raises(ValueError, match="mode"):
            sie_matvec(jump, [BandWindow(8)], "nodal")
        with pytest.raises(ValueError, match="mode"):
            sie_regulator(jump, [BandWindow(8)], "nodal")


class TestWindowData:
    """window_data lays the data's compression out on window_slots' stack."""

    @pytest.mark.parametrize("sizes", [(9,), (32,), (641,), (160, 193, 224, 256)],
                             ids=["9", "32", "641", "group-160-256"])
    @pytest.mark.parametrize("data", ["ode3", "rhp"])
    def test_rows_are_the_compressed_data(self, data, sizes):
        # ode3's right-hand side and rhp's g - 1, on modes up to +-640: the 641-mode
        # window folds them, and the group shares the 512-point circulant
        h = third_order_ode(1.51, 641)[1] if data == "ode3" else rhp_jump(1.51, 0.01, 641)._perturbations[0]
        windows = [BandWindow(n) for n in sizes]
        big, slots = window_slots(windows)
        truncated, truncated_slots = window_data(h, windows, "finite_section")
        folded, folded_slots = window_data(h, windows, "collocation")
        assert truncated.shape == folded.shape == (len(windows), big.N)
        assert truncated_slots == folded_slots == slots
        norm = np.abs(h.coeffs).sum()
        for t_row, f_row, s, w in zip(truncated, folded, slots, windows):
            assert np.array_equal(t_row[s], project(h, w).coeffs)
            assert np.array_equal(f_row[s], h.folded(w.N)[w.modes() % w.N])
            # the FFT round trip the collocation data took before
            grid = interpolate(evaluate_on_grid(h, w.N)).coeffs
            assert np.abs(f_row[s] - grid).max() <= 1e-15 * norm
            for row in (t_row, f_row):
                assert not np.delete(row, np.arange(s.start, s.stop)).any()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            window_data(CoeffVec.from_dict({0: 1.0}), [BandWindow(8)], "nodal")


class TestJumpWinding:
    @pytest.mark.parametrize("coeffs, expected", [
        ({0: 1.0, 1: 0.3}, 0), ({1: 1.0}, 1), ({-1: 1.0, 0: 0.2}, -1), ({-2: 1.0}, -2), ({2: 1.0, 0: 0.5}, 2),
    ])
    def test_recorded_at_construction(self, coeffs, expected):
        jump = JumpSpec(CoeffVec.from_dict(coeffs))
        assert jump.winding == expected
