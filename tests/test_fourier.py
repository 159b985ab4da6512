"""Tests for the coefficient-space core: projections, interpolation, norms."""

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    diff_norm,
    evaluate_on_grid,
    interpolate,
    project,
    sobolev_norm,
    synth_powerlaw,
)

from oracles import grid_multiply, random_coeffvec


class TestBandWindow:
    def test_split_identity(self):
        for n in range(1, 65):
            w = BandWindow(n)
            assert w.n_plus + w.n_minus + 1 == n
            assert len(w.modes()) == n
            assert w.modes()[0] == -w.n_minus
            assert w.modes()[-1] == w.n_plus

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BandWindow(0)


class TestCoeffVec:
    def test_coefficients_are_read_only(self):
        u = CoeffVec.from_dict({0: 1.0, 2: 3.0})
        with pytest.raises(ValueError):
            u.coeffs[0] = 5.0

    def test_from_dict_window(self):
        u = CoeffVec.from_dict({-3: 1.0, 4: 2.0})
        assert u.j_min == -3 and u.j_max == 4
        assert u.get(0) == 0.0 and u.get(100) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoeffVec(0, np.array([]))

    def test_equality_compares_window_and_coefficients(self):
        u = CoeffVec.from_dict({-1: 0.5, 0: 1.0, 1: 2j})
        assert u == CoeffVec(-1, [0.5, 1.0, 2j])
        assert u != CoeffVec(-1, [0.5, 1.0, 3j])
        assert u != CoeffVec(0, [0.5, 1.0, 2j])
        assert u != 1


class TestProject:
    def test_truncation(self):
        u = CoeffVec.from_dict({-1: 2.0, 0: 1.0, 5: 3.0})
        p = project(u, BandWindow(4))
        assert p.j_min == -2 and p.j_max == 1
        assert p.get(-1) == 2.0 and p.get(0) == 1.0
        assert p.get(-2) == 0.0 and p.get(1) == 0.0

    def test_identity_on_range(self):
        u = CoeffVec.from_dict({-2: 1.0 + 1j, 0: -3.0, 1: 0.5})
        p = project(u, BandWindow(5))
        assert np.allclose(np.asarray(p.get(u.modes())), u.coeffs)

    def test_idempotent_and_nonincreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = random_coeffvec(rng, int(rng.integers(1, 40)))
            w = BandWindow(int(rng.integers(1, 50)))
            p = project(u, w)
            pp = project(p, w)
            assert np.array_equal(p.coeffs, pp.coeffs)
            for s in (-1.5, 0.0, 2.0):
                # equality is exact up to summation-order roundoff
                assert sobolev_norm(p, s) <= sobolev_norm(u, s) * (1.0 + 1e-14)

    def test_tail_rate_uniform_ratio(self):
        # ||u - P_N u||_0 / (N^-2 ||u||_2) stays within a factor of 10
        # across N for a power-law u lying in the order-2 space
        u = synth_powerlaw("g", 2.51, BandWindow(8193))
        norm_s = sobolev_norm(u, 2.0)
        ratios = []
        for n in [16, 32, 64, 128, 256, 512, 1024]:
            w = BandWindow(n)
            err = diff_norm(u, project(u, w), 0.0)
            ratios.append(err / (n ** (0.0 - 2.0) * norm_s))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 10.0

    def test_interpolation_vs_projection_rate(self):
        u = synth_powerlaw("g", 2.51, BandWindow(8193))
        norm_s = sobolev_norm(u, 2.0)
        ratios = []
        for n in [16, 32, 64, 128, 256, 512, 1024]:
            w = BandWindow(n)
            i_n = interpolate(evaluate_on_grid(u, n))
            gap = diff_norm(i_n, project(u, w), 0.0)
            ratios.append(gap / (n ** (0.0 - 2.0) * norm_s))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 10.0


class TestInterpolate:
    def test_band_limited_exact(self):
        vals = evaluate_on_grid(CoeffVec.from_dict({1: 1.0}), 8)
        v = interpolate(vals)
        expected = np.zeros(8, complex)
        expected[np.where(BandWindow(8).modes() == 1)] = 1.0
        assert np.allclose(v.coeffs, expected, atol=1e-14)

    def test_aliases_high_mode(self):
        # mode N+1 folds onto mode 1
        vals = evaluate_on_grid(CoeffVec.from_dict({9: 1.0}), 8)
        v = interpolate(vals)
        assert abs(v.get(1) - 1.0) < 1e-13
        others = [v.get(j) for j in v.modes() if j != 1]
        assert np.abs(others).max() < 1e-13

    def test_alias_superposition(self):
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        vals = evaluate_on_grid(CoeffVec.from_dict({1: a, 9: b}), 8)
        v = interpolate(vals)
        assert abs(v.get(1) - (a + b)) < 1e-13

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            interpolate(np.array([]))

    def test_alias_formula_random(self):
        # interpolate(evaluate_on_grid(u, N)) at mode j equals the fold
        # sum_p u_{pN+j}, computed here mode by mode
        rng = np.random.default_rng(11)
        for _ in range(200):
            half = int(rng.integers(1, 30))
            n = int(rng.integers(1, 24))
            u = random_coeffvec(rng, half)
            v = interpolate(evaluate_on_grid(u, n))
            for j in v.modes():
                fold = sum(u.get(p * n + j) for p in range(-(half // n + 2), half // n + 3))
                assert abs(v.get(j) - fold) <= 1e-12


class TestEvaluateOnGrid:
    def test_constant(self):
        vals = evaluate_on_grid(CoeffVec.from_dict({0: 2.5 - 1j}), 7)
        assert np.allclose(vals, 2.5 - 1j)

    def test_single_mode(self):
        vals = evaluate_on_grid(CoeffVec.from_dict({1: 1.0}), 4)
        assert np.allclose(vals, [1.0, 1j, -1.0, -1j], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 64))
            w = BandWindow(n)
            u = CoeffVec(-w.n_minus, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            v = interpolate(evaluate_on_grid(u, n))
            rel = np.abs(v.coeffs - u.coeffs).max() / np.abs(u.coeffs).max()
            assert rel <= 1e-13


class TestSobolevNorm:
    def test_mode_zero_weight(self):
        u = CoeffVec.from_dict({0: 3.0})
        for s in (-2.0, 0.0, 1.0, 3.7):
            assert sobolev_norm(u, s) == pytest.approx(3.0)

    def test_single_mode_weight(self):
        assert sobolev_norm(CoeffVec.from_dict({2: 1.0}), 1.0) == pytest.approx(3.0)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(5)
        u = random_coeffvec(rng, 20)
        orders = [-2.0, -0.5, 0.0, 0.5, 2.0]
        vals = [sobolev_norm(u, s) for s in orders]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_l2_at_zero(self):
        rng = np.random.default_rng(6)
        u = random_coeffvec(rng, 15)
        assert sobolev_norm(u, 0.0) == pytest.approx(float(np.linalg.norm(u.coeffs)))

    def test_slow_tail_partial_sums(self):
        # order-1 norm of the signed power-law with alpha = 1.51: finite
        # (alpha > t + 1/2) but with a very slow tail.  Values frozen from a
        # direct partial-sum oracle; the two windows differ by ~8%, which the
        # midpoint tail integral predicts to well under 1%.
        vals = {}
        for half in (10 ** 5, 10 ** 6):
            u = synth_powerlaw("h", 1.51, BandWindow(2 * half + 1))
            vals[half] = sobolev_norm(u, 1.0)
        assert vals[10 ** 5] == pytest.approx(4.552421381998216, rel=1e-12)
        assert vals[10 ** 6] == pytest.approx(4.929460909150602, rel=1e-12)
        # tail integral of (1+x)^(-1.02) from J+1/2, per side
        tail = lambda j: (1.0 + j + 0.5) ** (-0.02) / 0.02
        predicted = 2.0 * (tail(10 ** 5) - tail(10 ** 6))
        measured = vals[10 ** 6] ** 2 - vals[10 ** 5] ** 2
        assert measured == pytest.approx(predicted, rel=1e-2)
        # with the tail correction added, the two windows agree to 4+ digits
        corrected = [np.sqrt(vals[h] ** 2 + 2.0 * tail(h)) for h in (10 ** 5, 10 ** 6)]
        assert corrected[0] == pytest.approx(corrected[1], rel=1e-4)


class TestDiffNorm:
    def test_self_zero(self):
        rng = np.random.default_rng(9)
        u = random_coeffvec(rng, 8)
        assert diff_norm(u, u, 1.3) == 0.0

    def test_disjoint_modes(self):
        u = CoeffVec.from_dict({0: 1.0})
        v = CoeffVec.from_dict({1: 1.0})
        assert diff_norm(u, v, 0.0) == pytest.approx(np.sqrt(2.0))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a = random_coeffvec(rng, int(rng.integers(1, 12)))
            b = random_coeffvec(rng, int(rng.integers(1, 12)))
            c = random_coeffvec(rng, int(rng.integers(1, 12)))
            s = float(rng.uniform(-2, 2))
            assert diff_norm(a, c, s) <= diff_norm(a, b, s) + diff_norm(b, c, s) + 1e-12


class TestSynthPowerlaw:
    def test_plain_powerlaw(self):
        u = synth_powerlaw("g", 2.51, BandWindow(9))
        assert u.get(0) == pytest.approx(1.0)
        assert u.get(3) == pytest.approx(4.0 ** -2.51)
        assert u.get(-3) == pytest.approx(4.0 ** -2.51)

    def test_signed_powerlaw(self):
        u = synth_powerlaw("h", 1.51, BandWindow(9))
        assert u.get(0) == pytest.approx(1.0)
        assert u.get(-2) == pytest.approx(-(3.0 ** -1.51))
        assert u.get(2) == pytest.approx(3.0 ** -1.51)

    def test_perturbed_constant(self):
        u = synth_powerlaw("gg", 1.51, BandWindow(9), epsilon=0.01)
        assert u.get(0) == pytest.approx(1.0)
        assert u.get(1) == pytest.approx(0.01 * 2.0 ** -1.51)

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            synth_powerlaw("g", 0.5, BandWindow(9))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_powerlaw("bogus", 2.0, BandWindow(9))


class TestProductNorm:
    def test_bounded_submultiplicativity(self):
        # ||uv||_s <= C ||u||_s ||v||_s for s = 1 holds with a moderate
        # fitted C, but not with C = 1
        witness_u = CoeffVec.from_dict({0: 1.0, 1: 1.0})
        prod = grid_multiply(witness_u, witness_u)
        ratio0 = sobolev_norm(prod, 1.0) / sobolev_norm(witness_u, 1.0) ** 2
        assert ratio0 > 1.0
        rng = np.random.default_rng(12)
        worst = ratio0
        for _ in range(200):
            u = random_coeffvec(rng, int(rng.integers(1, 10)))
            v = random_coeffvec(rng, int(rng.integers(1, 10)))
            r = sobolev_norm(grid_multiply(u, v), 1.0) / (sobolev_norm(u, 1.0) * sobolev_norm(v, 1.0))
            worst = max(worst, r)
        assert worst < 10.0
