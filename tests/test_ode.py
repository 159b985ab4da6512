"""Tests for the periodic differential equation solvers."""

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    SolveError,
    assemble_collocation_ode,
    assemble_finite_section_ode,
    diff_norm,
    evaluate_on_grid,
    exact_constant_solve,
    interpolate,
    project,
    solve_ode,
    sobolev_norm,
)
from circspec.problems import third_order_ode

from oracles import apply_diff_op


class TestDiagonalSolves:
    def test_third_derivative_single_mode(self):
        spec = DiffOpSpec.from_orders({3: -1.0})
        f = CoeffVec.from_dict({1: 1.0})
        u = solve_ode(spec, f, BandWindow(9))
        assert abs(u.get(1) - (-1j)) <= 1e-14

    def test_shifted_laplacian_through_constant_order(self):
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 1.0})
        for m in (-3, 0, 2):
            f = CoeffVec.from_dict({m: 1.0})
            u = solve_ode(spec, f, BandWindow(9))
            assert abs(u.get(m) - 1.0 / (m ** 2 + 1.0)) <= 1e-14

    def test_shifted_laplacian_through_variable_constant(self):
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 1.0}),))
        for m in (-3, 0, 2):
            f = CoeffVec.from_dict({m: 1.0})
            u = solve_ode(spec, f, BandWindow(9))
            assert abs(u.get(m) - 1.0 / (m ** 2 + 1.0)) <= 1e-13


class TestExactConstantSolve:
    def test_constant_mode(self):
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 1.0})
        u = exact_constant_solve(spec, CoeffVec.from_dict({0: 1.0}))
        assert u.get(0) == pytest.approx(1.0)

    def test_single_mode_division(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        u = exact_constant_solve(spec, CoeffVec.from_dict({3: 6.0}))
        assert u.get(3) == pytest.approx(6.0 / 9.0)

    def test_vanishing_symbol_names_mode(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        with pytest.raises(SolveError, match="mode 0"):
            exact_constant_solve(spec, CoeffVec.from_dict({0: 1.0, 3: 1.0}))

    def test_rejects_variable_part(self):
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({1: 1.0}),))
        with pytest.raises(ValueError):
            exact_constant_solve(spec, CoeffVec.from_dict({0: 1.0}))

    def test_oracle_equivalence(self):
        # the window solver on a constant-coefficient operator agrees with
        # diagonal division
        rng = np.random.default_rng(61)
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 1.0})
        for n in (8, 16, 33, 64, 128, 256):
            w = BandWindow(n)
            f = CoeffVec(-w.n_minus, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            u = solve_ode(spec, f, w)
            exact = exact_constant_solve(spec, f)
            rel = diff_norm(u, exact, 0.0) / sobolev_norm(exact, 0.0)
            assert rel <= 1e-12


class TestGalerkinConsistency:
    def test_residual_vanishes_inside_window(self):
        # recompute the residual with products on an oversampled grid; its
        # coefficients inside the window must vanish
        spec, rhs = third_order_ode(1.51, 33)
        w = BandWindow(33)
        u = solve_ode(spec, rhs, w)
        lu = apply_diff_op(spec, u)
        modes = w.modes()
        resid = np.asarray(lu.get(modes)) - np.asarray(rhs.get(modes))
        assert np.linalg.norm(resid) <= 1e-9 * sobolev_norm(rhs, 0.0)


class TestCollocation:
    def test_matches_finite_section_for_constant_coefficient(self):
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 2.0}),))
        f = CoeffVec.from_dict({-2: 1.0, 1: 0.5j})
        w = BandWindow(16)
        u_fs = solve_ode(spec, f, w, mode="finite_section")
        u_co = solve_ode(spec, f, w, mode="collocation")
        assert diff_norm(u_fs, u_co, 0.0) <= 1e-13

    def test_gap_shrinks_with_window(self):
        spec, rhs = third_order_ode(1.51, 257)
        gaps = []
        for n in (32, 64, 128):
            w = BandWindow(n)
            u_fs = solve_ode(spec, rhs, w, mode="finite_section")
            u_co = solve_ode(spec, rhs, w, mode="collocation")
            gaps.append(diff_norm(u_fs, u_co, 0.0))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gap_slope_at_interpolation_rate(self):
        # the interpolation-vs-truncation gap is limited by the data
        # regularity: for order-1 data measured at order 0 it must decay at
        # least like N^(0-1), with slack for the fit
        spec, rhs = third_order_ode(1.51, 513)
        ns = [32, 48, 64, 96, 128]
        gaps = []
        for n in ns:
            w = BandWindow(n)
            u_fs = solve_ode(spec, rhs, w, mode="finite_section")
            u_co = solve_ode(spec, rhs, w, mode="collocation")
            gaps.append(diff_norm(u_fs, u_co, 0.0))
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert slope <= (0.0 - 1.0) + 0.3


class TestFailureModes:
    def test_singular_diagonal_reports_condition(self):
        # pure third derivative: symbol vanishes at mode zero
        spec = DiffOpSpec.from_orders({3: -1.0})
        f = CoeffVec.from_dict({0: 1.0, 1: 1.0})
        with pytest.raises(SolveError, match="condition"):
            solve_ode(spec, f, BandWindow(9))

    def test_unknown_mode_rejected(self):
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 1.0})
        with pytest.raises(ValueError, match="mode"):
            solve_ode(spec, CoeffVec.from_dict({0: 1.0}), BandWindow(9), mode="nodal")

    def test_condition_cap_is_configurable(self):
        # -d^2 + 1 at N=9 has condition ~ 17; a cap below that trips the gate
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 1.0})
        f = CoeffVec.from_dict({1: 1.0})
        solve_ode(spec, f, BandWindow(9), cond_cap=1e3)
        with pytest.raises(SolveError, match="condition estimate"):
            solve_ode(spec, f, BandWindow(9), cond_cap=2.0)


class TestConvergenceBehavior:
    def test_errors_decrease_against_reference(self):
        spec, rhs = third_order_ode(1.51, 513)
        ref = solve_ode(spec, rhs, BandWindow(513))
        errs = [diff_norm(ref, solve_ode(spec, rhs, BandWindow(n)), 0.0) for n in (32, 64, 128)]
        assert errs[0] > errs[1] > errs[2]
        # fourth-order-ish decay: halving the resolution costs ~2^4
        assert errs[0] / errs[2] > 2.0 ** 6


class TestMatrixFreeSolve:
    @pytest.mark.parametrize("n", [8, 33, 128, 401])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_agrees_with_dense_lu(self, n, mode):
        spec, rhs = third_order_ode(1.51, 401)
        w = BandWindow(n)
        if mode == "finite_section":
            a = assemble_finite_section_ode(spec, w).entries
            f = project(rhs, w).coeffs
        else:
            a = assemble_collocation_ode(spec, w).entries
            f = interpolate(evaluate_on_grid(rhs, n)).coeffs
        dense = np.linalg.solve(a, f)
        u = solve_ode(spec, rhs, w, mode=mode).coeffs
        assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_reference_beyond_dense_reach(self):
        # a dense matrix at this size would take 4.3 GB.  The gate still
        # measures the unregulated matrix, whose condition grows like N^3 and
        # passes 1e12 here, so the cap is raised for this well-posed problem
        n = 2 ** 14 + 1
        spec, rhs = third_order_ode(1.51, n)
        u = solve_ode(spec, rhs, BandWindow(n), cond_cap=1e13)
        coarse = solve_ode(spec, rhs, BandWindow(401))
        assert diff_norm(u, coarse, 0.0) <= 1e-6
