"""Tests for the periodic differential equation solvers."""

import re

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
    solve_ode_windows,
    sobolev_norm,
)
import circspec.ode
import circspec.operators
from circspec.operators import LOW_MODES, choose_zeta, ode_regulator
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

    def test_mode_and_group_rejected_before_the_dead_mode(self):
        # -d^3 with data at its dead mode 0 fails the dead-mode check, but only after the
        # mode and then the group of windows are checked
        spec = DiffOpSpec.from_orders({3: -1.0})
        f = CoeffVec.from_dict({0: 1.0, 1: 1.0})
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_ode(spec, f, BandWindow(9), mode="nodal")
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_ode_windows(spec, f, [], mode="nodal")
        with pytest.raises(ValueError, match="a group needs at least one window"):
            solve_ode_windows(spec, f, [])

    def test_condition_cap_is_configurable(self):
        # -d^2 + 1 at N=9, regulated by (L0 + 1)^(-1), is (m^2 + 1) / (m^2 + 2):
        # data on all nine modes gives the estimate (17/18) / (1/2) = 1.889
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 1.0})
        f = CoeffVec.from_dict({m: 1.0 for m in range(-4, 5)})
        solve_ode(spec, f, BandWindow(9), cond_cap=1e3)
        with pytest.raises(SolveError, match="condition estimate 1.889"):
            solve_ode(spec, f, BandWindow(9), cond_cap=1.5)

    @pytest.mark.parametrize("n", [9, 64])
    def test_dead_mode_avoided(self, n):
        # the symbol i m^3 of -d^3 vanishes at m = 0; data off it is solved
        # with zero there, in both modes
        spec = DiffOpSpec.from_orders({3: -1.0})
        expected = {1: -1j, 2: -1j / 8}
        for mode in ("finite_section", "collocation"):
            u = solve_ode(spec, CoeffVec.from_dict({1: 1.0, 2: 1.0}), BandWindow(n), mode=mode)
            assert all(abs(u.get(m) - expected.get(m, 0.0)) <= 1e-14 for m in BandWindow(n).modes())

    @pytest.mark.parametrize("n", [9, 64])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_small_dead_mode_data_reported(self, n, mode):
        # 1e-6 at the dead mode is data, not interpolation roundoff
        spec = DiffOpSpec.from_orders({3: -1.0})
        message = "condition estimate inf (symbol vanishes at mode 0 with nonzero data)"
        with pytest.raises(SolveError, match=re.escape(message)):
            solve_ode(spec, CoeffVec.from_dict({0: 1e-6, 1: 1.0}), BandWindow(n), mode=mode)

    @pytest.mark.parametrize("n", [9, 64])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_dead_mode_reported(self, n, mode):
        spec = DiffOpSpec.from_orders({3: -1.0})
        message = "condition estimate inf (symbol vanishes at mode 0 with nonzero data)"
        with pytest.raises(SolveError, match=re.escape(message)):
            solve_ode(spec, CoeffVec.from_dict({0: 1.0, 1: 1.0}), BandWindow(n), mode=mode)

    @pytest.mark.parametrize("n", [9, 65])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_singular_regulated_compression(self, n, mode):
        # -d^2 with the -1 as a variable part: m^2 - 1 vanishes at m = +-1,
        # and the gate must reject data there although no dead-mode check runs
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: -1.0}),))
        for data in ({1: 1.0}, {0: 1.0, 1: 1.0}):
            with pytest.raises(SolveError, match="condition estimate"):
                solve_ode(spec, CoeffVec.from_dict(data), BandWindow(n), mode=mode)
        u = solve_ode(spec, CoeffVec.from_dict({0: 1.0, 2: 1.0}), BandWindow(n), mode=mode)
        expected = {0: -1.0, 2: 1.0 / 3.0}
        assert all(abs(u.get(m) - expected.get(m, 0.0)) <= 1e-12 for m in BandWindow(n).modes())


class TestConvergenceBehavior:
    def test_errors_decrease_against_reference(self):
        spec, rhs = third_order_ode(1.51, 513)
        ref = solve_ode(spec, rhs, BandWindow(513))
        errs = [diff_norm(ref, solve_ode(spec, rhs, BandWindow(n)), 0.0) for n in (32, 64, 128)]
        assert errs[0] > errs[1] > errs[2]
        # fourth-order-ish decay: halving the resolution costs ~2^4
        assert errs[0] / errs[2] > 2.0 ** 6


def assert_matches_dense_lu(spec, rhs, n, mode, rtol=1e-12):
    """solve_ode at window size n agrees with np.linalg.solve of the dense compression to rtol."""
    w = BandWindow(n)
    if mode == "finite_section":
        a = assemble_finite_section_ode(spec, w).entries
        f = project(rhs, w).coeffs
    else:
        a = assemble_collocation_ode(spec, w).entries
        f = interpolate(evaluate_on_grid(rhs, n)).coeffs
    dense = np.linalg.solve(a, f)
    u = solve_ode(spec, rhs, w, mode=mode).coeffs
    assert np.linalg.norm(u - dense) <= rtol * np.linalg.norm(dense)


class TestMatrixFreeSolve:
    @pytest.mark.parametrize("n", [8, 33, 128, 401])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_agrees_with_dense_lu(self, n, mode):
        spec, rhs = third_order_ode(1.51, 401)
        assert_matches_dense_lu(spec, rhs, n, mode)

    @pytest.mark.parametrize("const, n", [({2: 1.0}, 17), ({4: 1.0}, 33), ({2: -1.0, 0: -9999.0}, 301)],
                             ids=["d2", "d4", "minus-d2-minus-9999"])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_symbol_near_small_shifts(self, const, n, mode):
        # each symbol takes a value in {1, -1}: -m^2 and m^4 at m = +-1, m^2 - 9999 at m = +-100
        g = CoeffVec.from_dict({-2: 0.1, -1: 0.2j, 0: 0.5, 1: -0.1j, 3: 0.05})
        rhs = CoeffVec.from_dict({-4: 0.3, -1: 1.0, 0: 2.0, 2: 0.5j, 7: 0.1})
        assert_matches_dense_lu(DiffOpSpec.from_orders(const, var=(g,)), rhs, n, mode)

    def test_reference_beyond_dense_reach(self):
        # a dense matrix at this size would take 4.3 GB
        n = 2 ** 14 + 1
        spec, rhs = third_order_ode(1.51, n)
        u = solve_ode(spec, rhs, BandWindow(n))
        coarse = solve_ode(spec, rhs, BandWindow(401))
        assert diff_norm(u, coarse, 0.0) <= 1e-6


class TestWindowStacks:
    @pytest.mark.parametrize("mode, sizes", [("finite_section", (33, 40, 50, 64)), ("finite_section", (9, 16)),
                                             ("collocation", (48, 48)), ("finite_section", (9, 16, 17, 40)),
                                             ("collocation", (9, 16, 17, 40))])
    def test_rows_match_their_single_solves(self, mode, sizes):
        # the windows of a stack may have any circulant lengths, and may straddle the ODE
        # low block's 17 modes; each row is its own solve
        spec, rhs = third_order_ode(1.51, 129)
        got = solve_ode_windows(spec, rhs, [BandWindow(n) for n in sizes], mode)
        for u, n in zip(got, sizes):
            want = solve_ode(spec, rhs, BandWindow(n), mode)
            assert u.j_min == want.j_min
            assert np.linalg.norm(u.coeffs - want.coeffs) <= 1e-14 * np.linalg.norm(want.coeffs)

    def test_first_failing_window_raises(self):
        # -d^2 + 25 vanishes at m = +-5: the 10-mode window holds mode -5, the 9-mode one does not
        spec = DiffOpSpec.from_orders({2: 1.0, 0: 25.0})
        f = CoeffVec.from_dict({m: 1.0 for m in range(-6, 7)})
        with pytest.raises(SolveError, match=r"^finite_section solve at N=10: .*mode -5"):
            solve_ode_windows(spec, f, [BandWindow(9), BandWindow(10), BandWindow(12)])


class TestTwoLevelRegulator:
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_at_most_seven_products_per_solve(self, monkeypatch, mode):
        # the diagonal regulator alone took 14 products (13 Arnoldi steps and
        # the residual check) at every N
        calls = []
        matvec = circspec.ode.ode_matvec

        def counting(*args, **kwargs):
            product = matvec(*args, **kwargs)
            return lambda x: calls.append(1) or product(x)

        monkeypatch.setattr(circspec.ode, "ode_matvec", counting)
        spec, rhs = third_order_ode(1.51, 2001)
        for n in (33, 128, 401, 2001):
            calls.clear()
            solve_ode(spec, rhs, BandWindow(n), mode=mode)
            assert len(calls) <= 7, n

    @pytest.mark.parametrize("g0, uses_block", [(0.0, False), (1e-6, False), (2.0, True)])
    @pytest.mark.parametrize("n", [41, 129])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_low_block_or_fallback_matches_dense_lu(self, g0, uses_block, n, mode):
        # -d^2 - 1 + g: g's modes +-20 do not couple inside |m| <= 8, so the low
        # block is diagonal with smallest singular value |g0| at m = +-1, and 1
        # at m = 0 for g0 = 2; below 1/2 the diagonal regulator runs alone
        # (test_regulator_matches_dense checks which)
        spec = minus_d2_minus_1_plus_g(g0)
        rhs = CoeffVec.from_dict({-1: 1.0, 1: 0.5j, 19: 0.3})
        assert_matches_dense_lu(spec, rhs, n, mode, rtol=1e-9)

    @pytest.mark.parametrize("case, uses_block", [(0.0, False), (1e-6, False), (2.0, True), ("ode3", True)],
                             ids=["g0=0", "g0=1e-6", "g0=2", "ode3"])
    @pytest.mark.parametrize("n", [9, 41, 129])
    def test_regulator_matches_dense(self, case, uses_block, n):
        # R's columns are those of diag(1 / (sym - zeta)) with the inverse of
        # the 17-mode compression on its slots when the block applies
        spec = third_order_ode(1.51, 401)[0] if case == "ode3" else minus_d2_minus_1_plus_g(case)
        w = BandWindow(n)
        dense = np.diag(1.0 / (spec.symbol(w.modes()) - choose_zeta(spec)))
        if uses_block and n >= 2 * LOW_MODES + 1:
            low = assemble_finite_section_ode(spec, BandWindow(2 * LOW_MODES + 1)).entries
            slots = slice(w.n_minus - LOW_MODES, w.n_minus + LOW_MODES + 1)
            dense[slots, slots] = np.linalg.inv(low)
        columns = ode_regulator(spec, [w])(np.eye(n)).T
        assert np.linalg.norm(columns - dense) <= 1e-14 * np.linalg.norm(dense)

    def test_regulator_built_once_per_operator(self, monkeypatch):
        # the shift and the low block depend only on the operator
        calls = {"assemble_finite_section_ode": 0, "choose_zeta": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(circspec.operators, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(circspec.operators, name, counting)
        spec, rhs = third_order_ode(1.51, 401)
        for mode in ("finite_section", "collocation"):
            for n in (33, 128, 401):
                solve_ode(spec, rhs, BandWindow(n), mode=mode)
        assert calls == {"assemble_finite_section_ode": 1, "choose_zeta": 1}


class TestUniformStability:
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_regulated_operator_stays_well_conditioned(self, monkeypatch, mode):
        # A R is the identity plus a compact operator: its estimate (1.06 to 1.17)
        # and the Arnoldi steps, every product but the residual check, stay flat in N
        calls = []
        matvec = circspec.ode.ode_matvec

        def counting(*args, **kwargs):
            product = matvec(*args, **kwargs)
            return lambda x: calls.append(1) or product(x)

        monkeypatch.setattr(circspec.ode, "ode_matvec", counting)
        spec, rhs = third_order_ode(1.51, 20001)
        for n in (33, 401, 2001, 20001):
            calls.clear()
            solve_ode(spec, rhs, BandWindow(n), mode=mode, cond_cap=1.25)
            assert len(calls) - 1 <= 6, n


def minus_d2_minus_1_plus_g(g0):
    """-d^2 - 1 + g with g = 0.1 e^{-20 i theta} + g0 + 0.1 e^{20 i theta}."""
    return DiffOpSpec.from_orders({2: -1.0, 0: -1.0}, var=(CoeffVec.from_dict({-20: 0.1, 0: g0, 20: 0.1}),))
