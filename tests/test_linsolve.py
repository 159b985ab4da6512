"""Tests for the regulated GMRES solve behind solve_ode and solve_rhp."""

import numpy as np
import pytest

from circspec import SolveError
from circspec.linsolve import MAX_ITER, solve_checked


class TestSolveChecked:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(101)
        n = 60
        a = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_checked(lambda v: a @ v, f)
        assert np.linalg.norm(x - np.linalg.solve(a, f)) <= 1e-12 * np.linalg.norm(x)

    def test_regulator_ratio_scales_condition(self):
        # with R the exact inverse, GMRES sees the identity and the estimate
        # is R's exact condition number max|d| / min|d| = 40
        d = np.linspace(1.0, 40.0, 16) + 0j
        f = np.ones(16, dtype=complex)
        x = solve_checked(lambda v: d * v, f, (lambda v: v / d, 40.0), cond_cap=41.0)
        assert np.allclose(x, f / d, rtol=1e-14)
        with pytest.raises(SolveError, match="condition estimate 4.0"):
            solve_checked(lambda v: d * v, f, (lambda v: v / d, 40.0), cond_cap=39.0)

    def test_singular_operator_reports_condition(self):
        d = np.array([0.0, 1.0, 2.0, 3.0], dtype=complex)
        with pytest.raises(SolveError, match="condition estimate"):
            solve_checked(lambda v: d * v, np.ones(4, dtype=complex))

    def test_iteration_cap_fails_on_residual(self):
        # the cyclic shift is unitary, but GMRES makes no progress on it
        # before N steps, so the capped solve must fail the residual check
        n = MAX_ITER + 50
        f = np.zeros(n, dtype=complex)
        f[0] = 1.0
        with pytest.raises(SolveError, match=f"residual .* after {MAX_ITER} GMRES iterations"):
            solve_checked(lambda v: np.roll(v, 1), f)

    def test_zero_rhs_returns_zero(self):
        x = solve_checked(lambda v: v, np.zeros(5, dtype=complex))
        assert np.array_equal(x, np.zeros(5))

    @pytest.mark.parametrize("bad", ["rhs", "operator"])
    def test_non_finite_input_raises(self, bad):
        f = np.ones(4, dtype=complex)
        if bad == "rhs":
            f[1] = np.nan
        scale = np.array([1.0, np.nan, 1.0, 1.0]) if bad == "operator" else np.ones(4)
        with pytest.raises(SolveError, match="not finite"):
            solve_checked(lambda v: scale * v, f)
