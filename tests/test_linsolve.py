"""Tests for the regulated GMRES solve behind solve_ode and solve_rhp."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

import circspec.linsolve
from circspec import (
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    SolveError,
    evaluate_on_grid,
    exact_constant_solve,
    interpolate,
    project,
    solve_ode,
    solve_rhp,
)
from circspec.linsolve import MAX_ITER, solve_checked
from circspec.problems import rhp_jump, third_order_ode


class TestSolveChecked:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(101)
        n = 60
        a = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_checked(lambda v: a @ v, f)
        assert np.linalg.norm(x - np.linalg.solve(a, f)) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", [16, 40])
    def test_regulator_ratio_scales_condition(self, n):
        # with R = diag(d)^(-1/2), GMRES sees A R = diag(d)^(1/2) on all n modes,
        # and the estimate is its condition number sqrt(40 / 1) = 6.325; the
        # 40-mode solve takes 27 steps, so it grows the GMRES workspace
        d = np.linspace(1.0, 40.0, n) + 0j
        f = np.ones(n, dtype=complex)
        x = solve_checked(lambda v: d * v, f, lambda v: v / np.sqrt(d), cond_cap=6.4)
        assert np.allclose(x, f / d, rtol=1e-14)
        with pytest.raises(SolveError, match="condition estimate 6.325"):
            solve_checked(lambda v: d * v, f, lambda v: v / np.sqrt(d), cond_cap=6.3)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e300])
    def test_solution_scales_with_rhs(self, scale):
        # squaring entries of these sizes underflows or overflows; the solve must not
        rng = np.random.default_rng(7)
        a = np.eye(16) + 0.2 * rng.standard_normal((16, 16)) / 4.0
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x = solve_checked(lambda v: a @ v, scale * f)
        assert np.linalg.norm(x / scale - np.linalg.solve(a, f)) <= 1e-13 * np.linalg.norm(x / scale)

    def test_singular_operator_reports_condition(self):
        d = np.array([0.0, 1.0, 2.0, 3.0], dtype=complex)
        with pytest.raises(SolveError, match="condition estimate"):
            solve_checked(lambda v: d * v, np.ones(4, dtype=complex))
        # the zero operator leaves the Hessenberg matrix singular after one step
        with pytest.raises(SolveError, match="condition estimate inf exceeds cap"):
            solve_checked(lambda v: 0 * v, np.ones(4, dtype=complex))

    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_refinement_rescues_a_missed_residual(self, monkeypatch, mode):
        # the symbol m^2 - 25.000001 is -1e-6 at m = +-5: the first GMRES pass meets its estimate
        # but leaves a true residual about 1e-9 of the right-hand side, above the 1e-10 check,
        # and one refinement pass brings it to about 1e-16
        passes = []
        gmres = circspec.linsolve._gmres
        monkeypatch.setattr(circspec.linsolve, "_gmres", lambda *args: passes.append(1) or gmres(*args))
        spec = DiffOpSpec.from_orders({2: -1.0, 0: -25.000001})
        f = CoeffVec.from_dict({m: 1 + 0.1j * m for m in range(-14, 15)})
        w = BandWindow(13)
        u = solve_ode(spec, f, w, mode=mode)
        assert len(passes) == 2
        data = project(f, w) if mode == "finite_section" else interpolate(evaluate_on_grid(f, w.N))
        exact = exact_constant_solve(spec, data).coeffs
        assert np.linalg.norm(u.coeffs - exact) <= 1e-13 * np.linalg.norm(exact)

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


@pytest.mark.parametrize("solver", ["ode3", "rhp"])
def test_solve_memory_is_o_steps_n(solver):
    # the shipped problems take at most 7 Arnoldi steps, so one solve's peak
    # stays below 64 vectors of N complex entries; a basis sized to
    # min(N, MAX_ITER) + 1 vectors alone is 201 of them
    n = 2 ** 14 + 1
    w = BandWindow(n)
    if solver == "ode3":
        solve = partial(solve_ode, *third_order_ode(1.51, n), w)
    else:
        solve = partial(solve_rhp, rhp_jump(1.51, 0.01, n), w)
    solve()  # the first solve builds what is kept per operator, such as the ODE low block
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n * 16
