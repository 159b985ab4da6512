"""Tests for the circle Riemann-Hilbert solver and phi reconstruction."""

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    JumpSpec,
    RHSolution,
    SolveError,
    assemble_sie,
    diff_norm,
    evaluate_on_grid,
    evaluate_phi,
    interpolate,
    jump_residual,
    project,
    solve_rhp,
    solve_rhp_windows,
    winding_number,
)
import circspec.operators
import circspec.rhp
from circspec.problems import rhp_jump


def one_sided_jump(eps: float, side: str) -> JumpSpec:
    if side == "below":
        return JumpSpec(CoeffVec.from_dict({-1: eps, 0: 1.0}))
    return JumpSpec(CoeffVec.from_dict({0: 1.0, 1: eps}))


def wiener_hopf_density(eps: float, side: str, half: int) -> CoeffVec:
    """Closed-form density for the rational one-sided jumps.

    For g = 1 + eps/z the factorization is phi+ = 1, phi- = 1/g, giving
    u_{-n} = -(-eps)^n and no nonnegative modes; for g = 1 + eps z it
    mirrors to u = g - 1.
    """
    if side == "below":
        c = np.zeros(2 * half + 1, complex)
        for n in range(1, half + 1):
            c[half - n] = -((-eps) ** n)
        return CoeffVec(-half, c)
    return CoeffVec.from_dict({1: eps})


class TestSolveRhp:
    def test_unit_jump_gives_zero(self):
        jump = JumpSpec(CoeffVec.from_dict({0: 1.0}))
        for mode in ("finite_section", "collocation"):
            sol = solve_rhp(jump, BandWindow(16), mode=mode)
            assert np.abs(sol.u.coeffs).max() == 0.0

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_wiener_hopf_oracle(self, side, mode):
        eps = 0.1
        jump = one_sided_jump(eps, side)
        w = BandWindow(64)
        sol = solve_rhp(jump, w, mode=mode)
        exact = wiener_hopf_density(eps, side, w.n_minus)
        assert diff_norm(sol.u, exact, 0.0) <= 1e-10

    def test_window_doubling_agrees_within_tail(self):
        # band-limited jump well inside the window: solutions at N and 2N
        # agree up to the measured tail mass of the finer solution
        rng = np.random.default_rng(71)
        half = 4
        c = 0.05 * (rng.standard_normal(2 * half + 1) + 1j * rng.standard_normal(2 * half + 1))
        c[half] += 1.0
        jump = JumpSpec(CoeffVec(-half, c))
        n = 32
        u_n = solve_rhp(jump, BandWindow(n)).u
        u_2n = solve_rhp(jump, BandWindow(2 * n)).u
        w = BandWindow(n)
        outside = (u_2n.modes() < -w.n_minus) | (u_2n.modes() > w.n_plus)
        tail = float(np.linalg.norm(u_2n.coeffs[outside]))
        assert diff_norm(u_n, u_2n, 0.0) <= max(10.0 * tail, 1e-11)

    def test_nonzero_winding_is_singular(self):
        jump = JumpSpec(CoeffVec.from_dict({1: 1.0}))  # g = z
        assert winding_number(jump) == 1
        with pytest.raises(SolveError, match="condition"):
            solve_rhp(jump, BandWindow(16))


class TestEvaluatePhi:
    def test_zero_density(self):
        sol = solve_rhp(JumpSpec(CoeffVec.from_dict({0: 1.0})), BandWindow(8))
        for z in (0.2 + 0.1j, 3.0, 0.0):
            assert evaluate_phi(sol, z) == pytest.approx(1.0)

    def test_normalization_at_infinity(self):
        jump = one_sided_jump(0.1, "below")
        sol = solve_rhp(jump, BandWindow(32))
        z = 1e6 + 0j
        bound = np.abs(sol.u.coeffs).sum() * 1e-6
        assert abs(evaluate_phi(sol, z) - 1.0) <= bound

    def test_exterior_value_matches_reciprocal_jump(self):
        eps = 0.1
        jump = one_sided_jump(eps, "below")
        sol = solve_rhp(jump, BandWindow(64))
        angles = 2.0 * np.pi * np.arange(64) / 64.0
        for theta in angles:
            z = np.exp(1j * theta)
            phi_minus = evaluate_phi(sol, z, side="minus")
            g = 1.0 + eps / z
            assert abs(phi_minus - 1.0 / g) <= 1e-10

    def test_off_circle_point_picks_its_side(self):
        sol = solve_rhp(one_sided_jump(0.1, "below"), BandWindow(32))
        assert np.abs(sol.u.coeffs).max() > 0.0
        for z in (0.3 + 0.2j, 0.0, 2.0 - 1.5j, complex(np.inf)):
            assert len({evaluate_phi(sol, z, side=side) for side in (None, "plus", "minus")}) == 1
        # phi(inf) = 1: every term of the minus sum has a negative power of z
        assert evaluate_phi(sol, complex(np.inf)) == 1.0

    def test_on_circle_requires_side(self):
        sol = solve_rhp(JumpSpec(CoeffVec.from_dict({0: 1.0})), BandWindow(8))
        with pytest.raises(ValueError, match="side"):
            evaluate_phi(sol, 1.0 + 0j)

    def test_interior_boundary_value(self):
        eps = 0.1
        jump = one_sided_jump(eps, "above")
        sol = solve_rhp(jump, BandWindow(64))
        z = np.exp(0.7j)
        # phi+ = g for this factorization
        assert abs(evaluate_phi(sol, z, side="plus") - (1.0 + eps * z)) <= 1e-10

    @pytest.mark.parametrize("j_min, size", [(-1, 3), (0, 1), (2, 3), (-3, 2)],
                             ids=["both-sides", "mode-0-only", "positive-only", "negative-only"])
    def test_nan_point_gives_nan_on_every_window(self, j_min, size):
        sol = RHSolution(CoeffVec(j_min, np.full(size, 0.5 + 0.25j)), BandWindow(size))
        for side in (None, "plus", "minus"):
            phi = evaluate_phi(sol, complex(np.nan), side)
            assert np.isnan(phi.real) and np.isnan(phi.imag)


class TestJumpResidual:
    def test_unit_jump_zero_residual(self):
        jump = JumpSpec(CoeffVec.from_dict({0: 1.0}))
        sol = solve_rhp(jump, BandWindow(16))
        assert jump_residual(sol, jump, 64) == 0.0

    def test_oracle_solution_residual(self):
        jump = one_sided_jump(0.1, "below")
        sol = solve_rhp(jump, BandWindow(64))
        assert jump_residual(sol, jump, 256) <= 1e-12

    def test_residual_decays_with_window(self):
        jump = rhp_jump(1.51, 0.01, 401)
        r40 = jump_residual(solve_rhp(jump, BandWindow(40)), jump, 1024)
        r400 = jump_residual(solve_rhp(jump, BandWindow(400)), jump, 1024)
        # decay consistent with the fractional coefficient tail
        assert r400 < 0.5 * r40

    def test_grid_must_cover_window(self):
        jump = JumpSpec(CoeffVec.from_dict({0: 1.0}))
        sol = solve_rhp(jump, BandWindow(16))
        with pytest.raises(ValueError):
            jump_residual(sol, jump, 8)


class TestWindingNumber:
    def test_perturbed_constant_has_zero_winding(self):
        assert winding_number(rhp_jump(1.51, 0.01, 101)) == 0

    def test_pure_rotation_has_unit_winding(self):
        assert winding_number(JumpSpec(CoeffVec.from_dict({1: 1.0}))) == 1

    def test_inverse_rotation(self):
        assert winding_number(JumpSpec(CoeffVec.from_dict({-2: 1.0}))) == -2

    def test_jump_sampled_once(self, monkeypatch):
        # JumpSpec certifies g on one grid pass; solving and winding_number read what it recorded
        passes = []
        certified_samples = circspec.operators._certified_samples
        monkeypatch.setattr(circspec.operators, "_certified_samples",
                            lambda g: passes.append(1) or certified_samples(g))
        jump = rhp_jump(1.51, 0.01, 400)
        for mode in ("finite_section", "collocation"):
            for n in (33, 129):
                solve_rhp(jump, BandWindow(n), mode=mode)
        assert winding_number(jump) == 0
        assert len(passes) == 1

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            JumpSpec(CoeffVec.from_dict({0: 1.0}), min_modulus=1.0, winding=0)


class TestRateBehavior:
    def test_error_decays_against_reference(self):
        jump = rhp_jump(1.51, 0.01, 401)
        ref = solve_rhp(jump, BandWindow(401)).u
        errs = [diff_norm(ref, solve_rhp(jump, BandWindow(n)).u, 0.25) for n in (40, 80, 160)]
        assert errs[0] > errs[1] > errs[2]

    def test_collocation_tracks_finite_section(self):
        jump = rhp_jump(1.51, 0.01, 201)
        gaps = []
        for n in (32, 64, 128):
            u_fs = solve_rhp(jump, BandWindow(n), mode="finite_section").u
            u_co = solve_rhp(jump, BandWindow(n), mode="collocation").u
            gaps.append(diff_norm(u_fs, u_co, 0.25))
        assert gaps[0] > gaps[2]

    def test_gap_slope_bound(self):
        # the two discretizations approach each other at least at the
        # N^(s-t) rate of the data (s = 1/4, t = 1), with fitting slack
        jump = rhp_jump(1.51, 0.01, 401)
        ns = [40, 60, 80, 120, 160]
        gaps = []
        for n in ns:
            u_fs = solve_rhp(jump, BandWindow(n), mode="finite_section").u
            u_co = solve_rhp(jump, BandWindow(n), mode="collocation").u
            gaps.append(diff_norm(u_fs, u_co, 0.25))
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert slope <= (0.25 - 1.0) + 0.3


def check_against_dense_lu(jump: JumpSpec, n: int, mode: str) -> None:
    w = BandWindow(n)
    c = np.array(jump.g.coeffs)
    c[-jump.g.j_min] -= 1.0  # g - 1
    h = CoeffVec(jump.g.j_min, c)
    f = project(h, w).coeffs if mode == "finite_section" else interpolate(evaluate_on_grid(h, n)).coeffs
    dense = np.linalg.solve(assemble_sie(jump, w, mode).entries, f)
    u = solve_rhp(jump, w, mode=mode).u.coeffs
    assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)


class TestMatrixFreeSolve:
    @pytest.mark.parametrize("n", [8, 32, 129, 400])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_agrees_with_dense_lu(self, n, mode):
        check_against_dense_lu(rhp_jump(1.51, 0.01, 400), n, mode)

    @pytest.mark.parametrize("n", [8, 32, 129])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_strong_jump_agrees_with_dense_lu(self, n, mode):
        # epsilon 1.6 takes min |g| down to about 0.25, where the regulator is far from Id
        jump = rhp_jump(1.51, 1.6, 400)
        assert 0.2 < jump.min_modulus < 0.3
        check_against_dense_lu(jump, n, mode)

    @pytest.mark.parametrize("coeffs", [{1: 1.0}, {-1: 1.0, 0: 0.3}, {-2: 1.0}])
    @pytest.mark.parametrize("n", [8, 33, 256])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_nonzero_winding_rejected(self, coeffs, n, mode):
        jump = JumpSpec(CoeffVec.from_dict(coeffs))
        with pytest.raises(SolveError, match="condition estimate inf.*Fredholm index"):
            solve_rhp(jump, BandWindow(n), mode=mode)

    @pytest.mark.parametrize("coeffs", [{0: 1.0, 1: 0.3}, {1: 1.0}], ids=["winding-0", "winding-1"])
    def test_unknown_mode_rejected_before_the_winding(self, coeffs):
        jump = JumpSpec(CoeffVec.from_dict(coeffs))
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_rhp(jump, BandWindow(16), mode="nodal")
        # then the group, also before the winding
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_rhp_windows(jump, [], mode="nodal")
        with pytest.raises(ValueError, match="a group needs at least one window"):
            solve_rhp_windows(jump, [])


class TestWindowStacks:
    @pytest.mark.parametrize("mode, sizes", [("finite_section", (33, 40, 50, 64)), ("finite_section", (9, 16)),
                                             ("collocation", (48, 48)), ("finite_section", (9, 16, 17, 40)),
                                             ("collocation", (9, 16, 17, 40))])
    def test_rows_match_their_single_solves(self, mode, sizes):
        # the windows of a stack may have any circulant lengths, and may straddle the ODE
        # low block's 17 modes; each row is its own solve
        jump = rhp_jump(1.51, 0.6, 129)
        got = solve_rhp_windows(jump, [BandWindow(n) for n in sizes], mode)
        for sol, n in zip(got, sizes):
            want = solve_rhp(jump, BandWindow(n), mode).u
            assert sol.window == BandWindow(n) and sol.u.j_min == want.j_min
            assert np.linalg.norm(sol.u.coeffs - want.coeffs) <= 1e-14 * np.linalg.norm(want.coeffs)


def counting_products(monkeypatch) -> list:
    """Record each product x -> A x that solve_rhp applies: the Arnoldi steps, plus one
    for the residual check."""
    calls = []
    product = circspec.rhp.sie_matvec

    def counting(*args):
        apply = product(*args)
        return lambda x: calls.append(1) or apply(x)

    monkeypatch.setattr(circspec.rhp, "sie_matvec", counting)
    return calls


class TestUniformStability:
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_operator_stays_well_conditioned(self, monkeypatch, mode):
        # A R = (C+ - g C-)(C+ - M(1/g) C-) is the identity plus a compact operator:
        # its estimate (below 1.0002) and the Arnoldi steps stay flat in N
        calls = counting_products(monkeypatch)
        jump = rhp_jump(1.51, 0.01, 20001)
        for n in (33, 401, 2001, 20001):
            calls.clear()
            solve_rhp(jump, BandWindow(n), mode=mode, cond_cap=1.001)
            assert len(calls) - 1 == 3, n

    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    @pytest.mark.parametrize("eps", [0.01, 0.3, 0.6, 0.9, 1.6])
    def test_steps_stay_flat_for_strong_jumps(self, monkeypatch, eps, mode):
        # unregulated, epsilon 1.6 took 31, 57 and 69 steps at N = 65, 400 and 2000
        calls = counting_products(monkeypatch)
        jump = rhp_jump(1.51, eps, 20001)
        for n in (65, 400, 2000, 20000):
            calls.clear()
            solve_rhp(jump, BandWindow(n), mode=mode)
            assert len(calls) - 1 <= 8, (eps, n)

    def test_inverse_built_once_per_jump(self, monkeypatch):
        # the coefficients of 1/g depend only on the jump
        built = []
        interpolate_ = circspec.operators.interpolate
        monkeypatch.setattr(circspec.operators, "interpolate", lambda v: built.append(1) or interpolate_(v))
        jump = rhp_jump(1.51, 0.3, 401)
        for mode in ("finite_section", "collocation"):
            for n in (33, 128, 401):
                solve_rhp(jump, BandWindow(n), mode=mode)
        assert len(built) == 1


class TestEvaluatePhiAgainstLoop:
    def test_matches_mode_by_mode_sum(self):
        # the direct sum of u_j z^j, one mode at a time, is the reference
        rng = np.random.default_rng(97)
        sol = solve_rhp(rhp_jump(1.51, 0.01, 257), BandWindow(256))
        u = sol.u
        for z in np.concatenate([rng.uniform(0.0, 0.95, 20), rng.uniform(1.05, 4.0, 20)]) \
                * np.exp(2j * np.pi * rng.uniform(size=40)):
            inside = abs(z) < 1.0
            terms = [c * complex(z) ** int(j) for j, c in zip(u.modes(), u.coeffs) if (j >= 0) == inside]
            want = 1.0 + sum(terms) if inside else 1.0 - sum(terms)
            size = 1.0 + sum(abs(t) for t in terms)
            assert abs(evaluate_phi(sol, z) - want) <= 1e-13 * size


def loop_phi(u: CoeffVec, z: complex, plus: bool) -> tuple[complex, float]:
    """phi from the mode-by-mode sum, and the size 1 + sum |terms| that bounds its roundoff."""
    terms = [c * complex(z) ** int(j) for j, c in zip(u.modes(), u.coeffs) if (j >= 0) == plus]
    total = sum(terms, 0j)
    return (1.0 + total if plus else 1.0 - total), 1.0 + sum(abs(t) for t in terms)


class TestEvaluatePhiWindows:
    """Windows that do not straddle mode 0 keep their offset in the Laurent sums."""

    rng = np.random.default_rng(5)
    POINTS = np.concatenate([[0.0], rng.uniform(0.1, 0.95, 8), rng.uniform(1.05, 4.0, 8)]) \
        * np.exp(2j * np.pi * rng.uniform(size=17))
    CIRCLE = np.exp(2j * np.pi * rng.uniform(size=8))

    def check(self, sol: RHSolution):
        for z in self.POINTS:
            want, size = loop_phi(sol.u, z, abs(z) < 1.0)
            assert abs(evaluate_phi(sol, z) - want) <= 1e-13 * size
        for z in self.CIRCLE:
            for side in ("plus", "minus"):
                want, size = loop_phi(sol.u, z, side == "plus")
                assert abs(evaluate_phi(sol, z, side=side) - want) <= 1e-13 * size

    @pytest.mark.parametrize("j_min,size", [(1, 6), (3, 5), (-7, 6), (-2, 1), (0, 1), (-1, 1), (-1, 2)])
    def test_hand_built_windows(self, j_min, size):
        # modes >= 1, >= 3, -7..-2, only -2, only 0, only -1, and -1..0
        rng = np.random.default_rng(size - j_min)
        u = CoeffVec(j_min, rng.normal(size=size) + 1j * rng.normal(size=size))
        self.check(RHSolution(u=u, window=BandWindow(size)))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_smallest_solved_windows(self, n, mode):
        sol = solve_rhp(rhp_jump(1.51, 0.3, 9), BandWindow(n), mode=mode)
        assert sol.u.j_min == -(n // 2) and len(sol.u.coeffs) == n
        self.check(sol)
