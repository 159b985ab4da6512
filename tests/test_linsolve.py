"""Tests for the regulated GMRES solve behind solve_ode and solve_rhp."""

import re
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import circspec.linsolve
from circspec import (
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    ExperimentConfig,
    SolveError,
    evaluate_on_grid,
    exact_constant_solve,
    interpolate,
    ode_regulator,
    project,
    solve_ode,
    solve_ode_windows,
    solve_rhp,
    solve_rhp_windows,
)
from circspec.harness import STACK_MODES, _stacks
from circspec.linsolve import GMRES_TOL, MAX_ITER, solve_checked
from circspec.problems import rhp_jump, third_order_ode

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def krylov_residuals(a: np.ndarray, f: np.ndarray) -> list[float]:
    """min |f - a x| / |f| over the k-step Krylov space of a and f, for k = 1..len(f).

    Arnoldi with classical Gram-Schmidt run twice, and lstsq on each (k + 1) x k
    Hessenberg matrix; lstsq's residual sum of squares keeps its relative accuracy
    down to 1e-16, where |beta e_1 - H y| formed explicitly is off by up to 3 times.
    """
    n = len(f)
    beta = np.linalg.norm(f)
    basis = np.zeros((n + 1, n), dtype=complex)
    hess = np.zeros((n + 1, n), dtype=complex)
    basis[0] = f / beta
    out = []
    for k in range(n):
        w = a @ basis[k]
        for _ in range(2):
            h = basis[:k + 1].conj() @ w
            w = w - h @ basis[:k + 1]
            hess[:k + 1, k] += h
        hess[k + 1, k] = np.linalg.norm(w)
        basis[k + 1] = w / hess[k + 1, k]
        rhs = np.zeros(k + 2, dtype=complex)
        rhs[0] = beta
        out.append(np.sqrt(np.linalg.lstsq(hess[:k + 2, :k + 1], rhs, rcond=None)[1][0]) / beta)
    return out


class TestSolveChecked:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(101)
        n = 60
        a = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_checked(lambda v: np.matvec(a, v), f[None], lambda v: v, context=["dense"], sizes=[n])[0]
        assert np.linalg.norm(x - np.linalg.solve(a, f)) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", [16, 40])
    def test_regulator_ratio_scales_condition(self, monkeypatch, n):
        # with R = diag(d)^(-1/2), GMRES sees A R = diag(d)^(1/2) on all n modes,
        # and the estimate is its condition number sqrt(40 / 1) = 6.325; the
        # 40-mode solve takes 27 steps, so it grows the GMRES workspace
        d = np.linspace(1.0, 40.0, n) + 0j
        f = np.ones(n, dtype=complex)
        monkeypatch.setattr(circspec.linsolve, "COND_CAP", 6.4)
        x = solve_checked(lambda v: d * v, f[None], lambda v: v / np.sqrt(d), context=["diagonal"], sizes=[n])[0]
        assert np.allclose(x, f / d, rtol=1e-14)
        monkeypatch.setattr(circspec.linsolve, "COND_CAP", 6.3)
        with pytest.raises(SolveError, match="condition estimate 6.325"):
            solve_checked(lambda v: d * v, f[None], lambda v: v / np.sqrt(d), context=["diagonal"], sizes=[n])

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e300])
    def test_solution_scales_with_rhs(self, scale):
        # squaring entries of these sizes underflows or overflows; the solve must not
        rng = np.random.default_rng(7)
        a = np.eye(16) + 0.2 * rng.standard_normal((16, 16)) / 4.0
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x = solve_checked(lambda v: np.matvec(a, v), scale * f[None], lambda v: v, context=["scaled"], sizes=[16])[0]
        assert np.linalg.norm(x / scale - np.linalg.solve(a, f)) <= 1e-13 * np.linalg.norm(x / scale)

    def test_singular_operator_reports_condition(self):
        d = np.array([0.0, 1.0, 2.0, 3.0], dtype=complex)
        with pytest.raises(SolveError, match="condition estimate"):
            solve_checked(lambda v: d * v, np.ones((1, 4), dtype=complex), lambda v: v, context=["singular"], sizes=[4])
        # the zero operator leaves the Hessenberg matrix singular after one step
        with pytest.raises(SolveError, match="condition estimate inf exceeds cap"):
            solve_checked(lambda v: 0 * v, np.ones((1, 4), dtype=complex), lambda v: v, context=["zero"], sizes=[4])

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
        f = np.zeros((1, n), dtype=complex)
        f[0, 0] = 1.0
        with pytest.raises(SolveError, match=f"residual .* after {MAX_ITER} GMRES iterations"):
            solve_checked(lambda v: np.roll(v, 1, axis=1), f, lambda v: v, context=["shift"], sizes=[n])
        # capped at one step, diag(1, 1 + delta) keeps a residual delta / (2 sqrt 2) of (1, 1):
        # the check fails it at delta 1e-8, 25 times past its 1e-10 |rhs| bound, and passes
        # it at 1e-12, 280 times inside
        d = np.array([1.0, 1.0 + 1e-8])
        with pytest.raises(SolveError, match=r"residual 3\.536e-09 exceeds 1e-10 .* after 1 GMRES iterations"):
            solve_checked(lambda v: d * v, np.ones((1, 2), dtype=complex), lambda v: v, context=["capped"], sizes=[1])
        d = np.array([1.0, 1.0 + 1e-12])
        assert np.allclose(solve_checked(lambda v: d * v, np.ones((1, 2), dtype=complex), lambda v: v,
                                         context=["capped"], sizes=[1])[0], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 7), (3, 7)])
    def test_callables_see_only_stacks(self, shape):
        # apply and regulator take (B, n) stacks, a one-row stack too, and the
        # solution comes back in the right-hand side's shape
        seen = []

        def spy(scale):
            return lambda v: seen.append(v.ndim) or scale * v

        d = np.linspace(1.0, 3.0, 7)
        f = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) + 0.5j
        x = solve_checked(spy(d), f, spy(1.0 / np.sqrt(d)), context=["row"] * shape[0], sizes=[7] * shape[0])
        assert x.shape == shape and set(seen) == {2}
        assert np.allclose(x, f / d, rtol=1e-13)

    @pytest.mark.parametrize("shape", [(1, 5), (3, 5), (0, 3)], ids=["one-row", "zero-stack", "empty-stack"])
    def test_zero_rhs_returns_zero(self, shape):
        # an all-zero or empty stack takes the general path: no GMRES step, and no
        # floating-point exception on the way
        with np.errstate(all="raise"):
            x = solve_checked(lambda v: v, np.zeros(shape, dtype=complex), lambda v: -v, context=["zero"] * shape[0],
                              sizes=[shape[1]] * shape[0])
        assert x.shape == shape and x.dtype == complex
        assert not x.any()

    def test_zero_stack_matches_the_zero_row_of_a_mixed_stack(self):
        # an all-zero stack gets the bits a zero row gets beside a nonzero one,
        # here -0.0 from the regulator's sign
        d = np.arange(1.0, 6.0)
        mixed = np.zeros((2, 5), dtype=complex)
        mixed[0] = 1.0 + 0.5j

        def solve(rhs):
            return solve_checked(lambda v: d * v, rhs, lambda v: -v, context=["row"] * len(rhs), sizes=[5] * len(rhs))
        assert solve(np.zeros((1, 5), dtype=complex))[0].tobytes() == solve(mixed)[1].tobytes()

    @pytest.mark.parametrize("bad", ["rhs", "operator"])
    def test_non_finite_input_raises(self, bad):
        f = np.ones((1, 4), dtype=complex)
        if bad == "rhs":
            f[0, 1] = np.nan
        scale = np.array([1.0, np.nan, 1.0, 1.0]) if bad == "operator" else np.ones(4)
        with pytest.raises(SolveError, match="not finite"):
            solve_checked(lambda v: scale * v, f, lambda v: v, context=[bad], sizes=[4])

    def test_stacked_rows_match_their_single_solves(self, monkeypatch):
        # three diagonal systems on 13 modes: a spread of 13 values takes 13 steps;
        # m^2 - 25.000001, regulated as solve_ode regulates it, takes 10 and then a
        # refinement pass of 10 (see test_refinement_rescues_a_missed_residual);
        # the constant 2 takes one.  Each row is solved, gated and refined on its own.
        passes = []
        gmres = circspec.linsolve._gmres

        def recording(*args):
            out = gmres(*args)
            passes.append(out[1:3])
            return out

        monkeypatch.setattr(circspec.linsolve, "_gmres", recording)
        w = BandWindow(13)
        spec = DiffOpSpec.from_orders({2: -1.0, 0: -25.000001})
        d = np.stack([np.linspace(1.0, 40.0, 13), spec.symbol(w.modes()), np.full(13, 2.0)]).astype(complex)
        r = np.stack([1.0 / np.sqrt(d[0]), ode_regulator(spec, [w])(np.ones((1, 13), dtype=complex))[0], np.ones(13)])
        f = np.stack([np.ones(13), 1 + 0.1j * w.modes(), np.arange(13) - 3.5j])
        x = solve_checked(lambda v: d * v, f, lambda v: r * v, context=["spread", "shifted", "constant"],
                          sizes=[13] * 3)
        stacked = passes[:]
        assert [steps for _, steps in stacked] == [[13, 10, 1], [0, 10, 0]]
        for b in range(3):
            passes.clear()
            single = solve_checked(lambda v: d[b] * v, f[b][None], lambda v: r[b] * v, context=["single"],
                                   sizes=[13])[0]
            assert np.linalg.norm(x[b] - single) <= 1e-14 * np.linalg.norm(single)
            assert stacked[0][0][b] == pytest.approx(passes[0][0][0], rel=1e-14)
            assert sum(steps[b] for _, steps in stacked) == sum(steps[0] for _, steps in passes)

    def test_stack_row_stops_at_its_own_step_cap(self, monkeypatch):
        # a 6-unknown system: e_j -> (1 + 0.5i) e_{j+1}, and e_5 onto e_1..e_5, so its
        # right-hand side e_0 lies outside the range and GMRES cannot converge.  Its
        # Hessenberg matrix is singular to working precision, so the condition gate is
        # opened to reach the residual check.  Alone it stops after min(6, MAX_ITER)
        # steps; padded to 40 slots in a stack with a 40-unknown row (40 steps), it must
        # stop there too, not after the stack's min(40, MAX_ITER)
        steps = []
        gmres = circspec.linsolve._gmres

        def recording(*args):
            out = gmres(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr(circspec.linsolve, "_gmres", recording)

        def small(x):
            out = np.zeros_like(x)
            out[..., 1:6] = (1 + 0.5j) * x[..., :5] + np.linspace(0.3, 1.1, 5) * (1 - 0.7j) * x[..., 5:6]
            return out

        d = np.linspace(1.0, 40.0, 40) + 0j
        f = np.zeros((2, 40), dtype=complex)
        f[0, 0], f[1] = 1.0, 1.0
        failures = []
        monkeypatch.setattr(circspec.linsolve, "COND_CAP", np.inf)
        for solve in (lambda: solve_checked(small, f[:1, :6], lambda v: v, context=["small"], sizes=[6]),
                      lambda: solve_checked(lambda v: np.stack([small(v[0]), d * v[1]]), f, lambda v: v,
                                            context=["small", "big"], sizes=[6, 40])):
            with pytest.raises(SolveError) as failure:
                solve()
            failures.append(str(failure.value))
        assert steps == [[6], [6, 40]]
        for text in failures:
            assert re.fullmatch(r"small: residual \S+ exceeds 1e-10 of the right-hand side after 6 GMRES iterations",
                                text)

    def test_rows_stop_where_a_dense_oracle_first_meets_the_tolerance(self, monkeypatch):
        # I + eps E in stacks of 1 to 4 rows of mixed sizes: each row stops at the first k whose
        # least-squares residual over the k-step Krylov space, from this test's own Arnoldi, is
        # at most GMRES_TOL beta, or at its own size.  A draw with a residual before that stop
        # within a factor of 2 of the line is skipped: two Arnoldi variants give residuals that
        # agree to 7% there, while the residual falls 10 to 100 times a step, so a factor of 10
        # would skip nearly every row that stops on the tolerance
        steps = []
        gmres = circspec.linsolve._gmres

        def recording(*args):
            out = gmres(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr(circspec.linsolve, "_gmres", recording)
        rng = np.random.default_rng(30)
        checked = early = 0
        for _ in range(100):
            sizes = rng.integers(8, 25, size=rng.integers(1, 5)).tolist()
            mats, rhs = [], np.zeros((len(sizes), max(sizes)), dtype=complex)
            want, near = [], False
            for b, n in enumerate(sizes):
                e = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
                mats.append(np.eye(n) + rng.choice([0.02, 0.05, 0.1]) * e)
                rhs[b, :n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                resid = krylov_residuals(mats[-1], rhs[b, :n])
                want.append(next((k for k, r in enumerate(resid, 1) if r <= GMRES_TOL), n))
                near |= any(GMRES_TOL / 2 < r < 2 * GMRES_TOL for r in resid[:want[-1]])
            if near:
                continue

            def apply(v):
                return np.stack([np.pad(a @ row[:len(a)], (0, v.shape[1] - len(a))) for a, row in zip(mats, v)])

            steps.clear()
            solve_checked(apply, rhs, lambda v: v, context=[f"row {b}" for b in range(len(sizes))], sizes=sizes)
            assert steps == [want], sizes
            checked += 1
            early += sum(k < n for k, n in zip(want, sizes))
        # enough draws, and enough rows that stop on the tolerance before their size
        assert checked >= 20 and early >= 20

    def test_stack_names_its_first_failing_row(self):
        # rows 1 and 2 are singular; the error names row 1's context
        d = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]], dtype=complex)
        with pytest.raises(SolveError, match="^second: condition estimate"):
            solve_checked(lambda v: d * v, np.ones((3, 3)), lambda v: v, context=["first", "second", "third"],
                          sizes=[3] * 3)

    def test_zero_row_of_a_stack_is_zero(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        f = np.array([[0.0, 0.0], [3.0, 8.0]], dtype=complex)
        x = solve_checked(lambda v: d * v, f, lambda v: v, context=["zero", "nonzero"], sizes=[2, 2])
        assert np.array_equal(x[0], np.zeros(2)) and np.allclose(x[1], [1.0, 2.0], rtol=1e-15)


# bytes a stack may use per row beyond the budget (see test_stacked_sweep_peaks_below_reference)
ROW_ALLOWANCE = 4096
# the shipped configs; 32 windows of one circulant length, which the budget cuts into 4 stacks;
# and 64 windows whose first stack, 8..128, spans five circulant lengths and the ODE low block's 17 modes
_SWEEPS = {"shipped": None, "one-length": dict(N_list=list(range(264, 513, 8)), N_ref=641),
           "mixed": dict(N_list=list(range(8, 513, 8)), N_ref=641)}
_CASES = [(solver, mode, sweep) for sweep in _SWEEPS for mode in ("finite_section", "collocation")
          for solver in ("ode3", "rhp")]


@pytest.mark.parametrize("solver, mode, sweep", _CASES, ids=[
    "-".join(v for v in case if v not in ("finite_section", "shipped")) for case in _CASES])
def test_stacked_sweep_peaks_below_reference(solver, mode, sweep):
    # the harness cuts a sweep's stacks so that none needs more memory than the larger of
    # the reference solve and one STACK_MODES-mode solve of the same problem, up to
    # ROW_ALLOWANCE per row: each row has its own Python bookkeeping (its context,
    # Hessenberg columns and result) and a byte per slot in each product's spill mask
    cfg = ExperimentConfig.from_json_file(str(CONFIGS / f"{solver}.json"))
    cfg = replace(cfg, mode=mode, **(_SWEEPS[sweep] or {}))
    windows = [[BandWindow(n) for n in ns] for ns in _stacks(cfg)]
    assert max(map(len, windows)) > 1
    if solver == "ode3":
        problem = third_order_ode(cfg.alpha, cfg.N_ref)
        one = partial(solve_ode, *problem, mode=mode)
        stack = partial(solve_ode_windows, *problem, mode=mode)
    else:
        jump = rhp_jump(cfg.alpha, cfg.epsilon, cfg.N_ref)
        one = partial(solve_rhp, jump, mode=mode)
        stack = partial(solve_rhp_windows, jump, mode=mode)
    one(BandWindow(cfg.N_ref))  # builds what is kept per operator, such as the ODE low block
    peaks = []
    for solve in [partial(one, BandWindow(n)) for n in (cfg.N_ref, STACK_MODES)] + \
            [partial(stack, ws) for ws in windows]:
        tracemalloc.start()
        try:
            solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    for peak, ws in zip(peaks[2:], windows):
        assert peak <= max(peaks[:2]) + ROW_ALLOWANCE * len(ws), [w.N for w in ws]


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
