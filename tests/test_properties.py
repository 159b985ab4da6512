"""Hypothesis properties: the flip-split eigensolve, the projection identities at random N,
slice windowing against index-array reads, the Toeplitz entries against their definition,
the regulator shift against the symbol values it must avoid, the symbol scan bound
against a brute-force scan, the jump check's winding
and minimum modulus against Rouche's theorem, solve_ode and solve_rhp against dense
LU over random operators of the paper's class, stacked solves against their windows'
own solves, the harness's stacks against their budget, and stacked sweeps against
window-by-window sweeps."""

import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from circspec import (  # noqa: E402
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    ExperimentConfig,
    JumpSpec,
    SolveError,
    align_windows,
    assemble_collocation_ode,
    assemble_finite_section_ode,
    assemble_sie,
    choose_zeta,
    eigenvalues_self_adjoint,
    evaluate_on_grid,
    harness,
    interpolate,
    project,
    sobolev_norm,
    solve_ode,
    solve_ode_windows,
    solve_rhp,
    solve_rhp_windows,
)
from circspec.operators import _symbol_reach, _toeplitz_entries, circulant_length  # noqa: E402
from circspec.problems import rhp_jump  # noqa: E402

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
coefficients = st.lists(unit, min_size=1, max_size=12)
complex_coefficients = st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                                min_size=1, max_size=61)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(n=st.integers(1, 129), g_half=coefficients, shift=unit)
def test_real_even_coefficients_match_eigvalsh(n, g_half, shift):
    # g_{-j} = g_j real: odd windows take the even/odd split, even ones the full solve
    g = CoeffVec.from_dict({j: c for k, c in enumerate(g_half) for j in (-k, k)})
    spec = DiffOpSpec.from_orders({2: -1.0, 0: shift}, var=(g,))
    w = BandWindow(n)
    a = assemble_finite_section_ode(spec, w).entries
    anorm = max(np.linalg.norm(a, 2), 1.0)
    rep = eigenvalues_self_adjoint(spec, w)
    assert np.abs(rep.eigenvalues - np.linalg.eigvalsh(a)).max() <= 1e-12 * anorm


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(n=st.integers(1, 64), j_min=st.integers(-40, 10), c=complex_coefficients)
def test_projection_and_aliasing_identities(n, j_min, c):
    u = CoeffVec(j_min, np.array(c))
    w = BandWindow(n)
    p = project(u, w)
    assert np.array_equal(project(p, w).coeffs, p.coeffs)
    for s in (-1.5, 0.0, 2.0):
        assert sobolev_norm(p, s) <= sobolev_norm(u, s) * (1.0 + 1e-14)
    # interpolating the N-point samples folds mode qN + j onto mode j
    v = interpolate(evaluate_on_grid(u, n))
    reach = max(-u.j_min, u.j_max) // n + 2
    for j in v.modes():
        fold = sum(u.get(q * n + j) for q in range(-reach, reach + 1))
        assert abs(v.get(j) - fold) <= 1e-12 * max(1.0, len(u.coeffs))
    # CoeffVec.folded sums the same modes, slot r holding mode qN + r
    for r, x in enumerate(u.folded(n)):
        fold = sum(u.get(q * n + r) for q in range(-reach, reach + 1))
        assert abs(x - fold) <= 1e-12 * max(1.0, len(u.coeffs))


@st.composite
def vector_and_window(draw):
    """A CoeffVec and a window (lo, hi) that overlaps it on one side, contains it,
    lies inside it, or misses it below or above."""
    u = CoeffVec(draw(st.integers(-40, 40)), np.array(draw(complex_coefficients)))
    a, b = u.j_min, u.j_max
    gap, width = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    kind = draw(st.sampled_from(["overlap_low", "overlap_high", "contains", "inside", "below", "above"]))
    if kind == "overlap_low":
        lo, hi = a - 1 - gap, draw(st.integers(a, b))
    elif kind == "overlap_high":
        lo, hi = draw(st.integers(a, b)), b + 1 + gap
    elif kind == "contains":
        lo, hi = a - gap, b + width
    elif kind == "inside":
        lo = draw(st.integers(a, b))
        hi = draw(st.integers(lo, b))
    elif kind == "below":
        hi = a - 1 - gap
        lo = hi - width
    else:
        lo = b + 1 + gap
        hi = lo + width
    return u, lo, hi


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(case=vector_and_window(), data=st.data())
def test_slice_windowing_matches_index_reads(case, data):
    u, lo, hi = case
    modes = np.arange(lo, hi + 1)
    assert np.array_equal(u.windowed(lo, hi).coeffs, u.get(modes))
    assert u.windowed(lo, hi).j_min == lo
    c = data.draw(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                           min_size=len(modes), max_size=len(modes)))
    v = CoeffVec(lo, np.array(c))
    union = np.arange(min(u.j_min, lo), max(u.j_max, hi) + 1)
    got = align_windows(u, v)
    assert np.array_equal(got[0], union)
    assert np.array_equal(got[1], u.get(union))
    assert np.array_equal(got[2], v.get(union))


@st.composite
def toeplitz_case(draw):
    """A window size N and a CoeffVec whose modes lie inside -(N-1)..N-1, overlap
    one end of it, reach beyond both ends, or miss it."""
    n = draw(st.integers(1, 64))
    c = np.array(draw(complex_coefficients))
    width, gap = len(c), draw(st.integers(0, 20))
    kind = draw(st.sampled_from(["inside", "overlap_low", "overlap_high", "beyond", "disjoint"]))
    if kind == "inside":
        # fall back to a window that covers the band when c is longer than it
        j_min = draw(st.integers(1 - n, n - width)) if width <= 2 * n - 1 else 1 - n - gap
    elif kind == "overlap_low":
        j_min = 1 - n - width + draw(st.integers(1, width))
    elif kind == "overlap_high":
        j_min = n - draw(st.integers(1, width))
    elif kind == "beyond":
        j_min, c = -n - gap, np.concatenate([c, np.ones(2 * n + 2 * gap)])
    else:
        j_min = draw(st.sampled_from([n + gap, 1 - n - gap - width]))
    return n, CoeffVec(j_min, c)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(case=toeplitz_case())
def test_toeplitz_entries_match_definition(case):
    n, h = case
    m = BandWindow(n).modes()
    assert np.array_equal(_toeplitz_entries(h, BandWindow(n)), h.get(m[:, None] - m[None, :]))


@st.composite
def constant_parts(draw):
    """{order: coefficient} of a constant part: top order k in 0..5 with |c_k| >= 1,
    and any of the lower orders with |c_j| <= 1e3."""
    k = draw(st.integers(0, 5))
    finite = dict(allow_nan=False, allow_infinity=False)
    const = {k: draw(st.complex_numbers(min_magnitude=1.0, max_magnitude=1e3, **finite))}
    for j in range(k):
        if draw(st.booleans()):
            const[j] = draw(st.complex_numbers(max_magnitude=1e3, **finite))
    return const


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(const=constant_parts())
@hypothesis.example(const={2: 1.0})
@hypothesis.example(const={4: 1.0})
@hypothesis.example(const={2: -1.0, 0: -99.0})
@hypothesis.example(const={2: -1.0, 0: -9999.0})
def test_zeta_clears_every_symbol_value(const):
    # d^2 and d^4 take the values -1 and +1 at m = +-1; -d^2 - 99 takes 1 at m = +-10, and
    # -d^2 - 9999 at m = +-100, beyond any scan bound that leaves out the lower coefficients
    spec = DiffOpSpec.from_orders(const)
    zeta = choose_zeta(spec)
    assert np.abs(spec.symbol(np.arange(-10 ** 4, 10 ** 4 + 1)) - zeta).min() > 0.5


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(const=constant_parts(), r=st.floats(0.0, 1e4))
@hypothesis.example(const={2: -1.0, 0: -1e6}, r=2.05)
def test_symbol_reach_matches_brute_force_scan(const, r):
    # every |m| up to the cap, scanned directly; -d^2 - 1e6 dips to 0 at m = +-1000
    spec = DiffOpSpec.from_orders(const)
    cap = 4096
    m = np.arange(cap + 1)
    near = np.flatnonzero(np.minimum(np.abs(spec.symbol(m)), np.abs(spec.symbol(-m))) <= r)
    assert _symbol_reach(spec, r, cap) == (int(near[-1]) if near.size else -1)


@st.composite
def rouche_jumps(draw):
    """(g, k, |c|, sum |r_j|) for g = c e^{ik theta} + r: |k| <= 8, r on modes -16..16
    with sum |r_j| <= |c| / 2."""
    finite = dict(allow_nan=False, allow_infinity=False)
    k = draw(st.integers(-8, 8))
    c = draw(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, **finite))
    r = np.array(draw(st.lists(st.complex_numbers(max_magnitude=1.0, **finite), min_size=33, max_size=33)))
    total = np.abs(r).sum()
    if total > 0.0:
        r = r / total * (draw(st.floats(0.0, 1.0)) * abs(c) / 2.0)
    coeffs = r.copy()
    coeffs[k + 16] += c
    return CoeffVec(-16, coeffs), k, abs(c), float(np.abs(r).sum())


_SHIPPED_JUMP = rhp_jump(1.51, 0.01, 2000).g


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(case=rouche_jumps())
@hypothesis.example(case=(_SHIPPED_JUMP, 0, 1.0, float(np.abs(_SHIPPED_JUMP.coeffs).sum()) - 1.0))
def test_jump_winding_and_modulus_follow_rouche(case):
    # |r| <= |c| / 2 < |c e^{ik theta}| on the circle, so g winds k times and
    # |c| - sum |r_j| <= |g| <= |c| + sum |r_j|; the shipped rhp jump is 1 plus
    # terms summing to about 0.03
    g, k, c_abs, r_sum = case
    jump = JumpSpec(g)
    assert jump.winding == k
    assert c_abs - r_sum - 1e-12 * c_abs <= jump.min_modulus <= c_abs + r_sum + 1e-12 * c_abs


def _check_against_dense(solve, a, rhs):
    """The solver's contract against the dense compression a and its right-hand side.

    Below a dense condition of 1e8 the solve succeeds and agrees with LU to
    1e-13 cond, relative; an exactly singular a (sigma_min = 0 or cond >= 1e16)
    raises SolveError; any success leaves a dense residual of at most 1e-10
    |rhs|, plus 1e-14 |a| |x| because the solver checks its residual with the
    matrix-free product, which rounds differently from a @ x by a few eps |a| |x|.
    No other exception and no warning may occur.
    """
    sigma = np.linalg.svd(a, compute_uv=False)
    cond = sigma[0] / sigma[-1] if sigma[-1] > 0.0 else np.inf
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve()
    except SolveError:
        assert cond >= 1e8
        return
    assert cond < 1e16
    assert np.linalg.norm(a @ x - rhs) <= 1e-10 * np.linalg.norm(rhs) + 1e-14 * sigma[0] * np.linalg.norm(x)
    if cond < 1e8:
        lu = np.linalg.solve(a, rhs)
        assert np.linalg.norm(x - lu) <= 1e-13 * cond * np.linalg.norm(lu)


def _decaying(rng, width, decay):
    """Random complex coefficients on `width` modes centred on 0, scaled by (1 + |j|)^-decay."""
    lo = -(width // 2)
    j = np.arange(lo, lo + width)
    c = (rng.standard_normal(width) + 1j * rng.standard_normal(width)) * (1.0 + np.abs(j)) ** -decay
    return CoeffVec(lo, c)


@st.composite
def ode_cases(draw):
    """(operator, data, N, mode): a random operator of the paper's class, or -d^2 - (25 + delta) + g.

    The general case has orders k 1..4 and q 0..k with random complex constant
    coefficients, and variable orders p < k whose coefficients have width 1..11 and
    decay (1+|j|)^(-0.5..-3).  In the near-singular case the symbol is -delta at
    m = +-5, and g, when present, is delta times such a coefficient.  The data is
    nonzero on every mode, so a vanishing symbol always meets data.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 89))
    mode = draw(st.sampled_from(["finite_section", "collocation"]))
    if draw(st.integers(0, 4)) == 0:
        delta = 10.0 ** -draw(st.floats(6.0, 13.0))
        var = (_decaying(rng, draw(st.integers(1, 11)), 1.0).scaled(delta),) if draw(st.booleans()) else ()
        spec = DiffOpSpec.from_orders({2: -1.0, 0: -(25.0 + delta)}, var=var)
    else:
        k = draw(st.integers(1, 4))
        q = draw(st.integers(0, k))
        const = {j: complex(*rng.standard_normal(2)) for j in range(q, k + 1)}
        var = tuple(_decaying(rng, draw(st.integers(1, 11)), draw(st.floats(0.5, 3.0)))
                    for _ in range(draw(st.integers(0, k))))
        spec = DiffOpSpec.from_orders(const, var=var)
    return spec, _decaying(rng, 2 * n + 3, 1.0), n, mode


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(case=ode_cases())
@hypothesis.example(case=(DiffOpSpec.from_orders({2: -1.0, 0: -(25.0 + 1e-11)}), CoeffVec.from_dict({5: 1.0, 1: 1.0}),
                          65, "finite_section"))
@hypothesis.example(case=(DiffOpSpec.from_orders({3: -1.0}), CoeffVec.from_dict({0: 1.0, 1: 1.0}), 9, "collocation"))
def test_solve_ode_agrees_with_dense_solve(case):
    spec, f, n, mode = case
    w = BandWindow(n)
    if mode == "finite_section":
        a, rhs = assemble_finite_section_ode(spec, w).entries, project(f, w).coeffs
    else:
        a, rhs = assemble_collocation_ode(spec, w).entries, interpolate(evaluate_on_grid(f, n)).coeffs
    _check_against_dense(lambda: solve_ode(spec, f, w, mode=mode).coeffs, a, rhs)


@st.composite
def rhp_cases(draw):
    """(jump 1 + h with |h|_l1 < 1, N, mode); such a jump has winding 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = _decaying(rng, draw(st.integers(1, 11)), draw(st.floats(0.5, 3.0)))
    h = h.scaled(draw(st.floats(0.0, 0.99)) / np.abs(h.coeffs).sum())
    g = CoeffVec(h.j_min, h.coeffs + (h.modes() == 0))
    # the solver's right-hand side is g - 1 as rounded, not h
    h = CoeffVec(g.j_min, g.coeffs - (g.modes() == 0))
    return JumpSpec(g), h, draw(st.integers(1, 89)), draw(st.sampled_from(["finite_section", "collocation"]))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(case=rhp_cases())
def test_solve_rhp_agrees_with_dense_solve(case):
    jump, h, n, mode = case
    assert jump.winding == 0
    w = BandWindow(n)
    rhs = project(h, w).coeffs if mode == "finite_section" else interpolate(evaluate_on_grid(h, n)).coeffs
    _check_against_dense(lambda: solve_rhp(jump, w, mode=mode).u.coeffs, assemble_sie(jump, w, mode).entries, rhs)



@st.composite
def stacked_cases(draw):
    """(solve one window, solve a group, dense compression, the group, vanishing): an ode_cases or
    rhp_cases problem and mode, and up to four windows, the largest of the case's N, the others of
    any size below it.  One ODE case in five replaces the operator by d^2 + m0^2, whose symbol
    vanishes at m = +-m0, on data that is nonzero there; vanishing says so."""
    vanishing = False
    if draw(st.booleans()):
        spec, f, n, mode = draw(ode_cases())
        if draw(st.integers(0, 4)) == 0:
            spec, vanishing = DiffOpSpec.from_orders({2: 1.0, 0: float(draw(st.integers(0, n // 2)) ** 2)}), True
        assemble = assemble_finite_section_ode if mode == "finite_section" else assemble_collocation_ode
        solvers = partial(solve_ode, spec, f, mode=mode), partial(solve_ode_windows, spec, f, mode=mode)
        dense = partial(assemble, spec)
    else:
        jump, _, n, mode = draw(rhp_cases())
        solvers = partial(solve_rhp, jump, mode=mode), partial(solve_rhp_windows, jump, mode=mode)
        dense = partial(assemble_sie, jump, mode=mode)
    ns = draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True)) if n > 1 else []
    return *solvers, dense, [BandWindow(m) for m in sorted(ns) + [n]], vanishing


def _condition(a):
    """sigma_max / sigma_min of a, inf when a is singular."""
    sigma = np.linalg.svd(a, compute_uv=False)
    return sigma[0] / sigma[-1] if sigma[-1] > 0.0 else np.inf


def _outcome(solve):
    """The coefficients of each solution solve() returns, or the SolveError it raised."""
    try:
        return [getattr(sol, "u", sol).coeffs for sol in solve()]  # an RHSolution holds its density as u
    except SolveError as exc:
        return exc


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(case=stacked_cases())
def test_stacked_rows_match_their_own_solves(case):
    # Each row of the stack is its own window's solve to 1e-13 cond, relative, with cond
    # the window's dense condition, the bound _check_against_dense puts on LU.  Below a
    # condition of 1e8 both must succeed.  Beyond it a residual or condition estimate
    # near its bound may round to a pass in one solve and a fail in the other, so only
    # rows that both return are compared.  A vanishing symbol is decided exactly, before
    # any GMRES step: the stack raises what the first failing window raises.
    one, group, dense, windows, vanishing = case
    conds = [_condition(dense(w).entries) for w in windows]
    singles = _outcome(lambda: [one(w) for w in windows])
    rows = _outcome(lambda: group(windows))
    if vanishing and isinstance(singles, SolveError):
        assert str(rows) == str(singles)
        return
    if max(conds) < 1e8:
        assert isinstance(rows, list) and isinstance(singles, list)
    if isinstance(rows, list) and isinstance(singles, list):
        for got, want, cond in zip(rows, singles, conds):
            assert np.linalg.norm(got - want) <= 1e-13 * cond * np.linalg.norm(want)


@st.composite
def stacked_sizes(draw):
    """(N_list, N_ref): up to 40 ascending N below 2^k for a random k in 1..19, and an N_ref above them."""
    top = 2 ** draw(st.integers(1, 19))
    ns = sorted(set(draw(st.lists(st.integers(1, top), min_size=1, max_size=40))))
    return ns, draw(st.integers(ns[-1] + 1, 2 ** 20))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(sizes=stacked_sizes(), mode=st.sampled_from(["finite_section", "collocation"]))
def test_stacks_are_maximal_within_the_budget(sizes, mode):
    # the stacks cut N_list, in order, into runs whose B windows hold no more modes and
    # circulant entries than one window of max(N_ref, 4096) modes, whatever their own
    # circulant lengths; each stack ends only where the next N would break that budget
    ns, n_ref = sizes
    cfg = ExperimentConfig.from_dict({"experiment": "ode3", "N_list": ns, "N_ref": n_ref, "mode": mode,
                                      "output_path": "unused.csv"})
    stacks = harness._stacks(cfg)
    modes = max(n_ref, 4096)
    assert [n for stack in stacks for n in stack] == ns
    for stack in stacks:
        assert len(stack) * stack[-1] <= modes
        assert len(stack) * circulant_length(stack[-1]) <= circulant_length(modes)
    for stack, after in zip(stacks, stacks[1:]):
        grown = len(stack) + 1
        assert grown * after[0] > modes or grown * circulant_length(after[0]) > circulant_length(modes)


@st.composite
def sweep_cases(draw):
    """(experiment, build, solve, dense compression, N_list, mode): an ode_cases or rhp_cases
    problem and mode, as run_experiment hands it to _sweep, with N_list up to six ascending N
    that end at the case's N."""
    if draw(st.booleans()):
        spec, f, n, mode = draw(ode_cases())
        assemble = assemble_finite_section_ode if mode == "finite_section" else assemble_collocation_ode
        case = ("ode3", lambda: (spec, f),
                lambda p, ns: solve_ode_windows(*p, [BandWindow(m) for m in ns], mode=mode), partial(assemble, spec))
    else:
        jump, _, n, mode = draw(rhp_cases())
        case = ("rhp", lambda: jump,
                lambda p, ns: [sol.u for sol in solve_rhp_windows(p, [BandWindow(m) for m in ns], mode=mode)],
                partial(assemble_sie, jump, mode=mode))
    ns = sorted(set(draw(st.lists(st.integers(1, n), max_size=5))) | {n})
    return *case, ns, mode


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(case=sweep_cases())
def test_stacked_sweep_rows_match_the_window_by_window_sweep(case):
    # _sweep over _stacks gives each N the row the window-by-window sweep gives it, to
    # 1e-13 cond relative, with cond the window's dense condition; below a condition of
    # 1e8 (reference included) both sweeps succeed, and beyond it only rows that both
    # return are compared, as in test_stacked_rows_match_their_own_solves
    experiment, build, solve, dense, ns, mode = case
    cfg = ExperimentConfig.from_dict({"experiment": experiment, "N_list": ns, "N_ref": ns[-1] + 1, "mode": mode,
                                      "output_path": "unused.csv"})
    conds = [_condition(dense(BandWindow(n)).entries) for n in ns + [cfg.N_ref]]
    stacked = _outcome(lambda: harness._sweep(build, solve, lambda u, ref: u, cfg))
    with mock.patch.object(harness, "_stacks", lambda cfg: [[n] for n in cfg.N_list]):
        single = _outcome(lambda: harness._sweep(build, solve, lambda u, ref: u, cfg))
    if max(conds) < 1e8:
        assert isinstance(stacked, list) and isinstance(single, list)
    if isinstance(stacked, list) and isinstance(single, list):
        for got, want, cond in zip(stacked, single, conds):
            assert np.linalg.norm(got - want) <= 1e-13 * cond * np.linalg.norm(want)
