"""Hypothesis properties: the flip-split eigensolve and the projection identities at random N."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from circspec import (  # noqa: E402
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    assemble_finite_section_ode,
    eigenvalues_self_adjoint,
    evaluate_on_grid,
    interpolate,
    project,
    sobolev_norm,
)

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
