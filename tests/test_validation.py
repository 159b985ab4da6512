"""Input validation across the package: each bad input raises the stated exception and message."""

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    ConfigError,
    DiffOpSpec,
    EigenReport,
    ExperimentConfig,
    eigen_distances,
    evaluate_on_grid,
    truncation_coincidence,
)
from circspec.linsolve import solve_checked
from circspec.operators import JumpSpec, OperatorMatrix, ode_matvec, window_data
from circspec.rhp import solve_rhp_windows

ONE = CoeffVec.from_dict({0: 1.0})


def report(values, ell=2.0) -> EigenReport:
    return EigenReport(window=BandWindow(len(values)), eigenvalues=values, ell=ell, k=2, p=0)


@pytest.mark.parametrize("call, exc, match", [
    (lambda: DiffOpSpec(k=1, q=2, const_coeffs=(1.0,)), ValueError, r"need 0 <= q <= k, got q=2, k=1"),
    (lambda: DiffOpSpec(k=2, q=0, const_coeffs=(1.0, 2.0)), ValueError, "const_coeffs must cover orders q..k"),
    (lambda: DiffOpSpec(k=1, q=0, const_coeffs=(1.0, 0.0)), ValueError, "leading constant coefficient must be nonzero"),
    (lambda: DiffOpSpec(k=2, q=2, const_coeffs=(1.0,), var_coeffs=(np.ones(3),)), TypeError,
     "variable coefficients must be CoeffVec"),
    (lambda: DiffOpSpec(k=1, q=1, const_coeffs=(1.0,), var_coeffs=(ONE, ONE)), ValueError,
     "variable orders must stay below k"),
    (lambda: DiffOpSpec.from_orders({}), ValueError, "need at least one constant coefficient"),
    (lambda: OperatorMatrix(BandWindow(3), np.eye(2)), ValueError, r"entries must be 3x3, got \(2, 2\)"),
    (lambda: EigenReport(window=BandWindow(3), eigenvalues=[0.0, 1.0], ell=2.0, k=2, p=0), ValueError,
     "eigenvalue count must equal the window size"),
    (lambda: report([1.0, 0.0]), ValueError, "eigenvalues must be ascending"),
    (lambda: eigen_distances(report([0.0, 1.0], ell=None), report([0.0, 1.0, 4.0])), ValueError,
     "test report carries no coefficient-regularity metadata"),
    (lambda: truncation_coincidence(DiffOpSpec.from_orders({0: 1.0}), BandWindow(3), 10.0), ValueError,
     "tail symbol scan did not terminate"),
    (lambda: CoeffVec.from_dict({}), ValueError, "need at least one coefficient"),
    (lambda: BandWindow(2.5), TypeError, "window size must be an integer, got 2.5"),
    (lambda: BandWindow(True), TypeError, "window size must be an integer, got True"),
    (lambda: CoeffVec(1.5, [1]), TypeError, "j_min must be an integer, got 1.5"),
    (lambda: ONE.padded(3, 2), ValueError, "empty window"),
    (lambda: evaluate_on_grid(ONE, 0), ValueError, "grid size must be >= 1, got 0"),
    (lambda: ExperimentConfig(experiment="x", alpha=1.0, N_list=[8], N_ref=16, output_path="x.csv"), ConfigError,
     "unknown experiment 'x'"),
    # row 1's operator is zero: with one name per row the stack raises "condition estimate inf"
    (lambda: solve_checked(lambda v: np.array([[1.0], [0.0], [2.0]]) * v, np.ones((3, 4)), lambda v: v,
                           context=["only"], sizes=[4] * 3),
     ValueError, "context must give one name per row: 3 rows, 1 names"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((2, 2, 3)), lambda v: v, context=["a", "b"], sizes=[3, 3]),
     ValueError, r"rhs must have shape \(B, n\) with n >= 1, got \(2, 2, 3\)"),
    (lambda: solve_checked(lambda v: 2 * v, np.array(1.0), lambda v: v, context=["a"], sizes=[1]), ValueError,
     r"rhs must have shape \(B, n\) with n >= 1, got \(\)"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((2, 0)), lambda v: v, context=["a", "b"], sizes=[1, 1]),
     ValueError, r"rhs must have shape \(B, n\) with n >= 1, got \(2, 0\)"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones(3), lambda v: v, context=["a"], sizes=[3]), ValueError,
     r"rhs must have shape \(B, n\) with n >= 1, got \(3,\)"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((1, 3)), lambda v: v, context=["a"], sizes=[2.5]), ValueError,
     r"sizes must give one integer in 1..3 per row: 1 rows, got \[2.5\]"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((1, 3)), lambda v: v, context=["a"], sizes=["3"]), ValueError,
     r"sizes must give one integer in 1..3 per row: 1 rows, got \['3'\]"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((1, 3)), lambda v: v, context=["a"], sizes=[True]), ValueError,
     r"sizes must give one integer in 1..3 per row: 1 rows, got \[True\]"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((1, 3)), lambda v: v, context=["a"], sizes=[3],
                           cond_cap=float("nan")), ValueError, "cond_cap must be at least 1, got nan"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((1, 3)), lambda v: v, context=["a"], sizes=[3], cond_cap=0.5),
     ValueError, "cond_cap must be at least 1, got 0.5"),
    (lambda: window_data(ONE, [], "finite_section"), ValueError, "a group needs at least one window"),
    (lambda: ode_matvec(DiffOpSpec.from_orders({1: 1.0}), []), ValueError, "a group needs at least one window"),
    (lambda: solve_rhp_windows(JumpSpec(ONE), []), ValueError, "a group needs at least one window"),
], ids=["q-above-k", "const-coeffs-length", "zero-leading-coefficient", "variable-not-coeffvec",
        "variable-order-k", "from-orders-empty", "operator-matrix-shape", "eigenvalue-count",
        "eigenvalues-descending", "distances-without-ell", "tail-scan-unbounded", "from-dict-empty",
        "window-size-float", "window-size-bool", "j-min-float",
        "padded-empty", "grid-size-zero", "unknown-experiment", "context-per-row",
        "rhs-three-dimensional", "rhs-scalar", "rhs-no-columns", "rhs-vector", "size-not-integer",
        "size-string", "size-bool", "cap-nan", "cap-below-one", "window-data-no-windows",
        "ode-matvec-no-windows", "rhp-windows-no-windows"])
def test_rejects(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
