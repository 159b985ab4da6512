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
from circspec.operators import OperatorMatrix

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
    (lambda: ONE.padded(3, 2), ValueError, "empty window"),
    (lambda: evaluate_on_grid(ONE, 0), ValueError, "grid size must be >= 1, got 0"),
    (lambda: ExperimentConfig(experiment="x", alpha=1.0, N_list=[8], N_ref=16, output_path="x.csv"), ConfigError,
     "unknown experiment 'x'"),
    # row 1's operator is zero: with one name per row the stack raises "condition estimate inf"
    (lambda: solve_checked(lambda v: np.array([[1.0], [0.0], [2.0]]) * v, np.ones((3, 4)), context=["only"]),
     ValueError, "context must give one name per row: 3 rows, 1 names"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((2, 2, 3))), ValueError,
     r"rhs must have shape \(n,\) or \(B, n\) with n >= 1, got \(2, 2, 3\)"),
    (lambda: solve_checked(lambda v: 2 * v, np.array(1.0)), ValueError,
     r"rhs must have shape \(n,\) or \(B, n\) with n >= 1, got \(\)"),
    (lambda: solve_checked(lambda v: 2 * v, np.ones((2, 0))), ValueError,
     r"rhs must have shape \(n,\) or \(B, n\) with n >= 1, got \(2, 0\)"),
], ids=["q-above-k", "const-coeffs-length", "zero-leading-coefficient", "variable-not-coeffvec",
        "variable-order-k", "from-orders-empty", "operator-matrix-shape", "eigenvalue-count",
        "eigenvalues-descending", "distances-without-ell", "tail-scan-unbounded", "from-dict-empty",
        "padded-empty", "grid-size-zero", "unknown-experiment", "context-per-row",
        "rhs-three-dimensional", "rhs-scalar", "rhs-no-columns"])
def test_rejects(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
