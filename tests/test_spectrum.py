"""Tests for eigenvalue approximation, matching, clusters, and resolvents."""

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    assemble_finite_section_ode,
    cluster_multiplicities,
    eigen_distances,
    eigenpairs_self_adjoint,
    eigenvalues_self_adjoint,
    resolvent_norm_grid,
    sobolev_norm,
    truncation_coincidence,
)
from circspec.problems import second_order_operator, third_order_operator


class TestEigenvaluesSelfAdjoint:
    def test_negative_laplacian_doubled_squares(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        rep = eigenvalues_self_adjoint(spec, BandWindow(9))
        expected = np.sort([m ** 2 for m in range(-4, 5)])
        assert np.allclose(rep.eigenvalues, expected, atol=1e-12)

    def test_constant_shift(self):
        c = 2.75
        spec = DiffOpSpec.from_orders({2: -1.0, 0: c})
        rep = eigenvalues_self_adjoint(spec, BandWindow(9))
        expected = np.sort([m ** 2 + c for m in range(-4, 5)])
        assert np.allclose(rep.eigenvalues, expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        # plain -d^3 has the purely imaginary symbol i m^3
        spec = DiffOpSpec.from_orders({3: -1.0})
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues_self_adjoint(spec, BandWindow(9))

    def test_third_order_with_i_coefficient_is_hermitian(self):
        spec = third_order_operator(2.51, 33)
        rep = eigenvalues_self_adjoint(spec, BandWindow(33))
        assert rep.eigenvalues.shape == (33,)
        assert np.all(np.diff(rep.eigenvalues) >= 0)

    def test_real_compression_solved_in_real_field(self):
        spec = second_order_operator(2.51, 65)
        w = BandWindow(65)
        a = assemble_finite_section_ode(spec, w).entries
        assert np.iscomplexobj(a) and not a.imag.any()
        rep, vecs = eigenpairs_self_adjoint(spec, w)
        assert np.isrealobj(vecs)
        ref = np.linalg.eigvalsh(a)
        assert np.abs(rep.eigenvalues - ref).max() <= 1e-12 * np.linalg.norm(a, 2)

    def test_complex_hermitian_compression_stays_complex(self):
        g = CoeffVec.from_dict({-1: -0.3j, 0: 0.5, 1: 0.3j})
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(g,))
        w = BandWindow(33)
        a = assemble_finite_section_ode(spec, w).entries
        assert a.imag.any()
        rep, vecs = eigenpairs_self_adjoint(spec, w)
        assert np.iscomplexobj(vecs)
        ref = np.linalg.eigvalsh(a)
        assert np.abs(rep.eigenvalues - ref).max() <= 1e-12 * np.linalg.norm(a, 2)
        resid = np.linalg.norm(a @ vecs - vecs * rep.eigenvalues[None, :], axis=0)
        assert resid.max() <= 1e-10 * np.linalg.norm(a, 2)

    def test_rejects_flip_symmetric_non_hermitian(self):
        # g_{-1} = g_1 = 0.3i makes the compression flip-symmetric but not Hermitian
        g = CoeffVec.from_dict({-1: 0.3j, 0: 0.5, 1: 0.3j})
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(g,))
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues_self_adjoint(spec, BandWindow(9))

    def test_report_metadata(self):
        spec = second_order_operator(2.51, 33)
        rep = eigenvalues_self_adjoint(spec, BandWindow(17))
        assert rep.k == 2 and rep.p == 0 and rep.ell == 2.0
        assert rep.window.N == 17


class TestFlipSplit:
    """Odd windows of flip-symmetric compressions are solved as even and odd halves."""

    def test_spectrum2_odd_window_split(self):
        spec = second_order_operator(2.51, 65)
        w = BandWindow(65)
        a = assemble_finite_section_ode(spec, w).entries.real
        assert np.array_equal(a, a[::-1, ::-1])
        anorm = np.linalg.norm(a, 2)
        rep, vecs = eigenpairs_self_adjoint(spec, w)
        assert np.abs(rep.eigenvalues - np.linalg.eigvalsh(a)).max() <= 1e-12 * anorm
        # every eigenvector is exactly even or exactly odd under m -> -m
        even = np.all(vecs[::-1] == vecs, axis=0)
        odd = np.all(vecs[::-1] == -vecs, axis=0)
        assert np.all(even | odd)
        assert even.sum() == 33 and odd.sum() == 32
        resid = np.linalg.norm(a @ vecs - vecs * rep.eigenvalues[None, :], axis=0)
        assert resid.max() <= 1e-10 * anorm
        assert np.allclose(vecs.T @ vecs, np.eye(65), atol=1e-12)

    @pytest.mark.parametrize("build, n", [
        (third_order_operator, 65),   # odd symbol: not flip-symmetric
        (second_order_operator, 64),  # even N: the window is not symmetric
        (second_order_operator, 1),
        (second_order_operator, 3),
    ])
    def test_matches_eigvalsh(self, build, n):
        spec = build(2.51, 65)
        w = BandWindow(n)
        a = assemble_finite_section_ode(spec, w).entries
        anorm = max(np.linalg.norm(a, 2), 1.0)
        rep, vecs = eigenpairs_self_adjoint(spec, w)
        assert np.abs(rep.eigenvalues - np.linalg.eigvalsh(a)).max() <= 1e-12 * anorm
        resid = np.linalg.norm(a @ vecs - vecs * rep.eigenvalues[None, :], axis=0)
        assert resid.max() <= 1e-10 * anorm


class TestEigenDistances:
    def test_same_report_zero(self):
        spec = second_order_operator(2.51, 65)
        rep = eigenvalues_self_adjoint(spec, BandWindow(33))
        d = eigen_distances(rep, rep)
        assert np.all(d.dist == 0.0)

    def test_constant_coefficient_shared_modes(self):
        spec = DiffOpSpec.from_orders({2: -1.0}, ell=2.0)
        small = eigenvalues_self_adjoint(spec, BandWindow(17))
        big = eigenvalues_self_adjoint(spec, BandWindow(65))
        d = eigen_distances(small, big)
        assert np.abs(d.dist).max() <= 1e-12

    def test_rejects_smaller_reference(self):
        spec = second_order_operator(2.51, 65)
        small = eigenvalues_self_adjoint(spec, BandWindow(17))
        big = eigenvalues_self_adjoint(spec, BandWindow(33))
        with pytest.raises(ValueError):
            eigen_distances(big, small)

    def test_weyl_shift_matches_exactly(self):
        # shifting the operator by eps moves every eigenvalue by eps; the
        # matching pipeline must report distances equal to eps
        eps = 1e-6
        base = second_order_operator(2.51, 82)
        shifted = DiffOpSpec.from_orders({2: -1.0, 0: eps}, var=base.var_coeffs, ell=2.0)
        rep = eigenvalues_self_adjoint(base, BandWindow(81))
        rep_shift = eigenvalues_self_adjoint(shifted, BandWindow(81))
        d = eigen_distances(rep, rep_shift)
        mask = np.abs(d.lam) <= 50.0
        assert np.abs(d.dist[mask] - eps).max() <= 1e-10

    def test_rescaled_error_uses_test_eigenvalue(self):
        spec = second_order_operator(2.51, 65)
        small = eigenvalues_self_adjoint(spec, BandWindow(17))
        big = eigenvalues_self_adjoint(spec, BandWindow(65))
        d = eigen_distances(small, big)
        n, ell, k = 17.0, 2.0, 2.0
        manual = d.dist * n ** ell * (2.0 + np.abs(small.eigenvalues)) ** (-ell / k)
        assert np.allclose(d.rescaled, manual)


class TestClusterMultiplicities:
    def test_known_multiplicities(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        rep = eigenvalues_self_adjoint(spec, BandWindow(9))
        counts = cluster_multiplicities(rep, [0.0, 1.0, 4.0], 0.1)
        assert list(counts) == [1, 2, 2]

    def test_small_perturbation_preserves_counts(self):
        spec = second_order_operator(2.51, 501, g_scale=1e-3)
        g0 = 1e-3
        for n in (41, 81):
            rep = eigenvalues_self_adjoint(spec, BandWindow(n))
            centers = [m ** 2 + g0 for m in range(0, 15)]
            counts = cluster_multiplicities(rep, centers, 0.1)
            assert list(counts) == [1] + [2] * 14

    def test_large_perturbation_detected(self):
        # grow the coupling until a pair splits past the cluster radius
        g0_scan = None
        for scale in (1e-3, 0.3, 2.0, 8.0):
            spec = second_order_operator(2.51, 201, g_scale=scale)
            rep = eigenvalues_self_adjoint(spec, BandWindow(81))
            centers = [m ** 2 + scale for m in range(0, 8)]
            counts = cluster_multiplicities(rep, centers, 0.1)
            if list(counts) != [1] + [2] * 7:
                g0_scan = scale
                break
        assert g0_scan is not None

    def test_rejects_overlapping_centers(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        rep = eigenvalues_self_adjoint(spec, BandWindow(9))
        with pytest.raises(ValueError, match="separation"):
            cluster_multiplicities(rep, [0.0, 0.2], 0.1)


class TestResolventNormGrid:
    def test_diagonal_closed_form(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        w = BandWindow(17)
        zs = [10.3 + 2.0j, -5.0, 0.5j]
        got = resolvent_norm_grid(spec, w, zs, s=2.0)
        m = w.modes().astype(float)
        for z, val in zip(zs, got):
            expected = np.max((1.0 + np.abs(m)) ** 2 / np.abs(z - m ** 2))
            assert val == pytest.approx(expected, rel=1e-10)

    def test_eigenvalue_reports_infinite(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        got = resolvent_norm_grid(spec, BandWindow(9), [4.0], s=2.0)
        assert got[0] > 1e14

    def test_compressed_eigenvalues_inside_pseudospectrum(self):
        # every window eigenvalue sits where the reference resolvent norm
        # is large: norm >= 1/eps for eps = 10 * max matched distance
        spec = second_order_operator(2.51, 501)
        small = eigenvalues_self_adjoint(spec, BandWindow(41))
        ref = eigenvalues_self_adjoint(spec, BandWindow(501))
        d = eigen_distances(small, ref)
        eps = 10.0 * float(d.dist.max())
        norms = resolvent_norm_grid(spec, BandWindow(501), small.eigenvalues, s=2.0)
        assert np.all(norms >= 1.0 / eps)


class TestTruncationCoincidence:
    def test_constant_coefficient_exact(self):
        spec = DiffOpSpec.from_orders({2: -1.0})
        for n in (9, 16, 33):
            rep = truncation_coincidence(spec, BandWindow(n), 1.0)
            assert rep.hausdorff == 0.0

    def test_tail_symbols_beyond_radius(self):
        spec = second_order_operator(2.51, 101)
        rep = truncation_coincidence(spec, BandWindow(81), 1.0)
        assert rep.hausdorff <= 1e-10
        assert rep.radius == 81.0

    def test_large_radius_exposes_tail(self):
        # radius beyond the first tail symbol: the full-space set gains
        # points the compression does not have
        spec = second_order_operator(2.51, 101)
        rep = truncation_coincidence(spec, BandWindow(81), 25.0)
        assert rep.hausdorff > 1.0
        assert len(rep.full_space) > len(rep.finite_section)


class TestEigenfunctionDecay:
    def test_norm_growth_bounded_by_eigenvalue(self):
        # ||v||_2 / (|lambda| + 2)^1 stays within a common constant across
        # the lowest eigenpairs
        spec = second_order_operator(2.51, 322)
        w = BandWindow(321)
        rep, vecs = eigenpairs_self_adjoint(spec, w)
        ratios = []
        for i in range(50):
            v = CoeffVec(-w.n_minus, vecs[:, i])
            ratios.append(sobolev_norm(v, 2.0) / (abs(rep.eigenvalues[i]) + 2.0))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 1e3
