"""Tests for eigenvalue approximation, matching, clusters, and resolvents."""

import tracemalloc

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    DiffOpSpec,
    EigenReport,
    assemble_finite_section_ode,
    cluster_multiplicities,
    eigen_distances,
    eigenpairs_self_adjoint,
    eigenvalues_self_adjoint,
    resolvent_norm_grid,
    sobolev_norm,
    truncation_coincidence,
)
from circspec import spectrum
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
        # g_1 = conj(g_-1) + mismatch on -d^2, whose largest entry is 16 at N = 9: the check's
        # bound is 1.6e-11, so a 1e-8 mismatch fails and a 1e-14 one passes
        for mismatch, rejected in ((1e-8, True), (1e-14, False)):
            g = CoeffVec.from_dict({-1: 0.2 - 0.3j, 0: 0.5, 1: 0.2 + 0.3j + mismatch})
            spec = DiffOpSpec.from_orders({2: -1.0}, var=(g,))
            if rejected:
                with pytest.raises(ValueError, match="Hermitian"):
                    eigenvalues_self_adjoint(spec, BandWindow(9))
            else:
                assert eigenvalues_self_adjoint(spec, BandWindow(9)).eigenvalues.shape == (9,)

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

    def test_field_is_chosen_at_assembly(self):
        # a first-order term is assembled complex, even though 0.5i (i m) = -0.5 m sums to a real diagonal
        spec = DiffOpSpec.from_orders({2: -1.0}, var=(CoeffVec.from_dict({0: 0.5}), CoeffVec.from_dict({0: 0.5j})))
        w = BandWindow(17)
        m = w.modes()
        closed_form = m ** 2 + 0.5 - 0.5 * m
        a = assemble_finite_section_ode(spec, w).entries
        assert np.array_equal(a, np.diag(closed_form))
        rep, vecs = eigenpairs_self_adjoint(spec, w)
        assert np.iscomplexobj(vecs)
        assert np.abs(rep.eigenvalues - np.sort(closed_form)).max() <= 1e-12 * np.linalg.norm(a, 2)

    def test_residual_gate(self, monkeypatch):
        # eigh's vectors mixed with their neighbours by eps leave pair residuals of about
        # eps ||A||: past the 1e-10 ||A|| gate at eps 1e-3 and 1e-7, inside it at 1e-13
        eigh = np.linalg.eigh
        spec = second_order_operator(2.51, 33)
        for eps, rejected in ((1e-3, True), (1e-7, True), (1e-13, False)):
            def perturbed(b):
                vals, vecs = eigh(b)
                return vals, vecs + eps * np.roll(vecs, 1, axis=1)

            monkeypatch.setattr(spectrum.np.linalg, "eigh", perturbed)
            if rejected:
                with pytest.raises(ValueError, match="eigenpair residual"):
                    eigenvalues_self_adjoint(spec, BandWindow(33))
            else:
                assert eigenvalues_self_adjoint(spec, BandWindow(33)).eigenvalues.shape == (33,)

    def test_nan_fails_both_gates(self, monkeypatch):
        # a NaN in A's second 64-row block fails the Hermitian check, and a NaN pair
        # residual in the odd block, the second of the split, fails the residual gate
        spec = second_order_operator(2.51, 129)
        entries, rayleigh = spectrum._compression_entries, spectrum._rayleigh

        def nan_entry(s, w):
            a = entries(s, w)
            a[100, 3] = np.nan
            return a

        monkeypatch.setattr(spectrum, "_compression_entries", nan_entry)
        with pytest.raises(ValueError, match="not Hermitian: asymmetry nan"):
            eigenvalues_self_adjoint(spec, BandWindow(129))
        monkeypatch.undo()
        blocks = []

        def nan_residual(a, vecs):
            lam, resid = rayleigh(a, vecs)
            blocks.append(len(a))
            if len(blocks) == 2:
                resid[-1] = np.nan
            return lam, resid

        monkeypatch.setattr(spectrum, "_rayleigh", nan_residual)
        with pytest.raises(ValueError, match="eigenpair residual nan"):
            eigenvalues_self_adjoint(spec, BandWindow(129))
        assert blocks == [65, 64]

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


@pytest.mark.parametrize("build, n_squares", [
    # A, its even and odd blocks and their eigenvectors (a quarter each), and the Rayleigh products
    (second_order_operator, 3.0),
    # eigh's vectors, A V and the product V diag(lambda) it subtracts in place, beside A
    (third_order_operator, 4.5),
])
def test_eigensolve_memory(build, n_squares):
    # a complex assembly, its Toeplitz copy and the real copy of it held six real N x N arrays
    n = 501
    spec, w = build(2.51, n), BandWindow(n)
    eigenvalues_self_adjoint(spec, w)
    tracemalloc.start()
    try:
        eigenvalues_self_adjoint(spec, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_squares * n * n * 8


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


def _report(values) -> EigenReport:
    return EigenReport(window=BandWindow(len(values)), eigenvalues=values, ell=2.0, k=2, p=0)


class TestEigenDistancesBruteForce:
    """Neighbours of the insertion index give the distances of the full minimum, bit for bit."""

    @staticmethod
    def check(test, ref):
        d = eigen_distances(_report(np.asarray(test, dtype=float)), _report(np.asarray(ref, dtype=float)))
        brute = np.abs(d.lam[:, None] - np.asarray(ref, dtype=float)[None, :]).min(axis=1)
        assert d.dist.tobytes() == brute.tobytes()

    def test_random_ascending_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_ref = int(rng.integers(1, 40))
            n = int(rng.integers(1, n_ref + 1))
            ref = np.sort(rng.standard_normal(n_ref) * 10.0 ** rng.integers(-3, 4))
            # test values spill past both ends of the reference range
            test = np.sort(rng.uniform(ref[0] - 5.0, ref[-1] + 5.0, n))
            self.check(test, ref)

    def test_ties_and_duplicates(self):
        ref = [-1.0, 0.0, 0.0, 1.0, 1.0, 3.0]
        # 0.5 and 2.0 sit exactly halfway between two reference values; 0.0 and 1.0 hit duplicates
        self.check([-2.0, 0.0, 0.5, 1.0, 2.0, 4.0], ref)

    def test_one_element_reference(self):
        self.check([-3.0], [2.0])
        self.check([2.0], [2.0])

    def test_values_outside_the_reference_range(self):
        self.check([-1e9, -10.0, 10.0], [-1.0, 0.5, 2.0, 1e3])
        self.check([1e6, 1e9, 1e12], [-1.0, 0.5, 2.0, 1e3])


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

    @pytest.mark.parametrize("centers, delta, match", [
        ([0.0, 1.0], float("nan"), "delta must be finite and positive"),
        ([0.0, 1.0], float("inf"), "delta must be finite and positive"),
        ([0.0, 1.0], 0.0, "delta must be finite and positive"),
        ([float("nan"), 1.0], 0.1, "centers must be finite"),
    ], ids=["nan-delta", "inf-delta", "zero-delta", "nan-center"])
    def test_rejects_non_finite_or_non_positive_inputs(self, centers, delta, match):
        rep = eigenvalues_self_adjoint(DiffOpSpec.from_orders({2: -1.0}), BandWindow(9))
        with pytest.raises(ValueError, match=match):
            cluster_multiplicities(rep, centers, delta)


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


    def test_nothing_inside_the_radius(self):
        # radius 0.01 * 9 = 0.09 lies below every eigenvalue m^2 + 5 and every tail value
        spec = DiffOpSpec.from_orders({2: -1.0, 0: 5.0})
        rep = truncation_coincidence(spec, BandWindow(9), 0.01)
        assert rep.radius == pytest.approx(0.09)
        assert len(rep.finite_section) == 0 and len(rep.full_space) == 0
        assert rep.hausdorff == 0.0

    def test_tail_dip_beyond_clear_modes(self):
        # m^2 - 1e6 clears the radius 2.05 on the tail modes up to |m| = 998,
        # then vanishes at m = +-1000; the compression has no eigenvalue inside
        spec = DiffOpSpec.from_orders({2: -1.0, 0: -1e6})
        rep = truncation_coincidence(spec, BandWindow(41), 0.05)
        assert np.array_equal(rep.full_space, [0.0, 0.0])
        assert rep.hausdorff == np.inf


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
