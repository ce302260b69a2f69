import numpy as np
import pytest

from chaoslab.errors import PreconditionError
from chaoslab.fourier import ClassIndex, class_intersects_disk, coef_A
from chaoslab.spectra import (SpectrumCase, _even_odd_product, _tridiagonal,
                              build_class_operator, continued_fraction_eigen,
                              truncated_spectrum)
from chaoslab.util import hausdorff_distance
from oracles import (BENCH_EIGENVALUE_NORMALIZED, class_eigenvalue_mp,
                     class_matrix, class_spectrum_mp, count_nonimaginary,
                     quadruple_symmetry_defect, spectral_mapping_check)

BENCH = ClassIndex(khat=(-3, -2), p=(1, 1))
# the (khat, p) classes of the perfbench spectrum jobs: the benchmark class,
# a (2,1) class with a point eigenvalue, and two classes without one
PERFBENCH_CLASSES = [((-3, -2), (1, 1)), ((-3, -1), (2, 1)), ((-4, -1), (1, 1)),
                     ((1, -2), (2, 1))]


class TestBuildOperator:
    def test_sub_coefficient_example(self):
        op = build_class_operator(BENCH, 1.0, 2)
        # coupling of the n=2 slot down to n=1 carries A(p, khat+p) = -3/20
        i2, i1 = op.ns.index(2), op.ns.index(1)
        assert class_matrix(op)[i2, i1] == pytest.approx(-3 / 20, abs=1e-15)
        assert op.sub[i2] == pytest.approx(-3 / 20, abs=1e-15)

    def test_zero_gamma_zero_matrix(self):
        op = build_class_operator(BENCH, 0.0, 5)
        assert np.max(np.abs(class_matrix(op))) == 0.0

    def test_matches_direct_loop(self):
        gamma = 1.3 - 0.7j
        op = build_class_operator(BENCH, gamma, 6)
        dim = len(op.ns)
        expected = np.zeros((dim, dim), dtype=complex)
        p, khat = (1, 1), (-3, -2)
        for a, n in enumerate(op.ns):
            for b, m in enumerate(op.ns):
                if m == n - 1:
                    expected[a, b] = coef_A(p, (khat[0] + m, khat[1] + m)) * gamma
                elif m == n + 1:
                    expected[a, b] = coef_A((-1, -1), (khat[0] + m, khat[1] + m)) \
                        * np.conj(gamma)
        assert np.max(np.abs(class_matrix(op) - expected)) == 0.0

    def test_tridiagonal_zero_diagonal(self):
        op = build_class_operator(BENCH, 2.0, 10)
        assert np.max(np.abs(np.diag(class_matrix(op)))) == 0.0

    def test_origin_skip_splits_chain(self):
        # khat + n p passes through the origin at n = -2
        cls = ClassIndex(khat=(2, 4), p=(1, 2))
        op = build_class_operator(cls, 1.0, 4)
        assert -2 not in op.ns
        mat = class_matrix(op)
        assert mat.shape == (8, 8)
        i_m1 = op.ns.index(-1)
        i_m3 = op.ns.index(-3)
        assert mat[i_m1, i_m3] == 0.0

    def test_degenerate_class_flagged(self):
        op = build_class_operator(ClassIndex(khat=(2, 2), p=(1, 1)), 1.0, 3)
        assert op.degenerate
        assert np.max(np.abs(class_matrix(op))) == 0.0


class TestTruncatedSpectrum:
    def test_quadruple_at_benchmark_class(self):
        op = build_class_operator(BENCH, 2.0, 50)
        rep = truncated_spectrum(op)
        assert rep.case is SpectrumCase.MIXED_POINT_SPECTRUM
        big = rep.normalized()[np.abs(rep.normalized().real) > 0.05]
        assert len(big) == 4
        # the four members form +-c +- i d
        c, d = abs(big[0].real), abs(big[0].imag)
        got = {(round(z.real / c), round(z.imag / d)) for z in big}
        assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_b_value(self):
        op = build_class_operator(BENCH, 2.0, 20)
        rep = truncated_spectrum(op)
        assert rep.b == pytest.approx(-0.5)  # -Gamma/4 for real Gamma = 2

    def test_continuous_only_class_stays_imaginary(self):
        # every member of this class lies outside the closed disk, which
        # makes sub*super couplings negative, so each truncation is similar
        # to a real antisymmetric matrix: spurious real parts are roundoff
        cls = ClassIndex(khat=(10, 0), p=(1, 1))
        worsts = []
        for trunc in (25, 50, 100):
            rep = truncated_spectrum(build_class_operator(cls, 2.0, trunc))
            assert rep.case is SpectrumCase.CONTINUOUS_ONLY
            worsts.append(np.max(np.abs(rep.eigenvalues.real)))
        assert all(w < 1e-12 for w in worsts)
        assert worsts[1] <= worsts[0] + 1e-12 and worsts[2] <= worsts[1] + 1e-12
        assert count_nonimaginary(
            truncated_spectrum(build_class_operator(cls, 2.0, 100)), 0.1) == 0

    def test_zero_matrix_counts_zero(self):
        rep = truncated_spectrum(build_class_operator(BENCH, 0.0, 10))
        assert count_nonimaginary(rep, 0.05) == 0

    def test_count_bound_for_benchmark(self):
        rep = truncated_spectrum(build_class_operator(BENCH, 2.0, 50))
        n = count_nonimaginary(rep, 0.05)
        assert n == 4
        assert n <= 2 * rep.zeta_bound == 8

    @pytest.mark.parametrize("tol", [0.0, -0.05, float("nan"), float("inf"),
                                     float("-inf")])
    def test_count_rejects_tol_outside_finite_positive(self, tol):
        # a NaN tol fails every comparison and an infinite one counts
        # nothing; both would read as "no non-imaginary eigenvalue"
        rep = truncated_spectrum(build_class_operator(BENCH, 2.0, 50))
        with pytest.raises(PreconditionError):
            count_nonimaginary(rep, tol)

    def test_phase_invariance_of_spectrum(self):
        # Gamma -> Gamma e^{i a} is a diagonal similarity, so the spectra
        # agree as sets
        from chaoslab.util import hausdorff_distance
        rep1 = truncated_spectrum(build_class_operator(BENCH, 2.0, 40))
        rep2 = truncated_spectrum(build_class_operator(BENCH, 2.0j, 40))
        assert hausdorff_distance(rep1.eigenvalues, rep2.eigenvalues) < 1e-10

    @pytest.mark.parametrize("cls,gamma", [
        (BENCH, 2.0),
        (BENCH, 1.3 - 0.7j),
        (ClassIndex(khat=(2, 4), p=(1, 2)), 2.0),    # skips the origin slot
        (ClassIndex(khat=(10, 0), p=(1, 1)), 2.0),   # continuous only
    ])
    def test_real_form_matches_complex_operator(self, cls, gamma):
        op = build_class_operator(cls, gamma, 50)
        rep = truncated_spectrum(op)
        assert rep.eigenvalues.dtype == np.complex128
        assert hausdorff_distance(rep.eigenvalues,
                                  np.linalg.eigvals(class_matrix(op))) < 1e-12 * abs(gamma)

    @pytest.mark.parametrize("gamma", [2.0, 1.3 - 0.7j])
    def test_spectrum_exactly_closed_under_conjugation(self, gamma):
        eigs = truncated_spectrum(build_class_operator(BENCH, gamma, 50)).eigenvalues
        assert np.any(eigs.imag != 0)
        assert np.array_equal(np.sort_complex(eigs), np.sort_complex(np.conj(eigs)))

    def test_phase_leaves_spectrum_bitwise_unchanged(self):
        rotated = 2.0 * np.exp(0.3j)
        assert abs(rotated) == 2.0
        rep1 = truncated_spectrum(build_class_operator(BENCH, 2.0, 50))
        rep2 = truncated_spectrum(build_class_operator(BENCH, rotated, 50))
        assert np.array_equal(rep1.eigenvalues, rep2.eigenvalues)

    def test_dimension_cap(self):
        with pytest.raises(PreconditionError):
            truncated_spectrum(build_class_operator(BENCH, 1.0, 1100))


class TestEvenOddSolve:
    """The solve on the half-size product Y X of the even/odd blocks."""

    @pytest.mark.parametrize("dim", [2, 3, 10, 11])
    def test_product_matches_dense_blocks(self, rng, dim):
        lower, upper = rng.standard_normal(dim - 1), rng.standard_normal(dim - 1)
        real = _tridiagonal(lower, upper)
        dense = real[1::2, 0::2] @ real[0::2, 1::2]
        got = _even_odd_product(lower, upper)
        assert got.shape == (dim // 2, dim // 2)
        assert np.max(np.abs(got - dense)) <= 4e-16 * np.max(np.abs(dense))

    @pytest.mark.parametrize("gamma,trunc", [(2.0, 50), (2.0, 100), (2.0, 200),
                                             (1.3 - 0.7j, 50)])
    def test_quadruple_symmetry_exact(self, gamma, trunc):
        rep = truncated_spectrum(build_class_operator(BENCH, gamma, trunc))
        assert quadruple_symmetry_defect(rep) == 0.0

    def test_continuous_only_real_parts_exactly_zero(self):
        for khat, trunc in [((10, 0), 50), ((-4, -1), 100)]:
            rep = truncated_spectrum(
                build_class_operator(ClassIndex(khat=khat, p=(1, 1)), 2.0, trunc))
            assert rep.case is SpectrumCase.CONTINUOUS_ONLY
            assert np.all(rep.eigenvalues.real == 0.0)

    def test_count_and_one_zero_for_nondegenerate_class(self):
        op = build_class_operator(BENCH, 2.0, 50)
        eigs = truncated_spectrum(op).eigenvalues
        assert op.dimension == 101
        assert eigs.shape == (op.dimension,)
        assert np.sum(eigs == 0) == 1

    @pytest.mark.parametrize("khat,p", PERFBENCH_CLASSES)
    def test_matches_mp_eig_of_real_form(self, khat, p):
        gamma = 2.0
        op = build_class_operator(ClassIndex(khat=khat, p=p), gamma, 10)
        ref = class_spectrum_mp(khat, p, gamma, 10)
        assert ref.size == op.dimension
        got = truncated_spectrum(op).eigenvalues
        assert hausdorff_distance(got, ref) < 1e-13 * gamma

    @pytest.mark.parametrize("cls,gamma", [
        (ClassIndex(khat=(2, 2), p=(1, 1)), 2.0),   # degenerate: skips the origin
        (ClassIndex(khat=(2, 2), p=(1, 1)), 0.0),
        (BENCH, 0.0),
    ])
    def test_zero_couplings_give_zero_spectrum(self, cls, gamma):
        op = build_class_operator(cls, gamma, 5)
        eigs = truncated_spectrum(op).eigenvalues
        assert op.dimension == (10 if op.degenerate else 11)
        assert eigs.shape == (op.dimension,)
        assert np.all(eigs == 0)


class TestContinuedFraction:
    def test_refines_toward_infinite_operator(self):
        op = build_class_operator(BENCH, 2.0, 50)
        rep = truncated_spectrum(op)
        big = rep.eigenvalues[np.abs(rep.eigenvalues.real) > 0.05]
        seed = big[np.argmax(big.real + big.imag)]
        lam = continued_fraction_eigen(op, seed)
        lam_norm = 2.0 * lam / abs(op.gamma)
        assert abs(lam_norm - BENCH_EIGENVALUE_NORMALIZED) < 1e-12

    def test_matches_mp_oracle(self):
        got = class_eigenvalue_mp((-3, -2), (1, 1), 2.0, 0.248 + 0.352j)
        assert abs(2.0 * got / 2.0 - BENCH_EIGENVALUE_NORMALIZED) < 1e-13

    def test_agrees_with_dense_trunc_400(self):
        op = build_class_operator(BENCH, 2.0, 50)
        lam = continued_fraction_eigen(op, 0.248 + 0.352j)
        big_rep = truncated_spectrum(build_class_operator(BENCH, 2.0, 400))
        dist = np.min(np.abs(big_rep.eigenvalues - lam))
        assert dist < 1e-9

    @pytest.mark.parametrize("gamma,seed", [(2.0, 0.248 + 0.352j),
                                            (6.0, 3 * (0.248 + 0.352j)),
                                            (1.3 - 0.7j, 0.18 + 0.26j)])
    def test_same_bits_as_loop_reference(self, gamma, seed):
        # the couplings written out per n, c_n and d_n as Python complex:
        # the refined value keeps these bits
        op = build_class_operator(BENCH, gamma, 40)
        depth = 4 * op.trunc
        cg = np.conj(op.gamma)
        c = {n: coef_A((1, 1), BENCH.member(n - 1)) * op.gamma
             for n in range(-depth, depth + 1)}
        d = {n: complex(coef_A((-1, -1), BENCH.member(n + 1)) * cg)
             for n in range(-depth, depth + 1)}

        def residual(lam):
            r, rp = 0.0 + 0.0j, 0.0 + 0.0j
            for n in range(depth, 0, -1):
                den = lam - d[n] * r
                rp = -c[n] * (1.0 - d[n] * rp) / (den * den)
                r = c[n] / den
            s, sp = 0.0 + 0.0j, 0.0 + 0.0j
            for n in range(-depth, 0):
                den = lam - c[n] * s
                sp = -d[n] * (1.0 - c[n] * sp) / (den * den)
                s = d[n] / den
            return lam - c[0] * s - d[0] * r, 1.0 - c[0] * sp - d[0] * rp

        lam = complex(seed)
        for _ in range(100):
            fval, fder = residual(lam)
            if abs(fval) < 1e-13:
                break
            lam = lam - fval / fder
        got = continued_fraction_eigen(op, seed)
        assert (got.real, got.imag) == (lam.real, lam.imag)

    def test_zero_gamma_returns_zero(self):
        op = build_class_operator(BENCH, 0.0, 10)
        assert continued_fraction_eigen(op, 0.3 + 0.2j) == 0.0

    def test_fixed_point_property(self):
        op = build_class_operator(BENCH, 2.0, 50)
        lam = continued_fraction_eigen(op, 0.248 + 0.352j)
        again = continued_fraction_eigen(op, lam)
        assert abs(again - lam) < 1e-13

    def test_scales_linearly_with_gamma(self):
        op1 = build_class_operator(BENCH, 2.0, 40)
        op3 = build_class_operator(BENCH, 6.0, 40)
        lam1 = continued_fraction_eigen(op1, 0.248 + 0.352j)
        lam3 = continued_fraction_eigen(op3, 3 * (0.248 + 0.352j))
        assert abs(lam3 - 3 * lam1) < 1e-11

    def test_chain_through_origin_rejected(self):
        cls = ClassIndex(khat=(2, 4), p=(1, 2))
        op = build_class_operator(cls, 1.0, 4)
        with pytest.raises(PreconditionError):
            continued_fraction_eigen(op, 0.1 + 0.1j)


class TestFullSystemConsistency:
    def test_linearized_box_system_doubles_class_coefficients(self):
        # the quadratic box system rhs(w) is the diagonal of a symmetric
        # bilinear form, so its exact linearization at the one-mode steady
        # state is L d = rhs(w*+d) - rhs(w*) - rhs(d).  Acting on a single
        # complexified class mode it reproduces exactly twice the class
        # recurrence coefficients: the class operators realize the
        # unordered-pair reading of the convolution, the box system the
        # ordered one.
        from chaoslab import kernels
        box = 6
        gamma = 0.7
        side = 2 * box + 1
        w0 = np.zeros((side, side), dtype=complex)
        w0[box + 1, box + 1] = gamma          # mode (1, 1)
        w0[box - 1, box - 1] = np.conj(gamma)
        khat, p = (-3, -2), (1, 1)
        for n in (0, 1, 2):
            j = (khat[0] + n * p[0], khat[1] + n * p[1])
            d = np.zeros_like(w0)
            d[j[0] + box, j[1] + box] = 1.0
            lin = (kernels.galerkin_rhs(w0 + d, box)
                   - kernels.galerkin_rhs(w0, box)
                   - kernels.galerkin_rhs(d, box))
            up = (j[0] + p[0], j[1] + p[1])
            down = (j[0] - p[0], j[1] - p[1])
            c_up = coef_A(p, j) * gamma              # feeds the row above
            d_down = coef_A((-1, -1), j) * np.conj(gamma)  # and below
            assert lin[up[0] + box, up[1] + box] == pytest.approx(2 * c_up)
            assert lin[down[0] + box, down[1] + box] == pytest.approx(2 * d_down)
            lin[up[0] + box, up[1] + box] = 0
            lin[down[0] + box, down[1] + box] = 0
            assert np.max(np.abs(lin)) < 1e-15


class TestSpectralMapping:
    def test_random_tridiagonal(self, rng):
        op = build_class_operator(BENCH, 1.5 + 0.4j, 30)
        assert spectral_mapping_check(op, 1.0) < 1e-8

    def test_small_t_near_identity(self):
        op = build_class_operator(BENCH, 2.0, 20)
        d = spectral_mapping_check(op, 1e-8)
        assert d < 1e-7

    def test_zero_gamma_both_identity(self):
        op = build_class_operator(BENCH, 0.0, 20)
        assert spectral_mapping_check(op, 1.0) == 0.0

    def test_t_zero_rejected(self):
        op = build_class_operator(BENCH, 1.0, 5)
        with pytest.raises(PreconditionError):
            spectral_mapping_check(op, 0.0)


class TestQuadrupleSymmetry:
    def test_benchmark_truncations(self):
        for trunc in (50, 100):
            rep = truncated_spectrum(build_class_operator(BENCH, 2.0, trunc))
            assert quadruple_symmetry_defect(rep) < 1e-8

    def test_symmetric_real_tridiagonal(self, rng):
        # real symmetric with zero diagonal: spectrum is real and +- symmetric
        n = 40
        off = rng.standard_normal(n - 1)
        mat = np.diag(off, 1) + np.diag(off, -1)
        rep = truncated_spectrum(build_class_operator(BENCH, 0.0, (n - 1) // 2))
        rep.eigenvalues = np.linalg.eigvals(mat)
        assert quadruple_symmetry_defect(rep) < 1e-10

    def test_empty_spectrum(self):
        rep = truncated_spectrum(build_class_operator(BENCH, 1.0, 5))
        rep.eigenvalues = np.array([], dtype=complex)
        assert quadruple_symmetry_defect(rep) == 0.0


class TestEmptyDiskClasses:
    def test_random_classes_outside_disk_stay_imaginary(self, rng):
        # members outside the closed disk force sub*super < 0, so every
        # truncation is similar to a real antisymmetric matrix
        directions = [(1, 0), (1, 1), (2, 1), (1, 2), (3, 0)]
        tested = 0
        while tested < 20:
            p = directions[tested % len(directions)]
            khat = (int(rng.integers(-12, 13)), int(rng.integers(-12, 13)))
            if khat == (0, 0):
                continue
            cls = ClassIndex(khat=khat, p=p)
            if class_intersects_disk(cls) or cls.is_degenerate():
                continue
            tested += 1
            prev = None
            for trunc in (50, 100):
                rep = truncated_spectrum(build_class_operator(cls, 2.0, trunc))
                assert rep.case is SpectrumCase.CONTINUOUS_ONLY
                worst = float(np.max(np.abs(rep.eigenvalues.real)))
                assert worst < 1e-12
                if prev is not None:
                    assert worst <= prev + 1e-12
                prev = worst


class TestZetaBound:
    @pytest.mark.parametrize("p,zeta_val", [((1, 1), 4), ((2, 1), 12), ((1, 0), 0)])
    def test_ten_classes_per_direction(self, p, zeta_val, rng):
        khats = []
        k = 1
        while len(khats) < 10:
            cand = (k % 7 - 3, (k * 3) % 11 - 5)
            k += 1
            if cand == (0, 0) or cand[0] * p[1] - cand[1] * p[0] == 0:
                continue
            khats.append(cand)
        for khat in khats:
            rep = truncated_spectrum(
                build_class_operator(ClassIndex(khat=khat, p=p), 2.0, 100))
            assert rep.zeta_bound == zeta_val
            assert count_nonimaginary(rep, 0.05 * 2.0) <= 2 * zeta_val
