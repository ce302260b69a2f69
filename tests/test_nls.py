import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import kernels
from chaoslab.dashed_line import DashedLineParams, integrate
from chaoslab.errors import NumericError, PreconditionError
from chaoslab.nls import (DiscreteSaddle, NLSParams, center_wing_encode,
                          classify_profile, continuum_eigenvalues,
                          continuum_saddle, discrete_saddle, eigenvalue_table,
                          flow_map, half_period_translate, lattice_eigenvalues,
                          make_even, mollifier, pdnls_jacobian_full,
                          second_measurement, silnikov_check, simulate,
                          solve_uniform_saddle, swap_symbols)
from chaoslab.util import Trajectory
from oracles import even_sector_basis, evenness_defect, pdnls_rhs_ref

P7 = dict(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.01)


def rhs_args(p):
    """The parameter arguments of kernels.pdnls_rhs for NLSParams p."""
    return (p.N ** 2, 2.0 * p.omega ** 2, p.alpha, p.beta, p.epsilon)


def jacobian_fd_mismatch(q, p):
    """Sup-norm gap, relative to the Jacobian, between pdnls_jacobian_full
    and central differences (step 1e-6) of kernels.pdnls_rhs on (Re q, Im q)."""
    N = p.N
    jac = pdnls_jacobian_full(q, p)
    x0 = np.concatenate([q.real, q.imag])

    def rhs_r(x):
        d = kernels.pdnls_rhs(x[:N] + 1j * x[N:], *rhs_args(p))
        return np.concatenate([d.real, d.imag])

    fd = np.empty_like(jac)
    h = 1e-6
    for j in range(2 * N):
        e = np.zeros(2 * N)
        e[j] = h
        fd[:, j] = (rhs_r(x0 + e) - rhs_r(x0 - e)) / (2 * h)
    return np.max(np.abs(jac - fd)) / np.max(np.abs(jac))


class TestParams:
    def test_window_enforced(self):
        with pytest.raises(PreconditionError):
            NLSParams(N=7, omega=1.0, alpha=1.0, beta=2.0, epsilon=0.0)

    def test_n3_window_unbounded_above(self):
        NLSParams(N=3, omega=100.0, alpha=1.0, beta=200.0, epsilon=0.0)

    def test_mode_count(self):
        assert NLSParams(**P7).M == 3
        assert NLSParams(N=8, omega=3.5, alpha=1.0, beta=4.0, epsilon=0.0).M == 4


class TestRHS:
    def test_uniform_state_translation_invariant(self):
        p = NLSParams(**P7)
        c = 0.7 - 0.2j
        d = kernels.pdnls_rhs(np.full(7, c, dtype=np.complex128), *rhs_args(NLSParams(
            N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.0)))
        expected = -1j * (2 * abs(c) ** 2 * c - 2 * p.omega ** 2 * c)
        assert np.max(np.abs(d - expected)) < 1e-14

    def test_uniform_omega_is_fixed_circle(self):
        p = NLSParams(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.0)
        for phase in (0.0, 0.9, 2.2):
            q = np.full(7, p.omega * cmath.exp(1j * phase), dtype=np.complex128)
            assert np.max(np.abs(kernels.pdnls_rhs(q, *rhs_args(p)))) < 1e-13

    def test_matches_loop_oracle(self, rng):
        # omega = 0.8 lies outside the lattice window, so the raw kernel
        q = make_even(0.5 * (rng.standard_normal(7) + 1j * rng.standard_normal(7)))
        got = kernels.pdnls_rhs(q, 7 ** 2, 2.0 * 0.8 ** 2, 1.0, 2.0, 0.01)
        ref = pdnls_rhs_ref(make_even(q), 7, 0.8, 1.0, 2.0, 0.01)
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_matches_loop_oracle_window_scale(self, rng):
        p = NLSParams(**P7)
        q = make_even(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        got = kernels.pdnls_rhs(q, *rhs_args(p))
        ref = pdnls_rhs_ref(make_even(q), 7, 4.0, 1.0, 5.0, 0.01)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-15

    def test_preserves_evenness(self, rng):
        # unit-scale states; the defect is a pure rounding-order artifact
        worst = 0.0
        for _ in range(100):
            q = make_even(0.5 * (rng.standard_normal(7)
                                 + 1j * rng.standard_normal(7)))
            d = kernels.pdnls_rhs(q, 7 ** 2, 2.0 * 0.8 ** 2, 1.0, 2.0, 0.01)
            worst = max(worst, evenness_defect(d))
        assert worst < 1e-14

    def test_preserves_evenness_relative_any_scale(self, rng):
        p = NLSParams(**P7)
        worst = 0.0
        for _ in range(50):
            q = make_even(rng.standard_normal(7) + 1j * rng.standard_normal(7))
            d = kernels.pdnls_rhs(q, *rhs_args(p))
            worst = max(worst, evenness_defect(d) / np.max(np.abs(d)))
        assert worst < 1e-14

    @given(phase=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_phase_equivariance_unperturbed(self, phase):
        p = NLSParams(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.0)
        rng = np.random.default_rng(99)
        q = make_even(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        rot = cmath.exp(1j * phase)
        lhs = kernels.pdnls_rhs(q * rot, *rhs_args(p))
        rhs = rot * kernels.pdnls_rhs(q, *rhs_args(p))
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_phase_equivariance_bulk_trials(self, rng):
        # unit-scale states; the lattice Laplacian's h^-2 factor amplifies
        # rounding, so the absolute bound presumes O(1) dynamics
        args = (7 ** 2, 2.0 * 0.8 ** 2, 1.0, 2.0, 0.0)
        worst = 0.0
        for _ in range(1000):
            q = make_even(0.4 * (rng.standard_normal(7)
                                 + 1j * rng.standard_normal(7)))
            rot = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            lhs = kernels.pdnls_rhs(q * rot, *args)
            rhs = rot * kernels.pdnls_rhs(q, *args)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-13


class TestContinuumFormulas:
    def test_saddle_eps_zero(self):
        info = continuum_saddle(0.8, 1.0, 2.0, 0.0)
        assert info.I == pytest.approx(0.64)
        assert info.theta == pytest.approx(math.acos(0.8 / 2.0))

    def test_saddle_leading_order(self):
        info = continuum_saddle(0.8, 1.0, 2.0, 0.01)
        expected = 0.64 - 0.01 * (1 / 1.6) * math.sqrt(4 - 0.64)
        assert info.I == pytest.approx(expected, abs=1e-15)

    def test_theta_limit_large_beta(self):
        assert continuum_saddle(0.8, 1.0, 1e8, 0.0).theta == pytest.approx(
            math.pi / 2, abs=1e-6)

    def test_alpha_omega_bound(self):
        with pytest.raises(PreconditionError):
            continuum_saddle(0.8, 3.0, 2.0, 0.0)

    def test_eigenvalue_mode_zero_vanishes(self):
        info = continuum_saddle(0.8, 1.0, 2.0, 0.0)
        lp, lm = continuum_eigenvalues(0, 0.8, 1.0, 0.0, info.I)
        assert lp == 0 and lm == 0

    def test_eigenvalue_mode_one(self):
        lp, lm = continuum_eigenvalues(1, 0.8, 1.0, 0.0, 0.64)
        assert lp.real == pytest.approx(2 * math.sqrt(0.5 * 0.78), abs=1e-12)
        assert lm == -lp

    def test_mollifier_variants(self):
        assert mollifier(5, 10) == 1.0
        assert mollifier(20, 10) == pytest.approx(8 / 400)
        assert mollifier(20, 10, variant="singular") == 1.0

    def test_reality_branch_logic(self):
        # real iff the radicand product is nonnegative, over a parameter grid
        for omega in (0.6, 0.8, 0.95):
            for I in (omega ** 2, 0.9 * omega ** 2, 1.2 * omega ** 2):
                for n in range(5):
                    lp, _ = continuum_eigenvalues(n, omega, 1.0, 0.0, I)
                    rad = (n * n / 2 + omega ** 2 - I) * (3 * I - omega ** 2 - n * n / 2)
                    assert (abs(lp.imag) < 1e-14) == (rad >= 0)

    def test_positive_real_parts_ordering(self):
        info, table = eigenvalue_table(0.8, 1.0, 2.0, 0.01, n_max=8)
        tagged = [(n, z) for n, zp, zm in table for z in (zp, zm)]
        positives = sorted((z.real for _, z in tagged if z.real > 0))
        assert len(positives) == 2
        lam0 = max(z.real for n, z in tagged if n == 0)
        lam1 = max(z.real for n, z in tagged if n == 1)
        assert 0 < lam0 < lam1


class TestSilnikovCheck:
    def test_flags_at_reference_parameters(self):
        _, table = eigenvalue_table(0.8, 1.0, 2.0, 0.01, n_max=10)
        tagged = [(n, z) for n, zp, zm in table for z in (zp, zm)]
        rep = silnikov_check(tagged)
        assert rep.all_hold()

    def test_hand_built_spectrum(self):
        rep = silnikov_check([(0, 1.0), (1, 0.5), (2, -0.1), (3, -2.0)])
        assert rep.all_hold()

    def test_all_imaginary_fails(self):
        rep = silnikov_check([(0, 1j), (1, -1j), (2, 2j), (3, -2j)])
        assert not rep.two_unstable
        assert not rep.mode2_slowest_decay
        assert not rep.silnikov_inequality


class TestDiscreteSaddle:
    def test_eps_zero_circle_pinned(self):
        p = NLSParams(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.0)
        Q = solve_uniform_saddle(p)
        assert Q == pytest.approx(4.0 * cmath.exp(1j * math.acos(0.8)), abs=1e-12)

    def test_amplitude_matches_leading_order(self):
        p = NLSParams(**P7)
        Q = solve_uniform_saddle(p)
        predicted = (p.omega ** 2
                     - p.epsilon * math.sqrt(p.beta ** 2 - (p.alpha * p.omega) ** 2)
                     / (2 * p.omega))
        assert abs(Q) ** 2 == pytest.approx(predicted, rel=1e-4)

    def test_exactly_two_unstable_even_sector(self):
        sad = discrete_saddle(NLSParams(**P7))
        assert sad.unstable_count() == 2

    def test_full_lattice_doubles_interior_mode(self):
        # the odd sector carries a translate of the interior unstable mode,
        # so the full-lattice count is three
        p = NLSParams(**P7)
        sad = discrete_saddle(p)
        full = np.linalg.eigvals(pdnls_jacobian_full(sad.q, p))
        assert int(np.sum(full.real > 1e-4)) == 3
        # even-sector eigenvalues are a subset of the full-lattice ones
        for z in sad.eigenvalues:
            assert np.min(np.abs(full - z)) < 1e-8

    def test_jacobian_matches_finite_differences(self, rng):
        p = NLSParams(**P7)
        q = make_even(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        assert jacobian_fd_mismatch(q, p) < 1e-6

    def test_jacobian_cache_follows_size_and_epsilon(self, rng):
        # the linear block is cached per (N, epsilon): a cache keyed on less
        # would hand an earlier call's block to a later one
        for N, eps in ((7, 0.01), (7, 0.05), (8, 0.01), (7, 0.01)):
            p = NLSParams(**{**P7, "N": N, "epsilon": eps})
            q = make_even(rng.standard_normal(N) + 1j * rng.standard_normal(N))
            assert jacobian_fd_mismatch(q, p) < 1e-6

    @pytest.mark.parametrize("B", [1, 3, 20])
    def test_jacobian_of_a_stack_is_bitwise_per_row(self, rng, B):
        p = NLSParams(**P7)
        q = rng.standard_normal((B, 7)) + 1j * rng.standard_normal((B, 7))
        jacs = pdnls_jacobian_full(q, p)
        assert jacs.shape == (B, 14, 14)
        for j in range(B):
            assert np.array_equal(jacs[j], pdnls_jacobian_full(q[j], p))

    def test_saddle_is_stationary(self):
        p = NLSParams(**P7)
        sad = discrete_saddle(p)
        assert np.max(np.abs(kernels.pdnls_rhs(sad.q, *rhs_args(p)))) < 1e-12

    def test_eigenvalue_paths_continuous_in_eps(self):
        # nearest-neighbor matching between consecutive spectra; increments
        # stay below a Lipschitz-style bound ~ d(Re)/d(eps) <= alpha + 4 N^2
        prev = None
        bound = 10 * 0.002 * (1.0 + 4 * 49)
        for k in range(11):
            p = NLSParams(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.002 * k)
            eigs = discrete_saddle(p).eigenvalues
            if prev is not None:
                for z in eigs:
                    assert np.min(np.abs(prev - z)) < bound
            prev = eigs


def dense_even_spectrum(q, p):
    """Even-sector spectrum at q by a dense eigensolve of P J E."""
    E, P = even_sector_basis(p.N)
    return np.linalg.eigvals(P @ pdnls_jacobian_full(q, p) @ E)


def paired_gap(a, b):
    """Largest gap between two spectra, each eigenvalue of a paired with the
    nearest one of b not yet taken."""
    rest = list(b)
    worst = 0.0
    for z in a:
        j = int(np.argmin(np.abs(np.array(rest) - z)))
        worst = max(worst, abs(rest.pop(j) - z))
    return worst


class TestLatticeEigenvalues:
    @pytest.mark.parametrize("N", [7, 8, 16, 64, 256])
    @pytest.mark.parametrize("omega,alpha,beta,eps", [(4.0, 1.0, 5.0, 0.01),
                                                      (5.0, 0.5, 3.0, 0.05)])
    def test_matches_dense_even_sector(self, N, omega, alpha, beta, eps):
        p = NLSParams(N=N, omega=omega, alpha=alpha, beta=beta, epsilon=eps)
        sad = discrete_saddle(p)
        dense = dense_even_spectrum(sad.q, p)
        assert sad.eigenvalues.shape == dense.shape == (2 * (p.M + 1),)
        assert paired_gap(sad.eigenvalues, dense) <= 1e-12 * np.max(np.abs(dense))
        assert (sad.unstable_count()
                == DiscreteSaddle(sad.Q, sad.q, dense).unstable_count())

    @pytest.mark.parametrize("N", [7, 8, 16])
    def test_window_ends_are_zero_crossings(self, N):
        # at eps = 0 the saddle amplitude is omega, and mode m is unstable
        # exactly when N tan(pi m / N) < omega: the window's lower end is
        # mode 1's crossing and its upper end mode 2's
        p = NLSParams(N=N, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.0)
        lo, hi = p.window()
        m = np.arange(1, p.M + 1)
        for omega, count in ((lo * (1 - 1e-6), 0), (lo * (1 + 1e-6), 1),
                             (hi * (1 - 1e-6), 1), (hi * (1 + 1e-6), 2)):
            p.omega = omega  # past the window ends NLSParams would refuse
            lam = lattice_eigenvalues(p, omega)
            assert np.array_equal(lam[1:, 0].real > 0,
                                  N * np.tan(np.pi * m / N) < omega), omega
            assert int(np.sum(lam.real > 0)) == count, omega
            assert np.all(lam[:, 1].real <= 0)
            assert np.array_equal(lam[0], [0, 0])  # the defective double zero

    def test_continuum_limit(self):
        # omega = 2 pi omega_c on the unit lattice is omega_c on the 2 pi
        # circle; eigenvalues scale by (2 pi)^2, and the gap falls as h^2
        omega_c = 0.8
        target = continuum_eigenvalues(1, omega_c, 1.0, 0.0, omega_c ** 2)[0]
        gaps = []
        for N in (16, 64, 256, 1024):
            p = NLSParams(N=N, omega=2 * math.pi * omega_c, alpha=1.0, beta=8.0,
                          epsilon=0.0)
            lam = lattice_eigenvalues(p, p.omega)[1, 0] / (2 * math.pi) ** 2
            gaps.append(abs(lam - target))
        assert target.real > 0
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine < coarse / 10, gaps


class TestSimulate:
    def test_saddle_stays_put(self):
        p = NLSParams(**P7)
        sad = discrete_saddle(p)
        traj = simulate(sad.q, p, 1e-3, 1000, sample_every=1000)
        assert np.max(np.abs(traj.states[-1] - sad.q)) < 1e-10

    def test_unperturbed_uniform_profile_stays_uniform(self):
        p = NLSParams(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.0)
        q0 = np.full(7, 0.8 * p.omega, dtype=np.complex128)
        traj = simulate(q0, p, 1e-3, 2000, sample_every=200)
        spread = np.max(np.abs(traj.states - traj.states[:, :1]))
        assert spread < 1e-12

    def test_dt_bound_enforced(self):
        p = NLSParams(**P7)
        with pytest.raises(PreconditionError):
            simulate(np.full(7, 0.1, dtype=np.complex128), p, 1.0, 10)

    def test_blowup_raises_with_step(self):
        p = NLSParams(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.0)
        q0 = np.full(7, 1e6, dtype=np.complex128)
        with pytest.raises(NumericError) as err:
            simulate(q0, p, 1e-3, 1000)
        assert getattr(err.value, "step", 0) >= 1

    def test_start_is_made_even_once(self, rng):
        # a non-even start runs as its even part, bit for bit
        p = NLSParams(**P7)
        q0 = discrete_saddle(p).q * (1 + 0.05 * rng.standard_normal(7))
        assert evenness_defect(q0) > 0
        got = simulate(q0, p, 1e-3, 200, sample_every=50)
        ref = simulate(make_even(q0), p, 1e-3, 200, sample_every=50)
        assert np.array_equal(got.states, ref.states)
        assert evenness_defect(got.states[0]) == 0

    @pytest.mark.parametrize("shape", [(6,), (8,), (1, 7), ()])
    def test_start_of_wrong_shape_rejected(self, shape):
        with pytest.raises(PreconditionError):
            simulate(np.ones(shape, dtype=np.complex128), NLSParams(**P7), 1e-3, 10)

    def test_norm_diagnostic_finite(self):
        p = NLSParams(**P7)
        sad = discrete_saddle(p)
        traj = simulate(sad.q * 1.02, p, 1e-3, 2000, sample_every=500)
        norms = np.sum(np.abs(traj.states) ** 2, axis=1)
        assert np.all(np.isfinite(norms))


@pytest.mark.parametrize("steps, every", [(0, 1), (10, 3), (12, 4)])
def test_both_integrators_return_one_trajectory(steps, every):
    p = NLSParams(**P7)
    dp = DashedLineParams(gamma=1.0, epsilon=0.0, trunc=3)
    x0 = np.concatenate(([1.0], np.zeros(dp.size)))
    n = steps // every + 1
    for traj, dt in ((simulate(discrete_saddle(p).q, p, 1e-3, steps, every), 1e-3),
                     (integrate(x0, dp, 1e-2, steps, every), 1e-2)):
        assert type(traj) is Trajectory
        assert traj.states.shape[0] == n
        assert np.array_equal(traj.times, dt * every * np.arange(n))


class TestCenterWing:
    def test_profile_classification(self):
        n = np.arange(8)
        center = np.exp(-((n - 4.0) ** 2))
        wing = np.roll(center, 4)
        assert classify_profile(center) == "C"
        assert classify_profile(wing) == "W"
        assert classify_profile(np.ones(8)) == "?"

    def test_tie_site_is_ambiguous(self):
        peak2 = np.zeros(8)
        peak2[2] = 1.0  # equidistant from center and wing
        assert classify_profile(peak2) == "?"

    def test_hysteresis_compression(self):
        n = np.arange(8)
        center = np.exp(-((n - 4.0) ** 2))
        wing = np.roll(center, 4)
        samples = np.array([center] * 7 + [wing] * 2 + [center] * 3
                           + [wing] * 9 + [center] * 6)
        enc = center_wing_encode(samples)
        assert enc.symbols == "CWC"  # short excursions are debounced

    def test_translation_equivariance_exact(self, rng):
        p = NLSParams(N=8, omega=3.35, alpha=1.0, beta=5.7, epsilon=0.07)
        sad = discrete_saddle(p)
        q0 = sad.q * (1 + 0.05 * np.cos(2 * np.pi * np.arange(8) / 8))
        traj = simulate(q0, p, 1.2e-3, 20000, sample_every=50)
        enc = center_wing_encode(traj.states)
        enc_t = center_wing_encode(half_period_translate(traj.states))
        assert enc_t.per_sample == swap_symbols(enc.per_sample)
        assert enc_t.symbols == swap_symbols(enc.symbols)

    def test_half_period_needs_even(self):
        with pytest.raises(PreconditionError):
            half_period_translate(np.zeros((3, 7)))


class TestSecondMeasurement:
    def test_small_angle_limit(self):
        assert second_measurement(1.0, 0.8, 1e-7) == pytest.approx(0.8, abs=1e-12)

    def test_value_at_pi(self):
        assert second_measurement(1.0, 0.8, math.pi) == pytest.approx(
            0.8 * math.pi / 2, abs=1e-14)

    def test_even_in_delta_gamma(self):
        for dg in (0.3, 1.2, 2.9):
            assert second_measurement(1.0, 0.8, dg) == second_measurement(1.0, 0.8, -dg)

    def test_pole_rejected(self):
        with pytest.raises(PreconditionError):
            second_measurement(1.0, 0.8, 0.0)
        with pytest.raises(PreconditionError):
            second_measurement(1.0, 0.8, 2 * math.pi + 1e-14)


class TestFlowMap:
    def test_jacobian_matches_fd(self, rng):
        p = NLSParams(**P7)
        flow = flow_map(p, dt=5e-4, steps=4)
        fmap, fjac = flow.map, flow.jacobian
        q = make_even(rng.standard_normal(7) + 1j * rng.standard_normal(7)) * 0.3
        x = np.concatenate([q.real, q.imag])
        jac = fjac(x)
        fd = np.empty_like(jac)
        h = 1e-6
        for j in range(14):
            e = np.zeros(14)
            e[j] = h
            fd[:, j] = (fmap(x + e) - fmap(x - e)) / (2 * h)
        assert np.max(np.abs(jac - fd)) / np.max(np.abs(jac)) < 1e-8

    @pytest.mark.parametrize("B", [1, 3, 20])
    def test_stack_rows_equal_single_states(self, rng, B):
        # the shadow Newton maps the whole pseudo-orbit in one call; every
        # row must be the single-state result bit for bit
        p = NLSParams(**P7)
        flow = flow_map(p, dt=5e-4, steps=4)
        x = 0.3 * rng.standard_normal((B, 14))
        images, jacs = flow.map(x), flow.jacobian(x)
        assert images.shape == (B, 14) and jacs.shape == (B, 14, 14)
        for j in range(B):
            assert np.array_equal(images[j], flow.map(x[j]))
            assert np.array_equal(jacs[j], flow.jacobian(x[j]))
