import numpy as np
import pytest

from chaoslab import _kernels_py
from chaoslab.dashed_line import (_STENCILS, DashedLineParams,
                                  HeteroclinicParams, block_couplings,
                                  dash_factor, flow_map, heteroclinic_states,
                                  integrate, kappa_value, model_jacobian,
                                  model_rhs, orbit_residual, phase_sum_constant)
from chaoslab.errors import NumericError, PreconditionError
from chaoslab.fourier import coef_A
from oracles import dashed_rhs_ref


def fixed_point(p):
    """The stationary line omega_p = Gamma, omega = 0, as a stacked state."""
    return np.concatenate(([p.gamma], np.zeros(p.size)))


class TestCouplings:
    def test_block_couplings_from_interaction(self):
        a1, a2 = block_couplings()
        assert a1 == coef_A((1, 1), (-2, -1)) == pytest.approx(-3 / 20)
        assert a2 == coef_A((1, 1), (-1, 0)) == pytest.approx(1 / 4)

    def test_kappa_real_and_signed(self):
        a1, a2 = block_couplings()
        expected = np.sqrt(-a1 * a2) * np.sqrt(1 + a2 / (4 * a1))
        assert kappa_value(1) == pytest.approx(expected)
        assert kappa_value(-1) == pytest.approx(-expected)
        assert -a1 * a2 > 0 and 1 + a2 / (4 * a1) >= 0

    def test_dash_pattern(self):
        eps = 0.3
        assert dash_factor(0, eps) == eps
        assert dash_factor(5, eps) == eps
        assert dash_factor(-5, eps) == eps
        assert dash_factor(1, eps) == 1.0
        assert dash_factor(7, eps) == 1.0

    def test_phase_sum_matches_kappa_branch(self):
        a1, a2 = block_couplings()
        for sign in (1, -1):
            s = phase_sum_constant(sign)
            assert np.sqrt(-a1 * a2) * np.cos(s) == pytest.approx(kappa_value(sign))


class TestModelRHS:
    def test_fixed_point_line_stationary(self):
        for gamma in (0.5, 2.0, -1.3):
            for eps in (0.0, 0.4, 1.0):
                p = DashedLineParams(gamma=gamma, epsilon=eps, trunc=8)
                d = model_rhs(fixed_point(p), p)
                assert d[0] == 0.0
                assert np.max(np.abs(d[1:])) == 0.0

    def test_zero_state(self):
        p = DashedLineParams(gamma=1.0, epsilon=0.5, trunc=6)
        d = model_rhs(np.zeros(p.size + 1), p)
        assert d[0] == 0.0 and np.max(np.abs(d[1:])) == 0.0

    def test_matches_loop_oracle(self, rng):
        p = DashedLineParams(gamma=1.0, epsilon=1.0, trunc=10)
        x = np.concatenate(([rng.standard_normal()], rng.standard_normal(21)))
        got = model_rhs(x, p)
        dop, dom = dashed_rhs_ref(x[0], x[1:], None, 1.0, 10)
        assert abs(got[0] - dop) < 1e-14
        assert np.max(np.abs(got[1:] - dom)) < 1e-14

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.8])
    def test_matches_loop_oracle_dashed(self, rng, eps):
        # trunc 1 is the shortest chain, where both pair couplings are dashed
        for trunc in (7, 1):
            p = DashedLineParams(gamma=1.0, epsilon=eps, trunc=trunc)
            x = np.concatenate(([0.7], 0.4 * rng.standard_normal(p.size)))
            got = model_rhs(x, p)
            dop, dom = dashed_rhs_ref(x[0], x[1:], None, eps, trunc)
            assert abs(got[0] - dop) < 1e-14
            assert np.max(np.abs(got[1:] - dom)) < 1e-14

    def test_jacobian_of_a_stack_is_bitwise_per_row(self, rng):
        p = DashedLineParams(gamma=1.0, epsilon=0.6, trunc=3)
        x = np.column_stack((rng.standard_normal(4), rng.standard_normal((4, p.size))))
        jacs = model_jacobian(x, p)
        assert jacs.shape == (4, p.size + 1, p.size + 1)
        for j in range(4):
            assert np.array_equal(jacs[j], model_jacobian(x[j], p))

    def test_jacobian_matches_fd(self, rng):
        # trunc 1 is the shortest chain, L = 3 sites with both Dirichlet ends
        for trunc in (6, 1):
            p = DashedLineParams(gamma=1.0, epsilon=0.6, trunc=trunc)
            x = np.concatenate(([0.9], 0.3 * rng.standard_normal(p.size)))
            jac = model_jacobian(x, p)
            fd = np.empty_like(jac)
            h = 1e-6
            for j in range(x.size):
                e = np.zeros(x.size)
                e[j] = h
                fd[:, j] = (model_rhs(x + e, p) - model_rhs(x - e, p)) / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-9


class TestAnalyticOrbit:
    def test_limits_reach_fixed_points(self):
        het = HeteroclinicParams(tau0=0.0, theta0=0.2)
        gamma = 1.0
        far = heteroclinic_states(300.0, het, gamma)
        assert far[0] == pytest.approx(gamma, abs=1e-12)
        assert np.max(np.abs(far[1:])) < 1e-12
        near = heteroclinic_states(-300.0, het, gamma)
        assert near[0] == pytest.approx(-gamma, abs=1e-12)

    def test_block_amplitudes_at_tau_zero(self):
        het = HeteroclinicParams(tau0=0.0, theta0=0.77)
        x = heteroclinic_states(0.0, het, 1.0, trunc=10)
        i = lambda n: 11 + n  # stacked index of omega_n
        r2 = x[i(1)] ** 2 + x[i(4)] ** 2
        rho2 = x[i(2)] ** 2 + x[i(3)] ** 2
        assert np.sqrt(r2) == pytest.approx(np.sqrt(5 / 8), abs=1e-14)
        assert np.sqrt(rho2 / r2) == pytest.approx(np.sqrt(3 / 5), abs=1e-14)

    def test_radius_relations_pointwise(self):
        a1, a2 = block_couplings()
        het = HeteroclinicParams(tau0=0.4, theta0=-0.9, kappa_sign=-1)
        for t in np.linspace(-4, 4, 17):
            x = heteroclinic_states(t, het, 1.3, trunc=8)
            i = lambda n: 9 + n  # stacked index of omega_n
            r2 = x[i(1)] ** 2 + x[i(4)] ** 2
            rho2 = x[i(2)] ** 2 + x[i(3)] ** 2
            assert rho2 == pytest.approx((-a1 / a2) * r2, abs=1e-14)

    def test_time_reflection_swaps_endpoints(self):
        gamma = 1.0
        fwd = HeteroclinicParams(tau0=0.6, theta0=0.1)
        bwd = HeteroclinicParams(tau0=-0.6, theta0=0.1)
        for t in (0.5, 2.0):
            xf = heteroclinic_states(t, fwd, gamma)
            xb = heteroclinic_states(-t, bwd, gamma)
            assert xf[0] == pytest.approx(-xb[0], abs=1e-14)

    def test_trunc_too_small_rejected(self):
        with pytest.raises(PreconditionError):
            heteroclinic_states(0.0, HeteroclinicParams(0.0, 0.0), 1.0, trunc=4)

    def test_overflow_is_a_numeric_failure(self):
        # cosh(tau) overflows at |kappa * gamma * t| near 710; a non-finite
        # gamma is a bad input
        het = HeteroclinicParams(tau0=-2.0, theta0=0.3)
        assert np.all(np.isfinite(heteroclinic_states(0.0, het, 1e200)))
        with pytest.raises(NumericError):
            heteroclinic_states(np.array([0.0, -1.0]), het, 1e200)
        for gamma in (np.nan, np.inf):
            with pytest.raises(PreconditionError):
                heteroclinic_states(0.0, het, gamma)


class TestOrbitResidual:
    def test_contract_100_samples(self):
        het = HeteroclinicParams(tau0=0.0, theta0=0.3)
        res = orbit_residual(het, 1.0, np.linspace(-5, 5, 100))
        assert res < 1e-7

    def test_both_branches_and_gammas(self):
        for sign in (1, -1):
            het = HeteroclinicParams(tau0=0.5, theta0=-1.0, kappa_sign=sign)
            assert orbit_residual(het, 1.7, np.linspace(-3, 3, 25)) < 1e-7

    def test_matches_per_sample_loop(self):
        # the residual evaluates all samples at once; per sample it does
        # the arithmetic of a loop over the samples
        het = HeteroclinicParams(tau0=-2.0, theta0=0.3, kappa_sign=-1)
        gamma, fd_step, ts = 1.3, 1e-4, np.linspace(-5, 5, 37)
        p = DashedLineParams(gamma=gamma, epsilon=0.0, trunc=10)
        offsets, weights = _STENCILS[5]
        c = _kernels_py.dashed_coupling_matrix(p.sub, p.sup, p.pair)
        worst = 0.0
        for t in ts:
            dx = _kernels_py.dashed_field(heteroclinic_states(t, het, gamma), c)
            fd = np.zeros(p.size + 1)
            for off, wgt in zip(offsets, weights):
                fd += wgt * heteroclinic_states(t + off * fd_step, het, gamma)
            worst = max(worst, np.max(np.abs(dx - fd / fd_step)))
        res = orbit_residual(het, gamma, ts, fd_step=fd_step)
        assert abs(res - worst) <= 1e-12 * worst

    def test_degenerate_gamma_zero(self):
        het = HeteroclinicParams(tau0=0.2, theta0=0.4)
        assert orbit_residual(het, 0.0, np.linspace(-2, 2, 9)) == 0.0

    def test_stencil_order_improves_residual(self):
        # compare at a step large enough that truncation error dominates
        het = HeteroclinicParams(tau0=0.0, theta0=0.3)
        ts = np.linspace(-3, 3, 20)
        res3 = orbit_residual(het, 2.0, ts, fd_step=0.05, stencil=3)
        res5 = orbit_residual(het, 2.0, ts, fd_step=0.05, stencil=5)
        assert res5 < res3

    def test_step_halving_shows_fourth_order(self):
        het = HeteroclinicParams(tau0=0.0, theta0=0.3)
        ts = np.linspace(-3, 3, 20)
        coarse = orbit_residual(het, 2.0, ts, fd_step=0.4, stencil=5)
        fine = orbit_residual(het, 2.0, ts, fd_step=0.2, stencil=5)
        assert coarse / fine > 8.0  # fourth order gives ~16


class TestIntegrate:
    def test_fixed_point_stays(self):
        p = DashedLineParams(gamma=1.0, epsilon=0.7, trunc=10)
        traj = integrate(fixed_point(p), p, 1e-3, 10000, sample_every=1000)
        assert abs(traj.states[-1, 0] - 1.0) < 1e-12
        assert np.max(np.abs(traj.states[-1, 1:])) < 1e-12

    def test_tracks_analytic_orbit_before_growth(self):
        # start on the connecting orbit at tau = -6 and compare while tau <= 0
        gamma = 1.0
        het = HeteroclinicParams(tau0=-6.0, theta0=0.0)
        p = DashedLineParams(gamma=gamma, epsilon=0.0, trunc=10)
        kap = kappa_value(1)
        t_end = 6.0 / (kap * gamma)
        dt = 1e-3
        steps = int(t_end / dt)
        traj = integrate(heteroclinic_states(0.0, het, gamma), p, dt, steps,
                         sample_every=200)
        worst = 0.0
        for t, x in zip(traj.times, traj.states):
            worst = max(worst, np.max(np.abs(x - heteroclinic_states(t, het, gamma))))
        assert worst < 1e-3

    def test_time_reversibility(self):
        # the field is reversible, f(R x) = -R f(x) with R flipping the sign
        # of omega_p, so an RK4 step of dt from R x is exactly R of a step of
        # -dt from x: forward 10^3 steps, then 10^3 more from R of the end,
        # return R of the start to the local-error accumulation O(dt^4)
        p = DashedLineParams(gamma=1.0, epsilon=0.3, trunc=8)
        het = HeteroclinicParams(tau0=0.0, theta0=0.1)
        start = heteroclinic_states(0.0, het, 1.0, trunc=8)
        R = np.concatenate(([-1.0], np.ones(p.size)))
        fwd = integrate(start, p, 1e-3, 1000, sample_every=1000)
        back = integrate(R * fwd.states[-1], p, 1e-3, 1000, sample_every=1000)
        assert np.max(np.abs(R * back.states[-1] - start)) < 1e-9

    def test_blowup_raises_with_step(self):
        p = DashedLineParams(gamma=1.0, epsilon=1.0, trunc=6)
        with pytest.raises(NumericError) as err:
            integrate(50.0 * np.ones(p.size + 1), p, 0.5, 10000)
        assert getattr(err.value, "step", None) is not None

    def test_bad_dt_rejected(self):
        p = DashedLineParams(gamma=1.0, epsilon=0.0, trunc=5)
        with pytest.raises(PreconditionError):
            integrate(np.zeros(p.size + 1), p, -0.1, 10)

    def test_bad_start_rejected(self):
        # one finite state of size + 1 items, as the kernels step it
        p = DashedLineParams(gamma=1.0, epsilon=0.0, trunc=5)
        for x0 in (np.zeros(p.size), np.zeros((2, p.size + 1)),
                   np.full(p.size + 1, np.nan), np.full(p.size + 1, np.inf)):
            with pytest.raises(PreconditionError):
                integrate(x0, p, 1e-3, 10)


class TestFlowMap:
    def test_variational_jacobian_consistent(self, rng):
        p = DashedLineParams(gamma=1.0, epsilon=0.5, trunc=4)
        flow = flow_map(p, dt=0.02, steps=5)
        fmap, fjac = flow.map, flow.jacobian
        x = np.concatenate(([0.8], 0.2 * rng.standard_normal(9)))
        jac = fjac(x)
        fd = np.empty_like(jac)
        h = 1e-6
        for j in range(x.size):
            e = np.zeros(x.size)
            e[j] = h
            fd[:, j] = (fmap(x + e) - fmap(x - e)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-8

    @pytest.mark.parametrize("B", [1, 3, 20])
    def test_stack_rows_match_single_states(self, rng, B):
        # a stack runs the field's products per row as one state does, and
        # a stacked Jacobian product; rows agree with single states to roundoff
        p = DashedLineParams(gamma=1.0, epsilon=0.5, trunc=4)
        flow = flow_map(p, dt=0.02, steps=5)
        x = np.column_stack((0.8 + 0.1 * rng.standard_normal(B),
                             0.2 * rng.standard_normal((B, 9))))
        images, jacs = flow.map(x), flow.jacobian(x)
        assert images.shape == (B, 10) and jacs.shape == (B, 10, 10)
        for j in range(B):
            one, one_jac = flow.map(x[j]), flow.jacobian(x[j])
            assert np.max(np.abs(images[j] - one)) <= 1e-14 * np.max(np.abs(one))
            assert np.max(np.abs(jacs[j] - one_jac)) <= 1e-14 * np.max(np.abs(one_jac))
