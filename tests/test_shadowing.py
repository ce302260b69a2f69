import math
from functools import reduce

import numpy as np
import pytest

from chaoslab.errors import NumericError, PreconditionError
from chaoslab.shadowing import (MapSystem, PseudoOrbit, find_shadow,
                                hyperbolicity_estimate, linear_map_system,
                                min_norm_orbit_step, palmer_assembly,
                                rk4_flow_system, step_defects)
from oracles import (double_well_homoclinic, double_well_jacobian,
                     double_well_rhs, exact_linear_shadow,
                     min_norm_orbit_step_ref, shadow_distance,
                     validate_jacobian, verified_pseudo_orbit)

HYP = linear_map_system(np.diag([2.0, 0.5]))


@pytest.fixture(scope="module")
def well_map():
    # time-0.8 map of the double-well flow; 80 internal RK4 stages keep the
    # map accurate to ~1e-10 so homoclinic bookkeeping is exact at test scale
    return rk4_flow_system(double_well_rhs, double_well_jacobian, 2,
                           dt=0.01, steps=80)


@pytest.fixture(scope="module")
def lattice_map():
    """The lattice flow map and saddle of `chaoslab shadow --map nls-poincare`
    at its default parameters."""
    from chaoslab.nls import NLSParams, discrete_saddle, flow_map
    params = NLSParams(N=8, omega=3.5, alpha=1.0, beta=4.0, epsilon=0.01)
    system = flow_map(params, dt=0.5 * params.max_stable_dt(), steps=20)
    q = discrete_saddle(params).q
    return system, np.concatenate([q.real, q.imag])


@pytest.fixture(scope="module")
def dashed_map():
    """The dashed-line flow map of `chaoslab shadow --map dashed-line` and a
    point of its stationary line."""
    from chaoslab.dashed_line import DashedLineParams, flow_map
    params = DashedLineParams(gamma=1.0, epsilon=0.0, trunc=5)
    system = flow_map(params, dt=0.05, steps=10)
    return system, np.concatenate(([1.0], np.zeros(params.size)))


class TestPseudoOrbit:
    def test_true_orbit_defect_zero(self):
        orbit = HYP.orbit(np.array([1e-4, 1.0]), 12)
        assert step_defects(orbit, HYP).max() < 1e-15

    def test_single_perturbation_bounded(self, rng):
        orbit = HYP.orbit(np.array([1e-4, 1.0]), 12)
        pts = orbit.copy()
        pts[6] += 1e-3 * np.array([1.0, -1.0])
        defects = step_defects(pts, HYP)
        assert np.count_nonzero(defects > 1e-12) == 2
        assert defects.max() <= 1e-3 * 2.0 + 1e-12  # 1 + Lipschitz bound

    def test_single_point_rejected(self):
        with pytest.raises(PreconditionError):
            step_defects(np.array([[1.0, 2.0]]), HYP).max()

    def test_verified_constructor_enforces_delta(self):
        orbit = HYP.orbit(np.array([1e-4, 1.0]), 8)
        pts = orbit + 1e-3
        with pytest.raises(PreconditionError):
            verified_pseudo_orbit(pts, HYP, delta=1e-9)

    def test_non_finite_point_rejected(self):
        # a NaN defect is never > delta, so it once passed as delta = nan
        orbit = HYP.orbit(np.array([1e-4, 1.0]), 8)
        for bad in (np.nan, np.inf):
            pts = orbit.copy()
            pts[3, 1] = bad
            for build in (lambda: PseudoOrbit(pts, 0.1),
                          lambda: verified_pseudo_orbit(pts, HYP),
                          lambda: verified_pseudo_orbit(pts, HYP, delta=1.0)):
                with pytest.raises(PreconditionError):
                    build()
        with pytest.raises(PreconditionError):
            PseudoOrbit(orbit, float("nan"))

    def test_orbit_length_below_one_rejected(self):
        assert HYP.orbit(np.ones(2), 1).shape == (1, 2)
        for length in (0, -1):
            with pytest.raises(PreconditionError):
                HYP.orbit(np.ones(2), length)


class TestFlowMap:
    def test_blowup_raises_numeric_error(self, well_map):
        from chaoslab.dashed_line import DashedLineParams, flow_map
        dashed = flow_map(DashedLineParams(1.0, 0.0, 5), 0.05, 10)
        # the cubic and quadratic terms take starts this large past the
        # blow-up limit within the first RK4 step, in the map and in its
        # variational twin alike
        cases = [(well_map.map, np.array([1e60, 0.0])),
                 (well_map.jacobian, np.array([1e60, 0.0])),
                 (dashed.map, np.full(12, 1e100)),
                 (dashed.jacobian, np.full(12, 1e100))]
        # a stack blows up at the earliest step of any row, here one row
        # among tame ones
        well_stack = np.array([[0.2, 0.1], [1e100, 0.0], [-0.3, 0.0]])
        dashed_stack = np.zeros((3, 12))
        dashed_stack[2] = 1e100
        cases += [(well_map.map, well_stack), (well_map.jacobian, well_stack),
                  (dashed.map, dashed_stack), (dashed.jacobian, dashed_stack)]
        for fn, x in cases:
            with pytest.raises(NumericError) as excinfo:
                fn(x)
            assert excinfo.value.step == 1

    def test_state_of_wrong_size_rejected(self, well_map):
        # the Jacobian stacks the state with the identity, so a state of the
        # wrong size would otherwise split at the wrong index
        for fn in (well_map.map, well_map.jacobian):
            for x in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 3, 2)),
                      np.zeros((0, 2))):
                with pytest.raises(PreconditionError):
                    fn(x)

    def test_stack_rows_are_single_calls(self, well_map):
        x = np.array([[0.35, -0.2], [-0.8, 0.4], [0.0, 0.0], [1.1, 0.3]])
        images, jacs = well_map.map(x), well_map.jacobian(x)
        assert images.shape == (4, 2) and jacs.shape == (4, 2, 2)
        for j in range(4):
            assert np.array_equal(images[j], well_map.map(x[j]))
            assert np.array_equal(jacs[j], well_map.jacobian(x[j]))

    def test_linear_map_on_a_stack(self, rng):
        m = rng.standard_normal((3, 3))
        system = linear_map_system(m)
        x = rng.standard_normal((5, 3))
        images, jacs = system.map(x), system.jacobian(x)
        assert jacs.shape == (5, 3, 3)
        for j in range(5):
            assert np.max(np.abs(images[j] - m @ x[j])) < 1e-14
            assert np.array_equal(jacs[j], m)
        assert np.array_equal(system.jacobian(x[0]), m)


class TestShadowDistance:
    def test_true_orbit_shadows_itself(self):
        orbit = HYP.orbit(np.array([1e-4, 1.0]), 10)
        pseudo = verified_pseudo_orbit(orbit, HYP)
        assert shadow_distance(orbit[0], pseudo, HYP) == 0.0

    def test_uniform_defect_two_delta_bound(self, rng):
        orbit = HYP.orbit(np.array([1e-5, 1.0]), 30)
        delta = 1e-5
        pts = orbit + rng.uniform(-delta, delta, orbit.shape)
        pseudo = verified_pseudo_orbit(pts, HYP)
        shadow = exact_linear_shadow([2.0, 0.5], pts)
        eps = float(np.max(np.abs(shadow - pts)))
        assert eps <= 2.0 * pseudo.delta
        assert shadow_distance(shadow[0], pseudo, HYP) <= 2.0 * pseudo.delta

    def test_far_start_grows_along_unstable(self):
        orbit = HYP.orbit(np.array([1e-5, 1.0]), 10)
        pseudo = verified_pseudo_orbit(orbit, HYP)
        start = orbit[0] + np.array([0.1, 0.0])
        d = shadow_distance(start, pseudo, HYP)
        assert d >= 0.1 * 2.0 ** 9 * 0.99


class TestFindShadow:
    def test_matches_closed_form_oracle(self, rng):
        orbit = HYP.orbit(np.array([1e-6, 1.0]), 24)
        pts = orbit + rng.uniform(-1e-5, 1e-5, orbit.shape)
        pseudo = verified_pseudo_orbit(pts, HYP)
        result = find_shadow(pseudo, HYP)
        oracle = exact_linear_shadow([2.0, 0.5], pts)
        assert np.max(np.abs(result.orbit - oracle)) < 1e-12
        assert result.epsilon <= 2.0 * pseudo.delta

    def test_true_orbit_returned_unchanged(self):
        orbit = HYP.orbit(np.array([1e-6, 1.0]), 16)
        pseudo = verified_pseudo_orbit(orbit, HYP)
        result = find_shadow(pseudo, HYP)
        assert result.epsilon < 1e-14

    def test_shadow_is_true_orbit(self, rng):
        orbit = HYP.orbit(np.array([1e-6, 1.0]), 20)
        pts = orbit + rng.uniform(-1e-4, 1e-4, orbit.shape)
        pseudo = verified_pseudo_orbit(pts, HYP)
        result = find_shadow(pseudo, HYP)
        assert step_defects(result.orbit, HYP).max() < 1e-10

    def test_epsilon_scales_linearly_with_delta(self, rng):
        orbit = HYP.orbit(np.array([1e-6, 1.0]), 20)
        eps_values = []
        deltas = (1e-6, 1e-5, 1e-4)
        for delta in deltas:
            pts = orbit + rng.uniform(-delta, delta, orbit.shape)
            result = find_shadow(verified_pseudo_orbit(pts, HYP), HYP)
            eps_values.append(result.epsilon)
        slopes = [e / d for e, d in zip(eps_values, deltas)]
        assert max(slopes) < 3.0  # finite slope, consistent with the 2-delta bound

    def test_nonlinear_map_shadow(self, rng, well_map):
        x0 = np.array([0.35, -0.2])
        orbit = well_map.orbit(x0, 10)
        pts = orbit + rng.uniform(-1e-6, 1e-6, orbit.shape)
        result = find_shadow(verified_pseudo_orbit(pts, well_map), well_map)
        assert step_defects(result.orbit, well_map).max() <= 1e-11

    def test_missing_jacobian_rejected(self):
        bare = MapSystem(dimension=2, map=lambda x: x)
        pseudo = PseudoOrbit(np.zeros((3, 2)), 0.0)
        with pytest.raises(PreconditionError):
            find_shadow(pseudo, bare)

    def test_non_finite_residual_or_step_raises_at_once(self):
        pseudo = PseudoOrbit(HYP.orbit(np.array([1e-4, 1.0]), 8) + 1e-3, 1e-2)
        nan_map = MapSystem(dimension=2,
                            map=lambda x: np.full(np.shape(x), np.nan),
                            jacobian=HYP.jacobian)
        nan_jacobian = MapSystem(
            dimension=2, map=HYP.map,
            jacobian=lambda x: np.full(np.shape(x)[:-1] + (2, 2), np.nan))
        for system in (nan_map, nan_jacobian):
            with pytest.raises(NumericError) as excinfo:
                find_shadow(pseudo, system)
            assert len(excinfo.value.history) == 1

    @pytest.mark.parametrize("length", [2, 3, 21, 50])
    def test_step_matches_dense_lstsq(self, rng, well_map, lattice_map,
                                      dashed_map, length):
        cases = {"linear": (HYP, rng.uniform(-1.0, 1.0, (length, 2))),
                 "double-well": (well_map, rng.uniform(-1.0, 1.0, (length, 2)))}
        for name, (system, base) in (("lattice", lattice_map),
                                     ("dashed-line", dashed_map)):
            cases[name] = (system, base + 1e-2 * rng.standard_normal(
                (length, system.dimension)))
        for name, (system, pts) in cases.items():
            jacs = system.jacobian(pts[:-1])
            res = pts[1:] - system.map(pts[:-1])
            step = min_norm_orbit_step(jacs, res)
            ref = min_norm_orbit_step_ref(jacs, res)
            gap = np.max(np.abs(step - ref)) / np.max(np.abs(ref))
            assert gap < 1e-12, (name, gap)

    def test_long_lattice_orbit(self, lattice_map):
        # L = 84 in R^16, the pseudo-orbit of `chaoslab shadow --map
        # nls-poincare --word 0110 --m 10`; the dense lstsq step took three
        # Newton steps (four residuals) here too
        system, saddle = lattice_map
        kick = 1e-3 * np.random.default_rng(0).standard_normal(16)
        seg = system.orbit(saddle + kick, 21)
        pseudo = palmer_assembly(saddle, seg, "0110", system)
        assert len(pseudo) == 84
        result = find_shadow(pseudo, system)
        scale = max(1.0, float(np.max(np.abs(pseudo.points))))
        assert np.max(step_defects(result.orbit, system)) < 1e-9 * scale
        assert len(result.residual_history) == 4


class TestPalmerAssembly:
    def test_all_zeros_word_is_fixed_point_orbit(self, well_map):
        seg = np.array([double_well_homoclinic(0.8 * j) for j in range(-4, 5)])
        pseudo = palmer_assembly(np.zeros(2), seg, "000", well_map)
        assert pseudo.delta < 1e-9

    def test_linear_synthetic_joint_gap(self):
        # not homoclinic (linear maps have none): checks the bookkeeping
        # against the analytically known joint gaps
        m = 3
        seed = np.array([1e-6, 1.0])
        seg = HYP.orbit(seed, 2 * m + 1)
        pseudo = palmer_assembly(np.zeros(2), seg, "010", HYP)
        gap_in = np.max(np.abs(seg[0]))                 # |seg_0 - f(x0)|
        gap_out = np.max(np.abs(HYP.map(seg[-1])))       # |f(seg_last) - x0|
        assert pseudo.delta == pytest.approx(max(gap_in, gap_out), rel=1e-12)

    def test_defect_decays_with_segment_length(self, well_map):
        x0 = np.zeros(2)
        deltas = {}
        for m in (5, 10):
            seg = np.array([double_well_homoclinic(0.8 * j)
                            for j in range(-m, m + 1)])
            deltas[m] = palmer_assembly(x0, seg, "0110", well_map).delta
        assert deltas[10] < deltas[5]

    def test_decay_rate_matches_saddle_contraction(self, well_map):
        x0 = np.zeros(2)
        deltas = {}
        for m in (6, 12):
            seg = np.array([double_well_homoclinic(0.8 * j)
                            for j in range(-m, m + 1)])
            deltas[m] = palmer_assembly(x0, seg, "010", well_map).delta
        rate = (math.log(deltas[6]) - math.log(deltas[12])) / 6.0
        est = hyperbolicity_estimate(np.tile(x0, (40, 1)), well_map)
        alpha = -est.contraction_rate
        assert abs(rate - alpha) / alpha < 0.1

    def test_even_segment_rejected(self, well_map):
        seg = np.zeros((6, 2))
        with pytest.raises(PreconditionError):
            palmer_assembly(np.zeros(2), seg, "01", well_map)

    def test_bad_word_rejected(self, well_map):
        seg = np.zeros((5, 2))
        with pytest.raises(PreconditionError):
            palmer_assembly(np.zeros(2), seg, "012", well_map)


class TestHyperbolicity:
    def test_linear_diagonal_exact(self):
        orbit = HYP.orbit(np.array([1.0, 1.0]), 20)
        rep = hyperbolicity_estimate(orbit, HYP)
        assert rep.rates[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert rep.rates[1] == pytest.approx(-math.log(2.0), abs=1e-12)
        assert rep.hyperbolic
        assert rep.angle_min == pytest.approx(math.pi / 2, abs=1e-9)
        assert rep.bound_surrogate == pytest.approx(1.0, abs=1e-12)

    def test_rotation_flagged_nonhyperbolic(self):
        th = 0.7
        rot = linear_map_system(np.array([[math.cos(th), -math.sin(th)],
                                          [math.sin(th), math.cos(th)]]))
        rep = hyperbolicity_estimate(rot.orbit(np.array([1.0, 0.0]), 24), rot)
        assert np.max(np.abs(rep.rates)) < 1e-10
        assert not rep.hyperbolic

    def test_dashed_line_saddle_rates_match_jacobian(self):
        # per-unit-time QR rates at the stationary line recover the real
        # parts of the model linearization; the map time must be long
        # enough that the spectral gap drives QR alignment below 1e-6
        from chaoslab.dashed_line import DashedLineParams, flow_map, model_jacobian
        params = DashedLineParams(gamma=1.0, epsilon=1.0, trunc=4)
        dt, steps = 0.1, 50
        T = dt * steps
        flow = flow_map(params, dt=dt, steps=steps)
        fmap, fjac = flow.map, flow.jacobian
        system = MapSystem(dimension=params.size + 1, map=fmap, jacobian=fjac)
        fp = np.concatenate(([1.0], np.zeros(params.size)))
        rep = hyperbolicity_estimate(np.tile(fp, (60, 1)), system)
        lin = model_jacobian(fp, params)
        real_parts = np.linalg.eigvals(lin).real
        # the leading rate has multiplicity two; the individual QR diagonals
        # split around it but their mean (the top-2 volume rate) converges
        top_pair = rep.tail_rates[:2].mean() / T
        bottom_pair = rep.tail_rates[-2:].mean() / T
        assert abs(top_pair - real_parts.max()) < 1e-6
        assert abs(bottom_pair - real_parts.min()) < 1e-6

    @pytest.mark.parametrize("form", ["upper", "flag-contracting", "lower"])
    @pytest.mark.parametrize("a, angle", [(0.0, 1.5708), (1.0, 0.9828),
                                          (5.0, 0.2915), (50.0, 0.0300)])
    def test_constant_map_angle_closed_form(self, form, a, angle):
        # [[2, a], [0, 0.5]] has E^u = (1, 0) and E^s = (-a, 1.5), at an angle
        # arccos(|a| / sqrt(a^2 + 2.25)); so have [[0.5, a], [0, 2]] (whose
        # invariant flag e_1 contracts, so the angle takes the second sweep)
        # and [[2, 0], [a, 0.5]]
        matrix = {"upper": [[2.0, a], [0.0, 0.5]],
                  "flag-contracting": [[0.5, a], [0.0, 2.0]],
                  "lower": [[2.0, 0.0], [a, 0.5]]}[form]
        system = linear_map_system(np.array(matrix))
        rep = hyperbolicity_estimate(system.orbit(np.ones(2), 60), system)
        exact = math.acos(abs(a) / math.sqrt(a * a + 2.25))
        assert exact == pytest.approx(angle, abs=5e-5)
        assert rep.angle_min == pytest.approx(exact, abs=1e-12)
        assert rep.hyperbolic and rep.details["n_neutral"] == 0
        if form != "lower":
            assert rep.rates == pytest.approx([math.log(2.0), math.log(0.5)],
                                              abs=1e-14)

    def test_time_varying_angles_match_dense_products(self):
        # J_j = (I + 0.2 G_j) diag(4, 2.5, 0.5, 0.25) (I + 0.2 G'_j).  At point j,
        # E^u is the top-2 left singular space of J_{j-1}...J_{j-k} and E^s
        # the bottom-2 right singular space of J_{j+k-1}...J_j, both aligned
        # to about 0.2^k.  The dense products also carry roundoff of about
        # eps (4 / 2.5)^k into both spaces: 2e-8 at k = 30, 5e-11 at k = 20.
        rng = np.random.default_rng(7)
        L, d, k = 120, 4, 20
        eye = np.eye(d)
        jacs = np.array([(eye + 0.2 * rng.standard_normal((d, d)))
                         @ np.diag([4.0, 2.5, 0.5, 0.25])
                         @ (eye + 0.2 * rng.standard_normal((d, d)))
                         for _ in range(L)])
        # the states count the orbit index, which picks the Jacobian
        system = MapSystem(dimension=d, map=lambda x: x + 1.0,
                           jacobian=lambda x: jacs[np.asarray(x)[..., 0].astype(int)])
        rep = hyperbolicity_estimate(system.orbit(np.zeros(d), L), system)
        lo, hi = rep.details["window"]
        assert (lo, hi) == (30, 90)
        assert (rep.details["n_unstable"], rep.details["n_stable"]) == (2, 2)

        def product(factors):
            return reduce(lambda p, m: m @ p, factors, eye)

        for j in range(lo, hi + 1):
            e_up = np.linalg.svd(product(jacs[j - k:j]))[0][:, :2]
            e_down = np.linalg.svd(product(jacs[j:j + k]))[2][2:].T
            cos = np.linalg.svd(e_up.T @ e_down, compute_uv=False)[0]
            assert rep.details["angles"][j - lo] == pytest.approx(
                math.acos(min(cos, 1.0)), abs=1e-8)
        assert rep.angle_min == rep.details["angles"].min()

    def test_neutral_rate_counted_and_not_hyperbolic(self):
        system = linear_map_system(np.diag([2.0, 1.0, 0.5]))
        rep = hyperbolicity_estimate(system.orbit(np.ones(3), 20), system)
        assert rep.details["n_neutral"] == 1
        assert rep.angle_min == pytest.approx(math.pi / 2, abs=1e-12)
        assert not rep.hyperbolic

    def test_orbit_below_four_points_not_hyperbolic(self):
        # below L = 4 the window L//4 .. L - L//4 reaches j = 0 and j = L,
        # where E^u and E^s are still the sweep's start frames
        system = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
        short = hyperbolicity_estimate(system.orbit(np.ones(2), 3), system)
        assert short.details["window"] == (0, 3)
        assert not short.hyperbolic
        rep = hyperbolicity_estimate(system.orbit(np.ones(2), 4), system)
        assert rep.details["window"] == (1, 3)
        assert rep.hyperbolic

    def test_singular_jacobian_raises_with_orbit_index(self):
        flat = linear_map_system(np.diag([2.0, 0.0]))
        with pytest.raises(NumericError) as err:
            hyperbolicity_estimate(flat.orbit(np.ones(2), 10), flat)
        assert err.value.step == 0
        jacs = np.tile(np.diag([2.0, 0.5]), (10, 1, 1))
        jacs[3] = np.diag([2.0, 0.0])
        system = MapSystem(dimension=2, map=lambda x: x + 1.0,
                           jacobian=lambda x: jacs[np.asarray(x)[..., 0].astype(int)])
        with pytest.raises(NumericError, match="orbit index 3") as err:
            hyperbolicity_estimate(system.orbit(np.zeros(2), 10), system)
        assert err.value.step == 3

    def test_jacobian_validation(self, well_map):
        assert validate_jacobian(
            well_map, [np.array([0.2, 0.1]), np.array([-0.8, 0.4])]) < 1e-7
        bad = MapSystem(dimension=2, map=lambda x: x * 2.0,
                        jacobian=lambda x: np.eye(2) * 2.5)
        with pytest.raises(PreconditionError):
            validate_jacobian(bad, [np.array([1.0, 1.0])])

    def test_jacobian_validation_one_map_call_per_point(self, well_map):
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return well_map.map(x)

        system = MapSystem(dimension=2, map=counted, jacobian=well_map.jacobian)
        validate_jacobian(system, [np.array([0.2, 0.1]), np.array([-0.8, 0.4])])
        assert calls == [(4, 2), (4, 2)]
