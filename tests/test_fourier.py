import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.errors import PreconditionError
from chaoslab.fourier import (MAX_BOX, MAX_RESOLUTION, ClassIndex, check_grids,
                              check_resolution, class_intersects_disk, coef_A,
                              coefficients_to_grid, dealias_two_thirds,
                              embedded, energy, enstrophy, field_json,
                              grid_bracket, grid_coordinates,
                              integrate_galerkin, invert_laplacian, laplacian,
                              random_field, single_pair, zeta)
from chaoslab.kernels import galerkin_rhs
from oracles import (energy_derivative, enstrophy_derivative, field_from_json,
                     galerkin_rhs_ref, grid_to_coefficients, reality_defect,
                     unit_field, zeta_ref)

nonzero_vec = st.tuples(st.integers(-10, 10), st.integers(-10, 10)).filter(
    lambda v: v != (0, 0))


class TestCoefA:
    def test_worked_examples(self):
        assert coef_A((1, 1), (-2, -1)) == pytest.approx(-3 / 20, abs=1e-15)
        assert coef_A((1, 1), (-1, 0)) == pytest.approx(1 / 4, abs=1e-15)

    def test_parallel_vectors_vanish(self):
        assert coef_A((2, 3), (4, 6)) == 0.0

    def test_equal_norms_vanish(self):
        assert coef_A((1, 2), (2, 1)) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(PreconditionError):
            coef_A((0, 0), (1, 1))
        with pytest.raises(PreconditionError):
            coef_A((1, 1), (0, 0))

    @given(p=nonzero_vec, q=nonzero_vec)
    @settings(max_examples=300, deadline=None)
    def test_symmetric_under_swap(self, p, q):
        # both the bracket and the determinant flip sign under the swap
        assert coef_A(q, p) == pytest.approx(coef_A(p, q), abs=1e-15)

    @given(p=nonzero_vec, q=nonzero_vec)
    @settings(max_examples=300, deadline=None)
    def test_determinant_order_flips_sign(self, p, q):
        np2 = p[0] ** 2 + p[1] ** 2
        nq2 = q[0] ** 2 + q[1] ** 2
        swapped_det = 0.5 * (1.0 / nq2 - 1.0 / np2) * (q[0] * p[1] - q[1] * p[0])
        assert swapped_det == pytest.approx(-coef_A(p, q), abs=1e-15)

    def test_exhaustive_zero_structure(self):
        vecs = [(a, b) for a in range(-10, 11) for b in range(-10, 11)
                if (a, b) != (0, 0)]
        for p in vecs[::7]:
            for q in vecs[::7]:
                np2 = p[0] ** 2 + p[1] ** 2
                nq2 = q[0] ** 2 + q[1] ** 2
                det = p[0] * q[1] - p[1] * q[0]
                if np2 == nq2 or det == 0:
                    assert coef_A(p, q) == 0.0


class TestZeta:
    def test_examples(self):
        assert zeta((1, 1)) == 4
        assert zeta((1, 0)) == 0
        assert zeta((2, 1)) == 12

    def test_invariant_under_negation(self):
        for p in [(1, 1), (2, 1), (3, 2), (1, 0)]:
            assert zeta(p) == zeta((-p[0], -p[1]))

    def test_row_count_matches_double_loop(self):
        for p1 in range(-12, 13):
            for p2 in range(-12, 13):
                if (p1, p2) != (0, 0):
                    assert zeta((p1, p2)) == zeta_ref((p1, p2)), (p1, p2)


class TestClasses:
    def test_disk_intersection(self):
        assert class_intersects_disk(ClassIndex(khat=(-3, -2), p=(1, 1)))
        assert not class_intersects_disk(ClassIndex(khat=(10, 0), p=(1, 1)))


class TestCoefficientArray:
    def test_reality_enforced_on_write(self, rng):
        # random_field and single_pair write each mode with its conjugate,
        # bit for bit
        for w in (random_field(4, rng), random_field(3, rng, decay=0.2),
                  single_pair(3, (1, 2), 0.5 + 0.25j)):
            assert reality_defect(w) == 0.0
        assert single_pair(3, (1, 2), 0.5 + 0.25j)[3 - 1, 3 - 2] == 0.5 - 0.25j

    def test_origin_never_stored(self, rng):
        for box in (1, 4):
            w = random_field(box, rng)
            assert w.shape == (2 * box + 1, 2 * box + 1)
            assert w[box, box] == 0.0
            assert np.count_nonzero(w) == w.size - 1
        with pytest.raises(PreconditionError):
            single_pair(3, (0, 0), 1.0)
        with pytest.raises(PreconditionError):
            single_pair(3, (4, 0), 1.0)
        for box in (0, MAX_BOX + 1):
            with pytest.raises(PreconditionError):
                random_field(box, rng)
        with pytest.raises(PreconditionError):
            random_field(3, rng, decay=-1.0)

    def test_energy_enstrophy_single_pair(self):
        f = single_pair(3, (1, 1), 1.0)
        assert energy(f) == pytest.approx(1.0)
        assert enstrophy(f) == pytest.approx(2.0)

    def test_zero_field(self):
        f = np.zeros((7, 7), dtype=complex)
        assert energy(f) == 0.0
        assert enstrophy(f) == 0.0

    def test_quadratic_scaling(self, rng):
        f = random_field(4, rng)
        g = f * 2.5
        assert energy(g) == pytest.approx(2.5 ** 2 * energy(f))
        assert enstrophy(g) == pytest.approx(2.5 ** 2 * enstrophy(f))

    def test_embedded_keeps_modes_and_invariants(self, rng):
        f = random_field(3, rng)
        g = embedded(f, 5)
        assert np.array_equal(g[2:9, 2:9], f)
        assert np.count_nonzero(g) == np.count_nonzero(f)
        assert energy(g) == pytest.approx(energy(f), rel=1e-15)
        with pytest.raises(PreconditionError):
            embedded(f, 2)

    def test_json_roundtrip(self, rng):
        # each positive-half mode once, sorted by k, and the reader rebuilds
        # the array bit for bit through the JSON text
        f = random_field(3, rng)
        doc = json.loads(json.dumps(field_json(f)))
        assert doc["box"] == 3
        assert [tuple(mode["k"]) for mode in doc["modes"]] == [
            (k1, k2) for k1 in range(-3, 4) for k2 in range(-3, 4)
            if (k1, k2) > (-k1, -k2)]
        g = field_from_json(doc)
        assert g.tobytes() == f.tobytes()
        pair = field_json(single_pair(3, (-1, 2), 0.5 - 0.25j))
        assert pair == {"box": 3, "modes": [{"k": [1, -2], "re": 0.5, "im": 0.25}]}


class TestGalerkinRHS:
    def test_single_pair_is_steady(self):
        f = single_pair(6, (1, 1), 1.5 + 0.5j)
        assert np.max(np.abs(galerkin_rhs(f, 6))) == 0.0

    def test_empty_field(self):
        assert np.max(np.abs(galerkin_rhs(np.zeros((9, 9), dtype=complex), 4))) == 0.0

    def test_matches_loop_oracle(self, rng):
        f = random_field(3, rng)
        expected = galerkin_rhs_ref(f, 3)
        assert np.max(np.abs(galerkin_rhs(f, 3) - expected)) < 1e-13

    def test_preserves_reality(self, rng):
        worst = 0.0
        for _ in range(1000):
            worst = max(worst, reality_defect(galerkin_rhs(unit_field(3, rng), 3)))
        for _ in range(50):
            worst = max(worst, reality_defect(galerkin_rhs(unit_field(5, rng), 5)))
        assert worst < 1e-14

    def test_conservation_b8(self, rng):
        f = unit_field(8, rng, decay=0.05)
        assert abs(energy_derivative(f)) < 1e-12
        assert abs(enstrophy_derivative(f)) < 1e-12

    def test_rk4_drift_short(self, rng):
        f = unit_field(6, rng, decay=0.2)
        e0, z0 = energy(f), enstrophy(f)
        g = integrate_galerkin(f, 1e-3, 400)
        assert abs(energy(g) - e0) / e0 < 1e-10
        assert abs(enstrophy(g) - z0) / z0 < 1e-10


class TestGridCalculus:
    def test_resolution_validation(self):
        # a side that is not a power of two >= 16, a grid that is not
        # square, or not 2D, is rejected by every function that takes one
        for shape in [(12, 12), (20, 20), (16, 32), (32,), (16, 16, 16)]:
            bad = np.zeros(shape)
            for call in (check_grids, laplacian, invert_laplacian,
                         lambda g: grid_bracket(g, g)):
                with pytest.raises(PreconditionError):
                    call(bad)
        check_resolution(MAX_RESOLUTION)
        with pytest.raises(PreconditionError):
            check_resolution(2 * MAX_RESOLUTION)

    def test_bracket_cos_cos(self):
        x, y = grid_coordinates(64)
        expected = np.sin(x) * np.sin(y)
        assert np.max(np.abs(grid_bracket(np.cos(x), np.cos(y)) - expected)) < 1e-13

    def test_bracket_antisymmetry_and_constants(self, rng):
        f = coefficients_to_grid(random_field(6, rng), 64)
        g = coefficients_to_grid(random_field(6, rng), 64)
        assert np.max(np.abs(grid_bracket(f, f))) == 0.0
        c = np.full((64, 64), 3.7)
        assert np.max(np.abs(grid_bracket(f, c))) < 1e-12
        asym = grid_bracket(f, g) + grid_bracket(g, f)
        assert np.max(np.abs(asym)) < 1e-12

    def test_bracket_bilinearity(self, rng):
        f, g, h = (coefficients_to_grid(unit_field(5, rng), 64) for _ in range(3))
        lhs = grid_bracket(2.0 * f + 0.5 * g, h)
        rhs = 2.0 * grid_bracket(f, h) + 0.5 * grid_bracket(g, h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_bracket_applies_two_thirds_rule(self, n):
        # {cos(4x+y), cos(3x+2y)} = 2.5 cos(x-y) - 2.5 cos(7x+3y); the second
        # mode has |k1| = 7, above n/3 at n=16, where the bracket drops it
        x, y = grid_coordinates(n)
        f, g = np.cos(4 * x + y), np.cos(3 * x + 2 * y)
        kept = 2.5 if 7 <= n / 3 else 0.0
        expected = 2.5 * np.cos(x - y) - kept * np.cos(7 * x + 3 * y)
        assert np.max(np.abs(grid_bracket(f, g) - expected)) < 1e-12

    def test_bracket_resolution_mismatch(self):
        f = np.zeros((32, 32))
        g = np.zeros((64, 64))
        with pytest.raises(PreconditionError):
            grid_bracket(f, g)
        with pytest.raises(PreconditionError):
            check_grids(f, f, g)

    def test_invert_laplacian_oblique_mode(self):
        x, y = grid_coordinates(64)
        psi = invert_laplacian(np.cos(x + y))
        assert np.max(np.abs(psi + 0.5 * np.cos(x + y))) < 1e-14

    def test_invert_laplacian_roundtrip(self, rng):
        f = coefficients_to_grid(random_field(8, rng), 64)
        back = laplacian(invert_laplacian(f))
        rel = np.max(np.abs(back - f)) / np.max(np.abs(f))
        assert rel < 1e-12

    def test_invert_laplacian_rejects_mean(self):
        with pytest.raises(PreconditionError):
            invert_laplacian(np.full((32, 32), 1.0))

    def test_zero_field(self):
        assert np.max(np.abs(invert_laplacian(np.zeros((32, 32))))) == 0.0

    def test_coefficient_grid_roundtrip(self, rng):
        f = random_field(5, rng)
        grid = coefficients_to_grid(f, 64)
        back = grid_to_coefficients(grid, 5)
        assert np.max(np.abs(back - f)) < 1e-13

    def test_dealias_idempotent(self, rng):
        f = coefficients_to_grid(random_field(6, rng), 64)
        once = dealias_two_thirds(f)
        assert np.max(np.abs(dealias_two_thirds(once) - once)) < 1e-13
