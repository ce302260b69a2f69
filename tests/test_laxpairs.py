import numpy as np
import pytest

from chaoslab.cli import main
from chaoslab.darboux import shear_power_construction, verify_darboux
from chaoslab.errors import PreconditionError
from chaoslab.fourier import (coefficients_to_grid, embedded, enstrophy,
                              grid_bracket, grid_coordinates, random_field,
                              single_pair)
from chaoslab import laxpairs
from chaoslab.laxpairs import (abc_flow, bracket_operator_matrix,
                               compatibility_residual_2d, curl, divergence,
                               isospectrality_check, jacobi_defect,
                               lax_3d_scalar, lax_3d_vector, rossby_L,
                               vector_gradients)
from oracles import bracket_operator_matrix_ref, uniform_vector_field, unit_field


def unit_random_grid(rng, box=8, n=64):
    return coefficients_to_grid(unit_field(box, rng, decay=0.15), n)


class TestLax2D:
    def test_self_bracket_vanishes(self, rng):
        omega = unit_random_grid(rng)
        assert np.max(np.abs(grid_bracket(omega, omega))) == 0.0

    def test_oblique_pair_hand_value(self):
        # f_x g_y - f_y g_x with f = cos(x+y), g = cos(x-y):
        # (-s+)(+s-) - (-s+)(-s-) = -2 s+ s-
        x, y = grid_coordinates(64)
        got = grid_bracket(np.cos(x + y), np.cos(x - y))
        expected = -2.0 * np.sin(x + y) * np.sin(x - y)
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_constant_eigenfunction(self, rng):
        omega = unit_random_grid(rng)
        const = np.full((64, 64), 2.2)
        assert np.max(np.abs(grid_bracket(omega, const))) < 1e-13

    def test_jacobi_battery(self, rng):
        worst = 0.0
        for _ in range(100):
            worst = max(worst, jacobi_defect(unit_random_grid(rng),
                                             unit_random_grid(rng),
                                             unit_random_grid(rng)))
        assert worst < 1e-10


class TestCompatibility:
    def test_euler_transport_vanishes(self, rng):
        omega = unit_field(5, rng, decay=0.2)
        phis = [unit_random_grid(rng, box=6) for _ in range(3)]
        rep = compatibility_residual_2d(omega, phis, 64)
        assert rep.residuals["jacobi_max"] < 1e-10
        assert rep.residuals["transport_max"] < 1e-10

    def test_steady_shear_transport_zero(self, rng):
        omega = single_pair(5, (1, 1), 0.8)
        phis = [unit_random_grid(rng, box=6)]
        rep = compatibility_residual_2d(omega, phis, 64)
        assert rep.residuals["transport_max"] < 1e-12

    def test_non_euler_rule_detected(self, rng):
        omega = unit_field(5, rng, decay=0.2)
        phis = [unit_random_grid(rng, box=6) for _ in range(2)]
        rep = compatibility_residual_2d(omega, phis, 64,
                                        time_derivative=lambda w: w)
        assert rep.residuals["transport_max"] > 1e-3


class TestIsospectrality:
    def test_steady_state_distance_zero(self):
        omega = single_pair(4, (1, 1), 1.3)
        rep = isospectrality_check(omega, T=2.0, dt=0.01)
        assert rep.residuals["hausdorff"] < 1e-10

    def test_zero_field_spectra_trivial(self):
        omega = np.zeros((7, 7), dtype=complex)
        rep = isospectrality_check(omega, T=0.5, dt=0.01)
        assert rep.residuals["hausdorff"] == 0.0
        assert np.max(np.abs(rep.spectra["initial"])) == 0.0

    def test_small_amplitude_drift_reported(self, rng):
        # the drift under truncated evolution is a measurement, not a
        # contract: compression does not commute with the evolution, and
        # enlarging the operator box adds boundary-sensitive eigenvalues
        # near the essential spectrum (measured to grow from box 4 to 6)
        omega = random_field(4, rng, decay=0.3)
        omega = omega * (0.1 / np.sqrt(enstrophy(omega)))
        d4 = isospectrality_check(omega, T=1.0, dt=0.01)
        d6 = isospectrality_check(embedded(omega, 6), T=1.0, dt=0.01)
        assert np.isfinite(d4.residuals["hausdorff"])
        assert np.isfinite(d6.residuals["hausdorff"])
        assert d4.residuals["hausdorff"] < 0.1  # small-amplitude sanity scale

    def test_operator_matrix_against_bracket(self, rng):
        # a matrix column is the box projection of {Omega, e^{iq.X}}
        omega = random_field(3, rng)
        box = 3
        mat = bracket_operator_matrix(omega)
        modes = [(k1, k2) for k1 in range(-box, box + 1)
                 for k2 in range(-box, box + 1) if (k1, k2) != (0, 0)]
        q = (1, -2)
        jq = modes.index(q)
        x, y = grid_coordinates(64)
        omega_grid = coefficients_to_grid(omega, 64)
        phi = np.exp(1j * (q[0] * x + q[1] * y))
        n = 64
        bracket_hat = np.fft.fft2(grid_bracket(omega_grid, phi)) / (n * n)
        for i, k in enumerate(modes):
            assert abs(bracket_hat[k[0] % n, k[1] % n] - mat[i, jq]) < 1e-11

    def test_box_cap(self):
        with pytest.raises(PreconditionError):
            isospectrality_check(np.zeros((17, 17), dtype=complex), T=0.1, dt=0.01)

    @pytest.mark.parametrize("box", [1, 2, 3, 4, 5, 6])
    def test_operator_matrix_same_bits_as_mode_loop(self, rng, box):
        # the pair-table matrix against the mode-by-mode assembly, for a
        # random field and a complex single pair; the bytes compare signed
        # zeros too
        for omega in (random_field(box, rng),
                      single_pair(box, (1, -1), 1.3 - 0.7j)):
            got = bracket_operator_matrix(omega)
            ref = bracket_operator_matrix_ref(omega)
            assert np.array_equal(got, ref)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("box, p, gamma", [
        (4, (1, 1), 1.3), (5, (1, 0), 2.0), (6, (2, 1), 1.3 - 0.7j),
        (3, (1, -2), 0.4j)])
    def test_single_pair_closed_form(self, box, p, gamma):
        # at Omega = Gamma e^{ip.x} + c.c. the operator couples q only to
        # q +- p with the weight det(p, q), constant along each line
        # khat + n*p; a run of m consecutive nonzero box modes on a line is
        # a constant tridiagonal with eigenvalues
        # 2i |det(p, khat)| |Gamma| cos(j pi / (m+1)), j = 1..m
        def in_box(k):
            return k != (0, 0) and abs(k[0]) <= box and abs(k[1]) <= box

        expected = []
        for k1 in range(-box, box + 1):
            for k2 in range(-box, box + 1):
                start = (k1, k2)
                if not in_box(start) or in_box((k1 - p[0], k2 - p[1])):
                    continue
                m, k = 0, start
                while in_box(k):
                    m, k = m + 1, (k[0] + p[0], k[1] + p[1])
                weight = 2.0 * abs(p[0] * k2 - p[1] * k1) * abs(gamma)
                expected += [weight * np.cos(j * np.pi / (m + 1))
                             for j in range(1, m + 1)]
        eigs = np.linalg.eigvals(bracket_operator_matrix(
            single_pair(box, p, gamma)))
        assert eigs.size == len(expected) == (2 * box + 1) ** 2 - 1
        assert np.max(np.abs(np.sort(eigs.imag) - np.sort(expected))) < 1e-12 * abs(gamma)
        assert np.max(np.abs(eigs.real)) < 1e-12 * abs(gamma)


class TestRossby:
    def test_beta_zero_reduces_to_plain_bracket(self, rng):
        omega, phi = unit_random_grid(rng), unit_random_grid(rng)
        a = rossby_L(omega, 0.0, phi)
        b = grid_bracket(omega, phi)
        assert np.max(np.abs(a - b)) == 0.0

    def test_zero_vorticity_pure_drift(self):
        x, y = grid_coordinates(64)
        got = rossby_L(np.zeros((64, 64)), 1.0, np.cos(x))
        assert np.max(np.abs(got - np.sin(x))) < 1e-13

    def test_constant_phi(self, rng):
        omega = unit_random_grid(rng)
        const = np.full((64, 64), 1.0)
        assert np.max(np.abs(rossby_L(omega, 0.7, const))) < 1e-13


def abc_pair(n=16):
    """The ABC velocity u and its spectral curl Omega on the n^3 grid."""
    u = abc_flow(n)
    return curl(vector_gradients(u)), u


class TestLax3D:
    def test_divergence_free_and_curl(self):
        u = abc_flow(16)
        grads = vector_gradients(u)
        assert np.max(np.abs(divergence(grads))) < 1e-12
        assert np.max(np.abs(curl(grads) - u)) < 1e-12  # ABC is a curl eigenfield

    def test_beltrami_scalar_identity(self):
        omega, u = abc_pair()
        x, y, z = grid_coordinates(16, 3)
        phi = np.cos(x) * np.sin(y) + np.cos(z)
        L, A = lax_3d_scalar(omega, u, phi)
        assert np.max(np.abs(L - A)) < 1e-10
        # u's own gradients, passed in, give the same bytes
        for got, ref in zip(lax_3d_scalar(omega, u, phi, vector_gradients(u)), (L, A)):
            assert np.array_equal(got, ref)

    def test_constant_phi_annihilated(self):
        omega, u = abc_pair()
        L, A = lax_3d_scalar(omega, u, np.full((16, 16, 16), 3.0))
        assert np.max(np.abs(L)) < 1e-12 and np.max(np.abs(A)) < 1e-12

    def test_uniform_velocity_scalar(self):
        n = 16
        u = uniform_vector_field(n, (1.0, 0.0, 0.0))
        zero = np.zeros((3, n, n, n))
        x, y, z = grid_coordinates(n, 3)
        phi = np.cos(x) * np.sin(y)
        L, A = lax_3d_scalar(zero, u, phi)
        assert np.max(np.abs(L)) == 0.0
        assert np.max(np.abs(A - (-np.sin(x) * np.sin(y)))) < 1e-12

    def test_vector_pair_annihilates_vorticity(self):
        omega, u = abc_pair()
        L, A = lax_3d_vector(omega, u, omega)
        assert L.shape == A.shape == (3, 16, 16, 16)
        assert np.max(np.abs(L)) < 1e-12
        # Beltrami: u is also annihilated by both
        Lu, Au = lax_3d_vector(omega, u, u)
        assert np.max(np.abs(Lu)) < 1e-10
        assert np.max(np.abs(Au)) < 1e-10

    def test_vector_pair_transforms_each_field_once(self, monkeypatch):
        # one spectral_gradient per component of each distinct field: phi
        # passed as omega or as u shares that field's gradients, u_grads
        # saves u's transform, and each gives the same bytes
        omega, u = abc_pair()
        u_grads = vector_gradients(u)
        calls = []
        grad = laxpairs.spectral_gradient
        monkeypatch.setattr(laxpairs, "spectral_gradient",
                            lambda f: calls.append(1) or grad(f))
        counts, results = [], []
        for phi, given in [(omega, None), (u, None), (omega.copy(), None),
                           (omega, u_grads)]:
            calls.clear()
            results.append(lax_3d_vector(omega, u, phi, given))
            counts.append(len(calls))
        assert counts == [6, 6, 9, 3]
        for res in (results[2], results[3]):
            for got, ref in zip(res, results[0]):
                assert np.array_equal(got, ref)

    def test_uniform_phi_gives_gradient_term(self):
        omega, u = abc_pair()
        phi = uniform_vector_field(16, (1.0, 0.0, 0.0))
        L, _ = lax_3d_vector(omega, u, phi)
        from chaoslab.fourier import spectral_gradient
        for i in range(3):
            expected = -spectral_gradient(omega[i])[0]
            assert np.max(np.abs(L[i] - expected)) < 1e-12

    @pytest.mark.parametrize("n", [8, 24])
    def test_grid_resolution_rejected(self, n):
        zero = np.zeros((3, n, n, n))
        with pytest.raises(PreconditionError, match="power of two >= 16"):
            lax_3d_scalar(zero, zero, zero[0])

    @pytest.mark.parametrize("shape, match", [
        ((2, 16, 16, 16), "expected shape"), ((3, 16, 16), "expected shape"),
        ((3, 16, 16, 32), "cubic")])
    def test_field_shape_rejected(self, shape, match):
        omega, u = abc_pair()
        for args in [(np.zeros(shape), u, omega), (omega, np.zeros(shape), omega),
                     (omega, u, np.zeros(shape))]:
            with pytest.raises(PreconditionError, match=match):
                lax_3d_vector(*args)

    def test_resolution_mismatch_rejected(self):
        omega, _ = abc_pair(16)
        with pytest.raises(PreconditionError, match="resolution mismatch"):
            lax_3d_scalar(omega, abc_flow(32), np.zeros((16, 16, 16)))

    def test_curl_mismatch_rejected(self):
        omega, u = abc_pair()
        x, y, z = grid_coordinates(16, 3)
        with pytest.raises(PreconditionError):
            lax_3d_scalar(2.0 * omega, u, np.cos(x))

    def test_divergent_velocity_rejected(self):
        n = 16
        x, y, z = grid_coordinates(n, 3)
        bad = np.stack([np.sin(x), np.zeros((n, n, n)), np.zeros((n, n, n))])
        with pytest.raises(PreconditionError):
            lax_3d_scalar(curl(vector_gradients(bad)), bad, np.cos(x))


FFT_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                  "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class TestFFTCounts:
    """numpy.fft calls per grid operator: every derivative comes from one
    forward transform per field and one inverse per axis."""

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []
        for name in FFT_TRANSFORMS:
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)

        def count(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)
        return count

    def test_3d_pairs(self, fft_calls, tmp_path):
        # a whole lax-check run transforms each field forward once: u and
        # Omega at 12 calls each for the vector pair (a forward and three
        # inverse transforms per component), u and phi (4) for the scalar one
        for case, calls in (("3dvector", 24), ("3dscalar", 16)):
            argv = ["lax-check", "--case", case, "--resolution", "16",
                    "--output-dir", str(tmp_path / case)]
            assert fft_calls(main, argv) == calls, case
            assert (tmp_path / case / "report.json").exists()

    def test_2d_operators(self, fft_calls, rng):
        f, g, h = (unit_random_grid(rng, box=2, n=16) for _ in range(3))
        assert fft_calls(grid_bracket, f, g) == 8
        assert fft_calls(jacobi_defect, f, g, h) == 48
        omega, psi, p, f, F = shear_power_construction(0.3, 64)
        assert fft_calls(verify_darboux, omega, psi, F, p, f) == 67
