import numpy as np
import pytest

from chaoslab.darboux import (darboux_gauge, darboux_potentials,
                              shear_power_construction, verify_darboux)
from chaoslab.errors import PreconditionError
from chaoslab.fourier import grid_coordinates

COS_X = np.cos(grid_coordinates(64)[0])  # outside the bracket kernel of Omega


@pytest.fixture(scope="module")
def shear():
    return shear_power_construction(0.3, 64)


class TestGauge:
    def test_shear_power_reduces_to_vorticity(self, shear):
        omega, psi, p, f, F = shear
        g = darboux_gauge(p, f, omega)
        err = np.abs(g.values_x - omega)[g.mask_x]
        assert err.max() < 1e-10

    def test_xy_forms_agree_off_mask(self, shear):
        omega, psi, p, f, F = shear
        g = darboux_gauge(p, f, omega)
        assert g.agreement_defect() < 1e-8

    def test_f_equals_p_gives_exact_zero(self, shear):
        omega, psi, p, f, F = shear
        g = darboux_gauge(p, p, omega)
        assert np.max(np.abs(g.values_x[g.mask_x])) == 0.0

    def test_mask_covers_gradient_zeros_only(self, shear):
        omega, psi, p, f, F = shear
        g = darboux_gauge(p, f, omega)
        assert 0.0 < (~g.mask_x).mean() < 0.1

    def test_overmasked_input_rejected(self):
        omega = np.zeros((64, 64))  # Omega_x vanishes everywhere
        with pytest.raises(PreconditionError):
            darboux_gauge(COS_X, COS_X, omega)

    def test_resolution_mismatch(self, shear):
        omega, psi, p, f, F = shear
        with pytest.raises(PreconditionError):
            darboux_gauge(p, f, np.zeros((32, 32)))


class TestPotentials:
    def test_parallel_shift_is_valid(self, shear):
        omega, psi, p, f, F = shear
        pot = darboux_potentials(omega, psi, F)
        assert pot.valid
        assert max(pot.constraint_norms.values()) < 1e-9
        # lap F = -2F for the oblique mode
        assert np.max(np.abs(pot.lap_F + 2.0 * F)) < 1e-12

    def test_zero_shift_is_identity(self, shear):
        omega, psi, p, f, F = shear
        zero = np.zeros((64, 64))
        pot = darboux_potentials(omega, psi, zero)
        assert pot.valid
        assert np.max(np.abs(pot.omega_t - omega)) == 0.0
        assert np.max(np.abs(pot.psi_t - psi)) == 0.0

    def test_transverse_shift_flagged_invalid(self, shear):
        omega, psi, p, f, F = shear
        pot = darboux_potentials(omega, psi, COS_X)
        assert not pot.valid
        assert pot.constraint_norms["omega_lapF_bracket"] > 1e-3


class TestVerify:
    def test_shear_power_end_to_end(self, shear):
        omega, psi, p, f, F = shear
        rep = verify_darboux(omega, psi, F, p, f)
        assert rep.residuals["omega_p_bracket"] < 1e-9
        assert rep.residuals["omega_f_bracket"] < 1e-9
        assert rep.residuals["omega_lapF_bracket"] < 1e-9
        assert rep.residuals["lapF_F_bracket"] < 1e-9
        assert rep.residuals["transformed_kernel"] < 1e-8
        assert rep.residuals["steady_transport_ptilde"] < 1e-8

    def test_zero_shift_preserves_original_system(self, shear):
        omega, psi, p, f, F = shear
        rep = verify_darboux(omega, psi, np.zeros((64, 64)), p, f)
        assert rep.residuals["transformed_kernel"] < 1e-8

    def test_p_equals_f_trivial_solution(self, shear):
        omega, psi, p, f, F = shear
        rep = verify_darboux(omega, psi, F, f, f)
        assert rep.residuals["transformed_kernel"] < 1e-12

    def test_kernel_precondition_enforced(self, shear):
        omega, psi, p, f, F = shear
        with pytest.raises(PreconditionError) as err:
            verify_darboux(omega, psi, F, COS_X, f)
        assert "omega_p_bracket" in str(err.value)

    def test_constraint_precondition_enforced(self, shear):
        omega, psi, p, f, F = shear
        with pytest.raises(PreconditionError):
            verify_darboux(omega, psi, COS_X, p, f)

    def test_various_shift_amplitudes(self):
        for c in (0.05, 0.45, -0.3):
            omega, psi, p, f, F = shear_power_construction(c, 64)
            rep = verify_darboux(omega, psi, F, p, f)
            assert rep.residuals["transformed_kernel"] < 1e-8
