"""Backend agreement: the compiled extension and the numpy fallback must be
interchangeable bit-for-bit up to summation order.  The Galerkin convolution
has one implementation for both backends and is checked against the loop
oracle instead."""

import numpy as np
import pytest

import chaoslab
from chaoslab import _kernels_py, kernels
from chaoslab._kernels_py import _FFT_MIN_BOX
from chaoslab.fourier import CoefficientField, energy_derivative, enstrophy_derivative
from oracles import galerkin_rhs_ref


def random_symmetric(rng, box):
    side = 2 * box + 1
    w = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    w = 0.5 * (w + np.conj(w[::-1, ::-1]))
    w[box, box] = 0.0
    return w


def test_backend_reported():
    assert chaoslab.BACKEND in ("compiled", "python")


class TestGalerkinKernel:
    """One convolution serves both backends: dense tables below the
    crossover box, FFTs on a zero-padded grid from it up."""

    @pytest.mark.parametrize(
        "box", sorted({1, 2, 3, _FFT_MIN_BOX - 1, _FFT_MIN_BOX, 8}))
    def test_matches_loop_oracle(self, rng, box):
        w = random_symmetric(rng, box)
        ref = galerkin_rhs_ref(w, box)
        got = kernels.galerkin_rhs(w, box)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-13
        assert got[box, box] == 0.0  # the origin is never a mode

    def test_fft_path_bilinear_without_reality_pairing(self, rng):
        box = _FFT_MIN_BOX
        side = 2 * box + 1
        w = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        w[box, box] = 0.0
        ref = galerkin_rhs_ref(w, box)
        got = kernels.galerkin_rhs(w, box)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-13

    def test_conservation_box_32(self, rng):
        f = CoefficientField.random(32, rng)
        f = f.scaled(1.0 / np.sqrt(f.enstrophy()))
        assert abs(energy_derivative(f)) < 1e-12
        assert abs(enstrophy_derivative(f)) < 1e-12

    def test_no_dense_tables_from_crossover_up(self, rng):
        for box in (8, 32):
            kernels.galerkin_rhs(random_symmetric(rng, box), box)
        assert all(box < _FFT_MIN_BOX for box in _kernels_py._TABLES)

    def test_box_one_is_steady(self):
        # every admissible triad inside the 3x3 box degenerates
        w = np.zeros((3, 3), dtype=complex)
        w[2, 2] = 1.0 + 0.5j
        w[0, 0] = np.conj(w[2, 2])
        out = kernels.galerkin_rhs(w, 1)
        assert np.max(np.abs(out)) == 0.0


class TestPDNLSKernel:
    def test_backends_agree(self, kernel_backend, rng):
        from chaoslab import _kernels_py
        q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        args = (64.0, 22.445, 1.0, 5.7, 0.07)
        got = kernel_backend.pdnls_rhs(q, *args)
        ref = _kernels_py.pdnls_rhs(q, *args)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_rk4_backends_agree(self, kernel_backend, rng):
        from chaoslab import _kernels_py
        q = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        args = (64.0, 22.445, 1.0, 5.7, 0.07, 1e-4, 3000, 300)
        got, gb = kernel_backend.pdnls_rk4(q, *args)
        ref, rb = _kernels_py.pdnls_rk4(q, *args)
        assert gb == rb == -1
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-11

    def test_rk4_blowup_reported(self, kernel_backend):
        q = np.full(8, 1e3, dtype=complex)
        samples, blow = kernel_backend.pdnls_rk4(
            q, 64.0, 22.445, 1.0, 5.7, 0.07, 0.5, 1000, 10)
        assert blow >= 1


class TestDashedKernel:
    def test_backends_agree(self, kernel_backend, rng):
        from chaoslab import _kernels_py
        om = rng.standard_normal(21)
        sub, sup = rng.standard_normal(21), rng.standard_normal(21)
        pair = rng.standard_normal(20)
        g_op, g_om = kernel_backend.dashed_rhs(0.8, om, sub, sup, pair)
        r_op, r_om = _kernels_py.dashed_rhs(0.8, om, sub, sup, pair)
        assert abs(g_op - r_op) < 1e-13
        assert np.max(np.abs(g_om - r_om)) < 1e-13

    def test_rk4_backends_agree(self, kernel_backend, rng):
        from chaoslab import _kernels_py
        om = 1e-3 * rng.standard_normal(21)
        sub, sup = rng.standard_normal(21), rng.standard_normal(21)
        pair = rng.standard_normal(20)
        a = kernel_backend.dashed_rk4(0.8, om, sub, sup, pair, 1e-3, 1000, 100)
        b = _kernels_py.dashed_rk4(0.8, om, sub, sup, pair, 1e-3, 1000, 100)
        assert a[2] == b[2] == -1
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] - b[1])) < 1e-12

    def test_rk4_blowup_step_agrees(self, kernel_backend, rng):
        # quadratic couplings this large blow up in finite time; both
        # backends must report the same step
        from chaoslab import _kernels_py
        om = 5.0 * rng.standard_normal(21)
        sub, sup = rng.standard_normal(21), rng.standard_normal(21)
        pair = rng.standard_normal(20)
        a = kernel_backend.dashed_rk4(0.8, om, sub, sup, pair, 0.05, 5000, 100)
        b = _kernels_py.dashed_rk4(0.8, om, sub, sup, pair, 0.05, 5000, 100)
        assert a[2] == b[2] != -1
