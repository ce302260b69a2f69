"""Backend agreement: the compiled RK4 loops and their numpy twins must be
interchangeable bit-for-bit up to summation order.  The right-hand sides
have one numpy implementation for both backends and are checked against
loop formulas instead."""

import numpy as np
import pytest

import chaoslab
from chaoslab import _kernels_py, kernels
from chaoslab._kernels_py import _FFT_MIN_BOX
from chaoslab.errors import NumericError, PreconditionError
from chaoslab.fourier import CoefficientField
from chaoslab.util import _below_blowup_limit, rk4
from oracles import energy_derivative, enstrophy_derivative, galerkin_rhs_ref


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
        "box", sorted({1, 2, 3, _FFT_MIN_BOX - 1, _FFT_MIN_BOX, 7, 8}))
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

    def test_no_dense_tables_from_crossover_up(self, rng, monkeypatch):
        # counts the calls rather than reading the cache, which the Lax
        # operator matrix shares at any box
        built = []
        monkeypatch.setattr(_kernels_py, "_pair_tables", built.append)
        for box in (_FFT_MIN_BOX, 8, 32):
            kernels.galerkin_rhs(random_symmetric(rng, box), box)
        assert built == []

    def test_box_one_is_steady(self):
        # every admissible triad inside the 3x3 box degenerates
        w = np.zeros((3, 3), dtype=complex)
        w[2, 2] = 1.0 + 0.5j
        w[0, 0] = np.conj(w[2, 2])
        out = kernels.galerkin_rhs(w, 1)
        assert np.max(np.abs(out)) == 0.0


def test_extension_compiles_only_the_rk4_loops(compiled_kernels):
    # the right-hand sides are the numpy ones on every backend
    public = {name for name in dir(compiled_kernels) if not name.startswith("_")}
    assert public == {"BACKEND", "pdnls_rk4", "dashed_rk4"}
    assert kernels.pdnls_rhs is _kernels_py.pdnls_rhs
    assert kernels.galerkin_rhs is _kernels_py.galerkin_rhs


class TestPDNLSKernel:
    def test_backends_agree(self, rng):
        q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        args = (64.0, 22.445, 1.0, 5.7, 0.07)
        # kernels.pdnls_rhs is the numpy field on both backends: a strided,
        # a real-valued and an integer q give the result for the complex128
        # array np.ascontiguousarray makes of them
        for form in (q, np.repeat(q, 2)[::2], q.real, rng.integers(-3, 4, 8),
                     list(q), q.real.tolist()):
            got = kernels.pdnls_rhs(form, *args)
            ref = _kernels_py.pdnls_rhs(np.ascontiguousarray(form, np.complex128), *args)
            assert np.max(np.abs(got - ref)) < 1e-13

    def test_rk4_backends_agree(self, kernel_backend, rng):
        from chaoslab import _kernels_py
        q = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        args = (64.0, 22.445, 1.0, 5.7, 0.07, 1e-4, 3000, 300)
        ref = _kernels_py.pdnls_rk4(q, *args)
        # a list or a strided q0 is converted, never reinterpreted
        for form in (q, list(q), np.repeat(q, 2)[::2]):
            got = kernel_backend.pdnls_rk4(form, *args)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-11

    def test_rk4_blowup_reported(self, kernel_backend):
        q = np.full(8, 1e3, dtype=complex)
        with pytest.raises(NumericError) as err:
            kernel_backend.pdnls_rk4(q, 64.0, 22.445, 1.0, 5.7, 0.07, 0.5, 1000, 10)
        assert err.value.step >= 1

    @pytest.mark.parametrize("N", [3, 4, 7, 8])
    def test_neighbour_sum_is_the_roll_formula(self, rng, N):
        # the cached neighbour indices must give the np.roll arithmetic
        # bit for bit, at every lattice size in one process
        q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        h2inv, two_omega_sq, alpha, beta, eps = float(N * N), 22.445, 1.0, 5.7, 0.07
        neigh = np.roll(q, -1) + np.roll(q, 1)
        lap = neigh - 2.0 * q
        conservative = h2inv * lap + (q.real**2 + q.imag**2) * neigh - two_omega_sq * q
        ref = -1j * conservative + eps * (-alpha * q + h2inv * lap + beta)
        got = _kernels_py.pdnls_rhs(q, h2inv, two_omega_sq, alpha, beta, eps)
        assert np.array_equal(got, ref)

    def test_columns_of_a_batch_are_bitwise(self, rng):
        # the lattice runs along the first axis; the columns of q, here a
        # transposed view as the flow map passes it, are independent states
        q = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        args = (64.0, 22.445, 1.0, 5.7, 0.07)
        got = _kernels_py.pdnls_rhs(q.T, *args)
        assert got.shape == (8, 5)
        for j in range(5):
            assert np.array_equal(got[:, j], _kernels_py.pdnls_rhs(q[j], *args))


class TestDashedKernel:
    # chain lengths: one site, where the pair coupling is empty, two sites,
    # and the trunc-10 chain
    CHAINS = (1, 2, 21)

    @staticmethod
    def field_loop(op, om, sub, sup, pair):
        """(dop, dom) summed as the loop of _kernels.c sums them."""
        L = len(om)
        dom = np.zeros(L)
        for i in range(L):
            dom[i] = sub[i] * om[i - 1] if i > 0 else 0.0
            if i + 1 < L:
                dom[i] -= sup[i] * om[i + 1]
            dom[i] *= op
        acc = 0.0
        for i in range(1, L):
            acc += pair[i - 1] * om[i - 1] * om[i]
        return -acc, dom

    def test_backends_agree(self, rng):
        # the numpy field, which serves both backends, against the C loop
        for L in self.CHAINS:
            x = np.concatenate(([0.8], rng.standard_normal(L)))
            sub, sup = rng.standard_normal(L), rng.standard_normal(L)
            pair = rng.standard_normal(L - 1)
            # a strided x and float32, list, strided or integer couplings give
            # the result for the float64 arrays np.ascontiguousarray makes of
            # them
            for state, forms in [
                    (x, (sub, sup, pair)),
                    (np.repeat(x, 2)[::2], (sub.astype(np.float32), sup.tolist(), pair.tolist())),
                    (x, (sub.tolist(), sup, np.repeat(pair, 2)[::2])),
                    (x, (np.rint(3 * sub).astype(np.int64).tolist(), sup.tolist(), pair))]:
                dx = _kernels_py.dashed_field(
                    state, _kernels_py.dashed_coupling_matrix(*forms))
                r_op, r_om = self.field_loop(
                    0.8, x[1:], *(np.ascontiguousarray(c, np.float64) for c in forms))
                assert abs(dx[0] - r_op) < 1e-13
                assert np.max(np.abs(dx[1:] - r_om)) < 1e-13
                if L == 1:
                    # the empty pair sum is -0.0, as the C loop returns it
                    assert dx[0] == r_op == 0.0
                    assert np.signbit(dx[0]) and np.signbit(r_op)

    def test_rows_of_a_batch_match_single_states(self, rng):
        # dom is elementwise and bitwise per row; dop sums each row by the
        # same dot product as one state, so it is bitwise too
        x = rng.standard_normal((6, 22))
        sub, sup = rng.standard_normal(21), rng.standard_normal(21)
        c = _kernels_py.dashed_coupling_matrix(sub, sup, rng.standard_normal(20))
        dx = _kernels_py.dashed_field(x, c)
        assert dx.shape == (6, 22)
        for j in range(6):
            assert np.array_equal(dx[j], _kernels_py.dashed_field(x[j], c))

    def test_rk4_backends_agree(self, kernel_backend, rng):
        from chaoslab import _kernels_py
        for L in self.CHAINS:
            om = 1e-3 * rng.standard_normal(L)
            sub, sup = rng.standard_normal(L), rng.standard_normal(L)
            pair = rng.standard_normal(L - 1)
            # list, integer, float32 and strided inputs are converted as
            # np.ascontiguousarray does, never reinterpreted
            for forms in [(om, sub, sup, pair),
                          (om.tolist(), np.rint(3 * sub).astype(np.int64),
                           sup.astype(np.float32), np.repeat(pair, 2)[::2])]:
                a = kernel_backend.dashed_rk4(0.8, *forms, 1e-3, 1000, 100)
                b = _kernels_py.dashed_rk4(
                    0.8, *(np.ascontiguousarray(x, np.float64) for x in forms), 1e-3, 1000, 100)
                assert a.shape == b.shape == (11, L + 1)
                assert np.max(np.abs(a - b)) < 1e-12

    def test_mismatched_couplings_raise(self, kernel_backend):
        # sub, sup and pair must fit om, as the numpy coupling matrix needs
        # them to, so the compiled loop never reads past the end of one
        om, sub, sup, pair = np.ones(6), np.ones(6), np.ones(6), np.ones(5)
        if kernel_backend is _kernels_py:
            check = _kernels_py.dashed_coupling_matrix
        else:
            def check(*couplings):
                kernel_backend.dashed_rk4(0.8, om, *couplings, 1e-3, 10, 1)
        for couplings in [(sub[:3], sup, pair), (sub, sup[:5], pair),
                          (sub, sup, pair[:2])]:
            with pytest.raises(ValueError):
                check(*couplings)

    def test_rk4_blowup_step_agrees(self, kernel_backend, rng):
        # quadratic couplings this large blow up in finite time; both
        # backends must report the same step
        from chaoslab import _kernels_py
        om = 5.0 * rng.standard_normal(21)
        sub, sup = rng.standard_normal(21), rng.standard_normal(21)
        pair = rng.standard_normal(20)
        steps = []
        for mod in (kernel_backend, _kernels_py):
            with pytest.raises(NumericError) as err:
                mod.dashed_rk4(0.8, om, sub, sup, pair, 0.05, 5000, 100)
            steps.append(err.value.step)
        assert steps[0] == steps[1]


@pytest.mark.parametrize("dt, steps, sample_every", [
    (1e-3, 10, 0), (1e-3, 10, -2), (0.0, 10, 1), (float("nan"), 10, 1), (1e-3, -1, 1),
    (float("inf"), 1, 1), (-1e-3, 10, 1)])
def test_rk4_rejects_bad_schedule(kernel_backend, dt, steps, sample_every):
    # both backends apply chaoslab.util.check_schedule: a bad schedule is a
    # precondition error, never a crash of the compiled loops
    q = np.ones(8, dtype=complex)
    with pytest.raises(PreconditionError):
        kernel_backend.pdnls_rk4(q, 64.0, 22.4, 1.0, 5.7, 0.07, dt, steps, sample_every)
    om = np.zeros(5)
    with pytest.raises(PreconditionError):
        kernel_backend.dashed_rk4(0.8, om, om, om, om[:4], dt, steps, sample_every)


def test_rk4_rejects_empty_state(kernel_backend):
    # both backends apply chaoslab.util.check_state: an empty state is a
    # precondition error, not a raw numpy error
    with pytest.raises(PreconditionError):
        kernel_backend.pdnls_rk4([], 64.0, 22.4, 1.0, 5.7, 0.07, 1e-3, 10, 1)
    with pytest.raises(PreconditionError):
        kernel_backend.dashed_rk4(0.8, [], [], [], [], 1e-3, 10, 1)


def test_rk4_rejects_sample_array_above_cap(kernel_backend):
    # both backends apply chaoslab.util.check_samples before they allocate:
    # 2**40 samples of 8 or 6 values would take tens of TiB
    q = np.ones(8, dtype=complex)
    with pytest.raises(PreconditionError, match="MAX_SAMPLE_VALUES"):
        kernel_backend.pdnls_rk4(q, 64.0, 22.4, 1.0, 5.7, 0.07, 1e-3, 2**40, 1)
    om = np.zeros(5)
    with pytest.raises(PreconditionError, match="MAX_SAMPLE_VALUES"):
        kernel_backend.dashed_rk4(0.8, om, om, om, om[:4], 1e-3, 2**40, 1)


class TestBlowupRule:
    """util.rk4 stops at the first step after which a real or imaginary
    part reaches 1e150 or is nan, as the compiled loops do."""

    @staticmethod
    def spike_rhs(step, index, value):
        """Zero field whose last RK4 stage of `step` returns `value` at
        `index`, so with dt = 6 that step adds exactly `value` there."""
        calls = [0]

        def rhs(y):
            calls[0] += 1
            d = np.zeros_like(y)
            if calls[0] == 4 * step:
                d[index] = value
            return d

        return rhs

    @pytest.mark.parametrize("y0, index, value", [
        (np.ones(5, dtype=complex), 3, 1e151j),
        (np.ones(5, dtype=complex), 3, complex(0.0, np.nan)),
        (np.ones(5), 3, 1e151),
        (np.ones(5), 3, np.nan),
        (np.array(1.0 + 0j), (), 1e151j),
    ])
    def test_reports_exact_step(self, y0, index, value):
        with pytest.raises(NumericError) as err:
            rk4(self.spike_rhs(7, index, value), y0, 6.0, 20, 2)
        assert err.value.step == 7

    def test_below_the_limit_passes(self):
        samples = rk4(self.spike_rhs(7, 3, 9.9e149j),
                      np.zeros(5, dtype=complex), 6.0, 20, 2)
        assert samples[-1][3] == 9.9e149j

    @pytest.mark.parametrize("bad", [complex(1.0, 1e151), complex(1.0, np.nan)])
    def test_one_bad_imaginary_part(self, bad):
        # rk4's complex arithmetic spreads an imaginary nan to the real
        # part, so the rule is also checked on bare states: contiguous,
        # strided and 0-d
        y = np.ones((4, 2), dtype=complex)
        y[2, 0] = bad
        assert not _below_blowup_limit(y)
        assert not _below_blowup_limit(y[:, 0])
        assert _below_blowup_limit(y[:, 1])
        assert not _below_blowup_limit(np.array(bad))
