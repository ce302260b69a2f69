#!/usr/bin/env python3
"""Timing of the hot kernels, printed as one JSON document.

The Galerkin convolution has one implementation for both backends and is
timed per box half-width, and so is the Lax operator matrix
`laxpairs.bracket_operator_matrix`, which reads the same pair tables, at
boxes 4 and 6; the lattice RK4 loop is timed side by side on the numpy
backend and, where the C extension chaoslab._kernels is built from
_kernels.c, the compiled one.  The lattice right-hand side, numpy on
both backends, is timed once, and so are the analytic lattice Jacobian and
the variational-RK4 Jacobian of the lattice flow map that the shadow Newton
calls (N=8, dt = 0.5*0.1*h^2, 20 steps, as `chaoslab shadow --map
nls-poincare` sets it up).  So are that flow map and its Jacobians on 20
states 1e-3 off the lattice saddle, as many as the shadow Newton of `shadow
--map nls-poincare --word 010 --m 3` maps per step, as one stacked call and
as the loop of single-state calls it replaces.  One shadow Newton step's
linear solve, the minimum-norm correction of shadowing.min_norm_orbit_step
(a block QR sweep along the orbit), is timed against the dense lstsq of
tests/oracles.py that it replaced, on lattice flow-map Jacobians at L = 21,
84 and 200 points 1e-3 off the saddle (d = 16); the dense solve runs only
once after its warm-up at L = 200, where it takes seconds.  The dashed-line
RK4, numpy on every backend, is timed per step at trunc 10 and 100, where
its dense coupling-matrix product costs O(L^2), on the model's own
couplings (epsilon 0.5) from a small kick off the stationary line, which it
follows for all steps; the bench fails if it reports a blow-up.  So is the
dashed-line field dashed_field per single-state call on a prebuilt coupling
matrix, as the RK4 loop calls it.  The
dense class-operator eigensolve `spectra.truncated_spectrum` is timed at
trunc 50 and 400 for a real and a complex Gamma of the benchmark class, and
the continued-fraction Newton `spectra.continued_fraction_eigen` at the
class (-3,-1), (2,1) with Gamma = 2 and trunc 400 (depth 1600) of the
perfbench job spectrum-t400, from a fixed seed near its point eigenvalue.
The grid layer is timed on its spectral-derivative operators: grid_bracket
of two random fields at n 16 and 64, verify_darboux on the shear-power data
(c 0.3) at n 64, and the 3D scalar and vector Lax pairs of the ABC flow at
n 32, with phi = cos(x) sin(y) + cos(z) and phi = curl u, as `chaoslab
lax-check --case 3dscalar|3dvector` runs them, on u's gradients taken once
beforehand.
Every figure is the median of several rounds, after one warm-up call that
builds the convolution's pair tables or FFT plan and the lattice index
caches.

Run from a source tree, which holds the oracle in tests/, after installing
the package or with the extension built in place (python setup.py
build_ext --inplace) and src on PYTHONPATH:
    python benchmarks/bench_kernels.py
"""

import json
import os
import statistics
import sys
import time

import numpy as np

from chaoslab import (_kernels_py, darboux, dashed_line, kernels, laxpairs,
                      nls, shadowing, spectra)
from chaoslab.errors import NumericError
from chaoslab.fourier import (ClassIndex, coefficients_to_grid, grid_bracket,
                              grid_coordinates, random_field)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from oracles import min_norm_orbit_step_ref  # noqa: E402

try:
    from chaoslab import _kernels
except ImportError:
    _kernels = None

GALERKIN_BOXES = (2, 3, 4, 5, 6, 8, 16, 32, 64)
OPERATOR_BOXES = (4, 6)
SPECTRUM_TRUNCS = (50, 400)
SPECTRUM_GAMMAS = {"real": 2.0, "complex": 1.3 - 0.7j}
SHADOW_LENGTHS = (21, 84, 200)
DASHED_TRUNCS = (10, 100)
DASHED_STEPS = 2000
GRID_BRACKET_SIZES = (16, 64)


def median_seconds(fn, repeat, rounds):
    """Median over rounds of the mean time of repeat calls, after a warm-up."""
    fn()
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn()
        times.append((time.perf_counter() - t0) / repeat)
    return statistics.median(times)


def galerkin_medians_ms(galerkin_rhs, boxes):
    """Median milliseconds per call of galerkin_rhs(w, box) for each box."""
    rng = np.random.default_rng(0)
    out = {}
    for box in boxes:
        w = random_field(box, rng)
        out[str(box)] = 1e3 * median_seconds(lambda: galerkin_rhs(w, box),
                                             repeat=20, rounds=7)
    return out


def operator_matrix_medians_ms(boxes):
    """Median milliseconds of bracket_operator_matrix per box."""
    rng = np.random.default_rng(0)
    out = {}
    for box in boxes:
        omega = random_field(box, rng)
        out[str(box)] = 1e3 * median_seconds(
            lambda: laxpairs.bracket_operator_matrix(omega), repeat=20, rounds=7)
    return out


def grid_layer_ms():
    """Median milliseconds of the grid operators named in the module
    docstring."""
    rng = np.random.default_rng(0)
    out = {}
    for n in GRID_BRACKET_SIZES:
        f, g = (coefficients_to_grid(random_field(max(2, n // 8), rng, decay=0.2), n)
                for _ in range(2))
        out[f"grid_bracket_n{n}"] = 1e3 * median_seconds(
            lambda: grid_bracket(f, g), repeat=20, rounds=7)
    omega, psi, p, f, F = darboux.shear_power_construction(0.3, 64)
    out["verify_darboux_shear_power_n64"] = 1e3 * median_seconds(
        lambda: darboux.verify_darboux(omega, psi, F, p, f), repeat=5, rounds=7)
    u = laxpairs.abc_flow(32)
    u_grads = laxpairs.vector_gradients(u)
    omega3 = laxpairs.curl(u_grads)
    x, y, z = grid_coordinates(32, 3)
    phi = np.cos(x) * np.sin(y) + np.cos(z)
    out["lax_3d_scalar_n32"] = 1e3 * median_seconds(
        lambda: laxpairs.lax_3d_scalar(omega3, u, phi, u_grads), repeat=3, rounds=7)
    out["lax_3d_vector_n32"] = 1e3 * median_seconds(
        lambda: laxpairs.lax_3d_vector(omega3, u, omega3, u_grads), repeat=3, rounds=7)
    return out


def backend_medians_s(make_call, repeat=1, rounds=3):
    """Median seconds of one call on each available backend."""
    mods = {"python": _kernels_py}
    if _kernels is not None:
        mods["compiled"] = _kernels
    return {name: median_seconds(make_call(mod), repeat=repeat, rounds=rounds)
            for name, mod in mods.items()}


def spectrum_medians_ms():
    """Median milliseconds of truncated_spectrum per trunc and kind of Gamma."""
    cls = ClassIndex(khat=(-3, -2), p=(1, 1))
    out = {}
    for trunc in SPECTRUM_TRUNCS:
        for kind, gamma in SPECTRUM_GAMMAS.items():
            op = spectra.build_class_operator(cls, gamma, trunc)
            out[f"trunc{trunc}_{kind}"] = 1e3 * median_seconds(
                lambda: spectra.truncated_spectrum(op), repeat=1, rounds=5)
    return out


def continued_fraction_ms():
    """Median milliseconds of one continued_fraction_eigen call at the
    trunc-400 perfbench class."""
    op = spectra.build_class_operator(ClassIndex(khat=(-3, -1), p=(2, 1)), 2.0, 400)
    return 1e3 * median_seconds(
        lambda: spectra.continued_fraction_eigen(op, 0.09 + 0.31j), repeat=3, rounds=7)


def dashed_call(trunc, dargs):
    """A call of kernels.dashed_rk4 on the model's couplings (epsilon 0.5) at
    trunc from a small kick off the stationary line; it fails unless the run
    takes all steps."""
    params = dashed_line.DashedLineParams(gamma=1.0, epsilon=0.5, trunc=trunc)
    om = 1e-2 * np.random.default_rng(1).standard_normal(params.size)

    def call():
        try:
            kernels.dashed_rk4(params.gamma, om, params.sub, params.sup, params.pair, *dargs)
        except NumericError as exc:
            raise SystemExit(f"dashed_rk4 {exc}") from exc
    return call


def dashed_numpy_us_per_step():
    """Microseconds per step of dashed_rk4 at each trunc, from runs of
    DASHED_STEPS steps."""
    dargs = (1e-3, DASHED_STEPS, DASHED_STEPS)
    return {f"trunc{trunc}": 1e6 / DASHED_STEPS * median_seconds(
                dashed_call(trunc, dargs), repeat=1, rounds=7)
            for trunc in DASHED_TRUNCS}


def dashed_field_us():
    """Microseconds per single-state call of dashed_field at trunc
    10 on a prebuilt coupling matrix, as dashed_rk4 calls it."""
    params = dashed_line.DashedLineParams(gamma=1.0, epsilon=0.5, trunc=10)
    om = 1e-2 * np.random.default_rng(1).standard_normal(params.size)
    x = np.concatenate(([params.gamma], om))
    c = _kernels_py.dashed_coupling_matrix(params.sub, params.sup, params.pair)
    return 1e6 * median_seconds(lambda: _kernels_py.dashed_field(x, c),
                                repeat=2000, rounds=7)


def stacked_against_loop_ms(fn, points):
    """Median milliseconds of fn on the stack of points and of the loop of
    fn on each point."""
    return {"stacked": 1e3 * median_seconds(lambda: fn(points), repeat=3, rounds=7),
            "per_point": 1e3 * median_seconds(lambda: [fn(x) for x in points],
                                               repeat=1, rounds=7)}


def shadow_step_ms(flow, saddle):
    """Median milliseconds of one shadow Newton step's linear solve per
    orbit length, at that many points 1e-3 off the saddle: the block QR
    sweep and the dense lstsq oracle."""
    rng = np.random.default_rng(2)
    out = {}
    for length in SHADOW_LENGTHS:
        points = saddle + 1e-3 * rng.standard_normal((length, saddle.size))
        jacs, res = flow.jacobian(points[:-1]), points[1:] - flow.map(points[:-1])
        out[str(length)] = {
            "block_sweep": 1e3 * median_seconds(
                lambda: shadowing.min_norm_orbit_step(jacs, res), repeat=3, rounds=7),
            "dense_lstsq": 1e3 * median_seconds(
                lambda: min_norm_orbit_step_ref(jacs, res), repeat=1,
                rounds=1 if length >= 200 else 5)}
    return out


def main():
    rng = np.random.default_rng(0)

    q = 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    args = (64.0, 2 * 3.35 ** 2, 1.0, 5.7, 0.07, 1.2e-3, 100_000, 10_000)
    params = nls.NLSParams(N=8, omega=3.5, alpha=1.0, beta=4.0, epsilon=0.01)
    flow = nls.flow_map(params, 0.5 * params.max_stable_dt(), 20)
    x = np.concatenate([q.real, q.imag])
    saddle = nls.discrete_saddle(params).q
    saddle = np.concatenate([saddle.real, saddle.imag])
    orbit = saddle + 1e-3 * rng.standard_normal((20, 16))

    report = {
        "backend": kernels.BACKEND,
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "galerkin_rhs_ms_by_box": galerkin_medians_ms(kernels.galerkin_rhs,
                                                      GALERKIN_BOXES),
        "bracket_operator_matrix_ms_by_box": operator_matrix_medians_ms(
            OPERATOR_BOXES),
        "pdnls_rhs_N8_us": 1e6 * median_seconds(
            lambda: kernels.pdnls_rhs(q, *args[:5]), repeat=2000, rounds=7),
        "pdnls_jacobian_full_N8_us": 1e6 * median_seconds(
            lambda: nls.pdnls_jacobian_full(q, params), repeat=2000, rounds=7),
        "nls_flow_map_jacobian_N8_ms": 1e3 * median_seconds(
            lambda: flow.jacobian(x), repeat=5, rounds=7),
        "nls_flow_map_20_points_ms": stacked_against_loop_ms(flow.map, orbit),
        "nls_flow_map_jacobian_20_points_ms": stacked_against_loop_ms(
            flow.jacobian, orbit),
        "shadow_newton_step_ms_by_length": shadow_step_ms(flow, saddle),
        "pdnls_rk4_N8_1e5_steps_s": backend_medians_s(
            lambda mod: (lambda: mod.pdnls_rk4(q, *args))),
        "dashed_rk4_numpy_us_per_step": dashed_numpy_us_per_step(),
        "dashed_field_one_state_us": dashed_field_us(),
        "truncated_spectrum_ms": spectrum_medians_ms(),
        "continued_fraction_eigen_trunc400_ms": continued_fraction_ms(),
        "grid_layer_ms": grid_layer_ms(),
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
