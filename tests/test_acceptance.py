"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with -s or on failure).
Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import os
import time

import numpy as np
import pytest

from chaoslab.fourier import (ClassIndex, CoefficientField,
                              coefficients_to_grid, grid_coordinates,
                              integrate_galerkin, zeta)
from chaoslab.spectra import (build_class_operator, continued_fraction_eigen,
                              truncated_spectrum)
from oracles import (BENCH_EIGENVALUE_NORMALIZED, class_eigenvalue_mp,
                     count_nonimaginary, double_well_homoclinic,
                     double_well_jacobian, double_well_rhs, energy_derivative,
                     enstrophy_derivative, exact_linear_shadow,
                     quadruple_symmetry_defect)

QUOTED_EIGENVALUE = 0.24822302478255 + 1j * 0.35172076526520
BENCH = ClassIndex(khat=(-3, -2), p=(1, 1))


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def refined_benchmark_eigenvalue():
    """Continued-fraction refinement seeded by the trunc=50 dense solve."""
    op = build_class_operator(BENCH, 2.0, 50)
    rep = truncated_spectrum(op)
    big = rep.eigenvalues[np.abs(rep.eigenvalues.real) > 0.05]
    seed = big[np.argmax(big.real + big.imag)]
    lam = continued_fraction_eigen(op, seed)
    return 2.0 * lam / abs(op.gamma)


class TestEigenvalueBenchmark:
    def test_criterion_eigenvalue_benchmark(self):
        """Refined benchmark eigenvalue at 1e-10 of its converged value.

        The refinement seeded by the trunc=50 dense solve must match the
        30-digit value BENCH_EIGENVALUE_NORMALIZED (tests/oracles.py) to
        1e-10 within 5 s.  Three independent routes agree on that value to
        < 1e-14: the float64 continued fraction, an mpmath continued
        fraction at 60 digits (depth 300 and 600), and dense truncations
        N=60..400.  The historically quoted digits
        0.24822302478255 + 0.35172076526520i are 6.78e-9 away from it, so
        they are held to the accuracy they carry: a gap below 1e-8.
        """
        t0 = time.perf_counter()
        lam_norm = refined_benchmark_eigenvalue()
        elapsed = time.perf_counter() - t0
        gap = abs(lam_norm - BENCH_EIGENVALUE_NORMALIZED)
        quoted_gap = abs(lam_norm - QUOTED_EIGENVALUE)
        ok = gap < 1e-10 and quoted_gap < 1e-8 and elapsed < 5.0
        report("eigenvalue-benchmark", ok,
               f"refined {lam_norm:.14f}, converged-value gap {gap:.2e}, "
               f"quoted-digit gap {quoted_gap:.2e}, runtime {elapsed:.2f}s")
        assert elapsed < 5.0
        assert gap < 1e-10, (
            f"refined normalized eigenvalue {lam_norm!r} differs from the "
            f"30-digit value {BENCH_EIGENVALUE_NORMALIZED!r} by {gap:.3e} > "
            "1e-10; the float64 and 60-digit continued fractions and dense "
            "truncations N=60..400 all agree on that value to < 1e-14."
        )
        assert quoted_gap < 1e-8, (
            f"refined normalized eigenvalue {lam_norm!r} differs from the "
            f"quoted digits by {quoted_gap:.3e} >= 1e-8; the quoted digits "
            "themselves are 6.78e-9 from the converged value."
        )

    def test_companion_true_value_independent_oracle(self):
        """The refinement is converged: 30-digit oracle agreement < 1e-12."""
        t0 = time.perf_counter()
        lam_norm = refined_benchmark_eigenvalue()
        oracle = class_eigenvalue_mp((-3, -2), (1, 1), 2.0, 0.248 + 0.352j)
        gap = abs(lam_norm - oracle)  # |Gamma| = 2 makes both normalized
        quoted_gap = abs(lam_norm - QUOTED_EIGENVALUE)
        elapsed = time.perf_counter() - t0
        ok = gap < 1e-12 and quoted_gap < 1e-7
        report("eigenvalue-benchmark-companion", ok,
               f"independent-oracle gap {gap:.2e}, quoted digits matched to "
               f"{quoted_gap:.2e} (their accuracy), runtime {elapsed:.2f}s")
        assert gap < 1e-12
        assert quoted_gap < 1e-7


class TestQuadrupleCount:
    def test_criterion_quadruple_count(self):
        counts = {}
        defects = {}
        for trunc in (50, 100, 200):
            rep = truncated_spectrum(build_class_operator(BENCH, 2.0, trunc))
            lams = rep.normalized()
            counts[trunc] = int(np.sum(np.abs(lams.real) > 0.05))
            defects[trunc] = quadruple_symmetry_defect(rep)
        ok = all(c == 4 for c in counts.values()) \
            and all(d < 1e-8 for d in defects.values())
        report("quadruple-count", ok,
               f"counts {counts}, symmetry defects "
               + ", ".join(f"{k}: {v:.1e}" for k, v in defects.items()))
        assert all(c == 4 for c in counts.values())
        assert all(d < 1e-8 for d in defects.values())


class TestZetaBound:
    def test_criterion_zeta_bound(self):
        gamma = 2.0
        expected = {(1, 1): 4, (2, 1): 12, (1, 0): 0}
        worst = {}
        for p, zeta_val in expected.items():
            assert zeta(p) == zeta_val
            khats, k = [], 1
            while len(khats) < 10:
                cand = (k % 7 - 3, (k * 3) % 11 - 5)
                k += 1
                if cand == (0, 0) or cand[0] * p[1] - cand[1] * p[0] == 0:
                    continue
                khats.append(cand)
            counts = []
            for khat in khats:
                rep = truncated_spectrum(
                    build_class_operator(ClassIndex(khat=khat, p=p), gamma, 100))
                counts.append(count_nonimaginary(rep, 0.05 * gamma))
            worst[p] = max(counts)
            assert all(c <= 2 * zeta_val for c in counts)
        report("zeta-bound", True,
               f"max counts per direction {worst} within 2*zeta "
               f"{ {p: 2 * z for p, z in expected.items()} }")


class TestGalerkinConservation:
    def test_criterion_galerkin_conservation(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        state = CoefficientField.random(8, rng, decay=0.0)
        state = state.scaled(1.0 / np.sqrt(state.enstrophy()))
        de = abs(energy_derivative(state))
        dz = abs(enstrophy_derivative(state))

        smooth = CoefficientField.random(8, rng, decay=0.15)
        smooth = smooth.scaled(1.0 / np.sqrt(smooth.enstrophy()))
        e0, z0 = smooth.energy(), smooth.enstrophy()
        final = integrate_galerkin(smooth, 1e-3, 10000)
        drift_e = abs(final.energy() - e0) / e0
        drift_z = abs(final.enstrophy() - z0) / z0
        elapsed = time.perf_counter() - t0
        ok = de < 1e-12 and dz < 1e-12 and drift_e < 1e-8 and drift_z < 1e-8 \
            and elapsed < 30.0
        report("galerkin-conservation", ok,
               f"algebraic dE {de:.1e}, dZ {dz:.1e}; T=10 drift "
               f"E {drift_e:.1e}, Z {drift_z:.1e}; runtime {elapsed:.1f}s")
        assert de < 1e-12 and dz < 1e-12
        assert drift_e < 1e-8 and drift_z < 1e-8
        assert elapsed < 30.0


class TestDashedLineOracle:
    def test_criterion_dashed_line_oracle(self):
        from chaoslab.dashed_line import (HeteroclinicParams, block_couplings,
                                          orbit_residual)
        from chaoslab.fourier import coef_A
        t0 = time.perf_counter()
        a1, a2 = block_couplings()
        assert a1 == coef_A((1, 1), (-2, -1)) == pytest.approx(-3 / 20)
        assert a2 == coef_A((1, 1), (-1, 0)) == pytest.approx(1 / 4)
        het = HeteroclinicParams(tau0=0.0, theta0=0.3, kappa_sign=1)
        res = orbit_residual(het, 1.0, np.linspace(-5.0, 5.0, 100))
        elapsed = time.perf_counter() - t0
        ok = res < 1e-7 and elapsed < 1.0
        report("dashed-line-oracle", ok,
               f"max residual {res:.2e} over 100 samples, A1={a1}, A2={a2}, "
               f"runtime {elapsed:.2f}s")
        assert res < 1e-7
        assert elapsed < 1.0


class TestNLSFormulas:
    def test_criterion_nls_formulas(self):
        from chaoslab.nls import (continuum_eigenvalues, continuum_saddle,
                                  eigenvalue_table, silnikov_check)
        info0 = continuum_saddle(0.8, 1.0, 2.0, 0.0)
        lam0 = continuum_eigenvalues(0, 0.8, 1.0, 0.0, info0.I)
        lam1 = continuum_eigenvalues(1, 0.8, 1.0, 0.0, info0.I)
        _, table = eigenvalue_table(0.8, 1.0, 2.0, 0.01, n_max=10)
        flags = silnikov_check([(n, z) for n, zp, zm in table for z in (zp, zm)])
        ok = (info0.I == pytest.approx(0.64)
              and abs(lam0[0]) < 1e-12 and abs(lam0[1]) < 1e-12
              and abs(lam1[0].real - 1.24899) < 1e-5
              and abs(lam1[1].real + 1.24899) < 1e-5
              and flags.all_hold())
        report("nls-formulas", ok,
               f"I(eps=0)={info0.I}, lam1=+-{lam1[0].real:.6f}, "
               f"flags: two_unstable={flags.two_unstable}, "
               f"mode2_slowest={flags.mode2_slowest_decay}, "
               f"inequality={flags.silnikov_inequality}")
        assert info0.I == pytest.approx(0.64)
        assert abs(lam0[0]) < 1e-12 and abs(lam0[1]) < 1e-12
        assert abs(lam1[0].real - 1.24899) < 1e-5
        assert flags.all_hold()


class TestDiscreteSaddle:
    def test_criterion_discrete_saddle(self):
        from chaoslab.nls import (NLSParams, discrete_saddle, make_even,
                                  pdnls_jacobian_full, pdnls_rhs)
        p = NLSParams(N=7, omega=4.0, alpha=1.0, beta=5.0, epsilon=0.01)
        rng = np.random.default_rng(2)
        q = make_even(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        jac = pdnls_jacobian_full(q, p)
        x0 = np.concatenate([q.real, q.imag])

        def rhs_r(x):
            d = pdnls_rhs(x[:7] + 1j * x[7:], p)
            return np.concatenate([d.real, d.imag])

        fd = np.empty_like(jac)
        h = 1e-6
        for j in range(14):
            e = np.zeros(14)
            e[j] = h
            fd[:, j] = (rhs_r(x0 + e) - rhs_r(x0 - e)) / (2 * h)
        rel = np.max(np.abs(jac - fd)) / np.max(np.abs(jac))

        sad = discrete_saddle(p)
        n_unstable = sad.unstable_count()
        ok = rel < 1e-6 and n_unstable == 2
        report("discrete-saddle", ok,
               f"jacobian FD relative defect {rel:.2e}, unstable directions "
               f"{n_unstable} (even sector; the full lattice carries a third "
               f"via the odd-parity translate of the interior mode)")
        assert rel < 1e-6
        assert n_unstable == 2


def chaotic_demo():
    """(config, params, kicked start) of configs/chaotic_demo.cfg."""
    from chaoslab.cli import _load_config_file
    from chaoslab.nls import NLSParams, discrete_saddle
    cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "chaotic_demo.cfg")
    cfg = _load_config_file(cfg_path)
    p = NLSParams(N=int(cfg["N"]), omega=float(cfg["omega"]),
                  alpha=float(cfg["alpha"]), beta=float(cfg["beta"]),
                  epsilon=float(cfg["epsilon"]))
    sad = discrete_saddle(p)
    n = np.arange(p.N)
    kick = float(cfg["kick"])
    q0 = sad.q * (1 + kick * np.cos(2 * np.pi * n / p.N))
    return cfg, p, q0


class TestCenterWingSymbolics:
    def test_demo_prefix_backends_agree(self, compiled_kernels):
        # the criterion below runs the C loop; on a 50,000-step prefix of the
        # demo it gives the numpy loop's samples bit for bit
        from chaoslab import _kernels_py
        from chaoslab.nls import make_even
        cfg, p, q0 = chaotic_demo()
        args = (make_even(q0), p.N ** 2, 2.0 * p.omega ** 2, p.alpha, p.beta,
                p.epsilon, float(cfg["dt"]), 50_000, int(cfg["sample_every"]))
        ref = _kernels_py.pdnls_rk4(*args)
        got = compiled_kernels.pdnls_rk4(*args)
        assert np.array_equal(got, ref)

    def test_criterion_center_wing(self, session_kernels, monkeypatch):
        # 10^6 steps on the session-built extension, or on numpy where no C
        # compiler exists
        from chaoslab import kernels
        from chaoslab.nls import (center_wing_encode, half_period_translate,
                                  simulate, swap_symbols)
        monkeypatch.setattr(kernels, "pdnls_rk4", session_kernels.pdnls_rk4)
        cfg, p, q0 = chaotic_demo()
        traj = simulate(q0, p, float(cfg["dt"]), int(cfg["steps"]),
                        sample_every=int(cfg["sample_every"]))
        enc = center_wing_encode(traj.states)
        alternations = sum(1 for a, b in zip(enc.symbols, enc.symbols[1:])
                           if a != b)
        enc_t = center_wing_encode(half_period_translate(traj.states))
        equivariant = (enc_t.per_sample == swap_symbols(enc.per_sample)
                       and enc_t.symbols == swap_symbols(enc.symbols))
        ok = ("C" in enc.symbols and "W" in enc.symbols
              and alternations >= 10 and equivariant)
        report("center-wing-symbolics", ok,
               f"{len(enc.symbols)} symbols, {alternations} alternations in "
               f"{cfg['steps']} steps on the {session_kernels.BACKEND} loop, "
               f"translation equivariance exact: {equivariant} (exploratory "
               f"parameters from configs/)")
        assert "C" in enc.symbols and "W" in enc.symbols
        assert alternations >= 10
        assert equivariant


class TestLaxVerification:
    def test_criterion_lax_verification(self):
        from chaoslab.laxpairs import (VectorField3D,
                                       compatibility_residual_2d,
                                       isospectrality_check, jacobi_defect,
                                       lax_3d_scalar)
        rng = np.random.default_rng(3)

        def unit_grid():
            c = CoefficientField.random(8, rng, decay=0.15)
            return coefficients_to_grid(c.scaled(1 / np.sqrt(c.enstrophy())), 64)

        jac_worst = max(jacobi_defect(unit_grid(), unit_grid(), unit_grid())
                        for _ in range(3))

        omega = CoefficientField.random(5, rng, decay=0.2)
        omega = omega.scaled(1.0 / np.sqrt(omega.enstrophy()))
        phis = [unit_grid() for _ in range(2)]
        neg = compatibility_residual_2d(omega, phis, 64,
                                        time_derivative=lambda w: w)

        steady = CoefficientField.single_pair(4, (1, 1), 1.3)
        iso = isospectrality_check(steady, T=1.0, dt=0.01)

        u = VectorField3D.abc_flow(32)
        x, y, z = grid_coordinates(32, 3)
        L, A = lax_3d_scalar(u.curl(), u, np.cos(x) * np.sin(y) + np.cos(z))
        beltrami = float(np.max(np.abs(L - A)))

        ok = (jac_worst < 1e-10 and neg.residuals["transport_max"] > 1e-3
              and iso.residuals["hausdorff"] < 1e-10 and beltrami < 1e-10)
        report("lax-verification", ok,
               f"jacobi {jac_worst:.1e}, non-Euler control "
               f"{neg.residuals['transport_max']:.1e}, steady isospectral "
               f"drift {iso.residuals['hausdorff']:.1e}, Beltrami identity "
               f"{beltrami:.1e}")
        assert jac_worst < 1e-10
        assert neg.residuals["transport_max"] > 1e-3
        assert iso.residuals["hausdorff"] < 1e-10
        assert beltrami < 1e-10


class TestDarbouxVerification:
    def test_criterion_darboux(self):
        from chaoslab.darboux import (darboux_gauge, shear_power_construction,
                                      verify_darboux)
        omega, psi, p, f, F = shear_power_construction(0.3, 64)
        rep = verify_darboux(omega, psi, F, p, f)
        constraints = max(rep.residuals["omega_lapF_bracket"],
                          rep.residuals["lapF_F_bracket"])
        kernel = rep.residuals["transformed_kernel"]
        g = darboux_gauge(p, p, omega)
        trivial = float(np.max(np.abs(g.values_x[g.mask_x])))
        ok = constraints < 1e-9 and kernel < 1e-8 and trivial == 0.0
        report("darboux-verification", ok,
               f"constraints {constraints:.1e}, transformed kernel residual "
               f"{kernel:.1e}, f=p transform sup {trivial}")
        assert constraints < 1e-9
        assert kernel < 1e-8
        assert trivial == 0.0


class TestShadowing:
    def test_criterion_shadowing(self):
        from chaoslab.shadowing import (PseudoOrbit, find_shadow,
                                        hyperbolicity_estimate,
                                        linear_map_system, palmer_assembly,
                                        rk4_flow_system)
        rng = np.random.default_rng(4)
        hyp = linear_map_system(np.diag([2.0, 0.5]))
        orbit = hyp.orbit(np.array([1e-6, 1.0]), 24)
        delta = 1e-5
        pts = orbit + rng.uniform(-delta, delta, orbit.shape)
        pseudo = PseudoOrbit.verified(pts, hyp)
        result = find_shadow(pseudo, hyp)
        oracle = exact_linear_shadow([2.0, 0.5], pts)
        oracle_gap = float(np.max(np.abs(result.orbit - oracle)))

        well = rk4_flow_system(double_well_rhs, double_well_jacobian, 2,
                               dt=0.01, steps=80)
        deltas = {}
        for m in (6, 12):
            seg = np.array([double_well_homoclinic(0.8 * j)
                            for j in range(-m, m + 1)])
            deltas[m] = palmer_assembly(np.zeros(2), seg, "010", well).delta
        decay_rate = (math.log(deltas[6]) - math.log(deltas[12])) / 6.0
        est = hyperbolicity_estimate(np.tile(np.zeros(2), (40, 1)), well)
        alpha = -est.contraction_rate
        rate_match = abs(decay_rate - alpha) / alpha

        ok = (oracle_gap < 1e-12 and result.epsilon <= 2 * pseudo.delta
              and rate_match < 0.1)
        report("shadowing", ok,
               f"linear-oracle gap {oracle_gap:.1e}, eps {result.epsilon:.2e} "
               f"<= 2*delta {2 * pseudo.delta:.2e}, Palmer decay rate "
               f"{decay_rate:.4f} vs alpha {alpha:.4f} "
               f"({100 * rate_match:.1f}% off)")
        assert oracle_gap < 1e-12
        assert result.epsilon <= 2 * pseudo.delta
        assert rate_match < 0.1
