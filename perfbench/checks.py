"""Output checks for the benchmark jobs, computed apart from the program.

Every check reads a job's output files and compares them with values built
here or in ``tests/oracles.py`` (explicit loops, closed forms, 30-digit
continued fractions).  Nothing here calls the chaoslab code paths that made
the outputs; the one exception is ``oracles.dashed_rhs_ref``, which takes the
interaction coefficient from ``chaoslab.fourier.coef_A`` by its own design.

A check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import cmath
import csv
import functools
import importlib.util
import json
import math
import os

import numpy as np


class CheckFailed(Exception):
    """A job's outputs break a documented property."""


@functools.cache
def oracles():
    """``tests/oracles.py`` of the checkout, loaded once by file path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", os.path.join(root, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- reading outputs -------------------------------------------------------------


def read_json(outdir: str, name: str):
    path = os.path.join(outdir, name)
    expect(os.path.exists(path), f"{name} missing")
    with open(path) as fh:
        return json.load(fh)


def read_csv(outdir: str, name: str) -> tuple[list[str], np.ndarray]:
    path = os.path.join(outdir, name)
    expect(os.path.exists(path), f"{name} missing")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(len(rows) >= 2, f"{name} has no data rows")
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def check_config(outdir: str, expected: dict) -> None:
    """The manifest's resolved config holds every expected key and value."""
    config = read_json(outdir, "manifest.json")["config"]
    for key, want in expected.items():
        got = config.get(key)
        expect(got == want, f"resolved config {key}={got!r}, requested {want!r}")


# -- independent constructions -----------------------------------------------------


def random_coefficients(box: int, rng: np.random.Generator, decay: float) -> np.ndarray:
    """The documented random field: one normal pair per +-k, conjugate at -k,
    damped by exp(-decay |k|^2), in lexicographic order of k."""
    side = 2 * box + 1
    w = np.zeros((side, side), dtype=complex)
    for k1 in range(-box, box + 1):
        for k2 in range(-box, box + 1):
            if (k1, k2) == (0, 0) or (k1, k2) < (-k1, -k2):
                continue
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            if decay > 0.0:
                amp *= math.exp(-decay * (k1 * k1 + k2 * k2))
            w[k1 + box, k2 + box] = amp
            w[-k1 + box, -k2 + box] = np.conj(amp)
    return w


def _inverse_k2(box: int) -> np.ndarray:
    k = np.arange(-box, box + 1)
    k2 = (k[:, None] ** 2 + k[None, :] ** 2).astype(float)
    k2[box, box] = np.inf
    return 1.0 / k2


def energy_enstrophy(w: np.ndarray, box: int) -> tuple[float, float]:
    a2 = np.abs(w) ** 2
    return float(np.sum(a2 * _inverse_k2(box))), float(np.sum(a2))


def rk4(rhs, x, dt: float, steps: int):
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def relative_gap(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def zeta_count(p) -> int:
    """Nonzero lattice points strictly inside the disk of radius |p|, not
    parallel to p."""
    n2 = p[0] ** 2 + p[1] ** 2
    r = math.isqrt(n2)
    return sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1)
               if (a, b) != (0, 0) and a * a + b * b < n2
               and p[0] * b - p[1] * a != 0)


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def symmetry_defect(eigs: np.ndarray) -> float:
    """Largest distance from -lam, conj(lam), -conj(lam) to the set."""
    worst = 0.0
    for image in (-eigs, np.conj(eigs), -np.conj(eigs)):
        d = np.abs(image[:, None] - eigs[None, :]).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


# -- euler-sim ---------------------------------------------------------------------


def check_euler_sim(outdir: str, cfg: dict) -> None:
    """Invariant drift along energy.csv; the initial state rebuilt here; at
    small box the first sample against RK4 on the loop oracle."""
    box, dt, steps, every = cfg["box"], cfg["dt"], cfg["steps"], cfg["sample_every"]
    header, rows = read_csv(outdir, "energy.csv")
    expect(header == ["t", "energy", "enstrophy"], f"energy.csv header {header}")
    expect(rows.shape[0] == -(-steps // every) + 1,
           f"energy.csv has {rows.shape[0]} rows for {steps} steps every {every}")
    expect(np.all(np.isfinite(rows)), "energy.csv holds non-finite values")
    w0 = random_coefficients(box, np.random.default_rng(cfg["rng_seed"]), cfg["decay"])
    w0 = w0 * (cfg["amplitude"] / math.sqrt(energy_enstrophy(w0, box)[1]))
    e0, z0 = energy_enstrophy(w0, box)
    expect(abs(rows[0, 1] - e0) <= 1e-12 * e0 and abs(rows[0, 2] - z0) <= 1e-12 * z0,
           "initial energy/enstrophy differ from the rebuilt initial state")
    drift_e = float(np.max(np.abs(rows[:, 1] - e0))) / e0
    drift_z = float(np.max(np.abs(rows[:, 2] - z0))) / z0
    expect(drift_e < 1e-8 and drift_z < 1e-8,
           f"invariant drift E {drift_e:.2e}, Z {drift_z:.2e} above 1e-8")
    final = read_json(outdir, "final_state.json")
    expect(final["box"] == box, "final_state.json box mismatch")
    if box <= 4:
        ref = oracles().galerkin_rhs_ref
        w1 = rk4(lambda w: ref(w, box), w0, dt, min(every, steps))
        e1, z1 = energy_enstrophy(w1, box)
        expect(abs(rows[1, 1] - e1) <= 1e-12 * e1 and abs(rows[1, 2] - z1) <= 1e-12 * z1,
               "first sample differs from RK4 on galerkin_rhs_ref")
        if steps <= every:
            got = np.zeros_like(w1)
            for m in final["modes"]:
                k1, k2 = m["k"]
                got[k1 + box, k2 + box] = complex(m["re"], m["im"])
                got[-k1 + box, -k2 + box] = complex(m["re"], -m["im"])
            gap = relative_gap(got, w1)
            expect(gap < 1e-12, f"final state {gap:.2e} from RK4 on galerkin_rhs_ref")


# -- spectrum ------------------------------------------------------------------------


BENCH_CLASS = ((-3, -2), (1, 1))


def check_spectrum(outdir: str, cfg: dict) -> None:
    """Spectrum symmetry, the 2*zeta(p) count bound, the disk classification,
    and the refined eigenvalue against the 30-digit value or class_eigenvalue_mp."""
    khat, p = tuple(cfg["khat"]), tuple(cfg["p"])
    gamma = complex(*cfg["gamma"])
    expect(gamma.imag == 0 and gamma.real > 0, "checks assume a real positive Gamma")
    doc = read_json(outdir, "spectrum.json")
    _, rows = read_csv(outdir, "eigenvalues.csv")
    eigs = rows[:, 0] + 1j * rows[:, 1]
    n_members = sum(1 for n in range(-cfg["trunc"], cfg["trunc"] + 1)
                    if (khat[0] + n * p[0], khat[1] + n * p[1]) != (0, 0))
    expect(eigs.size == n_members, f"{eigs.size} eigenvalues for {n_members} members")
    defect = symmetry_defect(eigs)
    expect(defect < 1e-8 * abs(gamma), f"quadruple symmetry defect {defect:.2e}")
    zeta = zeta_count(p)
    expect(doc["zeta_bound"] == zeta, f"zeta_bound {doc['zeta_bound']} != {zeta}")
    off_axis = int(np.sum(np.abs(eigs.real) > 0.05 * abs(gamma)))
    expect(off_axis <= 2 * zeta, f"{off_axis} eigenvalues off the axis > 2*zeta {2 * zeta}")
    p2 = p[0] ** 2 + p[1] ** 2
    meets_disk = any((khat[0] + n * p[0], khat[1] + n * p[1]) != (0, 0)
                     and (khat[0] + n * p[0]) ** 2 + (khat[1] + n * p[1]) ** 2 <= p2
                     for n in range(-200, 201))
    want = "MixedPointSpectrum" if meets_disk else "ContinuousOnly"
    expect(doc["case"] == want, f"case {doc['case']}, disk test says {want}")
    if cfg.get("expect_refined"):
        expect("refined" in doc, "no refined eigenvalue reported")
    if "refined" in doc:
        lam = complex(*doc["refined"])
        if (khat, p) == BENCH_CLASS:
            norm = complex(*doc["refined_normalized"])
            gap = abs(norm - oracles().BENCH_EIGENVALUE_NORMALIZED)
            expect(gap < 1e-10, f"refined benchmark eigenvalue {gap:.2e} from its 30-digit value")
        else:
            mp = oracles().class_eigenvalue_mp(khat, p, abs(gamma), lam)
            expect(abs(lam - mp) < 1e-10 * abs(gamma),
                   f"refined eigenvalue {abs(lam - mp):.2e} from class_eigenvalue_mp")


# -- nls-sim and nls-saddle ------------------------------------------------------------


def classify(q: np.ndarray) -> str:
    """Centre/wing rule: every site at the exact maximum of |q| is nearer the
    centre N/2 ('C') or the boundary 0 ('W'); mixed, tied or flat gives '?'."""
    u = np.abs(q)
    mx = float(u.max())
    if mx <= 0.0 or mx - float(u.min()) <= 1e-12 * mx:
        return "?"
    n = u.size
    labels = set()
    for i in np.flatnonzero(u == mx):
        dc = min((i - n / 2.0) % n, (n / 2.0 - i) % n)
        dw = min(i % n, (-i) % n)
        labels.add("C" if dc < dw else "W" if dw < dc else "?")
    return labels.pop() if len(labels) == 1 else "?"


def encode(samples: np.ndarray, min_run: int = 5) -> str:
    """Emit a symbol when the hump changes basin and stays for min_run
    unambiguous samples."""
    emitted, current, cand, run = [], None, None, 0
    for ch in (classify(q) for q in samples):
        if ch == "?" or ch == current:
            cand, run = None, 0
            continue
        run = run + 1 if ch == cand else 1
        cand = ch
        if run >= min_run:
            emitted.append(ch)
            current, cand, run = ch, None, 0
    return "".join(emitted)


def check_nls_sim(outdir: str, cfg: dict) -> None:
    """Evenness, the kicked saddle start, spot samples by RK4 on pdnls_rhs_ref,
    and the symbol string re-encoded from the documented rule."""
    n_sites, steps, every = cfg["N"], cfg["steps"], cfg["sample_every"]
    header, rows = read_csv(outdir, "trajectory.csv")
    expect(len(header) == 2 * n_sites + 1, f"trajectory.csv has {len(header)} columns")
    expect(rows.shape[0] == steps // every + 1, f"trajectory.csv has {rows.shape[0]} rows")
    q = rows[:, 1:n_sites + 1] + 1j * rows[:, n_sites + 1:]
    expect(np.all(np.isfinite(q)), "trajectory holds non-finite values")
    mirror = np.roll(q[:, ::-1], 1, axis=1)
    odd = float(np.max(np.abs(q - mirror))) / float(np.max(np.abs(q)))
    expect(odd <= 1e-12, f"samples not even: relative defect {odd:.2e}")

    saddle = read_json(outdir, "saddle.json")
    om, al, be, ep = cfg["omega"], cfg["alpha"], cfg["beta"], cfg["epsilon"]
    big_q = complex(*saddle["Q"])
    resid = abs(-2j * (abs(big_q) ** 2 - om ** 2) * big_q + ep * (-al * big_q + be))
    expect(resid < 1e-9 * max(1.0, abs(big_q)), f"saddle residual {resid:.2e}")
    expect(0.0 < cmath.phase(big_q) < 0.5 * math.pi, "saddle phase outside (0, pi/2)")
    expect(abs(saddle["I"] - abs(big_q) ** 2) <= 1e-12 * saddle["I"], "saddle I != |Q|^2")
    n = np.arange(n_sites)
    q0 = big_q * (1.0 + cfg["kick"] * np.cos(2 * np.pi * n / n_sites))
    expect(relative_gap(q[0], q0) < 1e-14, "first sample is not the kicked saddle")

    ref = oracles().pdnls_rhs_ref
    picks = sorted({0, (q.shape[0] - 2) // 2, q.shape[0] - 2})
    for i in picks:
        nxt = rk4(lambda x: ref(x, n_sites, om, al, be, ep), q[i].copy(), cfg["dt"], every)
        gap = relative_gap(q[i + 1], nxt)
        expect(gap < 1e-9, f"sample {i + 1} is {gap:.2e} from RK4 on pdnls_rhs_ref")
    if cfg["encode"]:
        path = os.path.join(outdir, "symbols.txt")
        expect(os.path.exists(path), "symbols.txt missing")
        with open(path) as fh:
            expect(fh.read() == encode(q) + "\n", "symbols.txt differs from the re-encoding")


def check_nls_saddle(outdir: str, cfg: dict) -> None:
    """Closed-form saddle amplitude, phase and eigenvalue pairs."""
    om, al, be, ep = cfg["omega"], cfg["alpha"], cfg["beta"], cfg["epsilon"]
    doc = read_json(outdir, "saddle.json")
    big_i = om * om - ep * math.sqrt(be * be - al * al * om * om) / (2.0 * om)
    theta = math.acos(al * math.sqrt(big_i) / be)
    expect(abs(doc["I"] - big_i) < 1e-12 and abs(doc["theta"] - theta) < 1e-12,
           "saddle I or theta differ from the closed form")
    expect(len(doc["eigenvalues"]) == cfg["n_max"] + 1, "eigenvalue table length")
    for row in doc["eigenvalues"]:
        k = row["n"]
        xi = 1.0 if cfg["variant"] == "singular" or k <= cfg["n_cut"] else 8.0 / (k * k)
        damp = -ep * (al + xi * k * k)
        root = 2.0 * cmath.sqrt((k * k / 2 + om * om - big_i) * (3 * big_i - om * om - k * k / 2))
        for key, want in (("plus", damp + root), ("minus", damp - root)):
            got = complex(*row[key])
            expect(abs(got - want) < 1e-12 * max(1.0, abs(want)),
                   f"mode {k} {key} eigenvalue {got} != {want}")


# -- dashed-line ------------------------------------------------------------------------


def _dashed_step_rhs(cfg: dict):
    ref = oracles().dashed_rhs_ref

    def rhs(x):
        dop, dom = ref(x[0], x[1:], cfg["gamma"], cfg["epsilon"], cfg["trunc"])
        return np.concatenate(([dop], dom))

    return rhs


def check_dashed_line(outdir: str, cfg: dict) -> None:
    """From the analytic orbit: omega_p and omega_1^2+omega_4^2 against the
    closed forms rebuilt from coef_a_ref.  From the kicked line: the start
    state and spot samples by RK4 on dashed_rhs_ref."""
    trunc, steps, every = cfg["trunc"], cfg["steps"], cfg["sample_every"]
    header, rows = read_csv(outdir, "trajectory.csv")
    expect(len(header) == 2 * trunc + 3, f"trajectory.csv has {len(header)} columns")
    expect(rows.shape[0] == steps // every + 1, f"trajectory.csv has {rows.shape[0]} rows")
    expect(np.all(np.isfinite(rows)), "trajectory holds non-finite values")
    gamma = cfg["gamma"]
    if cfg["from_analytic"]:
        tau0, _theta0, sign = (float(v) for v in cfg["from_analytic"])
        resid = read_json(outdir, "residual.json")["max_orbit_residual"]
        expect(resid < 1e-7, f"analytic orbit residual {resid:.2e} above 1e-7")
        a1 = oracles().coef_a_ref((1, 1), (-2, -1))
        a2 = oracles().coef_a_ref((1, 1), (-1, 0))
        kappa = math.copysign(math.sqrt(-a1 * a2) * math.sqrt(1 + a2 / (4 * a1)), sign)
        tau = kappa * gamma * rows[:, 0] + tau0
        omega_p = gamma * np.tanh(tau)
        r2 = a2 / (a2 - a1) * gamma ** 2 / np.cosh(tau) ** 2
        col1, col4 = 2 + trunc + 1, 2 + trunc + 4
        gap_p = float(np.max(np.abs(rows[:, 1] - omega_p)))
        gap_r = float(np.max(np.abs(rows[:, col1] ** 2 + rows[:, col4] ** 2 - r2)))
        expect(gap_p < 1e-6 * gamma and gap_r < 1e-6 * gamma ** 2,
               f"closed-form gaps omega_p {gap_p:.2e}, omega_1^2+omega_4^2 {gap_r:.2e}")
    else:
        start = np.zeros(2 * trunc + 2)
        start[0] = gamma
        start[1 + trunc + 1] = cfg["kick"]
        expect(np.array_equal(rows[0, 1:], start), "first sample is not the kicked line")
    rhs = _dashed_step_rhs(cfg)
    for i in sorted({0, (rows.shape[0] - 2) // 2, rows.shape[0] - 2}):
        nxt = rk4(rhs, rows[i, 1:].copy(), cfg["dt"], every)
        gap = float(np.max(np.abs(rows[i + 1, 1:] - nxt)))
        expect(gap < 1e-11 * max(1.0, gamma), f"sample {i + 1} is {gap:.2e} from RK4 on dashed_rhs_ref")


# -- shadow ------------------------------------------------------------------------------


def _flow(cfg: dict):
    """The shadowed map rebuilt from the reference vector fields."""
    if cfg["map"] == "dashed-line":
        rhs = _dashed_step_rhs({"gamma": cfg["gamma"], "epsilon": 0.0, "trunc": 5})
        return lambda x: rk4(rhs, x, 0.05, 10)
    n_sites = cfg["N"]
    ref = oracles().pdnls_rhs_ref
    args = (n_sites, cfg["omega"], cfg["alpha"], cfg["beta"], cfg["epsilon"])

    def rhs(x):
        d = ref(x[:n_sites] + 1j * x[n_sites:], *args)
        return np.concatenate([d.real, d.imag])

    dt = 0.5 * 0.1 / n_sites ** 2
    return lambda x: rk4(rhs, x, dt, 20)


def check_shadow(outdir: str, cfg: dict) -> None:
    """The shadow is a true orbit (linear map: the closed-form shadow; flow
    maps: RK4 of the reference field) within the reported epsilon."""
    report = read_json(outdir, "report.json")
    _, pseudo = read_csv(outdir, "pseudo_orbit.csv")
    letters = [int(c) for c in cfg["word"]]
    expect(pseudo.shape[0] == len(letters) * (2 * cfg["m"] + 1), "pseudo-orbit length")
    expect("epsilon" in report, f"no shadow solve: {report.get('note', 'no epsilon')}")
    _, orbit = read_csv(outdir, "shadow_orbit.csv")
    expect(orbit.shape == pseudo.shape, "shadow and pseudo-orbit shapes differ")
    eps = float(np.max(np.abs(orbit - pseudo)))
    expect(abs(eps - report["epsilon"]) <= 1e-15 * max(1.0, eps), "reported epsilon mismatch")
    history = report["newton_residuals"]
    scale = max(1.0, float(np.max(np.abs(pseudo))))
    expect(history and history[-1] < 1e-12 * scale, "Newton residual above 1e-12")
    if cfg["map"] == "linear-test":
        seg = np.array([[1e-9 * 2.0 ** j, 0.5 ** j] for j in range(2 * cfg["m"] + 1)])
        want = np.vstack([seg if a else np.zeros_like(seg) for a in letters])
        expect(relative_gap(pseudo, want) < 1e-15, "pseudo-orbit is not the assembled word")
        gap = float(np.max(np.abs(orbit - oracles().exact_linear_shadow([2.0, 0.5], pseudo))))
        expect(gap < 1e-12, f"shadow {gap:.2e} from exact_linear_shadow")
        return
    fmap = _flow(cfg)
    worst = max(float(np.max(np.abs(fmap(orbit[j]) - orbit[j + 1])))
                for j in range(orbit.shape[0] - 1))
    expect(worst < 1e-9 * scale, f"shadow orbit step defect {worst:.2e} under the reference map")


# -- lax-check and darboux -----------------------------------------------------------------


def bracket_spectrum(w: np.ndarray, box: int) -> np.ndarray:
    """Eigenvalues of phi -> {Omega, phi} on the nonzero modes of the box:
    entry (k, q) is -det(k, q) * omega_{k-q}."""
    modes = [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)
             if (a, b) != (0, 0)]
    index = {k: i for i, k in enumerate(modes)}
    mat = np.zeros((len(modes), len(modes)), dtype=complex)
    for q in modes:
        for a in range(-box, box + 1):
            for b in range(-box, box + 1):
                if w[a + box, b + box] == 0:
                    continue
                k = (a + q[0], b + q[1])
                if k in index:
                    mat[index[k], index[q]] = -(k[0] * q[1] - k[1] * q[0]) * w[a + box, b + box]
    return np.linalg.eigvals(mat)


def check_lax_check(outdir: str, cfg: dict) -> None:
    """Residuals within the acceptance tolerances; for isospec the initial
    spectrum rebuilt here and the reported drift recomputed."""
    report = read_json(outdir, "report.json")
    res = report["residuals"]
    if cfg["case"] == "jacobi":
        expect(res["jacobi_max"] < 1e-10, f"jacobi defect {res['jacobi_max']:.2e}")
    elif cfg["case"] == "compat2d":
        expect(res["jacobi_max"] < 1e-10 and res["transport_max"] < 1e-9,
               f"compat2d jacobi {res['jacobi_max']:.2e} transport {res['transport_max']:.2e}")
    elif cfg["case"] == "isospec":
        box = cfg["box"]
        w = random_coefficients(box, np.random.default_rng(cfg["rng_seed"]), 0.3)
        w = w * (0.1 / math.sqrt(energy_enstrophy(w, box)[1]))
        initial = np.array([complex(*z) for z in report["spectra"]["initial"]])
        final = np.array([complex(*z) for z in report["spectra"]["final"]])
        gap = hausdorff(initial, bracket_spectrum(w, box))
        expect(gap < 1e-10, f"initial bracket spectrum {gap:.2e} from the rebuilt one")
        expect(abs(hausdorff(initial, final) - res["hausdorff"]) < 1e-14,
               "reported drift is not the distance of the reported spectra")
        expect(symmetry_defect(final) < 1e-10, "final bracket spectrum lost its symmetry")
    else:
        raise CheckFailed(f"no check for case {cfg['case']}")


def check_darboux(outdir: str, cfg: dict) -> None:
    res = read_json(outdir, "report.json")["residuals"]
    constraints = max(res["omega_lapF_bracket"], res["lapF_F_bracket"])
    expect(constraints < 1e-9, f"darboux constraints {constraints:.2e} above 1e-9")
    expect(res["transformed_kernel"] < 1e-8,
           f"transformed kernel residual {res['transformed_kernel']:.2e} above 1e-8")


CHECKS = {
    "euler-sim": check_euler_sim,
    "spectrum": check_spectrum,
    "nls-sim": check_nls_sim,
    "nls-saddle": check_nls_saddle,
    "dashed-line": check_dashed_line,
    "shadow": check_shadow,
    "lax-check": check_lax_check,
    "darboux": check_darboux,
}
