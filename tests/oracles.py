"""Independent oracles used by the test suite.

Everything here is deliberately written from scratch against the defining
formulas (explicit loops, high-precision arithmetic, closed-form series) and
never calls the implementation paths it is used to check.  It also holds
the reference code that only tests call: the dense class matrix and the
spectral mapping check on it (the one user of scipy), the grid-to-box
projection, the lattice evenness defect and the even-sector basis of the
dense lattice spectrum.  And it holds the reference checks that tests hold
the runs' results against: the reality defect of a coefficient field, the
energy and enstrophy derivatives along the Galerkin field, the count of
nonimaginary eigenvalues and the quadruple symmetry defect of a spectrum,
and the distance from a true orbit to a pseudo-orbit.
"""

from __future__ import annotations

import numpy as np


def coef_a_ref(p, q) -> float:
    """Direct evaluation of the interaction coefficient."""
    det = p[0] * q[1] - p[1] * q[0]
    np2 = p[0] ** 2 + p[1] ** 2
    nq2 = q[0] ** 2 + q[1] ** 2
    return 0.5 * (1.0 / nq2 - 1.0 / np2) * det


def zeta_ref(p) -> int:
    """Nonzero lattice points strictly inside the disk of radius |p| and not
    parallel to p, by a double loop over the enclosing square."""
    n2 = p[0] * p[0] + p[1] * p[1]
    r = int(np.floor(np.sqrt(n2)))
    count = 0
    for q1 in range(-r, r + 1):
        for q2 in range(-r, r + 1):
            if q1 == 0 and q2 == 0:
                continue
            if q1 * q1 + q2 * q2 >= n2:
                continue
            if p[0] * q2 - p[1] * q1 == 0:
                continue
            count += 1
    return count


def galerkin_rhs_ref(w: np.ndarray, box: int) -> np.ndarray:
    """Quadratic convolution by explicit loops over ordered pairs."""
    side = 2 * box + 1
    out = np.zeros((side, side), dtype=complex)
    for k1 in range(-box, box + 1):
        for k2 in range(-box, box + 1):
            if (k1, k2) == (0, 0):
                continue
            acc = 0.0 + 0.0j
            for p1 in range(-box, box + 1):
                for p2 in range(-box, box + 1):
                    if (p1, p2) == (0, 0):
                        continue
                    q1, q2 = k1 - p1, k2 - p2
                    if (q1, q2) == (0, 0):
                        continue
                    if abs(q1) > box or abs(q2) > box:
                        continue
                    acc += (coef_a_ref((p1, p2), (q1, q2))
                            * w[p1 + box, p2 + box] * w[q1 + box, q2 + box])
            out[k1 + box, k2 + box] = acc
    return out


def bracket_operator_matrix_ref(omega) -> np.ndarray:
    """Matrix of phi -> {Omega, phi} on the nonzero modes of Omega's box, in
    row-major order, assembled mode by mode: the entry coupling basis mode q
    into row k = m + q is -det(k, q) * omega_m for every nonzero omega_m."""
    box = omega.box
    data = omega.data
    modes = [(k1, k2) for k1 in range(-box, box + 1)
             for k2 in range(-box, box + 1) if (k1, k2) != (0, 0)]
    index = {k: i for i, k in enumerate(modes)}
    mat = np.zeros((len(modes), len(modes)), dtype=np.complex128)
    for q in modes:
        for m in modes:
            w = complex(data[m[0] + box, m[1] + box])
            k = (m[0] + q[0], m[1] + q[1])
            if w != 0 and k in index:
                mat[index[k], index[q]] = -(k[0] * q[1] - k[1] * q[0]) * w
    return mat


def grid_to_coefficients(grid, box: int):
    """Project grid samples onto the coefficient box |k1|,|k2| <= box.

    Reads each box mode straight off the normalized 2D FFT; content outside
    the box is discarded (sharp truncation) and the origin is not stored.
    """
    from chaoslab.fourier import CoefficientField

    n = grid.shape[0]
    fhat = np.fft.fft2(grid) / (n * n)
    k = np.arange(-box, box + 1) % n
    return CoefficientField(box, fhat[np.ix_(k, k)])


def evenness_defect(q: np.ndarray) -> float:
    """Largest gap |q_n - q_{N-n}| of a lattice vector from its reflection."""
    q = np.asarray(q)
    refl = np.roll(q[::-1], 1)
    return float(np.max(np.abs(q - refl)))


def even_sector_basis(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Embedding E and restriction P between the even sector and the lattice.

    The even sector stacks (Re q_0..Re q_M, Im q_0..Im q_M); the half-period
    translation symmetry of the full lattice doubles interior modes, so
    saddle-type counts are taken in this sector.  The dense even-sector
    spectrum at q is eigvals(P @ pdnls_jacobian_full(q, p) @ E).
    """
    M, n = N // 2, np.arange(N)
    # site n of the lattice is site min(n, N - n) of the even sector
    E1 = (np.minimum(n, N - n)[:, None] == np.arange(M + 1)).astype(float)
    return np.kron(np.eye(2), E1), np.kron(np.eye(2), np.eye(M + 1, N))


def pdnls_rhs_ref(q: np.ndarray, N: int, omega: float, alpha: float,
                  beta: float, eps: float) -> np.ndarray:
    """Lattice vector field by an explicit index loop.

    The discrete Laplacian is associated as (q_{n+1} + q_{n-1}) - 2 q_n,
    the package-wide convention (it preserves evenness exactly).
    """
    out = np.empty_like(q)
    h2 = float(N * N)
    for n in range(N):
        neigh = q[(n + 1) % N] + q[(n - 1) % N]
        lap = neigh - 2.0 * q[n]
        out[n] = (-1j * (h2 * lap + abs(q[n]) ** 2 * neigh
                         - 2.0 * omega ** 2 * q[n])
                  + eps * (-alpha * q[n] + h2 * lap + beta))
    return out


def dashed_rhs_ref(omega_p: float, omega: np.ndarray, gamma_unused, epsilon: float,
                   trunc: int):
    """Dashed-line field by explicit loops straight off the definitions."""
    from chaoslab.fourier import coef_A

    def a(n):
        return coef_A((1, 1), (-3 + n, -2 + n))

    def epsn(n):
        return epsilon if n % 5 == 0 else 1.0

    dom = np.zeros_like(omega)
    for i, n in enumerate(range(-trunc, trunc + 1)):
        lower = omega[i - 1] if i >= 1 else 0.0
        upper = omega[i + 1] if i + 1 < omega.size else 0.0
        dom[i] = (epsn(n - 1) * a(n - 1) * omega_p * lower
                  - epsn(n + 1) * a(n + 1) * omega_p * upper)
    dop = 0.0
    for i, n in enumerate(range(-trunc + 1, trunc + 1)):
        am = coef_A((-3 + n - 1, -2 + n - 1), (-3 + n, -2 + n))
        dop -= epsn(n) * epsn(n - 1) * am * omega[i] * omega[i + 1]
    return dop, dom


def class_eigenvalue_mp(khat, p_vec, gamma_abs: float, seed: complex,
                        depth: int = 400, dps: int = 30) -> complex:
    """High-precision eigenvalue of the decoupled class recurrence.

    Independent route: exact rational couplings, mpmath continued fractions,
    Newton with a numerical derivative.  Returns the eigenvalue of the
    operator itself (multiply by 2/|Gamma| for the normalized form).
    """
    from mpmath import mp, mpc, mpf, fabs

    old = mp.dps
    mp.dps = dps
    try:
        G = mpf(gamma_abs)

        def a(m):
            k1 = khat[0] + m * p_vec[0]
            k2 = khat[1] + m * p_vec[1]
            det = p_vec[0] * k2 - p_vec[1] * k1
            n2 = k1 * k1 + k2 * k2
            p2 = p_vec[0] ** 2 + p_vec[1] ** 2
            return (mpf(1) / n2 - mpf(1) / p2) / 2 * det

        def c(n):
            return a(n - 1) * G

        def d(n):
            return -a(n + 1) * G

        def F(lam):
            r = mpc(0)
            for n in range(depth, 0, -1):
                r = c(n) / (lam - d(n) * r)
            s = mpc(0)
            for n in range(-depth, 0):
                s = d(n) / (lam - c(n) * s)
            return lam - c(0) * s - d(0) * r

        lam = mpc(seed.real, seed.imag)
        h = mpf(10) ** (-(dps // 2))
        for _ in range(60):
            f0 = F(lam)
            fp = (F(lam + h) - f0) / h
            step = f0 / fp
            lam = lam - step
            if fabs(step) < mpf(10) ** (-(dps - 5)):
                break
        return complex(lam.real, lam.imag)
    finally:
        mp.dps = old


# Normalized point eigenvalue 2*lam/|Gamma| of the benchmark class
# khat=(-3,-2), p=(1,1), |Gamma|=2, to 30 digits.  Frozen from
# class_eigenvalue_mp at 60 digits (depth 300 and 600 agree); the float64
# continued fraction and dense truncations N=60..400 agree to < 1e-14.
# The historically quoted 0.24822302478255 + 0.35172076526520i is 6.78e-9
# away from it.
BENCH_EIGENVALUE_NORMALIZED = (0.248223018041106710943846730848
                               + 1j * 0.351720764585447511595812170033)


def class_spectrum_mp(khat, p_vec, gamma_abs: float, trunc: int,
                      dps: int = 30) -> np.ndarray:
    """Eigenvalues of the real form |Gamma| * A of a class truncation, by
    mpmath.eig on the full matrix at dps digits.

    Independent route: the matrix is built slot by slot from the exact
    coupling formula, as the recurrence defines it (w_n couples to w_{n-1}
    through A(p, khat+(n-1)p) and to w_{n+1} through A(-p, khat+(n+1)p),
    with no coupling across the skipped origin), and solved without any
    even/odd reduction.
    """
    from mpmath import mp, mpf

    old = mp.dps
    mp.dps = dps
    try:
        G = mpf(gamma_abs)

        def member(n):
            return (khat[0] + n * p_vec[0], khat[1] + n * p_vec[1])

        def coef(p, q):
            det = p[0] * q[1] - p[1] * q[0]
            return (mpf(1) / (q[0] ** 2 + q[1] ** 2)
                    - mpf(1) / (p[0] ** 2 + p[1] ** 2)) / 2 * det

        minus_p = (-p_vec[0], -p_vec[1])
        ns = [n for n in range(-trunc, trunc + 1) if member(n) != (0, 0)]
        mat = mp.zeros(len(ns), len(ns))
        for i in range(len(ns) - 1):
            if ns[i + 1] == ns[i] + 1:
                mat[i + 1, i] = G * coef(p_vec, member(ns[i]))
                mat[i, i + 1] = G * coef(minus_p, member(ns[i + 1]))
        eigs = mp.eig(mat, left=False, right=False)
        return np.array([complex(z) for z in eigs])
    finally:
        mp.dps = old


def class_matrix(op) -> np.ndarray:
    """The dense complex matrix of a class truncation, from op.sub, op.sup
    and op.gamma: a_n*Gamma below and b_n*conj(Gamma) above a zero diagonal.
    The first slot's a_n and the last slot's b_n reach outside the
    truncation and are dropped; across the origin both couplings are zero."""
    dim = op.dimension
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(1, dim):
        mat[i, i - 1] = op.sub[i] * op.gamma
        mat[i - 1, i] = op.sup[i - 1] * np.conj(op.gamma)
    return mat


def spectral_mapping_check(op, t: float) -> float:
    """Hausdorff distance between eig(expm(t*L)) and exp(t*eig(L)) for the
    dense class matrix L of `class_matrix`."""
    import scipy.linalg

    from chaoslab.errors import PreconditionError
    from chaoslab.util import hausdorff_distance

    if t == 0:
        raise PreconditionError("t must be nonzero")
    if op.dimension > 200:
        raise PreconditionError("dimension above 200 for the matrix exponential")
    mat = class_matrix(op)
    lhs = np.linalg.eigvals(scipy.linalg.expm(t * mat))
    rhs = np.exp(t * np.linalg.eigvals(mat))
    return hausdorff_distance(lhs, rhs)


def exact_linear_shadow(diag: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Closed-form shadow of a pseudo-orbit of a diagonal hyperbolic map.

    Expanding components are corrected by the backward geometric series with
    a zero far end, contracting ones by the forward series with a zero
    start; the free orbit-family parameter is then fixed by projecting to
    the minimum stacked-2-norm member, matching the minimum-norm Newton
    convention.
    """
    lam = np.asarray(diag, dtype=float)
    y = np.asarray(points, dtype=float)
    L, dim = y.shape
    d = y[1:] - y[:-1] * lam
    e = np.zeros((L, dim))
    for i, l in enumerate(lam):
        if abs(l) > 1.0:
            for j in range(L - 2, -1, -1):
                e[j, i] = (e[j + 1, i] + d[j, i]) / l
        else:
            for j in range(1, L):
                e[j, i] = l * e[j - 1, i] - d[j - 1, i]
    for i, l in enumerate(lam):
        powers = l ** np.arange(L)
        coef = -np.dot(powers, e[:, i]) / np.dot(powers, powers)
        e[:, i] += coef * powers
    return y + e


def min_norm_orbit_step_ref(jacs: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Minimum-norm solution x (L, d) of x_{j+1} - J_j x_j = -r_j by dense
    least squares: the whole (L-1)d x Ld orbit Jacobian, then lstsq."""
    jacs = np.asarray(jacs, dtype=float)
    res = np.asarray(res, dtype=float)
    n, d = res.shape
    mat = np.zeros((n * d, (n + 1) * d))
    for j in range(n):
        mat[j * d:(j + 1) * d, j * d:(j + 1) * d] = -jacs[j]
        mat[j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = np.eye(d)
    step, *_ = np.linalg.lstsq(mat, -res.ravel(), rcond=None)
    return step.reshape(n + 1, d)


def double_well_rhs(v: np.ndarray) -> np.ndarray:
    """Planar double-well flow with a saddle at the origin (rates +-1) and
    the closed-form loop x(t) = sqrt(2) sech t."""
    x, y = v[..., 0], v[..., 1]
    return np.stack([y, x - x ** 3], axis=-1)


def double_well_jacobian(v: np.ndarray) -> np.ndarray:
    """Jacobian at v (2,), or one per row of a stack (..., 2)."""
    x = v[..., 0]
    zero, one = np.zeros_like(x), np.ones_like(x)
    return np.stack([np.stack([zero, one], axis=-1),
                     np.stack([1.0 - 3.0 * x * x, zero], axis=-1)], axis=-2)


def double_well_homoclinic(t: float) -> np.ndarray:
    sech = 1.0 / np.cosh(t)
    return np.array([np.sqrt(2.0) * sech,
                     -np.sqrt(2.0) * sech * np.tanh(t)])


def reality_defect(field) -> float:
    """Largest gap |w_k - conj(w_-k)| of a CoefficientField from the
    reality pairing."""
    data = field.data
    return float(np.max(np.abs(data - np.conj(data[::-1, ::-1]))))


def energy_derivative(state) -> float:
    """d(energy)/dt along fourier.galerkin_rhs, by direct summation."""
    from chaoslab._kernels_py import box_norm_sq
    from chaoslab.fourier import galerkin_rhs

    rhs = galerkin_rhs(state)
    return float(np.sum(np.real(np.conj(state.data) * rhs.data)
                        / box_norm_sq(state.box)))


def enstrophy_derivative(state) -> float:
    """d(enstrophy)/dt along fourier.galerkin_rhs, by direct summation."""
    from chaoslab.fourier import galerkin_rhs

    rhs = galerkin_rhs(state)
    return float(np.sum(np.real(np.conj(state.data) * rhs.data)))


def count_nonimaginary(report, tol: float) -> int:
    """Eigenvalues of a SpectrumReport with |Re lam| above tol, a finite
    number > 0; bounded by 2*zeta(p)."""
    from chaoslab.errors import PreconditionError

    if not (np.isfinite(tol) and tol > 0):
        raise PreconditionError("tol must be a finite number > 0")
    return int(np.sum(np.abs(report.eigenvalues.real) > tol))


def quadruple_symmetry_defect(report) -> float:
    """Deviation of a SpectrumReport's spectrum from symmetry under negation
    and conjugation.

    For each eigenvalue the three images -lam, conj(lam), -conj(lam) must be
    matched by some eigenvalue of the set.
    """
    eigs = report.eigenvalues
    if eigs.size == 0:
        return 0.0
    defect = 0.0
    for lam in eigs:
        for image in (-lam, np.conj(lam), -np.conj(lam)):
            defect = max(defect, float(np.min(np.abs(eigs - image))))
    return defect


def shadow_distance(start, pseudo, system) -> float:
    """sup_j |f^j(x) - y_j| over the window of a PseudoOrbit, from the true
    orbit of x under a MapSystem."""
    return float(np.max(np.abs(system.orbit(start, len(pseudo)) - pseudo.points)))
