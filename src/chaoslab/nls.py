"""Perturbed discrete cubic NLS lattice and the continuum saddle formulas.

The lattice state q_n (n = 0..N-1, h = 1/N) evolves by

    i dq_n/dt = h^-2 (q_{n+1} - 2 q_n + q_{n-1}) + |q_n|^2 (q_{n+1} + q_{n-1})
                - 2 w^2 q_n + i eps [ -alpha q_n + h^-2 (...) + beta ]

with periodic and even (q_{N-n} = q_n) symmetry.  A lattice state is the
complex vector q of shape (N,); simulate makes its start even once, and the
flow keeps it even.  The continuum-regime closed forms for the uniform
saddle and its linearization eigenvalues take plain scalar parameters since
the lattice window N tan(pi/N) < w never overlaps the continuum window w in
(1/2, 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._kernels_py import neighbour_index
from .errors import NumericError, PreconditionError
from .util import BLOWUP_LIMIT, Trajectory

# solve_uniform_saddle: the Newton step target and step cap.
SADDLE_TOL = 1e-13
SADDLE_MAX_ITER = 60
# silnikov_check: slack in the mode-2 slowest-decay comparison.
SILNIKOV_TOL = 1e-12
# DiscreteSaddle.unstable_count: real parts above this count as unstable.
UNSTABLE_TOL = 1e-4
# classify_profile: a max - min spread at or below FLAT_TOL * max is flat.
FLAT_TOL = 1e-12
# center_wing_encode: unambiguous samples a new basin must persist for.
MIN_RUN = 5
# NLSParams: the largest N.  At N = 1024 (2 vCPUs, OpenBLAS, 4 GB cap) `nls-sim
# --steps 1` took 0.24 s and 31 MB peak RSS; `shadow --map nls-poincare --m 1`
# 57 s and 1.07 GB, 46 s of it the O(N^3) variational RK4 of the 2N x 2N tangent.
MAX_N = 1024
# eigenvalue_table: the highest continuum mode it lists.  A whole nls-saddle
# run took 0.51 s and 47 MB of peak RSS at --n-max 10^4, 2.5 s and 204 MB at
# 10^5, and 17 s and 1.8 GB at 10^6 (one run each, 2 vCPUs).
MAX_MODE = 10**4


@dataclass
class NLSParams:
    """Lattice parameters, checked before any work: 3 <= N <= MAX_N, and
    omega in the lattice window and below BLOWUP_LIMIT, which the saddle of
    amplitude about omega would break (the N = 3 window has no upper end)."""

    N: int
    omega: float
    alpha: float
    beta: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 3 <= self.N <= MAX_N:
            raise PreconditionError(f"N must be in [3, {MAX_N}]")
        if self.alpha <= 0 or self.beta <= 0:
            raise PreconditionError("alpha and beta must be positive")
        if self.epsilon < 0:
            raise PreconditionError("epsilon must be >= 0")
        if not self.in_window():
            raise PreconditionError(
                f"omega={self.omega} outside the lattice window {self.window()}")
        if not self.omega < BLOWUP_LIMIT:
            raise PreconditionError(f"omega={self.omega} not below {BLOWUP_LIMIT:g}")

    def window(self) -> tuple[float, float]:
        lo = self.N * math.tan(math.pi / self.N)
        hi = math.inf if self.N == 3 else self.N * math.tan(2 * math.pi / self.N)
        return lo, hi

    def in_window(self) -> bool:
        lo, hi = self.window()
        return lo < self.omega < hi

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def M(self) -> int:
        """Number of independent modes minus one under evenness."""
        return self.N // 2

    def max_stable_dt(self) -> float:
        return 0.1 * self.h * self.h

    def check_dt(self, dt: float) -> None:
        """Reject dt above 0.1 h^2, the stiff lattice Laplacian's bound."""
        if dt > self.max_stable_dt() * (1 + 1e-12):
            raise PreconditionError(
                f"dt={dt} above the stability bound 0.1*h^2={self.max_stable_dt():.3e}")


def make_even(q: np.ndarray) -> np.ndarray:
    """Symmetrize under n -> N - n."""
    q = np.asarray(q, dtype=np.complex128)
    refl = np.roll(q[::-1], 1)
    return 0.5 * (q + refl)


# -- continuum closed forms ---------------------------------------------------


@dataclass
class SaddleInfo:
    I: float
    theta: float
    eigenvalues: list[tuple[int, complex, complex]] | None = None

    def to_json_dict(self) -> dict:
        out = {"I": self.I, "theta": self.theta}
        if self.eigenvalues is not None:
            out["eigenvalues"] = [
                {"n": n, "plus": [lp.real, lp.imag], "minus": [lm.real, lm.imag]}
                for n, lp, lm in self.eigenvalues]
        return out


def continuum_saddle(omega: float, alpha: float, beta: float,
                     epsilon: float) -> SaddleInfo:
    """Leading-order amplitude and phase of the uniform saddle.

    I = w^2 - eps*(1/(2w))*sqrt(beta^2 - alpha^2 w^2), theta = arccos(alpha
    sqrt(I)/beta) in (0, pi/2).  Requires finite parameters and alpha*w < beta.
    """
    if not all(math.isfinite(v) for v in (omega, alpha, beta, epsilon)):
        raise PreconditionError("omega, alpha, beta and epsilon must be finite")
    if omega <= 0:
        raise PreconditionError("omega must be positive")
    rad = beta * beta - alpha * alpha * omega * omega
    if rad <= 0:
        raise PreconditionError("continuum saddle needs alpha*omega < beta")
    I = omega * omega - epsilon * math.sqrt(rad) / (2.0 * omega)
    if I <= 0:
        raise PreconditionError("saddle amplitude collapsed (epsilon too large)")
    c = alpha * math.sqrt(I) / beta
    if c >= 1.0:
        raise PreconditionError("phase formula needs alpha*sqrt(I) < beta")
    return SaddleInfo(I=I, theta=math.acos(c))


def mollifier(n: int, n_cut: int, variant: str = "regular") -> float:
    """Damping weight xi_n: mollified above n_cut, or identically 1."""
    if variant == "singular":
        return 1.0
    if variant != "regular":
        raise PreconditionError("variant must be 'regular' or 'singular'")
    return 1.0 if n <= n_cut else 8.0 / (n * n)


def continuum_eigenvalues(n: int, omega: float, alpha: float, epsilon: float,
                          I: float, n_cut: int = 10,
                          variant: str = "regular") -> tuple[complex, complex]:
    """Linearization eigenvalue pair of mode n at the saddle.

    lam_n^+- = -eps*(alpha + xi_n n^2) +- 2*sqrt((n^2/2 + w^2 - I)(3I - w^2 -
    n^2/2)); a negative radicand gives the imaginary pair.
    """
    if n < 0:
        raise PreconditionError("mode index must be >= 0")
    xi = mollifier(n, n_cut, variant) if n > 0 else 1.0
    damp = -epsilon * (alpha + xi * n * n)
    half_nsq = 0.5 * n * n
    rad = (half_nsq + omega * omega - I) * (3.0 * I - omega * omega - half_nsq)
    root = 2.0 * cmath.sqrt(rad)
    return (damp + root, damp - root)


def eigenvalue_table(omega: float, alpha: float, beta: float, epsilon: float,
                     n_max: int = 6, n_cut: int = 10,
                     variant: str = "regular") -> tuple[SaddleInfo, list]:
    """Saddle data plus (n, lam+, lam-) for n = 0..n_max <= MAX_MODE."""
    if not 0 <= n_max <= MAX_MODE:
        raise PreconditionError(
            f"n_max must be in [0, {MAX_MODE}] (nls.MAX_MODE), got {n_max}")
    info = continuum_saddle(omega, alpha, beta, epsilon)
    table = []
    for n in range(n_max + 1):
        lp, lm = continuum_eigenvalues(n, omega, alpha, epsilon, info.I,
                                       n_cut=n_cut, variant=variant)
        table.append((n, lp, lm))
    info.eigenvalues = table
    return info, table


@dataclass
class SilnikovReport:
    two_unstable: bool
    mode2_slowest_decay: bool
    silnikov_inequality: bool

    def all_hold(self) -> bool:
        return self.two_unstable and self.mode2_slowest_decay and self.silnikov_inequality


def silnikov_check(tagged_eigs) -> SilnikovReport:
    """Saddle-type ordering flags on mode-tagged eigenvalues.

    ``tagged_eigs`` is an iterable of (mode_index, eigenvalue) pairs.  Checks:
    exactly two eigenvalues with positive real part; |Re| of the mode-2
    eigenvalues is smallest among the decaying ones, up to SILNIKOV_TOL; that
    value is below the positive mode-0 rate.
    """
    entries = [(int(n), complex(z)) for n, z in tagged_eigs]
    pos = [z for _, z in entries if z.real > 0]
    neg = [z for _, z in entries if z.real < 0]
    two_unstable = len(pos) == 2

    neg2 = [abs(z.real) for n, z in entries if n == 2 and z.real < 0]
    mode2_slowest = (bool(neg2) and min(abs(z.real) for z in neg)
                     >= min(neg2) - SILNIKOV_TOL)

    pos0 = [z.real for n, z in entries if n == 0 and z.real > 0]
    inequality = bool(neg2) and bool(pos0) and min(neg2) < max(pos0)
    return SilnikovReport(two_unstable, mode2_slowest, inequality)


# -- discrete saddle and linearization ---------------------------------------


def _saddle_residual(Q: complex, p: NLSParams) -> complex:
    return (-2j * (abs(Q) ** 2 - p.omega ** 2) * Q
            + p.epsilon * (-p.alpha * Q + p.beta))


def solve_uniform_saddle(p: NLSParams) -> complex:
    """Uniform fixed point q_n = Q = R e^{i theta} by a 2D real Newton.

    Writing the fixed-point condition in amplitude and phase gives

        beta cos(theta) = alpha R,    2 (w^2 - R^2) R = eps beta sin(theta),

    which stays well conditioned through the epsilon -> 0 circle degeneracy
    and pins the theta in (0, pi/2) branch, the limit of the perturbed phase
    condition.  Newton stops once a step is below SADDLE_TOL * max(1, R),
    within SADDLE_MAX_ITER steps, and the Cartesian residual is verified to
    1e4 * SADDLE_TOL before returning; a non-finite iterate raises
    NumericError.
    """
    c = p.alpha * p.omega / p.beta
    if c >= 1.0:
        raise PreconditionError("saddle needs alpha*omega < beta")
    r, th = p.omega, math.acos(c)
    # overflow (a huge beta or epsilon) stops at the first non-finite iterate
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SADDLE_MAX_ITER):
            h = np.array([p.beta * math.cos(th) - p.alpha * r,
                          2.0 * (p.omega ** 2 - r * r) * r
                          - p.epsilon * p.beta * math.sin(th)])
            jac = np.array([
                [-p.alpha, -p.beta * math.sin(th)],
                [2.0 * p.omega ** 2 - 6.0 * r * r, -p.epsilon * p.beta * math.cos(th)],
            ])
            try:
                dx = np.linalg.solve(jac, -h)
            except np.linalg.LinAlgError as exc:
                raise NumericError("saddle Newton hit a singular Jacobian",
                                   last_iterate=r * cmath.exp(1j * th)) from exc
            if not np.all(np.isfinite(dx + (r, th))):  # the next iterate
                raise NumericError("saddle Newton reached a non-finite iterate",
                                   last_iterate=r * cmath.exp(1j * th))
            r, th = r + dx[0], th + dx[1]
            if np.max(np.abs(dx)) < SADDLE_TOL * max(1.0, r):
                Q = r * cmath.exp(1j * th)
                if not (0.0 < th < 0.5 * math.pi):
                    raise NumericError("saddle Newton left the (0, pi/2) phase branch",
                                       last_iterate=Q)
                # a NaN residual fails too
                if not abs(_saddle_residual(Q, p)) <= 1e4 * SADDLE_TOL * max(1.0, abs(Q)):
                    raise NumericError("saddle residual check failed", last_iterate=Q)
                return Q
    raise NumericError("saddle Newton did not converge",
                       last_iterate=r * cmath.exp(1j * th))


# Cached constant parts of pdnls_jacobian_full, keyed by (N, epsilon bits).
_JACOBIAN_BLOCKS: dict[tuple[int, str], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _jacobian_blocks(N: int, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state-independent parts of pdnls_jacobian_full for (N, epsilon):
    the linear part A0 = (-i + eps) h^-2 lap of d rhs/dq on the diagonal and
    the two hop bands; the real Jacobian of A0 with B = 0, whose entries off
    the bands are final; and the flat positions of the bands in its four
    N x N blocks.  The key holds epsilon's exact bits, so -0.0, whose signed
    zeros differ from those of 0.0, gets its own entry."""
    key = (N, float(epsilon).hex())
    cached = _JACOBIAN_BLOCKS.get(key)
    if cached is not None:
        return cached
    h2 = float(N * N)
    idx = np.arange(N)
    ip, im = neighbour_index(N)
    lap = np.zeros((N, N), dtype=np.complex128)
    lap[idx, idx] = -2.0
    lap[idx, ip] = 1.0
    lap[idx, im] = 1.0
    # summed onto zeros and combined with a zero B, as a full assembly of
    # A and B does, so that every signed zero comes out the same
    a0 = np.zeros((N, N), dtype=np.complex128)
    a0 += -1j * h2 * lap + epsilon * h2 * lap
    b0 = np.zeros((N, N), dtype=np.complex128)
    apb, amb = a0 + b0, a0 - b0
    const = np.block([[apb.real, -amb.imag], [apb.imag, amb.real]])
    # the diagonal, then the (n, n+1) and (n, n-1) hop bands
    rows = np.concatenate([idx, idx, idx])
    cols = np.concatenate([idx, ip, im])
    flat = rows * (2 * N) + cols
    where = np.concatenate([flat, flat + N, flat + 2 * N * N, flat + 2 * N * N + N])
    cached = (a0[rows, cols], const, where)
    _JACOBIAN_BLOCKS[key] = cached
    return cached


def pdnls_jacobian_full(q: np.ndarray, p: NLSParams) -> np.ndarray:
    """Analytic 2N x 2N real Jacobian of the lattice vector field.

    With A = d rhs/dq and B = d rhs/d conj(q), the Jacobian on stacked
    (Re q, Im q) is [[Re(A+B), -Im(A-B)], [Im(A+B), Re(A-B)]].  Only the
    diagonal and the two hop bands depend on the state, so each call adds
    the state's terms to the cached linear block on those 3N entries and
    writes them into a copy of the cached Jacobian of the linear block; the
    arithmetic on every entry is that of the full complex assembly.  The
    lattice runs along the last axis of q; leading axes are a batch, so q of
    shape (B, N) gives the (B, 2N, 2N) Jacobians of its rows, each bit for
    bit the 1-D result.
    """
    N = p.N
    q = np.asarray(q, dtype=np.complex128)
    batch = q.shape[:-1]
    a0_bands, const, where = _jacobian_blocks(N, p.epsilon)
    ip, im = neighbour_index(N)
    neigh = q[..., ip] + q[..., im]
    diag = -1j * (np.conj(q) * neigh - 2.0 * p.omega ** 2) - p.epsilon * p.alpha
    hop = -1j * (np.abs(q) ** 2)
    a = a0_bands + np.concatenate([diag, hop, hop], axis=-1)
    b = np.concatenate([-1j * q * neigh, np.zeros(batch + (2 * N,), dtype=np.complex128)],
                       axis=-1)
    apb, amb = a + b, a - b
    jac = np.broadcast_to(const, batch + const.shape).copy()
    jac.reshape(batch + (-1,))[..., where] = np.concatenate(
        [apb.real, -amb.imag, apb.imag, amb.real], axis=-1)
    return jac


@dataclass
class DiscreteSaddle:
    """Uniform saddle q = (Q, ..., Q) with its linearization spectrum.

    ``eigenvalues`` (and ``unstable_count``) refer to the even sector, the
    phase space of the symmetric system; the full lattice carries one extra
    unstable direction per interior unstable mode, its odd-parity translate.
    """

    Q: complex
    q: np.ndarray
    eigenvalues: np.ndarray

    def unstable_count(self) -> int:
        return int(np.sum(self.eigenvalues.real > UNSTABLE_TOL))


def lattice_eigenvalues(p: NLSParams, R: float) -> np.ndarray:
    """Even-sector spectrum at the uniform state of amplitude R: row m holds
    mode m's 2 x 2 block pair lam_m^+- = -eps (alpha + h^-2 s_m) +- sqrt(4 R^4 -
    c_m^2), s_m = 4 sin^2(pi m/N), c_m = h^-2 s_m + 2 w^2 - 2 R^2 (1 + cos(2 pi m/N))."""
    m = np.arange(p.M + 1)
    lap = p.N ** 2 * 4.0 * np.sin(np.pi * m / p.N) ** 2
    rr = 2.0 * R * R
    c = lap + 2.0 * p.omega ** 2 - rr * (1.0 + np.cos(2.0 * np.pi * m / p.N))
    # 4 R^4 - c^2 as a product, exactly 0 at a zero crossing
    root = np.sqrt(((rr - c) * (rr + c)).astype(np.complex128))
    damp = -p.epsilon * (p.alpha + lap)
    return np.stack([damp + root, damp - root], axis=1)


def discrete_saddle(p: NLSParams) -> DiscreteSaddle:
    """Uniform saddle of the lattice with its even-sector spectrum."""
    Q = solve_uniform_saddle(p)
    return DiscreteSaddle(Q=Q, q=np.full(p.N, Q, dtype=np.complex128),
                          eigenvalues=lattice_eigenvalues(p, abs(Q)).ravel())


# -- simulation ----------------------------------------------------------------


def simulate(q0, p: NLSParams, dt: float, steps: int,
             sample_every: int = 1) -> Trajectory:
    """Fixed-step RK4 lattice trajectory from make_even(q0), q0 of shape
    (N,), dt within NLSParams.check_dt; blow-up raises NumericError with the
    failing step index."""
    p.check_dt(dt)
    q0 = np.asarray(q0)
    if q0.shape != (p.N,):
        raise PreconditionError(f"q0 must have shape ({p.N},), got {q0.shape}")
    states = kernels.pdnls_rk4(make_even(q0), p.N ** 2, 2.0 * p.omega ** 2,
                               p.alpha, p.beta, p.epsilon, dt, steps, sample_every)
    return Trajectory.sampled(states, dt, sample_every)


def flow_map(p: NLSParams, dt: float, steps: int):
    """Stroboscopic (time dt*steps) map on stacked real vectors, with the
    variational-RK4 Jacobian, as a MapSystem for the shadowing tools.

    The map and the Jacobian take one state (2N,) or a stack (B, 2N) and
    integrate it in one RK4 run.  The right-hand side hands pdnls_rhs the
    transposed (N, B) view of the complex stack, whose first-axis neighbour
    gather serves a stack as it serves one state.
    """
    from .shadowing import rk4_flow_system

    N = p.N
    args = (N ** 2, 2.0 * p.omega ** 2, p.alpha, p.beta, p.epsilon)

    def to_c(x):
        return x[..., :N] + 1j * x[..., N:]

    def to_r(q):
        return np.concatenate([q.real, q.imag], axis=-1)

    def rhs_r(x):
        return to_r(kernels.pdnls_rhs(to_c(x).T, *args).T)

    def jac_r(x):
        return pdnls_jacobian_full(to_c(x), p)

    return rk4_flow_system(rhs_r, jac_r, 2 * N, dt, steps)


# -- symbol extraction ----------------------------------------------------------


def half_period_translate(samples: np.ndarray) -> np.ndarray:
    """Shift every profile by half the spatial period (even N only)."""
    samples = np.atleast_2d(samples)
    N = samples.shape[1]
    if N % 2 != 0:
        raise PreconditionError("half-period translation needs even N")
    return np.roll(samples, N // 2, axis=1)


def classify_profile(q: np.ndarray) -> str:
    """'C' for a hump at the center, 'W' at the boundary, '?' if ambiguous.

    All sites attaining the exact maximum are classified by their circular
    distance to the center N/2 versus the boundary 0; disagreement among the
    maximizing sites, exact ties, or a flat profile (max - min at most
    FLAT_TOL * max) give '?'.  The rule
    commutes exactly with the half-period translation (classes swap).
    """
    u = np.abs(np.asarray(q))
    mx = float(u.max())
    if mx <= 0.0 or (mx - float(u.min())) <= FLAT_TOL * mx:
        return "?"
    N = u.size
    labels = set()
    for i in np.flatnonzero(u == mx):
        dc = min((i - N / 2.0) % N, (N / 2.0 - i) % N)
        dw = min(i % N, (-i) % N)
        if dc < dw:
            labels.add("C")
        elif dw < dc:
            labels.add("W")
        else:
            labels.add("?")
    return labels.pop() if len(labels) == 1 else "?"


@dataclass
class CenterWingEncoding:
    per_sample: str
    symbols: str
    n_ambiguous: int


def center_wing_encode(samples: np.ndarray) -> CenterWingEncoding:
    """Two-symbol encoding of hump jumping with hysteresis compression.

    A symbol is emitted only when the hump basin changes and the new basin
    persists for at least MIN_RUN consecutive unambiguous samples;
    ambiguous samples break the candidate run and are excluded from the
    statistics.
    """
    per = "".join(classify_profile(q) for q in np.atleast_2d(samples))
    emitted = []
    current: str | None = None
    cand: str | None = None
    run = 0
    for ch in per:
        if ch == "?" or ch == current:
            cand, run = None, 0
            continue
        if ch == cand:
            run += 1
        else:
            cand, run = ch, 1
        if run >= MIN_RUN:
            emitted.append(ch)
            current = ch
            cand, run = None, 0
    return CenterWingEncoding(per_sample=per, symbols="".join(emitted),
                              n_ambiguous=per.count("?"))


def swap_symbols(s: str) -> str:
    return s.translate(str.maketrans("CW", "WC"))


def second_measurement(alpha: float, omega: float, delta_gamma: float) -> float:
    """Right-hand side of the phase-matching zero condition,
    alpha*omega*dg / (2*sin(dg/2)); poles at dg = 2*pi*k."""
    s = math.sin(0.5 * delta_gamma)
    if abs(s) < 1e-12:
        raise PreconditionError("delta_gamma at a pole (multiple of 2*pi)")
    return alpha * omega * delta_gamma / (2.0 * s)
