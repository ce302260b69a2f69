"""Pseudo-orbits, segment assembly, shadow solving and dichotomy surrogates.

Maps are supplied as plain callables so the same tools serve synthetic test
maps, the dashed-line flow map, and the lattice stroboscopic map.  A map
and its Jacobian take one state of shape (d,) or a stack of states of
shape (B, d) and act row by row, so the Newton residual, the defects of a
pseudo-orbit and the Jacobians along an orbit each take one call; only
the sequential orbit calls the map point by point.  A flow map raises
NumericError on blow-up, for a stack at the earliest step at which any row
blows up.

The shadow Newton step is the minimum-norm solution of the block-bidiagonal
orbit equations, found by a sweep of one small Householder QR per orbit
point (min_norm_orbit_step), so a step costs O(L d^3) for L points in R^d
and no (L-1)d x Ld matrix is ever formed.

All distances between states are sup-norms over components, and all claims
are made on finite windows: hyperbolicity data are finite-time surrogates,
never certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, PreconditionError
from .util import rk4

# find_shadow's convergence target and step cap
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60
# hyperbolicity_estimate's neutral-rate and bundle-angle threshold
RATE_TOL = 1e-3


@dataclass
class MapSystem:
    """A map on R^d with an optional Jacobian.

    map takes a state (d,) or a stack (B, d) and returns the images in the
    same shape; jacobian returns (d, d) or (B, d, d).  Row j of a stacked
    call is the call on row j alone.
    """

    dimension: int
    map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def orbit(self, x: np.ndarray, length: int) -> np.ndarray:
        if length < 1:
            raise PreconditionError(f"orbit length must be >= 1, got {length}")
        out = np.empty((length, self.dimension))
        y = np.asarray(x, dtype=float)
        out[0] = y
        for j in range(1, length):
            y = self.map(y)
            out[j] = y
        return out


def linear_map_system(matrix: np.ndarray) -> MapSystem:
    """The linear test map x -> M x, on the rows of a stack as x @ M^T."""
    m = np.asarray(matrix, dtype=float)
    return MapSystem(dimension=m.shape[0], map=lambda x: x @ m.T,
                     jacobian=lambda x: np.broadcast_to(m, np.shape(x)[:-1] + m.shape))


def rk4_flow_system(rhs, jacobian, dimension: int, dt: float,
                    steps: int) -> MapSystem:
    """Time-(dt*steps) map of a smooth flow as a MapSystem.

    rhs and jacobian act on the last axis and treat leading axes as a
    batch: rhs maps (..., d) to (..., d) and jacobian to (..., d, d).  The
    map runs the shared RK4 driver once on a state (d,) or a whole stack
    (B, d), and raises NumericError on blow-up with the step index, for a
    stack the earliest step at which any row blows up.  The Jacobian runs
    util.rk4 too, on the stacked state (y, vec(J)) of shape (..., d + d^2)
    with right-hand side (rhs(y), jacobian(y) @ J), so it is the exact
    derivative of the numerical map (central differences of the map match
    it to their own truncation error) and obeys the same blow-up rule.
    """

    def run(f, z0):
        return rk4(f, z0, dt, steps, max(steps, 1))[-1]

    def start(x):
        x = np.array(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != dimension or x.size == 0:
            raise PreconditionError(
                f"state must have shape ({dimension},) or (B, {dimension})")
        return x

    def fmap(x):
        return run(rhs, start(x))

    def variational(z):
        y = z[..., :dimension]
        jac = z[..., dimension:].reshape(z.shape[:-1] + (dimension, dimension))
        flat = (jacobian(y) @ jac).reshape(z.shape[:-1] + (dimension * dimension,))
        return np.concatenate((rhs(y), flat), axis=-1)

    def fjac(x):
        x = start(x)
        eye = np.broadcast_to(np.eye(dimension).ravel(),
                              x.shape[:-1] + (dimension * dimension,))
        z = run(variational, np.concatenate((x, eye), axis=-1))
        return z[..., dimension:].reshape(x.shape[:-1] + (dimension, dimension))

    return MapSystem(dimension=dimension, map=fmap, jacobian=fjac)


def step_defects(points: np.ndarray, system: MapSystem) -> np.ndarray:
    """Sup-norm gaps |y_{j+1} - f(y_j)| along a candidate pseudo-orbit."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise PreconditionError("need at least two points")
    return np.max(np.abs(points[1:] - system.map(points[:-1])), axis=1)


@dataclass
class PseudoOrbit:
    points: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] < 2:
            raise PreconditionError("a pseudo-orbit needs at least two points")
        if not np.all(np.isfinite(self.points)):
            raise PreconditionError("pseudo-orbit points must be finite")
        if not self.delta >= 0:
            raise PreconditionError("delta must be a number >= 0")

    def __len__(self) -> int:
        return self.points.shape[0]


def palmer_assembly(x0: np.ndarray, y_segment: np.ndarray, word: str,
                    system: MapSystem) -> PseudoOrbit:
    """Concatenate saddle and homoclinic-segment blocks along a word of
    '0's and '1's.

    Block 0 repeats the saddle x0 2m+1 times; block 1 is the provided true
    orbit segment of odd length 2m+1 centered on the homoclinic point.  The
    measured defect comes entirely from the block joints and shrinks as the
    segment endpoints approach the saddle.
    """
    x0 = np.asarray(x0, dtype=float)
    seg = np.asarray(y_segment, dtype=float)
    if seg.ndim != 2 or seg.shape[0] % 2 == 0:
        raise PreconditionError("segment must contain an odd number of states")
    if not word or set(word) - {"0", "1"}:
        raise PreconditionError(f"word must be a nonempty string of 0s and 1s, got {word!r}")
    block0 = np.tile(x0, (seg.shape[0], 1))
    blocks = [block0 if a == "0" else seg for a in word]
    points = np.vstack(blocks)
    defect = float(step_defects(points, system).max())
    return PseudoOrbit(points=points, delta=defect)


@dataclass
class ShadowResult:
    orbit: np.ndarray
    start: np.ndarray
    epsilon: float
    residual_history: list[float]


def min_norm_orbit_step(jacs: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Minimum-norm solution x (L, d) of x_{j+1} - J_j x_j = -r_j, j < L-1.

    jacs (L-1, d, d) holds the J_j and res (L-1, d) the r_j.  The system
    matrix A has block rows [... -J_j, I ...], so A^T is block lower
    bidiagonal and its QR factorization A^T = Q R is swept along the orbit:
    one Householder QR per 2d x d block [M_j; I] (M_0 = -J_0^T), whose
    orthogonal factor Q_j turns the next column block [0; -J_{j+1}^T] into
    the coupling block S_j of the block-bidiagonal R and the next M_{j+1}.
    Then R^T y = -r by forward block substitution, and x = Q [y; 0] by
    applying the saved Q_j in reverse order.  Costs O(L d^3); every diagonal
    block of R has singular values >= 1, since [M_j; I] has.
    """
    n, d = res.shape
    neg_jt = -np.swapaxes(jacs, 1, 2)
    qs = np.empty((n, 2 * d, 2 * d))
    rts = np.empty((n, d, d))             # R_j^T
    coupling = np.zeros((n, d, d))        # S_{j-1}^T; none for j = 0
    block = np.empty((2 * d, d))
    block[:d] = neg_jt[0]
    block[d:] = np.eye(d)
    for j in range(n):
        q, r = np.linalg.qr(block, mode="complete")
        qs[j] = q
        rts[j] = r[:d].T
        if j + 1 < n:
            # Q_j^T [0; -J_{j+1}^T] needs only the bottom rows of Q_j
            carried = q[d:].T @ neg_jt[j + 1]
            coupling[j + 1] = carried[:d].T
            block[:d] = carried[d:]
    # R^T y = -r row block by row block: R_j^T y_j = -r_j - S_{j-1}^T y_{j-1};
    # all the d x d solves go in one stacked call, the recurrence in a loop
    sol = np.linalg.solve(rts, np.concatenate((-res[..., None], coupling), axis=2))
    start, carry = sol[..., 0], sol[..., 1:]
    y = np.empty((n, d))
    y[0] = start[0]
    for j in range(1, n):
        y[j] = start[j] - carry[j] @ y[j - 1]
    # x = Q_0 (Q_1 (... Q_{n-1} [y; 0])): Q_j maps (y_j, t_{j+1}) on the row
    # blocks j, j+1 to (t_j, x_{j+1}), with t_n = 0 and x_0 = t_0
    head = np.einsum("jab,jb->ja", qs[:, :d, :d], y)
    t = np.zeros((n + 1, d))
    for j in range(n - 1, -1, -1):
        t[j] = head[j] + qs[j, :d, d:] @ t[j + 1]
    x = np.empty((n + 1, d))
    x[0] = t[0]
    x[1:] = (np.einsum("jab,jb->ja", qs[:, d:, :d], y)
             + np.einsum("jab,jb->ja", qs[:, d:, d:], t[1:]))
    return x


def find_shadow(pseudo: PseudoOrbit, system: MapSystem) -> ShadowResult:
    """Newton solve of the stacked orbit equations x_{j+1} = f(x_j).

    The linearized system is underdetermined by one copy of the state space;
    each Newton step takes its minimum-norm correction, solved by the block
    QR sweep along the orbit of min_norm_orbit_step in O(L d^3), so the
    solver selects the true orbit nearest the pseudo-orbit in the stacked
    2-norm.  It converges when the sup residual is below NEWTON_TOL times
    max(1, sup |pseudo-orbit|).  Raises NumericError with the residual
    history on stagnation, after NEWTON_MAX_ITER steps, and at the first
    residual or step that is not finite.
    """
    if system.jacobian is None:
        raise PreconditionError("find_shadow needs a jacobian")
    x = pseudo.points.copy()
    history: list[float] = []
    scale = max(1.0, float(np.max(np.abs(pseudo.points))))
    for _ in range(NEWTON_MAX_ITER):
        res = x[1:] - system.map(x[:-1])
        rnorm = float(np.max(np.abs(res)))
        history.append(rnorm)
        if not np.isfinite(rnorm):
            raise NumericError("shadow Newton residual is not finite",
                               history=history)
        if rnorm < NEWTON_TOL * scale:
            eps = float(np.max(np.abs(x - pseudo.points)))
            return ShadowResult(orbit=x, start=x[0].copy(), epsilon=eps,
                                residual_history=history)
        if len(history) > 3 and rnorm > 0.5 * history[-3]:
            raise NumericError("shadow Newton stagnated", history=history)
        step = min_norm_orbit_step(system.jacobian(x[:-1]), res)
        if not np.all(np.isfinite(step)):
            raise NumericError("shadow Newton step is not finite",
                               history=history)
        x = x + step
    raise NumericError("shadow Newton did not converge", history=history)


# -- finite-time dichotomy surrogates -------------------------------------------


@dataclass
class DichotomyReport:
    rates: np.ndarray                 # per-step exponents, full-window average
    tail_rates: np.ndarray            # second-half average; alignment transient
                                      # telescopes away, so these converge
                                      # exponentially on saturated products
    expansion_rate: float
    contraction_rate: float
    bound_surrogate: float            # K: transient bulge above the fitted rates
    angle_min: float                  # smallest angle between E^u and E^s over
                                      # the middle half of the orbit
    hyperbolic: bool
    details: dict = field(default_factory=dict)


def qr_sweep(jacs: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """The R_j of Q_{j+1} R_j = J_j Q_j along an orbit, from Q_0 = q0.

    jacs (L, d, d) holds the J_j and q0 (d, k) orthonormal columns.  Returns
    the stacked R_j (L, k, k), upper triangular with diag R_j > 0, so
    log diag R_j are the per-step growths of the nested subspaces spanned by
    the leading columns of Q_j; Q_j lives only inside the loop.  Raises
    NumericError at the first orbit index whose R_j has a diagonal entry
    that is 0 or not finite: a singular or non-finite Jacobian.
    """
    q = q0
    rs = np.empty((len(jacs), q0.shape[1], q0.shape[1]))
    for j, jac in enumerate(jacs):
        q, r = np.linalg.qr(jac @ q)
        signs = np.where(np.diag(r) < 0, -1.0, 1.0)
        q = q * signs
        rs[j] = r * signs[:, None]
    bad = np.flatnonzero(~np.all(np.diagonal(rs, axis1=1, axis2=2) > 0, axis=1))
    if bad.size:
        raise NumericError(
            f"Jacobian singular or not finite at orbit index {bad[0]}",
            step=int(bad[0]))
    return rs


def _bundle_angles(rs: np.ndarray, n_up: int, n_down: int, lo: int,
                   hi: int) -> np.ndarray:
    """Smallest principal angle between E^u and E^s at orbit points lo..hi.

    rs are the R_j of a qr_sweep that meets the expanding directions first.
    In the frame Q_j, E^u is spanned by the first n_up coordinate axes and
    E^s by the last n_down columns of the upper triangular covariant
    coefficients C_j of the back-pass C_j = R_j^{-1} C_{j+1}, C_L = I, with
    columns normalised (Ginelli et al., PRL 99, 130601, 2007).  R_j^{-1}
    acts on each column alone, so only those n_down columns are carried.
    """
    n, d = rs.shape[0], rs.shape[-1]
    c = np.eye(d)[:, d - n_down:]
    stable = np.empty((hi - lo + 1, d, n_down))
    for j in range(n, lo - 1, -1):
        if j < n:
            c = np.linalg.solve(rs[j], c)
            c /= np.linalg.norm(c, axis=0)
        if j <= hi:
            stable[j - lo] = c
    basis = np.linalg.qr(stable)[0]
    cosines = np.linalg.svd(basis[:, :n_up], compute_uv=False)
    return np.arccos(np.clip(cosines[:, 0], -1.0, 1.0))


def hyperbolicity_estimate(orbit: np.ndarray, system: MapSystem) -> DichotomyReport:
    """Finite-time rates and the angle between the bundles E^u and E^s.

    One qr_sweep from the coordinate axes gives the rates (log diag R_j
    averaged over the window) and the tail rates (over its second half).
    n_up and n_down count the rates above RATE_TOL and below -RATE_TOL; the
    other n_neutral are neutral.  E^u and E^s come from the covariant
    back-pass over the sweep's R_j (_bundle_angles), and angle_min is the
    minimum angle over the middle half L//4 <= j <= L - L//4 of the orbit
    (L Jacobians), where the forward and backward alignment transients have
    decayed.  When the coordinate start leaves the rates out of order (an
    invariant coordinate flag, as for [[0.5, a], [0, 2]]), the angle takes a
    second sweep started from the axes in rate order.  hyperbolic needs
    L >= 4, n_up > 0, n_down > 0, n_neutral == 0 and angle_min > RATE_TOL:
    below 4 points the window reaches j = 0 or j = L, where E^u and E^s are
    still the sweep's start frames.  The K surrogate is the exponential of
    the largest deviation of the cumulative growth from its fitted linear
    rate.  These are window statistics, not certificates.
    """
    if system.jacobian is None:
        raise PreconditionError("hyperbolicity_estimate needs a jacobian")
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    jacs = np.asarray(system.jacobian(orbit), dtype=float)
    n, d = len(jacs), jacs.shape[-1]
    rs = qr_sweep(jacs, np.eye(d))
    logs = np.log(np.diagonal(rs, axis1=1, axis2=2))
    rates = logs.sum(axis=0) / n
    order = np.argsort(rates)[::-1]
    rates_sorted = rates[order]
    half = n // 2
    tail = logs[half:].sum(axis=0) / max(n - half, 1)
    tail_sorted = np.sort(tail)[::-1]

    n_up = int(np.sum(rates_sorted > RATE_TOL))
    n_down = int(np.sum(rates_sorted < -RATE_TOL))
    n_neutral = d - n_up - n_down
    lo, hi = n // 4, n - n // 4
    angles = np.full(hi - lo + 1, np.pi / 2.0)
    if n_up > 0 and n_down > 0:
        if np.any(np.diff(rates) > 0):
            rs = qr_sweep(jacs, np.eye(d)[:, order])
        angles = _bundle_angles(rs, n_up, n_down, lo, hi)
    angle = float(angles.min())

    cum = np.cumsum(logs[:, 0])
    steps = np.arange(1, n + 1)
    bulge = float(np.exp(np.max(np.abs(cum - steps * rates[0]))))
    # lo > 0 exactly when L >= 4, the first window that excludes both ends
    hyperbolic = (lo > 0 and n_up > 0 and n_down > 0 and n_neutral == 0
                  and angle > RATE_TOL)
    return DichotomyReport(rates=rates_sorted,
                           tail_rates=tail_sorted,
                           expansion_rate=float(tail_sorted[0]),
                           contraction_rate=float(tail_sorted[-1]),
                           bound_surrogate=bulge,
                           angle_min=angle,
                           hyperbolic=hyperbolic,
                           details={"n_unstable": n_up, "n_stable": n_down,
                                    "n_neutral": n_neutral,
                                    "window": (lo, hi), "angles": angles})
