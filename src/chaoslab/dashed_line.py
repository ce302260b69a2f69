"""The dashed-line model and its closed-form connecting orbits.

The model lives on the lattice line through khat = (-3,-2) with direction
p = (1,1); mode n carries the real cosine amplitude at khat + n*p and omega_p
the amplitude at p.  Couplings with chain index divisible by 5 are scaled by
the homotopy parameter epsilon ("dashing"), which at epsilon = 0 isolates the
block n = 1..4 whose connecting orbits are known in closed form:

    omega_p = G tanh(tau),    tau = kappa G t + tau0,
    r  = sqrt(A2/(A2-A1)) G sech(tau),  theta = -(A2/(2 kappa)) ln cosh(tau) + theta0,
    rho = sqrt(-A1/A2) r,     theta + vartheta fixed by the kappa branch,

with omega_1 = r cos(theta), omega_4 = r sin(theta), omega_2 = rho cos(vartheta),
omega_3 = rho sin(vartheta), plus driven auxiliaries omega_0 and omega_5.
The coupling constants A1 = A(p, khat+p) and A2 = A(p, khat+2p) are always
recomputed from coef_A, never hard-coded.

A state is the stacked vector x = (omega_p, omega_{-trunc}..omega_{trunc}),
in every function here, in the RK4 kernels, in integrate's Trajectory and
in the rows of the dashed-line trajectory.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels_py, kernels
from .errors import NumericError, PreconditionError
from .fourier import coef_A
from .util import Trajectory

BASE_POINT = (-3, -2)
DIRECTION = (1, 1)
DASH_PERIOD = 5
# Truncation of orbit_residual's states; the residual's BLAS dot sums over
# the truncation length, so another value changes its last bits.
RESIDUAL_TRUNC = 10
# DashedLineParams: the largest truncation.  dashed_rk4 builds a dense
# (2T+2) x (4T+1) coupling matrix: a whole dashed-line --steps 1 run
# took 0.34-0.40 s and 89-90 MB of peak RSS at trunc 1000, 0.50-0.68 s and
# 272 MB at 2000, and 1.2 s and 1.0 GB at 4000 (2 vCPUs, numpy kernels).
MAX_TRUNC = 1000


def line_mode(n: int) -> tuple[int, int]:
    return (BASE_POINT[0] + n * DIRECTION[0], BASE_POINT[1] + n * DIRECTION[1])


def coupling(n: int) -> float:
    """A_n = A(p, khat + n*p)."""
    return coef_A(DIRECTION, line_mode(n))


def pair_coupling(m: int, n: int) -> float:
    """A_{m,n} = A(khat + m*p, khat + n*p)."""
    return coef_A(line_mode(m), line_mode(n))


def dash_factor(n: int, epsilon: float) -> float:
    return epsilon if n % DASH_PERIOD == 0 else 1.0


@dataclass
class DashedLineParams:
    """Model parameters plus the derived coupling tables.

    sub[i] and sup[i] multiply omega_p*omega[i-1] and omega_p*omega[i+1] in
    the equation for omega at chain index n = i - trunc; pair[i-1] enters the
    omega_p equation through the product omega[i-1]*omega[i].
    """

    gamma: float
    epsilon: float
    trunc: int
    sub: np.ndarray = field(init=False, repr=False)
    sup: np.ndarray = field(init=False, repr=False)
    pair: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.trunc <= MAX_TRUNC:
            raise PreconditionError(
                f"trunc must be in [1, {MAX_TRUNC}] (dashed_line.MAX_TRUNC)")
        if self.epsilon < 0:
            raise PreconditionError("epsilon must be >= 0")
        nt = self.trunc
        ns = np.arange(-nt, nt + 1)
        self.sub = np.array(
            [dash_factor(n - 1, self.epsilon) * coupling(n - 1) for n in ns])
        self.sup = np.array(
            [dash_factor(n + 1, self.epsilon) * coupling(n + 1) for n in ns])
        self.pair = np.array(
            [dash_factor(n, self.epsilon) * dash_factor(n - 1, self.epsilon)
             * pair_coupling(n - 1, n) for n in ns[1:]])

    @property
    def size(self) -> int:
        return 2 * self.trunc + 1

    def index(self, n: int) -> int:
        if abs(n) > self.trunc:
            raise PreconditionError(f"chain index {n} outside truncation")
        return n + self.trunc


def _stacked(x, params: DashedLineParams) -> np.ndarray:
    """x as float64 states whose last axis holds params.size + 1 items."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (params.size + 1,):
        raise PreconditionError("state size does not match params truncation")
    return x


def model_rhs(x, params: DashedLineParams) -> np.ndarray:
    """Vector field of the model, Dirichlet beyond the truncation, at stacked
    states x = (omega_p, omega_{-Nt}..omega_{Nt}): one (L+1,) or a batch
    (B, L+1)."""
    c = _kernels_py.dashed_coupling_matrix(params.sub, params.sup, params.pair)
    return _kernels_py.dashed_field(_stacked(x, params), c)


def model_jacobian(x, params: DashedLineParams) -> np.ndarray:
    """Analytic Jacobian at stacked states x, ordered as x.  One state (L+1,)
    gives one matrix; a batch (B, L+1) gives a stack (B, L+1, L+1)."""
    x = _stacked(x, params)
    op, om = x[..., 0], x[..., 1:]
    L = params.size
    batch = om.shape[:-1]
    jac = np.zeros(batch + (L + 1, L + 1))
    sub, sup, pair = params.sub, params.sup, params.pair
    # d(dot omega_n)/d omega_p, with zero Dirichlet neighbours at both ends
    zero = np.zeros(batch + (1,))
    lower = np.concatenate((zero, om[..., :-1]), axis=-1)
    upper = np.concatenate((om[..., 1:], zero), axis=-1)
    jac[..., 1:, 0] = sub * lower - sup * upper
    # d(dot omega_n)/d omega_{n-1} at (1+i, i) for i >= 1 and d/d omega_{n+1}
    # at (1+i, 2+i) for i < L-1: L-1 entries each, a stride of L+2 apart in
    # the flat matrix
    flat = jac.reshape(batch + (-1,))
    op = np.expand_dims(op, -1)
    flat[..., 2 * L + 3::L + 2] = sub[1:] * op
    flat[..., L + 3::L + 2] = -sup[:-1] * op
    # d(dot omega_p)/d omega_m = -(pair[m-1]*om[m-1] + pair[m]*om[m+1]),
    # summed onto zeros in that order as the signed zeros at om = 0 require
    acc = np.zeros(batch + (L,))
    acc[..., 1:] += pair * om[..., :-1]
    acc[..., :-1] += pair * om[..., 1:]
    jac[..., 0, 1:] = -acc
    return jac


def integrate(x0, params: DashedLineParams, dt: float, steps: int,
              sample_every: int = 1) -> Trajectory:
    """Fixed-step RK4 from the stacked state x0, sampled as stacked states;
    raises NumericError with the step index on blow-up."""
    x0 = _stacked(x0, params)
    if x0.ndim != 1 or not np.all(np.isfinite(x0)):
        raise PreconditionError("x0 must be one finite state")
    states = kernels.dashed_rk4(x0[0], x0[1:], params.sub, params.sup,
                                params.pair, dt, steps, sample_every)
    return Trajectory.sampled(states, dt, sample_every)


# -- closed-form connecting orbits -------------------------------------------


@dataclass(frozen=True)
class HeteroclinicParams:
    tau0: float
    theta0: float
    kappa_sign: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau0) and math.isfinite(self.theta0)):
            raise PreconditionError("tau0 and theta0 must be finite")
        if self.kappa_sign not in (-1, 1):
            raise PreconditionError("kappa_sign must be +1 or -1")


def block_couplings() -> tuple[float, float]:
    """(A1, A2) recomputed from the interaction coefficient."""
    return coupling(1), coupling(2)


def kappa_value(sign: int) -> float:
    a1, a2 = block_couplings()
    prod = -a1 * a2
    disc = 1.0 + a2 / (4.0 * a1)
    if prod <= 0 or disc < 0:
        raise PreconditionError("kappa is not real for these couplings")
    return sign * math.sqrt(prod) * math.sqrt(disc)


def phase_sum_constant(sign: int) -> float:
    """The constant value of theta + vartheta on the chosen branch."""
    a1, a2 = block_couplings()
    x = 0.5 * math.sqrt(a2 / (-a1))
    return -math.asin(x) if sign > 0 else math.pi + math.asin(x)


def heteroclinic_states(ts, het: HeteroclinicParams, gamma: float,
                        trunc: int = 10) -> np.ndarray:
    """Closed-form connecting orbit at the times ts, as stacked vectors
    (omega_p, omega_{-trunc}..omega_{trunc}) of shape ts.shape + (2*trunc+2,).

    Modes 0..5 follow the explicit formulas (the block plus the two driven
    auxiliaries); every other chain amplitude is zero, which is exact for
    the epsilon = 0 dashing.  Raises NumericError where cosh(tau)
    overflows, which a large |gamma * t| brings about.
    """
    if trunc < 5:
        raise PreconditionError("trunc must be >= 5 to hold the block")
    if not math.isfinite(gamma):
        raise PreconditionError("gamma must be finite")
    a1, a2 = block_couplings()
    kap = kappa_value(het.kappa_sign)
    beta = -a2 / (2.0 * kap)
    alpha = -a1 * gamma / kap * math.sqrt(a2 / (a2 - a1))
    t = np.asarray(ts, dtype=float)
    x = np.zeros(t.shape + (2 * trunc + 2,))
    with np.errstate(over="ignore", invalid="ignore"):
        tau = kap * gamma * t + het.tau0
        cosh = np.cosh(tau)
        sech = 1.0 / cosh
        theta = beta * np.log(cosh) + het.theta0
        r = math.sqrt(a2 / (a2 - a1)) * gamma * sech
        rho = math.sqrt(-a1 / a2) * r
        vartheta = phase_sum_constant(het.kappa_sign) - theta
        aux = alpha * beta / (1.0 + beta * beta) * sech
        cos, sin = np.cos(theta), np.sin(theta)
        x[..., 0] = gamma * np.tanh(tau)
        n0 = trunc + 1  # index of chain position n = 0
        x[..., n0 + 0] = aux * (sin - cos / beta)
        x[..., n0 + 1] = r * cos
        x[..., n0 + 2] = rho * np.cos(vartheta)
        x[..., n0 + 3] = rho * np.sin(vartheta)
        x[..., n0 + 4] = r * sin
        x[..., n0 + 5] = aux * (cos + sin / beta)
    if not np.all(np.isfinite(x)):
        raise NumericError(f"closed-form orbit overflows: cosh(tau) is out of "
                           f"range at gamma = {gamma!r}")
    return x


_STENCILS = {
    3: ([-1, 1], [-0.5, 0.5]),
    5: ([-2, -1, 1, 2], [1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12]),
    7: ([-3, -2, -1, 1, 2, 3],
        [-1.0 / 60, 9.0 / 60, -45.0 / 60, 45.0 / 60, -9.0 / 60, 1.0 / 60]),
}


def orbit_residual(het: HeteroclinicParams, gamma: float,
                   t_samples: np.ndarray, fd_step: float = 1e-4,
                   stencil: int = 5) -> float:
    """Sup defect between the model field and the analytic orbit derivative.

    The time derivative of the closed-form orbit is taken by a central finite
    difference (default 5-point) and compared against the model field
    evaluated on the orbit with epsilon = 0, at all samples at once, on
    states truncated at RESIDUAL_TRUNC.
    """
    if stencil not in _STENCILS:
        raise PreconditionError(f"stencil must be one of {sorted(_STENCILS)}")
    offsets, weights = _STENCILS[stencil]
    params = DashedLineParams(gamma=gamma, epsilon=0.0, trunc=RESIDUAL_TRUNC)
    t = np.ravel(np.asarray(t_samples, dtype=float))
    rhs = model_rhs(heteroclinic_states(t, het, gamma, RESIDUAL_TRUNC), params)
    shifted = heteroclinic_states(
        t + np.multiply(offsets, fd_step)[:, None], het, gamma, RESIDUAL_TRUNC)
    fd = 0.0
    for wgt, x in zip(weights, shifted):
        fd += wgt * x
    fd /= fd_step
    return float(np.max(np.abs(rhs - fd), initial=0.0))


def flow_map(params: DashedLineParams, dt: float, steps: int):
    """Time-(dt*steps) flow map with the exact variational RK4 Jacobian.

    A MapSystem on stacked vectors (omega_p, omega_{-Nt}..omega_{Nt}) for
    the shadowing tools; the map and the Jacobian take one vector or a
    stack (B, size + 1) and integrate it in one RK4 run.
    """
    from .shadowing import rk4_flow_system

    c = _kernels_py.dashed_coupling_matrix(params.sub, params.sup, params.pair)

    def rhs_vec(x):
        return _kernels_py.dashed_field(x, c)

    def jac_vec(x):
        return model_jacobian(x, params)

    return rk4_flow_system(rhs_vec, jac_vec, params.size + 1, dt, steps)
