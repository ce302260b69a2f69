"""Gauge and potential transforms of the 2D pair at spectral parameter zero.

Given steady data (Omega, Psi) and two eigenfunctions p, f of the bracket
kernel ({Omega, p} = {Omega, f} = 0), the gauge transform

    ptilde = (p_x - (d_x ln f) p) / Omega_x = (p_x f - f_x p) / (f Omega_x)

together with the potential shift Psi -> Psi + F, Omega -> Omega + lap(F)
(F constrained by {Omega, lap F} = 0 and {lap F, F} = 0) maps solutions to
solutions.  Points where f or Omega_x vanish are masked rather than
regularized so the residual claims stay honest; the equivalent y-form with
Omega_y is computed alongside and must agree on the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .fourier import (check_grids, check_resolution, grid_bracket,
                      grid_coordinates, laplacian, spectral_gradient)
from .laxpairs import LaxReport
from .util import sup_norm

# bound on the kernel and potential-constraint residuals
PRECONDITION_TOL = 1e-9
# darboux_gauge masks where |f| or |Omega_x| (|Omega_y|) is at most MASK_TOL
# times its sup norm, on at most a MAX_MASKED share of the grid
MASK_TOL = 1e-8
MAX_MASKED = 0.5


@dataclass
class GaugeTransform:
    values_x: np.ndarray
    mask_x: np.ndarray  # True where the x-form is valid
    values_y: np.ndarray
    mask_y: np.ndarray

    def agreement_defect(self) -> float:
        both = self.mask_x & self.mask_y
        if not both.any():
            return float("nan")
        return sup_norm(self.values_x[both] - self.values_y[both])


def darboux_gauge(p: np.ndarray, f: np.ndarray, omega: np.ndarray) -> GaugeTransform:
    """Gauge transform with validity masks on the zero sets of f and Omega_x.

    The numerator is formed as p_x*f - f_x*p so that f is p gives an exactly
    zero transform.  Raises when more than a MAX_MASKED share of the grid
    is masked in the x-form.
    """
    check_grids(p, f, omega)
    px, py = spectral_gradient(p)
    fx, fy = spectral_gradient(f)
    ox, oy = spectral_gradient(omega)

    f_ok = np.abs(f) > MASK_TOL * (sup_norm(f) or 1.0)
    mask_x = f_ok & (np.abs(ox) > MASK_TOL * (sup_norm(ox) or 1.0))
    mask_y = f_ok & (np.abs(oy) > MASK_TOL * (sup_norm(oy) or 1.0))
    if mask_x.mean() < 1.0 - MAX_MASKED:
        raise PreconditionError(
            f"gauge transform masked on more than {MAX_MASKED:.0%} of the grid")

    num_x = px * f - fx * p
    num_y = py * f - fy * p
    vx = np.full(p.shape, np.nan, dtype=num_x.dtype)
    vy = np.full(p.shape, np.nan, dtype=num_y.dtype)
    np.divide(num_x, f * ox, out=vx, where=mask_x)
    np.divide(num_y, f * oy, out=vy, where=mask_y)
    return GaugeTransform(values_x=vx, mask_x=mask_x, values_y=vy, mask_y=mask_y)


@dataclass
class PotentialTransform:
    omega_t: np.ndarray
    psi_t: np.ndarray
    lap_F: np.ndarray
    constraint_norms: dict[str, float]
    valid: bool


def darboux_potentials(omega: np.ndarray, psi: np.ndarray,
                       F: np.ndarray) -> PotentialTransform:
    """Potential shift with the two constraint residuals attached; valid
    when both are below PRECONDITION_TOL (a NaN one is not)."""
    check_grids(omega, psi, F)
    lap_F = laplacian(F)
    norms = {
        "omega_lapF_bracket": sup_norm(grid_bracket(omega, lap_F)),
        "lapF_F_bracket": sup_norm(grid_bracket(lap_F, F)),
    }
    return PotentialTransform(
        omega_t=omega + lap_F,
        psi_t=psi + F,
        lap_F=lap_F,
        constraint_norms=norms,
        valid=all(v < PRECONDITION_TOL for v in norms.values()),
    )


def verify_darboux(omega: np.ndarray, psi: np.ndarray, F: np.ndarray,
                   p: np.ndarray, f: np.ndarray) -> LaxReport:
    """End-to-end check that the transformed eigenfunction still solves the
    transformed system (steady configurations).

    Preconditions: p and f lie in the bracket kernel of Omega to
    PRECONDITION_TOL and F satisfies both constraints.  The report
    carries the kernel residual of ptilde at the shifted vorticity (off the
    gauge mask) together with the steady transport residuals {Psi, p} and
    {Psi_t, ptilde}.
    """
    check_grids(omega, psi, F, p, f)
    report = LaxReport()
    failures = []
    # huge fields overflow the brackets; the NaN or inf residual fails below
    with np.errstate(over="ignore", invalid="ignore"):
        for name, field_ in (("omega_p_bracket", p), ("omega_f_bracket", f)):
            r = sup_norm(grid_bracket(omega, field_))
            report.residuals[name] = r
            if not r <= PRECONDITION_TOL:  # a NaN residual fails too
                failures.append(name)
        pot = darboux_potentials(omega, psi, F)
    report.residuals.update(pot.constraint_norms)
    failures.extend(k for k, v in pot.constraint_norms.items()
                    if not v < PRECONDITION_TOL)
    if failures:
        raise PreconditionError(
            "darboux preconditions failed: " + ", ".join(sorted(set(failures))))

    gauge = darboux_gauge(p, f, omega)
    ptilde = np.where(gauge.mask_x, gauge.values_x, 0.0)
    kernel_res = grid_bracket(pot.omega_t, ptilde)
    # residuals are meaningful only away from the mask boundary, where the
    # masked zeros introduce artificial gradients
    interior = _erode(gauge.mask_x, 2)
    report.residuals["transformed_kernel"] = (
        sup_norm(kernel_res[interior]) if interior.any() else float("nan"))
    report.residuals["gauge_xy_agreement"] = gauge.agreement_defect()
    report.residuals["steady_transport_p"] = sup_norm(grid_bracket(psi, p))
    report.residuals["steady_transport_ptilde"] = (
        sup_norm(grid_bracket(pot.psi_t, ptilde)[interior])
        if interior.any() else float("nan"))
    return report


def _erode(mask: np.ndarray, rounds: int) -> np.ndarray:
    """Shrink a boolean mask by ``rounds`` cells of periodic 4-neighborhood."""
    out = mask.copy()
    for _ in range(rounds):
        out = (out
               & np.roll(out, 1, axis=0) & np.roll(out, -1, axis=0)
               & np.roll(out, 1, axis=1) & np.roll(out, -1, axis=1))
    return out


def shear_power_construction(c: float, n: int = 64):
    """Steady verification data built from a single oblique shear mode.

    Omega = 2 + cos(x+y), Psi = -cos(x+y)/2, p = Omega^2, f = Omega and the
    constrained shift F = c*cos(x+y).  The mean of Omega is a constant
    background that no periodic stream function can carry; it drops out of
    every bracket, so Psi absorbs only the oscillatory part.
    """
    if not np.isfinite(c):
        raise PreconditionError(f"c must be finite, got {c}")
    check_resolution(n)
    x, y = grid_coordinates(n)
    shear = np.cos(x + y)
    omega = 2.0 + shear
    return omega, -0.5 * shear, omega ** 2, omega.copy(), c * shear
