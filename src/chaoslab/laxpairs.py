"""Lax pair operators on periodic grids and their consistency batteries.

2D: L phi = {Omega, phi} and A phi = {Psi, phi}, with Psi the stream
function, are both fourier.grid_bracket; the compatibility of the pair with
the vorticity evolution reduces to the Jacobi identity of the bracket plus
the transport of the evolution residual.
The Rossby variant subtracts beta * d phi/dx from L.  3D: the scalar pair
L phi = (Omega . grad) phi, A phi = (u . grad) phi, and the vector pair with
the extra (phi . grad) terms.  On the coefficient box, {Omega, phi} is minus
the bilinear form B(Omega, phi) of the Galerkin field, so its matrix reads
the convolution's pair tables.  Every grid derivative, 2D and 3D, comes
from fourier.spectral_gradient.  All spectra and residuals are reported on
sharp truncations; isospectrality defects of non-steady flows are reported,
not asserted, since truncation does not commute with the evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from ._kernels_py import _pair_tables
from .errors import NumericError, PreconditionError
from .fourier import (MAX_BOX, check_grids, check_resolution,
                      coefficients_to_grid, embedded, grid_bracket,
                      grid_coordinates, integrate_galerkin, invert_laplacian,
                      spectral_gradient)
from .util import check_schedule, hausdorff_distance, sup_norm

# the 3D pairs' sup-norm bounds on curl(u) - Omega and on div u
CURL_TOL = 1e-8
DIV_TOL = 1e-10
# the most RK4 steps T / dt that isospectrality_check takes
ISOSPEC_MAX_STEPS = 10**5


@dataclass
class LaxReport:
    residuals: dict[str, float] = field(default_factory=dict)
    spectra: dict[str, list] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # non-finite residuals (e.g. an empty mask overlap) become null so
        # the report stays strict JSON
        out: dict = {"residuals": {
            k: (float(v) if np.isfinite(v) else None)
            for k, v in self.residuals.items()}}
        if self.spectra:
            out["spectra"] = {k: [[z.real, z.imag] for z in v]
                              for k, v in self.spectra.items()}
        return out


def rossby_L(omega: np.ndarray, beta_param: float, phi: np.ndarray) -> np.ndarray:
    """L phi = {Omega, phi} - beta * d(phi)/dx; NumericError on overflow."""
    if not np.isfinite(beta_param):
        raise PreconditionError(f"beta must be finite, got {beta_param}")
    bracket = grid_bracket(omega, phi)  # checks both grids
    dx = spectral_gradient(phi)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        out = bracket - beta_param * dx
    if not np.all(np.isfinite(out)):
        raise NumericError(f"rossby_L overflows at beta = {beta_param}")
    return out


def jacobi_defect(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """Sup norm of {f,{g,h}} + {g,{h,f}} + {h,{f,g}}."""
    check_grids(f, g, h)
    total = (grid_bracket(f, grid_bracket(g, h))
             + grid_bracket(g, grid_bracket(h, f))
             + grid_bracket(h, grid_bracket(f, g)))
    return sup_norm(total)


def check_compat2d(box: int, resolution: int) -> None:
    """Reject a box that compatibility_residual_2d cannot double within
    fourier.MAX_BOX, or a grid too coarse for the doubled box, which needs
    resolution >= 4 * box + 2."""
    if 2 * box > MAX_BOX:
        raise PreconditionError(
            f"box {box} doubles to {2 * box} for the time derivative, above "
            f"fourier.MAX_BOX = {MAX_BOX}")
    if resolution < 4 * box + 2:
        raise PreconditionError(
            f"resolution {resolution} below 4*box + 2 = {4 * box + 2} for box "
            f"{box}: the time derivative is sampled on the doubled box")


def compatibility_residual_2d(omega: np.ndarray,
                              phi_samples: list[np.ndarray],
                              resolution: int = 64,
                              time_derivative=None) -> LaxReport:
    """Jacobi and transport residuals of the 2D pair.

    ``time_derivative`` maps the coefficient field to its time derivative and
    defaults to the truncated quadratic vector field; the Galerkin box is
    doubled before differentiation so the bracket closure is untruncated and
    the transport residual {dOmega/dt + {Psi, Omega}, phi} vanishes exactly
    for the true evolution.  A non-Euler rule makes it visibly nonzero.  The
    doubled box must pass check_compat2d.
    """
    box = omega.shape[0] // 2
    check_compat2d(box, resolution)
    check_grids(*phi_samples)
    if time_derivative is None:
        time_derivative = lambda w: kernels.galerkin_rhs(embedded(w, 2 * box), 2 * box)
    omega_grid = coefficients_to_grid(omega, resolution)
    psi_grid = invert_laplacian(omega_grid)
    dometa = time_derivative(omega)
    dom_grid = coefficients_to_grid(dometa, resolution)
    transport_src = dom_grid + grid_bracket(psi_grid, omega_grid)

    report = LaxReport()
    for i, phi in enumerate(phi_samples):
        report.residuals[f"jacobi_{i}"] = jacobi_defect(omega_grid, psi_grid, phi)
        report.residuals[f"transport_{i}"] = sup_norm(grid_bracket(transport_src, phi))
    report.residuals["jacobi_max"] = max(
        report.residuals[f"jacobi_{i}"] for i in range(len(phi_samples)))
    report.residuals["transport_max"] = max(
        report.residuals[f"transport_{i}"] for i in range(len(phi_samples)))
    return report


def bracket_operator_matrix(omega: np.ndarray) -> np.ndarray:
    """Matrix of phi -> {Omega, phi} on the truncated exponential basis.

    Basis vectors are the nonzero modes of Omega's box in row-major order;
    the entry coupling basis mode q into row k is -det(k, q) * omega_{k-q},
    which is minus the pair-table form B(Omega, phi) that galerkin_rhs
    evaluates, read from the same tables.
    """
    det, gather = _pair_tables(omega.shape[0] // 2)
    w = omega.ravel()[gather]
    # -det(k, q) * w as the integer -det times the complex amplitude, and an
    # exact +0 wherever omega_{k-q} is zero (the origin slot included), so
    # the entries keep the bits of a mode-by-mode assembly, signed zeros too
    mat = np.where(w != 0, (0.0 - det) * w, 0.0)
    keep = np.arange(det.shape[0]) != det.shape[0] // 2  # drop the origin
    return mat[np.ix_(keep, keep)]


def isospectrality_check(omega0: np.ndarray, T: float,
                         dt: float) -> LaxReport:
    """Hausdorff drift of the truncated bracket-operator spectrum.

    Evolves the vorticity by the truncated quadratic field over [0, T] and
    compares eig({Omega(0), .}) against eig({Omega(T), .}) on the basis of
    Omega's box.  Steady states must give distances at roundoff; for
    general data the distance is a truncation measurement, reported rather
    than asserted.
    """
    if omega0.shape[0] // 2 > 6:
        raise PreconditionError("operator box above 6 (matrix growth)")
    if not (np.isfinite(T) and T > 0):
        raise PreconditionError(f"T must be a finite number > 0, got {T}")
    check_schedule(dt, 1, 1)  # before T / dt; the step count follows from T
    if T < dt:
        raise PreconditionError(f"T = {T} is shorter than one step dt = {dt}")
    if T / dt > ISOSPEC_MAX_STEPS:  # an overflowing inf too
        raise PreconditionError(
            f"T / dt = {T} / {dt} is above {ISOSPEC_MAX_STEPS} steps")
    steps = round(T / dt)
    omega_T = integrate_galerkin(omega0, dt, steps)
    e0 = np.linalg.eigvals(bracket_operator_matrix(omega0))
    e1 = np.linalg.eigvals(bracket_operator_matrix(omega_T))
    report = LaxReport()
    report.residuals["hausdorff"] = hausdorff_distance(e0, e1)
    report.spectra["initial"] = list(e0)
    report.spectra["final"] = list(e1)
    return report


# -- 3D fields and pairs -------------------------------------------------------


class VectorField3D:
    """Three read-only periodic scalar components on an n^3 grid, period
    2*pi; n passes fourier.check_resolution, as a 2D grid's side does."""

    def __init__(self, components: np.ndarray):
        components = np.asarray(components, dtype=np.float64)
        if components.ndim != 4 or components.shape[0] != 3:
            raise PreconditionError("expected shape (3, n, n, n)")
        n = components.shape[1]
        if components.shape[1:] != (n, n, n):
            raise PreconditionError("grid must be cubic")
        check_resolution(n)
        self.components = components.view()
        self.components.flags.writeable = False
        self._grads = None

    @property
    def resolution(self) -> int:
        return self.components.shape[1]

    @classmethod
    def abc_flow(cls, n: int) -> "VectorField3D":
        """The ABC velocity field with A = B = C = 1, an eigenfield of curl
        (curl u = u)."""
        x, y, z = grid_coordinates(n, 3)
        return cls(np.stack([np.sin(z) + np.cos(y), np.sin(x) + np.cos(z),
                             np.sin(y) + np.cos(x)]))

    def gradients(self) -> list[tuple[np.ndarray, ...]]:
        """grads[i][j] = d(component i)/dx_j, one forward FFT per component
        on the first call only, so every user shares one transform."""
        if self._grads is None:
            self._grads = [spectral_gradient(c) for c in self.components]
        return self._grads

    def divergence(self) -> np.ndarray:
        return _divergence(self.gradients())

    def curl(self) -> "VectorField3D":
        return VectorField3D(_curl(self.gradients()))

    def divergence_defect(self) -> float:
        return sup_norm(self.divergence())


def _divergence(grads) -> np.ndarray:
    return sum(grads[i][i] for i in range(3))


def _curl(grads) -> np.ndarray:
    return np.stack([grads[2][1] - grads[1][2],
                     grads[0][2] - grads[2][0],
                     grads[1][0] - grads[0][1]])


def directional_derivative(w: VectorField3D, grad) -> np.ndarray:
    """(w . grad) phi for scalar phi, from grad = spectral_gradient(phi)."""
    return sum(w.components[i] * grad[i] for i in range(3))


def _check_pair(omega: VectorField3D, u: VectorField3D) -> list:
    """Check the preconditions of the 3D pairs; return u.gradients(), which
    the check takes."""
    if omega.resolution != u.resolution:
        raise PreconditionError("resolution mismatch between vorticity and velocity")
    grads = u.gradients()
    div = sup_norm(_divergence(grads))
    if div > DIV_TOL:
        raise PreconditionError(f"velocity divergence defect {div:.2e} above {DIV_TOL}")
    defect = sup_norm(_curl(grads) - omega.components)
    if defect > CURL_TOL:
        raise PreconditionError(f"curl(u) mismatch {defect:.2e} above {CURL_TOL}")
    return grads


def lax_3d_scalar(omega: VectorField3D, u: VectorField3D, phi: np.ndarray):
    """Scalar pair (L phi, A phi) = ((Omega.grad) phi, (u.grad) phi); u must
    be divergence-free to DIV_TOL with curl(u) = Omega to CURL_TOL."""
    _check_pair(omega, u)
    grad = spectral_gradient(phi)
    return directional_derivative(omega, grad), directional_derivative(u, grad)


def lax_3d_vector(omega: VectorField3D, u: VectorField3D, phi: VectorField3D):
    """Vector pair L phi = (Omega.grad) phi - (phi.grad) Omega and the same
    combination with u for A, under the preconditions of lax_3d_scalar."""
    u_grads = _check_pair(omega, u)
    phi_grads = phi.gradients()

    def lie(w: VectorField3D, w_grads) -> VectorField3D:
        return VectorField3D(np.stack([
            directional_derivative(w, phi_grads[i])
            - directional_derivative(phi, w_grads[i]) for i in range(3)]))

    return lie(omega, omega.gradients()), lie(u, u_grads)
