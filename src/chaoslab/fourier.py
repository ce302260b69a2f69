"""Wavevector lattice arithmetic and the truncated vorticity system.

Conventions used package-wide:

* A wavevector is a pair of integers ``(k1, k2)``; the origin is never a
  valid mode index.
* A coefficient field is a plain complex array ``w`` of shape
  ``(2*box+1, 2*box+1)`` over the square box ``|k1|,|k2| <= box``, mode k
  at ``w[box + k1, box + k2]``.  random_field and single_pair build it
  with the conjugate pairing ``w[-k] == conj(w[k])`` and exactly 0 at the
  origin; integrate_galerkin and scaling by a finite real number keep
  both.  Nothing checks them, so a caller that writes modes keeps them.
* The quadratic vector field is the ordered-pair convolution
  ``dw[k] = sum_{p+q=k} A(p,q) w[p] w[q]`` restricted to the box (sharp
  Galerkin truncation), which reproduces minus the grid bracket of the
  stream function with the vorticity for fields that fit in half the box.
  Below a crossover box, kernels.galerkin_rhs contracts the equivalent
  det(p,q) form from pair tables; from it up, it evaluates it as that
  bracket on a grid zero-padded to n >= 3*box+1 points per side, where no
  product of two box modes wraps onto the box, so the truncation is exact.
* Periodic grids sample ``[0, 2*pi)^d`` uniformly, d = 2 or 3 (the 3D Lax
  pairs), at the points of grid_coordinates; spectral_gradient
  differentiates both.  A 2D grid is a square float64 or complex numpy
  array whose side passes check_resolution (check_grids checks that), and
  products computed on it are dealiased with the 2/3 rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._kernels_py import box_norm_sq, grid_index
from .errors import PreconditionError
from .util import rk4

Vec = tuple[int, int]

# The largest coefficient box half-width.  A whole euler-sim
# --steps 1 run took 0.36-0.40 s and 49 MB of peak RSS at box 64,
# 0.70-0.73 s and 99 MB at 128, and 2.4-3.2 s and 242 MB at 256 (two runs
# each, 2 vCPUs, numpy on OpenBLAS).
MAX_BOX = 256
# check_resolution: the largest grid side.  A whole lax-check --case jacobi
# run took 0.61-0.66 s and 47 MB of peak RSS at 256, 1.8-2.1 s and 80 MB at
# 512, and 9.2-9.3 s and 206 MB at 1024 (same machine and runs).
MAX_RESOLUTION = 1024
# ClassIndex: the largest |component| of khat and p.  zeta costs O(|p|) and
# class_intersects_disk O(|khat| / |p|): a whole spectrum run took 0.62-0.97 s
# with components at 10^6 (--p=1000000,1000000, --khat=1000000,3 and
# --khat=1000000,1000000 --p=1,0) and 3.9-4.2 s at --p=10000000,1 or
# --khat=10000000,3 (one run each, same machine).
MAX_CLASS_COMPONENT = 10**6


def _check_nonzero(v: Vec, name: str) -> None:
    if v[0] == 0 and v[1] == 0:
        raise PreconditionError(f"{name} must be a nonzero lattice vector")


def norm_sq(v: Vec) -> int:
    return v[0] * v[0] + v[1] * v[1]


def det2(p: Vec, q: Vec) -> int:
    """Integer determinant p1*q2 - p2*q1."""
    return p[0] * q[1] - p[1] * q[0]


def coef_A(p: Vec, q: Vec) -> float:
    """Interaction coefficient of the quadratic mode coupling.

    A(p,q) = (1/2) * (|q|^-2 - |p|^-2) * (p1*q2 - p2*q1).  The determinant
    is evaluated in integer arithmetic before the floating-point bracket.
    """
    _check_nonzero(p, "p")
    _check_nonzero(q, "q")
    d = det2(p, q)
    if d == 0:
        return 0.0
    return 0.5 * (1.0 / norm_sq(q) - 1.0 / norm_sq(p)) * d


def zeta(p: Vec) -> int:
    """Number of nonzero lattice points strictly inside the disk of radius
    |p| that are not parallel to p.

    Counted by rows in O(|p|): row q1 holds 2*isqrt(|p|^2 - 1 - q1^2) + 1
    points of the disk; the origin and the 2*(gcd(p) - 1) nonzero multiples
    of p / gcd(p) inside it are then taken off.
    """
    _check_nonzero(p, "p")
    n2 = norm_sq(p)
    r = math.isqrt(n2 - 1)
    inside = sum(2 * math.isqrt(n2 - 1 - q1 * q1) + 1 for q1 in range(-r, r + 1))
    return inside - 1 - 2 * (math.gcd(p[0], p[1]) - 1)


@dataclass(frozen=True)
class ClassIndex:
    """A lattice line khat + n*p along which the linearized system decouples."""

    khat: Vec
    p: Vec

    def __post_init__(self) -> None:
        _check_nonzero(self.p, "p")
        _check_nonzero(self.khat, "khat")
        if max(abs(c) for c in (*self.khat, *self.p)) > MAX_CLASS_COMPONENT:
            raise PreconditionError(
                f"khat and p components must be at most {MAX_CLASS_COMPONENT} "
                "in size (fourier.MAX_CLASS_COMPONENT)")

    def member(self, n: int) -> Vec:
        return (self.khat[0] + n * self.p[0], self.khat[1] + n * self.p[1])

    def is_degenerate(self) -> bool:
        """True when khat is parallel to p, which zeroes every coupling."""
        return det2(self.p, self.khat) == 0


def class_intersects_disk(cls: ClassIndex) -> bool:
    """Whether the class meets the closed disk of radius |p|.

    |khat + n*p|^2 <= |p|^2 is quadratic in n, so only a bounded range of n
    needs scanning.
    """
    p2 = norm_sq(cls.p)
    bound = int(np.ceil(np.sqrt(norm_sq(cls.khat) / p2))) + 2
    for n in range(-bound, bound + 1):
        k = cls.member(n)
        if k != (0, 0) and norm_sq(k) <= p2:
            return True
    return False


def _zeros(box: int) -> np.ndarray:
    """The zero coefficient field of the box, which must be in [1, MAX_BOX]."""
    if not 1 <= box <= MAX_BOX:
        raise PreconditionError(f"box half-width must be in [1, {MAX_BOX}]")
    return np.zeros((2 * box + 1, 2 * box + 1), dtype=np.complex128)


def _positive_modes(box: int):
    """The modes k > -k of the box in lexicographic order, one per +-k pair."""
    for k1 in range(box + 1):
        for k2 in range(-box if k1 else 1, box + 1):
            yield k1, k2


def random_field(box: int, rng: np.random.Generator,
                 decay: float = 0.0) -> np.ndarray:
    """Random field with the reality pairing, optional exp(-decay |k|^2)
    decay: one standard normal real and imaginary part per positive mode,
    drawn in lexicographic order."""
    if not (np.isfinite(decay) and decay >= 0):
        raise PreconditionError(f"decay must be a finite number >= 0, got {decay}")
    w = _zeros(box)
    for k in _positive_modes(box):
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        if decay > 0.0:
            amp *= np.exp(-decay * norm_sq(k))
        w[box + k[0], box + k[1]] = amp
        w[box - k[0], box - k[1]] = np.conj(amp)
    return w


def single_pair(box: int, p: Vec, gamma: complex) -> np.ndarray:
    """The one-mode steady state w_p = gamma, w_{-p} = conj(gamma)."""
    w = _zeros(box)
    if p == (0, 0) or max(abs(p[0]), abs(p[1])) > box:
        raise PreconditionError(f"p = {p} must be a nonzero mode of box {box}")
    w[box + p[0], box + p[1]] = gamma
    w[box - p[0], box - p[1]] = np.conj(gamma)
    return w


def embedded(w: np.ndarray, box: int) -> np.ndarray:
    """The field w stored in the box of half-width box, at least its own."""
    inner = w.shape[0] // 2
    if box < inner:
        raise PreconditionError("cannot embed into a smaller box")
    out = _zeros(box)
    out[box - inner:box + inner + 1, box - inner:box + inner + 1] = w
    return out


def energy(w: np.ndarray) -> float:
    """Sum of |w_k|^2 / |k|^2 over every stored nonzero mode.

    Both members of a +-k pair are counted (doubling convention).
    """
    return float(np.sum(np.abs(w) ** 2 / box_norm_sq(w.shape[0] // 2)))


def enstrophy(w: np.ndarray) -> float:
    """Sum of |w_k|^2 over every stored nonzero mode."""
    return float(np.sum(np.abs(w) ** 2))


def field_json(w: np.ndarray) -> dict:
    """Half-lattice JSON form: the box and each nonzero mode k > -k once,
    sorted by k; the conjugates at -k follow from the pairing."""
    box = w.shape[0] // 2
    modes = []
    for k in _positive_modes(box):
        v = complex(w[box + k[0], box + k[1]])
        if v != 0:
            modes.append({"k": list(k), "re": v.real, "im": v.imag})
    return {"box": box, "modes": modes}


def integrate_galerkin(w: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 of kernels.galerkin_rhs on the coefficient box;
    returns the final field.

    Raises NumericError with the step index, counted from this call, on
    blow-up.
    """
    box = w.shape[0] // 2
    return rk4(lambda x: kernels.galerkin_rhs(x, box), w, dt, steps,
               max(steps, 1))[-1]


# -- periodic grids ----------------------------------------------------------


def check_resolution(n: int) -> None:
    """Reject a grid resolution that is not a power of two in [16,
    MAX_RESOLUTION]."""
    if not 16 <= n <= MAX_RESOLUTION or (n & (n - 1)) != 0:
        raise PreconditionError(
            f"grid resolution must be a power of two >= 16 and <= {MAX_RESOLUTION}")


def check_grids(*grids: np.ndarray) -> None:
    """Reject 2D grids that are not square, whose side fails
    check_resolution, or whose shapes differ."""
    for g in grids:
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise PreconditionError("grid values must be a square 2D array")
        check_resolution(g.shape[0])
    if len({g.shape for g in grids}) > 1:
        raise PreconditionError("grid resolution mismatch")


def grid_coordinates(n: int, ndim: int = 2) -> tuple[np.ndarray, ...]:
    """The coordinate arrays of the uniform n^ndim grid on [0, 2*pi)^ndim."""
    x = 2.0 * np.pi * np.arange(n) / n
    return np.meshgrid(*[x] * ndim, indexing="ij")


def _wavenumbers(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)


def _k_squared(n: int) -> np.ndarray:
    k = _wavenumbers(n)
    return k[:, None] ** 2 + k[None, :] ** 2


def _inverse(spectrum: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inverse FFT of spectrum, real when the grid values it came from are."""
    out = np.fft.ifftn(spectrum)
    return out if np.iscomplexobj(values) else out.real


def spectral_gradient(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Spectral derivatives of periodic grid values along each axis, 2D or
    3D: one forward FFT, one inverse per axis; real for real values."""
    fhat = np.fft.fftn(values)
    ks = np.ix_(*[_wavenumbers(values.shape[0])] * values.ndim)
    return tuple(_inverse(1j * k * fhat, values) for k in ks)


def dealias_two_thirds(values: np.ndarray) -> np.ndarray:
    """Zero every mode with |k1| or |k2| above resolution/3."""
    n = values.shape[0]
    k = np.abs(_wavenumbers(n))
    keep = (k[:, None] <= n / 3.0) & (k[None, :] <= n / 3.0)
    return _inverse(np.fft.fft2(values) * keep, values)


def grid_bracket(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """{f, g} = f_x g_y - f_y g_x with spectral derivatives, dealiased."""
    check_grids(f, g)
    fx, fy = spectral_gradient(f)
    gx, gy = spectral_gradient(g)
    return dealias_two_thirds(fx * gy - fy * gx)


def laplacian(f: np.ndarray) -> np.ndarray:
    check_grids(f)
    return _inverse(-_k_squared(f.shape[0]) * np.fft.fft2(f), f)


def invert_laplacian(f: np.ndarray) -> np.ndarray:
    """Solve lap(psi) = f on the grid for zero-mean f.

    A mean above 1e-10 of the field scale is rejected.
    """
    check_grids(f)
    n = f.shape[0]
    fhat = np.fft.fft2(f)
    scale = np.max(np.abs(f)) or 1.0
    if abs(fhat[0, 0]) / (n * n) > 1e-10 * scale:
        raise PreconditionError("invert_laplacian requires a zero-mean field")
    k2 = _k_squared(n)
    k2[0, 0] = 1.0
    psi = fhat / (-k2)
    psi[0, 0] = 0.0
    return _inverse(psi, f)


def coefficients_to_grid(w: np.ndarray, n: int) -> np.ndarray:
    """Sample sum_k w_k exp(i k.X) on an n x n grid (real by the pairing)."""
    check_resolution(n)
    box = w.shape[0] // 2
    if n < 2 * box + 2:
        raise PreconditionError(f"grid too coarse for the coefficient box: n = {n} "
                                f"below 2*box + 2 = {2 * box + 2}")
    fhat = np.zeros((n, n), dtype=np.complex128)
    fhat.ravel()[grid_index(box, n)] = w.ravel() * (n * n)
    return np.fft.ifft2(fhat).real
