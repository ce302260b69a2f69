"""Wavevector lattice arithmetic and the truncated vorticity system.

Conventions used package-wide:

* A wavevector is a pair of integers ``(k1, k2)``; the origin is never a
  valid mode index.
* A coefficient field stores the full square box ``|k1|,|k2| <= box`` of
  complex amplitudes with the conjugate pairing ``w[-k] == conj(w[k])``
  enforced on every write, and nothing at the origin.
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

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._kernels_py import box_norm_sq, grid_index
from .errors import PreconditionError
from .util import rk4

Vec = tuple[int, int]

# CoefficientField: the largest box half-width.  A whole euler-sim
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


class CoefficientField:
    """Truncated vorticity coefficients on the box |k1|,|k2| <= box.

    The full box is stored densely; set_mode writes a coefficient together
    with its conjugate at -k so the reality pairing is an enforced invariant
    rather than a storage convention.
    """

    def __init__(self, box: int, data: np.ndarray | None = None):
        if not 1 <= box <= MAX_BOX:
            raise PreconditionError(f"box half-width must be in [1, {MAX_BOX}]")
        self.box = box
        side = 2 * box + 1
        if data is None:
            data = np.zeros((side, side), dtype=np.complex128)
        else:
            data = np.asarray(data, dtype=np.complex128)
            if data.shape != (side, side):
                raise PreconditionError(f"data must have shape {(side, side)}")
            data = data.copy()
            data[box, box] = 0.0
        self._data = data

    # -- indexing -----------------------------------------------------------

    def _idx(self, k: Vec) -> tuple[int, int]:
        if abs(k[0]) > self.box or abs(k[1]) > self.box:
            raise PreconditionError(f"mode {k} outside box {self.box}")
        return (k[0] + self.box, k[1] + self.box)

    def __getitem__(self, k: Vec) -> complex:
        return complex(self._data[self._idx(k)])

    def set_mode(self, k: Vec, value: complex) -> None:
        _check_nonzero(k, "k")
        self._data[self._idx(k)] = value
        self._data[self._idx((-k[0], -k[1]))] = np.conj(value)

    @property
    def data(self) -> np.ndarray:
        """Dense coefficient array (read-only view)."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    def modes(self) -> list[tuple[Vec, complex]]:
        """Nonzero modes as (k, amplitude) pairs."""
        out = []
        for i in range(2 * self.box + 1):
            for j in range(2 * self.box + 1):
                if self._data[i, j] != 0:
                    out.append(((i - self.box, j - self.box), complex(self._data[i, j])))
        return out

    def embedded(self, box: int) -> "CoefficientField":
        """The same field stored in a (possibly larger) box."""
        if box < self.box:
            raise PreconditionError("cannot embed into a smaller box")
        out = CoefficientField(box)
        lo, hi = box - self.box, box + self.box + 1
        out._data[lo:hi, lo:hi] = self._data
        return out

    # -- invariants ---------------------------------------------------------

    def energy(self) -> float:
        """Sum of |w_k|^2 / |k|^2 over every stored nonzero mode.

        Both members of a +-k pair are counted (doubling convention).
        """
        return float(np.sum(np.abs(self._data) ** 2 / box_norm_sq(self.box)))

    def enstrophy(self) -> float:
        """Sum of |w_k|^2 over every stored nonzero mode."""
        return float(np.sum(np.abs(self._data) ** 2))

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_modes(cls, box: int, modes: dict[Vec, complex]) -> "CoefficientField":
        out = cls(box)
        for k, v in modes.items():
            out.set_mode(k, v)
        return out

    @classmethod
    def single_pair(cls, box: int, p: Vec, gamma: complex) -> "CoefficientField":
        """The one-mode steady state w_p = gamma, w_{-p} = conj(gamma)."""
        return cls.from_modes(box, {p: gamma})

    @classmethod
    def random(cls, box: int, rng: np.random.Generator,
               decay: float = 0.0) -> "CoefficientField":
        """Random field with the reality pairing, optional |k|^2 decay."""
        if not (np.isfinite(decay) and decay >= 0):
            raise PreconditionError(f"decay must be a finite number >= 0, got {decay}")
        out = cls(box)
        for k1 in range(-box, box + 1):
            for k2 in range(-box, box + 1):
                k = (k1, k2)
                if k == (0, 0) or (k1, k2) < (-k1, -k2):
                    continue
                amp = rng.standard_normal() + 1j * rng.standard_normal()
                if decay > 0.0:
                    amp *= np.exp(-decay * norm_sq(k))
                out.set_mode(k, amp)
        return out

    def scaled(self, c: float) -> "CoefficientField":
        return CoefficientField(self.box, self._data * c)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Half-lattice JSON form; the loader reconstructs conjugates."""
        modes = []
        for (k, v) in self.modes():
            if k > (-k[0], -k[1]):  # lexicographically positive representative
                modes.append({"k": [k[0], k[1]], "re": v.real, "im": v.imag})
        modes.sort(key=lambda m: (m["k"][0], m["k"][1]))
        return {"box": self.box, "modes": modes}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CoefficientField":
        out = cls(int(obj["box"]))
        for m in obj["modes"]:
            out.set_mode((int(m["k"][0]), int(m["k"][1])), complex(m["re"], m["im"]))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "CoefficientField":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def galerkin_rhs(state: CoefficientField) -> CoefficientField:
    """Time derivative of the truncated vorticity system.

    Ordered-pair convolution over the box; conserves energy and enstrophy
    algebraically and preserves the reality pairing.  Large boxes compute it
    by FFT on a grid zero-padded to n >= 3*box+1 points per side, which
    keeps the sharp truncation exact.
    """
    rhs = kernels.galerkin_rhs(state._data, state.box)
    out = CoefficientField(state.box)
    out._data[:, :] = rhs
    out._data[state.box, state.box] = 0.0
    return out


def integrate_galerkin(state: CoefficientField, dt: float,
                       steps: int) -> CoefficientField:
    """Fixed-step RK4 on the coefficient box; returns the final state.

    Raises NumericError with the step index, counted from this call, on
    blow-up.
    """
    box = state.box
    samples = rk4(lambda w: kernels.galerkin_rhs(w, box), state._data, dt,
                  steps, max(steps, 1))
    out = CoefficientField(box)
    out._data[:, :] = samples[-1]
    return out


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


def coefficients_to_grid(field_: CoefficientField, n: int) -> np.ndarray:
    """Sample sum_k w_k exp(i k.X) on an n x n grid (real by the pairing)."""
    check_resolution(n)
    if n < 2 * field_.box + 2:
        raise PreconditionError(f"grid too coarse for the coefficient box: n = {n} "
                                f"below 2*box + 2 = {2 * field_.box + 2}")
    fhat = np.zeros((n, n), dtype=np.complex128)
    fhat.ravel()[grid_index(field_.box, n)] = field_._data.ravel() * (n * n)
    return np.fft.ifft2(fhat).real
