"""Class-decomposed linear operators and their truncated spectra.

At the one-mode steady state w_p = Gamma the linearized mode equations
decouple along lattice lines khat + n*p into three-term recurrences

    lam * w_n = c_n w_{n-1} + d_n w_{n+1},
    c_n = A(p, khat+(n-1)p) * Gamma,   d_n = A(-p, khat+(n+1)p) * conj(Gamma).

This module builds the Dirichlet truncations of those operators, classifies
their spectra by the disk-intersection test, and refines point eigenvalues
with the continued-fraction characteristic function of the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericError, PreconditionError
from .fourier import ClassIndex, class_intersects_disk, coef_A, det2, norm_sq, zeta
from .util import hausdorff_distance


class SpectrumCase(Enum):
    CONTINUOUS_ONLY = "ContinuousOnly"
    MIXED_POINT_SPECTRUM = "MixedPointSpectrum"


@dataclass
class ClassOperator:
    """Dirichlet truncation of one decoupled class recurrence.

    ``ns`` lists the kept chain positions n in [-trunc, trunc] (a slot is
    removed when khat + n*p hits the origin, splitting the chain), and
    ``matrix`` is the dense tridiagonal-with-skips realization.
    """

    cls: ClassIndex
    gamma: complex
    trunc: int
    ns: list[int]
    matrix: np.ndarray
    degenerate: bool

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def sub_coefficient(self, n: int) -> complex:
        """c_n, the coupling of w_n to w_{n-1}."""
        return coef_A(self.cls.p, self.cls.member(n - 1)) * self.gamma

    def super_coefficient(self, n: int) -> complex:
        """d_n, the coupling of w_n to w_{n+1}."""
        p = self.cls.p
        return coef_A((-p[0], -p[1]), self.cls.member(n + 1)) * np.conj(self.gamma)


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    case: SpectrumCase
    b: complex
    zeta_bound: int
    trunc: int
    cls: ClassIndex
    gamma: complex

    def normalized(self) -> np.ndarray:
        """Eigenvalues scaled to 2*lam/|Gamma| (zero field maps to zero)."""
        g = abs(self.gamma)
        return self.eigenvalues * (2.0 / g) if g > 0 else self.eigenvalues * 0.0

    def to_json_dict(self) -> dict:
        return {
            "khat": list(self.cls.khat),
            "p": list(self.cls.p),
            "gamma": [self.gamma.real, self.gamma.imag],
            "trunc": self.trunc,
            "case": self.case.value,
            "b": [self.b.real, self.b.imag],
            "zeta_bound": self.zeta_bound,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
        }


def build_class_operator(cls: ClassIndex, gamma: complex, trunc: int) -> ClassOperator:
    """Assemble the truncated class operator for |n| <= trunc."""
    if trunc < 1:
        raise PreconditionError("trunc must be >= 1")
    ns = [n for n in range(-trunc, trunc + 1) if cls.member(n) != (0, 0)]
    index = {n: i for i, n in enumerate(ns)}
    dim = len(ns)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    p = cls.p
    mp = (-p[0], -p[1])
    for n in ns:
        lower = n - 1
        if lower in index:
            mat[index[n], index[lower]] = coef_A(p, cls.member(lower)) * gamma
        upper = n + 1
        if upper in index:
            mat[index[n], index[upper]] = coef_A(mp, cls.member(upper)) * np.conj(gamma)
    return ClassOperator(cls=cls, gamma=complex(gamma), trunc=trunc, ns=ns,
                         matrix=mat, degenerate=cls.is_degenerate())


def truncated_spectrum(op: ClassOperator) -> SpectrumReport:
    """Dense eigensolve of the truncation plus the disk classification."""
    if op.dimension > 2001:
        raise PreconditionError("truncation dimension above 2001")
    try:
        eigs = np.linalg.eigvals(op.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError("eigensolver failed to converge", matrix=op.matrix) from exc
    case = (SpectrumCase.MIXED_POINT_SPECTRUM if class_intersects_disk(op.cls)
            else SpectrumCase.CONTINUOUS_ONLY)
    b = -0.5 * abs(op.gamma) * det2(op.cls.p, op.cls.khat) / norm_sq(op.cls.p)
    return SpectrumReport(eigenvalues=eigs, case=case, b=complex(b),
                          zeta_bound=zeta(op.cls.p), trunc=op.trunc,
                          cls=op.cls, gamma=op.gamma)


def count_nonimaginary(report: SpectrumReport, tol: float) -> int:
    """Eigenvalues with |Re lam| above tol; bounded by 2*zeta(p)."""
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    return int(np.sum(np.abs(report.eigenvalues.real) > tol))


def continued_fraction_eigen(op: ClassOperator, seed: complex,
                             depth: int | None = None, tol: float = 1e-13,
                             max_iter: int = 100) -> complex:
    """Refine a point eigenvalue via the continued-fraction root equation.

    Eliminating the two exponentially decaying tails of the recurrence gives
    tail ratios R_n = w_n/w_{n-1} (from above) and S_n = w_n/w_{n+1} (from
    below), each a descending continued fraction, and the matching condition

        F(lam) = lam - c_0 S_{-1}(lam) - d_0 R_1(lam) = 0

    at the chain center.  Newton's method with the derivative propagated
    through the recursions is run until |F| < tol.  The truncation depth
    defaults to 4*trunc with a zero tail.
    """
    if depth is None:
        depth = 4 * op.trunc
    cls = op.cls
    for n in range(-depth - 1, depth + 2):
        if cls.member(n) == (0, 0):
            raise PreconditionError(
                "continued fraction needs an unbroken chain within the depth")
    if op.gamma == 0:
        return 0.0 + 0.0j

    p = cls.p
    mp = (-p[0], -p[1])
    gamma = op.gamma
    cg = np.conj(gamma)
    c = {n: coef_A(p, cls.member(n - 1)) * gamma for n in range(-depth, depth + 1)}
    d = {n: coef_A(mp, cls.member(n + 1)) * cg for n in range(-depth, depth + 1)}

    def f_and_deriv(lam: complex) -> tuple[complex, complex]:
        r, rp = 0.0 + 0.0j, 0.0 + 0.0j  # R_{depth+1} = 0
        for n in range(depth, 0, -1):
            den = lam - d[n] * r
            rp = -c[n] * (1.0 - d[n] * rp) / (den * den)
            r = c[n] / den
        s, sp = 0.0 + 0.0j, 0.0 + 0.0j  # S_{-depth-1} = 0
        for n in range(-depth, 0):
            den = lam - c[n] * s
            sp = -d[n] * (1.0 - c[n] * sp) / (den * den)
            s = d[n] / den
        return lam - c[0] * s - d[0] * r, 1.0 - c[0] * sp - d[0] * rp

    lam = complex(seed)
    for _ in range(max_iter):
        fval, fder = f_and_deriv(lam)
        if abs(fval) < tol:
            return lam
        if fder == 0 or not np.isfinite(fder):
            raise NumericError("continued-fraction Newton hit a flat point",
                               last_iterate=lam)
        lam = lam - fval / fder
    raise NumericError(
        f"continued-fraction Newton did not reach residual {tol} in {max_iter} steps",
        last_iterate=lam)


def spectral_mapping_check(op: ClassOperator, t: float) -> float:
    """Hausdorff distance between eig(expm(t*L)) and exp(t*eig(L))."""
    # imported here: scipy.linalg costs a quarter second of start-up and no
    # other function needs it
    import scipy.linalg

    if t == 0:
        raise PreconditionError("t must be nonzero")
    if op.dimension > 200:
        raise PreconditionError("dimension above 200 for the matrix exponential")
    lhs = np.linalg.eigvals(scipy.linalg.expm(t * op.matrix))
    rhs = np.exp(t * np.linalg.eigvals(op.matrix))
    return hausdorff_distance(lhs, rhs)


def quadruple_symmetry_defect(report: SpectrumReport) -> float:
    """Deviation of the spectrum from symmetry under negation and conjugation.

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
