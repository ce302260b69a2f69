"""Class-decomposed linear operators and their truncated spectra.

At the one-mode steady state w_p = Gamma the linearized mode equations
decouple along lattice lines khat + n*p into three-term recurrences

    lam * w_n = c_n w_{n-1} + d_n w_{n+1},
    c_n = A(p, khat+(n-1)p) * Gamma,   d_n = A(-p, khat+(n+1)p) * conj(Gamma).

Every coupling is a real Gamma-free number a_n = A(p, khat+(n-1)p) or
b_n = A(-p, khat+(n+1)p) times Gamma or conj(Gamma); `class_couplings` is
the one place that evaluates them.  With Gamma = |Gamma| e^{i theta} the
diagonal similarity diag(e^{i n theta}) turns the operator into the real
matrix R = |Gamma| * A, A having sub-diagonal a_n and super-diagonal b_n,
with the same spectrum.

R is tridiagonal with a zero diagonal.  Ordering its indices evens first,
then odds, makes it [[0, X], [Y, 0]], so

    det(lam I - R) = lam^(ne - no) * det(lam^2 I - Y X),

ne >= no counting the even and odd indices.  Y X is again tridiagonal, of
half the dimension, and its entries are products of the bands of R.  This
module builds the Dirichlet truncations of the class operators, solves
Y X for their spectra in real arithmetic and returns +-sqrt of its
eigenvalues, so the computed spectrum is exactly closed under negation and
conjugation.  It classifies them by the disk-intersection test, and
refines point eigenvalues with the continued-fraction characteristic
function of the recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericError, PreconditionError
from .fourier import ClassIndex, class_intersects_disk, coef_A, det2, norm_sq, zeta

# continued_fraction_eigen's depth per unit of trunc, |F| target and step cap
CF_DEPTH_PER_TRUNC = 4
CF_TOL = 1e-13
CF_MAX_ITER = 100


class SpectrumCase(Enum):
    CONTINUOUS_ONLY = "ContinuousOnly"
    MIXED_POINT_SPECTRUM = "MixedPointSpectrum"


def class_couplings(cls: ClassIndex, ns) -> tuple[np.ndarray, np.ndarray]:
    """Gamma-free couplings (a_n, b_n) of the recurrence at positions ns.

    a_n = A(p, khat+(n-1)p) couples w_n to Gamma*w_{n-1} and
    b_n = A(-p, khat+(n+1)p) couples it to conj(Gamma)*w_{n+1}; a coupling
    to the origin slot, which the chain skips, is zero.
    """
    p = cls.p
    mp = (-p[0], -p[1])
    sub, sup = [], []
    for n in ns:
        lower, upper = cls.member(n - 1), cls.member(n + 1)
        sub.append(coef_A(p, lower) if lower != (0, 0) else 0.0)
        sup.append(coef_A(mp, upper) if upper != (0, 0) else 0.0)
    return np.array(sub), np.array(sup)


def _tridiagonal(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Dense matrix with ``lower`` below and ``upper`` above a zero diagonal."""
    i = np.arange(len(lower))
    dim = len(lower) + 1
    mat = np.zeros((dim, dim), dtype=np.result_type(lower, upper))
    mat[i + 1, i] = lower
    mat[i, i + 1] = upper
    return mat


@dataclass
class ClassOperator:
    """Dirichlet truncation of one decoupled class recurrence.

    ``ns`` lists the kept chain positions n in [-trunc, trunc] (a slot is
    removed when khat + n*p hits the origin, splitting the chain).
    ``sub`` and ``sup`` hold the real Gamma-free couplings a_n and b_n of
    each kept slot (`class_couplings`).  The complex operator has entries
    a_n*Gamma below and b_n*conj(Gamma) above a zero diagonal; `real_bands`
    gives the bands of the real matrix |Gamma| * A that is similar to it.
    """

    cls: ClassIndex
    gamma: complex
    trunc: int
    ns: list[int]
    sub: np.ndarray
    sup: np.ndarray
    degenerate: bool

    @property
    def dimension(self) -> int:
        return len(self.ns)

    def real_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Sub- and super-diagonal of |Gamma| * A, in float64.  The first
        slot's a_n and the last slot's b_n reach outside the truncation and
        are dropped; across the origin both couplings are zero.

        diag(e^{i n theta}) with Gamma = |Gamma| e^{i theta} maps this real
        form onto the complex operator, so the two have the same spectrum.
        """
        g = abs(self.gamma)
        return g * self.sub[1:], g * self.sup[:-1]


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
    # the dimension, 2*trunc+1 less the origin if it is a member, stays at
    # most 2001 for the dense eigensolve: checked before anything is built
    if trunc > 1000:
        raise PreconditionError("trunc above 1000: truncation dimension above 2001")
    gamma = complex(gamma)
    # hypot is not finite when either part is not, or when |Gamma| overflows
    if not math.isfinite(math.hypot(gamma.real, gamma.imag)):
        raise PreconditionError("Gamma and |Gamma| must be finite")
    ns = [n for n in range(-trunc, trunc + 1) if cls.member(n) != (0, 0)]
    sub, sup = class_couplings(cls, ns)
    return ClassOperator(cls=cls, gamma=gamma, trunc=trunc, ns=ns, sub=sub,
                         sup=sup, degenerate=cls.is_degenerate())


def _even_odd_product(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Y X for the zero-diagonal tridiagonal R with bands ``lower`` and
    ``upper``, where X = R[0::2, 1::2] and Y = R[1::2, 0::2].

    Y X is the no x no tridiagonal, no = dim // 2, with l = lower, u = upper,
    (Y X)[k, k] = l[2k] u[2k] + l[2k+1] u[2k+1], (Y X)[k, k-1] =
    l[2k] l[2k-1] and (Y X)[k, k+1] = u[2k+1] u[2k+2]; a term whose index
    runs past the bands is absent.  It is built from the bands, with no
    matrix product.
    """
    no = (len(lower) + 1) // 2
    prod = lower * upper
    diag = prod[0::2].copy()
    odd = prod[1::2]
    diag[:len(odd)] += odd
    mat = _tridiagonal(lower[2::2] * lower[1::2][:no - 1],
                       upper[1::2][:no - 1] * upper[2::2])
    mat[np.diag_indices(no)] = diag
    return mat


def truncated_spectrum(op: ClassOperator) -> SpectrumReport:
    """Dense eigensolve of the truncation plus the disk classification.

    The real form R, with the bands `ClassOperator.real_bands`, has a zero
    diagonal, so its characteristic polynomial is lam^(ne - no)
    det(lam^2 I - Y X) with the half-size tridiagonal Y X of
    `_even_odd_product`.  The solve runs on
    Y X in float64 and returns +-sqrt(mu) for each of its eigenvalues mu
    plus ne - no exact zeros: op.dimension eigenvalues, exactly closed
    under negation and under conjugation (the eigenvalues of a real matrix
    come in exactly conjugate pairs).

    Caveat: the square root amplifies the error of a small mu.  An error
    of about eps*|R|^2 in mu becomes one of about eps*|R|^2 / (2|lam|) in
    lam, against eps*|R| from a solve of the full R, so eigenvalues near 0
    lose accuracy.  The nonzero eigenvalues of a class operator stay away
    from 0: with |Gamma| = 2 the smallest is 1.5e-2 at trunc 40 and 1.6e-3
    at trunc 400, where the two solves still agree within 1e-12.  On random
    zero-diagonal tridiagonals the eigenvalues nearest 0 can lose several
    digits.
    """
    # eigvals rejects the inf or nan that a huge |Gamma| leaves here
    with np.errstate(over="ignore", invalid="ignore"):
        prod = _even_odd_product(*op.real_bands())
    try:
        mu = np.linalg.eigvals(prod).astype(np.complex128, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed: {exc}", matrix=prod) from exc
    root = np.sqrt(mu)
    eigs = np.concatenate((root, -root, np.zeros(op.dimension - 2 * root.size)))
    case = (SpectrumCase.MIXED_POINT_SPECTRUM if class_intersects_disk(op.cls)
            else SpectrumCase.CONTINUOUS_ONLY)
    b = -0.5 * abs(op.gamma) * det2(op.cls.p, op.cls.khat) / norm_sq(op.cls.p)
    return SpectrumReport(eigenvalues=eigs, case=case, b=complex(b),
                          zeta_bound=zeta(op.cls.p), trunc=op.trunc,
                          cls=op.cls, gamma=op.gamma)


def count_nonimaginary(report: SpectrumReport, tol: float) -> int:
    """Eigenvalues with |Re lam| above tol, a finite number > 0; bounded by
    2*zeta(p)."""
    if not (np.isfinite(tol) and tol > 0):
        raise PreconditionError("tol must be a finite number > 0")
    return int(np.sum(np.abs(report.eigenvalues.real) > tol))


def continued_fraction_eigen(op: ClassOperator, seed: complex) -> complex:
    """Refine a point eigenvalue via the continued-fraction root equation.

    Eliminating the two exponentially decaying tails of the recurrence gives
    tail ratios R_n = w_n/w_{n-1} (from above) and S_n = w_n/w_{n+1} (from
    below), each a descending continued fraction, and the matching condition

        F(lam) = lam - c_0 S_{-1}(lam) - d_0 R_1(lam) = 0

    at the chain center.  Newton's method with the derivative propagated
    through the recursions is run until |F| < CF_TOL, for at most
    CF_MAX_ITER steps.  The recursions run to depth CF_DEPTH_PER_TRUNC*trunc
    with a zero tail.
    """
    depth = CF_DEPTH_PER_TRUNC * op.trunc
    cls = op.cls
    for n in range(-depth - 1, depth + 2):
        if cls.member(n) == (0, 0):
            raise PreconditionError(
                "continued fraction needs an unbroken chain within the depth")
    if op.gamma == 0:
        return 0.0 + 0.0j

    chain = range(-depth, depth + 1)
    sub, sup = class_couplings(cls, chain)
    # Python complex couplings: numpy complex128 scalars would send every
    # product and quotient of the loops through numpy's slower scalar
    # arithmetic, and round the quotients differently
    c = dict(zip(chain, (sub * op.gamma).tolist()))
    d = dict(zip(chain, (sup * np.conj(op.gamma)).tolist()))

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
    for _ in range(CF_MAX_ITER):
        fval, fder = f_and_deriv(lam)
        if abs(fval) < CF_TOL:
            return lam
        if fder == 0 or not np.isfinite(fder):
            raise NumericError("continued-fraction Newton hit a flat point",
                               last_iterate=lam)
        lam = lam - fval / fder
    raise NumericError(
        f"continued-fraction Newton did not reach residual {CF_TOL} in "
        f"{CF_MAX_ITER} steps",
        last_iterate=lam)


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
