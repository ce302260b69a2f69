"""Pure numpy implementations of the hot kernels.

The two trajectory loops pdnls_rk4 and dashed_rk4 have a C twin in
_kernels.c, the extension chaoslab._kernels, with the same formulas;
chaoslab.kernels picks their backend once at import time.  They run on the
shared RK4 driver chaoslab.util.rk4, whose blow-up rule, schedule check and
empty-state check the C loops apply too, check the sample array's size
against chaoslab.util.MAX_SAMPLE_VALUES first, and return only the samples; on
every backend a blow-up raises NumericError through chaoslab.util.blew_up.
The C loops are far faster on the long runs.  The right-hand sides exist
only here and serve both backends: galerkin_rhs, with the box maps that
chaoslab.fourier and chaoslab.laxpairs share, pdnls_rhs and dashed_field.  They are vectorized and take a batch of
states, which the shadowing flow maps of chaoslab.nls and
chaoslab.dashed_line integrate in one RK4 run.  The lattice field gathers
its periodic neighbours through index arrays cached per lattice size, which
the analytic lattice Jacobian in chaoslab.nls shares.  The dashed-line field
is one coupling-matrix product per state, which adds its terms in another
order than the C loop, so the two loops agree to roundoff.
"""

import functools

import numpy as np

from .util import check_samples, check_schedule, check_state, rk4

BACKEND = "python"

# Boxes from this half-width up take the padded-FFT path; below it the pair
# tables are as fast or faster.  Medians per call on 2 vCPUs, numpy 2.4, three
# runs: box 4 tables 29-47 us against FFT 60-101 us, box 5 56-94 us against
# 65-100 us (a tie), box 6 119-182 us against FFT 76-100 us.
_FFT_MIN_BOX = 6

# Cached periodic neighbour indices (n+1, n-1), keyed by lattice size.
_NEIGHBOURS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


@functools.cache
def box_norm_sq(box: int) -> np.ndarray:
    """|k|^2 over the (2*box+1)^2 box in float64, with the origin set to 1
    so that dividing by it is safe; read-only."""
    k = np.arange(-box, box + 1)
    k_sq = (k[:, None] ** 2 + k[None, :] ** 2).astype(np.float64)
    k_sq[box, box] = 1.0
    k_sq.flags.writeable = False
    return k_sq


@functools.cache
def grid_index(box: int, n: int) -> np.ndarray:
    """Flat index (k1 % n) * n + k2 % n of each box mode, in row-major box
    order, in an n x n FFT grid; read-only."""
    k = np.arange(-box, box + 1) % n
    index = (k[:, None] * n + k[None, :]).ravel()
    index.flags.writeable = False
    return index


@functools.cache
def _pair_tables(box: int) -> tuple[np.ndarray, np.ndarray]:
    """det[k,q] = det(k-q, q) and gather[k,q], the flat box index of k-q.

    They give the box's bilinear form B(a, b)[k] = sum_{p+q=k} det(p, q)
    a_p b_q as sum_q det[k,q] a[gather[k,q]] b[q].  det vanishes when k, q
    or k-q is the origin; where k-q leaves the box det is zero and gather
    points at the origin, whose coefficient is zero.  Each table holds
    (2*box+1)^4 entries.
    """
    side = 2 * box + 1
    k = np.arange(-box, box + 1)
    k1 = np.repeat(k, side)[:, None]
    k2 = np.tile(k, side)[:, None]
    q1, q2 = k1.T, k2.T
    p1, p2 = k1 - q1, k2 - q2
    inside = (np.abs(p1) <= box) & (np.abs(p2) <= box)
    det = np.where(inside, p1 * q2 - p2 * q1, 0).astype(np.float64)
    gather = np.where(inside, (p1 + box) * side + (p2 + box), side * side // 2)
    return det, gather


@functools.cache
def _fft_plan(box: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Padded grid size n, flat index of each box mode in the n x n grid,
    and the four spectral multipliers (w_x, w_y, u_y, u_x) over the box.

    n is the smallest 2^a 3^b 5^c with n >= 3*box+1: a product of two box
    modes reaches |k| <= 2*box, so none wraps onto a mode inside the box.
    """
    n = 3 * box + 1
    while True:
        rest = n
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            break
        n += 1
    k = np.arange(-box, box + 1)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    k_sq = box_norm_sq(box)
    mult = np.stack([1j * k1, 1j * k2, -1j * k2 / k_sq, -1j * k1 / k_sq])
    return n, grid_index(box, n), mult.reshape(4, -1)


def galerkin_rhs(w: np.ndarray, box: int) -> np.ndarray:
    """Quadratic box convolution of the truncated vorticity system.

    rhs[k] = sum over ordered pairs p+q=k (all modes in the box, origin
    excluded) of A(p,q) * w[p] * w[q].  With u[q] = w[q]/|q|^2 this equals
    B(w, u)[k] = sum_{p+q=k} det(p,q) w[p] u[q], the bracket
    w_x u_y - w_y u_x, which boxes from _FFT_MIN_BOX up evaluate on a grid
    zero-padded to n >= 3*box+1 points per side, so the sharp truncation
    stays exact.  The transforms are complex, so the form stays bilinear on
    inputs without the reality pairing.  Smaller boxes contract the pair
    tables with einsum, which sums without BLAS: a BLAS matrix-vector
    product there ran 200x slower for hundreds of calls in some processes.
    """
    wf = np.ascontiguousarray(w, dtype=np.complex128).ravel()
    if box < _FFT_MIN_BOX:
        det, gather = _pair_tables(box)
        u = wf / box_norm_sq(box).ravel()
        return np.einsum("kq,kq,q->k", det, wf[gather], u).reshape(w.shape)
    n, index, mult = _fft_plan(box)
    grid = np.zeros((4, n * n), dtype=np.complex128)
    grid[:, index] = mult * wf
    wx, wy, uy, ux = np.fft.ifft2(grid.reshape(4, n, n), norm="forward")
    rhs = np.fft.fft2(wx * uy - wy * ux, norm="forward").ravel()[index]
    rhs[box * (2 * box + 2)] = 0.0
    return rhs.reshape(w.shape)


def neighbour_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (ip, im) with q[ip][i] = q[i+1] and q[im][i] = q[i-1] on the
    periodic lattice of n sites, built once per n and read-only."""
    cached = _NEIGHBOURS.get(n)
    if cached is None:
        idx = np.arange(n)
        cached = ((idx + 1) % n, (idx - 1) % n)
        for a in cached:
            a.flags.writeable = False
        _NEIGHBOURS[n] = cached
    return cached


def pdnls_rhs(q, h2inv, two_omega_sq, alpha, beta, eps):
    """Right-hand side of the perturbed discrete cubic NLS lattice.

    The neighbor sum q[n+1] + q[n-1] is formed before the Laplacian so the
    evaluation is mirror-symmetric and evenness is preserved exactly, not
    just to roundoff.  It gathers through the cached neighbour_index arrays,
    the same additions in the same order as np.roll(q, -1) + np.roll(q, 1)
    at a fraction of the per-call cost.  The lattice runs along the first
    axis; trailing axes are a batch, so q of shape (N, B) gives the B
    right-hand sides of its columns, each bit for bit the 1-D result.  q is
    converted as np.asarray(q, complex128), which copies no complex128
    array, a transposed view included.
    """
    q = np.asarray(q, dtype=np.complex128)
    ip, im = neighbour_index(q.shape[0])
    neigh = q[ip] + q[im]
    lap = neigh - 2.0 * q
    conservative = h2inv * lap + (q.real**2 + q.imag**2) * neigh - two_omega_sq * q
    return -1j * conservative + eps * (-alpha * q + h2inv * lap + beta)


def pdnls_rk4(q0, h2inv, two_omega_sq, alpha, beta, eps, dt, steps, sample_every):
    """Fixed-step RK4 trajectory of the lattice; returns the sampled states
    and raises NumericError, through util.blew_up, on blow-up."""
    args = (h2inv, two_omega_sq, alpha, beta, eps)
    q0 = np.array(q0, dtype=np.complex128)
    check_schedule(dt, steps, sample_every)
    check_samples(steps // sample_every + 1, q0.size)
    return rk4(lambda q: pdnls_rhs(q, *args), q0, dt, steps, sample_every)


def dashed_coupling_matrix(sub, sup, pair) -> np.ndarray:
    """Coupling matrix C of the dashed-line field, shape (L+1, 2L-1).

    On the stacked state x = (op, om) the product v = x @ C holds the
    tridiagonal T, v[i] = sub[i]*om[i-1] - sup[i]*om[i+1] with zero
    Dirichlet ends, in its first L items and the pair coupling P,
    v[L+i] = pair[i]*om[i+1], in its last L-1.  Raises ValueError unless
    sub, sup and pair hold L, L and L-1 items, as the C dashed_rk4 does.
    """
    sub, sup, pair = (np.asarray(c, dtype=np.float64) for c in (sub, sup, pair))
    L = sub.size
    if (sub.shape, sup.shape, pair.shape) != ((L,), (L,), (L - 1,)):
        raise ValueError("sub, sup and pair need L, L and L - 1 items")
    c = np.zeros((L + 1, 2 * L - 1))
    # the rows of om's items; T is tridiagonal and P diagonal in them
    t, p = c[1:, :L], c[2:, L:]
    t.flat[1::L + 1] = sub[1:]
    t.flat[L::L + 1] = -sup[:-1]
    p.flat[::L] = pair
    return c


def dashed_field(x, c):
    """Dashed-line field at stacked states x = (op, om), with the coupling
    matrix c of dashed_coupling_matrix.

    From v = x @ c, dom = op * v[:L] and dop = -(v[L:] @ om[:-1]).  x is one
    state (L+1,) or a batch (B, L+1) along a leading axis.  numpy runs the
    product of one state and of each row of (B, 1, L+1) @ c as the same BLAS
    vector-matrix product, and the pair sum of one state and of each row of
    vecdot as the same BLAS dot product, so each row of a batch is the
    single-state result bit for bit; (B, L+1) @ c, a matrix-matrix product,
    would not be.  The terms add in another order than in the C loop, so
    the two agree to roundoff.
    """
    L = x.shape[-1] - 1
    dx = np.empty(x.shape)
    if x.ndim == 1:
        v = x.dot(c)
        dx[0] = -v[L:].dot(x[1:-1])
        dx[1:] = x[0] * v[:L]
    else:
        v = (x[..., None, :] @ c)[..., 0, :]
        dx[..., 0] = -np.vecdot(v[..., L:], x[..., 1:-1])
        dx[..., 1:] = x[..., :1] * v[..., :L]
    return dx


def dashed_rk4(op0, om0, sub, sup, pair, dt, steps, sample_every):
    """RK4 trajectory of the dashed-line model; mirrors pdnls_rk4.

    The driver integrates the stacked vector (op0, om0) through
    dashed_field, with the coupling matrix built once, and returns the
    sampled stacked vectors, shape (samples, L+1).
    """
    om0 = np.asarray(om0, dtype=np.float64)
    check_schedule(dt, steps, sample_every)
    check_state(om0.size)
    check_samples(steps // sample_every + 1, om0.size + 1)
    c = dashed_coupling_matrix(sub, sup, pair)
    y0 = np.concatenate(([float(op0)], om0))
    return rk4(lambda y: dashed_field(y, c), y0, dt, steps, sample_every)
