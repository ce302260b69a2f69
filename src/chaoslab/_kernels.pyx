# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled lattice and dashed-line kernels; semantics mirror
chaoslab._kernels_py exactly.  The Galerkin convolution has one
implementation, chaoslab._kernels_py.galerkin_rhs, for both backends."""

import numpy as np

cimport cython
cimport numpy as cnp

cnp.import_array()

BACKEND = "compiled"


cdef void _pdnls_rhs_c(double complex * q, double complex * out, int n,
                       double h2inv, double two_omega_sq, double alpha,
                       double beta, double eps) noexcept nogil:
    # neighbor sum first: mirror-symmetric evaluation preserves evenness
    # exactly, matching the pure-python kernel
    cdef int i, ip, im
    cdef double complex lap, neigh
    cdef double mag
    for i in range(n):
        ip = i + 1 if i + 1 < n else 0
        im = i - 1 if i > 0 else n - 1
        neigh = q[ip] + q[im]
        lap = neigh - 2.0 * q[i]
        mag = q[i].real * q[i].real + q[i].imag * q[i].imag
        out[i] = (-1j) * (h2inv * lap + mag * neigh - two_omega_sq * q[i]) \
            + eps * (-alpha * q[i] + h2inv * lap + beta)


def pdnls_rhs(q, double h2inv, double two_omega_sq, double alpha, double beta,
              double eps):
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] qin = \
        np.ascontiguousarray(q, dtype=np.complex128)
    cdef int n = qin.shape[0]
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] out = \
        np.empty(n, dtype=np.complex128)
    _pdnls_rhs_c(<double complex *> qin.data, <double complex *> out.data, n,
                 h2inv, two_omega_sq, alpha, beta, eps)
    return out


def pdnls_rk4(q0, double h2inv, double two_omega_sq, double alpha, double beta,
              double eps, double dt, long steps, long sample_every):
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] q = \
        np.array(q0, dtype=np.complex128)
    cdef int n = q.shape[0]
    cdef long n_samples = steps // sample_every + 1
    cdef cnp.ndarray[cnp.complex128_t, ndim=2] samples = \
        np.empty((n_samples, n), dtype=np.complex128)
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] k1 = np.empty(n, dtype=np.complex128)
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] k2 = np.empty(n, dtype=np.complex128)
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] k3 = np.empty(n, dtype=np.complex128)
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] k4 = np.empty(n, dtype=np.complex128)
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] tmp = np.empty(n, dtype=np.complex128)
    cdef double complex * qp = <double complex *> q.data
    cdef double complex * k1p = <double complex *> k1.data
    cdef double complex * k2p = <double complex *> k2.data
    cdef double complex * k3p = <double complex *> k3.data
    cdef double complex * k4p = <double complex *> k4.data
    cdef double complex * tp = <double complex *> tmp.data
    cdef long step, idx = 1
    cdef int i
    cdef double half = 0.5 * dt, sixth = dt / 6.0
    cdef bint finite
    samples[0] = q
    with nogil:
        for step in range(1, steps + 1):
            _pdnls_rhs_c(qp, k1p, n, h2inv, two_omega_sq, alpha, beta, eps)
            for i in range(n):
                tp[i] = qp[i] + half * k1p[i]
            _pdnls_rhs_c(tp, k2p, n, h2inv, two_omega_sq, alpha, beta, eps)
            for i in range(n):
                tp[i] = qp[i] + half * k2p[i]
            _pdnls_rhs_c(tp, k3p, n, h2inv, two_omega_sq, alpha, beta, eps)
            for i in range(n):
                tp[i] = qp[i] + dt * k3p[i]
            _pdnls_rhs_c(tp, k4p, n, h2inv, two_omega_sq, alpha, beta, eps)
            finite = True
            for i in range(n):
                qp[i] = qp[i] + sixth * (k1p[i] + 2.0 * k2p[i] + 2.0 * k3p[i] + k4p[i])
                if not (-1e150 < qp[i].real < 1e150 and -1e150 < qp[i].imag < 1e150):
                    finite = False
            if not finite:
                with gil:
                    return samples[:idx], step
            if step % sample_every == 0:
                with gil:
                    samples[idx] = q
                    idx += 1
    return samples[:idx], -1


cdef void _dashed_rhs_c(double op, double * om, int L, double * sub,
                        double * sup, double * pair, double * dop,
                        double * dom) noexcept nogil:
    cdef int i
    cdef double acc = 0.0
    for i in range(L):
        dom[i] = 0.0
        if i >= 1:
            dom[i] += sub[i] * om[i - 1]
        if i + 1 < L:
            dom[i] -= sup[i] * om[i + 1]
        dom[i] *= op
    for i in range(1, L):
        acc += pair[i - 1] * om[i - 1] * om[i]
    dop[0] = -acc


def dashed_rhs(double op, om, sub, sup, pair):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] omv = \
        np.ascontiguousarray(om, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] subv = \
        np.ascontiguousarray(sub, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] supv = \
        np.ascontiguousarray(sup, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] pairv = \
        np.ascontiguousarray(pair, dtype=np.float64)
    cdef int L = omv.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] dom = np.empty(L, dtype=np.float64)
    cdef double dop
    _dashed_rhs_c(op, <double *> omv.data, L, <double *> subv.data,
                  <double *> supv.data, <double *> pairv.data, &dop,
                  <double *> dom.data)
    return dop, dom


def dashed_rk4(double op0, om0, sub, sup, pair, double dt, long steps,
               long sample_every):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] om = np.array(om0, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] subv = \
        np.ascontiguousarray(sub, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] supv = \
        np.ascontiguousarray(sup, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] pairv = \
        np.ascontiguousarray(pair, dtype=np.float64)
    cdef int L = om.shape[0]
    cdef long n_samples = steps // sample_every + 1
    cdef cnp.ndarray[cnp.float64_t, ndim=1] op_samples = np.empty(n_samples)
    cdef cnp.ndarray[cnp.float64_t, ndim=2] om_samples = np.empty((n_samples, L))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] b1 = np.empty(L)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] b2 = np.empty(L)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] b3 = np.empty(L)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] b4 = np.empty(L)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] tmp = np.empty(L)
    cdef double * omp = <double *> om.data
    cdef double * sb = <double *> subv.data
    cdef double * sp = <double *> supv.data
    cdef double * pr = <double *> pairv.data
    cdef double * b1p = <double *> b1.data
    cdef double * b2p = <double *> b2.data
    cdef double * b3p = <double *> b3.data
    cdef double * b4p = <double *> b4.data
    cdef double * tp = <double *> tmp.data
    cdef double op = op0, a1, a2, a3, a4, opt
    cdef double half = 0.5 * dt, sixth = dt / 6.0
    cdef long step, idx = 1
    cdef int i
    cdef bint finite
    op_samples[0] = op
    om_samples[0] = om
    with nogil:
        for step in range(1, steps + 1):
            _dashed_rhs_c(op, omp, L, sb, sp, pr, &a1, b1p)
            for i in range(L):
                tp[i] = omp[i] + half * b1p[i]
            opt = op + half * a1
            _dashed_rhs_c(opt, tp, L, sb, sp, pr, &a2, b2p)
            for i in range(L):
                tp[i] = omp[i] + half * b2p[i]
            opt = op + half * a2
            _dashed_rhs_c(opt, tp, L, sb, sp, pr, &a3, b3p)
            for i in range(L):
                tp[i] = omp[i] + dt * b3p[i]
            opt = op + dt * a3
            _dashed_rhs_c(opt, tp, L, sb, sp, pr, &a4, b4p)
            op = op + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            finite = (op == op and -1e150 < op < 1e150)
            for i in range(L):
                omp[i] = omp[i] + sixth * (b1p[i] + 2.0 * b2p[i] + 2.0 * b3p[i] + b4p[i])
                if not (omp[i] == omp[i] and -1e150 < omp[i] < 1e150):
                    finite = False
            if not finite:
                with gil:
                    return op_samples[:idx], om_samples[:idx], step
            if step % sample_every == 0:
                with gil:
                    op_samples[idx] = op
                    om_samples[idx] = om
                    idx += 1
    return op_samples[:idx], om_samples[:idx], -1
