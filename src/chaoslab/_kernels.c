/* Compiled lattice and dashed-line RK4 loops: chaoslab._kernels_py's pdnls_rk4
 * and dashed_rk4, with their arithmetic, blow-up rule, schedule and state
 * checks, in C loops.  They return only the samples; at the first step that
 * breaks the blow-up rule they stop and call chaoslab.util.blew_up, which
 * raises NumericError.  The right-hand sides stay numpy only.  Inputs go
 * through numpy.ascontiguousarray(x, dtype), outputs come from numpy.empty,
 * and the items are read and written through the buffer protocol.  A real
 * times a complex value is the complex product with (x, +0), as in numpy;
 * unlike numpy's BLAS dot, the dashed-line coupling sum adds its terms in
 * sequence.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <complex.h>

typedef double complex cplx;
#define R(x) CMPLX((x), 0.0)

static PyObject *np_empty, *np_contiguous, *c128, *f64, *check_schedule, *check_state,
    *blew_up;

typedef struct { double h2inv, two_omega_sq, alpha, beta, eps; } Lattice;

/* The blow-up rule: a part of size 1e150 or more, or a nan, breaks it. */
static int below_limit(double x) { return -1e150 < x && x < 1e150; }

/* arr (a new reference or NULL) if it has ndim axes, items at *data, length *n. */
static PyObject *items(PyObject *arr, int ndim, void *data, Py_ssize_t *n)
{
    Py_buffer view;
    if (arr != NULL && PyObject_GetBuffer(arr, &view, PyBUF_ND) == 0) {
        *(void **)data = view.buf;
        *n = view.shape[0];
        PyBuffer_Release(&view);
        if (view.ndim == ndim)
            return arr;
        PyErr_SetString(PyExc_ValueError, "expected a 1-d array");
    }
    Py_XDECREF(arr);
    return NULL;
}

static PyObject *vector(PyObject *obj, PyObject *dtype, void *data, Py_ssize_t *n)
{
    return items(PyObject_CallFunctionObjArgs(np_contiguous, obj, dtype, NULL), 1, data, n);
}

/* A new numpy.empty((rows, n), dtype). */
static PyObject *empty(Py_ssize_t rows, Py_ssize_t n, PyObject *dtype, void *data)
{
    return items(PyObject_CallFunction(np_empty, "(nn)O", rows, n, dtype), 2, data, &rows);
}

static int schedule_ok(double dt, long steps, long every)
{
    PyObject *r = PyObject_CallFunction(check_schedule, "dll", dt, steps, every);
    Py_XDECREF(r);
    return r != NULL;
}

static int state_ok(Py_ssize_t n)
{
    PyObject *r = PyObject_CallFunction(check_state, "n", n);
    Py_XDECREF(r);
    return r != NULL;
}

static void pdnls(const Lattice *p, const cplx *q, cplx *out, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        /* the neighbour sum first keeps evenness exact */
        cplx neigh = q[i + 1 < n ? i + 1 : 0] + q[i > 0 ? i - 1 : n - 1];
        cplx lap = neigh - R(2.0) * q[i];
        double mag = creal(q[i]) * creal(q[i]) + cimag(q[i]) * cimag(q[i]);
        cplx cons = R(p->h2inv) * lap + R(mag) * neigh - R(p->two_omega_sq) * q[i];
        out[i] = -I * cons + R(p->eps) * (R(-p->alpha) * q[i] + R(p->h2inv) * lap + R(p->beta));
    }
}

/* The dashed-line field at (op, om) with c = (sub, sup, pair): dom, and dop returned. */
static double dashed(double *const c[3], double op, const double *om, double *dom, Py_ssize_t L)
{
    double acc = 0.0;
    for (Py_ssize_t i = 0; i < L; i++) {
        dom[i] = i > 0 ? c[0][i] * om[i - 1] : 0.0;
        if (i + 1 < L)
            dom[i] -= c[1][i] * om[i + 1];
        dom[i] *= op;
    }
    for (Py_ssize_t i = 1; i < L; i++)
        acc += c[2][i - 1] * om[i - 1] * om[i];
    return -acc;
}

/* om, sub, sup, pair as float64 vectors of L >= 1, L, L, L - 1 items, held in a[]. */
static int dashed_inputs(PyObject *obj[4], PyObject *a[4], double *d[4], Py_ssize_t *L)
{
    Py_ssize_t len[4] = {0};
    int k = 0;
    while (k < 4 && (a[k] = vector(obj[k], f64, &d[k], &len[k])) != NULL)
        k++;
    *L = len[0];
    if (k == 4 && state_ok(*L)) {
        if (len[1] == *L && len[2] == *L && len[3] == *L - 1)
            return 1;
        PyErr_SetString(PyExc_ValueError, "sub, sup and pair need L, L and L - 1 items");
    }
    while (k-- > 0) Py_DECREF(a[k]);
    return 0;
}

static PyObject *pdnls_rk4(PyObject *self, PyObject *args)
{
    PyObject *obj, *in, *work = NULL, *samples = NULL, *result = NULL;
    Lattice p;
    double dt;
    long steps, every, step, blow = 0;
    Py_ssize_t n, i;
    cplx *q0, *q, *s;
    if (!PyArg_ParseTuple(args, "Oddddddll", &obj, &p.h2inv, &p.two_omega_sq, &p.alpha,
                          &p.beta, &p.eps, &dt, &steps, &every)
        || !schedule_ok(dt, steps, every) || (in = vector(obj, c128, &q0, &n)) == NULL)
        return NULL;
    if (state_ok(n) && (work = empty(6, n, c128, &q)) != NULL
        && (samples = empty(steps / every + 1, n, c128, &s)) != NULL) {
        cplx *k1 = q + n, *k2 = k1 + n, *k3 = k2 + n, *k4 = k3 + n, *t = k4 + n;
        double half = 0.5 * dt, sixth = dt / 6.0;
        memcpy(q, q0, n * sizeof(cplx));
        memcpy(s, q0, n * sizeof(cplx));
        for (step = 1; step <= steps && !blow; step++) {
            pdnls(&p, q, k1, n);
            for (i = 0; i < n; i++) t[i] = q[i] + R(half) * k1[i];
            pdnls(&p, t, k2, n);
            for (i = 0; i < n; i++) t[i] = q[i] + R(half) * k2[i];
            pdnls(&p, t, k3, n);
            for (i = 0; i < n; i++) t[i] = q[i] + R(dt) * k3[i];
            pdnls(&p, t, k4, n);
            for (i = 0; i < n; i++) {
                q[i] = q[i] + R(sixth) * (k1[i] + R(2.0) * k2[i] + R(2.0) * k3[i] + k4[i]);
                if (!below_limit(creal(q[i])) || !below_limit(cimag(q[i])))
                    blow = step;
            }
            if (step % every == 0)
                memcpy(s + n * (step / every), q, n * sizeof(cplx));
        }
        result = blow ? PyObject_CallFunction(blew_up, "l", blow) : Py_NewRef(samples);
    }
    Py_DECREF(in);
    Py_XDECREF(work);
    Py_XDECREF(samples);
    return result;
}

static PyObject *dashed_rk4(PyObject *self, PyObject *args)
{
    PyObject *obj[4], *a[4], *work, *samples = NULL, *result = NULL;
    double op, dt, *d[4], *y, *s;
    long steps, every, step, blow = 0;
    Py_ssize_t L, n, i;
    if (!PyArg_ParseTuple(args, "dOOOOdll", &op, &obj[0], &obj[1], &obj[2], &obj[3],
                          &dt, &steps, &every)
        || !schedule_ok(dt, steps, every) || !dashed_inputs(obj, a, d, &L))
        return NULL;
    if ((work = empty(6, n = L + 1, f64, &y)) != NULL /* y = (op, om), then the stages */
        && (samples = empty(steps / every + 1, n, f64, &s)) != NULL) {
        double *k1 = y + n, *k2 = k1 + n, *k3 = k2 + n, *k4 = k3 + n, *t = k4 + n;
        double half = 0.5 * dt, sixth = dt / 6.0, *const *c = d + 1;
        y[0] = op;
        memcpy(y + 1, d[0], L * sizeof(double));
        memcpy(s, y, n * sizeof(double));
        for (step = 1; step <= steps && !blow; step++) {
            k1[0] = dashed(c, y[0], y + 1, k1 + 1, L);
            for (i = 0; i < n; i++) t[i] = y[i] + half * k1[i];
            k2[0] = dashed(c, t[0], t + 1, k2 + 1, L);
            for (i = 0; i < n; i++) t[i] = y[i] + half * k2[i];
            k3[0] = dashed(c, t[0], t + 1, k3 + 1, L);
            for (i = 0; i < n; i++) t[i] = y[i] + dt * k3[i];
            k4[0] = dashed(c, t[0], t + 1, k4 + 1, L);
            for (i = 0; i < n; i++) {
                y[i] = y[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                if (!below_limit(y[i]))
                    blow = step;
            }
            if (step % every == 0)
                memcpy(s + n * (step / every), y, n * sizeof(double));
        }
        result = blow ? PyObject_CallFunction(blew_up, "l", blow) : Py_NewRef(samples);
    }
    for (int k = 0; k < 4; k++) Py_DECREF(a[k]);
    Py_XDECREF(work);
    Py_XDECREF(samples);
    return result;
}

#define METHOD(f) {#f, f, METH_VARARGS, "As chaoslab._kernels_py." #f "."}
static PyMethodDef methods[] = {
    METHOD(pdnls_rk4), METHOD(dashed_rk4), {NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "chaoslab._kernels",
                                    "Compiled lattice and dashed-line RK4 loops.", -1, methods};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *np = PyImport_ImportModule("numpy"), *m = NULL;
    PyObject *util = PyImport_ImportModule("chaoslab.util");
    if (np && util && (np_empty = PyObject_GetAttrString(np, "empty"))
        && (np_contiguous = PyObject_GetAttrString(np, "ascontiguousarray"))
        && (c128 = PyObject_GetAttrString(np, "complex128"))
        && (f64 = PyObject_GetAttrString(np, "float64"))
        && (check_schedule = PyObject_GetAttrString(util, "check_schedule"))
        && (check_state = PyObject_GetAttrString(util, "check_state"))
        && (blew_up = PyObject_GetAttrString(util, "blew_up"))
        && (m = PyModule_Create(&module))
        && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    Py_XDECREF(np);
    Py_XDECREF(util);
    return m;
}
