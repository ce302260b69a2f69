/* Compiled lattice RK4 loop: chaoslab._kernels_py's pdnls_rk4, with its
 * arithmetic, blow-up rule, schedule, state and sample-array checks, in a C
 * loop.  It returns only the samples; at the first step that breaks the
 * blow-up rule it stops and calls chaoslab.util.blew_up, which raises
 * NumericError.  The right-hand sides stay numpy only.  The input goes
 * through numpy.ascontiguousarray(x, complex128), outputs come from
 * numpy.empty, and the items are read and written through the buffer
 * protocol.  A real times a complex value is the complex product with
 * (x, +0), as in numpy.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <complex.h>

typedef double complex cplx;
#define R(x) CMPLX((x), 0.0)

static PyObject *np_empty, *np_contiguous, *c128, *check_schedule, *check_state,
    *check_samples, *blew_up;

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

/* numpy.ascontiguousarray(obj, complex128). */
static PyObject *vector(PyObject *obj, void *data, Py_ssize_t *n)
{
    return items(PyObject_CallFunctionObjArgs(np_contiguous, obj, c128, NULL), 1, data, n);
}

/* A new numpy.empty((rows, n), complex128). */
static PyObject *empty(Py_ssize_t rows, Py_ssize_t n, void *data)
{
    return items(PyObject_CallFunction(np_empty, "(nn)O", rows, n, c128), 2, data, &rows);
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

static int samples_ok(long rows, Py_ssize_t n)
{
    PyObject *r = PyObject_CallFunction(check_samples, "ln", rows, n);
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
        || !schedule_ok(dt, steps, every) || (in = vector(obj, &q0, &n)) == NULL)
        return NULL;
    if (state_ok(n) && samples_ok(steps / every + 1, n)
        && (work = empty(6, n, &q)) != NULL
        && (samples = empty(steps / every + 1, n, &s)) != NULL) {
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

#define METHOD(f) {#f, f, METH_VARARGS, "As chaoslab._kernels_py." #f "."}
static PyMethodDef methods[] = {
    METHOD(pdnls_rk4), {NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "chaoslab._kernels",
                                    "Compiled lattice RK4 loop.", -1, methods};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *np = PyImport_ImportModule("numpy"), *m = NULL;
    PyObject *util = PyImport_ImportModule("chaoslab.util");
    if (np && util && (np_empty = PyObject_GetAttrString(np, "empty"))
        && (np_contiguous = PyObject_GetAttrString(np, "ascontiguousarray"))
        && (c128 = PyObject_GetAttrString(np, "complex128"))
        && (check_schedule = PyObject_GetAttrString(util, "check_schedule"))
        && (check_state = PyObject_GetAttrString(util, "check_state"))
        && (check_samples = PyObject_GetAttrString(util, "check_samples"))
        && (blew_up = PyObject_GetAttrString(util, "blew_up"))
        && (m = PyModule_Create(&module))
        && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    Py_XDECREF(np);
    Py_XDECREF(util);
    return m;
}
