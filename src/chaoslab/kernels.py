"""Backend selection for the lattice RK4 loop pdnls_rk4: the compiled
chaoslab._kernels, built from _kernels.c, when it imports, else the numpy
twin in chaoslab._kernels_py, with the same signature, arithmetic, blow-up
rule and schedule check.  Both return only the samples and report a blow-up
by raising NumericError from chaoslab.util.blew_up.  The dashed-line loop
dashed_rk4 and the right-hand sides galerkin_rhs and pdnls_rhs have one
implementation, in _kernels_py, on every backend."""

from ._kernels_py import dashed_rk4, galerkin_rhs, pdnls_rhs

try:
    from ._kernels import BACKEND, pdnls_rk4
except ImportError:
    from ._kernels_py import BACKEND, pdnls_rk4
