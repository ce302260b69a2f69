"""Backend selection for the two RK4 loops pdnls_rk4 and dashed_rk4: the
compiled chaoslab._kernels, built from _kernels.c, when it imports, else the
numpy twins in chaoslab._kernels_py, with the same signatures, arithmetic,
blow-up rule and schedule check.  Both return only the samples and report a
blow-up by raising NumericError from chaoslab.util.blew_up.  The right-hand
sides galerkin_rhs and pdnls_rhs have one implementation, in _kernels_py, on
every backend."""

from ._kernels_py import galerkin_rhs, pdnls_rhs

try:
    from ._kernels import BACKEND, dashed_rk4, pdnls_rk4
except ImportError:
    from ._kernels_py import BACKEND, dashed_rk4, pdnls_rk4
