"""Backend selection for the hot kernels: the compiled chaoslab._kernels, built
from _kernels.c, when it imports, else the numpy twins in chaoslab._kernels_py,
with the same signatures, arithmetic, blow-up rule and schedule check.  The
Galerkin convolution galerkin_rhs has one implementation, in _kernels_py."""

from ._kernels_py import galerkin_rhs

try:
    from ._kernels import BACKEND, dashed_rhs, dashed_rk4, pdnls_rhs, pdnls_rk4
except ImportError:
    from ._kernels_py import BACKEND, dashed_rhs, dashed_rk4, pdnls_rhs, pdnls_rk4
