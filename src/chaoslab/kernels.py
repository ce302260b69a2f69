"""Backend selection for the hot kernels.

The compiled extension is preferred when present; the pure numpy fallback is
used otherwise, or when CHAOSLAB_PURE_PYTHON=1 is set in the environment.
Both expose the same functions with identical semantics (see
benchmarks/bench_kernels.py for a side-by-side timing).  The numpy
pdnls_rk4 and dashed_rk4 run on the shared driver chaoslab.util.rk4; the
compiled ones are fused loops with the same blow-up rule but no check of
the step schedule, so callers validate it with chaoslab.util.check_schedule.
"""

import os

if os.environ.get("CHAOSLAB_PURE_PYTHON") == "1":
    from . import _kernels_py as _impl
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl

BACKEND: str = _impl.BACKEND

galerkin_rhs = _impl.galerkin_rhs
pdnls_rhs = _impl.pdnls_rhs
pdnls_rk4 = _impl.pdnls_rk4
dashed_rhs = _impl.dashed_rhs
dashed_rk4 = _impl.dashed_rk4
