"""Backend selection for the hot kernels.

The compiled extension is preferred when present; the pure numpy fallback is
used otherwise, or when CHAOSLAB_PURE_PYTHON=1 is set in the environment.
Both expose the lattice and dashed-line kernels with identical semantics
(see benchmarks/bench_kernels.py for a side-by-side timing).  The Galerkin
convolution galerkin_rhs has one implementation, in chaoslab._kernels_py,
bound here for both backends: from a crossover box up it runs on FFTs over a
grid zero-padded to n >= 3*box+1 points per side, below it on dense tables.
The numpy pdnls_rhs gathers the periodic neighbours through index arrays
cached per lattice size, with the arithmetic of np.roll, so both backends
keep their agreement.  The numpy pdnls_rk4 and dashed_rk4 run on the shared
driver chaoslab.util.rk4; the compiled ones are fused loops with the same
blow-up rule but no check of the step schedule, so callers validate it with
chaoslab.util.check_schedule.
"""

import os

from . import _kernels_py

if os.environ.get("CHAOSLAB_PURE_PYTHON") == "1":
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND: str = _impl.BACKEND

galerkin_rhs = _kernels_py.galerkin_rhs
pdnls_rhs = _impl.pdnls_rhs
pdnls_rk4 = _impl.pdnls_rk4
dashed_rhs = _impl.dashed_rhs
dashed_rk4 = _impl.dashed_rk4
