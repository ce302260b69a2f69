"""chaoslab: desk-scale numerics for vorticity spectra, lattice NLS chaos,
Lax pair and Darboux verification, and shadowing machinery.

Subpackages follow the problem areas: ``fourier`` (mode arithmetic, the
truncated quadratic vorticity system, periodic-grid calculus), ``spectra``
(decoupled class operators and continued-fraction eigenvalues),
``dashed_line`` (the five-dashed coupling model and its closed-form
connecting orbits), ``nls`` (the perturbed lattice Schroedinger system and
its saddle diagnostics), ``laxpairs`` and ``darboux`` (operator pairs and
transforms on periodic grids), and ``shadowing`` (pseudo-orbits, Newton
shadow solving, dichotomy estimates).  ``chaoslab.cli`` provides the command
line front end; ``chaoslab.kernels.BACKEND`` names the active
implementation of the lattice RK4 loop ("compiled" or "python").
"""

__version__ = "0.1.0"

from .errors import ChaoslabError, NumericError, PreconditionError
from .kernels import BACKEND

__all__ = [
    "BACKEND",
    "ChaoslabError",
    "NumericError",
    "PreconditionError",
    "__version__",
]
