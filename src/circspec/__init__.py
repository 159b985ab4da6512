"""Spectral methods on periodic function spaces.

Finite-section and collocation solvers for periodic differential equations,
a singular-integral-equation solver for scalar Riemann-Hilbert problems on
the unit circle, eigenvalue approximation for self-adjoint periodic
operators, and a convergence-measurement harness with a CLI.

The package exports the union of the public modules' __all__ lists.
"""

from . import fourier, harness, linsolve, ode, operators, rhp, spectrum
from .fourier import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .linsolve import *  # noqa: F401,F403
from .ode import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .rhp import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

_MODULES = (fourier, operators, linsolve, ode, rhp, spectrum, harness)
__all__ = list(dict.fromkeys(name for module in _MODULES for name in module.__all__))

__version__ = "0.1.0"
