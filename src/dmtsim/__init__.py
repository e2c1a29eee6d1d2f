"""Decoherence metric tensor simulations for dipole-coupled two-level atoms.

The package computes the time-dependent metric M(t) = 4 f(t) + 2 Phi(t) on
codeword space for atoms sharing a common black-body bath, covering direct
(observed-observed) and indirect (mediated by unobserved atoms) channels,
plus the lattice and gas coarse-grained scales and a Monte Carlo gas average.

Each submodule's __all__ names its public API; the package re-exports them.
"""

from . import asymptotics, cli, ensemble, geometry, kernels, metric, specfun
from .asymptotics import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from .ensemble import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .metric import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *specfun.__all__,
    *kernels.__all__,
    *geometry.__all__,
    *metric.__all__,
    *asymptotics.__all__,
    *ensemble.__all__,
    *cli.__all__,
]
