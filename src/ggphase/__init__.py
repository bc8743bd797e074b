"""Geometric phases of quantum state chains and curves, generalized to an
arbitrary Hermitian observable, with the measurement, perturbation, and
scattering settings where those phases surface.

The package computes the phase of cyclic products of matrix elements
<psi_1|O|psi_2><psi_2|O|psi_3>...<psi_N|O|psi_1> and its continuum limit (a
generalized connection integrated along a curve), constructs the null curves
that turn open-path phases into loop holonomies, and reproduces the same
phase content in three dynamical guises: short-time projective-measurement
cycles, the third-order stationary energy shift, and the triple-product term
of the Born scattering series.

numpy is the only runtime dependency; the hot kernels are plain numpy.
"""

from . import curve, dynamics, errors, hilbert, perturbation, phase, scattering
from .errors import *
from .hilbert import *
from .phase import *
from .curve import *
from .dynamics import *
from .perturbation import *
from .scattering import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *hilbert.__all__,
    *phase.__all__,
    *curve.__all__,
    *dynamics.__all__,
    *perturbation.__all__,
    *scattering.__all__,
]
