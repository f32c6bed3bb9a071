"""Continuous-time quantum walk toolkit.

Builds weighted graphs (products, joins, cones), evaluates transfer
amplitudes under the adjacency Hamiltonian, and certifies perfect state
transfer exactly through strong cospectrality and eigenvalue phase
alignment.
"""

from . import cones, errors, expr, graphs, partitions, products, rationals, spectral, transfer
from .cones import *
from .errors import *
from .expr import *
from .graphs import *
from .partitions import *
from .products import *
from .rationals import *
from .spectral import *
from .transfer import *

__version__ = "0.1.0"

# the public names are the union of the modules' __all__ lists
__all__ = sorted(
    name
    for module in (cones, errors, expr, graphs, partitions, products, rationals, spectral, transfer)
    for name in module.__all__
)
