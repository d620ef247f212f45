"""Verification tools for spectral non-concentration on bounded-degree graphs.

The library measures how much adjacency spectrum can sit in a window
[(1 - theta) x, x] near the top, checks the finite-parameter upper bound on
that mass, and exercises the machinery the bound is built from: r-nets and
the eigenvalue drop their removal causes, local-to-global trace bounds,
eigenvalue-count interlacing, a label-driven local net construction, and
return-probability asymptotics on regular trees against the Kesten-McKay
reference measure.

The public names are each submodule's ``__all__``, re-exported here.
"""

from . import bounds, families, graphs, localsim, nets, rng, spectral, walks
from .bounds import *
from .families import *
from .graphs import *
from .localsim import *
from .nets import *
from .rng import *
from .spectral import *
from .walks import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *graphs.__all__,
    *families.__all__,
    *spectral.__all__,
    *nets.__all__,
    *localsim.__all__,
    *bounds.__all__,
    *walks.__all__,
    *rng.__all__,
]
