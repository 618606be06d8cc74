"""svlab: a numerical laboratory for heavy-tailed rectangular random matrices.

Sampling of polynomial-tail ensembles, verified singular value
decompositions, localization statistics of bottom singular vectors,
constructive upper certificates for the smallest singular value, and a
deterministic Monte Carlo sweep harness with analysis scans. Each
module's ``__all__`` is the one list of what it exports; the package
re-exports all of them.
"""

__version__ = "0.1.0"

from .ensemble import *  # noqa: E402,F401,F403
from .matrixio import *  # noqa: E402,F401,F403
from .spectra import *  # noqa: E402,F401,F403
from .localization import *  # noqa: E402,F401,F403
from .certificates import *  # noqa: E402,F401,F403
from .svgplot import *  # noqa: E402,F401,F403
from .experiments import *  # noqa: E402,F401,F403
