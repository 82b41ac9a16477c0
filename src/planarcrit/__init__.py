"""Critical-point statistics of smooth stationary isotropic planar Gaussian fields.

Closed-form first- and second-order theory (intensity, repulsion factor,
small-ball asymptotics), spectral Monte-Carlo simulation with analytic
derivatives, a Newton-based critical-point finder, empirical estimators,
and an exact-conditioning numeric Kac-Rice engine for 1- and 2-point
correlation functions of critical points by type.
"""

from . import estimators, finder, kacrice, models, sampling, theory
from .estimators import *  # noqa: F403
from .finder import *  # noqa: F403
from .kacrice import *  # noqa: F403
from .models import *  # noqa: F403
from .sampling import *  # noqa: F403
from .theory import *  # noqa: F403

__version__ = "0.1.0"

# Each module declares its public names once, in its __all__; the package
# re-exports them in layer order.
__all__ = [
    *models.__all__,
    *theory.__all__,
    *sampling.__all__,
    *finder.__all__,
    *kacrice.__all__,
    *estimators.__all__,
    "__version__",
]
