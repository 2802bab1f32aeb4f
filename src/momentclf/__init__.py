"""Binary linear classifiers trained by directly minimizing closed-form
Gaussian-moment expressions for expected prediction error and expected
ranking loss, with surrogate and discriminant baselines and a benchmark
harness.

Each module's __all__ is the one list of its public names; the package
re-exports them all.
"""

# importing a submodule also binds its name here, as __all__ below uses
from .errors import *
from .moments import *
from .model import *
from .objectives import *
from .surrogates import *
from .optimizer import *
from .metrics import *
from .data import *
from .harness import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *moments.__all__, *model.__all__, *objectives.__all__,
    *surrogates.__all__, *optimizer.__all__, *metrics.__all__, *data.__all__,
    *harness.__all__, "__version__",
]
