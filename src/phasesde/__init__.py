"""Stochastic phase-space simulation of two coupled Kerr oscillators.

The package integrates the Ito stochastic equations of two anharmonically
self-interacting bosonic modes with a number-number coupling, in four
sampling methods: a hybrid that treats mode a symmetrically and mode b
normally ordered, a further-truncated variant of it, the doubled
normally-ordered method for both modes, and the truncated symmetric
method.  Exact closed-form expectations and an independent number-basis
evaluator serve as references, and ensemble results carry batch-based
error bars throughout.
"""

__version__ = "0.1.0"

from . import core, dynamics, integrator, oracle, representations, stats
from .core import *  # noqa: F403
from .representations import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .integrator import *  # noqa: F403
from .oracle import *  # noqa: F403
from .stats import *  # noqa: F403

__all__ = [
    "__version__",
    *core.__all__,
    *representations.__all__,
    *dynamics.__all__,
    *integrator.__all__,
    *oracle.__all__,
    *stats.__all__,
]
