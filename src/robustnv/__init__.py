"""Robust newsvendor ordering under moment ambiguity and misspecification.

Closed-form single- and multi-product solvers, Wasserstein- and
total-variation-based variants, finite-sample calibration helpers, an
independent brute-force validation oracle, and an out-of-sample evaluation
harness with a command-line front end (``robustnv``).

Each module's ``__all__`` is the one list of the names it exports; the
package exports them all, in the order below.
"""

from ._version import __version__
from .single_product import *
from .portfolio import *
from .distances import *
from .calibration import *
from .evaluation import *
from .validation import *

__all__ = [
    *single_product.__all__,
    *portfolio.__all__,
    *distances.__all__,
    *calibration.__all__,
    *evaluation.__all__,
    *validation.__all__,
    "__version__",
]
