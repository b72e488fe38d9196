"""Measure how meaningful automatically discovered binary attributes are.

The package scores a set of discovered binary attributes by how well each
one can be reconstructed from a human-labelled meaningful set — either by
unconstrained least squares or by the best convex combination — and ships
the discovery baselines, benchmark protocols, and keyword tooling needed
to exercise that measure end to end.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import attributes, bench, discovery, keywords, subspace
from .attributes import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403
from .discovery import *  # noqa: F401,F403
from .keywords import *  # noqa: F401,F403
from .subspace import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *attributes.__all__,
    *subspace.__all__,
    *discovery.__all__,
    *bench.__all__,
    *keywords.__all__,
]
