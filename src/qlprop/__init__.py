"""Proposition calculus over finite semantic models.

The package evaluates three small languages against finite models: a
classical language with per-state extensions, a quantum language whose
connectives act on a subspace lattice, and an assertive language whose
formulas are justified or unjustified rather than true or false.

Each library layer lists its public names in its own ``__all__``; the
package gives them all, and its ``__all__`` is their concatenation.
"""

from . import (errors, hilbert, lattice, model, pragmatic, quantum,
               semantics, syntax)
from .errors import *  # noqa: F403
from .hilbert import *  # noqa: F403
from .lattice import *  # noqa: F403
from .model import *  # noqa: F403
from .pragmatic import *  # noqa: F403
from .quantum import *  # noqa: F403
from .semantics import *  # noqa: F403
from .syntax import *  # noqa: F403

__all__ = [name for layer in (errors, syntax, model, semantics, lattice,
                              hilbert, quantum, pragmatic)
           for name in layer.__all__]

__version__ = "0.1.0"
