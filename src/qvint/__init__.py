"""qvint: exact desk-scale toolkit for secret-vector interpolation over finite fields.

Each module declares its own public names in its __all__; the package
re-exports them all."""

from . import census, complexity, domain, errors, field, simulator
from .census import *
from .complexity import *
from .domain import *
from .errors import *
from .field import *
from .simulator import *

__all__ = sorted(name for module in (census, complexity, domain, errors, field, simulator)
                 for name in module.__all__)

__version__ = "0.1.0"
