"""Exact zero-sum invariants of finite abelian groups.

Davenport and Narkiewicz constants, cross numbers over atoms and zero-sum
free multisets, and the maximum cross number over unique-factorization
multisets, computed exactly with witnesses, plus the matching closed-form
evaluators, extremal constructions, and a verification harness.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports those lists.
"""

from .atoms import *
from .constructions import *
from .errors import *
from .factorization import *
from .formulas import *
from .groups import *
from .invariants import *
from .multisets import *
from .search import *

__version__ = "0.1.0"

__all__ = [
    *atoms.__all__,
    *constructions.__all__,
    *errors.__all__,
    *factorization.__all__,
    *formulas.__all__,
    *groups.__all__,
    *invariants.__all__,
    *multisets.__all__,
    *search.__all__,
]
