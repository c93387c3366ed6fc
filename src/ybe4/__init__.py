"""Unitary 4x4 solutions of the Yang-Baxter equation.

Construction of the five solution families, residual-based verification,
an eigenvalue filter for scanning candidate inventories, entanglement
classification of the resulting two-qubit gates, and the Kauffman-bracket
skein subfamily.

The package exports the ``__all__`` of errors, linalg, core, families,
classify and bracket, in that order, plus the matrix-file reader and writer
and ``__version__``; each module's ``__all__`` is the only list of its
public names.  ``ybe4.classify`` is the function, not the module.
"""

from importlib import import_module

from .errors import *
from .linalg import *
from .core import *
from .families import *
from .classify import *
from .bracket import *
from .matrixio import read_matrix_file, write_matrix_file

__version__ = "0.1.0"

__all__ = [
    name
    for module in ("errors", "linalg", "core", "families", "classify", "bracket")
    for name in import_module(f".{module}", __name__).__all__
] + ["read_matrix_file", "write_matrix_file", "__version__"]

del import_module  # only needed to build __all__
