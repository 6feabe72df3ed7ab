"""sepsym: a numerical laboratory for separating hierarchies of
non-linear Schrodinger-type evolutions and their symmetries.

``import sepsym`` imports no submodule; names are imported from their
modules, as in ``from sepsym.hierarchy import Hierarchy``.
"""

__version__ = "0.1.0"
