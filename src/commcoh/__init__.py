"""Exact GF(2) cohomology of commutative Lie and Leibniz algebras."""

from .algebra import (
    AlgebraClass,
    BracketTable,
    IdealVerdict,
    ModuleSpec,
    classify_algebra,
    is_ideal,
    leibniz_kernel,
    make_module,
    quotient_algebra,
)
from .cochain import ComplexTower, Flavor, InclusionPair, build_tower
from .cohomology import BettiTable, betti_table, cochain_betti_table
from .gf2 import BitMatrix, Subspace
from .spectral import (
    FilteredTower,
    compute_pages,
    convergence_check,
    e2_closed_form_check,
    subalgebra_filtration,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraClass",
    "BettiTable",
    "BitMatrix",
    "BracketTable",
    "ComplexTower",
    "FilteredTower",
    "Flavor",
    "IdealVerdict",
    "InclusionPair",
    "ModuleSpec",
    "Subspace",
    "betti_table",
    "cochain_betti_table",
    "build_tower",
    "classify_algebra",
    "compute_pages",
    "convergence_check",
    "e2_closed_form_check",
    "is_ideal",
    "leibniz_kernel",
    "make_module",
    "quotient_algebra",
    "subalgebra_filtration",
    "__version__",
]
