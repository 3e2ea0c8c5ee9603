"""Exact GF(2) cohomology of commutative Lie and Leibniz algebras.

`import commcoh` loads no submodule, and so not numpy.  The public names
below and the submodules (`commcoh.comparison`, ...) are imported on
first access (PEP 562), so a command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "algebra": ("AlgebraClass", "BracketTable", "IdealVerdict", "ModuleSpec", "classify_algebra",
                "is_ideal", "leibniz_kernel", "make_module", "quotient_algebra"),
    "cochain": ("ComplexTower", "Flavor", "InclusionPair", "build_tower"),
    "cohomology": ("BettiTable", "betti_table"),
    "gf2": ("BitMatrix", "Subspace"),
    "spectral": ("FilteredTower", "compute_pages", "convergence_check", "e2_closed_form_check",
                 "subalgebra_filtration"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "catalog", "cli", "comparison"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
