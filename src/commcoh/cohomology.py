"""Cohomology of a cochain tower: Betti tables, representatives, induced maps."""

from __future__ import annotations

from dataclasses import dataclass

from .cochain import ComplexTower
from .gf2 import (
    BitMatrix,
    GF2Error,
    QuotientCoords,
    Subspace,
    apply_to_subspace,
    induced_map,
    kernel_basis,
)

__all__ = [
    "BettiTable",
    "cycles",
    "boundaries",
    "betti_table",
    "cocycle_representatives",
    "induced_map_on_cohomology",
]


@dataclass(frozen=True)
class BettiTable:
    label: str
    flavor: object
    dims: tuple  # degrees 0 .. n_max - 1

    def __getitem__(self, n: int) -> int:
        return self.dims[n]

    def __len__(self) -> int:
        return len(self.dims)


def cycles(tower: ComplexTower, n: int) -> Subspace:
    """ker d^n as a canonical subspace of the degree-n cochain space."""
    if not 0 <= n < tower.n_max:
        raise GF2Error("cycles: degree out of the reliable range")
    return kernel_basis(tower.differential(n))


def boundaries(tower: ComplexTower, n: int) -> Subspace:
    """im d^{n-1} as a canonical subspace of the degree-n cochain space."""
    if n == 0:
        return Subspace.zero(tower.dims[0])
    return apply_to_subspace(
        tower.differential(n - 1), Subspace.full(tower.dims[n - 1])
    )


def betti_table(tower: ComplexTower) -> BettiTable:
    """Exact cohomology dimensions for degrees 0 .. n_max - 1.

    The final degree is excluded: its outgoing differential is unknown.
    A tower whose consecutive differentials do not compose to zero is an
    upstream axiom violation and is rejected.
    """
    if not tower.check_composition():
        raise GF2Error("differentials do not square to zero")
    dims = []
    prev_rank = 0
    for n in range(tower.n_max):
        rank = tower.differential(n).rank()
        dims.append(tower.dims[n] - rank - prev_rank)
        prev_rank = rank
    return BettiTable(tower.label, tower.flavor, tuple(dims))


def cocycle_representatives(tower: ComplexTower, n: int) -> BitMatrix:
    """Deterministic representatives spanning a complement of im inside ker."""
    if not 0 <= n < tower.n_max:
        raise GF2Error("representatives: degree out of range")
    qc = QuotientCoords(cycles(tower, n), boundaries(tower, n))
    return qc.lift_rows()


def induced_map_on_cohomology(tower: ComplexTower, n: int, op: BitMatrix) -> BitMatrix:
    """Matrix induced on H^n by a chain-level operator of degree zero.

    The operator must preserve cocycles and coboundaries (checked); the
    result lives in the representative coordinates of
    cocycle_representatives.
    """
    z = cycles(tower, n)
    b = boundaries(tower, n)
    try:
        return induced_map(op, z, b, z, b)
    except GF2Error as exc:
        raise GF2Error(f"operator does not act on H^{n}: {exc}") from exc
