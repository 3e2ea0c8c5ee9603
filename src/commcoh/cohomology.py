"""Cohomology of a cochain tower: Betti tables, representatives, induced maps."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BracketTable
from .cochain import (
    ComplexTower,
    Flavor,
    _differential,
    _differential_blocks,
    _require_flavor,
    basis_dim,
)
from .gf2 import (
    BitMatrix,
    GF2Error,
    QuotientCoords,
    Subspace,
    _int_words,
    _kept_rows,
    image,
    induced_map,
    kernel_basis,
)

__all__ = [
    "BettiTable",
    "cycles",
    "boundaries",
    "betti_table",
    "cochain_betti_table",
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
    return image(tower.differential(n - 1))


def _checked_rank(blocks, below, n: int) -> int:
    """Rank of d^{n+1} from its row blocks (bottom to top), checked to vanish on d^n = below (if any).

    The check runs on the rows the echelon keeps, a basis of the row
    space, so they vanish on d^n exactly when every row does.  The rows
    each block adds are checked right after it.
    """
    top = {}
    for kept in _kept_rows(blocks, top):
        if below is not None:
            rows = BitMatrix(len(kept), below.rows, _int_words(kept, len(kept), below.rows))
            if not (rows @ below).is_zero():
                raise GF2Error(f"differentials do not square to zero at degree {n}")
    return len(top)


def _betti(label, flavor, dims, degrees) -> BettiTable:
    """Betti table from (row blocks of d^n bottom to top, d^{n-1} or None) for n = 0, 1, ...

    d^n d^{n-1} = 0 is checked on the basis rows the echelon of d^n
    keeps, as each block adds them, so a failing check names its degree
    on every route.  The echelon is dropped before d^{n+1} is built.
    """
    betti, prev_rank = [], 0
    for n, (blocks, below) in enumerate(degrees):
        rank = _checked_rank(blocks, below, n - 1)
        betti.append(dims[n] - rank - prev_rank)
        prev_rank = rank
    return BettiTable(label, flavor, tuple(betti))


def betti_table(tower: ComplexTower) -> BettiTable:
    """Exact cohomology dimensions for degrees 0 .. n_max - 1.

    The final degree is excluded: its outgoing differential is unknown.
    A tower whose consecutive differentials do not compose to zero is an
    upstream axiom violation and is rejected.
    """
    degrees = zip((d.row_blocks() for d in tower.diffs), (None,) + tower.diffs)
    return _betti(tower.label, tower.flavor, tower.dims, degrees)


def cochain_betti_table(
    flavor: Flavor, table: BracketTable, coeffs, n_max: int, label: str = ""
) -> BettiTable:
    """betti_table(build_tower(...)) without holding the tower.

    d^n is kept packed only until the echelon of d^{n+1} has been checked
    against it, and the top coboundary is never whole: its row blocks go
    straight from the builder into its echelon, bottom block first.  The
    check d^{n+1} d^n = 0 runs on the basis rows that echelon keeps.
    """
    _require_flavor(flavor, table, coeffs)
    dims = tuple(basis_dim(flavor, table.dim, n) * coeffs.dim for n in range(n_max + 1))

    def degrees():
        below = None
        for n in range(n_max - 1):
            diff = _differential(flavor, table, coeffs, n)
            yield diff.row_blocks(), below
            below = diff
        if n_max:
            yield _differential_blocks(flavor, table, coeffs, n_max - 1), below

    return _betti(label, flavor, dims, degrees())


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
        h = QuotientCoords(z, b)
        return induced_map(op, h, h)
    except GF2Error as exc:
        raise GF2Error(f"operator does not act on H^{n}: {exc}") from exc
