"""The row-oriented Betti route that the transposed weight blocks replaced.

Each coboundary d^n is held row-major and its rows enter one echelon
from the bottom up, one row block at a time.  The rows each block adds
to the echelon are checked against d^{n-1} right after it, so a failed
square d^n d^{n-1} != 0 names degree n - 1, as on the package's route.
There is no grading and no clearing: it is kept as the oracle of the
class route (cochain_betti_table).  Explicit towers, ranked by rows as
they are held, are checked against that route by
test_matches_rank_of_built_tower.
"""

from __future__ import annotations

from itertools import islice

from commcoh.cochain import _differential, _require_flavor, basis_dim
from commcoh.cohomology import BettiTable
from commcoh.gf2 import BitMatrix, GF2Error, _echelon, _int_rows, _int_words


def _checked_rank(diff: BitMatrix, below, n: int) -> int:
    """Rank of diff = d^{n+1}, its kept rows checked to vanish on below = d^n (if any)."""
    top = {}
    for block in diff.row_blocks():
        kept = len(top)
        _echelon(reversed(_int_rows(block.words)), top)
        new = list(islice(top.values(), kept, None))
        if below is not None and new:
            rows = BitMatrix(len(new), below.rows, _int_words(new, len(new), below.rows))
            if not (rows @ below).is_zero():
                raise GF2Error(f"differentials do not square to zero at degree {n}")
    return len(top)


def row_betti(label, flavor, dims, diffs) -> BettiTable:
    """Betti table of degrees 0 .. len(diffs) - 1 from the whole differentials."""
    betti, prev_rank, below = [], 0, None
    for n, diff in enumerate(diffs):
        rank = _checked_rank(diff, below, n - 1)
        betti.append(dims[n] - rank - prev_rank)
        prev_rank, below = rank, diff
    return BettiTable(label, flavor, tuple(betti))


def betti_table(tower) -> BettiTable:
    return row_betti(tower.label, tower.flavor, tower.dims, tower.diffs)


def cochain_betti_table(flavor, table, coeffs, n_max: int, label: str = "") -> BettiTable:
    _require_flavor(flavor, table, coeffs)
    dims = tuple(basis_dim(flavor, table.dim, n) * coeffs.dim for n in range(n_max + 1))
    diffs = (_differential(flavor, table, coeffs, n) for n in range(n_max))
    return row_betti(label, flavor, dims, diffs)
