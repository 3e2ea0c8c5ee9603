"""The row-oriented Betti route that the transposed weight blocks replaced.

Each coboundary d^n is held row-major and its rows enter one echelon
from the bottom up, one row block at a time.  The rows each block adds
to the echelon are checked against d^{n-1} right after it, so a failed
square d^n d^{n-1} != 0 names degree n - 1, as on the package's route.
There is no grading and no clearing: it is kept as the oracle of the
class route (betti_table).  The differentials come from pack_differential,
the packer that towers used before they were held by their generator; it
checks no axiom, so it packs any table, as unchecked_tower reads one.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np

from commcoh import gf2
from commcoh.cochain import ComplexTower, _coboundary_coords, _require_flavor, basis_dim
from commcoh.cohomology import BettiTable
from commcoh.gf2 import BitMatrix, GF2Error, _echelon, _int_words, _rows_up, _word_count


def pack_differential(flavor, table, coeffs, n) -> BitMatrix:
    """Degree-n coboundary, its columns' ones scattered into one word array a chunk at a time."""
    d, m = table.dim, coeffs.dim
    rows, cols = basis_dim(flavor, d, n + 1) * m, basis_dim(flavor, d, n) * m
    words = np.zeros((rows, _word_count(cols)), dtype=np.uint64)
    for c, r in _coboundary_coords(flavor, table, coeffs, n, np.arange(cols)):
        gf2._xor_scatter(words, r, c)
    return BitMatrix(rows, cols, words)


def _dims(flavor, table, coeffs, n_max: int) -> tuple:
    return tuple(basis_dim(flavor, table.dim, n) * coeffs.dim for n in range(n_max + 1))


def unchecked_tower(flavor, table, coeffs, n_max: int, label: str = "") -> ComplexTower:
    """build_tower without its axiom check: the flavor's generated tower on any table."""
    return ComplexTower(_dims(flavor, table, coeffs, n_max), flavor, label, table, coeffs)


def _checked_rank(diff: BitMatrix, below, n: int) -> int:
    """Rank of diff = d^{n+1}, its kept rows checked to vanish on below = d^n (if any)."""
    top = {}
    for block in diff.row_blocks():
        kept = len(top)
        deque(_echelon((x for _, x in _rows_up(block)), top), 0)
        new = list(islice(top.values(), kept, None))
        if below is not None and new:
            rows = BitMatrix(len(new), below.rows, _int_words(new, below.rows))
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


def flavor_table(flavor, table, coeffs, n_max: int, label: str = "") -> BettiTable:
    """The oracle of betti_table(build_tower(...)), from pack_differential."""
    _require_flavor(flavor, table, coeffs)
    diffs = (pack_differential(flavor, table, coeffs, n) for n in range(n_max))
    return row_betti(label, flavor, _dims(flavor, table, coeffs, n_max), diffs)
