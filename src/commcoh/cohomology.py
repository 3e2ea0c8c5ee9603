"""Cohomology of a cochain tower: Betti tables, representatives, induced maps.

Betti numbers come from ranks, on one route for every tower
(betti_table).  It ranks generated transposed coboundaries: row f of
T_n is d(e_f), the coboundary of the f-th basis cochain of C^n, so T_n
is d^n transposed.  Under the finest grading of (table, coefficients)
(algebra.weight_grading) every coboundary is block-diagonal by weight
class, and T_n is ranked as its class blocks T_n^W, each as wide as one
class of C^{n+1}.  A tower with no grading (a table without one, held
differentials) is one class: the same route with one block.  The rows of
T_n^W are generated directly, from the coordinates of W alone
(ComplexTower.ones); a one that crosses classes is an internal error
naming its degree.

Degrees go up, and each clears the next (Chen & Kerber, "Persistent
homology computation with a twist", 2011).  A kept row of the echelon
of T_{n-1}^W is a coboundary whose leading column is some f, so once
d^n d^{n-1} = 0, d(e_f) is a sum of later rows of T_n^W and row f is
left out of its echelon.  The square is checked first, on every class,
as K @ T_n^W = 0, where K holds the kept rows of T_{n-1}^W (a basis of
im d^{n-1} in the class) and T_n^W still has the cleared rows: the
check is complete and a failure names its degree.  The rows left then
enter _echelon bottom-up, one row block of ints at a time.

Memory: each class of C^n in turn (or a group of consecutive small
classes, up to RANK_BLOCK_BYTES packed) is generated, checked, cleared,
ranked and dropped before the next one is made.  Degree n holds the
weight classes of C^n and C^{n+1}, the kept rows of T_{n-1} not yet
used, the kept rows of T_n so far (none at the top degree), and one
group's packed blocks with the echelon of one class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cochain import ComplexTower
from . import gf2
from .gf2 import (
    WORD_BITS,
    BitMatrix,
    GF2Error,
    QuotientCoords,
    Subspace,
    _int_words,
    _row_echelon,
    _runs,
    _word_count,
    image,
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
    """ker d^n as a canonical subspace of the degree-n cochain space; GF2Error outside the tower."""
    return kernel_basis(tower.differential(n))


def boundaries(tower: ComplexTower, n: int) -> Subspace:
    """im d^{n-1} as a canonical subspace of the degree-n cochain space."""
    if not 0 <= n <= tower.n_max:
        raise GF2Error(f"no boundaries at degree {n} in a tower through degree {tower.n_max}")
    if n == 0:
        return Subspace.zero(tower.dims[0])
    return image(tower.differential(n - 1))


@dataclass(frozen=True)
class _Classes:
    """The weight classes of one cochain space."""

    ids: dict  # weight tuple -> class
    label: np.ndarray  # class of each coordinate
    local: np.ndarray  # index of each coordinate inside its class
    sizes: np.ndarray


def _classes(weights: np.ndarray) -> _Classes:
    """Classes of the coordinates whose weights are the rows of weights.

    The labels follow the weights in lexicographic order: one np.unique
    over a mixed-radix key, the first weight most significant.  A key
    that would pass int64 is first replaced by its rank among the keys.
    """
    key = np.zeros(weights.shape[0], dtype=np.int64)
    for w in weights.T:
        w = w - w.min(initial=0)
        radix = int(w.max(initial=0)) + 1
        if int(key.max(initial=0)) + 1 > np.iinfo(np.int64).max // radix:
            key = np.unique(key, return_inverse=True)[1]
        key = key * radix + w
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    sizes = np.bincount(label, minlength=first.size)
    order = np.argsort(label, kind="stable")
    local = np.empty_like(label)
    local[order] = _runs(sizes)[1]
    return _Classes({tuple(k): i for i, k in enumerate(weights[first].tolist())}, label, local, sizes)


def _class_blocks(coords, lo: _Classes, hi: _Classes, n: int):
    """(class W' of C^{n+1}, T_n^W) for each class W of C^n in turn, made a group of classes at a time.

    W' has W's weight, or is -1 with T_n^W zero columns wide.  coords(f)
    gives the ones (i, r) of d(e_f) for the coordinates f[i].  A group is
    one class, or consecutive classes of at most RANK_BLOCK_BYTES packed;
    its blocks are slices of one word buffer, filled from its own
    coordinates only, and made when the consumer reaches its first class.
    """
    match = np.array([hi.ids.get(k, -1) for k in lo.ids], dtype=np.int64)
    widths = np.append(hi.sizes, 0)[match]
    nw = (widths + WORD_BITS - 1) // WORD_BITS
    nbytes = lo.sizes * nw * 8
    order = np.argsort(lo.label, kind="stable")  # the coordinates class by class
    bounds = np.append(0, np.cumsum(lo.sizes))
    v = 0
    while v < match.size:
        e, total = v + 1, nbytes[v]
        while e < match.size and total + nbytes[e] <= gf2.RANK_BLOCK_BYTES:
            total += nbytes[e]
            e += 1
        ends = np.cumsum(lo.sizes[v:e] * nw[v:e])
        starts = ends - lo.sizes[v:e] * nw[v:e]
        words = np.zeros(int(ends[-1]), dtype=np.uint64)
        f = order[bounds[v] : bounds[e]]
        home = lo.label[f]  # the class of each row
        row_word = starts[home - v] + lo.local[f] * nw[home]  # where each row starts
        for i, r in coords(f):
            if not np.array_equal(match[home[i]], hi.label[r]):
                raise GF2Error(f"coboundary of degree {n} crosses weight classes")
            col = hi.local[r]
            bits = np.left_shift(np.uint64(1), (col % WORD_BITS).astype(np.uint64))
            np.bitwise_xor.at(words, row_word[i] + col // WORD_BITS, bits)
        for w, k, width, m, a, b in zip(match[v:e], lo.sizes[v:e], widths[v:e], nw[v:e], starts, ends):
            yield int(w), BitMatrix(int(k), int(width), words[a:b].reshape(int(k), int(m)))
        del words  # before the next group's buffer is made
        v = e


def _check_square(below: dict, t: BitMatrix, n: int) -> None:
    """Raise unless d^{n+1} d^n = 0 on a class: below is the echelon of T_n^W, t is T_{n+1}^W."""
    kept = list(below.values())
    step = max(1, gf2.RANK_BLOCK_BYTES // max(1, 8 * _word_count(t.rows)))
    for i in range(0, len(kept), step):
        rows = kept[i : i + step]
        k = BitMatrix(len(rows), t.rows, _int_words(rows, t.rows))
        if not (k @ t).is_zero():
            raise GF2Error(f"differentials do not square to zero at degree {n}")


def _class_ranks(blocks, below: dict, n: int, keep: bool):
    """(rank of d^n, {class of C^{n+1}: echelon of T_n^W}) from the class blocks of T_n, one at a time.

    below maps each class of C^n to the echelon of T_{n-1} in its columns;
    each entry goes once its class is ranked.  The echelons are kept for
    the next degree only when keep is set.
    """
    rank, kept, v = 0, {}, -1
    for w, t in blocks:  # not enumerate, whose result tuple would hold t while the next group is made
        v += 1
        live, rows = None, below.pop(v, None)
        if rows:
            _check_square(rows, t, n - 1)
            width = _word_count(t.rows) * WORD_BITS
            live = np.ones(t.rows, dtype=bool)
            live[[width - h for h in rows]] = False  # the pivot column of each kept row
        top = _row_echelon(t, live)
        rank += len(top)
        if top and keep:
            kept[w] = top
        t = rows = top = None  # the block and its echelon go before the next group is made
    return rank, kept


def betti_table(tower: ComplexTower) -> BettiTable:
    """Exact cohomology dimensions for degrees 0 .. n_max - 1, class by class
    (the module docstring); the final degree's outgoing differential is
    unknown.  No differential is packed, and d d != 0 raises naming its degree."""
    betti, prev_rank, below = [], 0, {}
    lo = _classes(tower.weights(0))
    for n in range(tower.n_max):
        hi = _classes(tower.weights(n + 1))
        blocks = _class_blocks(partial(tower.ones, n), lo, hi, n)
        rank, below = _class_ranks(blocks, below, n, n + 1 < tower.n_max)
        betti.append(tower.dims[n] - rank - prev_rank)
        prev_rank, lo = rank, hi
    return BettiTable(tower.label, tower.flavor, tuple(betti))


def cocycle_representatives(tower: ComplexTower, n: int) -> BitMatrix:
    """Deterministic representatives spanning a complement of im inside ker."""
    qc = QuotientCoords(cycles(tower, n), boundaries(tower, n))
    return qc.lift_rows()


def induced_map_on_cohomology(tower: ComplexTower, n: int, ops) -> list:
    """Matrices induced on H^n by chain-level operators of degree zero.

    Each operator must preserve cocycles and coboundaries (checked); the
    results live in the representative coordinates of
    cocycle_representatives, which are computed once for all of them.
    """
    z, b = cycles(tower, n), boundaries(tower, n)
    try:
        h = QuotientCoords(z, b)
        return [induced_map(op, h, h) for op in ops]
    except GF2Error as exc:
        raise GF2Error(f"operator does not act on H^{n}: {exc}") from exc
