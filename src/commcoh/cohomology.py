"""Cohomology of a cochain tower: Betti tables, representatives, induced maps.

Betti numbers come from ranks, on one route for every tower
(betti_table).  It ranks generated transposed coboundaries: row f of
T_n is d(e_f), the coboundary of the f-th basis cochain of C^n, so T_n
is d^n transposed.  Under the finest grading of (table, coefficients)
(algebra.weight_grading) every coboundary keeps the weight, so a tower
is the direct sum of its weight classes (Fuks, "Cohomology of
Infinite-Dimensional Lie Algebras", 1986).  _weight_parts cuts the
classes of all degrees into parts: one class, or a run of consecutive
classes whose blocks of T_n each fit RANK_BLOCK_BYTES packed.  A tower
with no grading (a table without one, held differentials) is one part
on the same route.  _part_block generates T_n on a part from the part's
coordinates alone (ComplexTower.ones); a one outside its row's class is
an internal error naming its degree.  The long exact sequence
(comparison) and the spectral pairing (spectral) read the same parts
and blocks.

betti_table sweeps each part up the degrees, and each degree clears the
next (Chen & Kerber, "Persistent homology computation with a twist",
2011).  A kept row of the echelon of T_{n-1} is a coboundary whose
leading column is some f, so once d^n d^{n-1} = 0, d(e_f) is a sum of
later rows of T_n and row f is left out of its echelon.  The square is
checked first, as K @ T_n = 0 with K the kept rows of T_{n-1} (a basis
of im d^{n-1} on the part), so the check is complete.  A part stops at
its first failed square, and the table raises after the sweep, naming
the lowest failed degree.  The rows left go bottom-up through gf2's one
kernel (_cleared, gf2._rows_up, gf2._echelon).  The long exact sequence
runs the same reduction with each row carrying its combination (de
Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
(co)homology", 2011): the rows whose own bits cancel leave cycles below
lim; with the kept rows of T_{n-1} they are a basis of the cycles (_Classes).

Memory: a part's T_n is generated, checked, cleared, ranked and dropped
before the next block is made.  The sweep holds the class, part order
and position of every coordinate as int32, one part's block, and one
echelon.  The square check packs K a row block at a time, each block and
its product with T_n within RANK_BLOCK_BYTES.  After it only the pivots
of T_{n-1}'s echelon are read, as the cleared mask, so that echelon is
dropped before T_n's is built, and T_n's rows become ints one piece of
RANK_BLOCK_BYTES >> 3 at a time (gf2._rows_up).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cochain import ComplexTower
from . import gf2
from .gf2 import WORD_BITS, BitMatrix, GF2Error
from .gf2 import _block_rows, _echelon, _int_words, _reduce, _row_echelon, _rows_up, _substitute, _word_count, _xor_scatter

__all__ = [
    "BettiTable",
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


def _classes(weights: np.ndarray):
    """(keys, label): the distinct rows of weights as tuples, in lexicographic
    order, and the int32 class of each row, its index among the keys.

    One np.unique over a mixed-radix key, the first weight most significant.
    A key that would pass int64 is first replaced by its rank among the keys.
    """
    key = np.zeros(weights.shape[0], dtype=np.int64)
    for w in weights.T:
        w = w - w.min(initial=0)
        radix = int(w.max(initial=0)) + 1
        if int(key.max(initial=0)) + 1 > np.iinfo(np.int64).max // radix:
            key = np.unique(key, return_inverse=True)[1]
        key = key * radix + w
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    return [tuple(k) for k in weights[first].tolist()], label.astype(np.int32)


def _weight_parts(weights, top: int):
    """The weight parts of one or more towers in degrees 0 .. top, one part at a time.

    weights(m) gives the weights of the degree-m coordinates of each tower.
    The weight classes of all of them are ordered by their weight vectors,
    and a part is one class, or a run of consecutive classes whose
    part-local T_0 .. T_{top-1} are each at most RANK_BLOCK_BYTES packed in
    every tower.  A part is yielded as co[v][m], tower v in degree m:
    (coords, label, pos), the part's coordinates in increasing order, then
    the class and the position inside its part of every coordinate of the
    degree, int32 arrays shared by all parts.
    """
    labels = [[_classes(w) for w in weights(m)] for m in range(top + 1)]
    keys = sorted(set().union(*(k for row in labels for k, _ in row)))
    ids = {k: i for i, k in enumerate(keys)}
    labels = [[np.array([ids[k] for k in ks], dtype=np.int32)[lab] for ks, lab in row] for row in labels]
    # cum[m, v, k]: the coordinates of tower v in degree m in the classes before class k
    cum = np.array([[np.append(0, np.cumsum(np.bincount(lab, minlength=len(keys)))) for lab in row] for row in labels])
    bounds = [0]
    while bounds[-1] < len(keys):
        lo = bounds[-1]
        rows, cols = (cum[a:b, :, lo + 1 :] - cum[a:b, :, lo, None] for a, b in ((0, top), (1, top + 1)))
        nbytes = (rows * ((cols + WORD_BITS - 1) // WORD_BITS) * 8).max(axis=(0, 1), initial=0)  # grows with the run
        bounds.append(lo + max(1, int(np.searchsorted(nbytes, gf2.RANK_BLOCK_BYTES, "right"))))
    part = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))  # the part of each class
    spans = [[] for _ in range(cum.shape[1])]  # [v][m]: (label, order, pos)
    for m, row in enumerate(labels):
        for v, lab in enumerate(row):
            order = np.argsort(part[lab], kind="stable").astype(np.int32)  # part by part, increasing inside
            starts = cum[m, v, bounds]
            pos = np.empty_like(order)
            pos[order] = np.arange(lab.size) - np.repeat(starts[:-1], np.diff(starts))
            spans[v].append((lab, order, pos))
    for j in range(len(bounds) - 1):
        yield [[(order[cum[m, v, bounds[j]] : cum[m, v, bounds[j + 1]]], lab, pos)
                for m, (lab, order, pos) in enumerate(row)] for v, row in enumerate(spans)]


def _part_block(ones, n: int, lo, hi) -> BitMatrix:
    """T_n = (d^n)^T on one part, from its degree-n and degree-(n+1) entries
    lo and hi of _weight_parts: row i is d(e_f), f = lo coords[i], read off
    ones(n, cols), in the part's columns of degree n + 1.  A one outside its
    row's class is an internal error naming n."""
    (f, label, _), (cols, hi_label, hi_pos) = lo, hi
    home = label[f]
    words = np.zeros((f.size, _word_count(cols.size)), dtype=np.uint64)
    for i, r in ones(n, f):
        if not np.array_equal(hi_label[r], home[i]):
            raise GF2Error(f"coboundary of degree {n} crosses weight classes")
        _xor_scatter(words, i, hi_pos[r])
    return BitMatrix(f.size, cols.size, words)


def _squares_to_zero(below: dict, t: BitMatrix) -> bool:
    """Whether d^{n+1} d^n = 0 on a part: below is the echelon of T_n there, t is T_{n+1}."""
    kept = list(below.values())
    step = _block_rows(max(_word_count(t.rows), _word_count(t.cols)))  # rows of K, and of K @ T, at a time
    blocks = (kept[i : i + step] for i in range(0, len(kept), step))
    return all((BitMatrix(len(k), t.rows, _int_words(k, t.rows)) @ t).is_zero() for k in blocks)


def _cleared(t: BitMatrix, below: dict) -> np.ndarray:
    """The rows of T_n to reduce: all but those at the pivots of below, the echelon of T_{n-1}."""
    live = np.ones(t.rows, dtype=bool)
    live[[_word_count(t.rows) * WORD_BITS - h for h in below]] = False
    return live


def _part_ranks(ones, deg, top: int):
    """(rank of d^n on one part for n < top, and the lowest n with
    d^{n+1} d^n != 0 there, or None), from its entries deg of
    _weight_parts; the sweep stops at the first failed square."""
    ranks, below = [], {}  # below: the echelon of T_{n-1}
    for n in range(top):
        t = _part_block(ones, n, deg[n], deg[n + 1])
        if not _squares_to_zero(below, t):
            return ranks, n - 1
        live, below = _cleared(t, below), None  # T_{n-1}'s echelon goes before T_n's is built
        below = _row_echelon(t, live)
        ranks.append(len(below))
        del t  # before the next block is made
    return ranks, None


def betti_table(tower: ComplexTower) -> BettiTable:
    """Exact cohomology dimensions for degrees 0 .. n_max - 1, part by part
    (the module docstring); the final degree's outgoing differential is
    unknown.  Only part blocks are packed, and d d != 0 raises naming its
    lowest degree."""
    rank, failed = [0] * (tower.n_max + 1), []  # rank[n + 1]: the rank of d^n
    for (deg,) in _weight_parts(lambda n: (tower.weights(n),), tower.n_max):
        ranks, bad = _part_ranks(tower.ones, deg, tower.n_max)
        for n, r in enumerate(ranks, 1):
            rank[n] += r
        failed += [] if bad is None else [bad]
    if failed:
        raise GF2Error(f"differentials do not square to zero at degree {min(failed)}")
    betti = [tower.dims[n] - rank[n] - rank[n + 1] for n in range(tower.n_max)]
    return BettiTable(tower.label, tower.flavor, tuple(betti))


class _Classes:
    """H^n on one part from one reduction of T_n (gf2._echelon, carrying),
    below the echelon of T_{n-1} (the boundaries B) and top that of T_n.
    free lists, increasing, the pivots of the cycles Z outside B, and
    lifts holds, by bit length, Z's reduced echelon row at each, its
    class's canonical lift.  A row reduced at B's pivots (reduce) is a
    cycle when lifts reduce it to zero, a boundary when it is zero, and
    has its coset coordinates at free."""

    def __init__(self, t: BitMatrix, below: dict):
        self.n, self.below, w = t.rows, below, _word_count(t.rows) * WORD_BITS
        carried = (x << w | 1 << (w - 1 - f) for f, x in _rows_up(t, _cleared(t, below)))
        top, lim = {}, 1 << w  # row f carries e_f in its w low bits
        self.lifts = {x.bit_length(): x for x in _echelon(carried, top, lim) if x < lim}
        self.top = {h - w: top.pop(h) >> w for h in list(top)}  # each combination dropped as its row is cut from it
        self.bmask = sum(1 << (h - 1) for h in below)
        self.fmask = _substitute(self.lifts, dict(below), self.bmask) ^ self.bmask
        self.free = w - np.array(sorted(self.lifts, reverse=True), dtype=np.int64)

    @property
    def dim(self) -> int:
        return self.free.size

    def rows(self, ints) -> BitMatrix:
        return BitMatrix(len(ints), self.n, _int_words(ints, self.n))

    def lift_rows(self) -> BitMatrix:
        """The lifts, a row per coset coordinate."""
        return self.rows([self.lifts[h] for h in sorted(self.lifts, reverse=True)])

    def reduce(self, x: BitMatrix) -> list:
        return [_reduce(y, self.bmask, self.below) for _, y in _rows_up(x)][::-1]

    def cycles(self, reduced) -> bool:
        return not any(_reduce(y, self.fmask, self.lifts) for y in reduced)

    def coords(self, reduced) -> BitMatrix:
        return self.rows(reduced).take_columns(self.free)


def _induced(apply, dom: _Classes, cod: _Classes) -> BitMatrix:
    """The matrix, in coset coordinates, of the map from dom's cohomology to
    cod's that apply (rows to rows) induces; apply must carry cycles to
    cycles and boundaries to boundaries (checked, a row block at a time)."""
    basis = [*dom.below.values(), *(dom.lifts[h] for h in sorted(dom.lifts, reverse=True))]
    step = _block_rows(_word_count(max(dom.n, cod.n)))
    img = [y for i in range(0, len(basis), step) for y in cod.reduce(apply(dom.rows(basis[i : i + step])))]
    if not cod.cycles(img):
        raise GF2Error("induced_map: m does not map dom_a into cod_c")
    if any(img[: len(dom.below)]):
        raise GF2Error("induced_map: m does not map dom_b into cod_d")
    return cod.coords(img[len(dom.below) :]).transpose()


def _tower_classes(tower: ComplexTower, n: int) -> _Classes:
    """_Classes of a whole tower in degree n, as one part; GF2Error outside it."""
    t = tower.differential(n).transpose()
    below = _row_echelon(tower.differential(n - 1).transpose()) if n else {}
    if not _squares_to_zero(below, t):
        raise GF2Error(f"differentials do not square to zero at degree {n - 1}")
    return _Classes(t, below)


def cocycle_representatives(tower: ComplexTower, n: int) -> BitMatrix:
    """Deterministic representatives spanning a complement of im inside ker:
    the rows of ker's reduced echelon basis at its pivots outside im's."""
    return _tower_classes(tower, n).lift_rows()


def induced_map_on_cohomology(tower: ComplexTower, n: int, ops) -> list:
    """Matrices induced on H^n by chain-level operators of degree zero.

    Each operator must preserve cocycles and coboundaries (checked); the
    results live in the representative coordinates of
    cocycle_representatives, which are computed once for all of them.
    """
    tower.differential(n)  # outside the tower: raised unwrapped
    try:
        h = _tower_classes(tower, n)
        return [_induced(lambda x: x @ op.transpose(), h, h) for op in ops]
    except GF2Error as exc:
        raise GF2Error(f"operator does not act on H^{n}: {exc}") from exc
