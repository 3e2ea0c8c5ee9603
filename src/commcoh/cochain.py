"""Cochain spaces and differentials for the three complex flavors.

Cochains are coordinate vectors over (monomial basis x coefficient
basis), monomial-major with colexicographic monomial ranking, so every
matrix layout is deterministic.

Every matrix is built as a coordinate list: for all monomials at once,
numpy computes one (block row, block column) pair per term of the
defining formula, and BitMatrix.from_coords XOR-scatters the entries
into packed words.  A coordinate listed twice therefore cancels, as two
equal terms of a GF(2) sum do, and no dense matrix is ever allocated.
With m-dimensional coefficients each block coordinate expands to the
nonzeros of an m x m block: the action matrix rho(letter) for the
module terms, the identity for the others.

A coboundary is generated from the column side (_coboundary_coords):
given any set of cochain coordinates f, it lists the ones of each
d(e_f), a chunk of columns at a time, from the letter insertions and
from the nonzero brackets only (Bauer's implicit coboundary, "Ripser",
2021).  A tower (ComplexTower) is held as this generator: the Betti route
and the long exact sequence make T_n = (d^n)^T a weight part at a time
(cohomology._part_block), and differential packs d^n whole on request.

Words are held as int arrays, one letter per column, and ranked by
arithmetic rather than lookup (a_0 <= a_1 <= ... are the sorted letters):
  TENSOR  rank(w) = sum_i w_i d^i        (mixed radix; colex puts the
                                          last letter highest)
  EXT     rank(a) = sum_i C(a_i, i+1)    (combinatorial number system)
  SYM     rank(a) = sum_i C(a_i + i, i+1) (a_i + i strictly increases)
Canonicalising a word is a sort along its row; for EXT a word with two
equal letters has a zero class and its term is dropped.

Under a grading of (table, coefficients) (algebra.weight_grading) the
coordinate (u, m_b) has weight w(m_b) minus the weights of u's letters.
Every term of the formulas below keeps that weight, so every coboundary
is block-diagonal by weight class.

Flavors:
  SYM    -- functionals on symmetric powers; monomials are non-decreasing
            index tuples.  Needs a commutative Jacobi table.
  EXT    -- functionals on exterior powers; strictly increasing tuples.
            Needs an alternating Jacobi table, i.e. a Lie algebra.
  TENSOR -- functionals on full tensor powers; all tuples.  Needs a left
            Leibniz table.

The SYM and EXT differentials follow the classical formula with the
bracket inserted as first argument.  The TENSOR differential inserts
[x_i, x_j] in the slot of x_j; restricted to symmetric cochains the two
conventions agree, which is what makes the symmetric complex a
subcomplex of the tensor one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb

import numpy as np

from .algebra import BracketTable, ModuleSpec, check_module_axioms, classify_algebra, weight_grading
from . import gf2
from .gf2 import _COORD_BYTES, BitMatrix, _gather, _grouped, _runs, _word_count

__all__ = [
    "Flavor",
    "InclusionPair",
    "basis_tuples",
    "basis_dim",
    "monomial_rank",
    "PreconditionError",
    "insertion_matrix",
    "lie_derivative_matrix",
    "derivation_operator_matrix",
    "ComplexTower",
    "build_tower",
]


class Flavor(Enum):
    SYM = "sym"
    EXT = "ext"
    TENSOR = "tensor"


class InclusionPair(Enum):
    """The three subcomplex inclusions between the flavors."""

    EXT_IN_TENSOR = "ext-in-tensor"  # alternating cochains inside tensor ones
    EXT_IN_SYM = "ext-in-sym"  # alternating cochains inside symmetric ones
    SYM_IN_TENSOR = "sym-in-tensor"  # symmetric cochains inside tensor ones


# (sub flavor, total flavor) of each inclusion
INCLUSION_FLAVORS = {
    InclusionPair.EXT_IN_TENSOR: (Flavor.EXT, Flavor.TENSOR),
    InclusionPair.EXT_IN_SYM: (Flavor.EXT, Flavor.SYM),
    InclusionPair.SYM_IN_TENSOR: (Flavor.SYM, Flavor.TENSOR),
}


class PreconditionError(ValueError):
    """An algebra or module fails the axioms a flavor requires."""


@lru_cache(maxsize=None)
def basis_tuples(flavor: Flavor, d: int, n: int):
    if n == 0:
        return ((),)
    if flavor is Flavor.SYM:
        tuples = combinations_with_replacement(range(d), n)
    elif flavor is Flavor.EXT:
        tuples = combinations(range(d), n)
    else:
        tuples = product(range(d), repeat=n)
    return tuple(sorted(tuples, key=lambda t: t[::-1]))


def basis_dim(flavor: Flavor, d: int, n: int) -> int:
    if flavor is Flavor.SYM:
        return comb(d + n - 1, n) if d else int(n == 0)
    if flavor is Flavor.EXT:
        return comb(d, n)
    return d**n


@lru_cache(maxsize=None)
def monomial_rank(flavor: Flavor, d: int, n: int):
    return {t: i for i, t in enumerate(basis_tuples(flavor, d, n))}


def _monomials(flavor: Flavor, d: int, n: int) -> np.ndarray:
    """Degree-n basis monomials as the rows of an int array, in colex order."""
    if flavor is Flavor.TENSOR:
        return np.arange(d**n)[:, None] // d ** np.arange(n) % d
    monos = basis_tuples(flavor, d, n)
    return np.array(monos, dtype=np.int64).reshape(len(monos), n)


def _binom(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # tabulated by k and a - k, which _index keeps in a narrow band (-1 to d - 2 for SYM):
    # by a and k the table would hold central binomials past int64 on long words
    j = a - k
    lo, hi = int(j.min(initial=0)), int(j.max(initial=0))
    band = range(lo, hi + 1)
    table = [[comb(y + x, y) if x >= 0 else 0 for x in band] for y in range(int(k.max(initial=0)) + 1)]
    return np.array(table, dtype=np.int64)[k, j - lo]


def _index(flavor: Flavor, d: int, words: np.ndarray) -> np.ndarray:
    """Colex rank of each word's canonical monomial; -1 where its Ext class is zero."""
    slot = np.arange(words.shape[1])
    if flavor is Flavor.TENSOR:
        return words @ d**slot
    srt = np.sort(words, axis=1)
    if flavor is Flavor.SYM:
        return _binom(srt + slot, slot + 1).sum(axis=1)
    rank = _binom(srt, slot + 1).sum(axis=1)
    rank[(srt[:, 1:] == srt[:, :-1]).any(axis=1)] = -1
    return rank


def _kron_coords(rows: np.ndarray, cols: np.ndarray, m: int, blocks=None):
    """Entries of the m x m blocks at block coordinates (rows[i], cols[i]).

    Block i is blocks[i], or the identity when blocks is None.
    """
    if blocks is None:
        t = np.arange(m)
        return (rows[:, None] * m + t).ravel(), (cols[:, None] * m + t).ravel()
    i, a, b = np.nonzero(blocks)
    return rows[i] * m + a, cols[i] * m + b


def _block_matrix(shape, m: int, terms) -> BitMatrix:
    """Sum of block terms (rows, cols, blocks) on a grid of m x m blocks."""
    rows, cols = zip(*(_kron_coords(r, c, m, b) for r, c, b in terms))
    return BitMatrix.from_coords(shape[0] * m, shape[1] * m, np.concatenate(rows), np.concatenate(cols))


def _to_columns(flavor: Flavor, d: int, rows: np.ndarray, words: np.ndarray):
    """Identity block term from each row to its word's monomial, dropping zero Ext classes."""
    cols = _index(flavor, d, words)
    keep = cols >= 0
    return rows[keep], cols[keep], None


def _require_flavor(flavor: Flavor, table: BracketTable, coeffs: ModuleSpec):
    cls = classify_algebra(table)
    if flavor is Flavor.SYM and not (cls.commutative and cls.jacobi):
        missing = "commutative" if not cls.commutative else "jacobi"
        raise PreconditionError(f"sym flavor needs a commutative Jacobi table ({missing} fails)")
    if flavor is Flavor.EXT and not (cls.alternating and cls.jacobi):
        missing = "alternating" if not cls.alternating else "jacobi"
        raise PreconditionError(f"ext flavor needs a Lie table ({missing} fails)")
    if flavor is Flavor.TENSOR and not cls.left_leibniz:
        raise PreconditionError("tensor flavor needs a left Leibniz table")
    check = check_module_axioms(table, coeffs)
    if not check.ok:
        raise PreconditionError(f"coefficients fail axiom {check.axiom} at {check.pair}")


def _coboundary_coords(flavor, table, coeffs, n, cols):
    """The ones (i, r) of d(e_f) for the degree-n coordinates f = cols[i], a chunk of cols at a time.

    Each term of the coboundary formula is generated once, from the
    column side, so d is never scanned row by row:
      * a letter x inserted into f's monomial u, with the block rho(x);
      * a letter k of u replaced by a bracket [a, b] = k, with the
        identity.  Only the nonzero brackets are read.  For TENSOR, b
        takes k's slot and a goes into any slot up to it.
    For SYM and EXT the new word is sorted, and one term stands for as
    many equal terms of the row formula as the word has slots holding x
    (or slot pairs holding a and b, a <= b): it counts only when that
    multiplicity is odd, and an Ext word with a repeated letter is zero.
    A chunk holds as many columns as keep its terms to about
    RANK_BLOCK_BYTES of temporaries.  A coordinate listed twice stands
    for two equal terms, which cancel.
    """
    d, m = table.dim, coeffs.dim
    cols = np.asarray(cols, dtype=np.int64)
    ba, bb, bk = np.nonzero(table.c)
    if flavor is not Flavor.TENSOR:
        ba, bb, bk = (x[ba <= bb] for x in (ba, bb, bk))
    brackets = _grouped(bk, np.column_stack((ba, bb)), d)  # the pairs (a, b) of each k
    # act[x, b] flags the a of each one rho(x)[a, b]
    act = coeffs.rho.transpose(0, 2, 1).astype(bool)
    # about the terms of one column (fewer for SYM and EXT), times m * d, in
    # integers: an average column of rho at each of n + 1 slots, and an
    # average letter's brackets at each slot pair i <= p (TENSOR) or slot
    pairs = n * (n + 1) // 2 if flavor is Flavor.TENSOR else n
    md = max(m, 1) * max(d, 1)
    per_col = max(md, (n + 1) * int(act.sum()) * max(d, 1) + pairs * bk.size * max(m, 1))
    step = max(1, gf2.RANK_BLOCK_BYTES * md // (_COORD_BYTES * per_col))
    terms = _tensor_terms if flavor is Flavor.TENSOR else _sorted_terms
    for start in range(0, cols.size, step):
        mono, val = np.divmod(cols[start : start + step], m)
        i, r = (np.concatenate(x) for x in zip(*terms(flavor, d, n, mono, val, act, brackets)))
        yield i + start, r


def _tensor_terms(flavor, d, n, mono, val, act, brackets):
    """Terms (column, row) of the TENSOR coboundary, by rank arithmetic on the digits of mono."""
    m = act.shape[1]
    pw = d ** np.arange(n + 2)
    # x inserted at slot i: the low digits, x, then the high digits one slot up
    j, x, a = np.nonzero(act[:, val].transpose(1, 0, 2))
    low, high = mono[j, None] % pw[: n + 1], mono[j, None] // pw[: n + 1]
    rank = low + x[:, None] * pw[: n + 1] + high * pw[1:]
    yield np.repeat(j, n + 1), (rank * m + a[:, None]).ravel()
    # slot p holds k = [a, b]: b replaces it and a goes into a slot i <= p
    j, p = np.divmod(np.arange(mono.size * n), max(n, 1))
    k = mono[j] // pw[p] % d
    run, ab = _gather(brackets, k, np.arange(k.size))
    a, b = ab.T
    j, p, k = j[run], p[run], k[run]
    swapped = mono[j] + (b - k) * pw[p]
    run, i = _runs(p + 1)
    j, a, swapped = j[run], a[run], swapped[run]
    rank = swapped % pw[i] + a * pw[i] + swapped // pw[i] * pw[i + 1]
    yield j, rank * m + val[j]


def _sorted_terms(flavor, d, n, mono, val, act, brackets):
    """Terms (column, row) of the SYM or EXT coboundary, on the sorted words of mono."""
    m = act.shape[1]
    tuples = basis_tuples(flavor, d, n)
    u = np.array([tuples[c] for c in mono.tolist()], dtype=np.int64).reshape(mono.size, n)
    # x inserted: the new word holds x once more than u does
    even = (u[:, :, None] == np.arange(d)).sum(axis=1) % 2 == 0
    j, x, a = np.nonzero(act[:, val].transpose(1, 0, 2) & even[:, :, None])
    yield j, _index(flavor, d, np.column_stack([u[j], x])) * m + a
    # one slot of each distinct letter k of u, replaced by the pair a, b
    first = np.ones(u.shape, dtype=bool)
    first[:, 1:] = u[:, 1:] != u[:, :-1]
    j, p = np.nonzero(first)
    run, ab = _gather(brackets, u[j, p], np.arange(j.size))
    a, b = ab.T
    j, p = j[run], p[run]
    others = np.nonzero(np.arange(n) != np.arange(n)[:, None])[1].reshape(n, max(n - 1, 0))
    words = np.column_stack([u[j[:, None], others[p]], a, b])
    na, nb = ((words == v[:, None]).sum(axis=1) for v in (a, b))
    odd = np.where(a == b, na * (na - 1) // 2, na * nb) % 2 == 1
    j, rank = j[odd], _index(flavor, d, words[odd])
    yield j[rank >= 0], rank[rank >= 0] * m + val[j[rank >= 0]]


def _coordinate_weights(flavor, letters, values, n) -> np.ndarray:
    """Weight of each degree-n cochain coordinate (u, m_b): w(m_b) minus the weights of u's letters.

    letters and values are the grading of weight_grading; the rows come
    in coordinate order, monomial-major.
    """
    d = letters.shape[0]
    if flavor is Flavor.TENSOR:
        # sum over the digits of each rank, without the words themselves
        ranks = np.arange(d**n)
        total = np.zeros((ranks.size, letters.shape[1]), dtype=np.int64)
        for i in range(n):
            total += letters[ranks // d**i % d]
    else:
        total = letters[_monomials(flavor, d, n)].sum(axis=1)
    return (values[None, :, :] - total[:, None, :]).reshape(total.shape[0] * values.shape[0], letters.shape[1])


def insertion_matrix(flavor: Flavor, d: int, mdim: int, x, n: int) -> BitMatrix:
    """Insertion operator (i_x f)(args) = f(x, args): degree n to n-1."""
    x = np.asarray(x, dtype=np.uint8) & 1
    if n == 0:
        return BitMatrix.zeros(0, basis_dim(flavor, d, 0) * mdim)
    monos = _monomials(flavor, d, n - 1)
    us = np.flatnonzero(x)
    rows = np.repeat(np.arange(len(monos)), len(us))
    words = np.column_stack([np.tile(us, len(monos)), monos[rows]])
    terms = [_to_columns(flavor, d, rows, words)]
    return _block_matrix((len(monos), basis_dim(flavor, d, n)), mdim, terms)


def derivation_operator_matrix(
    flavor: Flavor, d: int, mdim: int, value_action, slot_action, n: int
) -> BitMatrix:
    """Operator f -> A f(.) + sum_i f(..., B x_i, ...) on degree-n cochains.

    value_action A acts on the coefficient space, slot_action B on the
    argument space; the Lie derivative and the induced actions of outer
    elements on a subalgebra complex are both instances.
    """
    a = np.asarray(value_action, dtype=np.uint8) & 1
    b = np.asarray(slot_action, dtype=np.uint8) & 1
    monos = _monomials(flavor, d, n)
    rows = np.arange(len(monos))
    terms = [(rows, rows, np.broadcast_to(a, (len(monos), mdim, mdim)))]
    for i in range(n):
        # f(..., B x_i, ...): column x_i of B gives the new letters
        hit, k = np.nonzero(b[:, monos[:, i]].T)
        arg = monos[hit]
        arg[:, i] = k
        terms.append(_to_columns(flavor, d, hit, arg))
    return _block_matrix((len(monos), len(monos)), mdim, terms)


def lie_derivative_matrix(
    flavor: Flavor, table: BracketTable, coeffs, x, n: int
) -> BitMatrix:
    """Lie derivative L_x on degree-n cochains."""
    _require_flavor(flavor, table, coeffs)
    x = np.asarray(x, dtype=np.uint8) & 1
    a = coeffs.action(x)
    # column j of the slot action is [x, b_j]
    b = (
        np.einsum("u,ujk->jk", x.astype(np.int64), table.c.astype(np.int64)) & 1
    ).T.astype(np.uint8)
    return derivation_operator_matrix(flavor, table.dim, coeffs.dim, a, b, n)


@dataclass(frozen=True)
class ComplexTower:
    """A truncated cochain complex, held by the column side of its differentials.

    d^n maps degree n to n+1 (none at the top, where no cohomology is
    reported).  ones(n, cols) gives the ones of d^n(e_f) for f in cols, a
    chunk at a time, and weights(n) each degree-n coordinate's weight: from
    the flavor's coboundary on (table, coeffs) here, from what a subclass
    holds otherwise.  differential(n) packs d^n whole on request, where the
    Betti route packs T_n by part; what is packed takes no part in equality."""

    dims: tuple
    flavor: Flavor | None
    label: str = ""
    table: BracketTable | None = None
    coeffs: ModuleSpec | None = None
    _packed: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def held(cls, dims, diffs, flavor=None, label: str = "") -> "ComplexTower":
        """The tower whose d^n is diffs[n]."""
        return _HeldTower(tuple(dims), flavor, label, _packed=dict(enumerate(diffs)))

    @property
    def n_max(self) -> int:
        return len(self.dims) - 1

    def ones(self, n: int, cols):
        return _coboundary_coords(self.flavor, self.table, self.coeffs, n, cols)

    def weights(self, n: int) -> np.ndarray:
        return _coordinate_weights(self.flavor, *weight_grading(self.table, self.coeffs), n)

    def differential(self, n: int) -> BitMatrix:
        if not 0 <= n < self.n_max:
            raise gf2.GF2Error(f"no differential d^{n} in a tower through degree {self.n_max}")
        if n not in self._packed:
            words = np.zeros((self.dims[n + 1], _word_count(self.dims[n])), dtype=np.uint64)
            for c, r in self.ones(n, np.arange(self.dims[n])):
                gf2._xor_scatter(words, r, c)
            self._packed[n] = BitMatrix(self.dims[n + 1], self.dims[n], words)
        return self._packed[n]

    @property
    def diffs(self) -> tuple:
        return tuple(self.differential(n) for n in range(self.n_max))

    def check_composition(self) -> bool:
        """True, or GF2Error naming the first n with d^{n+1} d^n != 0, one
        row block of d^{n+1} at a time; the routes check it as they rank."""
        diffs = self.diffs
        for n in range(len(diffs) - 1):
            if any(not (b @ diffs[n]).is_zero() for b in diffs[n + 1].row_blocks()):
                raise gf2.GF2Error(f"differentials do not square to zero at degree {n}")
        return True


class _HeldTower(ComplexTower):
    """A tower of held differentials: its ones are read off them, and it is one weight class."""

    def ones(self, n, cols):
        r, c = self._packed[n].take_columns(cols).coords()
        yield c, r

    def weights(self, n):
        return np.zeros((self.dims[n], 0), dtype=np.int64)


def build_tower(
    flavor: Flavor, table: BracketTable, coeffs, n_max: int, label: str = ""
) -> ComplexTower:
    """Cochain complex of (table, coeffs) through degree n_max; nothing is packed."""
    _require_flavor(flavor, table, coeffs)
    dims = tuple(basis_dim(flavor, table.dim, n) * coeffs.dim for n in range(n_max + 1))
    return ComplexTower(dims, flavor, label, table, coeffs)
