"""Spectral sequences of finitely filtered cochain towers.

Pages are computed from the filtration by one persistence pairing per
degree, never by transcribing hand identifications.  Each C^n gets a
basis adapted to its chain, every vector tagged with its filtration
level f; each differential, written in these bases, is reduced so that
it pairs sources with targets.  A pair of gap r = f(target) - f(source)
is d_r: both ends survive to E_r and die on E_{r+1}.  So dim E_r(p, q)
counts the level-p vectors of C^{p+q} outside pairs of gap below r, and
E_infinity the unpaired ones.  Closed forms are cross checks, so a
discrepancy with a pencil computation is surfaced rather than baked in.
Entries touching the truncation degree are excluded from convergence
checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, islice

import numpy as np

from .algebra import (
    BracketTable,
    ModuleSpec,
    SubalgebraSplit,
    change_basis,
    check_module_axioms,
    module_change_basis,
    quotient_algebra,
)
from .cochain import (
    ComplexTower,
    Flavor,
    _monomials,
    basis_dim,
    build_tower,
    derivation_operator_matrix,
)
from .cohomology import betti_table, cochain_betti_table, induced_map_on_cohomology
from .gf2 import RANK_BLOCK_BYTES, WORD_BITS, BitMatrix, GF2Error, Subspace, WordMap
from .gf2 import _echelon, _int_rows, _word_count

__all__ = [
    "FiltrationError",
    "FilteredTower",
    "Page",
    "subalgebra_filtration",
    "compute_pages",
    "infinity_entries",
    "ConvergenceReport",
    "convergence_check",
    "ClosedFormReport",
    "e2_closed_form_check",
]


class FiltrationError(ValueError):
    """A filtration violates boundary conventions or d-compatibility."""


@dataclass(frozen=True, eq=False)
class FilteredTower:
    """A cochain tower with a decreasing chain of class spans per degree.

    filt[n][p][i] is the leader (smallest member) of coordinate i's class
    in F^p C^n, or -1 where i lies outside F^p, which one indicator row
    per class spans.  filt[n] runs from the full space (arange) down to
    the zero space (all -1), each class a union of classes of the step
    before; this is checked when the tower is made.  Chains start at
    internal index 0; index_offset records the conventional starting index
    of the same chain (some filtrations are customarily written from 1).
    """

    tower: ComplexTower
    filt: tuple  # per degree: tuple of leader arrays, filt[n][0] full, last zero
    label: str = ""
    index_offset: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for n, chain in enumerate(self.filt):
            idx = np.arange(self.tower.dims[n])
            for p, lead in enumerate(chain):
                # a leader is its class's smallest member and leads itself
                ok = lead.shape == idx.shape and ((lead >= -1) & (lead <= idx)).all()
                if not (ok and np.array_equal(lead, np.where(lead < 0, -1, lead[lead]))):
                    raise FiltrationError(f"degree {n}: step {p} is not an array of class leaders")
                lead.setflags(write=False)  # checked once, so never changed
            if not np.array_equal(chain[0], idx):
                raise FiltrationError(f"degree {n}: chain does not start at the full space")
            if (chain[-1] >= 0).any():
                raise FiltrationError(f"degree {n}: chain does not end at zero")
            for p, (a, b) in enumerate(zip(chain, chain[1:])):
                if not np.array_equal(b, np.where(a < 0, -1, b[a])):
                    raise FiltrationError(f"degree {n}: chain not decreasing at step {p}")

    @property
    def n_max(self) -> int:
        return self.tower.n_max

    def step(self, n: int, p: int) -> np.ndarray:
        """F^p at degree n, clamped: full below the chain, zero above."""
        chain = self.filt[n]
        return chain[min(max(p, 0), len(chain) - 1)]

    def max_length(self) -> int:
        return max(len(chain) for chain in self.filt)


def validate_filtration(ft: FilteredTower) -> None:
    """Check that d maps each step into the same step one degree up.

    Read off d's coordinates: each one (r, c) with c in a class of F^p C^n
    gives the pair (r, leader of c's class), and the pairs of odd
    multiplicity are the ones of d applied to each class indicator.  Such
    an image lies in F^p C^{n+1} iff each of its rows is live there and,
    on each class there, it holds none or all of the class's members.
    """
    for n in range(ft.n_max):
        r, c = ft.tower.differential(n).coords()
        rows = ft.tower.dims[n + 1]
        for p, lead in enumerate(ft.filt[n]):
            up, hit = ft.step(n + 1, p), lead[c] >= 0
            pairs, mult = np.unique(lead[c[hit]] * rows + r[hit], return_counts=True)
            src, row = np.divmod(pairs[mult % 2 == 1], rows)
            tgt = up[row]
            # the odd rows of each (source class, target class), against the target's size
            keys, held = np.unique(src * rows + tgt, return_counts=True)
            size = np.bincount(up[up >= 0], minlength=rows)
            if not ((tgt >= 0).all() and np.array_equal(held, size[keys % rows])):
                raise FiltrationError(f"d F^{p} C^{n} not contained in F^{p} C^{n + 1}")


def subalgebra_filtration(
    table: BracketTable, h: Subspace, coeffs, n_max: int
) -> FilteredTower:
    """Filtration of the symmetric complex by the count of subalgebra slots.

    The complex is rebuilt in an adapted basis (h first); F^p C^n is then
    the span of coordinate functionals on monomials with at most n - p
    factors in the h block, i.e. the annihilator of the monomials with at
    least n - p + 1 such factors.  d-compatibility is verified.
    """
    split = quotient_algebra(table, h, require_ideal=False)
    t_ad = change_basis(table, split.adapted)
    m_ad = module_change_basis(coeffs, split.adapted)
    tower = build_tower(Flavor.SYM, t_ad, m_ad, n_max, label="adapted")
    filt = []
    for n in range(n_max + 1):
        # a span of coordinates, each its own class
        counts = (_monomials(Flavor.SYM, table.dim, n) < split.h_dim).sum(axis=1)
        counts, idx = counts.repeat(coeffs.dim), np.arange(counts.size * coeffs.dim)
        filt.append(tuple(np.where(counts <= n - p, idx, -1) for p in range(n + 2)))
    ft = FilteredTower(
        tower,
        tuple(filt),
        label=f"subalgebra-filtration[{split.verdict.value}]",
        meta={"split": split, "coeffs": coeffs, "table": table},
    )
    validate_filtration(ft)
    return ft


@dataclass(frozen=True)
class Page:
    r: int
    entries: dict  # (p, q) -> dimension
    ranks: dict  # (p, q) -> rank of d_r from (p, q) to (p + r, q - r + 1)
    stable: bool


def _adapted_basis(chain) -> tuple:
    """Adapted basis of one degree: (level of each row, basis, coords).

    Coordinate l leads one row, the indicator of its class in F^p, the
    last step it leads in; p is the row's level.  Leaders of F^{p+1} lead
    in F^p, so the rows of level >= p span F^p.  Rows run by level, then
    leader; basis is the int array pair (k, i) of the ones of the rows,
    row k holding coordinate i, sorted by k.  The WordMap coords writes
    y in this basis: y[l] + y[m] on the row of l, m the leader of l's
    class in F^{p+1} (y[l] if none), since y without its rows below level
    p takes y's leader values on F^p's classes.
    """
    steps, idx = np.stack(chain), np.arange(len(chain[0]))
    depth = (steps == idx).sum(axis=0) - 1  # the last step each coordinate leads in
    pivots = np.lexsort((idx, depth))
    row = np.empty_like(idx)
    row[pivots] = idx
    # the members of the classes that level p takes
    p, i = np.nonzero((steps >= 0) & (depth[steps] == np.arange(len(chain))[:, None]))
    k = row[steps[p, i]]
    order = np.argsort(k, kind="stable")
    up = steps[depth[pivots] + 1, pivots]  # no coordinate leads in the last step
    return depth[pivots].tolist(), (k[order], i[order]), WordMap(idx.size, idx.size, pivots, up)


def _grouped(keys, values, n: int) -> tuple:
    """values grouped by key (0 <= key < n, others dropped), as (starts, values):
    the values of key x are values[starts[x] : starts[x + 1]]."""
    keep = keys >= 0
    keys, values = keys[keep], values[keep]
    starts = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))
    return starts, values[np.argsort(keys, kind="stable")]


def _gather(grouped: tuple, keys, tags) -> tuple:
    """(tag, value) for each value grouped under keys[t], tagged tags[t]."""
    starts, values = grouped
    counts = starts[keys + 1] - starts[keys]
    first = np.repeat(starts[keys] - (np.cumsum(counts) - counts), counts)
    return np.repeat(tags, counts), values[first + np.arange(first.size)]


def _images(d: BitMatrix, basis: tuple, coords: WordMap):
    """The image under d of each basis row, in the target's coordinates
    coords, as an int (_int_rows), last row first.

    The images are E = coords @ d summed over each row's class.  E is read
    off d's ones: a one (r, c) lands in the row that r leads and in the
    rows whose deeper leader is r.  The images are packed one block of
    rows of about RANK_BLOCK_BYTES at a time, from the last row back, so
    no image matrix is held whole.
    """
    r, c = d.coords()
    lead = np.empty_like(coords.a)
    lead[coords.a] = np.arange(coords.rows)  # coords.a is a permutation
    bc, br = _gather(_grouped(coords.b, np.arange(coords.rows), d.rows), r, c)
    by_source = _grouped(np.concatenate((c, bc)), np.concatenate((lead[r], br)), d.cols)
    k, i = basis
    step = max(1, RANK_BLOCK_BYTES // max(1, _word_count(d.rows) * 8))
    for stop in range(d.cols, 0, -step):
        start = max(0, stop - step)
        lo, hi = np.searchsorted(k, (start, stop))
        rows, cols = _gather(by_source, i[lo:hi], k[lo:hi] - start)
        block = BitMatrix.from_coords(stop - start, d.rows, rows, cols)
        yield from reversed(_int_rows(block.words))


def _pairing(ft: FilteredTower) -> tuple:
    """Levels of the adapted basis of each C^n, and the pairs of each d^n.

    sizes[n] counts the basis rows of C^n per level; pairs[n] counts the
    pairs of d^n per (source level, target level).  Each source image is
    written in target coordinates, the highest bit at the lowest level,
    and the sources are eliminated by highest bit in decreasing level, so
    a source is reduced only by sources of its level or deeper and pairs
    with its image's lowest-level target (Edelsbrunner & Harer,
    Computational Topology, ch. VII).
    """
    bases = map(_adapted_basis, ft.filt)  # built as needed: two degrees are held at a time
    src_levels, src, _ = next(bases)
    sizes, pairs = [Counter(src_levels)], []
    for n in range(ft.n_max):
        tgt_levels, tgt, coords = next(bases)
        sizes.append(Counter(tgt_levels))
        width = _word_count(len(tgt_levels)) * WORD_BITS
        top, found = {}, Counter()
        deepest_first = zip(reversed(src_levels), _images(ft.tower.differential(n), src, coords))
        for f, group in groupby(deepest_first, key=lambda row: row[0]):
            size = len(top)
            _echelon((y for _, y in group), top)
            for h in islice(top, size, None):
                found[(f, tgt_levels[width - h])] += 1
        pairs.append(found)
        src, src_levels = tgt, tgt_levels
    return sizes, pairs


def _entries(sizes, pairs, r: int, n_max: int) -> tuple:
    """E_r entries and d_r ranks for p, q >= 0 with p + q < n_max.

    An entry counts the basis rows of its level and degree not in a pair
    of gap f(target) - f(source) below r; d_r pairs have gap exactly r.
    """
    entries, ranks = {}, {}
    for n in range(n_max):
        for p in range(n + 1):
            out = [(t - s, k) for (s, t), k in pairs[n].items() if s == p]
            into = [(t - s, k) for (s, t), k in pairs[n - 1].items() if t == p] if n else []
            entries[(p, n - p)] = sizes[n][p] - sum(k for gap, k in out + into if gap < r)
            ranks[(p, n - p)] = sum(k for gap, k in out if gap == r)
    return entries, ranks


def stabilization_index(ft: FilteredTower) -> int:
    return ft.max_length() + 1


def compute_pages(ft: FilteredTower, r_max: int | None = None) -> list:
    """Pages E_0 .. E_{r_max}; entries cover p, q >= 0 with p + q < n_max.

    Each page carries the rank of d_r out of each entry.  A page is
    stable once r exceeds the filtration length in every total degree.
    """
    r_stab = stabilization_index(ft)
    if r_max is None:
        r_max = max(r_stab, 3)
    sizes, pairs = _pairing(ft)
    return [
        Page(r, *_entries(sizes, pairs, r, ft.n_max), stable=r >= r_stab)
        for r in range(r_max + 1)
    ]


def infinity_entries(ft: FilteredTower) -> dict:
    """Stable page entries, p + q < n_max: the unpaired basis rows."""
    sizes, pairs = _pairing(ft)
    return _entries(sizes, pairs, stabilization_index(ft), ft.n_max)[0]


@dataclass(frozen=True)
class ConvergenceReport:
    per_degree: dict  # n -> (sum of stable entries, cohomology dim, ok)

    @property
    def ok(self) -> bool:
        return all(v[2] for v in self.per_degree.values())


def convergence_check(ft: FilteredTower, pages=None) -> ConvergenceReport:
    """Strong convergence: stable page sums equal cohomology, per degree.

    pages, from compute_pages(ft), saves redoing the pairing when its last
    page is stable.
    """
    inf = pages[-1].entries if pages and pages[-1].stable else infinity_entries(ft)
    h = betti_table(ft.tower)
    per = {}
    for n in range(ft.n_max - 1):
        total = sum(inf[(p, n - p)] for p in range(n + 1))
        per[n] = (total, h[n], total == h[n])
    return ConvergenceReport(per)


def restrict_coefficients(split: SubalgebraSplit, coeffs: ModuleSpec) -> ModuleSpec:
    """Coefficients as a module over the subalgebra, in its basis."""
    hb = split.h.basis.to_dense()
    left = np.array([coeffs.action(row) for row in hb], dtype=np.uint8)
    if left.size == 0:
        left = np.zeros((split.h_dim, coeffs.dim, coeffs.dim), dtype=np.uint8)
    return ModuleSpec(coeffs.dim, left)


def outer_derivative_operator(
    split: SubalgebraSplit, coeffs: ModuleSpec, x, n: int
) -> BitMatrix:
    """Lie derivative of an ambient element on the subalgebra complex.

    The element acts on values through the ambient module and on
    arguments through the projected adjoint action; for ideals every
    bracket [x, h] falls back into the subalgebra, which is checked.
    """
    x = np.asarray(x, dtype=np.uint8) & 1
    a = coeffs.action(x)
    # column k is [x, h_k] in the basis of h; raises unless x normalizes h
    brackets = split.table.brackets(x[None], split.h.basis.to_dense())
    b = split.h.row_coefficients(brackets).transpose().to_dense()
    return derivation_operator_matrix(Flavor.SYM, split.h_dim, coeffs.dim, a, b, n)


@dataclass(frozen=True)
class ClosedFormReport:
    """Per-page comparison of engine entries against closed-form values."""

    rows: tuple  # (r, p, q, computed, predicted, match)
    hs_sub: tuple  # HS of the subalgebra complex

    @property
    def ok(self) -> bool:
        return all(row[5] for row in self.rows)

    def mismatches(self):
        return [row for row in self.rows if not row[5]]


def e2_closed_form_check(
    table: BracketTable, h: Subspace, coeffs, n_max: int, pages=None
) -> ClosedFormReport:
    """Check E_0, E_1, E_2 of an ideal filtration against closed forms.

    E_0 entries are graded Hom-space dimension counts; E_1 pairs the
    quotient monomials with the subalgebra cohomology; E_2 is the
    commutative cohomology of the quotient with coefficients in the
    subalgebra cohomology carrying the induced action.
    """
    split = quotient_algebra(table, h, require_ideal=True)
    if pages is None:
        pages = compute_pages(subalgebra_filtration(table, h, coeffs, n_max))
    h_coeffs = restrict_coefficients(split, coeffs)
    h_tower = build_tower(Flavor.SYM, split.h_table, h_coeffs, n_max, label="sub")
    hs_sub = betti_table(h_tower)
    mdim = coeffs.dim
    dh, dq = split.h_dim, split.q_dim
    sect = split.section.transpose().to_dense()  # rows: complement vectors

    rows = []
    for n in range(n_max):
        for p in range(n + 1):
            q = n - p
            e0 = basis_dim(Flavor.SYM, dh, q) * basis_dim(Flavor.SYM, dq, p) * mdim
            rows.append((0, p, q, pages[0].entries[(p, q)], e0, pages[0].entries[(p, q)] == e0))

    for q in range(n_max):
        acts = np.zeros((dq, hs_sub[q], hs_sub[q]), dtype=np.uint8)
        ops = [outer_derivative_operator(split, coeffs, sect[k], q) for k in range(dq)]
        for k, act in enumerate(induced_map_on_cohomology(h_tower, q, ops)):
            acts[k] = act.to_dense()
        hq_module = ModuleSpec(hs_sub[q], acts)
        check = check_module_axioms(split.q_table, hq_module)
        if not check.ok:
            raise GF2Error(
                f"induced action on H^{q} is not a quotient module (pair {check.pair})"
            )
        p_top = n_max - 1 - q
        if p_top < 0:
            continue
        if hs_sub[q] == 0:
            e2_of_p = [0] * (p_top + 1)
        else:
            q_betti = cochain_betti_table(
                Flavor.SYM, split.q_table, hq_module, p_top + 1, label="quot"
            )
            e2_of_p = list(q_betti.dims)
        for p in range(p_top + 1):
            e1 = basis_dim(Flavor.SYM, dq, p) * hs_sub[q]
            rows.append((1, p, q, pages[1].entries[(p, q)], e1, pages[1].entries[(p, q)] == e1))
            e2 = e2_of_p[p]
            rows.append((2, p, q, pages[2].entries[(p, q)], e2, pages[2].entries[(p, q)] == e2))
    return ClosedFormReport(tuple(rows), tuple(hs_sub.dims))
