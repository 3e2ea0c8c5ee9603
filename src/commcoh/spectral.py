"""Spectral sequences of finitely filtered cochain towers.

Pages are computed from the filtration by one persistence pairing per
degree, never by transcribing hand identifications.  Each C^n gets a
basis adapted to its chain, every vector tagged with its filtration
level f; each differential, written in these bases, is reduced so that
it pairs sources with targets.  A pair of gap r = f(target) - f(source)
is d_r: both ends survive to E_r and die on E_{r+1}.  So dim E_r(p, q)
counts the level-p vectors of C^{p+q} outside pairs of gap below r, and
E_infinity the unpaired ones.  The pairing is swept over betti_table's
weight parts (cohomology._weight_parts): each class of a step lies in
one weight class, so a filtered tower is the direct sum of its parts
and the pair counts, rank invariants, add over them.  A filtration with
a class across weight classes is paired as one part.  The images of a
part are packed by cohomology._part_block, one block of class members
at a time, so no whole degree is packed, and reduced by gf2._echelon,
the kernel of betti_table and of the long exact sequence, which reports
the pivot each image is stored at.  The same pairing checks that
d respects the filtration (_pairing), so a filtered tower's structure is
checked when it is made and its d-compatibility when it is paired.
Closed forms are cross checks, so a discrepancy with a pencil
computation is surfaced rather than baked in.  Entries touching the
truncation degree are excluded from convergence checks.  The
Hochschild-Serre route works in one basis: a subalgebra filtration's
tower is built in the split's adapted basis, and the E_2 check reads
h's table, the quotient's, h's module and each outer action as blocks
of that tower's table and module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .algebra import BracketTable, ModuleSpec, check_module_axioms, module_change_basis, quotient_algebra
from .cochain import (
    ComplexTower,
    Flavor,
    _monomials,
    basis_dim,
    build_tower,
    derivation_operator_matrix,
)
from .cohomology import _part_block, _weight_parts, betti_table, induced_map_on_cohomology
from .gf2 import WORD_BITS, BitMatrix, GF2Error, Subspace, WordMap
from .gf2 import _block_rows, _echelon, _rows_up, _word_count

__all__ = [
    "FiltrationError",
    "FilteredTower",
    "Page",
    "subalgebra_filtration",
    "compute_pages",
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


def subalgebra_filtration(
    table: BracketTable, h: Subspace, coeffs, n_max: int
) -> FilteredTower:
    """Filtration of the symmetric complex by the count of subalgebra slots.

    The complex is built in the adapted basis of the split (meta["split"]),
    h's basis first, so its table is the split's adapted_table; F^p C^n is then
    the span of coordinate functionals on monomials with at most n - p
    factors in the h block, i.e. the annihilator of the monomials with at
    least n - p + 1 such factors.  d-compatibility is checked when the
    tower is paired (compute_pages).
    """
    split = quotient_algebra(table, h)
    m_ad = module_change_basis(coeffs, split.adapted)
    tower = build_tower(Flavor.SYM, split.adapted_table, m_ad, n_max, label="adapted")
    filt = []
    for n in range(n_max + 1):
        # a span of coordinates, each its own class
        counts = (_monomials(Flavor.SYM, table.dim, n) < split.h_dim).sum(axis=1)
        counts, idx = counts.repeat(coeffs.dim), np.arange(counts.size * coeffs.dim)
        filt.append(tuple(np.where(counts <= n - p, idx, -1) for p in range(n + 2)))
    return FilteredTower(
        tower,
        tuple(filt),
        label=f"subalgebra-filtration[{split.verdict.value}]",
        meta={"split": split},
    )


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


def _part_pairs(ft: FilteredTower, deg, sizes: list, pairs: list) -> list:
    """Add the levels and pairs of one part, deg its entries of _weight_parts,
    to sizes and pairs (_pairing); [(n, p)] where d F^p C^n first leaves
    F^p C^{n+1} there, p the smallest, and the part stops; else [].

    The image of a basis row is the sum of the rows of T_n (_part_block)
    over its class, written in the target's adapted basis by coords; they
    are made from the last row back, for at most a row block of class
    members at a time.  The highest bit of the raw image of a level-f row
    is at its lowest target level t, and t < f puts it outside F^f.
    """
    # each degree's steps on the part, leaders remapped to their positions in it
    part_steps = ([np.where(s[c] < 0, -1, pos[s[c]]) for s in chain] for chain, (c, _, pos) in zip(ft.filt, deg))
    bases = map(_adapted_basis, part_steps)
    src_levels, (k, i), _ = next(bases)
    sizes[0].update(src_levels)
    for n in range(ft.n_max):
        tgt_levels, tgt, coords = next(bases)
        sizes[n + 1].update(tgt_levels)
        words, top, low = _word_count(coords.rows), {}, []
        width = words * WORD_BITS
        ends = np.searchsorted(k, np.arange(len(src_levels) + 1))  # row r holds the ones ends[r]:ends[r + 1]
        stop = len(src_levels) if words else 0  # no target coordinate: every image is zero
        while stop:
            start = min(stop - 1, int(np.searchsorted(ends, ends[stop] - _block_rows(words))))
            members, slot = np.unique(i[ends[start] : ends[stop]], return_inverse=True)
            block = _part_block(ft.tower.ones, n, (deg[n][0][members], *deg[n][1:]), deg[n + 1])
            sums = BitMatrix.from_coords(stop - start, members.size, k[ends[start] : ends[stop]] - start, slot)
            images = coords.apply_rows(sums @ block)
            ys = [y for _, y in _rows_up(images)]
            for f, y, x in zip(reversed(src_levels[start:stop]), ys, _echelon(ys, top)):
                t = tgt_levels[width - y.bit_length()] if y else f
                if t < f:
                    low.append(t)
                if x:  # stored at its pivot
                    pairs[n][(f, tgt_levels[width - x.bit_length()])] += 1
            stop = start
        if low:
            return [(n, min(low) + 1)]
        src_levels, (k, i) = tgt_levels, tgt
    return []


def _pairing(ft: FilteredTower) -> tuple:
    """Levels of the adapted basis of each C^n, and the pairs of each d^n.

    sizes[n] counts the basis rows of C^n per level; pairs[n] counts the
    pairs of d^n per (source level, target level).  Each source image is
    written in target coordinates, the highest bit at the lowest level,
    and the sources are eliminated by highest bit in decreasing level, so
    a source is reduced only by sources of its level or deeper and pairs
    with its image's lowest-level target (Edelsbrunner & Harer,
    Computational Topology, ch. VII).  The counts are summed over the
    weight parts (the module docstring, _part_pairs).

    This is also where d-compatibility is checked.  The target rows of
    level >= p span F^p C^{n+1}, so the raw image of a level-f row lies in
    F^f exactly when its highest bit is at a level t >= f.  An image with
    t < f puts d F^p C^n outside F^p C^{n+1} for t < p <= f; after the
    sweep the lowest such degree is raised as a FiltrationError, with
    the smallest p of all its parts.
    """
    weights = [ft.tower.weights(n) for n in range(ft.n_max + 1)]
    if any((w[lead[lead >= 0]] != w[lead >= 0]).any() for w, chain in zip(weights, ft.filt) for lead in chain):
        weights = [w[:, :0] for w in weights]  # one class a degree: one part
    sizes, pairs, failed = [Counter() for _ in ft.filt], [Counter() for _ in ft.filt[1:]], []
    for (deg,) in _weight_parts(lambda n: (weights[n],), ft.n_max):
        failed += _part_pairs(ft, deg, sizes, pairs)
    if failed:
        n, p = min(failed)
        raise FiltrationError(f"d F^{p} C^{n} not contained in F^{p} C^{n + 1}")
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
    return max(len(chain) for chain in ft.filt) + 1


def compute_pages(ft: FilteredTower) -> list:
    """Pages E_0 .. E_r for r = max(3, stabilization_index(ft)); entries
    cover p, q >= 0 with p + q < n_max.

    Each page carries the rank of d_r out of each entry.  A page is
    stable once r exceeds the filtration length in every total degree,
    so the last page is stable.
    """
    r_stab = stabilization_index(ft)
    sizes, pairs = _pairing(ft)
    return [
        Page(r, *_entries(sizes, pairs, r, ft.n_max), stable=r >= r_stab)
        for r in range(max(r_stab, 3) + 1)
    ]


@dataclass(frozen=True)
class ConvergenceReport:
    per_degree: dict  # n -> (sum of stable entries, cohomology dim, ok)

    @property
    def ok(self) -> bool:
        return all(v[2] for v in self.per_degree.values())


def convergence_check(ft: FilteredTower, pages) -> ConvergenceReport:
    """Strong convergence: stable page sums equal cohomology, per degree.

    pages is compute_pages(ft), whose last page is stable; a list that
    does not end on a stable page is refused.
    """
    if not (pages and pages[-1].stable):
        raise GF2Error("convergence needs the pages of compute_pages, ending on a stable page")
    inf = pages[-1].entries
    h = betti_table(ft.tower)
    per = {}
    for n in range(ft.n_max - 1):
        total = sum(inf[(p, n - p)] for p in range(n + 1))
        per[n] = (total, h[n], total == h[n])
    return ConvergenceReport(per)


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


def e2_closed_form_check(ft: FilteredTower, pages) -> ClosedFormReport:
    """Check E_0, E_1, E_2 of an ideal filtration against closed forms.

    ft is a subalgebra_filtration by an ideal h of dimension k and pages
    its compute_pages.  E_0 entries are graded Hom-space dimension counts;
    E_1 pairs the quotient monomials with the subalgebra cohomology; E_2
    is the commutative cohomology of the quotient with coefficients in the
    subalgebra cohomology carrying the induced action (Hochschild and
    Serre).  Everything is read off the adapted tower's table c and module
    rho: h acts on the values by rho[:k], and complement letter j acts on
    C(h) by rho[k + j] on the values and by c[k + j, :k, :k]^T on the
    arguments, since an ideal keeps [x, h] inside h.  Each distinct
    H^q(h)-module's quotient cohomology is ranked once, at its first q.
    """
    split = ft.meta["split"]
    if split.q_table is None:
        raise GF2Error("not an ideal")
    c, rho, n_max = ft.tower.table.c, ft.tower.coeffs.rho, ft.n_max
    mdim, k, dq = ft.tower.coeffs.dim, split.h_dim, split.q_dim
    h_tower = build_tower(Flavor.SYM, split.h_table, ModuleSpec(mdim, rho[:k]), n_max, label="sub")
    hs_sub = betti_table(h_tower)

    rows = []
    for n in range(n_max):
        for p in range(n + 1):
            q = n - p
            e0 = basis_dim(Flavor.SYM, k, q) * basis_dim(Flavor.SYM, dq, p) * mdim
            rows.append((0, p, q, pages[0].entries[(p, q)], e0, pages[0].entries[(p, q)] == e0))

    quotients = {}  # the Betti table of each distinct H^q(h)-module, ranked at its first q
    for q in range(n_max):
        acts = np.zeros((dq, hs_sub[q], hs_sub[q]), dtype=np.uint8)
        ops = [derivation_operator_matrix(Flavor.SYM, k, mdim, rho[k + j], c[k + j, :k, :k].T, q) for j in range(dq)]
        for j, act in enumerate(induced_map_on_cohomology(h_tower, q, ops)):
            acts[j] = act.to_dense()
        hq_module = ModuleSpec(hs_sub[q], acts)
        check = check_module_axioms(split.q_table, hq_module)
        if not check.ok:
            raise GF2Error(
                f"induced action on H^{q} is not a quotient module (pair {check.pair})"
            )
        p_top = n_max - 1 - q
        if hq_module not in quotients:  # p_top falls with q: later rows read a prefix
            quot = build_tower(Flavor.SYM, split.q_table, hq_module, p_top + 1, "quot")
            quotients[hq_module] = betti_table(quot).dims
        e2_of_p = quotients[hq_module]
        for p in range(p_top + 1):
            e1 = basis_dim(Flavor.SYM, dq, p) * hs_sub[q]
            rows.append((1, p, q, pages[1].entries[(p, q)], e1, pages[1].entries[(p, q)] == e1))
            e2 = e2_of_p[p]
            rows.append((2, p, q, pages[2].entries[(p, q)], e2, pages[2].entries[(p, q)] == e2))
    return ClosedFormReport(tuple(rows), tuple(hs_sub.dims))
