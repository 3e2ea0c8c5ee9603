"""Relative complexes between the three flavors, their filtrations,
the cokernel complexes of the product maps, and the product-shape
checks on the second page.

Every quotient here is the cokernel of a pullback along a map of words,
built by one class map per degree (_class_map).  Each coordinate of a
word space falls in a class, or in none where its word's class is zero;
the pullback sends a class to the indicator of its members.  The last
member of each class represents it, and every other coordinate is a
generator of the quotient: a quotient cochain is its value on each
generator word, which is the value on the word plus the value on its
class's representative (just the value on the word where it has no
class).  Both constructions use the same builder:

  relative complex  the total flavor's words, classed by the sub flavor's
                    monomial; colex order puts the sorted word last among
                    its rearrangements, so the sorted word represents;
  product cokernel  the dual-valued coordinates (args; y), classed by the
                    scalar flavor's monomial of the combined word.

The cokernel differential is pi[k+1] @ d[k] @ sigma[k], with sigma the
selection of the generators.  pi and sigma are index arrays (WordMap),
never packed.  A relative complex holds no d[k]: its tower
(_QuotientTower) reads the ones at a quotient column g off the
coboundary generator at the total coordinate pi[k].a[g], each one (c, r)
landing on the rows of pi[k+1] holding r, and no route packs a whole
relative differential.  The small product
cokernels hold their differentials, taken from the generator columns of
the held d[k].  Every product cokernel comes from one dual-valued tower
with coadjoint coefficients (exterior for lie-leibniz, symmetric
otherwise).  lie-comm first keeps a class span of the symmetric tower: a
coordinate (args; y) falls in the class of its sorted combined word, and
a class dies where one of its coordinates repeats a letter among the args.

The filtration steps are class spans too: generator words fall into
classes by their prefix-sorted word, and a class dies where it reaches no
generator or holds a word whose prefix repeats a letter.  Each step is
held as its leader array (FilteredTower), so nothing is packed or
eliminated.

The long exact sequence of a relative complex is swept one weight part
at a time: every map in it keeps the torus weight (algebra.weight_grading;
Fuks, "Cohomology of Infinite-Dimensional Lie Algebras", 1986), so it is
the direct sum of its restrictions to betti_table's parts
(cohomology._weight_parts) of the sub, total and quotient coordinates.
In each part and degree T_m = (d^m)^T of each complex is packed from its
generator (cohomology._part_block): its rows span the boundaries of
degree m + 1, its left kernel is the cycles, and the total T_m lifts the
connecting map.  incl, proj, section and meta["last"] are read there by
index, so no whole-width differential, cycle or boundary basis is held.

Degree bookkeeping is in word degree throughout; a relative complex in
its own grading sits two degrees lower, a cokernel-of-products complex
one degree lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BracketTable,
    ModuleSpec,
    classify_algebra,
    coadjoint_module,
    trivial_module,
)
from .cochain import (
    INCLUSION_FLAVORS,
    ComplexTower,
    Flavor,
    InclusionPair,
    PreconditionError,
    _block_matrix,
    _index,
    _monomials,
    _require_flavor,
    basis_dim,
    build_tower,
)
from .cohomology import BettiTable, _part_block, _weight_parts, betti_table
from .gf2 import (
    BitMatrix,
    GF2Error,
    QuotientCoords,
    Subspace,
    WordMap,
    induced_map,
    kernel_basis,
)
from .gf2 import _gather, _word_count, _xor_scatter
from .spectral import FilteredTower, compute_pages, convergence_check

__all__ = [
    "RelativeTower",
    "require_pair",
    "build_relative_complex",
    "LESReport",
    "long_exact_sequence_check",
    "comparison_filtration",
    "build_cr_complex",
    "ProductReport",
    "flavor_tables",
    "verify_e2_product",
    "vanishing_window",
    "PropagationReport",
    "vanishing_propagation_report",
    "FullVanishingReport",
    "full_vanishing_check",
]


def _sort_prefix(words, p):
    out = words.copy()
    out[:, :p] = np.sort(words[:, :p], axis=1)
    return out


def _expand(idx, mdim: int):
    """The mdim module coordinates of each index, in order; -1 stays -1."""
    return np.where(idx[:, None] < 0, -1, idx[:, None] * mdim + np.arange(mdim)).ravel()


def _class_map(cls, n_classes: int, mdim: int):
    """The cokernel of the pullback along a map of words, coordinate by coordinate.

    cls[i] is the class of word i, -1 where the word's class is zero.
    Returns (gens, last, pullback, pi, sigma):
      gens      the generators, in order: every word but the last member
                of each class;
      last      the last member of each class, -1 where a class has none;
      pullback  the class indicators, n_classes blocks to len(cls) blocks,
                packed on a grid of mdim x mdim identity blocks;
      pi        row g is e_g + e_(last of g's class), or e_g where g has no
                class, so ker(pi) is the pullback's image;
      sigma     the selection of the generators, with pi @ sigma = 1.
    pi and sigma are never packed: they are WordMaps on the coordinates
    i * mdim + k of word i, and pi.a lists the generators' coordinates.
    """
    live = np.flatnonzero(cls >= 0)
    last = np.full(n_classes, -1)
    np.maximum.at(last, cls[live], live)
    gens = np.flatnonzero(np.bincount(last[last >= 0], minlength=len(cls)) == 0)
    pullback = _block_matrix((len(cls), n_classes), mdim, [(live, cls[live], None)])
    rep = np.append(last, -1)[cls[gens]]  # class -1 reads the appended -1
    pi = WordMap(len(gens) * mdim, len(cls) * mdim, _expand(gens, mdim), _expand(rep, mdim))
    pick = np.full(len(cls), -1)
    pick[gens] = np.arange(len(gens))
    sigma = WordMap(len(cls) * mdim, len(gens) * mdim, _expand(pick, mdim))
    # pi @ sigma = 1: generator g's coordinate selects g, its representative nothing
    picked = sigma.a[pi.b[pi.b >= 0]]
    if not (np.array_equal(sigma.a[pi.a], np.arange(pi.rows)) and (picked < 0).all()):
        raise GF2Error("quotient projection is not surjective")
    return gens, last, pullback, pi, sigma


def _leaders(cls, dead):
    """Each coordinate's class relabelled by its first member; -1 where it
    has no class or its class is listed in dead."""
    live = np.flatnonzero((cls >= 0) & ~np.isin(cls, dead))
    _, first, label = np.unique(cls[live], return_index=True, return_inverse=True)
    lead = np.full(len(cls), -1)
    lead[live] = live[first][label]
    return lead


@dataclass(frozen=True)
class RelativeTower:
    """A cokernel complex with its short-exact-sequence witness.

    tower is graded so that degree n holds the word-degree n + 2
    quotient; per word degree, incl is packed, proj and section are
    WordMaps with proj @ section the identity, and ker(proj) = im(incl).
    meta["words"][m] holds the generator words, the quotient's
    coordinates in word degree m, and meta["last"][m] the coordinate
    of each sub-flavor cochain's representative among the total's.
    """

    kind: InclusionPair
    tower: ComplexTower
    incl: tuple
    proj: tuple
    section: tuple
    table: BracketTable
    coeffs: ModuleSpec
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def word_degrees(self) -> int:
        return len(self.proj) - 1


def require_pair(pair: InclusionPair, table: BracketTable):
    """Raise PreconditionError unless table is the kind of algebra pair needs."""
    cls = classify_algebra(table)
    if INCLUSION_FLAVORS[pair][0] is Flavor.EXT:
        if not cls.is_lie:
            raise PreconditionError(f"{pair.value} needs a Lie algebra")
    elif not cls.is_commutative_lie:
        raise PreconditionError(f"{pair.value} needs a commutative Lie algebra")


@dataclass(frozen=True)
class _QuotientTower(ComplexTower):
    """A relative complex in degree n = m - 2, held by its generator: the
    ones of pi[m+1] @ d @ sigma[m] are the total tower's at the generators
    pi[m].a (whose weights are their class representatives'), each (c, r)
    landing on the quotient rows whose pi[m+1] row holds r, grouped by r in
    rows[m+1]; a one listed twice cancels.  proj and rows follow from total
    and the pair in the label, so they take no part in equality."""

    total: ComplexTower | None = None
    proj: tuple = field(default=(), compare=False)
    rows: tuple = field(default=(), compare=False)

    def total_ones(self, m: int, cols):
        """The ones (i, g) of pi[m+1] @ d(e_c), c = cols[i]."""
        for c, r in self.total.ones(m, cols):
            yield _gather(self.rows[m + 1], r, c)

    def ones(self, n: int, cols):
        return self.total_ones(n + 2, self.proj[n + 2].a[cols])

    def weights(self, n: int):
        return self.total.weights(n + 2)[self.proj[n + 2].a]


def build_relative_complex(
    pair: InclusionPair, table: BracketTable, coeffs, n_rel_max: int
) -> RelativeTower:
    """Quotient complex of one flavor inclusion, shifted two degrees down.

    Its tower is held by its generator (_QuotientTower); only the probe
    pi[m+1] @ d @ incl[m], which must be zero, is packed."""
    require_pair(pair, table)
    sub_fl, tot_fl = INCLUSION_FLAVORS[pair]
    _require_flavor(sub_fl, table, coeffs)  # the pair's table passes tot_fl's axioms too
    d, mdim = table.dim, coeffs.dim
    m_top = n_rel_max + 2

    incls, projs, sections, words, lasts, members, rows = [], [], [], [], [], [], []
    for m in range(m_top + 1):
        total_words = _monomials(tot_fl, d, m)
        cls = _index(sub_fl, d, total_words)
        gens, last, incl, pi, sig = _class_map(cls, basis_dim(sub_fl, d, m), mdim)
        incls.append(incl)
        words.append(total_words[gens])
        lasts.append(_expand(last, mdim))
        members.append(_expand(cls, mdim))
        projs.append(pi)
        sections.append(sig)
        rows.append(pi.column_rows())
        if incl.cols + pi.rows != incl.rows:
            raise GF2Error(f"short exact sequence dimensions break at degree {m}")

    total = ComplexTower(tuple(pi.cols for pi in projs), tot_fl, "", table, coeffs)  # never packed
    rel = _QuotientTower(tuple(pi.rows for pi in projs[2:]), None, f"rel[{pair.value}]",
                         total=total, proj=tuple(projs), rows=tuple(rows))
    for m in range(2, m_top):
        # functionals vanishing on the kernel span must stay so: incl[m] sums each class's members
        live = np.flatnonzero(members[m] >= 0)
        probe = np.zeros((projs[m + 1].rows, _word_count(incls[m].cols)), dtype=np.uint64)
        for i, g in rel.total_ones(m, live):
            _xor_scatter(probe, g, members[m][live[i]])
        if probe.any():
            raise GF2Error(f"induced differential ill-defined at word degree {m}")

    return RelativeTower(
        kind=pair,
        tower=rel,
        incl=tuple(incls),
        proj=tuple(projs),
        section=tuple(sections),
        table=table,
        coeffs=coeffs,
        meta={"words": tuple(words), "last": tuple(lasts)},
    )


@dataclass(frozen=True)
class LESReport:
    """Exactness verdicts for the long exact sequence, node by node."""

    nodes: tuple  # (description, ok)
    connecting: tuple

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.nodes)

    def failures(self):
        return [desc for desc, ok in self.nodes if not ok]


def _part_index(coords, idx, m: int):
    """The position of each index of idx among the increasing coords, -1 where it is -1;
    GF2Error naming word degree m where one lies outside them."""
    pos = np.searchsorted(coords, idx)
    if not ((np.append(coords, -2)[pos] == idx) | (idx < 0)).all():
        raise GF2Error(f"long exact sequence leaves its weight part at word degree {m}")
    return np.where(idx < 0, -1, pos)


def _part_matrix(mat: BitMatrix, rows, cols, m: int) -> BitMatrix:
    """mat at the part's rows and cols; a one of those rows must lie in cols."""
    r, c = BitMatrix(rows.size, mat.cols, mat.words[rows]).coords()
    return BitMatrix.from_coords(rows.size, cols.size, r, _part_index(cols, c, m))


def _pivot_coords(h: QuotientCoords, coords):
    """The coordinate in coords of the pivot column of each coset coordinate of h."""
    return coords[np.asarray(h.sup.pivots, dtype=np.int64)[h.free]]


def _direct_sum(blocks) -> BitMatrix:
    """The direct sum of blocks (row keys, column keys, block), its rows and
    columns in increasing key order; 0 x 0 for no blocks."""
    if not blocks:
        return BitMatrix.zeros(0, 0)
    rows, cols = (np.sort(np.concatenate([b[k] for b in blocks])) for k in (0, 1))
    r, c = (np.concatenate(x) for x in zip(*[(rk[i], ck[j]) for rk, ck, b in blocks for i, j in [b.coords()]]))
    return BitMatrix.from_coords(rows.size, cols.size, np.searchsorted(rows, r), np.searchsorted(cols, c))


def _part_sequence(rel: RelativeTower, ones, co, limit: int):
    """The long exact sequence on one weight part, co[v][m] its entries of
    _weight_parts for the sub, total and quotient complexes (v = 0, 1, 2).

    Returns the part's node verdicts, in the order of the report's nodes,
    and for each word degree m < limit the connecting map's block with the
    coordinate of the pivot column behind each of its rows and columns.  A
    degree where the part has no coordinates is skipped: its cohomology is
    zero.
    """
    s, t, q = ([c for c, _, _ in deg] for deg in co)
    held = [None] * 3  # T_{m-1} of each complex, whose rows span the boundaries of degree m
    zero, empty = QuotientCoords(Subspace.zero(0), Subspace.zero(0)), BitMatrix.zeros(0, 0)

    def at(m):
        """(H^m(sub), H^m(total), H^m(quotient), i_*, p_*, incl) at word degree m."""
        if not (s[m].size or t[m].size or q[m].size):
            held[:] = [None] * 3  # T_m has no rows
            return zero, zero, zero, empty, empty, empty
        h = []
        for v in range(3):
            tm = _part_block(ones[v], m, co[v][m], co[v][m + 1])
            below = Subspace.zero(tm.rows) if held[v] is None else Subspace.from_rows(tm.rows, held[v])
            h.append(QuotientCoords(kernel_basis(tm.transpose()), below))
            held[v] = tm
        incl = _part_matrix(rel.incl[m], t[m], s[m], m)
        pi = rel.proj[m]
        proj = WordMap(q[m].size, t[m].size, *(_part_index(t[m], x[q[m]], m) for x in (pi.a, pi.b)))
        return (*h, induced_map(incl, h[0], h[1]), induced_map(proj, h[1], h[2]), incl)

    # one sweep up the degrees, holding H^m and H^{m+1} only
    hs, ht, hq, i_star, p_star, _ = at(0)
    total_ok, quotient_ok, sub_ok, blocks = [], [], [i_star.rank() == hs.dim], []
    for m in range(limit + 1):
        total_ok.append((p_star @ i_star).is_zero() and i_star.rank() + p_star.rank() == ht.dim)
        if m == limit:
            break
        tt = held[1]  # the total T_m
        hs1, ht1, hq1, i_star1, p_star1, incl1 = at(m + 1)
        reps = hq.lift_rows()
        if reps.rows == 0:
            delta = BitMatrix.zeros(hs1.dim, 0)
        else:
            section = WordMap(t[m].size, q[m].size, _part_index(q[m], rel.section[m].a[t[m]], m))
            lifted = (section @ reps.transpose()).transpose()  # reps @ section^T
            w = lifted @ tt
            # incl is injective with one representative per column: read u there
            u = w.take_columns(_part_index(t[m + 1], rel.meta["last"][m + 1][s[m + 1]], m + 1))
            if incl1 @ u.transpose() != w.transpose():
                raise GF2Error(f"connecting-map lift failed at word degree {m}")
            delta = hs1.project_rows(u).transpose()
        blocks.append((_pivot_coords(hs1, s[m + 1]), _pivot_coords(hq, q[m]), delta))
        quotient_ok.append((delta @ p_star).is_zero() and p_star.rank() + delta.rank() == hq.dim)
        sub_ok.append((i_star1 @ delta).is_zero() and delta.rank() + i_star1.rank() == hs1.dim)
        hs, ht, hq, i_star, p_star = hs1, ht1, hq1, i_star1, p_star1
    return total_ok + quotient_ok + sub_ok, blocks


def long_exact_sequence_check(
    rel: RelativeTower, max_degree: int | None = None
) -> LESReport:
    """Assemble the long exact sequence and verify exactness at every node.

    The sequence is swept one weight part at a time (the module docstring,
    _part_sequence); a one of a differential outside its row's class, or
    of a map outside its part, raises, naming its word degree.  Exactness at a node is rank arithmetic, in every part: the
    composite of consecutive maps vanishes and the ranks add up to the
    middle dimension.  Each connecting map is the direct sum of its part
    blocks, in the coset coordinates the whole sequence would have.  A lift
    failure inside the connecting map is a chain-map bug, not a report
    entry, and raises.
    """
    m_top = rel.word_degrees
    sub = build_tower(INCLUSION_FLAVORS[rel.kind][0], rel.table, rel.coeffs, m_top)
    total, proj = rel.tower.total, rel.proj
    limit = m_top - 1 if max_degree is None else min(max_degree, m_top - 1)
    # the ones of d^m(e_f) of the sub, total and quotient complexes in word degree m
    ones = (sub.ones, total.ones, lambda m, cols: rel.tower.total_ones(m, proj[m].a[cols]))

    def weights(m):
        w = total.weights(m)
        return sub.weights(m), w, w[proj[m].a]

    names = [f"H^{m}(total)" for m in range(limit + 1)] + [f"H^{m}(quotient)" for m in range(limit)]
    names += [f"H^{m}(sub)" for m in range(limit + 1)]
    ok, blocks = [True] * len(names), [[] for _ in range(limit)]
    for co in _weight_parts(weights, limit + 1):
        part_ok, part_blocks = _part_sequence(rel, ones, co, limit)
        ok = [a and b for a, b in zip(ok, part_ok)]
        for m, block in enumerate(part_blocks):
            blocks[m].append(block)
    return LESReport(tuple(zip(names, ok)), tuple(_direct_sum(b) for b in blocks))


def comparison_filtration(pair: InclusionPair, rel: RelativeTower) -> FilteredTower:
    """Filtration of a relative complex by prefix symmetry defects.

    All three chains are normalized to start at internal index 0 = full
    space; the two chains customarily written from index 1 carry
    index_offset 1 so reports can translate back.  d-compatibility is
    checked when the tower is paired (compute_pages, infinity_entries).
    """
    d, mdim = rel.table.dim, rel.coeffs.dim
    total = INCLUSION_FLAVORS[pair][1]
    # the swap span holds no unit words, so its prefix steps kill no class
    kills = pair is not InclusionPair.SYM_IN_TENSOR
    filt = []
    for n in range(rel.tower.n_max + 1):
        m = n + 2
        words = rel.meta["words"][m]
        owner = np.full(basis_dim(total, d, m), -1)
        owner[_index(total, d, words)] = np.arange(len(words))
        # a word's class: the generator owning its prefix-sorted word, if any
        cls = lambda w, p: owner[_index(total, d, _sort_prefix(w, p))]
        chain = [np.arange(rel.tower.dims[n])]
        # all words of length m in colex order, and whether their first p + 1 letters repeat one
        all_words = _monomials(Flavor.TENSOR, d, m) if kills else np.zeros((0, m), dtype=np.int64)
        repeat = np.zeros(len(all_words), dtype=bool)
        for p in range(1, m):
            repeat |= (all_words[:, :p] == all_words[:, p, None]).any(axis=1)
            dead = cls(all_words[repeat], p + 1)
            chain.append(_expand(_leaders(cls(words, p + 1), dead), mdim))
        if (chain[-1] >= 0).any():
            chain.append(np.full(rel.tower.dims[n], -1))
        filt.append(tuple(chain))
    offset = 0 if pair is InclusionPair.EXT_IN_TENSOR else 1
    return FilteredTower(rel.tower, tuple(filt), label=f"comparison[{pair.value}]", index_offset=offset)


def _dual_words(flavor, d, p):
    """The combined word (args..., y) of each dual-valued (p+1)-cochain
    coordinate of flavor, in coordinate order."""
    monos = _monomials(flavor, d, p + 1)
    return np.column_stack([np.repeat(monos, d, axis=0), np.tile(np.arange(d), len(monos))])


def build_cr_complex(pair: InclusionPair, table: BracketTable, n_cr_max: int) -> ComplexTower:
    """Cokernel complex whose cohomology is the product-shape tensor factor.

    Degree p is the dual-valued cochain space on word degree p + 1
    modulo the pullback of the scalar cochains of word degree p + 2.
    Coefficients are fixed as the construction demands: trivial scalars
    of the pair's sub flavor on the truncated source, the dual space with
    the bracket-pullback action on the target (for lie-comm, its mixed
    class spans).  Injectivity and the chain-map identity of the pullback
    are verified degreewise.
    """
    require_pair(pair, table)
    d = table.dim
    scalar = INCLUSION_FLAVORS[pair][0]
    flavor = Flavor.EXT if pair is InclusionPair.EXT_IN_TENSOR else Flavor.SYM
    coad = coadjoint_module(table)
    restr = build_tower(flavor, table, coad, n_cr_max + 1, label="dual-valued").diffs[1:]
    words = [_dual_words(flavor, d, p) for p in range(n_cr_max + 1)]
    if pair is InclusionPair.EXT_IN_SYM:
        restr, words = _mixed_classes(d, restr, words)
    triv = build_tower(scalar, table, trivial_module(table), n_cr_max + 2, label="scalar")
    classes = [_index(scalar, d, w) for w in words]
    return _product_cokernel(pair, restr, classes, triv)


def _mixed_classes(d, restr, words):
    """restr of the symmetric dual-valued cochains cut down to the mixed
    class spans, and the combined word of each live class; a class dies
    where some args repeat a letter."""
    spans = []
    for w in words:
        cls = _index(Flavor.SYM, d, w)
        repeat = (w[:, 1:-1] == w[:, :-2]).any(axis=1)
        lead = _leaders(cls, cls[repeat])
        live = np.flatnonzero(lead >= 0)
        pivots, row = np.unique(lead[live], return_inverse=True)
        basis = BitMatrix.from_coords(len(pivots), len(lead), row, live)
        spans.append(Subspace(len(lead), basis, tuple(pivots.tolist())))
    restr = [
        spans[p + 1].row_coefficients(spans[p].basis @ r.transpose()).transpose()
        if spans[p].dim
        else BitMatrix.zeros(spans[p + 1].dim, 0)
        for p, r in enumerate(restr)
    ]
    return restr, [w[list(s.pivots)] for w, s in zip(words, spans)]


def _product_cokernel(pair, restr, classes, triv) -> ComplexTower:
    """The cokernel of the pullback of the scalar cochains of triv in
    degree p + 2 along the class map classes[p], in degree p, with the
    differential induced by restr[p]."""
    maps = [_class_map(cls, triv.dims[p + 2], 1) for p, cls in enumerate(classes)]
    gens, lasts, mus, pis, _ = zip(*maps)
    for p, last in enumerate(lasts):
        if (last < 0).any():  # a scalar class with no live member
            raise GF2Error(f"product pullback not injective at degree {p}")
    for p in range(len(mus) - 1):
        if restr[p] @ mus[p] != mus[p + 1] @ triv.differential(p + 2):
            raise GF2Error(f"product pullback is not a chain map at degree {p}")
    diffs = tuple(pis[p + 1] @ restr[p].take_columns(pis[p].a) for p in range(len(mus) - 1))
    return ComplexTower.held([len(g) for g in gens], diffs, label=f"cr[{pair.value}]")


@dataclass(frozen=True)
class ProductReport:
    """Second-page entries against the product of the two graded factors.

    Page coordinates are normalized to start at filtration index 0;
    index_offset translates back to the conventional starting index.
    verify_e2_product indexes both sides from 0 (entry (p, q) against
    hr[p] * partner[q]), so no comparison applies the offset; it is
    carried only so that reports can translate back.
    """

    pair: InclusionPair
    entries: tuple  # (p, q, computed, predicted, match)
    hr: tuple
    partner: tuple
    convergence_ok: bool
    index_offset: int = 0

    @property
    def ok(self) -> bool:
        return self.convergence_ok and all(e[4] for e in self.entries)

    def mismatches(self):
        return [e for e in self.entries if not e[4]]


def verify_e2_product(
    pair: InclusionPair, table: BracketTable, coeffs, n_max: int, tables: dict
) -> ProductReport:
    """Compare engine-computed second-page dimensions with the product of
    the cokernel cohomology and the partner cohomology.

    The partner is the cohomology of pair's total flavor, read from
    tables, the flavor_tables(table, coeffs, n_max) of the same input;
    a partner of another flavor or length is refused.  Mismatches are
    report entries, not errors; the convergence of the filtration toward
    the relative cohomology is checked as well.
    """
    total = INCLUSION_FLAVORS[pair][1]
    partner = tables.get(total.value)
    if partner is None or partner.flavor is not total or len(partner) != n_max:
        raise GF2Error(f"{pair.value} needs the {total.value} table through degree {n_max - 1}")
    n_rel = n_max - 2
    # unbound, the relative complex goes once its filtration exists
    ft = comparison_filtration(pair, build_relative_complex(pair, table, coeffs, n_rel))
    pages = compute_pages(ft)
    conv = convergence_check(ft, pages)

    hr = betti_table(build_cr_complex(pair, table, n_rel))

    entries = []
    window = min(n_rel - 1, len(hr) - 1)
    for n in range(window + 1):
        for p in range(n + 1):
            q = n - p
            computed = pages[2].entries[(p, q)]
            predicted = hr[p] * partner[q]
            entries.append((p, q, computed, predicted, computed == predicted))
    return ProductReport(
        pair,
        tuple(entries),
        tuple(hr.dims),
        tuple(partner.dims),
        conv.ok,
        ft.index_offset,
    )


def vanishing_window(bt: BettiTable) -> int:
    """Largest n with H^k = 0 for all k <= n; -1 when H^0 is nonzero."""
    w = -1
    for k, dim in enumerate(bt.dims):
        if dim:
            break
        w = k
    return w


@dataclass(frozen=True)
class PropagationReport:
    """Window-by-window vanishing propagation between two cohomologies."""

    hypothesis: str
    conclusion: str
    window: int
    conclusion_zero_ok: bool
    iso_checks: tuple  # (degree, hyp dim, concl dim, ok)

    @property
    def ok(self) -> bool:
        return self.conclusion_zero_ok and all(c[3] for c in self.iso_checks)

    @property
    def vacuous(self) -> bool:
        return self.window < 0


def _propagate(name_h, bt_h, name_c, bt_c) -> PropagationReport:
    w = vanishing_window(bt_h)
    if w < 0:
        return PropagationReport(name_h, name_c, w, True, ())
    top = min(w, len(bt_c) - 1)
    zero_ok = all(bt_c[k] == 0 for k in range(top + 1))
    iso = []
    for deg in (w + 1, w + 2):
        if deg < min(len(bt_h), len(bt_c)):
            iso.append((deg, bt_h[deg], bt_c[deg], bt_h[deg] == bt_c[deg]))
    return PropagationReport(name_h, name_c, w, zero_ok, tuple(iso))


def flavor_tables(table: BracketTable, coeffs, n_max: int) -> dict:
    """Betti tables of the sym and tensor cochains, and of ext for a Lie
    algebra, keyed by flavor name: the partners of verify_e2_product and
    the input of vanishing_propagation_report."""
    flavors = [Flavor.SYM, Flavor.TENSOR]
    if classify_algebra(table).is_lie:
        flavors.append(Flavor.EXT)
    return {
        f.value: betti_table(build_tower(f, table, coeffs, n_max, label=f.value))
        for f in flavors
    }


def vanishing_propagation_report(bts: dict) -> list:
    """All applicable vanishing-propagation statements between the
    flavor_tables bts of one input.

    Lie algebras: an exterior-cohomology vanishing window forces the same
    window for tensor and symmetric cohomology with matching dimensions
    in the next two degrees.  Commutative Lie algebras: the symmetric
    window propagates to the tensor side, and conversely.
    """
    hs, hl = bts["sym"], bts["tensor"]
    reports = []
    if "ext" in bts:
        reports.append(_propagate("ext", bts["ext"], "tensor", hl))
        reports.append(_propagate("ext", bts["ext"], "sym", hs))
    reports.append(_propagate("sym", hs, "tensor", hl))
    reports.append(_propagate("tensor", hl, "sym", hs))
    return reports


@dataclass(frozen=True)
class FullVanishingReport:
    tables: dict

    @property
    def ok(self) -> bool:
        return all(all(v == 0 for v in dims) for dims in self.tables.values())


def full_vanishing_check(table: BracketTable, coeffs, n_max: int) -> FullVanishingReport:
    """All defined cohomologies of one coefficient module, for zero checks."""
    bts = flavor_tables(table, coeffs, n_max)
    return FullVanishingReport({name: bt.dims for name, bt in bts.items()})
