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
never packed: d[k] @ sigma[k] takes the generator columns of d[k], and
pi gathers and adds rows, one row block at a time (product_columns), so
no full-height copy of d[k] is made.  Every product cokernel comes from one
dual-valued tower with coadjoint coefficients (exterior for
lie-leibniz, symmetric otherwise).  lie-comm first keeps a class span of
the symmetric tower: a coordinate (args; y) falls in the class of its
sorted combined word, and a class dies where one of its coordinates
repeats a letter among the args.

The filtration steps are class spans too: generator words fall into
classes by their prefix-sorted word, and a class dies where it reaches no
generator or holds a word whose prefix repeats a letter.  Each step is
held as its leader array (FilteredTower), so nothing is packed or
eliminated.

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
    _block_matrix,
    _index,
    _monomials,
    basis_dim,
    build_tower,
)
from .cohomology import (
    BettiTable,
    betti_table,
    boundaries,
    cochain_betti_table,
    cycles,
)
from .gf2 import (
    BitMatrix,
    GF2Error,
    QuotientCoords,
    Subspace,
    WordMap,
    induced_map,
)
from .spectral import (
    FilteredTower,
    compute_pages,
    convergence_check,
    validate_filtration,
)

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


def _prefix_defects(d: int, n: int, p: int):
    """All words of length n in colex order, and whether their first p
    letters repeat a letter."""
    words = _monomials(Flavor.TENSOR, d, n)
    srt = np.sort(words[:, :p], axis=1)
    return words, (srt[:, 1:] == srt[:, :-1]).any(axis=1)


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
    sub_tower: ComplexTower
    total_tower: ComplexTower
    incl: tuple
    proj: tuple
    section: tuple
    table: BracketTable
    coeffs: ModuleSpec
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def word_degrees(self) -> int:
        return self.total_tower.n_max

    def quotient_word_tower(self) -> ComplexTower:
        """The quotient complex in word grading (degrees 0, 1 are zero)."""
        dims = (0, 0) + self.tower.dims
        diffs = (
            BitMatrix.zeros(0, 0),
            BitMatrix.zeros(self.tower.dims[0], 0),
        ) + self.tower.diffs
        return ComplexTower(dims, diffs, None, label=f"{self.tower.label}/word")


def require_pair(pair: InclusionPair, table: BracketTable):
    """Raise GF2Error unless table is the kind of algebra pair needs."""
    cls = classify_algebra(table)
    if INCLUSION_FLAVORS[pair][0] is Flavor.EXT:
        if not cls.is_lie:
            raise GF2Error(f"{pair.value} needs a Lie algebra")
    elif not cls.is_commutative_lie:
        raise GF2Error(f"{pair.value} needs a commutative Lie algebra")


def build_relative_complex(
    pair: InclusionPair, table: BracketTable, coeffs, n_rel_max: int
) -> RelativeTower:
    """Quotient complex of one flavor inclusion, shifted two degrees down."""
    require_pair(pair, table)
    d, mdim = table.dim, coeffs.dim
    m_top = n_rel_max + 2
    sub_fl, tot_fl = INCLUSION_FLAVORS[pair]
    sub_tower = build_tower(sub_fl, table, coeffs, m_top, label=f"sub[{sub_fl.value}]")
    total_tower = build_tower(tot_fl, table, coeffs, m_top, label=f"total[{tot_fl.value}]")

    incls, projs, sections, words, lasts = [], [], [], [], []
    for m in range(m_top + 1):
        total_words = _monomials(tot_fl, d, m)
        cls = _index(sub_fl, d, total_words)
        gens, last, incl, pi, sig = _class_map(cls, basis_dim(sub_fl, d, m), mdim)
        incls.append(incl)
        words.append(total_words[gens])
        lasts.append(_expand(last, mdim))
        projs.append(pi)
        sections.append(sig)
        if sub_tower.dims[m] + pi.rows != total_tower.dims[m]:
            raise GF2Error(f"short exact sequence dimensions break at degree {m}")

    rel_diffs = []
    for m in range(2, m_top):
        dd = total_tower.differential(m)
        # functionals vanishing on the kernel span must stay that way
        probe = projs[m + 1] @ (dd @ incls[m])
        if not probe.is_zero():
            raise GF2Error(f"induced differential ill-defined at word degree {m}")
        # dd @ sigma keeps the generator columns of dd
        rel_diffs.append(projs[m + 1].product_columns(dd, projs[m].a))

    rel = ComplexTower(tuple(pi.rows for pi in projs[2:]), tuple(rel_diffs), None, f"rel[{pair.value}]")
    return RelativeTower(
        kind=pair,
        tower=rel,
        sub_tower=sub_tower,
        total_tower=total_tower,
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


def long_exact_sequence_check(
    rel: RelativeTower, max_degree: int | None = None
) -> LESReport:
    """Assemble the long exact sequence and verify exactness at every node.

    Exactness at a node is rank arithmetic: the composite of consecutive
    maps vanishes and the ranks add up to the middle dimension.  A lift
    failure inside the connecting map is a chain-map bug, not a report
    entry, and raises.
    """
    m_top = rel.word_degrees
    qt = rel.quotient_word_tower()
    limit = m_top - 1 if max_degree is None else min(max_degree, m_top - 1)

    degrees = range(limit + 1)
    h = lambda tower, m: QuotientCoords(cycles(tower, m), boundaries(tower, m))
    hs = {m: h(rel.sub_tower, m) for m in degrees}
    ht = {m: h(rel.total_tower, m) for m in degrees}
    hq = {m: h(qt, m) for m in degrees}
    i_star = {m: induced_map(rel.incl[m], hs[m], ht[m]) for m in degrees}
    p_star = {m: induced_map(rel.proj[m], ht[m], hq[m]) for m in degrees}

    connecting = {}
    for m in range(limit):
        reps = hq[m].lift_rows()
        if reps.rows == 0:
            connecting[m] = BitMatrix.zeros(hs[m + 1].dim, 0)
            continue
        lifted = (rel.section[m] @ reps.transpose()).transpose()  # reps @ section^T
        w = lifted @ rel.total_tower.differential(m).transpose()
        # incl is injective with one representative per column: read u there
        u = w.take_columns(rel.meta["last"][m + 1])
        if rel.incl[m + 1] @ u.transpose() != w.transpose():
            raise GF2Error(f"connecting-map lift failed at word degree {m}")
        connecting[m] = hs[m + 1].project_rows(u).transpose()

    nodes = []
    for m in degrees:
        ok = (p_star[m] @ i_star[m]).is_zero() and (
            i_star[m].rank() + p_star[m].rank() == ht[m].dim
        )
        nodes.append((f"H^{m}(total)", ok))
    for m in range(limit):
        ok = (connecting[m] @ p_star[m]).is_zero() and (
            p_star[m].rank() + connecting[m].rank() == hq[m].dim
        )
        nodes.append((f"H^{m}(quotient)", ok))
    nodes.append(("H^0(sub)", i_star[0].rank() == hs[0].dim))
    for m in range(limit):
        ok = (i_star[m + 1] @ connecting[m]).is_zero() and (
            connecting[m].rank() + i_star[m + 1].rank() == hs[m + 1].dim
        )
        nodes.append((f"H^{m + 1}(sub)", ok))

    return LESReport(tuple(nodes), tuple(connecting[m] for m in sorted(connecting)))


def comparison_filtration(pair: InclusionPair, rel: RelativeTower) -> FilteredTower:
    """Filtration of a relative complex by prefix symmetry defects.

    All three chains are normalized to start at internal index 0 = full
    space; the two chains customarily written from index 1 carry
    index_offset 1 so reports can translate back.
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
        for p in range(1, m):
            all_words, repeat = _prefix_defects(d, m, p + 1)
            dead = cls(all_words[repeat & kills], p + 1)
            chain.append(_expand(_leaders(cls(words, p + 1), dead), mdim))
        if (chain[-1] >= 0).any():
            chain.append(np.full(rel.tower.dims[n], -1))
        filt.append(tuple(chain))
    offset = 0 if pair is InclusionPair.EXT_IN_TENSOR else 1
    ft = FilteredTower(
        rel.tower,
        tuple(filt),
        label=f"comparison[{pair.value}]",
        index_offset=offset,
    )
    validate_filtration(ft)
    return ft


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
    return _product_cokernel(pair, table, restr, classes, triv)


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


def _product_cokernel(pair, table, restr, classes, triv) -> ComplexTower:
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
    diffs = tuple(pis[p + 1].product_columns(restr[p], pis[p].a) for p in range(len(mus) - 1))
    dims = tuple(len(g) for g in gens)
    return ComplexTower(dims, diffs, None, label=f"cr[{pair.value}]")


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
    rel = build_relative_complex(pair, table, coeffs, n_rel)
    ft = comparison_filtration(pair, rel)
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
        f.value: cochain_betti_table(f, table, coeffs, n_max, label=f.value)
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
