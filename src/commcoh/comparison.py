"""Relative complexes between the three flavors, their filtrations,
the cokernel complexes of the product maps, and the product-shape
checks on the second page.

The quotient complexes are modeled concretely as functionals on the
kernel of the argument-space surjection, which gives canonical
coordinates and makes representative independence automatic.  The
kernels carry hand-picked independent bases:

  repeat span  I_n : coordinate words with a repeated letter, plus
                     w + sort(w) for unsorted squarefree words;
  swap span    J_n : w + sort(w) for every unsorted word;

and their prefix forms I_{n,p}, J_{n,p} restrict the defect to the
first p slots (sorting only that prefix).

Degree bookkeeping is in word degree throughout; a relative complex in
its own grading sits two degrees lower, a cokernel-of-products complex
one degree lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BimoduleSpec,
    BracketTable,
    as_coefficients,
    classify_algebra,
    coadjoint_module,
    symmetrize,
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
    _to_columns,
    basis_dim,
    basis_tuples,
    build_tower,
    inclusion_matrix,
)
from .cohomology import (
    BettiTable,
    betti_table,
    boundaries,
    cycles,
)
from .gf2 import (
    BitMatrix,
    GF2Error,
    QuotientCoords,
    Subspace,
    image,
    induced_map,
    kernel_basis,
    solve,
)
from .spectral import (
    FilteredTower,
    compute_pages,
    convergence_check,
    stabilization_index,
    validate_filtration,
)

__all__ = [
    "repeat_span_rows",
    "swap_span_rows",
    "span_matrix",
    "RelativeTower",
    "build_relative_complex",
    "LESReport",
    "long_exact_sequence_check",
    "comparison_filtration",
    "CRTower",
    "build_cr_complex",
    "ProductReport",
    "verify_e2_product",
    "vanishing_window",
    "PropagationReport",
    "vanishing_propagation_report",
    "FullVanishingReport",
    "full_vanishing_check",
]


def _words(d, n):
    return basis_tuples(Flavor.TENSOR, d, n)


def _word_array(rows, n):
    """The words of span generators as the rows of an int array."""
    return np.array([w for _, w in rows], dtype=np.int64).reshape(len(rows), n)


def _sort_prefix(words, p):
    out = words.copy()
    out[:, :p] = np.sort(words[:, :p], axis=1)
    return out


def _has_repeat(seq) -> bool:
    return len(set(seq)) != len(seq)


def repeat_span_rows(d: int, n: int, p: int | None = None):
    """Independent generators of the repeated-index span on the first p slots.

    Each entry is (kind, word): kind "unit" contributes the coordinate
    vector of the word, kind "pair" contributes word + prefix-sorted
    word.  p = None means the whole word is in scope.
    """
    if p is None:
        p = n
    rows = []
    for w in _words(d, n):
        if _has_repeat(w[:p]):
            rows.append(("unit", w))
        elif w[:p] != tuple(sorted(w[:p])):
            rows.append(("pair", w))
    return rows


def swap_span_rows(d: int, n: int, p: int | None = None):
    """Independent generators of the adjacent-swap span on the first p slots."""
    if p is None:
        p = n
    return [("pair", w) for w in _words(d, n) if w[:p] != tuple(sorted(w[:p]))]


def _span_terms(rows, p_sort: int, n: int, index_fn):
    """Block terms of span generators: row t has a one at the coordinate of
    its word and, for a pair, of its prefix-sorted word; index_fn maps an
    int array of words to coordinates, and a negative one is dropped."""
    words = _word_array(rows, n)
    pair = np.flatnonzero([kind == "pair" for kind, _ in rows])
    terms = []
    for gen, w in ((np.arange(len(rows)), words), (pair, _sort_prefix(words[pair], p_sort))):
        cols = index_fn(w)
        keep = cols >= 0
        terms.append((gen[keep], cols[keep], None))
    return terms


def span_matrix(rows, p_sort: int, d: int, n: int, mdim: int = 1, index_fn=None):
    """Materialize span generators as rows of a packed matrix.

    index_fn maps an int array of words, one per row, to the coordinates
    of their unit vectors; the default is the colexicographic tensor rank.
    """
    if index_fn is None:
        index_fn = lambda words: _index(Flavor.TENSOR, d, words)
    return _block_matrix((len(rows), d**n), mdim, _span_terms(rows, p_sort, n, index_fn))


@dataclass(frozen=True)
class RelativeTower:
    """A cokernel complex with its short-exact-sequence witness.

    tower is graded so that degree n holds the word-degree n + 2
    quotient; incl, proj, and section are per word degree, with
    proj @ section the identity and ker(proj) the inclusion image.
    """

    kind: InclusionPair
    tower: ComplexTower
    sub_tower: ComplexTower
    total_tower: ComplexTower
    incl: tuple
    proj: tuple
    section: tuple
    table: BracketTable
    coeffs: BimoduleSpec
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


def _require_pair(pair: InclusionPair, table: BracketTable):
    cls = classify_algebra(table)
    if pair in (InclusionPair.EXT_IN_TENSOR, InclusionPair.EXT_IN_SYM):
        if not cls.is_lie:
            raise GF2Error(f"{pair.value} needs a Lie algebra")
    elif not cls.is_commutative_lie:
        raise GF2Error(f"{pair.value} needs a commutative Lie algebra")


def _word_projection(pair, d, m, mdim):
    """(raw rows, pi, sigma) for the tensor quotient model at word degree m.

    sigma extends a functional on the span by its raw coordinates on the
    generator words and zero on sorted words: an explicit right inverse.
    """
    rows = (
        repeat_span_rows(d, m)
        if pair is InclusionPair.EXT_IN_TENSOR
        else swap_span_rows(d, m)
    )
    pi = span_matrix(rows, m, d, m, mdim)
    coords = _index(Flavor.TENSOR, d, _word_array(rows, m))
    sig = _block_matrix((d**m, len(rows)), mdim, [(coords, np.arange(len(rows)), None)])
    return rows, pi, sig


def _sym_quotient_projection(d, m, mdim):
    """Projection of symmetric cochains onto functionals on the
    sub-quotient (repeat span modulo swap span)."""
    full = d**m
    i_span = Subspace.from_rows(full, span_matrix(repeat_span_rows(d, m), m, d, m))
    j_span = Subspace.from_rows(full, span_matrix(swap_span_rows(d, m), m, d, m))
    qc = QuotientCoords(i_span, j_span)
    t, widx = qc.lift_rows().coords()
    mono = _index(Flavor.SYM, d, _monomials(Flavor.TENSOR, d, m)[widx])
    pi = _block_matrix((qc.dim, basis_dim(Flavor.SYM, d, m)), mdim, [(t, mono, None)])
    return qc, pi


def build_relative_complex(
    pair: InclusionPair, table: BracketTable, coeffs, n_rel_max: int
) -> RelativeTower:
    """Quotient complex of one flavor inclusion, shifted two degrees down."""
    coeffs = as_coefficients(table, coeffs)
    _require_pair(pair, table)
    d, mdim = table.dim, coeffs.dim
    m_top = n_rel_max + 2
    sub_fl, tot_fl = INCLUSION_FLAVORS[pair]
    sub_tower = build_tower(sub_fl, table, coeffs, m_top, label=f"sub[{sub_fl.value}]")
    total_tower = build_tower(tot_fl, table, coeffs, m_top, label=f"total[{tot_fl.value}]")

    incls, projs, sections, struct = [], [], [], []
    rel_dims, rel_diffs = [], []
    for m in range(m_top + 1):
        incls.append(inclusion_matrix(pair, d, mdim, m))
        if pair is InclusionPair.EXT_IN_SYM:
            qc, pi = _sym_quotient_projection(d, m, mdim)
            sig = solve(pi, BitMatrix.identity(pi.rows))
            if sig is None:
                raise GF2Error("quotient projection is not surjective")
            struct.append(qc)
        else:
            rows, pi, sig = _word_projection(pair, d, m, mdim)
            struct.append(rows)
        projs.append(pi)
        sections.append(sig)
        if sub_tower.dims[m] + pi.rows != total_tower.dims[m]:
            raise GF2Error(f"short exact sequence dimensions break at degree {m}")
        if m >= 2:
            rel_dims.append(pi.rows)

    for m in range(2, m_top):
        dd = total_tower.differential(m)
        # functionals vanishing on the kernel span must stay that way
        probe = projs[m + 1] @ (dd @ incls[m])
        if not probe.is_zero():
            raise GF2Error(f"induced differential ill-defined at word degree {m}")
        rel_diffs.append(projs[m + 1] @ (dd @ sections[m]))

    rel = ComplexTower(
        tuple(rel_dims),
        tuple(rel_diffs),
        None,
        label=f"rel[{pair.value}]",
        table=table,
        coeffs=coeffs,
    )
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
        meta={"struct": struct},
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

    zs = {m: cycles(rel.sub_tower, m) for m in range(limit + 1)}
    bs = {m: boundaries(rel.sub_tower, m) for m in range(limit + 1)}
    zt = {m: cycles(rel.total_tower, m) for m in range(limit + 1)}
    bt_ = {m: boundaries(rel.total_tower, m) for m in range(limit + 1)}
    zq = {m: cycles(qt, m) for m in range(limit + 1)}
    bq = {m: boundaries(qt, m) for m in range(limit + 1)}

    i_star = {
        m: induced_map(rel.incl[m], zs[m], bs[m], zt[m], bt_[m])
        for m in range(limit + 1)
    }
    p_star = {
        m: induced_map(rel.proj[m], zt[m], bt_[m], zq[m], bq[m])
        for m in range(limit + 1)
    }

    connecting = {}
    for m in range(limit):
        reps = QuotientCoords(zq[m], bq[m]).lift_rows()
        h_next = QuotientCoords(zs[m + 1], bs[m + 1])
        if reps.rows == 0:
            connecting[m] = BitMatrix.zeros(h_next.dim, 0)
            continue
        lifted = reps @ rel.section[m].transpose()
        w = lifted @ rel.total_tower.differential(m).transpose()
        u = solve(rel.incl[m + 1], w.transpose())
        if u is None:
            raise GF2Error(f"connecting-map lift failed at word degree {m}")
        connecting[m] = h_next.project_rows(u.transpose()).transpose()

    nodes = []
    for m in range(limit + 1):
        h_t = QuotientCoords(zt[m], bt_[m]).dim
        ok = (p_star[m] @ i_star[m]).is_zero() and (
            i_star[m].rank() + p_star[m].rank() == h_t
        )
        nodes.append((f"H^{m}(total)", ok))
    for m in range(limit):
        h_q = QuotientCoords(zq[m], bq[m]).dim
        ok = (connecting[m] @ p_star[m]).is_zero() and (
            p_star[m].rank() + connecting[m].rank() == h_q
        )
        nodes.append((f"H^{m}(quotient)", ok))
    nodes.append(("H^0(sub)", i_star[0].rank() == QuotientCoords(zs[0], bs[0]).dim))
    for m in range(limit):
        h_s = QuotientCoords(zs[m + 1], bs[m + 1]).dim
        ok = (i_star[m + 1] @ connecting[m]).is_zero() and (
            connecting[m].rank() + i_star[m + 1].rank() == h_s
        )
        nodes.append((f"H^{m + 1}(sub)", ok))

    return LESReport(tuple(nodes), tuple(connecting[m] for m in sorted(connecting)))


def comparison_filtration(pair: InclusionPair, rel: RelativeTower) -> FilteredTower:
    """Filtration of a relative complex by prefix symmetry defects.

    All three chains are normalized to start at internal index 0 = full
    space; the two chains customarily written from index 1 carry
    index_offset 1 so reports can translate back.
    """
    d = rel.table.dim
    mdim = rel.coeffs.dim
    filt = []
    for n in range(rel.tower.n_max + 1):
        m = n + 2
        rel_dim = rel.tower.dims[n]
        chain = [Subspace.full(rel_dim)]
        if pair is InclusionPair.EXT_IN_SYM:
            qc = rel.meta["struct"][m]
            for p in range(1, m):
                gens = repeat_span_rows(d, m, p + 1)
                if not gens:
                    chain.append(Subspace.full(rel_dim))
                    continue
                mu = qc.project_rows(span_matrix(gens, p + 1, d, m))
                t, k = mu.coords()
                constraints = _block_matrix(mu.shape, mdim, [(t, k, None)])
                chain.append(kernel_basis(constraints))
        else:
            rows = rel.meta["struct"][m]
            # coordinate of each word among the span generators, -1 if none
            lookup = np.full(d**m, -1)
            lookup[_index(Flavor.TENSOR, d, _word_array(rows, m))] = np.arange(len(rows))
            index_fn = lambda words: lookup[_index(Flavor.TENSOR, d, words)]
            if pair is InclusionPair.EXT_IN_TENSOR:
                gen_rows = lambda p: repeat_span_rows(d, m, p + 1)
            else:
                gen_rows = lambda p: swap_span_rows(d, m, p + 1)
            for p in range(1, m):
                gens = gen_rows(p)
                if not gens:
                    chain.append(Subspace.full(rel_dim))
                    continue
                terms = _span_terms(gens, p + 1, m, index_fn)
                chain.append(kernel_basis(_block_matrix((len(gens), len(rows)), mdim, terms)))
        if chain[-1].dim != 0:
            chain.append(Subspace.zero(rel_dim))
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


@dataclass(frozen=True)
class CRTower:
    """Cokernel of the product-map pullback, shifted one degree down.

    Degree p of the tower is the quotient of the dual-valued cochain
    space on word degree p + 1 by the pullback image of the scalar
    cochains of word degree p + 2.
    """

    kind: InclusionPair
    tower: ComplexTower
    pullbacks: tuple

    def hr(self) -> BettiTable:
        return betti_table(self.tower)


def _insert_pullback(flavor, d, p):
    """Pullback of the product map: scalar (p+2)-cochains c become the
    dual-valued (p+1)-cochains (args; y) -> c(args, y)."""
    monos = _monomials(flavor, d, p + 1)
    rows = np.arange(len(monos) * d)
    words = np.column_stack([monos[rows // d], rows % d])
    terms = [_to_columns(flavor, d, rows, words)]
    return _block_matrix((len(rows), basis_dim(flavor, d, p + 2)), 1, terms)


def build_cr_complex(pair: InclusionPair, table: BracketTable, n_cr_max: int) -> CRTower:
    """Cokernel complex whose cohomology is the product-shape tensor factor.

    Coefficients are fixed as the construction demands: trivial scalars
    on the truncated source, the dual space with the bracket-pullback
    action on the target.  Injectivity and the chain-map identity of the
    pullback are verified degreewise.
    """
    _require_pair(pair, table)
    d = table.dim
    coad = symmetrize(coadjoint_module(table), table)
    if pair is InclusionPair.EXT_IN_SYM:
        return _build_cr_mixed(pair, table, coad, n_cr_max)

    flavor = Flavor.EXT if pair is InclusionPair.EXT_IN_TENSOR else Flavor.SYM
    m_top = n_cr_max + 2
    a_tower = build_tower(flavor, table, coad, m_top, label="dual-valued")
    triv_tower = build_tower(flavor, table, trivial_module(table), m_top, label="scalar")

    mus = [_insert_pullback(flavor, d, p) for p in range(n_cr_max + 1)]
    for p in range(n_cr_max + 1):
        if mus[p].rank() != mus[p].cols:
            raise GF2Error(f"product pullback not injective at degree {p}")
    for p in range(n_cr_max):
        lhs = a_tower.differential(p + 1) @ mus[p]
        rhs = mus[p + 1] @ triv_tower.differential(p + 2)
        if lhs != rhs:
            raise GF2Error(f"product pullback is not a chain map at degree {p}")

    images = [image(mu) for mu in mus]
    dims = [
        a_tower.dims[p + 1] - images[p].dim for p in range(n_cr_max + 1)
    ]
    diffs = [
        induced_map(
            a_tower.differential(p + 1),
            Subspace.full(a_tower.dims[p + 1]),
            images[p],
            Subspace.full(a_tower.dims[p + 2]),
            images[p + 1],
        )
        for p in range(n_cr_max)
    ]
    tower = ComplexTower(
        tuple(dims), tuple(diffs), None, label=f"cr[{pair.value}]", table=table
    )
    return CRTower(pair, tower, tuple(mus))


def _combined_index(d, words):
    """Coordinate of each combined word (arguments..., dual slot)."""
    return _index(Flavor.TENSOR, d, words[:, :-1]) * d + words[:, -1]


def _ext_word_pullback(d, m):
    """Row k: the combined words whose Ext class is the k-th exterior monomial."""
    words = _monomials(Flavor.TENSOR, d, m)
    ext = _index(Flavor.EXT, d, words)
    keep = ext >= 0
    rows, cols = ext[keep], _combined_index(d, words[keep])
    return BitMatrix.from_coords(basis_dim(Flavor.EXT, d, m), d**m, rows, cols)


def _build_cr_mixed(pair, table: BracketTable, coad, n_cr_max: int) -> CRTower:
    """Mixed-symmetry variant: dual-valued word cochains whose combined
    word (arguments then dual slot) is killed by full adjacent swaps and
    by repeats among the argument slots."""
    d = table.dim
    ambient = build_tower(
        Flavor.TENSOR, table, coad, n_cr_max + 2, label="dual-words"
    )
    triv = build_tower(
        Flavor.EXT, table, trivial_module(table), n_cr_max + 2, label="scalar"
    )

    cl_index = lambda words: _combined_index(d, words)
    a_sub = []
    for p in range(n_cr_max + 2):
        m = p + 2
        cons = BitMatrix.vstack(
            span_matrix(repeat_span_rows(d, m, m - 1), m - 1, d, m, 1, cl_index),
            span_matrix(swap_span_rows(d, m), m, d, m, 1, cl_index),
        )
        a_sub.append(kernel_basis(cons))

    restr = []
    for p in range(n_cr_max + 1):
        dd = ambient.differential(p + 1)
        if a_sub[p].dim == 0:
            restr.append(BitMatrix.zeros(a_sub[p + 1].dim, 0))
            continue
        imgs = a_sub[p].basis @ dd.transpose()
        restr.append(a_sub[p + 1].row_coefficients(imgs).transpose())

    mus = []
    for p in range(n_cr_max + 1):
        m = p + 2
        cols = a_sub[p].row_coefficients(_ext_word_pullback(d, m))
        mus.append(cols.transpose())
        if mus[p].rank() != mus[p].cols:
            raise GF2Error(f"product pullback not injective at degree {p}")
    for p in range(n_cr_max):
        if restr[p] @ mus[p] != mus[p + 1] @ triv.differential(p + 2):
            raise GF2Error(f"product pullback is not a chain map at degree {p}")

    images = [image(mu) for mu in mus]
    dims = [a_sub[p].dim - images[p].dim for p in range(n_cr_max + 1)]
    diffs = [
        induced_map(
            restr[p],
            Subspace.full(a_sub[p].dim),
            images[p],
            Subspace.full(a_sub[p + 1].dim),
            images[p + 1],
        )
        for p in range(n_cr_max)
    ]
    tower = ComplexTower(
        tuple(dims), tuple(diffs), None, label=f"cr[{pair.value}]", table=table
    )
    return CRTower(pair, tower, tuple(mus))


_PARTNER_FLAVOR = {
    InclusionPair.EXT_IN_TENSOR: Flavor.TENSOR,
    InclusionPair.EXT_IN_SYM: Flavor.SYM,
    InclusionPair.SYM_IN_TENSOR: Flavor.TENSOR,
}


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
    pair: InclusionPair, table: BracketTable, coeffs, n_max: int
) -> ProductReport:
    """Compare engine-computed second-page dimensions with the product of
    the cokernel cohomology and the partner cohomology.

    Mismatches are report entries, not errors; the convergence of the
    filtration toward the relative cohomology is checked as well.
    """
    coeffs = as_coefficients(table, coeffs)
    n_rel = n_max - 2
    rel = build_relative_complex(pair, table, coeffs, n_rel)
    ft = comparison_filtration(pair, rel)
    pages = compute_pages(ft, max(3, stabilization_index(ft)))
    conv = convergence_check(ft, pages)

    cr = build_cr_complex(pair, table, n_rel)
    hr = cr.hr()
    partner_tower = build_tower(_PARTNER_FLAVOR[pair], table, coeffs, n_max)
    partner = betti_table(partner_tower)

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


def vanishing_propagation_report(table: BracketTable, coeffs, n_max: int):
    """All applicable vanishing-propagation statements for one input.

    Lie algebras: an exterior-cohomology vanishing window forces the same
    window for tensor and symmetric cohomology with matching dimensions
    in the next two degrees.  Commutative Lie algebras: the symmetric
    window propagates to the tensor side, and conversely.
    """
    coeffs = as_coefficients(table, coeffs)
    cls = classify_algebra(table)
    hs = betti_table(build_tower(Flavor.SYM, table, coeffs, n_max, label="sym"))
    hl = betti_table(build_tower(Flavor.TENSOR, table, coeffs, n_max, label="tensor"))
    reports = []
    tables = {"sym": hs.dims, "tensor": hl.dims}
    if cls.is_lie:
        h = betti_table(build_tower(Flavor.EXT, table, coeffs, n_max, label="ext"))
        tables["ext"] = h.dims
        reports.append(_propagate("ext", h, "tensor", hl))
        reports.append(_propagate("ext", h, "sym", hs))
    reports.append(_propagate("sym", hs, "tensor", hl))
    reports.append(_propagate("tensor", hl, "sym", hs))
    return reports, tables


@dataclass(frozen=True)
class FullVanishingReport:
    tables: dict

    @property
    def ok(self) -> bool:
        return all(all(v == 0 for v in dims) for dims in self.tables.values())


def full_vanishing_check(table: BracketTable, coeffs, n_max: int) -> FullVanishingReport:
    """All defined cohomologies of one coefficient module, for zero checks."""
    coeffs = as_coefficients(table, coeffs)
    cls = classify_algebra(table)
    tables = {
        "sym": betti_table(build_tower(Flavor.SYM, table, coeffs, n_max)).dims,
        "tensor": betti_table(build_tower(Flavor.TENSOR, table, coeffs, n_max)).dims,
    }
    if cls.is_lie:
        tables["ext"] = betti_table(build_tower(Flavor.EXT, table, coeffs, n_max)).dims
    return FullVanishingReport(tables)
