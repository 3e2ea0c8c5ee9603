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
selection of the generators.  Every map of words is held as index arrays,
never packed: pi as a WordMap, the pullback as the class of each
coordinate, sigma as the inverse of pi.a (_section).  A relative complex
(RelativeTower) holds no d[k]: it reads the ones at a quotient column g
off the total coboundary generator at the total coordinate pi[k].a[g],
each one (c, r) landing on the rows of pi[k+1] holding r, and no route
packs a whole relative differential.  The small product cokernels hold
their differentials, taken from the generator columns of the held d[k],
and pack their pullbacks for the chain-map check.  Every product cokernel
comes from one dual-valued tower with coadjoint coefficients (exterior
for lie-leibniz, symmetric otherwise).  lie-comm first keeps a class span
of the symmetric tower: a coordinate (args; y) falls in the class of its
sorted combined word, and a class dies where one of its coordinates
repeats a letter among the args.

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
generator (cohomology._part_block), d^m d^{m-1} = 0 is checked, and T_m
is reduced once, carrying combinations (cohomology._Classes): the
boundaries, cycles, class lifts and coset coordinates all come from
that reduction.  The inclusion, projection and section are WordMaps made
there from the relative complex's index arrays and applied to rows
(WordMap.apply_rows), each induced map checks that cycles and boundaries
go to cycles and boundaries, and the lift is read at the class
representatives, so no whole-width differential, map, cycle or boundary
basis is held and no subspace is eliminated.

Degree bookkeeping is in word degree throughout; a relative complex in
its own grading sits two degrees lower, a cokernel-of-products complex
one degree lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BracketTable,
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
    _index,
    _monomials,
    _require_flavor,
    basis_dim,
    build_tower,
)
from .cohomology import BettiTable, _Classes, _induced, _part_block, _squares_to_zero, _weight_parts, betti_table
from . import gf2
from .gf2 import _COORD_BYTES, BitMatrix, GF2Error, Subspace, WordMap
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

    cls[i] is the class of word i, -1 where the word's class is zero; the
    pullback puts the one of row i * mdim + k at column cls[i] * mdim + k.
    Returns (last, pi):
      last  the last member of each class, -1 where a class has none;
      pi    row g is e_g + e_(last of g's class), or e_g where g has no
            class, for each generator g (every word but the last member of
            each class) in order, so ker(pi) is the pullback's image.
    pi is a WordMap on the coordinates i * mdim + k of word i, and pi.a
    lists the generators' coordinates; pi @ _section(pi) = 1 is checked.
    """
    live = np.flatnonzero(cls >= 0)
    last = np.full(n_classes, -1)
    np.maximum.at(last, cls[live], live)
    gens = np.flatnonzero(np.bincount(last[last >= 0], minlength=len(cls)) == 0)
    rep = np.append(last, -1)[cls[gens]]  # class -1 reads the appended -1
    pi = WordMap(len(gens) * mdim, len(cls) * mdim, _expand(gens, mdim), _expand(rep, mdim))
    # pi @ sigma = 1: generator g's coordinate selects g, its representative nothing
    sigma = _section(pi)
    picked = sigma.a[pi.b[pi.b >= 0]]
    if not (np.array_equal(sigma.a[pi.a], np.arange(pi.rows)) and (picked < 0).all()):
        raise GF2Error("quotient projection is not surjective")
    return last, pi


def _section(pi: WordMap) -> WordMap:
    """sigma, the selection of pi's generators: sigma.a inverts pi.a and is
    -1 at every other coordinate."""
    pick = np.full(pi.cols, -1)
    pick[pi.a] = np.arange(pi.rows)
    return WordMap(pi.cols, pi.rows, pick)


def _leaders(cls, dead):
    """Each coordinate's class relabelled by its first member; -1 where it
    has no class or its class is listed in dead."""
    live = np.flatnonzero((cls >= 0) & ~np.isin(cls, dead))
    _, first, label = np.unique(cls[live], return_index=True, return_inverse=True)
    lead = np.full(len(cls), -1)
    lead[live] = live[first][label]
    return lead


def require_pair(pair: InclusionPair, table: BracketTable):
    """Raise PreconditionError unless table is the kind of algebra pair needs."""
    cls = classify_algebra(table)
    if INCLUSION_FLAVORS[pair][0] is Flavor.EXT:
        if not cls.is_lie:
            raise PreconditionError(f"{pair.value} needs a Lie algebra")
    elif not cls.is_commutative_lie:
        raise PreconditionError(f"{pair.value} needs a commutative Lie algebra")


@dataclass(frozen=True)
class RelativeTower(ComplexTower):
    """The quotient complex of one flavor inclusion, with the index arrays
    of its short exact sequence 0 -> sub -> total -> quotient -> 0.

    Degree n holds the word-degree n + 2 quotient.  flavor is the total
    flavor, so the base generator (ComplexTower.ones at word degree m) is
    the total coboundary.  Per word degree m, on the total coordinates:
      classes[m]  the sub coordinate of each total coordinate's class, -1
                  where it has none: the inclusion is the WordMap whose
                  row i has its one at classes[m][i], and its image is
                  ker(proj[m]);
      proj[m]     pi of _class_map, its rows grouped by column in rows[m];
      reps[m]     the total coordinate representing each sub coordinate,
                  the last member of its class.
    The ones of pi[m+1] @ d @ sigma[m] are the total coboundary's at the
    generators pi[m].a (whose weights are their class representatives'),
    each (c, r) landing on the rows holding r; a one listed twice cancels.
    The index arrays follow from the pair and the dimensions, so they take
    no part in equality.
    """

    kind: InclusionPair | None = None
    classes: tuple = field(default=(), compare=False)
    proj: tuple = field(default=(), compare=False)
    rows: tuple = field(default=(), compare=False)
    reps: tuple = field(default=(), compare=False)

    @property
    def word_degrees(self) -> int:
        return len(self.proj) - 1

    def total_ones(self, m: int, cols):
        """The ones (i, g) of pi[m+1] @ d(e_c), c = cols[i], d the total coboundary, a generator
        chunk cut to land about RANK_BLOCK_BYTES / _COORD_BYTES ones a piece (one column stays whole)."""
        starts, budget = self.rows[m + 1][0], max(1, gf2.RANK_BLOCK_BYTES // _COORD_BYTES)
        for c, r in super().ones(m, cols):
            landed = np.cumsum(starts[r + 1] - starts[r])  # the ones gathered up to each one
            stops = np.arange(budget, landed.max(initial=0), budget) if (c != c[:1]).any() else []
            cuts = np.searchsorted(landed, stops, "right")
            for piece in zip(np.split(r, cuts), np.split(c, cuts)):
                yield _gather(self.rows[m + 1], *piece)

    def ones(self, n: int, cols):
        return self.total_ones(n + 2, self.proj[n + 2].a[cols])

    def weights(self, n: int):
        return super().weights(n + 2)[self.proj[n + 2].a]


def build_relative_complex(
    pair: InclusionPair, table: BracketTable, coeffs, n_rel_max: int
) -> RelativeTower:
    """Quotient complex of one flavor inclusion, shifted two degrees down.

    It is held by the total coboundary's generator (RelativeTower); only
    the probe pi[m+1] @ d @ incl[m], which must be zero, is packed."""
    require_pair(pair, table)
    sub_fl, tot_fl = INCLUSION_FLAVORS[pair]
    _require_flavor(sub_fl, table, coeffs)  # the pair's table passes tot_fl's axioms too
    d, mdim = table.dim, coeffs.dim
    m_top = n_rel_max + 2

    classes, projs, reps = [], [], []
    for m in range(m_top + 1):
        cls = _index(sub_fl, d, _monomials(tot_fl, d, m))
        last, pi = _class_map(cls, basis_dim(sub_fl, d, m), mdim)
        classes.append(_expand(cls, mdim))
        projs.append(pi)
        reps.append(_expand(last, mdim))
        if reps[m].size + pi.rows != pi.cols:
            raise GF2Error(f"short exact sequence dimensions break at degree {m}")

    rel = RelativeTower(
        tuple(pi.rows for pi in projs[2:]), tot_fl, f"rel[{pair.value}]", table, coeffs,
        kind=pair, classes=tuple(classes), proj=tuple(projs),
        rows=tuple(pi.column_rows() for pi in projs), reps=tuple(reps),
    )
    for m in range(2, m_top):
        # functionals vanishing on the kernel span must stay so: incl[m] sums each class's members
        live = np.flatnonzero(classes[m] >= 0)
        probe = np.zeros((projs[m + 1].rows, _word_count(reps[m].size)), dtype=np.uint64)
        for i, g in rel.total_ones(m, live):
            _xor_scatter(probe, g, classes[m][live[i]])
        if probe.any():
            raise GF2Error(f"induced differential ill-defined at word degree {m}")
    return rel


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


def _direct_sum(blocks) -> BitMatrix:
    """The direct sum of blocks (row keys, column keys, block), its rows and
    columns in increasing key order; 0 x 0 for no blocks."""
    if not blocks:
        return BitMatrix.zeros(0, 0)
    rows, cols = (np.sort(np.concatenate([b[k] for b in blocks])) for k in (0, 1))
    r, c = (np.concatenate(x) for x in zip(*[(rk[i], ck[j]) for rk, ck, b in blocks for i, j in [b.coords()]]))
    return BitMatrix.from_coords(rows.size, cols.size, np.searchsorted(rows, r), np.searchsorted(cols, c))


def _part_sequence(rel: RelativeTower, ones, sections, co, limit: int):
    """The long exact sequence on one weight part, co[v][m] its entries of
    _weight_parts for the sub, total and quotient complexes (v = 0, 1, 2),
    and sections[m] the section's index array sigma.a in word degree m.

    Returns the part's node verdicts, in the order of the report's nodes,
    and for each word degree m < limit the connecting map's block with the
    coordinate of the pivot column behind each of its rows and columns.  A
    degree where the part has no coordinates is skipped: its cohomology is
    zero.
    """
    s, t, q = ([c for c, _, _ in deg] for deg in co)
    below = [{}] * 3  # the echelon of T_{m-1} of each complex, a basis of the boundaries of degree m
    empty, none = WordMap(0, 0, []), _Classes(BitMatrix.zeros(0, 0), {})

    def at(m):
        """(H^m(sub), H^m(total), H^m(quotient), i_*, p_*, incl, w) at word
        degree m, w the total coboundaries of the quotient classes' lifts."""
        if not (s[m].size or t[m].size or q[m].size):
            below[:] = [{}] * 3  # T_m has no rows
            return none, none, none, BitMatrix.zeros(0, 0), BitMatrix.zeros(0, 0), empty, None
        h = []
        for v in range(3):
            tm = _part_block(ones[v], m, co[v][m], co[v][m + 1])
            if not _squares_to_zero(below[v], tm):
                raise GF2Error(f"differentials do not square to zero at word degree {m - 1}")
            h.append(_Classes(tm, below[v]))
            below[v] = h[v].top
            if v == 1:
                tt = tm  # the total T_m, which lifts the connecting map
        del tm
        incl = WordMap(t[m].size, s[m].size, _part_index(s[m], rel.classes[m][t[m]], m))
        pi = rel.proj[m]
        proj = WordMap(q[m].size, t[m].size, *(_part_index(t[m], x[q[m]], m) for x in (pi.a, pi.b)))
        i_star, p_star = _induced(incl.apply_rows, h[0], h[1]), _induced(proj.apply_rows, h[1], h[2])
        w = None
        if h[2].dim:
            section = WordMap(t[m].size, q[m].size, _part_index(q[m], sections[m][t[m]], m))
            w = section.apply_rows(h[2].lift_rows()) @ tt
        return (*h, i_star, p_star, incl, w)

    # one sweep up the degrees, holding H^m and H^{m+1} only
    hs, ht, hq, i_star, p_star, _, w = at(0)
    total_ok, quotient_ok, sub_ok, blocks = [], [], [i_star.rank() == hs.dim], []
    for m in range(limit + 1):
        total_ok.append((p_star @ i_star).is_zero() and i_star.rank() + p_star.rank() == ht.dim)
        if m == limit:
            break
        q_free = hq.free
        del hs, ht, hq  # the rest of degree m is read no further
        hs, ht, hq, i_star1, p_star1, incl1, w1 = at(m + 1)
        if w is None:
            delta = BitMatrix.zeros(hs.dim, 0)
        else:
            # incl is injective with one representative per column: read u there
            u = w.take_columns(_part_index(t[m + 1], rel.reps[m + 1][s[m + 1]], m + 1))
            if incl1.apply_rows(u) != w:
                raise GF2Error(f"connecting-map lift failed at word degree {m}")
            u = hs.reduce(u)
            if not hs.cycles(u):
                raise GF2Error(f"connecting-map lift is not a cycle at word degree {m}")
            delta = hs.coords(u).transpose()
        blocks.append((s[m + 1][hs.free], q[m][q_free], delta))
        quotient_ok.append((delta @ p_star).is_zero() and p_star.rank() + delta.rank() == q_free.size)
        sub_ok.append((i_star1 @ delta).is_zero() and delta.rank() + i_star1.rank() == hs.dim)
        i_star, p_star, w = i_star1, p_star1, w1
    return total_ok + quotient_ok + sub_ok, blocks


def long_exact_sequence_check(rel: RelativeTower) -> LESReport:
    """Assemble the long exact sequence and verify exactness at every node.

    The sequence is swept one weight part at a time (the module docstring,
    _part_sequence) through word degree rel.word_degrees - 1, the last
    with a cohomology; a one of a differential outside its row's class,
    or of a map outside its part, raises, naming its word degree.
    Exactness at a node is rank arithmetic, in every part: the composite
    of consecutive maps vanishes and the ranks add up to the middle
    dimension.  Each connecting map is the direct sum of its part blocks,
    in the coset coordinates the whole sequence would have.  A lift
    failure inside the connecting map is a chain-map bug, not a report
    entry, and raises.  A tower that is not rel.kind's (its total flavor,
    or its sub coordinates in some word degree) is refused first, naming
    the lowest word degree where it breaks.
    """
    m_top, proj = rel.word_degrees, rel.proj
    sub_fl, tot_fl = INCLUSION_FLAVORS[rel.kind]
    for m in range(m_top + 1):
        if tot_fl is not rel.flavor or len(rel.reps[m]) != basis_dim(sub_fl, rel.table.dim, m) * rel.coeffs.dim:
            raise GF2Error(f"relative tower is not the {rel.kind.value} quotient at word degree {m}")
    sub = build_tower(sub_fl, rel.table, rel.coeffs, m_top)
    total = ComplexTower(tuple(pi.cols for pi in proj), rel.flavor, "", rel.table, rel.coeffs)  # never packed
    limit = m_top - 1
    # the ones of d^m(e_f) of the sub, total and quotient complexes in word degree m
    ones = (sub.ones, total.ones, lambda m, cols: rel.total_ones(m, proj[m].a[cols]))
    sections = [_section(pi).a for pi in proj]

    def weights(m):
        w = total.weights(m)
        return sub.weights(m), w, w[proj[m].a]

    names = [f"H^{m}(total)" for m in range(limit + 1)] + [f"H^{m}(quotient)" for m in range(limit)]
    names += [f"H^{m}(sub)" for m in range(limit + 1)]
    ok, blocks = [True] * len(names), [[] for _ in range(limit)]
    for co in _weight_parts(weights, limit + 1):
        part_ok, part_blocks = _part_sequence(rel, ones, sections, co, limit)
        ok = [a and b for a, b in zip(ok, part_ok)]
        for m, block in enumerate(part_blocks):
            blocks[m].append(block)
    return LESReport(tuple(zip(names, ok)), tuple(_direct_sum(b) for b in blocks))


def comparison_filtration(pair: InclusionPair, rel: RelativeTower) -> FilteredTower:
    """Filtration of a relative complex by prefix symmetry defects.

    All three chains are normalized to start at internal index 0 = full
    space; the two chains customarily written from index 1 carry
    index_offset 1 so reports can translate back.  d-compatibility is
    checked when the tower is paired (compute_pages).
    """
    d, mdim = rel.table.dim, rel.coeffs.dim
    total = INCLUSION_FLAVORS[pair][1]
    # the swap span holds no unit words, so its prefix steps kill no class
    kills = pair is not InclusionPair.SYM_IN_TENSOR
    filt = []
    for n in range(rel.n_max + 1):
        m = n + 2
        gens = rel.proj[m].a[:: max(mdim, 1)] // max(mdim, 1)  # pi.a lists the generators' coordinates
        words = _monomials(total, d, m)[gens]
        owner = np.full(basis_dim(total, d, m), -1)
        owner[gens] = np.arange(gens.size)
        # a word's class: the generator owning its prefix-sorted word, if any
        cls = lambda w, p: owner[_index(total, d, _sort_prefix(w, p))]
        chain = [np.arange(rel.dims[n])]
        # all words of length m in colex order, and whether their first p + 1 letters repeat one
        all_words = _monomials(Flavor.TENSOR, d, m) if kills else np.zeros((0, m), dtype=np.int64)
        repeat = np.zeros(len(all_words), dtype=bool)
        for p in range(1, m):
            repeat |= (all_words[:, :p] == all_words[:, p, None]).any(axis=1)
            dead = cls(all_words[repeat], p + 1)
            chain.append(_expand(_leaders(cls(words, p + 1), dead), mdim))
        # the last step is zero: a sorted word is a representative, not a generator, or repeats a letter and dies
        filt.append(tuple(chain))
    offset = 0 if pair is InclusionPair.EXT_IN_TENSOR else 1
    return FilteredTower(rel, tuple(filt), label=f"comparison[{pair.value}]", index_offset=offset)


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
    lasts, pis = zip(*(_class_map(cls, triv.dims[p + 2], 1) for p, cls in enumerate(classes)))
    for p, last in enumerate(lasts):
        if (last < 0).any():  # a scalar class with no live member
            raise GF2Error(f"product pullback not injective at degree {p}")
    mus = [BitMatrix.from_coords(c.size, triv.dims[p + 2], np.flatnonzero(c >= 0), c[c >= 0]) for p, c in enumerate(classes)]
    for p in range(len(mus) - 1):
        if restr[p] @ mus[p] != mus[p + 1] @ triv.differential(p + 2):
            raise GF2Error(f"product pullback is not a chain map at degree {p}")
    diffs = tuple(pis[p + 1] @ restr[p].take_columns(pis[p].a) for p in range(len(pis) - 1))
    return ComplexTower.held([pi.rows for pi in pis], diffs, label=f"cr[{pair.value}]")


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

