"""The dense matrix builders that the coordinate-list builders replaced.

Each loops over monomials in Python, XORs blocks into a dense uint8
array and packs it at the end.  They are kept as oracles: the package's
builders must reproduce their matrices bit for bit.  They open with the
subspace route to cohomology (solve, kernels, images, cycles, boundaries
and quotient coordinates), which the package left for one reduction per
degree (cohomology._Classes) and which the oracles below use.  The elimination
route of the product cokernels and the tensor-ambient route of the mixed
cokernel close the file, oracles of the same kind for the class maps and
the symmetric class spans that replaced them, the long exact sequence at
full width, which the sweep by weight part replaced, followed by the
packed filtration steps and their pivot-column checks, which the
class-leader arrays of FilteredTower replaced.  Last comes the row walk
that turned whole row blocks into ints before gf2._rows_up cut them into
pieces.
"""

from __future__ import annotations

import numpy as np

from commcoh import comparison
from commcoh.cochain import (
    INCLUSION_FLAVORS,
    ComplexTower,
    Flavor,
    InclusionPair,
    _block_matrix,
    _index,
    _monomials,
    basis_dim,
    basis_tuples,
    build_tower,
    monomial_rank,
)
from commcoh.comparison import LESReport
from commcoh.gf2 import _BIT_REVERSE, BitMatrix, GF2Error, Subspace, WordMap
from commcoh.spectral import FiltrationError


def solve(a: BitMatrix, b: BitMatrix):
    """Solve a @ x = b over GF(2).

    Returns the pivot-based particular solution, or None if the system
    is inconsistent.  When a has full column rank the solution is unique.
    """
    if a.rows != b.rows:
        raise GF2Error("solve: row count mismatch")
    aug = BitMatrix.from_dense(
        np.concatenate([a.to_dense(), b.to_dense()], axis=1)
    )
    red, _, pivots = aug.rref()
    if any(p >= a.cols for p in pivots):
        return None
    dense = red.to_dense()
    x = np.zeros((a.cols, b.cols), dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = dense[i, a.cols:]
    return BitMatrix.from_dense(x) if a.cols else BitMatrix.zeros(0, b.cols)


def kernel_basis(m: BitMatrix) -> Subspace:
    """Right null space {x : m @ x = 0} with canonical basis."""
    red, _, pivots = m.rref()
    n = m.cols
    free = np.delete(np.arange(n), pivots)
    if free.size == 0:
        return Subspace.zero(n)
    # free variable t set to one: pivot variable i takes red[i, free[t]]
    i, t = red.take_columns(free).coords()
    rows = np.concatenate([np.arange(free.size), t])
    cols = np.concatenate([free, np.asarray(pivots, dtype=np.int64)[i]])
    return Subspace.from_rows(n, BitMatrix.from_coords(free.size, n, rows, cols))


def image(m: BitMatrix) -> Subspace:
    """Column space of m, i.e. the image of x -> m @ x."""
    return Subspace.from_rows(m.rows, m.transpose())


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


class QuotientCoords:
    """Canonical coset coordinates on a/b for a pair b <= a.

    The pivots of b are among those of a, and a's basis rows at the other
    pivots complete b to a.  Those rows represent the coset basis, and the
    coset coordinates of a vector of a are the entries, at their pivot
    columns, of the vector reduced modulo b.
    """

    __slots__ = ("sup", "sub", "free")

    def __init__(self, a: Subspace, b: Subspace):
        if not a.contains(b):
            raise GF2Error("quotient coordinates: not a subspace")
        self.sup, self.sub = a, b
        below = set(b.pivots)
        self.free = [k for k, c in enumerate(a.pivots) if c not in below]

    @property
    def dim(self) -> int:
        return len(self.free)

    def project_rows(self, mat: BitMatrix) -> BitMatrix:
        """Coset coordinates of ambient row vectors (must lie in a)."""
        self.sup.row_coefficients(mat)  # raises unless the rows lie in a
        return self.sub.reduce_rows(mat).take_columns(np.take(self.sup.pivots, self.free))

    def lift_rows(self) -> BitMatrix:
        """Ambient representatives of the coset coordinate basis."""
        return BitMatrix(self.dim, self.sup.ambient_dim, self.sup.basis.words[self.free])


def induced_map(m: "BitMatrix | WordMap", dom: QuotientCoords, cod: QuotientCoords) -> BitMatrix:
    """Matrix of the induced map a/b -> c/d, for dom = a/b and cod = c/d.

    Both containments, m(a) <= c and m(b) <= d, are checked; the result
    is written in the canonical coset coordinates of the two quotients.
    """
    if m.cols != dom.sup.ambient_dim or m.rows != cod.sup.ambient_dim:
        raise GF2Error("induced_map: matrix shape does not match ambients")
    apply_rows = lambda vecs: (m @ vecs.transpose()).transpose()  # vecs @ m^T, through m @ packed
    img = apply_rows(dom.sup.basis)
    if not cod.sup.reduce_rows(img).is_zero():
        raise GF2Error("induced_map: m does not map dom_a into cod_c")
    if dom.sub.dim and not cod.sub.reduce_rows(apply_rows(dom.sub.basis)).is_zero():
        raise GF2Error("induced_map: m does not map dom_b into cod_d")
    # the lifts are rows of a's basis, so their images are rows of img, inside c
    lifted = BitMatrix(dom.dim, img.cols, img.words[dom.free])
    return cod.sub.reduce_rows(lifted).take_columns(np.take(cod.sup.pivots, cod.free)).transpose()


def assert_same_matrix(got: BitMatrix, want: BitMatrix):
    """Equal shape and equal packed words; the padding bits must be zero."""
    assert got.shape == want.shape
    assert np.array_equal(got.words, want.words)
    if got.cols % 64:
        assert not (got.words[:, -1] >> np.uint64(got.cols % 64)).any()


def packed(w: WordMap) -> BitMatrix:
    """The packed form of a word map: a one at (i, a[i]) and at (i, b[i])."""
    rows = np.arange(w.rows)
    r = np.concatenate([rows[w.a >= 0], rows[w.b >= 0]])
    c = np.concatenate([w.a[w.a >= 0], w.b[w.b >= 0]])
    return BitMatrix.from_coords(w.rows, w.cols, r, c)


def inclusion_map(rel, m: int) -> WordMap:
    """rel's inclusion in word degree m, read off its class array: row i
    has its one at rel.classes[m][i], none where that is -1."""
    return WordMap(rel.classes[m].size, rel.reps[m].size, rel.classes[m])


def generator_words(rel, m: int):
    """The total-flavor word of each generator of rel in word degree m,
    read off its projection (pi.a lists the generators' coordinates)."""
    mdim = rel.coeffs.dim
    return _monomials(rel.flavor, rel.table.dim, m)[rel.proj[m].a[::mdim] // mdim]


def canonical(flavor: Flavor, word):
    """Canonical monomial of a word, or None when the Ext class is zero."""
    if flavor is Flavor.TENSOR:
        return tuple(word)
    srt = tuple(sorted(word))
    if flavor is Flavor.EXT:
        for a, b in zip(srt, srt[1:]):
            if a == b:
                return None
    return srt


def repeat_span_rows(d: int, n: int, p: int | None = None) -> list:
    """The repeated-index span generators as (kind, word) pairs, one word at a time.

    Kind "unit" stands for the coordinate vector of the word, kind "pair"
    for word + prefix-sorted word.
    """
    if p is None:
        p = n
    rows = []
    for w in basis_tuples(Flavor.TENSOR, d, n):
        if len(set(w[:p])) != len(w[:p]):
            rows.append(("unit", w))
        elif w[:p] != tuple(sorted(w[:p])):
            rows.append(("pair", w))
    return rows


def prefix_repeats(d: int, n: int, p: int):
    """All words of length n in colex order, and whether their first p
    letters repeat a letter, by sorting each prefix."""
    words = _monomials(Flavor.TENSOR, d, n)
    srt = np.sort(words[:, :p], axis=1)
    return words, (srt[:, 1:] == srt[:, :-1]).any(axis=1)


def swap_span_rows(d: int, n: int, p: int | None = None) -> list:
    """The adjacent-swap span generators as (kind, word) pairs, one word at a time."""
    if p is None:
        p = n
    words = basis_tuples(Flavor.TENSOR, d, n)
    return [("pair", w) for w in words if w[:p] != tuple(sorted(w[:p]))]


def differential(flavor, table, coeffs, n, rep_of=None) -> BitMatrix:
    d, m = table.dim, coeffs.dim
    src = basis_tuples(flavor, d, n)
    dst = basis_tuples(flavor, d, n + 1)
    srank = monomial_rank(flavor, d, n)
    rho = coeffs.rho
    eye = np.eye(m, dtype=np.uint8)
    out = np.zeros((len(dst) * m, len(src) * m), dtype=np.uint8)
    for r, mono in enumerate(dst):
        word = mono if rep_of is None else rep_of(mono)
        r0 = r * m
        for i in range(n + 1):
            sub = canonical(flavor, word[:i] + word[i + 1 :])
            if sub is None:
                continue
            c0 = srank[sub] * m
            out[r0 : r0 + m, c0 : c0 + m] ^= rho[word[i]]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                vec = table.c[word[i], word[j]]
                ks = np.nonzero(vec)[0]
                if not ks.size:
                    continue
                if flavor is Flavor.TENSOR:
                    base = word[:i] + word[i + 1 :]
                    for k in ks:
                        arg = base[: j - 1] + (int(k),) + base[j:]
                        c0 = srank[arg] * m
                        out[r0 : r0 + m, c0 : c0 + m] ^= eye
                else:
                    rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
                    for k in ks:
                        arg = canonical(flavor, (int(k),) + rest)
                        if arg is None:
                            continue
                        c0 = srank[arg] * m
                        out[r0 : r0 + m, c0 : c0 + m] ^= eye
    return BitMatrix.from_dense(out)


def insertion(flavor, d, mdim, x, n) -> BitMatrix:
    x = np.asarray(x, dtype=np.uint8) & 1
    if n == 0:
        return BitMatrix.zeros(0, len(basis_tuples(flavor, d, 0)) * mdim)
    src = basis_tuples(flavor, d, n)
    dst = basis_tuples(flavor, d, n - 1)
    srank = monomial_rank(flavor, d, n)
    eye = np.eye(mdim, dtype=np.uint8)
    out = np.zeros((len(dst) * mdim, len(src) * mdim), dtype=np.uint8)
    for r, mono in enumerate(dst):
        r0 = r * mdim
        for u in np.nonzero(x)[0]:
            arg = canonical(flavor, (int(u),) + mono)
            if arg is None:
                continue
            c0 = srank[arg] * mdim
            out[r0 : r0 + mdim, c0 : c0 + mdim] ^= eye
    return BitMatrix.from_dense(out)


def derivation_operator(flavor, d, mdim, value_action, slot_action, n) -> BitMatrix:
    a = np.asarray(value_action, dtype=np.uint8) & 1
    b = np.asarray(slot_action, dtype=np.uint8) & 1
    monos = basis_tuples(flavor, d, n)
    rank = monomial_rank(flavor, d, n)
    eye = np.eye(mdim, dtype=np.uint8)
    out = np.zeros((len(monos) * mdim, len(monos) * mdim), dtype=np.uint8)
    for r, mono in enumerate(monos):
        r0 = r * mdim
        out[r0 : r0 + mdim, r0 : r0 + mdim] ^= a
        for i in range(n):
            for k in np.nonzero(b[:, mono[i]])[0]:
                arg = canonical(flavor, mono[:i] + (int(k),) + mono[i + 1 :])
                if arg is None:
                    continue
                c0 = rank[arg] * mdim
                out[r0 : r0 + mdim, c0 : c0 + mdim] ^= eye
    return BitMatrix.from_dense(out)


def inclusion(pair, d, mdim, n) -> BitMatrix:
    if pair is InclusionPair.EXT_IN_TENSOR:
        big, small = Flavor.TENSOR, Flavor.EXT
    elif pair is InclusionPair.EXT_IN_SYM:
        big, small = Flavor.SYM, Flavor.EXT
    else:
        big, small = Flavor.TENSOR, Flavor.SYM
    rows = basis_tuples(big, d, n)
    srank = monomial_rank(small, d, n)
    eye = np.eye(mdim, dtype=np.uint8)
    out = np.zeros((len(rows) * mdim, len(srank) * mdim), dtype=np.uint8)
    for r, w in enumerate(rows):
        cls = canonical(small, w)
        if cls is None:
            continue
        c0 = srank[cls] * mdim
        out[r * mdim : (r + 1) * mdim, c0 : c0 + mdim] ^= eye
    return BitMatrix.from_dense(out)


def _sorted_prefix(word, p):
    return tuple(sorted(word[:p])) + word[p:]


def span(rows, p_sort, d, n, mdim=1, index_fn=None, flavor=Flavor.TENSOR) -> BitMatrix:
    """Span generators over the degree-n monomials of flavor; index_fn, when
    given, maps one word tuple to its coordinate instead."""
    rank = monomial_rank(flavor, d, n)
    if index_fn is None:
        index_fn = lambda w: rank[canonical(flavor, w)]
    out = np.zeros((len(rows) * mdim, len(rank) * mdim), dtype=np.uint8)
    for t, (kind, w) in enumerate(rows):
        for k in range(mdim):
            out[t * mdim + k, index_fn(w) * mdim + k] ^= 1
            if kind == "pair":
                out[t * mdim + k, index_fn(_sorted_prefix(w, p_sort)) * mdim + k] ^= 1
    return BitMatrix.from_dense(out)


def generator_rows(pair, d, m) -> list:
    """The quotient's kernel generators as (kind, word) pairs: the repeat or
    swap span, or for ext in sym the sorted words with a repeated letter."""
    if pair is InclusionPair.EXT_IN_TENSOR:
        return repeat_span_rows(d, m)
    if pair is InclusionPair.SYM_IN_TENSOR:
        return swap_span_rows(d, m)
    return [("unit", w) for w in basis_tuples(Flavor.SYM, d, m) if len(set(w)) < len(w)]


def word_projection(pair, d, m, mdim):
    total = Flavor.SYM if pair is InclusionPair.EXT_IN_SYM else Flavor.TENSOR
    rank = monomial_rank(total, d, m)
    rows = generator_rows(pair, d, m)
    pi = span(rows, m, d, m, mdim, flavor=total)
    sig = np.zeros((len(rank) * mdim, len(rows) * mdim), dtype=np.uint8)
    for t, (_, w) in enumerate(rows):
        for k in range(mdim):
            sig[rank[w] * mdim + k, t * mdim + k] = 1
    return [w for _, w in rows], pi, BitMatrix.from_dense(sig)


def sym_quotient_projection(d, m, mdim):
    full = d**m
    i_span = Subspace.from_rows(full, span(repeat_span_rows(d, m), m, d, m).to_dense())
    j_span = Subspace.from_rows(full, span(swap_span_rows(d, m), m, d, m).to_dense())
    qc = QuotientCoords(i_span, j_span)
    reps = qc.lift_rows().to_dense()
    sym_rank = monomial_rank(Flavor.SYM, d, m)
    words = basis_tuples(Flavor.TENSOR, d, m)
    pi = np.zeros((qc.dim * mdim, len(sym_rank) * mdim), dtype=np.uint8)
    for t in range(qc.dim):
        for widx, w in enumerate(words):
            if reps[t, widx]:
                mono = sym_rank[tuple(sorted(w))]
                for k in range(mdim):
                    pi[t * mdim + k, mono * mdim + k] ^= 1
    return qc, BitMatrix.from_dense(pi)


def insert_pullback(flavor, scalar, d, p) -> BitMatrix:
    src = basis_tuples(scalar, d, p + 2)
    dst = basis_tuples(flavor, d, p + 1)
    srank = monomial_rank(scalar, d, p + 2)
    out = np.zeros((len(dst) * d, len(src)), dtype=np.uint8)
    for r, mono in enumerate(dst):
        for k in range(d):
            cls = canonical(scalar, mono + (k,))
            if cls is not None:
                out[r * d + k, srank[cls]] ^= 1
    return BitMatrix.from_dense(out)


def filtration_constraints(pair, rel, n, p) -> BitMatrix | None:
    """Constraint matrix whose kernel is step p of the comparison filtration
    in relative degree n, or None where that step is the full space.

    Row g asks a relative cochain to vanish on generator g of the prefix
    span, written in the quotient's generators: each word of g goes to the
    generator holding its total-flavor monomial, and a word that no
    generator holds is dropped (the sorted remainders of a pair cancel).
    """
    d, mdim, m = rel.table.dim, rel.coeffs.dim, n + 2
    total = Flavor.SYM if pair is InclusionPair.EXT_IN_SYM else Flavor.TENSOR
    words = [tuple(w) for w in generator_words(rel, m).tolist()]
    lookup = {canonical(total, w): t for t, w in enumerate(words)}
    if pair is InclusionPair.SYM_IN_TENSOR:
        gens = swap_span_rows(d, m, p + 1)
    else:
        gens = repeat_span_rows(d, m, p + 1)
    if not gens:
        return None
    lam = np.zeros((len(gens), len(words)), dtype=np.uint8)
    for g, (kind, w) in enumerate(gens):
        targets = [w] if kind == "unit" else [w, _sorted_prefix(w, p + 1)]
        for ww in targets:
            t = lookup.get(canonical(total, ww))
            if t is not None:
                lam[g, t] ^= 1
    return BitMatrix.from_dense(np.kron(lam, np.eye(mdim, dtype=np.uint8)))


def _cl_index(d):
    def cl_index(w):
        return monomial_rank(Flavor.TENSOR, d, len(w) - 1)[w[:-1]] * d + w[-1]

    return cl_index


def mixed_constraints(d, m) -> BitMatrix:
    """Constraint stack of the mixed-symmetry cokernel complex at word degree m."""
    cl_index = _cl_index(d)
    r1 = repeat_span_rows(d, m, m - 1)
    r2 = swap_span_rows(d, m)
    blocks = [
        span(r1, m - 1, d, m, 1, cl_index).to_dense(),
        span(r2, m, d, m, 1, cl_index).to_dense(),
    ]
    if not (r1 or r2):
        return BitMatrix.zeros(0, d**m)
    return BitMatrix.from_dense(np.concatenate([b for b in blocks if b.shape[0]], axis=0))


# The tensor-ambient route of the mixed (ext in sym) cokernel, which the
# class spans of the symmetric dual-valued complex replaced: the same
# classes, read in the coordinates of combined tensor words.


def combined_index(d, words):
    """Coordinate of each combined word (arguments..., dual slot)."""
    return _index(Flavor.TENSOR, d, words[:, :-1]) * d + words[:, -1]


def ext_word_pullback(d, m):
    """Row k: the combined words whose Ext class is the k-th exterior monomial."""
    words = _monomials(Flavor.TENSOR, d, m)
    ext = _index(Flavor.EXT, d, words)
    keep = ext >= 0
    rows, cols = ext[keep], combined_index(d, words[keep])
    return BitMatrix.from_coords(basis_dim(Flavor.EXT, d, m), d**m, rows, cols)


def build_cr_mixed(table, coad, n_cr_max: int):
    """(restr, mus) of the mixed-symmetry variant: dual-valued word
    cochains whose combined word (arguments then dual slot) is killed by
    full adjacent swaps and by repeats among the argument slots."""
    d = table.dim
    ambient = build_tower(Flavor.TENSOR, table, coad, n_cr_max + 1, label="dual-words")

    a_sub = []
    for p in range(n_cr_max + 1):
        m = p + 2
        # classes of combined words by their full sort; a class dies where a
        # word of it repeats a letter among the argument slots
        words = _monomials(Flavor.TENSOR, d, m)
        cls = np.empty(d**m, dtype=np.int64)
        cls[combined_index(d, words)] = _index(Flavor.SYM, d, words)
        _, repeat = prefix_repeats(d, m, m - 1)
        a_sub.append(class_span(cls, _index(Flavor.SYM, d, words[repeat]), 1))

    restr = []
    for p in range(n_cr_max):
        if a_sub[p].dim == 0:
            restr.append(BitMatrix.zeros(a_sub[p + 1].dim, 0))
            continue
        imgs = a_sub[p].basis @ ambient.differential(p + 1).transpose()
        restr.append(a_sub[p + 1].row_coefficients(imgs).transpose())

    mus = [
        a_sub[p].row_coefficients(ext_word_pullback(d, p + 2)).transpose()
        for p in range(n_cr_max + 1)
    ]
    return restr, mus


def product_cokernel(pair, table, restr, mus, triv) -> ComplexTower:
    """The product cokernel by elimination: degree p is the target of mus[p]
    modulo its image, in the coset coordinates of its reduced echelon
    form, with the differential induced by restr[p]."""
    for p, mu in enumerate(mus):
        if mu.rank() != mu.cols:
            raise GF2Error(f"product pullback not injective at degree {p}")
    for p in range(len(mus) - 1):
        if restr[p] @ mus[p] != mus[p + 1] @ triv.differential(p + 2):
            raise GF2Error(f"product pullback is not a chain map at degree {p}")
    quotients = [QuotientCoords(Subspace.full(mu.rows), image(mu)) for mu in mus]
    diffs = [
        induced_map(restr[p], quotients[p], quotients[p + 1])
        for p in range(len(mus) - 1)
    ]
    dims = tuple(q.dim for q in quotients)
    return ComplexTower.held(dims, diffs, label=f"cr[{pair.value}]")


def flavor_towers(rel) -> tuple:
    """The sub and total towers of rel's inclusion through its word degrees."""
    return tuple(
        build_tower(flavor, rel.table, rel.coeffs, rel.word_degrees)
        for flavor in INCLUSION_FLAVORS[rel.kind]
    )


def quotient_word_tower(rel) -> ComplexTower:
    """rel's quotient complex in word grading (degrees 0, 1 are zero), its
    differentials packed from the relative tower."""
    zero = (BitMatrix.zeros(0, 0), BitMatrix.zeros(rel.dims[0], 0))
    return ComplexTower.held((0, 0) + rel.dims, zero + rel.diffs, label=f"{rel.label}/word")


def full_width_les(rel) -> LESReport:
    """The long exact sequence swept at full width, every space in one piece:
    the route the sweep by weight part replaced, with the same checks,
    verdicts and connecting maps."""
    m_top = rel.word_degrees
    sub, total = flavor_towers(rel)
    qt = quotient_word_tower(rel)
    limit = m_top - 1

    def at(m):
        hs, ht, hq = (QuotientCoords(cycles(t, m), boundaries(t, m)) for t in (sub, total, qt))
        return hs, ht, hq, induced_map(inclusion_map(rel, m), hs, ht), induced_map(rel.proj[m], ht, hq)

    hs, ht, hq, i_star, p_star = at(0)
    total_ok, quotient_ok, sub_ok = [], [], [i_star.rank() == hs.dim]
    connecting = []
    for m in range(limit + 1):
        total_ok.append((p_star @ i_star).is_zero() and i_star.rank() + p_star.rank() == ht.dim)
        if m == limit:
            break
        hs1, ht1, hq1, i_star1, p_star1 = at(m + 1)
        reps = hq.lift_rows()
        if reps.rows == 0:
            delta = BitMatrix.zeros(hs1.dim, 0)
        else:
            lifted = (comparison._section(rel.proj[m]) @ reps.transpose()).transpose()
            w = lifted @ total.differential(m).transpose()
            u = w.take_columns(rel.reps[m + 1])
            if inclusion_map(rel, m + 1) @ u.transpose() != w.transpose():
                raise GF2Error(f"connecting-map lift failed at word degree {m}")
            if not hs1.sup.reduce_rows(u).is_zero():
                raise GF2Error(f"connecting-map lift is not a cycle at word degree {m}")
            delta = hs1.project_rows(u).transpose()
        connecting.append(delta)
        quotient_ok.append((delta @ p_star).is_zero() and p_star.rank() + delta.rank() == hq.dim)
        sub_ok.append((i_star1 @ delta).is_zero() and delta.rank() + i_star1.rank() == hs1.dim)
        hs, ht, hq, i_star, p_star = hs1, ht1, hq1, i_star1, p_star1

    nodes = [(f"H^{m}(total)", ok) for m, ok in enumerate(total_ok)]
    nodes += [(f"H^{m}(quotient)", ok) for m, ok in enumerate(quotient_ok)]
    nodes += [(f"H^{m}(sub)", ok) for m, ok in enumerate(sub_ok)]
    return LESReport(tuple(nodes), tuple(connecting))


def connecting_maps(rel) -> list:
    """The long exact sequence's connecting maps by the dense lift: u solves
    incl @ u = w for the coboundary w of each lifted quotient class."""
    qt = quotient_word_tower(rel)
    sub, total = flavor_towers(rel)
    h = lambda tower, m: QuotientCoords(cycles(tower, m), boundaries(tower, m))
    out = []
    for m in range(rel.word_degrees - 1):
        hq, hs = h(qt, m), h(sub, m + 1)
        reps = hq.lift_rows()
        if reps.rows == 0:
            out.append(BitMatrix.zeros(hs.dim, 0))
            continue
        lifted = reps @ packed(comparison._section(rel.proj[m])).transpose()
        w = lifted @ total.differential(m).transpose()
        u = solve(packed(inclusion_map(rel, m + 1)), w.transpose())
        assert u is not None, f"no lift at word degree {m}"
        out.append(hs.project_rows(u.transpose()).transpose())
    return out


# The packed filtration steps: each step a Subspace spanned by one
# indicator row per class, queried through the pivot columns of its basis.


def class_span(cls, dead, mdim: int) -> Subspace:
    """Span of one indicator row per live class and module coordinate.

    cls[i] is the class of coordinate i, negative where it has none; a
    class listed in dead spans nothing.  Indicators of disjoint classes,
    ordered by their smallest members, are already the reduced echelon
    basis with those members as pivots.
    """
    members = np.flatnonzero((cls >= 0) & ~np.isin(cls, dead))
    _, first, label = np.unique(cls[members], return_index=True, return_inverse=True)
    pivots, row = np.unique(members[first][label], return_inverse=True)
    basis = _block_matrix((len(pivots), len(cls)), mdim, [(row, members, None)])
    return Subspace(len(cls) * mdim, basis, tuple(comparison._expand(pivots, mdim).tolist()))


def comparison_chains(pair, rel) -> tuple:
    """The comparison filtration's steps as packed class spans: in word
    degree m a generator word falls in the class of the generator owning
    its prefix-sorted word, and a class dies where it holds a word whose
    prefix repeats a letter (never for the swap span)."""
    d, mdim = rel.table.dim, rel.coeffs.dim
    total = Flavor.SYM if pair is InclusionPair.EXT_IN_SYM else Flavor.TENSOR
    kills = pair is not InclusionPair.SYM_IN_TENSOR
    chains = []
    for n in range(rel.n_max + 1):
        m = n + 2
        words = generator_words(rel, m)
        owner = np.full(basis_dim(total, d, m), -1)
        owner[_index(total, d, words)] = np.arange(len(words))
        cls = lambda w, p: owner[_index(total, d, comparison._sort_prefix(w, p))]
        chain = [Subspace.full(rel.dims[n])]
        for p in range(1, m):
            all_words, repeat = prefix_repeats(d, m, p + 1)
            chain.append(class_span(cls(words, p + 1), cls(all_words[repeat & kills], p + 1), mdim))
        if chain[-1].dim:
            chain.append(Subspace.zero(rel.dims[n]))
        chains.append(tuple(chain))
    return tuple(chains)


def step_span(lead) -> Subspace:
    """The span of a step's class indicators, by elimination: row k is the
    indicator of the k-th distinct leader's class."""
    live = np.flatnonzero(lead >= 0)
    _, row = np.unique(lead[live], return_inverse=True)
    rows = BitMatrix.from_coords(row.max(initial=-1) + 1, len(lead), row, live)
    return Subspace.from_rows(len(lead), rows)


def spanned_chains(filt) -> tuple:
    """Every step of every degree as a Subspace."""
    return tuple(tuple(step_span(lead) for lead in chain) for chain in filt)


def assert_steps_span(ft, chains):
    """Every step of ft spans the Subspace at its place in chains, with the
    same RREF basis and its leaders as the pivots; the pivot-column checks
    pass on chains."""
    validate_chains(ft.tower, chains)
    assert [len(c) for c in ft.filt] == [len(c) for c in chains]
    for n, (chain, want) in enumerate(zip(ft.filt, chains)):
        for p, (lead, w) in enumerate(zip(chain, want)):
            got = step_span(lead)
            assert got == w and got.pivots == w.pivots, (ft.label, n, p)
            assert tuple(np.unique(lead[lead >= 0]).tolist()) == w.pivots, (ft.label, n, p)


def validate_chains(tower, chains) -> None:
    """The pivot-column check of a chain of Subspaces per degree: full at
    step 0, zero at the last step, each step inside the one before, and d
    mapping each step into the same step one degree up."""
    for n, chain in enumerate(chains):
        if chain[0].dim != tower.dims[n]:
            raise FiltrationError(f"degree {n}: chain does not start at the full space")
        if chain[-1].dim != 0:
            raise FiltrationError(f"degree {n}: chain does not end at zero")
        for p in range(len(chain) - 1):
            if not chain[p].contains(chain[p + 1]):
                raise FiltrationError(f"degree {n}: chain not decreasing at step {p}")
    for n in range(tower.n_max):
        dt = tower.differential(n).transpose()
        up = chains[n + 1]
        for p, sub in enumerate(chains[n]):
            if not up[min(p, len(up) - 1)].reduce_rows(sub.basis @ dt).is_zero():
                raise FiltrationError(f"d F^{p} C^{n} not contained in F^{p} C^{n + 1}")


def rows_up_by_blocks(m: BitMatrix, live=None):
    """(i, row i of m as an int, column 0 its highest bit) for each row where
    live is set (all without it), last row first: each row block of m
    (BitMatrix.row_blocks) masked, copied and bit-reversed whole."""
    nb, stop = m.words.shape[1] * 8, m.rows
    for block in m.row_blocks():
        start = stop - block.rows
        up = range(stop - 1, start - 1, -1)
        index = up if live is None else (i for i, keep in zip(up, live[start:stop][::-1]) if keep)
        buf = block.words if live is None else block.words[live[start:stop]]
        buf = buf.astype("<u8", copy=False).tobytes().translate(_BIT_REVERSE)
        end = len(buf)
        for i in index:
            yield i, int.from_bytes(buf[end - nb : end], "big")
            end -= nb
        stop = start
