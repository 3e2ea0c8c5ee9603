"""Tests for the packed GF(2) linear algebra layer."""

from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commcoh.gf2 import (
    BitMatrix,
    GF2Error,
    Subspace,
    WordMap,
    _echelon,
    _int_words,
    _rows_up,
    inverse,
)

from commcoh import cohomology, gf2, spectral
from commcoh.catalog import catalog_names
from commcoh.cochain import Flavor, InclusionPair, PreconditionError, build_tower
from commcoh.cohomology import betti_table
from commcoh.comparison import build_relative_complex, comparison_filtration, long_exact_sequence_check
from commcoh.spectral import compute_pages

from conftest import catalog, raises_promptly, subspace_vectors, traced
from dense_builders import QuotientCoords, induced_map, kernel_basis, packed, rows_up_by_blocks, solve
from page_oracle import annihilator, apply_to_subspace, preimage, quotient_dim, subspace_intersect, subspace_sum


def dense_matrices(max_rows=6, max_cols=8):
    return st.integers(0, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: np.array(rows, dtype=np.uint8).reshape(r, c))
        )
    )


def _column_mask(words: np.ndarray, col: int) -> np.ndarray:
    w, s = divmod(col, 64)
    return ((words[:, w] >> np.uint64(s)) & np.uint64(1)).astype(bool)


def rref_numpy_oracle(m: BitMatrix):
    """(words, rank, pivots) of the RREF by column-by-column numpy elimination."""
    work = m.words.copy()
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        nz = np.nonzero(_column_mask(work[r:], c))[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        mask = _column_mask(work, c)
        mask[r] = False
        work[mask] ^= work[r]
        pivots.append(c)
        r += 1
    return work, r, tuple(pivots)


def reduce_rows_loop_oracle(s: Subspace, mat: BitMatrix) -> np.ndarray:
    """Words of mat reduced modulo s, one numpy pass per pivot column."""
    work = mat.words.copy()
    for i, p in enumerate(s.pivots):
        work[_column_mask(work, p)] ^= s.basis.words[i]
    return work


class InnerQuotientCoords:
    """Coset coordinates on a/b by the earlier route, which eliminated twice.

    Vectors of a are written in the coefficients of a's RREF basis; b
    becomes a subspace of that coefficient space (its own RREF, "inner"),
    and the coset coordinates are the coefficient positions off the pivots
    of inner.  Reductions run through reduce_rows_loop_oracle.
    """

    def __init__(self, a: Subspace, b: Subspace):
        if reduce_rows_loop_oracle(a, b.basis).any():
            raise GF2Error("quotient coordinates: not a subspace")
        self.sup = a
        self.inner = Subspace.from_rows(a.dim, b.basis.take_columns(a.pivots))
        pivot_set = set(self.inner.pivots)
        self.free = [k for k in range(a.dim) if k not in pivot_set]

    def project_rows(self, mat: BitMatrix) -> BitMatrix:
        if reduce_rows_loop_oracle(self.sup, mat).any():
            raise GF2Error("project_rows: rows not inside the subspace")
        coeffs = mat.take_columns(self.sup.pivots)
        reduced = reduce_rows_loop_oracle(self.inner, coeffs)
        return BitMatrix(mat.rows, self.sup.dim, reduced).take_columns(self.free)

    def lift_rows(self) -> BitMatrix:
        return BitMatrix(len(self.free), self.sup.ambient_dim, self.sup.basis.words[self.free])


def matmul_column_oracle(a: BitMatrix, b: BitMatrix) -> np.ndarray:
    """Packed words of a @ b by the column loop: bit j of a row adds row j of b."""
    out = np.zeros((a.rows, b.words.shape[1]), dtype=np.uint64)
    for j in range(a.cols):
        out[_column_mask(a.words, j)] ^= b.words[j]
    return out


def kernel_loop_oracle(m: BitMatrix) -> Subspace:
    """Null space spanned entry by entry over free x pivot columns."""
    red, _, pivots = m.rref()
    n = m.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if not free:
        return Subspace.zero(n)
    dense_red = red.to_dense()
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for t, f in enumerate(free):
        basis[t, f] = 1
        for i, p in enumerate(pivots):
            basis[t, p] = dense_red[i, f]
    return Subspace.from_rows(n, basis)


def padding_is_zero(m: BitMatrix) -> bool:
    tail = m.cols % 64
    return tail == 0 or not (m.words[:, -1] >> np.uint64(tail)).any()


# widths around the byte and word boundaries of the packed layout
EDGE_WIDTHS = st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 71, 128, 131])
FILLS = st.sampled_from([0.03, 0.5, 0.97])


@st.composite
def filled_matrix(draw, rows, cols, fill):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((rows, cols)) < fill).astype(np.uint8)


@st.composite
def product_operands(draw):
    rows = draw(st.integers(0, 24))
    inner = draw(EDGE_WIDTHS | st.integers(0, 140))
    cols = draw(EDGE_WIDTHS | st.integers(0, 140))
    fill = draw(FILLS)
    return draw(filled_matrix(rows, inner, fill)), draw(filled_matrix(inner, cols, fill))


@st.composite
def kernel_operands(draw):
    rows = draw(st.integers(0, 24))
    cols = draw(EDGE_WIDTHS | st.integers(0, 140))
    return draw(filled_matrix(rows, cols, draw(FILLS)))


# widths around the 64-bit word boundaries of the int-row conversion
WORD_WIDTHS = st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129])
ELIMINATION_FILLS = st.sampled_from([0.01, 0.5, 0.97])


@st.composite
def elimination_matrix(draw):
    rows = draw(st.integers(0, 40))
    cols = draw(WORD_WIDTHS | st.integers(0, 140))
    return draw(filled_matrix(rows, cols, draw(ELIMINATION_FILLS)))


@st.composite
def tall_deficient_matrix(draw):
    """Sums of a few base rows, some repeated verbatim: rank at most k < rows."""
    cols = draw(WORD_WIDTHS | st.integers(1, 140))
    k = draw(st.integers(0, 6))
    base = draw(filled_matrix(k, cols, draw(ELIMINATION_FILLS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(k + 1, 60))
    arr = (rng.integers(0, 2, (rows, k)) @ base % 2).astype(np.uint8)
    if k:
        arr[rng.integers(0, rows, rows // 2)] = base[rng.integers(0, k, rows // 2)]
    return arr


@st.composite
def coordinate_matrix(draw):
    """Matrices around the word boundaries, some with an all-ones row."""
    rows = draw(st.integers(0, 24))
    cols = draw(WORD_WIDTHS | st.integers(0, 140))
    arr = draw(filled_matrix(rows, cols, draw(ELIMINATION_FILLS)))
    if rows and draw(st.booleans()):
        arr[draw(st.integers(0, rows - 1))] = 1
    return arr


@st.composite
def column_takes(draw):
    arr = draw(coordinate_matrix())
    order = draw(st.permutations(range(arr.shape[1])))
    return arr, list(order[: draw(st.integers(0, len(order)))])


def assert_rref_matches_oracle(m: BitMatrix):
    red, rank, pivots = m.rref()
    want_words, want_rank, want_pivots = rref_numpy_oracle(m)
    assert (rank, pivots) == (want_rank, want_pivots)
    # the rank rows only: the oracle's leading rows, and its remaining rows are zero
    assert red.shape == (rank, m.cols)
    assert red.words.tobytes() == want_words[:rank].tobytes()
    assert not want_words[rank:].any()
    assert padding_is_zero(red)
    assert m.rank() == rank


def assert_reduce_rows_matches_oracle(s: Subspace, mat: BitMatrix):
    got = s.reduce_rows(mat)
    assert got.shape == mat.shape
    assert got.words.tobytes() == reduce_rows_loop_oracle(s, mat).tobytes()
    assert padding_is_zero(got)


class TestEliminationKernel:
    """rref, rank and reduce_rows against the numpy elimination they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(elimination_matrix() | tall_deficient_matrix())
    def test_rref_and_rank(self, arr):
        assert_rref_matches_oracle(BitMatrix.from_dense(arr))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_reduce_rows(self, data):
        span = data.draw(elimination_matrix() | tall_deficient_matrix())
        cols = span.shape[1]
        fill = data.draw(ELIMINATION_FILLS)
        mat = data.draw(filled_matrix(data.draw(st.integers(0, 30)), cols, fill))
        s = Subspace.from_rows(cols, BitMatrix.from_dense(span))
        assert_reduce_rows_matches_oracle(s, BitMatrix.from_dense(mat))

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 65), (5, 0), (1, 129), (130, 3)])
    def test_degenerate_shapes(self, rows, cols):
        m = BitMatrix.from_dense(np.ones((rows, cols), dtype=np.uint8))
        assert_rref_matches_oracle(m)
        assert m.rank() == min(rows, cols, 1)
        assert_reduce_rows_matches_oracle(Subspace.from_rows(cols, m), m)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_tower_differentials(self, name):
        entry = catalog(name)
        for flavor in Flavor:
            for mod in entry.modules.values():
                try:
                    tower = build_tower(flavor, entry.table, mod, 5)
                except PreconditionError:
                    continue
                for n in range(tower.n_max):
                    d = tower.differential(n)
                    assert_rref_matches_oracle(d)
                    half = d.rows // 2
                    top = BitMatrix(half, d.cols, d.words[:half].copy())
                    assert_reduce_rows_matches_oracle(Subspace.from_rows(d.cols, top), d)

    @settings(max_examples=80, deadline=None)
    @given(elimination_matrix() | tall_deficient_matrix(), st.integers(1, 3))
    def test_carried_echelon_reports_each_row(self, arr, spare):
        # row f carries e_f in the w low bits, as the long exact sequence feeds it
        m = BitMatrix.from_dense(arr)
        w = m.rows + spare
        rows, top, lim = dict(_rows_up(m)), {}, 1 << w
        results = list(_echelon((x << w | 1 << f for f, x in rows.items()), top, lim))
        assert len(results) == m.rows and sum(x >= lim for x in results) == len(top)
        for x in results:
            if x >= lim:  # stored at its own bit length
                assert top[x.bit_length()] is x
            else:  # left below lim: its own bit survives, and the rows it carries sum to zero
                assert x >> w == 0 and x and not reduce(xor, (rows[f] for f in range(w) if x >> f & 1), 0)
        # the stored rows, their carried bits cut, span the rows of m
        span = BitMatrix(len(top), m.cols, gf2._int_words([y >> w for y in top.values()], m.cols))
        got_words, got_rank, got_pivots = rref_numpy_oracle(span)
        want_words, rank, pivots = rref_numpy_oracle(m)
        assert (got_rank, got_pivots) == (rank, pivots) == (len(top), pivots)
        assert got_words[:rank].tobytes() == want_words[:rank].tobytes()

    def test_routes_reach_the_kernel_at_its_import_sites(self, monkeypatch):
        sites = []
        for module in (gf2, cohomology, spectral):
            spy = lambda *args, site=module.__name__: sites.append(site) or _echelon(*args)
            monkeypatch.setattr(module, "_echelon", spy)
        entry = catalog("heis3")
        tower = build_tower(Flavor.SYM, entry.table, entry.modules["adjoint"], 3)
        rel = build_relative_complex(InclusionPair.SYM_IN_TENSOR, entry.table, entry.modules["trivial"], 3)
        routes = [
            (lambda: tower.differential(2).rank(), "commcoh.gf2"),
            (lambda: betti_table(tower), "commcoh.gf2"),
            (lambda: long_exact_sequence_check(rel), "commcoh.cohomology"),
            (lambda: compute_pages(comparison_filtration(InclusionPair.SYM_IN_TENSOR, rel)), "commcoh.spectral"),
        ]
        for run, site in routes:
            sites.clear()
            run()
            assert site in sites


class TestRowOrder:
    """Rows enter the echelon from the bottom of the matrix upward; no
    result may depend on the order of the rows."""

    @settings(max_examples=80, deadline=None)
    @given(elimination_matrix() | tall_deficient_matrix(), st.data())
    def test_row_permutation_changes_nothing(self, arr, data):
        perm = data.draw(st.permutations(range(arr.shape[0])))
        block_bytes = data.draw(st.sampled_from([1, 8, 24, gf2.RANK_BLOCK_BYTES]))
        want_words, rank, pivots = rref_numpy_oracle(BitMatrix.from_dense(arr))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            for m in (BitMatrix.from_dense(arr), BitMatrix.from_dense(arr[list(perm)])):
                red, got_rank, got_pivots = m.rref()
                assert (got_rank, got_pivots) == (rank, pivots)
                assert red.words.tobytes() == want_words[:rank].tobytes()
                assert m.rank() == rank
                kernel = kernel_basis(m)
                assert kernel.dim == arr.shape[1] - rank
                assert not (arr.astype(np.int64) @ kernel.basis.to_dense().T % 2).any()

    @pytest.mark.parametrize("rows, block_bytes", [(0, 8), (1, 8), (7, 8), (8, 16), (9, 16)])
    def test_blocks_are_cut_from_the_bottom(self, rows, block_bytes, monkeypatch):
        m = BitMatrix.from_dense(np.eye(max(rows, 1), dtype=np.uint8)[:rows])
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
        blocks = list(m.row_blocks())
        step = block_bytes // 8
        assert [b.rows for b in blocks[:-1]] == [step] * (len(blocks) - 1)
        assert all(0 < b.rows <= step for b in blocks)
        # stacked top to bottom, the blocks give m back
        stacked = np.concatenate([b.words for b in reversed(blocks)] or [m.words])
        assert stacked.tobytes() == m.words.tobytes()


class TestRankBlocks:
    """rank() converts and eliminates its rows one block at a time."""

    @settings(max_examples=60, deadline=None)
    @given(elimination_matrix() | tall_deficient_matrix(), st.sampled_from([1, 8, 24, 1000]))
    def test_block_size_does_not_change_rank(self, arr, block_bytes):
        m = BitMatrix.from_dense(arr)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            assert m.rank() == rref_numpy_oracle(m)[1]

    def test_rank_holds_one_block_of_bytes(self):
        # heis3 adjoint tensor coboundary at degree 7: 19683 x 6561,
        # 15.5 MiB packed; whole-matrix conversion peaked 30.9 MiB above it
        entry = catalog("heis3")
        diff = build_tower(Flavor.TENSOR, entry.table, entry.modules["adjoint"], 8).differential(7)
        rank, _, peak = traced(diff.rank)
        assert diff.shape == (19683, 6561)
        assert peak < 0.5 * diff.words.nbytes
        assert rank == rref_numpy_oracle(diff)[1] == 4392


@st.composite
def masked_matrix(draw):
    """(m, live): a matrix of elimination_matrix's shapes and fills, and
    None or a drawn bool array over its rows."""
    m = BitMatrix.from_dense(draw(elimination_matrix()))
    live = draw(st.none() | st.lists(st.booleans(), min_size=m.rows, max_size=m.rows))
    return m, None if live is None else np.array(live, dtype=bool)


# a piece of one row (8 and 64), of 16 one-word rows (1024), of every row
PIECE_BLOCK_BYTES = st.sampled_from([8, 64, 1024, gf2.RANK_BLOCK_BYTES])


class TestIntRows:
    """Rows become ints (_rows_up) and ints rows (_int_words) one piece of
    RANK_BLOCK_BYTES >> 3 at a time."""

    @settings(max_examples=80, deadline=None)
    @given(masked_matrix(), PIECE_BLOCK_BYTES)
    def test_walk_matches_the_block_walk(self, case, block_bytes):
        m, live = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            got = list(_rows_up(m, live))
            assert got == list(rows_up_by_blocks(m, live))
        assert [i for i, _ in got] == [i for i in reversed(range(m.rows)) if live is None or live[i]]

    @settings(max_examples=80, deadline=None)
    @given(masked_matrix(), PIECE_BLOCK_BYTES)
    def test_int_words_inverts_the_walk(self, case, block_bytes):
        m, live = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            ints = [x for _, x in _rows_up(m, live)][::-1]
            words = _int_words(ints, m.cols)
        want = m.words if live is None else m.words[live]
        assert words.dtype == np.uint64 and words.shape == want.shape
        assert words.tobytes() == want.tobytes()
        assert all(x < 1 << (64 * m.words.shape[1]) for x in ints)

    def test_walk_holds_its_ints_and_two_pieces(self):
        # 4096 x 2048, 1 MiB packed, about half its rows live: masking,
        # copying and bit-reversing each 512 KiB row block whole peaked
        # 384 KiB above the yielded ints; one 64 KiB piece at a time, 81 KiB
        rng = np.random.default_rng(23)
        m = BitMatrix.from_dense(rng.integers(0, 2, (4096, 2048), dtype=np.uint8))
        live = rng.random(m.rows) < 0.5
        rows, held, peak = traced(lambda: list(_rows_up(m, live)))
        assert m.words.nbytes == 2**20 and len(rows) == np.count_nonzero(live)
        assert peak < held + 2 * (gf2.RANK_BLOCK_BYTES >> 3) + 2**14


class TestRref:
    def test_identity(self):
        _, rank, pivots = BitMatrix.identity(3).rref()
        assert rank == 3 and pivots == (0, 1, 2)

    def test_zero(self):
        _, rank, pivots = BitMatrix.zeros(4, 5).rref()
        assert rank == 0 and pivots == ()

    def test_dependent_rows(self):
        m = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        _, rank, _ = m.rref()
        assert rank == 2

    @settings(max_examples=60, deadline=None)
    @given(dense_matrices())
    def test_idempotent(self, arr):
        red, rank, pivots = BitMatrix.from_dense(arr).rref()
        red2, rank2, pivots2 = red.rref()
        assert red2 == red and rank2 == rank and pivots2 == pivots

    @settings(max_examples=60, deadline=None)
    @given(dense_matrices())
    def test_rank_nullity(self, arr):
        m = BitMatrix.from_dense(arr)
        _, rank, _ = m.rref()
        assert rank + kernel_basis(m).dim == m.cols


class TestKernel:
    def test_identity_kernel_zero(self):
        assert kernel_basis(BitMatrix.identity(4)).dim == 0

    def test_zero_matrix_full_kernel(self):
        k = kernel_basis(BitMatrix.zeros(2, 4))
        assert k.dim == 4

    def test_parity_equation(self):
        k = kernel_basis(BitMatrix.from_dense([[1, 1]]))
        assert k.dim == 1
        assert k.basis.to_dense().tolist() == [[1, 1]]

    @settings(max_examples=80, deadline=None)
    @given(kernel_operands())
    def test_kernel_members(self, arr):
        m = BitMatrix.from_dense(arr)
        k = kernel_basis(m)
        _, rank, _ = m.rref()
        assert k.dim == m.cols - rank
        for row in k.basis.to_dense():
            assert not (arr.astype(int) @ row % 2).any()
        want = kernel_loop_oracle(m)
        assert k.pivots == want.pivots
        assert k.basis.words.tobytes() == want.basis.words.tobytes()
        assert padding_is_zero(k.basis)


class TestCombine:
    def test_axis_spans(self):
        a = Subspace.from_rows(3, np.array([[1, 0, 0]], dtype=np.uint8))
        b = Subspace.from_rows(3, np.array([[0, 1, 0]], dtype=np.uint8))
        assert subspace_sum(a, b).dim == 2
        assert subspace_intersect(a, b).dim == 0

    def test_idempotence(self):
        a = Subspace.from_rows(3, np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8))
        assert subspace_sum(a, a) == a
        assert subspace_intersect(a, a) == a

    def test_intersection_by_enumeration(self):
        a = Subspace.from_rows(3, np.array([[1, 1, 0]], dtype=np.uint8))
        b = Subspace.from_rows(3, np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8))
        got = subspace_intersect(a, b)
        expected = subspace_vectors(a) & subspace_vectors(b)
        assert subspace_vectors(got) == expected
        assert got.dim == 1 and got.contains_vector(np.array([1, 1, 0]))

    def test_ambient_mismatch(self):
        a = Subspace.full(2)
        b = Subspace.full(3)
        with pytest.raises(GF2Error):
            subspace_sum(a, b)

    @settings(max_examples=40, deadline=None)
    @given(dense_matrices(max_rows=4, max_cols=6), dense_matrices(max_rows=4, max_cols=6))
    def test_modular_dimension_law(self, ar, br):
        n = max(ar.shape[1], br.shape[1])
        a = Subspace.from_rows(n, np.pad(ar, ((0, 0), (0, n - ar.shape[1]))))
        b = Subspace.from_rows(n, np.pad(br, ((0, 0), (0, n - br.shape[1]))))
        assert a.dim + b.dim == subspace_sum(a, b).dim + subspace_intersect(a, b).dim


class TestPreimage:
    def test_full_target(self):
        m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
        assert preimage(m, Subspace.full(2)).dim == 3

    def test_zero_target_is_kernel(self):
        m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
        assert preimage(m, Subspace.zero(2)) == kernel_basis(m)

    def test_identity_map(self):
        m = BitMatrix.identity(2)
        s = Subspace.from_rows(2, np.array([[1, 0]], dtype=np.uint8))
        got = preimage(m, s)
        assert got == s

    @settings(max_examples=40, deadline=None)
    @given(dense_matrices(max_rows=5, max_cols=5), dense_matrices(max_rows=3, max_cols=5))
    def test_members_land_in_target(self, arr, srr):
        m = BitMatrix.from_dense(arr)
        s = Subspace.from_rows(m.rows, np.pad(srr, ((0, 0), (0, max(0, m.rows - srr.shape[1]))))[:, : m.rows]) if m.rows else Subspace.zero(0)
        pre = preimage(m, s)
        for row in pre.basis.to_dense():
            assert s.contains_vector(arr.astype(int) @ row % 2)


class TestQuotient:
    def test_full_by_zero(self):
        assert quotient_dim(Subspace.full(4), Subspace.zero(4)) == 4

    def test_self(self):
        a = Subspace.from_rows(4, np.array([[1, 0, 1, 0]], dtype=np.uint8))
        assert quotient_dim(a, a) == 0

    def test_not_a_subspace(self):
        a = Subspace.from_rows(3, np.array([[1, 0, 0]], dtype=np.uint8))
        b = Subspace.from_rows(3, np.array([[0, 1, 0]], dtype=np.uint8))
        with pytest.raises(GF2Error, match="not a subspace"):
            quotient_dim(a, b)


class TestInducedMap:
    def test_identity_full(self):
        m = BitMatrix.identity(3)
        q = QuotientCoords(Subspace.full(3), Subspace.zero(3))
        got = induced_map(m, q, q)
        assert got == BitMatrix.identity(3)

    def test_zero_domain(self):
        m = BitMatrix.identity(3)
        a = Subspace.from_rows(3, np.array([[1, 1, 0]], dtype=np.uint8))
        got = induced_map(m, QuotientCoords(a, a), QuotientCoords(Subspace.full(3), a))
        assert got.shape == (2, 0)

    def test_containment_error_names_side(self):
        m = BitMatrix.from_dense([[1, 0], [0, 0]])
        dom = QuotientCoords(Subspace.full(2), Subspace.zero(2))
        tgt = Subspace.from_rows(2, np.array([[0, 1]], dtype=np.uint8))
        with pytest.raises(GF2Error, match="dom_a into cod_c"):
            induced_map(m, dom, QuotientCoords(tgt, Subspace.zero(2)))

    def test_sub_containment_error_names_side(self):
        # m maps a into c, but b outside d: only the sub side can fail
        m = BitMatrix.identity(2)
        full = Subspace.full(2)
        b = Subspace.from_rows(2, np.array([[1, 0]], dtype=np.uint8))
        d = Subspace.from_rows(2, np.array([[0, 1]], dtype=np.uint8))
        with pytest.raises(GF2Error, match="dom_b into cod_d"):
            induced_map(m, QuotientCoords(full, b), QuotientCoords(full, d))


class TestCanonicality:
    @settings(max_examples=40, deadline=None)
    @given(dense_matrices(max_rows=5, max_cols=6), st.randoms(use_true_random=False))
    def test_shuffled_spanning_rows(self, arr, rnd):
        rows = [r for r in arr]
        rnd.shuffle(rows)
        shuffled = np.array(rows, dtype=np.uint8).reshape(arr.shape)
        assert Subspace.from_rows(arr.shape[1], arr) == Subspace.from_rows(
            arr.shape[1], shuffled
        )

    def test_operation_order_independence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Subspace.from_rows(6, rng.integers(0, 2, (3, 6), dtype=np.uint8))
            b = Subspace.from_rows(6, rng.integers(0, 2, (3, 6), dtype=np.uint8))
            c = Subspace.from_rows(6, rng.integers(0, 2, (2, 6), dtype=np.uint8))
            left = subspace_sum(subspace_sum(a, b), c)
            right = subspace_sum(a, subspace_sum(c, b))
            assert left == right and hash(left) == hash(right)


class TestArithmetic:
    @settings(max_examples=80, deadline=None)
    @given(product_operands())
    def test_matmul_against_dense(self, ab):
        a, b = (BitMatrix.from_dense(x) for x in ab)
        got = a @ b
        assert np.array_equal(got.to_dense(), (ab[0].astype(int) @ ab[1]) % 2)
        assert np.array_equal(got.words, matmul_column_oracle(a, b))
        assert padding_is_zero(got)

    @pytest.mark.parametrize(
        "rows, inner, cols",
        [(0, 5, 3), (0, 0, 0), (4, 0, 3), (4, 0, 0), (5, 7, 0), (3, 70, 0), (2, 9, 65)],
    )
    def test_matmul_degenerate_shapes(self, rows, inner, cols):
        a = BitMatrix.from_dense(np.ones((rows, inner), dtype=np.uint8))
        b = BitMatrix.from_dense(np.ones((inner, cols), dtype=np.uint8))
        got = a @ b
        assert got.shape == (rows, cols)
        assert np.array_equal(got.words, matmul_column_oracle(a, b))
        assert np.array_equal(got.to_dense(), np.full((rows, cols), inner % 2, dtype=np.uint8))

    def test_solve_and_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = BitMatrix.from_dense(rng.integers(0, 2, (5, 5), dtype=np.uint8))
            b = BitMatrix.from_dense(rng.integers(0, 2, (5, 2), dtype=np.uint8))
            x = solve(a, b)
            if x is not None:
                assert a @ x == b
        m = BitMatrix.from_dense([[1, 1], [0, 1]])
        assert m @ inverse(m) == BitMatrix.identity(2)

    def test_annihilator_double(self):
        s = Subspace.from_rows(5, np.array([[1, 0, 1, 0, 1], [0, 1, 1, 0, 0]], dtype=np.uint8))
        assert annihilator(annihilator(s)) == s

    def test_apply_to_subspace(self):
        m = BitMatrix.from_dense([[1, 1, 0], [0, 0, 0]])
        s = Subspace.full(3)
        img = apply_to_subspace(m, s)
        assert img.dim == 1 and img.contains_vector(np.array([1, 0]))


class TestCoordinates:
    """coords, transpose and take_columns against dense numpy, and the product's row blocks."""

    @settings(max_examples=80, deadline=None)
    @given(coordinate_matrix())
    def test_coords(self, arr):
        r, c = BitMatrix.from_dense(arr).coords()
        want_r, want_c = np.nonzero(arr)
        assert r.dtype == c.dtype == np.int64
        assert np.array_equal(r, want_r) and np.array_equal(c, want_c)

    @settings(max_examples=80, deadline=None)
    @given(coordinate_matrix())
    def test_transpose(self, arr):
        got = BitMatrix.from_dense(arr).transpose()
        assert got.shape == arr.T.shape
        assert np.array_equal(got.to_dense(), arr.T)
        assert padding_is_zero(got)

    @settings(max_examples=80, deadline=None)
    @given(column_takes())
    def test_take_columns(self, arr_cols):
        arr, cols = arr_cols
        got = BitMatrix.from_dense(arr).take_columns(cols)
        assert got.shape == (arr.shape[0], len(cols))
        assert np.array_equal(got.to_dense(), arr[:, cols])
        assert padding_is_zero(got)

    @pytest.mark.parametrize("cols", [[-1], [0, -3], [5], [0, 9], [2, 2], [0, 1, 0]])
    def test_take_columns_refuses_bad_columns(self, cols):
        # a negative column once read from the end and a repeated one came out zero
        m = BitMatrix.from_dense(np.eye(5, dtype=np.uint8))
        with pytest.raises(GF2Error, match="^take_columns: "):
            m.take_columns(cols)

    @settings(max_examples=60, deadline=None)
    @given(product_operands(), st.sampled_from([1, 200, 4096]))
    def test_block_size_does_not_change_results(self, ab, block_bytes):
        a, b = (BitMatrix.from_dense(x) for x in ab)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            product, coords, transposed = a @ b, a.coords(), a.transpose()
        assert np.array_equal(product.words, matmul_column_oracle(a, b))
        assert all(np.array_equal(x, y) for x, y in zip(coords, np.nonzero(ab[0])))
        assert np.array_equal(transposed.to_dense(), ab[0].T)

    def test_matmul_dense_left_operand(self):
        rng = np.random.default_rng(17)
        a = BitMatrix.from_dense(rng.integers(0, 2, (300, 300), dtype=np.uint8))
        b = BitMatrix.from_dense(rng.integers(0, 2, (300, 300), dtype=np.uint8))
        assert np.array_equal((a @ b).words, matmul_column_oracle(a, b))

    def test_product_holds_one_block(self):
        # the gathered rows of all 2M ones of the left operand would take
        # 512 MiB; one row block at a time the product stays near its output
        rng = np.random.default_rng(19)
        a = BitMatrix.from_dense(rng.integers(0, 2, (2048, 2048), dtype=np.uint8))
        b = BitMatrix.from_dense(rng.integers(0, 2, (2048, 2048), dtype=np.uint8))
        out, _, peak = traced(lambda: a @ b)
        assert peak < 2 * out.words.nbytes + gf2.RANK_BLOCK_BYTES
        assert np.array_equal(out.words, matmul_column_oracle(a, b))

    @settings(max_examples=60, deadline=None)
    @given(kernel_operands(), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_solve_against_ranks(self, arr, k, seed):
        a = BitMatrix.from_dense(arr)
        rhs = np.random.default_rng(seed).integers(0, 2, (arr.shape[0], k), dtype=np.uint8)
        x = solve(a, BitMatrix.from_dense(rhs))
        consistent = BitMatrix.from_dense(np.concatenate([arr, rhs], axis=1)).rank() == a.rank()
        assert (x is not None) == consistent
        if x is not None:
            assert x.shape == (a.cols, k)
            assert np.array_equal((a @ x).to_dense(), rhs)


@st.composite
def word_map_operands(draw):
    """A word map with missing and repeated columns (a[i] == b[i] cancels),
    a packed right operand and row vectors to apply it to."""
    rows = draw(st.integers(0, 24))
    cols = draw(WORD_WIDTHS | st.integers(0, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.integers(-1, cols, (2, rows)) if cols else np.full((2, rows), -1)
    if rows and draw(st.booleans()):
        b[: rows // 2] = a[: rows // 2]
    fill = draw(ELIMINATION_FILLS)
    x = draw(filled_matrix(cols, draw(WORD_WIDTHS | st.integers(0, 140)), fill))
    y = draw(filled_matrix(draw(st.integers(0, 24)), cols, fill))
    return WordMap(rows, cols, a, b), x, y


class TestWordMap:
    """Products of index-array word maps against dense numpy."""

    @settings(max_examples=80, deadline=None)
    @given(word_map_operands(), st.sampled_from([1, 200, 4096, 1 << 19]))
    def test_products_match_dense(self, operands, block_bytes):
        w, x, y = operands
        dense_w = np.zeros(w.shape, dtype=np.int64)
        for col in (w.a, w.b):
            hit = np.flatnonzero(col >= 0)
            np.add.at(dense_w, (hit, col[hit]), 1)
        dense_w %= 2
        assert np.array_equal(packed(w).to_dense(), dense_w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            prod = w @ BitMatrix.from_dense(x)
        assert np.array_equal(prod.to_dense(), dense_w @ x % 2)
        assert padding_is_zero(prod)
        # applied to row vectors: y @ w^T = (w @ y^T)^T, as induced_map applies it
        applied = (w @ BitMatrix.from_dense(y).transpose()).transpose()
        assert np.array_equal(applied.to_dense(), y.astype(np.int64) @ dense_w.T % 2)

    @settings(max_examples=40, deadline=None)
    @given(word_map_operands())
    def test_induced_map_reads_the_product(self, operands):
        # on full/zero quotients the induced map is the map itself
        w = operands[0]
        dom = QuotientCoords(Subspace.full(w.cols), Subspace.zero(w.cols))
        cod = QuotientCoords(Subspace.full(w.rows), Subspace.zero(w.rows))
        assert induced_map(w, dom, cod) == induced_map(packed(w), dom, cod) == packed(w)

    def test_refuses_bad_indices(self):
        with pytest.raises(GF2Error, match="row count"):
            WordMap(2, 3, [0, 1, 2])
        with pytest.raises(GF2Error, match="outside"):
            WordMap(2, 3, [0, 3])
        with pytest.raises(GF2Error, match="outside"):
            WordMap(2, 3, [0, 1], [-2, 0])
        with pytest.raises(GF2Error, match="shape mismatch"):
            WordMap(2, 3, [0, 1]) @ BitMatrix.zeros(2, 2)


class TestQuotientCoords:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            a = Subspace.from_rows(7, rng.integers(0, 2, (5, 7), dtype=np.uint8))
            brows = rng.integers(0, 2, (2, max(a.dim, 1)), dtype=np.uint8)
            b = Subspace.from_rows(
                7,
                (brows[:, : a.dim].astype(int) @ a.basis.to_dense().astype(int) % 2).astype(np.uint8),
            ) if a.dim else Subspace.zero(7)
            qc = QuotientCoords(a, b)
            reps = qc.lift_rows()
            assert qc.project_rows(reps) == BitMatrix.identity(qc.dim)


@st.composite
def nested_pairs(draw):
    """(a, b, rows of a) with b <= a, both spans of random rows."""
    span = draw(elimination_matrix() | tall_deficient_matrix())
    cols = span.shape[1]
    a = Subspace.from_rows(cols, BitMatrix.from_dense(span))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = a.basis.to_dense().astype(np.int64)

    def combos(k):
        rows = rng.integers(0, 2, (k, a.dim)) @ dense % 2
        return BitMatrix.from_dense(rows.astype(np.uint8).reshape(k, cols))

    b = Subspace.from_rows(cols, combos(draw(st.integers(0, a.dim + 2))))
    return a, b, combos(draw(st.integers(0, 12)))


class TestPivotColumnRule:
    """Subspace queries read off the pivot columns, against eliminating routes."""

    @settings(max_examples=120, deadline=None)
    @given(nested_pairs())
    def test_quotient_coords_match_inner_oracle(self, case):
        a, b, rows = case
        got, want = QuotientCoords(a, b), InnerQuotientCoords(a, b)
        assert got.free == want.free and got.dim == a.dim - b.dim
        assert got.lift_rows() == want.lift_rows()
        assert got.project_rows(rows) == want.project_rows(rows)
        assert got.project_rows(got.lift_rows()) == BitMatrix.identity(got.dim)

    @settings(max_examples=60, deadline=None)
    @given(nested_pairs(), st.integers(0, 2**32 - 1))
    def test_project_rows_refuses_rows_outside(self, case, seed):
        a, b, _ = case
        outside = BitMatrix.from_dense(np.random.default_rng(seed).integers(
            0, 2, (3, a.ambient_dim), dtype=np.uint8))
        inside = not reduce_rows_loop_oracle(a, outside).any()
        for qc in (QuotientCoords(a, b), InnerQuotientCoords(a, b)):
            if inside:
                qc.project_rows(outside)
            else:
                with pytest.raises(GF2Error, match="not inside"):
                    qc.project_rows(outside)

    @settings(max_examples=120, deadline=None)
    @given(nested_pairs(), st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_row_coefficients_against_loop_oracle(self, case, seed, extra):
        a, _, rows = case
        noise = np.random.default_rng(seed).integers(0, 2, (extra, a.ambient_dim), dtype=np.uint8)
        for mat in (rows, BitMatrix.vstack(rows, BitMatrix.from_dense(noise))):
            if reduce_rows_loop_oracle(a, mat).any():
                with pytest.raises(GF2Error, match="not inside"):
                    a.row_coefficients(mat)
                continue
            coeffs = a.row_coefficients(mat)
            assert coeffs.shape == (mat.rows, a.dim)
            assert np.array_equal(matmul_column_oracle(coeffs, a.basis), mat.words)

    def test_mismatched_pivots_raise_promptly(self):
        """A basis whose rows are not the identity at their recorded pivots
        made reduce_rows loop forever; it is now refused when the subspace is
        made, so neither contains nor reduce_rows can meet one."""
        swapped = BitMatrix.from_dense([[0, 1, 0], [1, 0, 0]])  # row k's one is at pivot 1 - k
        late = BitMatrix.from_dense([[1, 1, 0]])  # leading one left of the recorded pivot
        shared = BitMatrix.from_dense([[1, 1, 0], [0, 1, 0]])  # row 0 has a one at pivot 1
        early_word = BitMatrix.from_coords(1, 70, [0, 0], [0, 65])  # a one a word before pivot 65
        cases = [(swapped, (0, 1)), (late, (1,)), (shared, (0, 1)), (swapped, (1, 0)),
                 (late, (0, 1)), (late, (3,)), (early_word, (65,))]
        for basis, pivots in cases:
            full = Subspace.full(basis.cols)
            made = lambda: Subspace(basis.cols, basis, pivots)
            assert raises_promptly(lambda: made().contains(full), GF2Error)
            assert raises_promptly(lambda: full.contains(made()), GF2Error)
