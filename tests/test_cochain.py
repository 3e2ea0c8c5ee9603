"""Tests for cochain bases, differentials, operators, and inclusions."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import betti_oracle
import dense_builders as dense
from commcoh import cochain, gf2
from commcoh.algebra import (
    BracketTable,
    ModuleSpec,
    flambda_module,
    make_module,
    trivial_module,
    weight_grading,
)
from commcoh.catalog import catalog_names
from commcoh.cochain import (
    Flavor,
    InclusionPair,
    PreconditionError,
    basis_dim,
    basis_tuples,
    build_tower,
    insertion_matrix,
    lie_derivative_matrix,
    monomial_rank,
)
from commcoh.cohomology import betti_table
from commcoh.gf2 import BitMatrix

from conftest import (
    catalog,
    heis3_tables,
    inclusion_class_map,
    random_comm_lie_table,
    random_valid_module,
    traced,
)
from dense_builders import assert_same_matrix


class TestBases:
    def test_counts(self):
        assert basis_dim(Flavor.SYM, 2, 4) == 5
        assert basis_dim(Flavor.EXT, 3, 2) == 3
        assert basis_dim(Flavor.TENSOR, 2, 3) == 8

    def test_tuple_shapes(self):
        assert basis_tuples(Flavor.SYM, 2, 2) == ((0, 0), (0, 1), (1, 1))
        assert all(
            len(basis_tuples(f, d, n)) == basis_dim(f, d, n)
            for f in Flavor
            for d in (1, 2, 3)
            for n in range(5)
        )

    def test_colex_order_tensor(self):
        assert basis_tuples(Flavor.TENSOR, 2, 2) == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_long_symmetric_words_rank_without_overflow(self):
        # a table of C(a, k) over every a and k would hold C(70, 35) > 2^63
        words = np.array(basis_tuples(Flavor.SYM, 2, 70))
        ranks = monomial_rank(Flavor.SYM, 2, 70)
        assert cochain._index(Flavor.SYM, 2, words).tolist() == [ranks[tuple(w)] for w in words.tolist()]
        a = catalog("a")
        bt = betti_table(build_tower(Flavor.SYM, a.table, a.modules["trivial"], 69))
        # the pattern of TestBetti.test_solvable_example_frozen, continued
        assert bt.dims == tuple(n // 2 + 1 for n in range(69))


class TestDifferential:
    def test_nilpotent_degree_one(self):
        # only [f,f] = e contributes: d(e*) is the functional dual to f.f
        n = catalog("N")
        d1 = build_tower(Flavor.SYM, n.table, n.modules["trivial"], 2).diffs[1]
        assert d1.shape == (3, 2)
        dense = d1.to_dense()
        assert dense.sum() == 1
        row = monomial_rank(Flavor.SYM, 2, 2)[(1, 1)]
        assert dense[row, 0] == 1  # column of e*, row of the f.f monomial

    def test_abelian_zero(self):
        t = BracketTable.zero(2)
        triv = trivial_module(t)
        for flavor in Flavor:
            for n in range(4):
                assert build_tower(flavor, t, triv, n + 1).diffs[n].is_zero()

    def test_one_dim_nontrivial_module_alternates(self):
        t = BracketTable.zero(1)
        mod = flambda_module(t, [1])
        for n in range(6):
            d = build_tower(Flavor.SYM, t, mod, n + 1).diffs[n]
            if n % 2 == 0:
                assert d == BitMatrix.identity(1)
            else:
                assert d.is_zero()

    def test_composition_zero_catalog(self):
        for name in ("N", "a", "abelian2", "heis3"):
            entry = catalog(name)
            is_lie = name != "N"
            for flavor in Flavor:
                if flavor is Flavor.EXT and not is_lie:
                    continue
                tower = build_tower(flavor, entry.table, entry.modules["trivial"], 5)
                assert tower.check_composition(), (name, flavor)

    def test_composition_zero_random(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            t = random_comm_lie_table(rng, d)
            mod = random_valid_module(rng, t)
            tower = build_tower(Flavor.SYM, t, mod, 4)
            assert tower.check_composition()
            tower = build_tower(Flavor.TENSOR, t, mod, 4)
            assert tower.check_composition()

    def test_precondition_errors_name_axiom(self):
        n = catalog("N")
        with pytest.raises(PreconditionError, match="alternating"):
            build_tower(Flavor.EXT, n.table, n.modules["trivial"], 2)
        t = BracketTable.from_entries(2, {(0, 1): [1]})  # not commutative
        with pytest.raises(PreconditionError, match="commutative"):
            build_tower(Flavor.SYM, t, trivial_module(t), 2)

    def test_representative_independence(self):
        # evaluating on a shuffled representative word gives the same matrix
        rng = np.random.default_rng(11)
        for name in ("N", "a", "heis3"):
            entry = catalog(name)
            for n in range(4):
                def shuffled(mono):
                    word = list(mono)
                    rng.shuffle(word)
                    return tuple(word)

                tower = build_tower(Flavor.SYM, entry.table, entry.modules["trivial"], n + 1)
                base = tower.diffs[n]
                alt = dense.differential(
                    Flavor.SYM, entry.table, entry.modules["trivial"], n, rep_of=shuffled
                )
                assert base == alt


class TestOperators:
    def test_zero_element(self):
        a = catalog("a")
        for n in range(4):
            assert insertion_matrix(Flavor.SYM, 2, 1, [0, 0], n).is_zero()
            assert lie_derivative_matrix(
                Flavor.SYM, a.table, a.modules["trivial"], [0, 0], n
            ).is_zero()

    def test_abelian_trivial_derivative_zero(self):
        t = BracketTable.zero(3)
        triv = trivial_module(t)
        for n in range(4):
            assert lie_derivative_matrix(Flavor.SYM, t, triv, [1, 1, 0], n).is_zero()

    def test_nilpotent_derivative_entry(self):
        # (L_f e*)(f) = e*([f,f]) = 1
        n = catalog("N")
        lf = lie_derivative_matrix(Flavor.SYM, n.table, n.modules["trivial"], [0, 1], 1)
        assert lf.get(1, 0) == 1  # row f-monomial, column e*

    def test_insertion_degree_zero(self):
        m = insertion_matrix(Flavor.SYM, 2, 1, [1, 0], 0)
        assert m.shape == (0, 1)

    def test_cartan_relation(self):
        eye = np.eye(3, dtype=np.uint8)
        for name in ("N", "a", "abelian2", "heis3"):
            entry = catalog(name)
            d = entry.table.dim
            mod = entry.modules["trivial"]
            tower = build_tower(Flavor.SYM, entry.table, mod, 5)
            for xi in range(d):
                x = np.eye(d, dtype=np.uint8)[xi]
                for n in range(5):
                    lx = lie_derivative_matrix(Flavor.SYM, entry.table, mod, x, n)
                    i_n = insertion_matrix(Flavor.SYM, d, mod.dim, x, n)
                    i_n1 = insertion_matrix(Flavor.SYM, d, mod.dim, x, n + 1)
                    rhs = i_n1 @ tower.differential(n)
                    if n > 0:
                        rhs = rhs + (tower.differential(n - 1) @ i_n)
                    assert lx == rhs, (name, xi, n)

    def test_derivative_kills_cohomology(self):
        # L_x maps cocycles into coboundaries
        from dense_builders import boundaries, cycles

        for name in ("N", "a"):
            entry = catalog(name)
            mod = entry.modules["trivial"]
            tower = build_tower(Flavor.SYM, entry.table, mod, 5)
            for xi in range(2):
                x = np.eye(2, dtype=np.uint8)[xi]
                for n in range(4):
                    lx = lie_derivative_matrix(Flavor.SYM, entry.table, mod, x, n)
                    z = cycles(tower, n)
                    b = boundaries(tower, n)
                    if z.dim:
                        img = z.basis @ lx.transpose()
                        assert b.reduce_rows(img).is_zero()


def inclusion_matrix(pair, d, mdim, n):
    """Pullback of the quotient map of argument spaces: a sub-flavor cochain
    becomes the functional w -> f(class of w) on the total flavor's words."""
    return inclusion_class_map(pair, d, n, mdim)[2]


class TestInclusions:
    def test_low_degrees_identity(self):
        for pair in InclusionPair:
            for n in (0, 1):
                m = inclusion_matrix(pair, 2, 1, n)
                assert m == BitMatrix.identity(m.rows)

    def test_sym_into_tensor_content(self):
        m = inclusion_matrix(InclusionPair.SYM_IN_TENSOR, 2, 1, 2)
        assert m.shape == (4, 3)
        words = basis_tuples(Flavor.TENSOR, 2, 2)
        monos = basis_tuples(Flavor.SYM, 2, 2)
        col = monos.index((0, 1))
        rows = {w for i, w in enumerate(words) if m.get(i, col)}
        assert rows == {(0, 1), (1, 0)}

    def test_composition_identity(self):
        # including alternating cochains through the symmetric ones equals
        # the direct inclusion into tensor cochains
        for d in (1, 2, 3):
            for mdim in (1, 2):
                for n in range(5):
                    i1 = inclusion_matrix(InclusionPair.EXT_IN_TENSOR, d, mdim, n)
                    i2 = inclusion_matrix(InclusionPair.EXT_IN_SYM, d, mdim, n)
                    i3 = inclusion_matrix(InclusionPair.SYM_IN_TENSOR, d, mdim, n)
                    assert i3 @ i2 == i1

    def test_injective(self):
        for pair in InclusionPair:
            for n in range(4):
                m = inclusion_matrix(pair, 3, 2, n)
                assert m.rref()[1] == m.cols

    def test_chain_map_property(self):
        for name in ("a", "abelian2", "heis3"):
            entry = catalog(name)
            d = entry.table.dim
            mod = entry.modules["trivial"]
            towers = {f: build_tower(f, entry.table, mod, 5) for f in Flavor}
            pairs = {
                InclusionPair.EXT_IN_TENSOR: (Flavor.EXT, Flavor.TENSOR),
                InclusionPair.EXT_IN_SYM: (Flavor.EXT, Flavor.SYM),
                InclusionPair.SYM_IN_TENSOR: (Flavor.SYM, Flavor.TENSOR),
            }
            for pair, (sub, tot) in pairs.items():
                for n in range(4):
                    inc_n = inclusion_matrix(pair, d, mod.dim, n)
                    inc_n1 = inclusion_matrix(pair, d, mod.dim, n + 1)
                    lhs = towers[tot].differential(n) @ inc_n
                    rhs = inc_n1 @ towers[sub].differential(n)
                    assert lhs == rhs, (name, pair, n)

    def test_chain_map_sym_in_tensor_non_lie(self):
        n = catalog("N")
        mod = n.modules["trivial"]
        sym = build_tower(Flavor.SYM, n.table, mod, 5)
        ten = build_tower(Flavor.TENSOR, n.table, mod, 5)
        for deg in range(4):
            inc_n = inclusion_matrix(InclusionPair.SYM_IN_TENSOR, 2, 1, deg)
            inc_n1 = inclusion_matrix(InclusionPair.SYM_IN_TENSOR, 2, 1, deg + 1)
            assert ten.differential(deg) @ inc_n == inc_n1 @ sym.differential(deg)


class TestTower:
    def test_degree_zero_is_module(self):
        entry = catalog("heis3")
        tower = build_tower(Flavor.SYM, entry.table, entry.modules["adjoint"], 3)
        assert tower.dims[0] == 3

    def test_label_and_bounds(self):
        entry = catalog("N")
        tower = build_tower(Flavor.SYM, entry.table, entry.modules["trivial"], 4, "x")
        assert tower.label == "x" and tower.n_max == 4 and len(tower.diffs) == 4


bits = lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))


@st.composite
def builder_inputs(draw):
    """Arbitrary bracket tables and actions: the builders need no axioms."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    return d, m, n, draw(bits((d, d, d))), draw(bits((d, m, m)))


class TestBuildersMatchDenseOracles:
    """Every coordinate-list builder against the dense loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(builder_inputs(), st.booleans())
    def test_differential(self, inputs, reverse):
        d, m, n, c, rho = inputs
        flavors, rep_of = list(Flavor), None
        if reverse:
            # a reversed word stands for the same sym or ext monomial once
            # the table is commutative
            c = c | c.transpose(1, 0, 2)
            flavors, rep_of = [Flavor.SYM, Flavor.EXT], lambda mono: mono[::-1]
        table, coeffs = BracketTable(c), ModuleSpec(m, rho)
        for flavor in flavors:
            got = betti_oracle.unchecked_tower(flavor, table, coeffs, n + 1).differential(n)
            assert_same_matrix(got, dense.differential(flavor, table, coeffs, n, rep_of))

    @settings(max_examples=60, deadline=None)
    @given(builder_inputs(), st.data())
    def test_operators(self, inputs, data):
        d, m, n, _, _ = inputs
        x = data.draw(bits((d,)))
        a, b = data.draw(bits((m, m))), data.draw(bits((d, d)))
        for flavor in Flavor:
            assert_same_matrix(
                insertion_matrix(flavor, d, m, x, n), dense.insertion(flavor, d, m, x, n)
            )
            assert_same_matrix(
                cochain.derivation_operator_matrix(flavor, d, m, a, b, n),
                dense.derivation_operator(flavor, d, m, a, b, n),
            )
        for pair in InclusionPair:
            assert_same_matrix(inclusion_matrix(pair, d, m, n), dense.inclusion(pair, d, m, n))

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_towers(self, name):
        entry = catalog(name)
        for flavor in Flavor:
            for mod in entry.modules.values():
                try:
                    tower = build_tower(flavor, entry.table, mod, 6)
                except PreconditionError:
                    continue
                for n, diff in enumerate(tower.diffs):
                    want = dense.differential(flavor, entry.table, mod, n)
                    assert_same_matrix(diff, want)

    @pytest.mark.parametrize("block_bytes", [1, 200, 4096])
    def test_column_chunks_reassemble(self, block_bytes, monkeypatch):
        cases = [("heis3", "adjoint", Flavor.TENSOR, 4), ("heis3", "flambda", Flavor.SYM, 5),
                 ("abelian3", "coadjoint", Flavor.EXT, 2), ("N", "trivial", Flavor.SYM, 6)]
        want = [build_tower(f, catalog(name).table, catalog(name).modules[mod], n + 1).differential(n)
                for name, mod, f, n in cases]
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(block_bytes)
        for (name, mod_name, flavor, n), diff in zip(cases, want):
            table, mod = catalog(name).table, catalog(name).modules[mod_name]
            # every column in order, and a shuffled half of them
            for cols in (np.arange(diff.cols), rng.permutation(diff.cols)[: diff.cols // 2]):
                chunks = list(cochain._coboundary_coords(flavor, table, mod, n, cols))
                # the chunks take the columns in order, whole, and each at least one
                stop = 0
                for i, r in chunks:
                    assert i.size == r.size and (i >= stop).all()
                    stop = max(stop + 1, int(i.max(initial=-1)) + 1)
                assert stop <= max(cols.size, 1) and len(chunks) <= max(cols.size, 1)
                assert _generated(diff.rows, cols, chunks) == _rows_of(diff.transpose(), cols)
            assert build_tower(flavor, table, mod, n + 1).differential(n) == diff

    def test_tensor_build_allocates_no_dense_matrix(self):
        # heis3 adjoint at degree 7: 19683 x 6561, 15.5 MiB packed and
        # 123 MiB as a dense uint8 array
        entry = catalog("heis3")
        diff, _, peak = traced(lambda: build_tower(Flavor.TENSOR, entry.table, entry.modules["adjoint"], 8).differential(7))
        assert diff.shape == (19683, 6561)
        assert peak < 2.5 * diff.words.nbytes


def _generated(rows: int, cols, chunks) -> BitMatrix:
    """The ones (i, r) of the generator's chunks as len(cols) x rows: row i is d(e_f), f = cols[i]."""
    i, r = (np.concatenate(x) for x in zip(*chunks)) if chunks else ([], [])
    return BitMatrix.from_coords(len(cols), rows, i, r)


def _rows_of(m: BitMatrix, rows) -> BitMatrix:
    return BitMatrix(len(rows), m.cols, m.words[rows])


@lru_cache(maxsize=None)
def _dense_transposed(name, mod_name, flavor, n) -> BitMatrix:
    entry = catalog(name)
    return dense.differential(flavor, entry.table, entry.modules[mod_name], n).transpose()


def _column_subset(rng, size: int):
    """A random subset of range(size) in random order, never empty when size is not."""
    take = rng.random(size) < 0.5
    if size:
        take[rng.integers(size)] = True
    return rng.permutation(np.flatnonzero(take))


class TestColumnGenerator:
    """d(e_f) from _coboundary_coords against the dense loop over rows, bit for bit."""

    @pytest.mark.parametrize("block_bytes", [1, 64, 4096, None])
    def test_catalog_matches_dense_oracle(self, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(7)
        for name in catalog_names():
            entry = catalog(name)
            for mod_name in ("trivial", "adjoint", "coadjoint", "flambda"):
                mod = entry.modules[mod_name]
                for flavor in Flavor:
                    for n in range(4):
                        want = _dense_transposed(name, mod_name, flavor, n)
                        for cols in (np.arange(want.rows), _column_subset(rng, want.rows)):
                            chunks = list(cochain._coboundary_coords(flavor, entry.table, mod, n, cols))
                            got = _generated(want.cols, cols, chunks)
                            assert_same_matrix(got, _rows_of(want, cols))

    @settings(max_examples=80, deadline=None)
    @given(builder_inputs(), st.sampled_from([1, 64, 4096, None]), st.integers(0, 2**32 - 1))
    def test_drawn_tables_match_dense_oracle(self, inputs, block_bytes, seed):
        # no axioms: the generator reads any table and any action
        d, m, n, c, rho = inputs
        table, coeffs = BracketTable(c), ModuleSpec(m, rho)
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            for flavor in Flavor:
                want = dense.differential(flavor, table, coeffs, n).transpose()
                for cols in (np.arange(want.rows), _column_subset(rng, want.rows)):
                    chunks = list(cochain._coboundary_coords(flavor, table, coeffs, n, cols))
                    assert_same_matrix(_generated(want.cols, cols, chunks), _rows_of(want, cols))


def _keeps_weight(flavor, table, coeffs, n) -> bool:
    """Whether every one of the degree-n coboundary joins coordinates of equal weight."""
    letters, values = weight_grading(table, coeffs)
    r, c = betti_oracle.pack_differential(flavor, table, coeffs, n).coords()
    lo, hi = (cochain._coordinate_weights(flavor, letters, values, k) for k in (n, n + 1))
    return np.array_equal(hi[r], lo[c])


def _letter_rank(table, coeffs=None) -> int:
    letters, _ = weight_grading(table, coeffs or make_module(table, "trivial"))
    return int(np.linalg.matrix_rank(letters)) if letters.size else 0


class TestWeightGrading:
    """The finest grading of (table, module) and the weight of each cochain coordinate."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_coboundaries_keep_weight(self, name):
        entry = catalog(name)
        for mod_name in ("trivial", "adjoint", "coadjoint", "flambda"):
            for flavor in Flavor:
                for n in range(5):
                    assert _keeps_weight(flavor, entry.table, entry.modules[mod_name], n)

    @settings(max_examples=60, deadline=None)
    @given(builder_inputs())
    def test_drawn_coboundaries_keep_weight(self, inputs):
        # arbitrary tables and actions, so Lie, commutative and Leibniz ones among them
        d, m, n, c, rho = inputs
        for flavor in Flavor:
            assert _keeps_weight(flavor, BracketTable(c), ModuleSpec(m, rho), n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_valid_coboundaries_keep_weight(self, d, seed):
        rng = np.random.default_rng(seed)
        table = random_comm_lie_table(rng, d)
        mod = random_valid_module(rng, table)
        for flavor in Flavor:
            assert all(_keeps_weight(flavor, table, mod, n) for n in range(4))

    @settings(max_examples=60, deadline=None)
    @given(builder_inputs())
    def test_weights_solve_exactly_the_grading_equations(self, inputs):
        d, m, _, c, rho = inputs
        letters, values = weight_grading(BracketTable(c), ModuleSpec(m, rho))
        w = np.vstack([letters, values])
        eqs = []
        for i, j, k in zip(*np.nonzero(c)):
            eqs.append(np.bincount([k], minlength=d + m) - np.bincount([i, j], minlength=d + m))
        for i, b, a in zip(*np.nonzero(rho)):
            eqs.append(np.bincount([d + b], minlength=d + m) - np.bincount([i, d + a], minlength=d + m))
        eqs = np.array(eqs, dtype=np.int64).reshape(-1, d + m)
        assert not (eqs @ w).any()
        # an integer basis of every rational solution: independent, and as many
        # vectors as the unknowns less the rank of the system
        assert np.linalg.matrix_rank(w) == w.shape[1] == d + m - np.linalg.matrix_rank(eqs)

    def test_finest_grading_ranks(self):
        # the rank of the letter weights; trivial coefficients add a free
        # value weight, which shifts every coordinate alike
        ranks = {name: _letter_rank(catalog(name).table) for name in catalog_names()}
        assert ranks == {"heis3": 2, "N": 1, "a": 1, "abelian1": 1, "abelian2": 2, "abelian3": 3}
        for d in range(1, 6):
            assert _letter_rank(BracketTable.zero(d)) == d
        heis3 = catalog("heis3")
        assert _letter_rank(heis3.table, heis3.modules["flambda"]) == 1

    @pytest.mark.parametrize("z_terms, rank", [(1, 2), (2, 1), (3, 0)])
    def test_benchmark_heis3_bases(self, z_terms, rank):
        # every basis the benchmark may draw; rank 0 is a single weight class
        for table in heis3_tables(z_terms):
            assert _letter_rank(table) == rank
            letters, values = weight_grading(table, make_module(table, "trivial"))
            weights = cochain._coordinate_weights(Flavor.TENSOR, letters, values, 3)
            assert (len(np.unique(weights, axis=0)) == 1) == (rank == 0)
