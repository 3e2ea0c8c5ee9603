"""Tests for Betti tables, representatives, and induced maps on cohomology."""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import betti_oracle
from commcoh import cohomology, gf2
from commcoh.algebra import (
    BracketTable,
    change_basis,
    flambda_module,
    make_module,
    module_change_basis,
    trivial_module,
    weight_grading,
)
from commcoh.catalog import catalog_names
from commcoh.cochain import (
    ComplexTower,
    Flavor,
    PreconditionError,
    _coordinate_weights,
    build_tower,
    lie_derivative_matrix,
)
from commcoh.cohomology import betti_table, cocycle_representatives, induced_map_on_cohomology
from commcoh.gf2 import BitMatrix, GF2Error

from conftest import (
    catalog,
    heis3_table,
    oracle_sym_betti,
    random_comm_lie_table,
    random_invertible,
    random_valid_module,
    tables_and_actions,
    traced,
)
from dense_builders import boundaries, cycles, image


class TestBetti:
    def test_abelian_zero_differential(self):
        t = BracketTable.zero(2)
        bt = betti_table(build_tower(Flavor.SYM, t, trivial_module(t), 6))
        assert bt.dims == tuple(n + 1 for n in range(6))

    def test_one_dim_nontrivial_vanishes(self):
        t = BracketTable.zero(1)
        mod = flambda_module(t, [1])
        for flavor in (Flavor.SYM, Flavor.TENSOR):
            bt = betti_table(build_tower(flavor, t, mod, 8))
            assert all(v == 0 for v in bt.dims)

    def test_nilpotent_example_frozen(self):
        # hand evaluation of the coboundary on the nilpotent example:
        # only f.f pairs hit the bracket, giving period-four pattern
        n = catalog("N")
        bt = betti_table(build_tower(Flavor.SYM, n.table, n.modules["trivial"], 10))
        assert bt.dims[:9] == (1, 1, 0, 0, 1, 1, 0, 0, 1)

    def test_solvable_example_frozen(self):
        a = catalog("a")
        bt = betti_table(build_tower(Flavor.SYM, a.table, a.modules["trivial"], 6))
        assert bt.dims[:5] == (1, 1, 2, 2, 3)

    def test_against_bitmask_oracle(self):
        rng = np.random.default_rng(20)
        for name in ("N", "a", "heis3"):
            entry = catalog(name)
            got = betti_table(build_tower(Flavor.SYM, entry.table, entry.modules["trivial"], 4))
            want = oracle_sym_betti(entry.table, entry.modules["trivial"], 4)
            assert list(got.dims) == want
        for _ in range(10):
            t = random_comm_lie_table(rng, int(rng.integers(1, 4)))
            mod = random_valid_module(rng, t)
            got = betti_table(build_tower(Flavor.SYM, t, mod, 3))
            assert list(got.dims) == oracle_sym_betti(t, mod, 3)

    def test_degree_zero_is_invariants(self):
        for name in ("N", "a", "heis3"):
            entry = catalog(name)
            for mod_name in ("trivial", "adjoint", "flambda"):
                mod = entry.modules[mod_name]
                bt = betti_table(build_tower(Flavor.SYM, entry.table, mod, 2))
                stacked = np.concatenate([m for m in mod.rho], axis=0)
                from dense_builders import kernel_basis

                inv = kernel_basis(BitMatrix.from_dense(stacked))
                assert bt[0] == inv.dim

    def test_ext_vanishes_beyond_dimension(self):
        a = catalog("a")
        bt = betti_table(build_tower(Flavor.EXT, a.table, a.modules["trivial"], 6))
        assert all(bt[n] == 0 for n in range(3, 6))

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            t = random_comm_lie_table(rng, 2)
            mod = random_valid_module(rng, t)
            p = random_invertible(rng, 2)
            bt1 = betti_table(build_tower(Flavor.SYM, t, mod, 5))
            bt2 = betti_table(
                build_tower(Flavor.SYM, change_basis(t, p), module_change_basis(mod, p), 5)
            )
            assert bt1.dims == bt2.dims

    def test_broken_tower_rejected(self):
        d0 = BitMatrix.from_dense([[1], [0]])
        d1 = BitMatrix.from_dense([[1, 0]])
        tower = ComplexTower.held((1, 2, 1), (d0, d1))
        with pytest.raises(GF2Error, match="square to zero"):
            betti_table(tower)


def _rank_table(tower) -> tuple:
    """Betti numbers from BitMatrix.rank() of each whole differential."""
    ranks = [0] + [d.rank() for d in tower.diffs]
    return tuple(tower.dims[n] - ranks[n + 1] - ranks[n] for n in range(tower.n_max))


def _flipped(m: BitMatrix, r: int, c: int) -> BitMatrix:
    words = m.words.copy()
    words[r, c // 64] ^= np.uint64(1) << np.uint64(c % 64)
    return BitMatrix(m.rows, m.cols, words)


@lru_cache(maxsize=None)
def _tower(name, mod_name, flavor):
    """The catalog tower through degree 5, or None where the flavor does not apply."""
    entry = catalog(name)
    try:
        return build_tower(flavor, entry.table, entry.modules[mod_name], 5)
    except PreconditionError:
        return None


class TestStreamedBetti:
    """betti_table generates each coboundary by weight class straight into
    its echelon; it must give the tables of the whole packed tower."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_rank_of_built_tower(self, name):
        entry = catalog(name)
        for mod_name in ("trivial", "adjoint"):
            mod = entry.modules[mod_name]
            for flavor in Flavor:
                try:
                    tower = build_tower(flavor, entry.table, mod, 6, label="x")
                except PreconditionError:
                    continue
                got = betti_table(tower)
                assert got.dims == _rank_table(tower), (mod_name, flavor)
                assert got == betti_table(ComplexTower.held(tower.dims, tower.diffs, flavor, "x"))

    @pytest.mark.parametrize("block_bytes", [1, 200, 4096])
    def test_block_size_does_not_change_tables(self, block_bytes, monkeypatch):
        cases = [("heis3", "adjoint", Flavor.TENSOR, 5), ("heis3", "trivial", Flavor.EXT, 5),
                 ("N", "adjoint", Flavor.SYM, 7), ("a", "flambda", Flavor.SYM, 6)]
        want = []
        for name, mod_name, flavor, n_max in cases:
            entry = catalog(name)
            tower = build_tower(flavor, entry.table, entry.modules[mod_name], n_max)
            want.append((_rank_table(tower), tower.diffs))
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
        for (name, mod_name, flavor, n_max), (dims, diffs) in zip(cases, want):
            entry = catalog(name)
            mod = entry.modules[mod_name]
            tower = build_tower(flavor, entry.table, mod, n_max)
            assert betti_table(tower).dims == dims
            assert tower.diffs == diffs
            assert betti_table(ComplexTower.held(tower.dims, diffs)).dims == dims

    def test_failed_square_names_its_degree_on_both_routes(self, monkeypatch):
        entry = catalog("heis3")
        mod = entry.modules["trivial"]
        tower = build_tower(Flavor.TENSOR, entry.table, mod, 5)
        # one extra one in d^3 at a column c where row c of d^2 is nonzero,
        # so d^3 d^2 != 0 while d^1 d^0 and d^2 d^1 still vanish; a row of
        # c's weight class keeps d^3 block-diagonal, any other row crosses
        w3, w4 = (_weights(Flavor.TENSOR, entry.table, mod, n) for n in (3, 4))
        hit = tower.diffs[2].words.any(axis=1)
        c = next(c for c in np.flatnonzero(hit) if (w4 == w3[c]).all(axis=1).any())
        same = (w4 == w3[c]).all(axis=1)
        cases = [
            (int(np.flatnonzero(same)[0]), "do not square to zero at degree 2$"),
            (int(np.flatnonzero(~same)[0]), "coboundary of degree 3 crosses weight classes$"),
        ]
        # with 8-byte blocks the kept rows of d^2 are checked one at a time
        blocks = (8, gf2.RANK_BLOCK_BYTES)
        for (r, graded_error), block_bytes in product(cases, blocks):
            monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            diffs = list(tower.diffs)
            diffs[3] = _flipped(diffs[3], r, c)
            assert not (diffs[3] @ diffs[2]).is_zero()
            plain = ComplexTower.held(tower.dims, diffs, Flavor.TENSOR)
            with pytest.raises(GF2Error, match="do not square to zero at degree 2$"):
                betti_table(plain)
            with pytest.raises(GF2Error, match="do not square to zero at degree 2$"):
                betti_oracle.betti_table(plain)
            with pytest.raises(GF2Error, match="do not square to zero at degree 2$"):
                plain.check_composition()
            with pytest.raises(GF2Error, match=graded_error):
                betti_table(_forged(tower, diffs))

    def test_lowest_failed_square_is_named_after_the_sweep(self, monkeypatch):
        # two ones forged inside their column's weight class: one breaks
        # d^4 d^3 in a class swept first, the other d^3 d^2 in a later one.
        # Each part stops at its own failure, and the table names degree 2
        entry = catalog("heis3")
        mod = entry.modules["trivial"]
        tower = build_tower(Flavor.TENSOR, entry.table, mod, 5)
        w = [tuple(map(tuple, _weights(Flavor.TENSOR, entry.table, mod, n).tolist())) for n in range(6)]

        def flips(k):
            """(weight, row, column) of each one of d^{k+1} in its column's class that breaks d^{k+1} d^k."""
            hit = np.flatnonzero(tower.diffs[k].words.any(axis=1))
            return [(w[k + 1][c], w[k + 2].index(w[k + 1][c]), int(c)) for c in hit if w[k + 1][c] in w[k + 2]]

        first, later = min(flips(3)), max(flips(2))
        assert first[0] < later[0]  # classes are swept in the order of their weights
        diffs = list(tower.diffs)
        for k, (_, r, c) in ((3, first), (2, later)):
            diffs[k + 1] = _flipped(diffs[k + 1], r, c)
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", 1)  # every class its own part
        failed, part_ranks = [], cohomology._part_ranks

        def spy(*args):
            ranks, bad = part_ranks(*args)
            failed.extend([] if bad is None else [bad])
            return ranks, bad

        monkeypatch.setattr(cohomology, "_part_ranks", spy)
        with pytest.raises(GF2Error, match="do not square to zero at degree 2$"):
            betti_table(_forged(tower, diffs))
        assert failed == [3, 2]
        with pytest.raises(GF2Error, match="do not square to zero at degree 2$"):
            betti_oracle.betti_table(ComplexTower.held(tower.dims, diffs))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_bit_forgeries_raise_exactly_when_square_is_nonzero(self, data):
        name = data.draw(st.sampled_from(catalog_names()))
        mod_name = data.draw(st.sampled_from(["trivial", "adjoint", "coadjoint", "flambda"]))
        flavor = data.draw(st.sampled_from(list(Flavor)))
        tower = _tower(name, mod_name, flavor)
        assume(tower is not None)
        k = data.draw(st.integers(0, len(tower.diffs) - 1))
        assume(tower.diffs[k].rows and tower.diffs[k].cols)
        entry = catalog(name)
        mod = entry.modules[mod_name]
        lo, hi = _weights(flavor, entry.table, mod, k), _weights(flavor, entry.table, mod, k + 1)
        c = data.draw(st.integers(0, tower.diffs[k].cols - 1))
        # half the flips stay inside c's weight class, where they can break d d
        same = np.flatnonzero((hi == lo[c]).all(axis=1))
        if same.size and data.draw(st.booleans()):
            r = int(same[data.draw(st.integers(0, same.size - 1))])
        else:
            r = data.draw(st.integers(0, tower.diffs[k].rows - 1))
        diffs = list(tower.diffs)
        diffs[k] = _flipped(diffs[k], r, c)
        plain = ComplexTower.held(tower.dims, diffs, flavor)
        graded = _forged(tower, diffs)
        # the first degree n whose square d^{n+1} d^n is nonzero, by dense products
        dense = [d.to_dense().astype(np.int64) for d in diffs]
        bad = [n for n in range(len(dense) - 1) if (dense[n + 1] @ dense[n] % 2).any()]
        square_error = f"do not square to zero at degree {bad[0]}$" if bad else None
        crosses = not np.array_equal(hi[r], lo[c])
        graded_error = f"coboundary of degree {k} crosses weight classes$" if crosses else square_error
        block_bytes = data.draw(st.sampled_from([8, 64, gf2.RANK_BLOCK_BYTES]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            routes = [
                (lambda: betti_oracle.betti_table(plain), square_error),
                (lambda: betti_table(plain), square_error),
                (lambda: betti_table(graded), graded_error),
            ]
            for route, error in routes:
                if error:
                    with pytest.raises(GF2Error, match=error):
                        route()
                else:
                    assert route().dims == _rank_table(plain)
            mp.setattr(gf2, "RANK_BLOCK_BYTES", 8)  # every row of d^{n+1} is its own block
            if square_error:
                with pytest.raises(GF2Error, match=square_error):
                    plain.check_composition()
            else:
                assert plain.check_composition() is True

    def test_holds_no_packed_tower(self):
        # heis3 adjoint tensor through degree 7: the top coboundary is
        # 19683 x 6561, 15.5 MiB packed; building the tower peaked at 28.7 MiB,
        # the row-oriented route at 5.8 MiB (bottom-up in 512 KiB blocks),
        # the transposed weight blocks with clearing at 2.29 MiB, and
        # converting rows in 64 KiB pieces, with one echelon held across a
        # degree, at 1.57 MiB
        entry = catalog("heis3")
        mod = entry.modules["adjoint"]
        bt, _, peak = traced(lambda: betti_table(build_tower(Flavor.TENSOR, entry.table, mod, 8)))
        assert bt.dims == (1, 4, 9, 22, 53, 128, 309, 746)
        assert peak < 2 * 2**20

    def test_holds_one_class_group_at_a_time(self):
        # the benchmark's coarser basis (seed 1: [x, y] = [x, z] = [y, x] =
        # [z, x] = y + z), adjoint tensor through degree 8: the class blocks of
        # the top coboundary hold 2.96 MiB together and 1.07 MiB at most.
        # Building them all before ranking any peaked at 6.46 MiB; generating,
        # ranking and dropping one group at a time at 3.03 MiB, and with rows
        # converted in 64 KiB pieces, one echelon held at a time, 2.23 MiB
        table = heis3_table(2)
        mod = make_module(table, "adjoint")
        bt, _, peak = traced(lambda: betti_table(build_tower(Flavor.TENSOR, table, mod, 8)))
        assert bt.dims == (1, 4, 9, 22, 53, 128, 309, 746)
        assert peak < 2.5 * 2**20

    def test_holds_one_part_echelon_between_degrees(self):
        # heis3 trivial tensor through degree 10: holding the kept rows of
        # every class of T_{n-1} through degree n peaked at 6.01 MiB; sweeping
        # the degrees one part at a time, holding one part's echelon, 4.70 MiB
        entry = catalog("heis3")
        tower = build_tower(Flavor.TENSOR, entry.table, entry.modules["trivial"], 10)
        bt, _, peak = traced(lambda: betti_table(tower))
        assert bt.dims == (1, 2, 5, 12, 29, 70, 169, 408, 985, 2378)
        assert peak < 5.5 * 2**20


def _classes_by_column(weights: np.ndarray):
    """The class of each row, refined one weight column at a time, as the classes were first built."""
    label = np.zeros(weights.shape[0], dtype=np.int64)
    for w in weights.T:
        w = w - w.min(initial=0)
        _, label = np.unique(label * (int(w.max(initial=0)) + 1) + w, return_inverse=True)
    return label


class TestClasses:
    """The weight classes of a cochain space from one np.unique over a mixed-radix key."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 6), st.sampled_from([1, 3, 1000, 2**40]),
           st.integers(0, 2**32 - 1))
    def test_match_column_by_column_refinement(self, rows, cols, spread, seed):
        # a spread of 2**40 over six columns overflows any one int64 key
        rng = np.random.default_rng(seed)
        weights = rng.integers(-spread, spread + 1, size=(rows, cols))
        if rows:
            weights[rng.integers(rows, size=rows)] = weights[rng.integers(rows, size=rows)]
        keys, label = cohomology._classes(weights)
        assert label.dtype == np.int32
        assert np.array_equal(label, _classes_by_column(weights))
        assert keys == sorted(set(map(tuple, weights.tolist())))
        assert all(keys[label[c]] == tuple(weights[c]) for c in range(rows))


def _weights(flavor, table, mod, n) -> np.ndarray:
    """Weight of each degree-n cochain coordinate under the finest grading."""
    return _coordinate_weights(flavor, *weight_grading(table, mod), n)


@dataclass(frozen=True)
class _Forged(ComplexTower):
    """A generated tower whose ones are read off forged differentials, in three chunks;
    its weights stay the flavor's."""

    forged: tuple = ()

    def ones(self, n, cols):
        t = self.forged[n].transpose()
        i, r = BitMatrix(len(cols), t.cols, t.words[cols]).coords()
        return zip(np.array_split(i, 3), np.array_split(r, 3))


def _forged(tower, diffs) -> ComplexTower:
    return _Forged(tower.dims, tower.flavor, "", tower.table, tower.coeffs, forged=tuple(diffs))


def _same_outcome(route, oracle):
    """route() and oracle() give the same table or raise the same GF2Error message."""
    try:
        want = oracle()
    except GF2Error as exc:
        with pytest.raises(GF2Error, match=f"^{exc}$"):
            route()
        return
    assert route() == want


class TestRowOracle:
    """The transposed class blocks against the row-oriented route they replaced."""

    @pytest.mark.parametrize("block_bytes", [1, 200, 4096, None])
    def test_catalog_matches_row_oracle(self, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
        for name in catalog_names():
            entry = catalog(name)
            for mod_name in ("trivial", "adjoint", "coadjoint", "flambda"):
                mod = entry.modules[mod_name]
                for flavor in Flavor:
                    try:
                        tower = build_tower(flavor, entry.table, mod, 5, label="x")
                    except PreconditionError:
                        with pytest.raises(PreconditionError):
                            betti_oracle.flavor_table(flavor, entry.table, mod, 5)
                        continue
                    want = betti_oracle.betti_table(tower)
                    assert betti_table(tower) == want, (name, mod_name, flavor)
                    assert betti_oracle.flavor_table(flavor, entry.table, mod, 5, "x") == want

    @settings(max_examples=80, deadline=None)
    @given(tables_and_actions(), st.sampled_from(list(Flavor)), st.integers(0, 4),
           st.sampled_from([1, 200, 4096, None]))
    def test_drawn_tables_match_row_oracle(self, inputs, flavor, n_max, block_bytes):
        # no axioms: where d d != 0 both routes must name the same first degree
        table, coeffs = inputs
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            mp.setattr(betti_oracle, "_require_flavor", lambda *args: None)
            _same_outcome(
                lambda: betti_table(betti_oracle.unchecked_tower(flavor, table, coeffs, n_max)),
                lambda: betti_oracle.flavor_table(flavor, table, coeffs, n_max),
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from(list(Flavor)))
    def test_valid_tables_match_row_oracle(self, d, seed, flavor):
        rng = np.random.default_rng(seed)
        table = random_comm_lie_table(rng, d)
        mod = random_valid_module(rng, table)
        try:
            tower = build_tower(flavor, table, mod, 4)
        except PreconditionError:
            return
        assert betti_table(tower) == betti_oracle.betti_table(tower)

    @pytest.mark.parametrize("z_terms", [1, 2, 3])
    def test_benchmark_heis3_bases_match_row_oracle(self, z_terms):
        # grading rank 2, 1 and 0: the last is one class
        table = heis3_table(z_terms)
        mod = make_module(table, "adjoint")
        for flavor in (Flavor.EXT, Flavor.TENSOR):
            want = betti_oracle.flavor_table(flavor, table, mod, 6)
            assert betti_table(build_tower(flavor, table, mod, 6)) == want


class TestDegreeRange:
    @pytest.mark.parametrize("held", [False, True])
    def test_degrees_outside_the_tower_raise_naming_them(self, held):
        # diffs[-2] once gave boundaries(tower, -1) the image of d^{n_max - 2},
        # and boundaries(tower, n_max + 1) raised IndexError
        entry = catalog("N")
        tower = build_tower(Flavor.SYM, entry.table, entry.modules["adjoint"], 3)
        if held:
            tower = ComplexTower.held(tower.dims, tower.diffs)
        for n in (-2, -1, 3, 4):
            with pytest.raises(GF2Error, match=rf"^no differential d\^{n} in a tower through degree 3$"):
                tower.differential(n)
        for n in (-2, -1, 4):
            with pytest.raises(GF2Error, match=f"^no boundaries at degree {n} in a tower through degree 3$"):
                boundaries(tower, n)
        for n in (-1, 3):
            with pytest.raises(GF2Error, match=rf"^no differential d\^{n} in a tower through degree 3$"):
                cycles(tower, n)
        assert boundaries(tower, 0).dim == 0
        for n in (1, 2, 3):
            assert boundaries(tower, n) == image(tower.differential(n - 1))


class TestRepresentatives:
    def test_degree_zero_trivial_module(self):
        t = BracketTable.zero(2)
        tower = build_tower(Flavor.SYM, t, trivial_module(t, 2), 3)
        reps = cocycle_representatives(tower, 0)
        assert reps == BitMatrix.identity(2)

    def test_nilpotent_degree_one(self):
        n = catalog("N")
        tower = build_tower(Flavor.SYM, n.table, n.modules["trivial"], 4)
        reps = cocycle_representatives(tower, 1)
        assert reps.to_dense().tolist() == [[0, 1]]  # the functional dual to f

    def test_empty_when_no_cohomology(self):
        n = catalog("N")
        tower = build_tower(Flavor.SYM, n.table, n.modules["trivial"], 4)
        assert cocycle_representatives(tower, 2).rows == 0

    def test_out_of_range(self):
        n = catalog("N")
        tower = build_tower(Flavor.SYM, n.table, n.modules["trivial"], 4)
        with pytest.raises(GF2Error):
            cocycle_representatives(tower, 4)

    def test_failed_square_names_its_degree(self):
        # d^1 d^0 = 1: both routes name the degree, in betti_table's words
        tower = ComplexTower.held((1, 1, 1), [BitMatrix.identity(1)] * 2)
        want = "differentials do not square to zero at degree 0"
        with pytest.raises(GF2Error, match=f"^{want}$"):
            betti_table(tower)
        with pytest.raises(GF2Error, match=f"^{want}$"):
            cocycle_representatives(tower, 1)
        with pytest.raises(GF2Error, match=rf"^operator does not act on H\^1: {want}$"):
            induced_map_on_cohomology(tower, 1, [BitMatrix.identity(1)])


class TestInducedMaps:
    def test_inner_element_acts_trivially(self):
        # the Cartan relation makes every algebra element act as zero
        for name in ("N", "a"):
            entry = catalog(name)
            mod = entry.modules["trivial"]
            tower = build_tower(Flavor.SYM, entry.table, mod, 5)
            for n in range(4):
                ops = [
                    lie_derivative_matrix(Flavor.SYM, entry.table, mod, x, n)
                    for x in np.eye(2, dtype=np.uint8)
                ]
                acts = induced_map_on_cohomology(tower, n, ops)
                assert len(acts) == 2 and all(act.is_zero() for act in acts)

    def test_non_preserving_operator_rejected(self):
        n = catalog("N")
        tower = build_tower(Flavor.SYM, n.table, n.modules["trivial"], 4)
        # an arbitrary permutation-like map does not preserve cocycles
        bad = BitMatrix.from_dense([[0, 1], [1, 0]])
        with pytest.raises(GF2Error, match=r"operator does not act on H\^1"):
            induced_map_on_cohomology(tower, 1, [BitMatrix.identity(2), bad])
