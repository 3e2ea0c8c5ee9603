"""Tests for Betti tables, representatives, and induced maps on cohomology."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from commcoh import cohomology, gf2
from commcoh.algebra import BracketTable, change_basis, flambda_module, module_change_basis, trivial_module
from commcoh.catalog import catalog_names
from commcoh.cochain import (
    ComplexTower,
    Flavor,
    PreconditionError,
    build_tower,
    lie_derivative_matrix,
)
from commcoh.cohomology import (
    betti_table,
    cochain_betti_table,
    cocycle_representatives,
    induced_map_on_cohomology,
)
from commcoh.gf2 import BitMatrix, GF2Error

from conftest import catalog, oracle_sym_betti, random_comm_lie_table, random_invertible, random_valid_module


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
                from commcoh.gf2 import kernel_basis

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
        tower = ComplexTower((1, 2, 1), (d0, d1), None)
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
    """cochain_betti_table builds each coboundary in row blocks straight
    into its echelon; it must give the tables of the whole tower."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_rank_of_built_tower(self, name):
        entry = catalog(name)
        for mod_name in ("trivial", "adjoint"):
            mod = entry.modules[mod_name]
            for flavor in Flavor:
                try:
                    tower = build_tower(flavor, entry.table, mod, 6, label="x")
                except PreconditionError:
                    with pytest.raises(PreconditionError):
                        cochain_betti_table(flavor, entry.table, mod, 6)
                    continue
                got = cochain_betti_table(flavor, entry.table, mod, 6, label="x")
                assert got.dims == _rank_table(tower), (mod_name, flavor)
                assert got == betti_table(tower)

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
            assert cochain_betti_table(flavor, entry.table, mod, n_max).dims == dims
            tower = build_tower(flavor, entry.table, mod, n_max)
            assert tower.diffs == diffs
            assert betti_table(tower).dims == dims

    def test_failed_square_names_its_degree_on_both_routes(self, monkeypatch):
        entry = catalog("heis3")
        mod = entry.modules["trivial"]
        tower = build_tower(Flavor.TENSOR, entry.table, mod, 5)
        # one extra one in d^3 at a column c where row c of d^2 is nonzero,
        # so d^3 d^2 != 0 while d^1 d^0 and d^2 d^1 still vanish
        c = int(np.flatnonzero(tower.diffs[2].words.any(axis=1))[0])
        diffs = list(tower.diffs)
        diffs[3] = _flipped(diffs[3], 5, c)
        forged = ComplexTower(tower.dims, tuple(diffs), Flavor.TENSOR)
        assert not (forged.diffs[3] @ forged.diffs[2]).is_zero()
        with pytest.raises(GF2Error, match="do not square to zero at degree 2$"):
            betti_table(forged)
        monkeypatch.setattr(cohomology, "_differential", lambda f, t, m, n: forged.diffs[n])
        monkeypatch.setattr(
            cohomology, "_differential_blocks", lambda f, t, m, n: forged.diffs[n].row_blocks()
        )
        with pytest.raises(GF2Error, match="do not square to zero at degree 2$"):
            cochain_betti_table(Flavor.TENSOR, entry.table, mod, 5)

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
        r = data.draw(st.integers(0, tower.diffs[k].rows - 1))
        c = data.draw(st.integers(0, tower.diffs[k].cols - 1))
        diffs = list(tower.diffs)
        diffs[k] = _flipped(diffs[k], r, c)
        forged = ComplexTower(tower.dims, tuple(diffs), flavor)
        # the first degree n whose square d^{n+1} d^n is nonzero, by dense products
        dense = [d.to_dense().astype(np.int64) for d in diffs]
        bad = [n for n in range(len(dense) - 1) if (dense[n + 1] @ dense[n] % 2).any()]
        entry = catalog(name)
        block_bytes = data.draw(st.sampled_from([64, gf2.RANK_BLOCK_BYTES]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            mp.setattr(cohomology, "_differential", lambda f, t, m, n: forged.diffs[n])
            mp.setattr(
                cohomology, "_differential_blocks", lambda f, t, m, n: forged.diffs[n].row_blocks()
            )
            routes = [
                lambda: betti_table(forged),
                lambda: cochain_betti_table(flavor, entry.table, entry.modules[mod_name], 5),
            ]
            for route in routes:
                if bad:
                    with pytest.raises(GF2Error, match=f"do not square to zero at degree {bad[0]}$"):
                        route()
                else:
                    assert route().dims == _rank_table(forged)

    def test_holds_no_packed_tower(self):
        # heis3 adjoint tensor through degree 7: the top coboundary is
        # 19683 x 6561, 15.5 MiB packed; building the tower peaked at 28.7 MiB,
        # the streamed route at 7.8 MiB with the rows fed top-down in 1 MiB
        # blocks and at 5.8 MiB fed bottom-up in 512 KiB blocks
        entry = catalog("heis3")
        mod = entry.modules["adjoint"]
        tracemalloc.start()
        try:
            bt = cochain_betti_table(Flavor.TENSOR, entry.table, mod, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bt.dims == (1, 4, 9, 22, 53, 128, 309, 746)
        assert peak < 7 * 2**20


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


class TestInducedMaps:
    def test_inner_element_acts_trivially(self):
        # the Cartan relation makes every algebra element act as zero
        for name in ("N", "a"):
            entry = catalog(name)
            mod = entry.modules["trivial"]
            tower = build_tower(Flavor.SYM, entry.table, mod, 5)
            for xi in range(2):
                x = np.eye(2, dtype=np.uint8)[xi]
                for n in range(4):
                    op = lie_derivative_matrix(Flavor.SYM, entry.table, mod, x, n)
                    assert induced_map_on_cohomology(tower, n, op).is_zero()

    def test_non_preserving_operator_rejected(self):
        n = catalog("N")
        tower = build_tower(Flavor.SYM, n.table, n.modules["trivial"], 4)
        # an arbitrary permutation-like map does not preserve cocycles
        bad = BitMatrix.from_dense([[0, 1], [1, 0]])
        with pytest.raises(GF2Error):
            induced_map_on_cohomology(tower, 1, bad)
