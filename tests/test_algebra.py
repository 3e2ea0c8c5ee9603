"""Tests for bracket tables, classification, modules, and quotients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from commcoh import algebra
from commcoh.algebra import (
    AlgebraClass,
    BracketTable,
    IdealVerdict,
    ModuleAxiomError,
    ModuleSpec,
    change_basis,
    check_module_axioms,
    classify_algebra,
    coadjoint_module,
    flambda_module,
    is_ideal,
    leibniz_kernel,
    make_module,
    module_change_basis,
    quotient_algebra,
    trivial_module,
)
from commcoh.catalog import catalog_names
from commcoh.cochain import Flavor, InclusionPair, build_tower
from commcoh.cohomology import betti_table
from commcoh.comparison import build_cr_complex
from commcoh.gf2 import BitMatrix, GF2Error, Subspace

from conftest import (
    all_spans,
    bimodule_axioms_oracle,
    catalog,
    random_comm_lie_table,
    random_invertible,
    random_valid_module,
    survey,
    tables_and_actions,
)


def classify_loop(t: BracketTable) -> AlgebraClass:
    """The four flags by one loop over the basis triples, one bracket at a time."""
    c = t.c.astype(np.int64)
    d = t.dim
    commutative = np.array_equal(t.c, t.c.transpose(1, 0, 2))
    alternating = commutative and not any(t.c[i, i].any() for i in range(d))
    jacobi = True
    left_leibniz = True
    for i in range(d):
        for j in range(d):
            for k in range(d):
                # [b_i, v] = v @ c[i]  (row u of c[i] is [b_i, b_u])
                t1 = c[j, k] @ c[i]  # [b_i, [b_j, b_k]]
                t2 = c[k, i] @ c[j]  # [b_j, [b_k, b_i]]
                t3 = c[i, j] @ c[k]  # [b_k, [b_i, b_j]]
                if ((t1 + t2 + t3) % 2).any():
                    jacobi = False
                # [[b_i, b_j], b_k] = sum_u c[i,j,u] c[u,k]
                lhs = t1 % 2
                rhs = (np.einsum("u,uk->k", c[i, j], c[:, k, :]) + c[i, k] @ c[j]) % 2
                if not np.array_equal(lhs, rhs):
                    left_leibniz = False
    return AlgebraClass(bool(commutative), bool(alternating), jacobi, left_leibniz)


@st.composite
def bit_tables(draw):
    """Arbitrary bracket tables of dimension 1 to 4, half of them commutative."""
    d = draw(st.integers(1, 4))
    c = draw(arrays(np.uint8, (d, d, d), elements=st.integers(0, 1)))
    if draw(st.booleans()):
        c = np.triu(c.transpose(2, 0, 1)).transpose(1, 2, 0)  # keep [b_j, b_k] for j <= k
        c = c | c.transpose(1, 0, 2)
    return BracketTable(c)


class TestClassify:
    def test_matches_the_triple_loop_on_survey_tables(self):
        tables = [t for d in (1, 2, 3) for t in survey(d).rep_tables()]
        assert sum(classify_algebra(t).is_lie for t in tables) == 125
        for t in tables:
            assert algebra._classify(t) == classify_loop(t)

    @settings(max_examples=300, deadline=None)
    @given(bit_tables())
    def test_matches_the_triple_loop_on_drawn_tables(self, t):
        assert algebra._classify(t) == classify_loop(t)

    def test_nilpotent_example(self):
        cls = classify_algebra(catalog("N").table)
        assert cls.commutative and not cls.alternating and cls.jacobi
        assert cls.left_leibniz

    def test_solvable_example(self):
        cls = classify_algebra(catalog("a").table)
        assert cls.commutative and cls.alternating and cls.jacobi

    def test_abelian_all_flags(self):
        cls = classify_algebra(BracketTable.zero(3))
        assert cls.commutative and cls.alternating and cls.jacobi and cls.left_leibniz

    def test_alternating_implies_commutative(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            for _ in range(10):
                cls = classify_algebra(random_comm_lie_table(rng, d))
                if cls.alternating:
                    assert cls.commutative
                if cls.commutative and cls.jacobi:
                    assert cls.left_leibniz

    def test_square_bracket_in_dim_one_breaks_jacobi(self):
        # [e,e] = e: the cyclic sum on (e,e,e) is [e,[e,e]] = e, nonzero
        t = BracketTable.from_entries(1, {(0, 0): [1]})
        cls = classify_algebra(t)
        assert cls.commutative and not cls.jacobi

    def test_class_is_computed_once_per_table(self, monkeypatch):
        t = BracketTable(catalog("heis3").table.c)
        calls = []
        fresh = algebra._classify
        monkeypatch.setattr(algebra, "_classify", lambda t: calls.append(t) or fresh(t))
        cls = classify_algebra(t)
        assert classify_algebra(t) is cls and cls == fresh(t)
        # the builders' precondition checks read the cached class
        build_cr_complex(InclusionPair.EXT_IN_SYM, t, 3)
        betti_table(build_tower(Flavor.EXT, t, coadjoint_module(t), 3))
        assert calls == [t]

    def test_flags_are_basis_invariant(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            for _ in range(8):
                t = random_comm_lie_table(rng, d)
                p = random_invertible(rng, d)
                assert classify_algebra(change_basis(t, p)) == classify_algebra(t)


class TestModules:
    def test_trivial_passes(self):
        t = catalog("N").table
        assert check_module_axioms(t, trivial_module(t, 3)).ok

    def test_flambda_on_one_dim_abelian(self):
        t = BracketTable.zero(1)
        mod = flambda_module(t, [1])
        assert mod.rho.tolist() == [[[1]]]

    def test_flambda_inconsistent_with_brackets(self):
        # e acts by 1 on the nilpotent example: [f,f].v = v but 2 f(fv) = 0
        t = catalog("N").table
        with pytest.raises(ModuleAxiomError) as exc:
            flambda_module(t, [1, 0])
        assert exc.value.pair is not None

    def test_reported_violation_pair(self):
        t = catalog("N").table
        rho = np.zeros((2, 1, 1), dtype=np.uint8)
        rho[0, 0, 0] = 1  # e acts by 1, f by 0
        res = check_module_axioms(t, ModuleSpec(1, rho))
        assert not res.ok and res.axiom == "left-module" and res.pair == (1, 1)

    def test_dimension_mismatch(self):
        t = catalog("N").table
        with pytest.raises(GF2Error):
            check_module_axioms(t, ModuleSpec(1, np.zeros((3, 1, 1), dtype=np.uint8)))

    def test_equal_specs_compare_and_hash(self):
        t = catalog("heis3").table
        a, b = make_module(t, "adjoint"), make_module(t, "adjoint")
        assert a.rho is not b.rho
        assert a == b and hash(a) == hash(b)
        assert a != make_module(t, "coadjoint") and a != trivial_module(t, 3)
        assert len({a, b, trivial_module(t), trivial_module(t)}) == 2
        # a tower compares and hashes through its coefficients
        towers = [build_tower(Flavor.TENSOR, t, m, 3) for m in (a, b)]
        assert towers[0] == towers[1] and hash(towers[0]) == hash(towers[1])
        assert towers[0] != build_tower(Flavor.TENSOR, t, make_module(t, "coadjoint"), 3)

    def test_make_module_dispatch(self):
        t = catalog("a").table
        assert make_module(t, "trivial").dim == 1
        assert make_module(t, "trivial:2").dim == 2
        assert make_module(t, "flambda:10").rho[0, 0, 0] == 1
        assert make_module(t, "adjoint").dim == 2
        with pytest.raises(GF2Error):
            make_module(t, "flambda:1")
        with pytest.raises(GF2Error):
            make_module(t, "nonsense")

    def test_symmetrize_passes_bimodule_axioms(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 3):
            for _ in range(10):
                t = random_comm_lie_table(rng, d)
                bim = random_valid_module(rng, t)
                assert check_module_axioms(t, bim).ok

    @settings(max_examples=200, deadline=None)
    @given(tables_and_actions())
    def test_verdict_matches_symmetric_bimodule_oracle(self, inputs):
        # right = left: the two bimodule axioms reduce to the module axiom
        t, mod = inputs
        res = check_module_axioms(t, mod)
        assert (res.ok, res.axiom, res.pair) == bimodule_axioms_oracle(t, mod.rho, mod.rho)

    def test_coadjoint_needs_jacobi(self):
        t = BracketTable.from_entries(1, {(0, 0): [1]})
        with pytest.raises(GF2Error):
            coadjoint_module(t)


class TestLeibnizKernel:
    def test_lie_algebra_zero(self):
        assert leibniz_kernel(catalog("a").table).dim == 0
        assert leibniz_kernel(catalog("heis3").table).dim == 0

    def test_nilpotent_example(self):
        leib = leibniz_kernel(catalog("N").table)
        assert leib.dim == 1
        assert leib.contains_vector(np.array([1, 0]))

    def test_quotient_by_kernel_is_lie(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for _ in range(10):
                t = random_comm_lie_table(rng, d)
                leib = leibniz_kernel(t)
                if leib.dim == t.dim:
                    continue
                split = quotient_algebra(t, leib, require_ideal=True)
                cls = classify_algebra(split.q_table)
                assert cls.alternating and cls.jacobi


class TestIdeals:
    def test_catalog_ideals(self):
        n = catalog("N")
        assert is_ideal(n.table, n.subspaces["e"]) is IdealVerdict.IDEAL
        a = catalog("a")
        assert is_ideal(a.table, a.subspaces["e"]) is IdealVerdict.IDEAL

    def test_subalgebra_not_ideal(self):
        a = catalog("a")
        assert is_ideal(a.table, a.subspaces["h"]) is IdealVerdict.SUBALGEBRA

    def test_not_subalgebra(self):
        heis = catalog("heis3")
        span = Subspace.from_rows(3, np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8))
        # x, y span is not closed: [x,y] = z
        assert is_ideal(heis.table, span) is IdealVerdict.NOT_SUBALGEBRA

    def test_dimension_mismatch(self):
        with pytest.raises(GF2Error):
            is_ideal(catalog("N").table, Subspace.full(3))


class TestQuotientAlgebra:
    def test_nilpotent_quotient(self):
        n = catalog("N")
        split = quotient_algebra(n.table, n.subspaces["e"])
        assert split.q_table.dim == 1 and not split.q_table.c.any()
        assert (split.proj @ split.section) == __import__(
            "commcoh.gf2", fromlist=["BitMatrix"]
        ).BitMatrix.identity(1)

    def test_solvable_quotient(self):
        a = catalog("a")
        split = quotient_algebra(a.table, a.subspaces["e"])
        assert split.q_table.dim == 1 and not split.q_table.c.any()

    def test_abelian_plane_quotient(self):
        t = BracketTable.zero(3)
        h = Subspace.from_rows(3, np.eye(3, dtype=np.uint8)[:2])
        split = quotient_algebra(t, h)
        assert split.q_table.dim == 1

    def test_requires_ideal(self):
        a = catalog("a")
        with pytest.raises(GF2Error, match="not an ideal"):
            quotient_algebra(a.table, a.subspaces["h"])
        split = quotient_algebra(a.table, a.subspaces["h"], require_ideal=False)
        assert split.q_table is None

    def test_adapted_basis_invertible(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = random_comm_lie_table(rng, 3)
            leib = leibniz_kernel(t)
            if not 0 < leib.dim < 3:
                continue
            split = quotient_algebra(t, leib)
            assert split.adapted.rref()[1] == 3

    def test_quotient_preserves_class(self):
        rng = np.random.default_rng(5)
        count = 0
        for _ in range(30):
            t = random_comm_lie_table(rng, 3)
            leib = leibniz_kernel(t)
            if not 0 < leib.dim < 3:
                continue
            split = quotient_algebra(t, leib)
            cls = classify_algebra(split.q_table)
            assert cls.commutative and cls.jacobi
            count += 1
        assert count > 0


def split_blocks_hold(t: BracketTable, h: Subspace) -> IdealVerdict:
    """Assert the split's blocks satisfy their defining identities in the
    original basis, by the brackets of basis vectors; returns the verdict."""
    verdict = is_ideal(t, h)
    if verdict is IdealVerdict.NOT_SUBALGEBRA:
        return verdict
    split = quotient_algebra(t, h, require_ideal=False)
    assert split.adapted_table == change_basis(t, split.adapted)
    d, k, q = t.dim, split.h_dim, split.q_dim
    hb, s = h.basis.to_dense(), split.section.transpose().to_dense()
    combine = lambda table, basis: np.einsum("abc,cj->abj", table.c.astype(np.int64), basis) & 1
    # [h_a, h_b] = sum_c h_table[a, b, c] h_c
    assert np.array_equal(t.brackets(hb, hb).to_dense().reshape(k, k, d), combine(split.h_table, hb))
    if verdict is IdealVerdict.IDEAL:
        # [s_a, s_b] = sum_c q_table[a, b, c] s_c modulo h
        diff = t.brackets(s, s).to_dense().reshape(q, q, d) ^ combine(split.q_table, s)
        assert h.reduce_rows(BitMatrix.from_dense(diff.reshape(q * q, d))).is_zero()
    else:
        assert split.q_table is None
    return verdict


class TestSplitBlocks:
    def test_catalog_spans(self):
        verdicts = [split_blocks_hold(catalog(n).table, h) for n in catalog_names() for h in catalog(n).subspaces.values()]
        assert IdealVerdict.IDEAL in verdicts and IdealVerdict.SUBALGEBRA in verdicts

    def test_every_span_of_the_dim_three_orbits(self):
        spans = all_spans(3)
        assert len(spans) == 16
        verdicts = [split_blocks_hold(t, h) for t in survey(3, True).rep_tables() for h in spans]
        assert len(verdicts) == 16 * 11 and len(set(verdicts)) == 3


class TestChangeBasis:
    def test_module_transport_keeps_axioms(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            t = random_comm_lie_table(rng, 2)
            mod = random_valid_module(rng, t)
            p = random_invertible(rng, 2)
            t2 = change_basis(t, p)
            m2 = module_change_basis(mod, p)
            assert check_module_axioms(t2, m2).ok

    def test_double_change_roundtrip(self):
        from commcoh.gf2 import inverse

        rng = np.random.default_rng(7)
        t = random_comm_lie_table(rng, 3)
        p = random_invertible(rng, 3)
        # change to basis p then express that basis back in the original
        back = inverse(p.transpose()).transpose()
        assert change_basis(change_basis(t, p), back) == t
