"""Tests for relative complexes, long exact sequences, comparison
filtrations, cokernel complexes, and product-shape checks."""

import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest

import dense_builders as dense
from commcoh import comparison
from commcoh.algebra import (
    BracketTable,
    classify_algebra,
    coadjoint_module,
    trivial_module,
)
from commcoh.catalog import catalog_names
from commcoh.cochain import Flavor, InclusionPair, build_tower
from commcoh.cohomology import betti_table
from commcoh.comparison import (
    build_cr_complex,
    build_relative_complex,
    comparison_filtration,
    full_vanishing_check,
    long_exact_sequence_check,
    repeat_span_rows,
    span_matrix,
    swap_span_rows,
    vanishing_propagation_report,
    vanishing_window,
    verify_e2_product,
)
from commcoh.gf2 import BitMatrix, GF2Error, Subspace, kernel_basis
from commcoh.spectral import convergence_check

from conftest import catalog, survey
from dense_builders import assert_same_matrix


class TestSpans:
    def test_repeat_span_dims(self):
        # complement of the strictly-increasing words
        for d in (1, 2, 3):
            for n in range(6):
                rows = repeat_span_rows(d, n)
                assert len(rows) == d**n - comb(d, n)
                s = Subspace.from_rows(d**n, span_matrix(rows, n, d, n).to_dense())
                assert s.dim == len(rows)

    def test_swap_span_dims(self):
        # complement of the sorted words
        for d in (1, 2, 3):
            for n in range(6):
                rows = swap_span_rows(d, n)
                assert len(rows) == d**n - comb(d + n - 1, n)
                s = Subspace.from_rows(d**n, span_matrix(rows, n, d, n).to_dense())
                assert s.dim == len(rows)

    def test_prefix_span_dims(self):
        for d in (2, 3):
            for n in range(2, 6):
                for p in range(n + 1):
                    got = len(repeat_span_rows(d, n, p))
                    assert got == d**n - comb(d, p) * d ** (n - p)
                    got = len(swap_span_rows(d, n, p))
                    assert got == d**n - comb(d + p - 1, p) * d ** (n - p)

    def test_rows_match_word_loop(self):
        # equal generators in equal order, for every prefix length
        for d in range(4):
            for n in range(7):
                for p in (None, *range(n + 1)):
                    got = dense.span_pairs(repeat_span_rows(d, n, p))
                    assert got == dense.repeat_span_rows(d, n, p), (d, n, p)
                    got = dense.span_pairs(swap_span_rows(d, n, p))
                    assert got == dense.swap_span_rows(d, n, p), (d, n, p)

    def test_small_content(self):
        # length-two words over two letters: repeat span has dimension 3
        rows = repeat_span_rows(2, 2)
        s = Subspace.from_rows(4, span_matrix(rows, 2, 2, 2).to_dense())
        assert s.dim == 3
        assert len(swap_span_rows(2, 2)) == 1


def assert_same_space(got: Subspace, want: Subspace):
    """Equal ambient, equal RREF basis and equal pivots."""
    assert got.ambient_dim == want.ambient_dim
    assert_same_matrix(got.basis, want.basis)
    assert got.pivots == want.pivots


class TestBuildersMatchDenseOracles:
    """Every matrix the three comparisons build, checked where it is built
    against the dense loop it replaced, and every class span against the
    kernel of the dense constraint stack it replaced."""

    @pytest.mark.parametrize("name", ["heis3", "abelian3"])
    def test_comparison_matrices(self, name, monkeypatch):
        entry = catalog(name)
        d = entry.table.dim
        seen = Counter()

        def check(attr, oracle, compare=assert_same_matrix):
            real = getattr(comparison, attr)

            def checked(*args):
                got = real(*args)
                compare(got, oracle(*args))
                seen[attr] += 1
                return got

            monkeypatch.setattr(comparison, attr, checked)

        def span_oracle(rows, p_sort, d, n, mdim=1, flavor=Flavor.TENSOR):
            return dense.span(dense.span_pairs(rows), p_sort, d, n, mdim, flavor=flavor)

        def same_word_projection(got, want):  # (generator words, pi, sigma)
            assert list(map(tuple, got[0].tolist())) == want[0]
            assert_same_matrix(got[1], want[1])
            assert_same_matrix(got[2], want[2])

        check("span_matrix", span_oracle)
        check("inclusion_matrix", dense.inclusion)
        check("_word_projection", dense.word_projection, same_word_projection)
        check("_insert_pullback", dense.insert_pullback)
        # the mixed cokernel spaces are read off the class spans built
        spans = []
        class_span = comparison._class_span
        monkeypatch.setattr(
            comparison, "_class_span", lambda *a: spans.append(class_span(*a)) or spans[-1]
        )

        for module in ("trivial", "adjoint"):
            for pair in InclusionPair:
                rel = build_relative_complex(pair, entry.table, entry.modules[module], 3)
                ft = comparison_filtration(pair, rel)
                for n in range(rel.tower.n_max + 1):
                    full = Subspace.full(rel.tower.dims[n])
                    want = [full]
                    for p in range(1, n + 2):
                        cons = dense.filtration_constraints(pair, rel, n, p)
                        want.append(full if cons is None else kernel_basis(cons))
                    if want[-1].dim:
                        want.append(Subspace.zero(full.ambient_dim))
                    assert len(ft.filt[n]) == len(want)
                    for got, w in zip(ft.filt[n], want):
                        assert_same_space(got, w)
        n_cr_max = 3
        for pair in InclusionPair:
            spans.clear()
            build_cr_complex(pair, entry.table, n_cr_max)
            want = (
                [kernel_basis(dense.mixed_constraints(d, p + 2)) for p in range(n_cr_max + 1)]
                if pair is InclusionPair.EXT_IN_SYM
                else []
            )
            assert len(spans) == len(want)
            for p, (got, w) in enumerate(zip(spans, want)):
                # symmetric coordinate (args; y) -> the sum of the combined
                # words (w; y) with w sorting to args
                words = dense.inclusion(InclusionPair.SYM_IN_TENSOR, d, d, p + 1)
                mapped = got.basis @ words.transpose()
                assert_same_space(Subspace.from_rows(w.ambient_dim, mapped), w)
        assert set(seen) == {
            "span_matrix",
            "inclusion_matrix",
            "_word_projection",
            "_insert_pullback",
        }

    def test_lie_comm_projection_spans_the_eliminated_quotient(self):
        # the elimination route's coset representatives of repeat span
        # modulo swap span evaluate the repeated-letter monomials
        for d in range(1, 4):
            for m in range(7):
                for mdim in (1, 2):
                    pair = InclusionPair.EXT_IN_SYM
                    _, pi, _ = comparison._word_projection(pair, d, m, mdim)
                    _, want = dense.sym_quotient_projection(d, m, mdim)
                    assert pi.shape == want.shape, (d, m, mdim)
                    assert Subspace.from_rows(pi.cols, pi) == Subspace.from_rows(
                        want.cols, want
                    ), (d, m, mdim)


class TestRelativeComplex:
    def test_dim_one_swap_quotient_vanishes(self):
        # only one letter: every word is sorted, so the swap span is zero
        t = BracketTable.zero(1)
        rel = build_relative_complex(
            InclusionPair.SYM_IN_TENSOR, t, trivial_module(t), 5
        )
        assert all(v == 0 for v in rel.tower.dims)

    def test_dim_one_mixed_quotient_is_module(self):
        t = BracketTable.zero(1)
        for mdim in (1, 2):
            rel = build_relative_complex(
                InclusionPair.EXT_IN_SYM, t, trivial_module(t, mdim), 5
            )
            assert rel.tower.dims == tuple([mdim] * 6)

    def test_degree_zero_swap_quotient(self):
        # two-letter Lie algebra: degree zero of the swap quotient is the
        # single symmetrizer relation times the module
        a = catalog("a")
        for mdim in (1, 2):
            rel = build_relative_complex(
                InclusionPair.SYM_IN_TENSOR, a.table, trivial_module(a.table, mdim), 4
            )
            assert rel.tower.dims[0] == mdim

    def test_ses_dimensions(self):
        a = catalog("a")
        for pair in InclusionPair:
            rel = build_relative_complex(pair, a.table, a.modules["trivial"], 5)
            for m in range(rel.word_degrees + 1):
                assert (
                    rel.sub_tower.dims[m] + rel.proj[m].rows
                    == rel.total_tower.dims[m]
                )

    def test_section_is_right_inverse(self):
        # the build checks proj @ section only for lie-comm
        for name in catalog_names():
            entry = catalog(name)
            lie = classify_algebra(entry.table).is_lie
            for module in ("trivial", "adjoint"):
                for pair in InclusionPair if lie else (InclusionPair.SYM_IN_TENSOR,):
                    mod = entry.modules[module]
                    rel = build_relative_complex(pair, entry.table, mod, 3)
                    for m in range(rel.word_degrees + 1):
                        want = BitMatrix.identity(rel.proj[m].rows)
                        assert rel.proj[m] @ rel.section[m] == want, (name, pair, module, m)

    def test_relative_differential_squares_to_zero(self):
        for name, pair in (
            ("N", InclusionPair.SYM_IN_TENSOR),
            ("a", InclusionPair.EXT_IN_TENSOR),
            ("a", InclusionPair.EXT_IN_SYM),
        ):
            entry = catalog(name)
            rel = build_relative_complex(pair, entry.table, entry.modules["trivial"], 5)
            assert rel.tower.check_composition()

    def test_requires_matching_class(self):
        n = catalog("N")
        with pytest.raises(GF2Error, match="Lie"):
            build_relative_complex(
                InclusionPair.EXT_IN_TENSOR, n.table, n.modules["trivial"], 3
            )


class TestLES:
    @pytest.mark.parametrize(
        "name,pairs",
        [
            ("N", (InclusionPair.SYM_IN_TENSOR,)),
            ("a", tuple(InclusionPair)),
            ("abelian1", tuple(InclusionPair)),
            ("abelian2", tuple(InclusionPair)),
        ],
    )
    def test_catalog_exactness(self, name, pairs):
        entry = catalog(name)
        for pair in pairs:
            for module in ("trivial", "flambda"):
                rel = build_relative_complex(
                    pair, entry.table, entry.modules[module], 5
                )
                les = long_exact_sequence_check(rel, 5)
                assert les.ok, (name, pair.value, module, les.failures())

    def test_heis3_exactness(self):
        heis = catalog("heis3")
        rel = build_relative_complex(
            InclusionPair.SYM_IN_TENSOR, heis.table, heis.modules["trivial"], 3
        )
        assert long_exact_sequence_check(rel, 3).ok

    def test_zero_differentials_split(self):
        t = BracketTable.zero(2)
        rel = build_relative_complex(
            InclusionPair.SYM_IN_TENSOR, t, trivial_module(t), 4
        )
        les = long_exact_sequence_check(rel, 4)
        assert les.ok
        for mat in les.connecting:
            assert mat.is_zero()

    def test_vanishing_window_forces_isomorphism(self):
        # with the alternating cohomology gone, tensor and relative
        # cohomology coincide in the window
        ab2 = catalog("abelian2")
        rel = build_relative_complex(
            InclusionPair.EXT_IN_TENSOR, ab2.table, ab2.modules["flambda"], 5
        )
        sub = betti_table(rel.sub_tower)
        total = betti_table(rel.total_tower)
        quo = betti_table(rel.quotient_word_tower())
        assert all(v == 0 for v in sub.dims)
        assert total.dims[: len(quo.dims)] == quo.dims[: len(quo.dims)]


class TestComparisonFiltration:
    def test_boundaries(self):
        a = catalog("a")
        for pair in InclusionPair:
            rel = build_relative_complex(pair, a.table, a.modules["trivial"], 4)
            ft = comparison_filtration(pair, rel)
            for n in range(ft.n_max + 1):
                assert ft.filt[n][0].dim == rel.tower.dims[n]
                assert ft.filt[n][-1].dim == 0

    def test_offsets_recorded(self):
        a = catalog("a")
        for pair, offset in (
            (InclusionPair.EXT_IN_TENSOR, 0),
            (InclusionPair.EXT_IN_SYM, 1),
            (InclusionPair.SYM_IN_TENSOR, 1),
        ):
            rel = build_relative_complex(pair, a.table, a.modules["trivial"], 3)
            assert comparison_filtration(pair, rel).index_offset == offset

    def test_swap_filtration_interpolates(self):
        # the prefix-symmetric chains strictly interpolate for two letters
        n = catalog("N")
        rel = build_relative_complex(
            InclusionPair.SYM_IN_TENSOR, n.table, n.modules["trivial"], 4
        )
        ft = comparison_filtration(InclusionPair.SYM_IN_TENSOR, rel)
        dims = [s.dim for s in ft.filt[3]]
        assert dims[0] == rel.tower.dims[3] and dims[-1] == 0
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        assert len(set(dims)) > 2

    def test_mixed_filtration_collapses(self):
        # the prefix-repeat condition on symmetric classes kills everything
        # past the first step: symmetry moves any repeat into the prefix
        for name, module in (("a", "trivial"), ("heis3", "adjoint")):
            entry = catalog(name)
            rel = build_relative_complex(
                InclusionPair.EXT_IN_SYM, entry.table, entry.modules[module], 4
            )
            ft = comparison_filtration(InclusionPair.EXT_IN_SYM, rel)
            for n in range(ft.n_max + 1):
                assert ft.filt[n][0].dim == rel.tower.dims[n] > 0, (name, n)
                for p in range(1, len(ft.filt[n])):
                    assert ft.filt[n][p].dim == 0, (name, n, p)

    def test_convergence(self):
        for name in ("N", "a", "abelian2"):
            entry = catalog(name)
            pairs = (
                (InclusionPair.SYM_IN_TENSOR,)
                if name == "N"
                else tuple(InclusionPair)
            )
            for pair in pairs:
                rel = build_relative_complex(
                    pair, entry.table, entry.modules["trivial"], 5
                )
                ft = comparison_filtration(pair, rel)
                assert convergence_check(ft).ok, (name, pair.value)


class TestCRComplexes:
    def test_dim_one_sym_cr_vanishes(self):
        t = BracketTable.zero(1)
        cr = build_cr_complex(InclusionPair.SYM_IN_TENSOR, t, 4)
        assert all(v == 0 for v in cr.tower.dims)

    def test_abelian_ext_cr_dims(self):
        # cokernel count: dual-valued space minus scalar source
        for d in (2, 3):
            t = BracketTable.zero(d)
            cr = build_cr_complex(InclusionPair.EXT_IN_TENSOR, t, 4)
            want = tuple(
                d * comb(d, p + 1) - comb(d, p + 2) for p in range(5)
            )
            assert cr.tower.dims == want
            assert cr.hr().dims == want[:4]

    def test_abelian_sym_cr_dims(self):
        for d in (2, 3):
            t = BracketTable.zero(d)
            cr = build_cr_complex(InclusionPair.SYM_IN_TENSOR, t, 4)
            want = tuple(
                d * comb(d + p, p + 1) - comb(d + p + 1, p + 2) for p in range(5)
            )
            assert cr.tower.dims == want

    def test_abelian_mixed_cr_dims(self):
        # the mixed space collapses to the alternating one past degree zero
        for d in (2, 3):
            t = BracketTable.zero(d)
            cr = build_cr_complex(InclusionPair.EXT_IN_SYM, t, 4)
            assert cr.tower.dims == (d, 0, 0, 0, 0)

    def test_mixed_cr_builds_only_the_degrees_its_tower_reads(self):
        # the tower reads word degrees up to 7; a kernel of the unread
        # word-degree 8 constraint stack (6561 columns) peaked at 37 MiB
        heis3 = catalog("heis3")
        tracemalloc.start()
        try:
            cr = build_cr_complex(InclusionPair.EXT_IN_SYM, heis3.table, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cr.tower.dims == (3, 0, 0, 0, 0, 0)
        assert peak < 16 * 2**20

    def test_mixed_route_matches_tensor_ambient_oracle(self, monkeypatch):
        # the class spans of the symmetric dual-valued complex give the
        # tensor-ambient route's restr and mus bit for bit, and so its
        # cokernel tower, on every Lie table of the survey
        built = {}
        real = comparison._product_cokernel

        def spy(pair, table, restr, mus, triv):
            built.update(restr=list(restr), mus=mus, triv=triv)
            return real(pair, table, restr, mus, triv)

        monkeypatch.setattr(comparison, "_product_cokernel", spy)
        pair = InclusionPair.EXT_IN_SYM
        lie = [
            t for d in (1, 2, 3) for t in survey(d).rep_tables() if classify_algebra(t).is_lie
        ]
        assert len(lie) == 125
        for t in lie:
            restr, mus = dense.build_cr_mixed(t, coadjoint_module(t), 5)
            for n_cr_max in reversed(range(6)):
                cr = build_cr_complex(pair, t, n_cr_max)
                want_restr, want_mus = restr[:n_cr_max], mus[: n_cr_max + 1]
                assert len(built["restr"]) == len(want_restr)
                assert len(built["mus"]) == len(want_mus)
                for got, w in zip(built["restr"] + built["mus"], want_restr + want_mus):
                    assert_same_matrix(got, w)
                if n_cr_max == 5:  # the tower the tensor-ambient route built
                    want = real(pair, t, restr, mus, built["triv"]).tower
                assert cr.tower.dims == want.dims[: n_cr_max + 1]
                assert cr.tower.diffs == want.diffs[:n_cr_max]

    def test_cr_composition_zero(self):
        a = catalog("a")
        for pair in InclusionPair:
            cr = build_cr_complex(pair, a.table, 4)
            assert cr.tower.check_composition()

    def test_cokernel_checks_name_their_degree(self):
        # the sym-in-tensor pieces of heis3, fed to the shared cokernel
        # builder intact, then with one forged entry each
        t = catalog("heis3").table
        pair = InclusionPair.SYM_IN_TENSOR
        coad = coadjoint_module(t)
        restr = list(build_tower(Flavor.SYM, t, coad, 4).diffs[1:])
        mus = [comparison._insert_pullback(Flavor.SYM, Flavor.SYM, t.dim, p) for p in range(4)]
        triv = build_tower(Flavor.SYM, t, trivial_module(t), 5)
        cr = comparison._product_cokernel(pair, t, restr, mus, triv)
        assert cr.tower.diffs == build_cr_complex(pair, t, 3).tower.diffs

        bad = restr[1].to_dense()
        bad[0, np.flatnonzero(mus[1].to_dense().any(axis=1))[0]] ^= 1
        forged = restr[:1] + [BitMatrix.from_dense(bad)] + restr[2:]
        with pytest.raises(GF2Error, match="not a chain map at degree 1"):
            comparison._product_cokernel(pair, t, forged, mus, triv)

        bad = mus[2].to_dense()
        bad[:, 1] = bad[:, 0]
        forged = mus[:2] + [BitMatrix.from_dense(bad)] + mus[3:]
        with pytest.raises(GF2Error, match="not injective at degree 2"):
            comparison._product_cokernel(pair, t, restr, forged, triv)


class TestProducts:
    def test_dim_one_all_pairs(self):
        t = BracketTable.zero(1)
        for pair in InclusionPair:
            rep = verify_e2_product(pair, t, trivial_module(t), 8)
            assert rep.ok, pair

    def test_abelian2_product_shapes(self):
        t = BracketTable.zero(2)
        triv = trivial_module(t)
        assert verify_e2_product(InclusionPair.EXT_IN_TENSOR, t, triv, 8).ok
        assert verify_e2_product(InclusionPair.SYM_IN_TENSOR, t, triv, 8).ok

    def test_abelian2_mixed_product_fails_dimensionally(self):
        # the relative dimensions (n+3) - C(2, n+2) cannot factor through
        # the symmetric Betti numbers: the first defect is 5 against 6
        t = BracketTable.zero(2)
        rep = verify_e2_product(InclusionPair.EXT_IN_SYM, t, trivial_module(t), 8)
        assert not rep.ok
        assert (0, 2, 5, 6, False) in rep.entries
        assert rep.convergence_ok  # the pages still converge correctly

    def test_abelian2_mixed_product_with_vanishing_module(self):
        ab2 = catalog("abelian2")
        rep = verify_e2_product(
            InclusionPair.EXT_IN_SYM, ab2.table, ab2.modules["flambda"], 8
        )
        assert rep.ok

    def test_worked_examples_informational(self):
        a = catalog("a")
        n = catalog("N")
        reps = {
            "a/lie-leibniz": verify_e2_product(
                InclusionPair.EXT_IN_TENSOR, a.table, a.modules["trivial"], 7
            ),
            "a/lie-comm": verify_e2_product(
                InclusionPair.EXT_IN_SYM, a.table, a.modules["trivial"], 7
            ),
            "a/comm-leibniz": verify_e2_product(
                InclusionPair.SYM_IN_TENSOR, a.table, a.modules["trivial"], 7
            ),
            "N/comm-leibniz": verify_e2_product(
                InclusionPair.SYM_IN_TENSOR, n.table, n.modules["trivial"], 7
            ),
        }
        for key, rep in reps.items():
            assert rep.convergence_ok, key
        # the two tensor-side identities hold on the worked examples
        assert reps["a/lie-leibniz"].ok
        assert reps["a/comm-leibniz"].ok
        assert reps["N/comm-leibniz"].ok


class TestPropagation:
    def test_window_bookkeeping(self):
        from commcoh.cohomology import BettiTable

        assert vanishing_window(BettiTable("", None, (0, 0, 1))) == 1
        assert vanishing_window(BettiTable("", None, (1, 0))) == -1
        assert vanishing_window(BettiTable("", None, (0, 0, 0))) == 2

    def test_abelian2_nontrivial_module(self):
        ab2 = catalog("abelian2")
        reports, tables = vanishing_propagation_report(
            ab2.table, ab2.modules["flambda"], 8
        )
        assert all(rep.ok for rep in reports)
        assert any(not rep.vacuous for rep in reports)
        assert all(v == 0 for v in tables["ext"])

    def test_trivial_module_vacuous(self):
        a = catalog("a")
        reports, _ = vanishing_propagation_report(a.table, a.modules["trivial"], 6)
        assert all(rep.vacuous for rep in reports)
        assert all(rep.ok for rep in reports)

    def test_full_vanishing_instance(self):
        ab2 = catalog("abelian2")
        report = full_vanishing_check(ab2.table, ab2.modules["flambda"], 7)
        assert report.ok and set(report.tables) == {"sym", "tensor", "ext"}

    def test_nilpotent_windows_observed(self):
        # tensor and symmetric windows agree degree-for-degree on the
        # nilpotent example with its nontrivial line module
        n = catalog("N")
        reports, tables = vanishing_propagation_report(
            n.table, n.modules["flambda"], 7
        )
        for rep in reports:
            assert rep.ok, (rep.hypothesis, rep.conclusion)
