"""Tests for relative complexes, long exact sequences, comparison
filtrations, cokernel complexes, and product-shape checks."""

import dataclasses
import gc
import weakref
from math import comb, perm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import betti_oracle
import dense_builders as dense
from commcoh import cochain, cohomology, comparison, gf2
from commcoh.algebra import (
    BracketTable,
    ModuleSpec,
    classify_algebra,
    coadjoint_module,
    make_module,
    trivial_module,
)
from commcoh.catalog import catalog_names
from commcoh.cochain import (
    INCLUSION_FLAVORS,
    Flavor,
    InclusionPair,
    PreconditionError,
    _index,
    basis_dim,
    build_tower,
)
from commcoh.cohomology import betti_table
from commcoh.comparison import (
    build_cr_complex,
    build_relative_complex,
    comparison_filtration,
    flavor_tables,
    full_vanishing_check,
    long_exact_sequence_check,
    vanishing_propagation_report,
    vanishing_window,
    verify_e2_product,
)
from commcoh.gf2 import BitMatrix, GF2Error, Subspace, WordMap
from commcoh.spectral import compute_pages, convergence_check

from conftest import (
    catalog,
    class_count,
    heis3_table,
    inclusion_class_map,
    random_valid_module,
    survey,
    traced,
)
from dense_builders import assert_same_matrix, kernel_basis, packed


class TestSpans:
    """The class maps' generator words are the hand-picked span generators:
    the repeat span for lie-leibniz, the swap span for comm-leibniz."""

    def test_repeat_span_dims(self):
        # complement of the strictly-increasing words
        for d in (1, 2, 3):
            for n in range(6):
                words, _, _, pi, _ = inclusion_class_map(InclusionPair.EXT_IN_TENSOR, d, n, 1)
                assert len(words) == d**n - comb(d, n)
                assert Subspace.from_rows(d**n, packed(pi).to_dense()).dim == len(words)

    def test_swap_span_dims(self):
        # complement of the sorted words
        for d in (1, 2, 3):
            for n in range(6):
                words, _, _, pi, _ = inclusion_class_map(InclusionPair.SYM_IN_TENSOR, d, n, 1)
                assert len(words) == d**n - comb(d + n - 1, n)
                assert Subspace.from_rows(d**n, packed(pi).to_dense()).dim == len(words)

    def test_prefix_span_dims(self):
        # the words whose first p letters repeat, and the classes of words
        # by their prefix-sorted word: all of them, and those with no repeat
        for d in (2, 3):
            for n in range(2, 6):
                for p in range(n + 1):
                    words, repeat = dense.prefix_repeats(d, n, p)
                    assert repeat.sum() == d**n - perm(d, p) * d ** (n - p)
                    cls = _index(Flavor.TENSOR, d, comparison._sort_prefix(words, p))
                    assert len(np.unique(cls)) == comb(d + p - 1, p) * d ** (n - p)
                    assert len(np.unique(cls[~repeat])) == comb(d, p) * d ** (n - p)

    def test_rows_match_word_loop(self):
        # equal generators in equal order: the class maps' generator words
        # and, for every prefix length, the words whose prefix repeats
        spans = {
            InclusionPair.EXT_IN_TENSOR: dense.repeat_span_rows,
            InclusionPair.SYM_IN_TENSOR: dense.swap_span_rows,
        }
        for d in range(4):
            for n in range(7):
                for pair, oracle in spans.items():
                    words = inclusion_class_map(pair, d, n, 1)[0]
                    assert list(map(tuple, words.tolist())) == [w for _, w in oracle(d, n)]
                for p in range(n + 1):
                    words, repeat = dense.prefix_repeats(d, n, p)
                    want = [w for kind, w in dense.repeat_span_rows(d, n, p) if kind == "unit"]
                    assert list(map(tuple, words[repeat].tolist())) == want, (d, n, p)

    def test_small_content(self):
        # length-two words over two letters: repeat span has dimension 3
        _, _, _, pi, _ = inclusion_class_map(InclusionPair.EXT_IN_TENSOR, 2, 2, 1)
        assert Subspace.from_rows(4, packed(pi).to_dense()).dim == 3
        assert len(inclusion_class_map(InclusionPair.SYM_IN_TENSOR, 2, 2, 1)[0]) == 1


def assert_same_space(got: Subspace, want: Subspace):
    """Equal ambient, equal RREF basis and equal pivots."""
    assert got.ambient_dim == want.ambient_dim
    assert_same_matrix(got.basis, want.basis)
    assert got.pivots == want.pivots


def assert_same_class_map(got, want):
    """(generator words, pi, sigma) of a class map against the word loop's."""
    assert list(map(tuple, got[0].tolist())) == want[0]
    assert_same_matrix(packed(got[1]), want[1])
    assert_same_matrix(packed(got[2]), want[2])


class TestBuildersMatchDenseOracles:
    """Every matrix the three comparisons build against the dense loop it
    replaced, and every class span against the kernel of the dense
    constraint stack it replaced."""

    def test_class_maps(self):
        # the relative complexes' class maps, and the product cokernels'
        # pullbacks, for every pair through word degree 6
        for pair in InclusionPair:
            scalar = INCLUSION_FLAVORS[pair][0]
            flavor = Flavor.EXT if pair is InclusionPair.EXT_IN_TENSOR else Flavor.SYM
            for d in (1, 2, 3):
                for m in range(7):
                    for mdim in (1, 2):
                        words, last, incl, pi, sig = inclusion_class_map(pair, d, m, mdim)
                        assert_same_matrix(incl, dense.inclusion(pair, d, mdim, m))
                        want = dense.word_projection(pair, d, m, mdim)
                        assert_same_class_map((words, pi, sig), want)
                        assert (last >= 0).all()
                for p in range(5):
                    cls = _index(scalar, d, comparison._dual_words(flavor, d, p))
                    mu = packed(WordMap(cls.size, basis_dim(scalar, d, p + 2), cls))
                    assert_same_matrix(mu, dense.insert_pullback(flavor, scalar, d, p))

    @pytest.mark.parametrize("name", ["heis3", "abelian3"])
    def test_comparison_matrices(self, name, monkeypatch):
        entry = catalog(name)
        d = entry.table.dim
        # the mixed cokernel spaces are read off the class leaders found
        spans = []
        leaders = comparison._leaders
        monkeypatch.setattr(
            comparison, "_leaders", lambda *a: spans.append(leaders(*a)) or spans[-1]
        )

        for module in ("trivial", "adjoint"):
            mdim = entry.modules[module].dim
            for pair in InclusionPair:
                rel = build_relative_complex(pair, entry.table, entry.modules[module], 3)
                for m in range(rel.word_degrees + 1):
                    assert_same_matrix(packed(dense.inclusion_map(rel, m)), dense.inclusion(pair, d, mdim, m))
                    got = (dense.generator_words(rel, m), rel.proj[m], comparison._section(rel.proj[m]))
                    assert_same_class_map(got, dense.word_projection(pair, d, m, mdim))
                ft = comparison_filtration(pair, rel)
                for n in range(rel.n_max + 1):
                    full = Subspace.full(rel.dims[n])
                    want = [full]
                    for p in range(1, n + 2):
                        cons = dense.filtration_constraints(pair, rel, n, p)
                        want.append(full if cons is None else kernel_basis(cons))
                    if want[-1].dim:
                        want.append(Subspace.zero(full.ambient_dim))
                    assert len(ft.filt[n]) == len(want)
                    for got, w in zip(ft.filt[n], want):
                        assert_same_space(dense.step_span(got), w)
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
                mapped = dense.step_span(got).basis @ words.transpose()
                assert_same_space(Subspace.from_rows(w.ambient_dim, mapped), w)

    def test_lie_comm_projection_spans_the_eliminated_quotient(self):
        # the elimination route's coset representatives of repeat span
        # modulo swap span evaluate the repeated-letter monomials
        for d in range(1, 4):
            for m in range(7):
                for mdim in (1, 2):
                    pair = InclusionPair.EXT_IN_SYM
                    pi = packed(inclusion_class_map(pair, d, m, mdim)[3])
                    _, want = dense.sym_quotient_projection(d, m, mdim)
                    assert pi.shape == want.shape, (d, m, mdim)
                    assert Subspace.from_rows(pi.cols, pi) == Subspace.from_rows(
                        want.cols, want
                    ), (d, m, mdim)


def applicable_pairs(table) -> list:
    """The inclusion pairs build_relative_complex accepts for table."""
    lie = classify_algebra(table).is_lie
    return [p for p in InclusionPair if lie or p is InclusionPair.SYM_IN_TENSOR]


def assert_word_maps_match_oracle(pair, d, m, mdim, words, incl, pi, sigma):
    """One class map's word maps against their packed forms from the word
    loop, and their products against the packed products."""
    assert_same_class_map((words, pi, sigma), dense.word_projection(pair, d, m, mdim))
    assert_same_matrix(incl, dense.inclusion(pair, d, mdim, m))
    # sigma is the selection of the generators, whose coordinates pi.a lists
    gens = np.arange(pi.rows)
    assert_same_matrix(packed(sigma), BitMatrix.from_coords(pi.cols, pi.rows, pi.a, gens))
    rng = np.random.default_rng(1000 * m + 10 * d + mdim)
    rand = lambda r, c: BitMatrix.from_dense(rng.integers(0, 2, (r, c), dtype=np.uint8))
    for w in (pi, sigma):
        x, y = rand(w.cols, 5), rand(5, w.cols)
        assert w @ x == packed(w) @ x
        assert (w @ y.transpose()).transpose() == y @ packed(w).transpose()
    x = rand(5, pi.cols)
    assert x.take_columns(pi.a) == x @ packed(sigma)


class TestWordMaps:
    """Each class map's pi and sigma are index arrays equal to the packed
    matrices of the word loop; the class map reads only the pair, the
    algebra's dimension and the module's."""

    def test_catalog_class_maps_through_word_degree_7(self):
        shapes = {
            (pair, entry.table.dim, entry.modules[module].dim)
            for entry in map(catalog, catalog_names())
            for module in ("trivial", "adjoint")
            for pair in applicable_pairs(entry.table)
        }
        for pair, d, mdim in sorted(shapes, key=lambda s: (s[0].value, s[1:])):
            for m in range(8):
                words, _, incl, pi, sigma = inclusion_class_map(pair, d, m, mdim)
                assert_word_maps_match_oracle(pair, d, m, mdim, words, incl, pi, sigma)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3))
    def test_relative_complex_word_maps(self, d, seed, mdim, n_rel):
        pool = survey(d).rep_tables()
        table = pool[seed % len(pool)]
        for pair in applicable_pairs(table):
            rel = build_relative_complex(pair, table, trivial_module(table, mdim), n_rel)
            for m in range(rel.word_degrees + 1):
                maps = (packed(dense.inclusion_map(rel, m)), rel.proj[m], comparison._section(rel.proj[m]))
                assert_word_maps_match_oracle(pair, d, m, mdim, dense.generator_words(rel, m), *maps)

    @pytest.mark.parametrize(
        "forge, pairs",
        [
            # the first generator selects nothing
            (lambda a: np.where(a == 0, -1, a), list(InclusionPair)),
            # each representative selects a generator; lie-comm ties no
            # generator to a representative, so its pi @ sigma stays 1
            (
                lambda a: np.where(a < 0, a.max(), a),
                [InclusionPair.EXT_IN_TENSOR, InclusionPair.SYM_IN_TENSOR],
            ),
        ],
    )
    def test_section_check_names_its_failure(self, forge, pairs, monkeypatch):
        # pi @ sigma = 1 is checked on the index arrays, for every class map
        real = comparison.WordMap
        forged = lambda rows, cols, a, b=None: real(rows, cols, forge(a) if b is None else a, b)
        monkeypatch.setattr(comparison, "WordMap", forged)
        a = catalog("a")
        for pair in pairs:
            with pytest.raises(GF2Error, match="^quotient projection is not surjective$"):
                build_relative_complex(pair, a.table, a.modules["trivial"], 2)
            with pytest.raises(GF2Error, match="^quotient projection is not surjective$"):
                build_cr_complex(pair, a.table, 2)

    def test_holds_no_packed_projection(self):
        # heis3 adjoint lie-leibniz through word degree 7, whose word space
        # has 6561 coordinates: the packed pi and sigma held 16.8 MiB after
        # the build and peaked at 20.4 MiB through the long exact sequence;
        # as index arrays 5.5 MiB and 9.1 MiB
        entry = catalog("heis3")
        build = lambda: build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["adjoint"], 5)
        rel, held, build_peak = traced(build)
        les, _, les_peak = traced(lambda: long_exact_sequence_check(rel))
        assert les.ok and rel.proj[7].shape == (6561, 6561)
        assert held < 8 * 2**20
        assert max(build_peak, held + les_peak) < 12 * 2**20

    def test_holds_every_map_as_index_arrays(self):
        # no field of a relative complex, however nested, is a packed
        # matrix: its inclusion is the class array, pi a WordMap
        def packed_fields(obj, path):
            if isinstance(obj, BitMatrix):
                yield path
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from packed_fields(getattr(obj, f.name), f"{path}.{f.name}")
            elif isinstance(obj, (tuple, list)):
                for i, x in enumerate(obj):
                    yield from packed_fields(x, f"{path}[{i}]")
            elif isinstance(obj, dict):
                for k, x in obj.items():
                    yield from packed_fields(x, f"{path}[{k!r}]")
            elif isinstance(obj, WordMap):
                yield from packed_fields((obj.a, obj.b), path)

        entry = catalog("heis3")
        for pair in InclusionPair:
            rel = build_relative_complex(pair, entry.table, entry.modules["adjoint"], 4)
            assert list(packed_fields(rel, "rel")) == [], pair

    @pytest.mark.parametrize("block_bytes", [64, gf2.RANK_BLOCK_BYTES])
    def test_differential_is_the_projected_column_take(self, block_bytes, monkeypatch):
        # pi[m + 1] @ dd.take_columns(pi[m].a) from the held total tower is
        # the route the coboundary generator replaces; 64 bytes generates
        # one column of dd per chunk
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
        for entry in map(catalog, catalog_names()):
            for module in ("trivial", "adjoint"):
                for pair in applicable_pairs(entry.table):
                    rel = build_relative_complex(pair, entry.table, entry.modules[module], 4)
                    _, total = dense.flavor_towers(rel)
                    for n, got in enumerate(rel.diffs):
                        pi, dd = rel.proj, total.differential(n + 2)
                        assert got == pi[n + 3] @ dd.take_columns(pi[n + 2].a), (entry.name, pair, n)

    def test_differential_holds_no_column_take(self):
        # heis3 adjoint lie-leibniz through word degree 8: the top total
        # differential is 19683 x 6561; its full-height column take lifted
        # the peak 17.0 MiB above what the build holds, its row blocks
        # 2.5 MiB, and generating its columns lifts it 1.9 MiB
        entry = catalog("heis3")
        build = lambda: build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["adjoint"], 6)
        rel, held, peak = traced(build)
        _, total = dense.flavor_towers(rel)
        assert rel.diffs[-1].shape == total.diffs[-1].shape == (19683, 6561)
        assert peak < held + 6 * 2**20

    @pytest.mark.parametrize("pair", [InclusionPair.EXT_IN_TENSOR, InclusionPair.SYM_IN_TENSOR])
    def test_holds_no_total_tower(self, pair):
        # heis3 trivial through word degree 9: with the sub and total towers
        # the lie-leibniz build held 37.7 MiB, 20.3 MiB over the 17.4 MiB of
        # its packed relative differentials; without them 20.3 MiB
        entry = catalog("heis3")
        rel, held, _ = traced(lambda: build_relative_complex(pair, entry.table, entry.modules["trivial"], 7))
        assert held < sum(dd.words.nbytes for dd in rel.diffs) + 6 * 2**20

    @pytest.mark.parametrize("pair", [InclusionPair.EXT_IN_TENSOR, InclusionPair.SYM_IN_TENSOR])
    def test_holds_no_packed_relative_differential(self, pair):
        # heis3 trivial through word degree 9: the packed relative
        # differentials held 17.4 and 17.2 MiB of the build's 20.3 and
        # 20.2 MiB; the tower now holds their generator
        entry = catalog("heis3")
        rel, held, _ = traced(lambda: build_relative_complex(pair, entry.table, entry.modules["trivial"], 7))
        assert rel.dims[-1] > 6000
        assert held < 8 * 2**20

    @pytest.mark.parametrize("name", catalog_names())
    def test_class_route_matches_row_oracle(self, name):
        # the generated relative tower ranked by weight class, against its
        # packed differentials ranked by rows
        entry = catalog(name)
        for module in ("trivial", "adjoint", "coadjoint", "flambda"):
            for pair in applicable_pairs(entry.table):
                rel = build_relative_complex(pair, entry.table, entry.modules[module], 4)
                want = betti_oracle.row_betti(rel.label, rel.flavor, rel.dims, rel.diffs)
                assert betti_table(rel) == want, (module, pair)

    def test_towers_are_freed_without_the_collector(self):
        # a tower that held a method of itself would wait for the collector
        entry = catalog("heis3")
        gc.collect()
        gc.disable()
        try:
            for pair in InclusionPair:
                rel = build_relative_complex(pair, entry.table, entry.modules["adjoint"], 3)
                tower = build_tower(INCLUSION_FLAVORS[pair][1], entry.table, entry.modules["adjoint"], 4)
                ft = comparison_filtration(pair, rel)
                convergence_check(ft, compute_pages(ft))
                long_exact_sequence_check(rel)
                betti_table(tower), tower.differential(3)
                refs = [weakref.ref(x) for x in (rel, tower, ft)]
                del rel, tower, ft
                assert [r() for r in refs] == [None] * 3, pair
        finally:
            gc.enable()


class TestRelativeComplex:
    def test_dim_one_swap_quotient_vanishes(self):
        # only one letter: every word is sorted, so the swap span is zero
        t = BracketTable.zero(1)
        rel = build_relative_complex(
            InclusionPair.SYM_IN_TENSOR, t, trivial_module(t), 5
        )
        assert all(v == 0 for v in rel.dims)

    def test_dim_one_mixed_quotient_is_module(self):
        t = BracketTable.zero(1)
        for mdim in (1, 2):
            rel = build_relative_complex(
                InclusionPair.EXT_IN_SYM, t, trivial_module(t, mdim), 5
            )
            assert rel.dims == tuple([mdim] * 6)

    def test_degree_zero_swap_quotient(self):
        # two-letter Lie algebra: degree zero of the swap quotient is the
        # single symmetrizer relation times the module
        a = catalog("a")
        for mdim in (1, 2):
            rel = build_relative_complex(
                InclusionPair.SYM_IN_TENSOR, a.table, trivial_module(a.table, mdim), 4
            )
            assert rel.dims[0] == mdim

    def test_build_gathers_a_block_of_ones_at_a_time(self):
        # sym-in-tensor on heis3 with adjoint coefficients through relative
        # degree 7 (59049 total coordinates at the top): gathering whole
        # generator chunks onto every quotient row holding each one peaked
        # at 10.88 MiB, with 4.08 MiB held after
        entry = catalog("heis3")
        build = lambda: build_relative_complex(InclusionPair.SYM_IN_TENSOR, entry.table, entry.modules["adjoint"], 7)
        rel, held, peak = traced(build)
        assert rel.word_degrees == 9 and held < 5 * 2**20
        assert peak < 10 * 2**20

    def test_ses_dimensions(self):
        a = catalog("a")
        for pair in InclusionPair:
            rel = build_relative_complex(pair, a.table, a.modules["trivial"], 5)
            sub, total = dense.flavor_towers(rel)
            for m in range(rel.word_degrees + 1):
                assert sub.dims[m] + rel.proj[m].rows == total.dims[m]

    def test_ill_defined_differential_names_its_first_degree(self, monkeypatch):
        # with the axiom checks off, on every dim-2 table: the build raises
        # exactly where pi[m + 1] @ d @ incl[m], made dense, is first nonzero
        monkeypatch.setattr(comparison, "require_pair", lambda *args: None)
        monkeypatch.setattr(comparison, "_require_flavor", lambda *args: None)
        monkeypatch.setattr(cochain, "_require_flavor", lambda *args: None)
        raised = []
        for bits in range(256):
            t = BracketTable((bits >> np.arange(8)).reshape(2, 2, 2))
            for mdim in (1, 2):
                coeffs = trivial_module(t, mdim)
                for pair in InclusionPair:
                    dd = build_tower(INCLUSION_FLAVORS[pair][1], t, coeffs, 4).diffs
                    probes = [
                        dense.word_projection(pair, 2, m + 1, mdim)[1] @ dd[m] @ dense.inclusion(pair, 2, mdim, m)
                        for m in (2, 3)
                    ]
                    bad = [m for m, probe in zip((2, 3), probes) if not probe.is_zero()]
                    if not bad:
                        build_relative_complex(pair, t, coeffs, 2)
                        continue
                    with pytest.raises(GF2Error, match=f"^induced differential ill-defined at word degree {bad[0]}$"):
                        build_relative_complex(pair, t, coeffs, 2)
                    raised.append((mdim, bad[0]))
        assert sorted(set(raised)) == [(1, 2), (2, 2)]
        assert raised.count((1, 2)) == raised.count((2, 2)) == 684

    def test_section_is_right_inverse(self):
        # the build checks proj @ section in index form; this is the packed product
        for name in catalog_names():
            entry = catalog(name)
            lie = classify_algebra(entry.table).is_lie
            for module in ("trivial", "adjoint"):
                for pair in InclusionPair if lie else (InclusionPair.SYM_IN_TENSOR,):
                    mod = entry.modules[module]
                    rel = build_relative_complex(pair, entry.table, mod, 3)
                    for m in range(rel.word_degrees + 1):
                        want = BitMatrix.identity(rel.proj[m].rows)
                        got = packed(rel.proj[m]) @ packed(comparison._section(rel.proj[m]))
                        assert got == want, (name, pair, module, m)

    def test_relative_differential_squares_to_zero(self):
        for name, pair in (
            ("N", InclusionPair.SYM_IN_TENSOR),
            ("a", InclusionPair.EXT_IN_TENSOR),
            ("a", InclusionPair.EXT_IN_SYM),
        ):
            entry = catalog(name)
            rel = build_relative_complex(pair, entry.table, entry.modules["trivial"], 5)
            assert rel.check_composition()

    def test_betti_table_holds_no_transposed_differential(self):
        # heis3 lie-leibniz with trivial coefficients through relative degree 7:
        # the top relative differential is 19683 x 6561, 15.5 MiB packed.
        # Transposing each differential whole for the class route lifted the
        # peak 25.8 MiB above what the tower holds, ranking it by rows 2.9 MiB,
        # generating it class by class 2.1 MiB
        entry = catalog("heis3")
        rel = build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["trivial"], 7)
        bt, _, peak = traced(lambda: betti_table(rel))
        assert rel.diffs[-1].shape == (19683, 6561)
        assert bt.dims == (4, 12, 29, 70, 169, 408, 985)
        assert peak < 8 * 2**20

    def test_refuses_coefficients_failing_their_axioms(self):
        # catalog N with e acting by 1 on a line: no bimodule
        n = catalog("N")
        bad = ModuleSpec(1, np.array([[[1]], [[0]]], dtype=np.uint8))
        with pytest.raises(PreconditionError, match="^coefficients fail axiom"):
            build_relative_complex(InclusionPair.SYM_IN_TENSOR, n.table, bad, 3)

    def test_requires_matching_class(self):
        n = catalog("N")
        with pytest.raises(PreconditionError, match="Lie"):
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
                    pair, entry.table, entry.modules[module], 4
                )
                les = long_exact_sequence_check(rel)
                assert les.ok, (name, pair.value, module, les.failures())

    def test_heis3_exactness(self):
        heis = catalog("heis3")
        rel = build_relative_complex(
            InclusionPair.SYM_IN_TENSOR, heis.table, heis.modules["trivial"], 2
        )
        assert long_exact_sequence_check(rel).ok

    @pytest.mark.parametrize("name", catalog_names())
    def test_connecting_maps_match_the_solved_lift(self, name):
        # reading the lift at each class's representative gives the
        # connecting maps of the dense solve bit for bit
        entry = catalog(name)
        lie = classify_algebra(entry.table).is_lie
        for module in ("trivial", "adjoint"):
            for pair in InclusionPair if lie else (InclusionPair.SYM_IN_TENSOR,):
                rel = build_relative_complex(pair, entry.table, entry.modules[module], 3)
                got = long_exact_sequence_check(rel).connecting
                want = dense.connecting_maps(rel)
                assert len(got) == len(want) == rel.word_degrees - 1
                for g, w in zip(got, want):
                    assert_same_matrix(g, w)

    def test_lift_failure_names_its_degree(self):
        # an inclusion that misses the coboundary of a lifted class: no
        # total coordinate of word degree m + 1 keeps its class
        heis = catalog("heis3")
        rel = build_relative_complex(
            InclusionPair.EXT_IN_TENSOR, heis.table, heis.modules["trivial"], 3
        )
        les = long_exact_sequence_check(rel)
        m = next(k for k, c in enumerate(les.connecting) if not c.is_zero())
        classes = list(rel.classes)
        classes[m + 1] = np.full_like(classes[m + 1], -1)
        forged = dataclasses.replace(rel, classes=tuple(classes))
        for block_bytes in (1, gf2.RANK_BLOCK_BYTES):  # one part per weight class, and runs of them
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
                with pytest.raises(GF2Error, match=f"connecting-map lift failed at word degree {m}$"):
                    long_exact_sequence_check(forged)

    def test_zero_differentials_split(self):
        t = BracketTable.zero(2)
        rel = build_relative_complex(
            InclusionPair.SYM_IN_TENSOR, t, trivial_module(t), 3
        )
        les = long_exact_sequence_check(rel)
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
        sub, total = map(betti_table, dense.flavor_towers(rel))
        quo = betti_table(dense.quotient_word_tower(rel))
        assert all(v == 0 for v in sub.dims)
        assert total.dims[: len(quo.dims)] == quo.dims[: len(quo.dims)]


def assert_les_matches_full_width(rel):
    """The sweep by weight part gives the full-width sweep's node verdicts
    and connecting maps, bit for bit, with RANK_BLOCK_BYTES at 1 (every
    weight class its own part, unless a run of classes has no block between
    them) and at its real value; returns the oracle's report."""
    want = dense.full_width_les(rel)
    for block_bytes in (1, gf2.RANK_BLOCK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            got = long_exact_sequence_check(rel)
        assert got.nodes == want.nodes, block_bytes
        assert len(got.connecting) == len(want.connecting)
        for g, w in zip(got.connecting, want.connecting):
            assert_same_matrix(g, w)
    return want


def les_outcome(run, rel):
    """The error text run(rel) raises, or the node verdicts and the shape and
    entries of each connecting map of its report."""
    try:
        les = run(rel)
    except GF2Error as exc:
        return str(exc)
    return les.nodes, [(c.shape, c.to_dense().tobytes()) for c in les.connecting]


def count_parts(monkeypatch) -> list:
    """The number of weight parts of each long exact sequence run from now on."""
    counts, parts = [], comparison._weight_parts

    def counted(*args):
        counts.append(0)
        for co in parts(*args):
            counts[-1] += 1
            yield co

    monkeypatch.setattr(comparison, "_weight_parts", counted)
    return counts


@dataclasses.dataclass(frozen=True)
class _ExtraOne(comparison.RelativeTower):
    """A relative tower whose generator also gives the one (c, g) at word degree m, extra = (m, c, g)."""

    extra: tuple = ()

    def total_ones(self, m, cols):
        yield from super().total_ones(m, cols)
        at, c, g = self.extra
        i = np.flatnonzero(np.asarray(cols) == c)
        if m == at and i.size:
            yield i, np.full(i.size, g)


class TestLESParts:
    """long_exact_sequence_check, swept one weight part at a time, against
    the full-width sweep it replaced (dense_builders.full_width_les)."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_matches_full_width(self, name):
        entry = catalog(name)
        for module in ("trivial", "adjoint", "coadjoint", "flambda"):
            for pair in applicable_pairs(entry.table):
                rel = build_relative_complex(pair, entry.table, entry.modules[module], 3)
                assert_les_matches_full_width(rel)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spectral_files_match_full_width(self, seed, monkeypatch):
        # the benchmark's `les --module adjoint --max-degree 5` on its seeded
        # heis3 files: 70 or 71 weight classes, in two parts at the real
        # block size (lie-comm in one)
        table = heis3_table(1, seed)
        counts = count_parts(monkeypatch)
        for pair in InclusionPair:
            rel = build_relative_complex(pair, table, make_module(table, "adjoint"), 5)
            assert assert_les_matches_full_width(rel).ok
        assert min(counts[::2]) >= 70 and counts[1::2] == [2, 1, 2]

    def test_ungraded_basis_is_one_part(self, monkeypatch):
        # brackets all x + y + z: every coordinate has the same weight
        table = heis3_table(3)
        counts = count_parts(monkeypatch)
        for module in ("trivial", "adjoint"):
            for pair in InclusionPair:
                rel = build_relative_complex(pair, table, make_module(table, module), 4)
                assert_les_matches_full_width(rel)
        assert counts == [1] * 12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 3))
    def test_drawn_tables_match_full_width(self, d, seed, lie, n_rel):
        pool = [t for t in survey(d).rep_tables() if classify_algebra(t).is_lie == lie]
        assume(pool)
        rng = np.random.default_rng(seed)
        table = pool[rng.integers(len(pool))]
        coeffs = random_valid_module(rng, table)
        for pair in applicable_pairs(table):
            assert_les_matches_full_width(build_relative_complex(pair, table, coeffs, n_rel))

    def test_a_node_failing_in_one_part_fails(self, monkeypatch):
        # i_* forged to miss one sub cochain of degree 0, whose total
        # coordinate loses its class: the nodes it breaks fail in one part
        # and hold in the others, so the verdicts are the AND over the parts
        entry = catalog("heis3")
        rel = build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["adjoint"], 2)
        counts = count_parts(monkeypatch)
        failed = []
        for j in range(rel.reps[0].size):
            forged0 = np.where(rel.classes[0] == j, -1, rel.classes[0])
            forged = dataclasses.replace(rel, classes=(forged0, *rel.classes[1:]))
            want = assert_les_matches_full_width(forged)
            failed += want.failures()
        assert failed == ["H^0(total)", "H^0(sub)"]
        assert counts[0] > 1

    def test_a_one_leaving_its_part_names_its_degree(self, monkeypatch):
        # the tensor word x x forged into the class of the symmetric
        # cochain y^2, of another weight
        entry = catalog("heis3")
        rel = build_relative_complex(InclusionPair.SYM_IN_TENSOR, entry.table, entry.modules["trivial"], 2)
        sub, total = dense.flavor_towers(rel)
        t, s = 0, 2  # the words (0, 0) and (1, 1) in colex order
        assert rel.classes[2][t] != s and not np.array_equal(total.weights(2)[t], sub.weights(2)[s])
        classes = list(rel.classes)
        classes[2] = np.where(np.arange(classes[2].size) == t, s, classes[2])
        forged = dataclasses.replace(rel, classes=tuple(classes))
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", 1)
        with pytest.raises(GF2Error, match="^long exact sequence leaves its weight part at word degree 2$"):
            long_exact_sequence_check(forged)

    def test_zero_dimensional_module_is_an_empty_sweep(self, monkeypatch):
        # no coordinate in any degree, so no weight part: every node is
        # exact and every connecting map is 0 x 0, as in the full-width sweep
        table = BracketTable.from_entries(2, {(0, 0): [1]})
        rel = build_relative_complex(InclusionPair.SYM_IN_TENSOR, table, ModuleSpec(0, np.zeros((2, 0, 0), dtype=np.uint8)), 2)
        counts = count_parts(monkeypatch)
        want = assert_les_matches_full_width(rel)
        assert want.ok and len(want.nodes) == 11
        assert [c.shape for c in want.connecting] == [(0, 0)] * 3
        assert counts == [0, 0]

    def test_a_one_crossing_classes_inside_a_part_raises(self, monkeypatch):
        # the quotient generator forged with a one from the word-degree-2
        # coordinate 0 to a word-degree-3 coordinate of another weight; at
        # the real block size both classes lie in the sequence's one part
        entry = catalog("heis3")
        rel = build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["trivial"], 2)
        w2, w3 = rel.weights(0), rel.weights(1)
        g = int(np.flatnonzero((w3 != w2[0]).any(axis=1))[0])
        fields = {f.name: getattr(rel, f.name) for f in dataclasses.fields(rel)}
        forged = _ExtraOne(**fields, extra=(2, int(rel.proj[2].a[0]), g))
        counts = count_parts(monkeypatch)
        with pytest.raises(GF2Error, match="^coboundary of degree 2 crosses weight classes$"):
            long_exact_sequence_check(forged)
        assert counts == [1]

    def test_dimension_three_corpus_matches_full_width(self):
        # every orbit representative of the survey in dimensions 1 to 3 (1, 3
        # and 11 orbits), trivial and adjoint coefficients, each applicable pair
        checked = 0
        for d in (1, 2, 3):
            for table in survey(d, up_to_iso=True).rep_tables():
                for module in ("trivial", "adjoint"):
                    coeffs = make_module(table, module)
                    for pair in applicable_pairs(table):
                        assert_les_matches_full_width(build_relative_complex(pair, table, coeffs, 3))
                        checked += 1
        assert checked == 70  # 10 of the 15 orbits are Lie algebras

    def test_a_square_broken_in_one_part_names_its_degree(self, monkeypatch):
        # the quotient generator forged with one more one (or one less) from
        # a word-degree-3 coordinate that d^2 reaches to a word-degree-4
        # coordinate of the same weight: d^3 d^2 != 0 in that weight's part alone
        entry = catalog("heis3")
        rel = build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["adjoint"], 3)
        w3, w4 = rel.weights(1), rel.weights(2)
        same = [np.flatnonzero((w4 == w3[c]).all(axis=1)) for c in range(w3.shape[0])]
        c = next(c for c in np.flatnonzero(rel.diffs[0].words.any(axis=1)) if same[c].size)
        g = int(same[c][0])
        fields = {f.name: getattr(rel, f.name) for f in dataclasses.fields(rel) if f.name != "_packed"}
        forged = _ExtraOne(**fields, extra=(3, int(rel.proj[3].a[c]), g))
        d2, d3 = dense.quotient_word_tower(forged).diffs[2:4]
        assert not (d3 @ d2).is_zero()
        for block_bytes in (1, gf2.RANK_BLOCK_BYTES):
            monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
            with pytest.raises(GF2Error, match="^differentials do not square to zero at word degree 2$"):
                long_exact_sequence_check(forged)

    def test_forged_inclusions_raise_where_full_width_does(self):
        # every total coordinate of word degree 0 to 2 taken out of its
        # class, or moved to another sub coordinate of its weight, one at a
        # time: the sweep raises the full-width sweep's error, or gives its
        # verdicts and connecting maps
        entry = catalog("heis3")
        raised, held = set(), 0
        for pair in InclusionPair:
            rel = build_relative_complex(pair, entry.table, entry.modules["adjoint"], 1)
            sub, total = dense.flavor_towers(rel)
            for m in range(3):
                ws, wt = sub.weights(m), total.weights(m)
                for i, j in enumerate(rel.classes[m]):
                    same = np.flatnonzero((ws == wt[i]).all(axis=1))
                    moved = same[same != j][:1].tolist()
                    for k in moved if j < 0 else [-1, *moved]:
                        classes = list(rel.classes)
                        classes[m] = np.where(np.arange(classes[m].size) == i, k, classes[m])
                        forged = dataclasses.replace(rel, classes=tuple(classes))
                        want = les_outcome(dense.full_width_les, forged)
                        for block_bytes in (1, gf2.RANK_BLOCK_BYTES):
                            with pytest.MonkeyPatch.context() as mp:
                                mp.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
                                got = les_outcome(long_exact_sequence_check, forged)
                            assert got == want, (pair, m, i, k, block_bytes)
                        if isinstance(want, str):
                            raised.add(want)
                        else:
                            held += 1
        assert held and raised == {
            "induced_map: m does not map dom_a into cod_c",
            "induced_map: m does not map dom_b into cod_d",
        }

    @pytest.mark.parametrize("block_bytes", [1, gf2.RANK_BLOCK_BYTES])
    def test_no_subspace_layer_and_one_block_per_part_and_degree(self, block_bytes, monkeypatch):
        # the sweep reduces each complex's T_m once per part and degree and
        # reads every cohomology and map off that reduction
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
        entry = catalog("heis3")
        rel = build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["adjoint"], 4)
        calls = []

        def forbidden(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return spy

        monkeypatch.setattr(gf2.BitMatrix, "rref", forbidden("rref"))
        monkeypatch.setattr(gf2.Subspace, "from_rows", classmethod(forbidden("Subspace.from_rows")))
        # kernels and quotient coordinates of subspaces are left to the test oracles
        for mod in (gf2, cohomology, comparison):
            assert not any(hasattr(mod, name) for name in ("kernel_basis", "QuotientCoords", "induced_map"))
        parts, blocks, part_block, weight_parts = [], [], comparison._part_block, comparison._weight_parts

        def each_part(*args):
            for co in weight_parts(*args):
                parts.append(co)
                yield co

        def block(ones, n, lo, hi):
            blocks.append((len(parts) - 1, n, lo[0].tobytes(), hi[0].tobytes()))
            return part_block(ones, n, lo, hi)

        monkeypatch.setattr(comparison, "_weight_parts", each_part)
        monkeypatch.setattr(comparison, "_part_block", block)
        assert long_exact_sequence_check(rel).ok
        assert calls == []
        # a part's degree is skipped where none of the three complexes has a coordinate
        want = [(p, m, co[v][m][0].tobytes(), co[v][m + 1][0].tobytes())
                for p, co in enumerate(parts) for m in range(rel.word_degrees)
                if any(co[u][m][0].size for u in range(3)) for v in range(3)]
        assert len(parts) == (1 if block_bytes > 1 else 55) and blocks == want

    def test_sweep_holds_one_part(self):
        # heis3 adjoint lie-leibniz through word degree 7, the benchmark's
        # size: the full-width sweep peaked 7.63 MiB above its start, the
        # sweep by weight part 2.84 MiB
        entry = catalog("heis3")
        rel = build_relative_complex(InclusionPair.EXT_IN_TENSOR, entry.table, entry.modules["adjoint"], 5)
        les, _, peak = traced(lambda: long_exact_sequence_check(rel))
        assert les.ok
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("pair", [InclusionPair.EXT_IN_TENSOR, InclusionPair.SYM_IN_TENSOR])
    def test_spectral_file_sweep_converts_rows_in_pieces(self, pair):
        # the benchmark's `les --module adjoint --max-degree 5` on its seed-1
        # heis3 file: converting each 512 KiB row block whole peaked at 2.53
        # MiB (lie-leibniz) and 2.46 MiB (comm-leibniz), 64 KiB pieces at
        # 2.30 and 2.24 MiB
        table = heis3_table(1)
        rel = build_relative_complex(pair, table, make_module(table, "adjoint"), 5)
        les, _, peak = traced(lambda: long_exact_sequence_check(rel))
        assert les.ok
        assert peak < 2.4 * 2**20

    def test_swapped_kind_is_refused_at_entry(self):
        # a tower whose kind was swapped for another pair's: the total
        # flavor, or the sub coordinates in some word degree, no longer
        # match, and the check names the lowest word degree where they break
        raised = []
        for name in catalog_names():
            entry = catalog(name)
            for mod in entry.modules.values():
                for pair in applicable_pairs(entry.table):
                    rel = build_relative_complex(pair, entry.table, mod, 2)
                    for kind in (k for k in InclusionPair if k is not pair):
                        sub, total = INCLUSION_FLAVORS[kind]
                        dims = [basis_dim(sub, entry.table.dim, m) * mod.dim for m in range(len(rel.reps))]
                        m = next(m for m, r in enumerate(rel.reps) if total is not rel.flavor or len(r) != dims[m])
                        with pytest.raises(GF2Error, match=f"not the {kind.value} quotient at word degree {m}$"):
                            long_exact_sequence_check(dataclasses.replace(rel, kind=kind))
                        raised.append(m)
        # before the entry check: 22 IndexErrors, 8 PreconditionErrors, 46
        # GF2Errors from deeper stages and 52 reports
        assert len(raised) == 128 and set(raised) == {0, 2}


class TestComparisonFiltration:
    def test_boundaries(self):
        a = catalog("a")
        for pair in InclusionPair:
            rel = build_relative_complex(pair, a.table, a.modules["trivial"], 4)
            ft = comparison_filtration(pair, rel)
            for n in range(ft.n_max + 1):
                assert class_count(ft.filt[n][0]) == rel.dims[n]
                assert class_count(ft.filt[n][-1]) == 0

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
        dims = [class_count(s) for s in ft.filt[3]]
        assert dims[0] == rel.dims[3] and dims[-1] == 0
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
                assert class_count(ft.filt[n][0]) == rel.dims[n] > 0, (name, n)
                for p in range(1, len(ft.filt[n])):
                    assert class_count(ft.filt[n][p]) == 0, (name, n, p)

    @pytest.mark.parametrize("module", ["trivial", "adjoint"])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_steps_match_class_spans(self, name, module):
        entry = catalog(name)
        for pair in applicable_pairs(entry.table):
            rel = build_relative_complex(pair, entry.table, entry.modules[module], 4)
            ft = comparison_filtration(pair, rel)
            dense.assert_steps_span(ft, dense.comparison_chains(pair, rel))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3))
    def test_survey_steps_match_class_spans(self, d, seed, mdim, n_rel):
        pool = survey(d).rep_tables()
        table = pool[seed % len(pool)]
        for pair in applicable_pairs(table):
            rel = build_relative_complex(pair, table, trivial_module(table, mdim), n_rel)
            ft = comparison_filtration(pair, rel)
            dense.assert_steps_span(ft, dense.comparison_chains(pair, rel))

    def test_holds_no_packed_steps(self):
        # comm-leibniz on heis3 with trivial coefficients through relative
        # degree 6 (6516 coordinates at the top): the packed class spans
        # held 14.0 MiB after the build, the leader arrays about 0.6 MiB
        entry = catalog("heis3")
        pair = InclusionPair.SYM_IN_TENSOR
        rel = build_relative_complex(pair, entry.table, entry.modules["trivial"], 6)
        ft, held, _ = traced(lambda: comparison_filtration(pair, rel))
        assert ft.filt[6][0].shape == (rel.dims[6],) == (6516,)
        assert held < 2 * 2**20

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


def lie_survey_tables() -> list:
    """The Lie tables of the survey in dimensions 1 to 3."""
    tables = [
        t for d in (1, 2, 3) for t in survey(d).rep_tables() if classify_algebra(t).is_lie
    ]
    assert len(tables) == 125
    return tables


class TestCRComplexes:
    def test_dim_one_sym_cr_vanishes(self):
        t = BracketTable.zero(1)
        cr = build_cr_complex(InclusionPair.SYM_IN_TENSOR, t, 4)
        assert all(v == 0 for v in cr.dims)

    def test_abelian_ext_cr_dims(self):
        # cokernel count: dual-valued space minus scalar source
        for d in (2, 3):
            t = BracketTable.zero(d)
            cr = build_cr_complex(InclusionPair.EXT_IN_TENSOR, t, 4)
            want = tuple(
                d * comb(d, p + 1) - comb(d, p + 2) for p in range(5)
            )
            assert cr.dims == want
            assert betti_table(cr).dims == want[:4]

    def test_abelian_sym_cr_dims(self):
        for d in (2, 3):
            t = BracketTable.zero(d)
            cr = build_cr_complex(InclusionPair.SYM_IN_TENSOR, t, 4)
            want = tuple(
                d * comb(d + p, p + 1) - comb(d + p + 1, p + 2) for p in range(5)
            )
            assert cr.dims == want

    def test_abelian_mixed_cr_dims(self):
        # the mixed space collapses to the alternating one past degree zero
        for d in (2, 3):
            t = BracketTable.zero(d)
            cr = build_cr_complex(InclusionPair.EXT_IN_SYM, t, 4)
            assert cr.dims == (d, 0, 0, 0, 0)

    def test_mixed_cr_builds_only_the_degrees_its_tower_reads(self):
        # the tower reads word degrees up to 7; a kernel of the unread
        # word-degree 8 constraint stack (6561 columns) peaked at 37 MiB
        heis3 = catalog("heis3")
        cr, _, peak = traced(lambda: build_cr_complex(InclusionPair.EXT_IN_SYM, heis3.table, 5))
        assert cr.dims == (3, 0, 0, 0, 0, 0)
        assert peak < 16 * 2**20

    def test_mixed_route_matches_tensor_ambient_oracle(self, monkeypatch):
        # the class spans of the symmetric dual-valued complex give the
        # tensor-ambient route's restr and mus bit for bit, and the class
        # map gives its eliminated cokernel tower, on every Lie table of
        # the survey
        built = {}
        real = comparison._product_cokernel

        def spy(pair, restr, classes, triv):
            built.update(restr=list(restr), classes=classes, triv=triv)
            return real(pair, restr, classes, triv)

        monkeypatch.setattr(comparison, "_product_cokernel", spy)
        pair = InclusionPair.EXT_IN_SYM
        for t in lie_survey_tables():
            restr, mus = dense.build_cr_mixed(t, coadjoint_module(t), 5)
            for n_cr_max in reversed(range(6)):
                cr = build_cr_complex(pair, t, n_cr_max)
                triv = built["triv"]
                got_mus = [
                    packed(WordMap(cls.size, triv.dims[p + 2], cls))
                    for p, cls in enumerate(built["classes"])
                ]
                want_restr, want_mus = restr[:n_cr_max], mus[: n_cr_max + 1]
                assert len(built["restr"]) == len(want_restr)
                assert len(got_mus) == len(want_mus)
                for got, w in zip(built["restr"] + got_mus, want_restr + want_mus):
                    assert_same_matrix(got, w)
                if n_cr_max == 5:  # the tower the tensor-ambient route built
                    want = dense.product_cokernel(pair, t, restr, mus, triv)
                assert cr.dims == want.dims[: n_cr_max + 1]
                assert cr.diffs == want.diffs[:n_cr_max]

    def test_tensor_pair_cokernels_match_the_eliminated_quotient(self):
        # the class map keeps each class's last coordinate where elimination
        # keeps its first: other coordinates, the same dims and cohomology
        n_cr_max = 5
        for pair in (InclusionPair.EXT_IN_TENSOR, InclusionPair.SYM_IN_TENSOR):
            scalar = INCLUSION_FLAVORS[pair][0]
            flavor = Flavor.EXT if pair is InclusionPair.EXT_IN_TENSOR else Flavor.SYM
            mus = {
                d: [dense.insert_pullback(flavor, scalar, d, p) for p in range(n_cr_max + 1)]
                for d in (1, 2, 3)
            }
            for t in lie_survey_tables():
                coad = coadjoint_module(t)
                restr = build_tower(flavor, t, coad, n_cr_max + 1).diffs[1:]
                triv = build_tower(scalar, t, trivial_module(t), n_cr_max + 2)
                want = dense.product_cokernel(pair, t, restr, mus[t.dim], triv)
                got = build_cr_complex(pair, t, n_cr_max)
                assert got.dims == want.dims
                assert betti_table(got).dims == betti_table(want).dims

    def test_cr_composition_zero(self):
        a = catalog("a")
        for pair in InclusionPair:
            cr = build_cr_complex(pair, a.table, 4)
            assert cr.check_composition()

    def test_cokernel_checks_name_their_degree(self):
        # the sym-in-tensor pieces of heis3, fed to the shared cokernel
        # builder intact, then with one forged entry or class each
        t = catalog("heis3").table
        pair = InclusionPair.SYM_IN_TENSOR
        coad = coadjoint_module(t)
        restr = list(build_tower(Flavor.SYM, t, coad, 4).diffs[1:])
        classes = [
            _index(Flavor.SYM, t.dim, comparison._dual_words(Flavor.SYM, t.dim, p))
            for p in range(4)
        ]
        triv = build_tower(Flavor.SYM, t, trivial_module(t), 5)
        cr = comparison._product_cokernel(pair, restr, classes, triv)
        assert cr.diffs == build_cr_complex(pair, t, 3).diffs

        bad = restr[1].to_dense()
        bad[0, np.flatnonzero(classes[1] >= 0)[0]] ^= 1
        forged = restr[:1] + [BitMatrix.from_dense(bad)] + restr[2:]
        with pytest.raises(GF2Error, match="not a chain map at degree 1"):
            comparison._product_cokernel(pair, forged, classes, triv)

        # class 1 merged into class 0 leaves class 1 with no member
        bad = np.where(classes[2] == 1, 0, classes[2])
        forged = classes[:2] + [bad] + classes[3:]
        with pytest.raises(GF2Error, match="not injective at degree 2"):
            comparison._product_cokernel(pair, restr, forged, triv)


def _product(pair, table, coeffs, n_max):
    return verify_e2_product(pair, table, coeffs, n_max, flavor_tables(table, coeffs, n_max))


class TestProducts:
    def test_dim_one_all_pairs(self):
        t = BracketTable.zero(1)
        for pair in InclusionPair:
            rep = _product(pair, t, trivial_module(t), 8)
            assert rep.ok, pair

    def test_abelian2_product_shapes(self):
        t = BracketTable.zero(2)
        triv = trivial_module(t)
        assert _product(InclusionPair.EXT_IN_TENSOR, t, triv, 8).ok
        assert _product(InclusionPair.SYM_IN_TENSOR, t, triv, 8).ok

    def test_abelian2_mixed_product_fails_dimensionally(self):
        # the relative dimensions (n+3) - C(2, n+2) cannot factor through
        # the symmetric Betti numbers: the first defect is 5 against 6
        t = BracketTable.zero(2)
        rep = _product(InclusionPair.EXT_IN_SYM, t, trivial_module(t), 8)
        assert not rep.ok
        assert (0, 2, 5, 6, False) in rep.entries
        assert rep.convergence_ok  # the pages still converge correctly

    def test_abelian2_mixed_product_with_vanishing_module(self):
        ab2 = catalog("abelian2")
        rep = _product(InclusionPair.EXT_IN_SYM, ab2.table, ab2.modules["flambda"], 8)
        assert rep.ok

    def test_worked_examples_informational(self):
        a = catalog("a")
        n = catalog("N")
        reps = {
            "a/lie-leibniz": _product(
                InclusionPair.EXT_IN_TENSOR, a.table, a.modules["trivial"], 7
            ),
            "a/lie-comm": _product(
                InclusionPair.EXT_IN_SYM, a.table, a.modules["trivial"], 7
            ),
            "a/comm-leibniz": _product(
                InclusionPair.SYM_IN_TENSOR, a.table, a.modules["trivial"], 7
            ),
            "N/comm-leibniz": _product(
                InclusionPair.SYM_IN_TENSOR, n.table, n.modules["trivial"], 7
            ),
        }
        for key, rep in reps.items():
            assert rep.convergence_ok, key
        # the two tensor-side identities hold on the worked examples
        assert reps["a/lie-leibniz"].ok
        assert reps["a/comm-leibniz"].ok
        assert reps["N/comm-leibniz"].ok


    def test_compare_ranks_each_flavor_table_once(self, monkeypatch):
        from commcoh import cli, cohomology, spectral

        towers = []
        real = cohomology.betti_table

        def spy(tower):
            towers.append(tower.label)
            return real(tower)

        for module in (cohomology, comparison, spectral):
            monkeypatch.setattr(module, "betti_table", spy)
        report, code = cli.run(["compare", "--algebra", "catalog:heis3", "--max-degree", "4"])
        assert code == 0
        # the flavor tables, the relative towers (convergence) and the product
        # cokernels (hr), each once and all on the one route
        want = ["ext", "sym", "tensor"] + [f"{kind}[{pair.value}]" for pair in InclusionPair for kind in ("cr", "rel")]
        assert sorted(towers) == sorted(want)

    @pytest.mark.parametrize("argv", [
        ["compare", "--algebra", "catalog:heis3", "--module", "adjoint", "--max-degree", "4"],
        ["hs-ss", "--algebra", "catalog:a", "--ideal", "e", "--max-degree", "6"],
        ["hs-ss", "--algebra", "catalog:heis3", "--subalgebra", "x", "--module", "adjoint", "--max-degree", "4"],
    ])
    def test_relative_and_adapted_towers_are_never_packed(self, argv, monkeypatch):
        # their pairing, ranks and checks read the generator; only the product
        # cokernels' source towers and the closed-form checks' towers are packed
        from commcoh import cli

        packed_labels, real = set(), cochain.ComplexTower.differential

        def spy(tower, n):
            packed_labels.add(tower.label)
            return real(tower, n)

        monkeypatch.setattr(cochain.ComplexTower, "differential", spy)
        report, code = cli.run(argv)
        assert code == 0
        assert packed_labels <= {"dual-valued", "scalar", "sub"}, packed_labels

    def test_compare_builds_no_sub_or_total_tower(self, monkeypatch):
        # the relative complexes come from the coboundary generator; only
        # the product cokernels hold a tower
        from commcoh import cli

        built, real = [], cochain.build_tower

        def spy(flavor, table, coeffs, n_max, label=""):
            built.append(label)
            return real(flavor, table, coeffs, n_max, label)

        for module in (cochain, comparison):
            monkeypatch.setattr(module, "build_tower", spy)
        report, code = cli.run(["compare", "--algebra", "catalog:heis3", "--max-degree", "4"])
        assert code == 0
        # the flavor tables' towers, and one dual-valued and one scalar tower
        # for each of the three pairs
        assert sorted(built) == ["dual-valued"] * 3 + ["ext", "scalar", "scalar", "scalar", "sym", "tensor"]

    @pytest.mark.parametrize("name", catalog_names())
    def test_partner_is_the_total_towers_cohomology(self, name):
        # the route the partner took before it was read from the flavor tables
        entry = catalog(name)
        for mod_name in ("trivial", "adjoint"):
            mod = entry.modules[mod_name]
            tables = flavor_tables(entry.table, mod, 6)
            for pair in applicable_pairs(entry.table):
                rel = build_relative_complex(pair, entry.table, mod, 4)
                rep = verify_e2_product(pair, entry.table, mod, 6, tables)
                _, total = dense.flavor_towers(rel)
                assert rep.partner == betti_oracle.betti_table(total).dims, (mod_name, pair)

    def test_product_check_drops_the_relative_complex(self):
        # heis3 lie-leibniz with trivial coefficients through degree 9: with each
        # relative differential transposed for its Betti table the check peaked
        # at 65.5 MiB; ranked by rows, 52.3 MiB while the relative complex's sub
        # and total towers were held through the pages, 45.2 MiB once dropped,
        # 32.1 MiB with no tower held; 12.6 MiB with no relative differential
        # packed
        entry = catalog("heis3")
        mod = entry.modules["trivial"]
        tables = flavor_tables(entry.table, mod, 9)
        rep, _, peak = traced(lambda: verify_e2_product(InclusionPair.EXT_IN_TENSOR, entry.table, mod, 9, tables))
        assert rep.ok
        assert peak < 20 * 2**20

    def test_partner_of_another_flavor_or_length_is_refused(self):
        t = BracketTable.zero(2)
        triv = trivial_module(t)
        tables = flavor_tables(t, triv, 6)
        cases = [
            (InclusionPair.SYM_IN_TENSOR, {**tables, "tensor": tables["sym"]}),
            (InclusionPair.EXT_IN_SYM, flavor_tables(t, triv, 5)),
            (InclusionPair.EXT_IN_TENSOR, {"sym": tables["sym"]}),
        ]
        for pair, bad in cases:
            total = INCLUSION_FLAVORS[pair][1].value
            with pytest.raises(GF2Error, match=f"^{pair.value} needs the {total} table through degree 5$"):
                verify_e2_product(pair, t, triv, 6, bad)


T, F = True, False
LT, LC, CT = InclusionPair.EXT_IN_TENSOR, InclusionPair.EXT_IN_SYM, InclusionPair.SYM_IN_TENSOR
# (d, k): orbit representative k of survey(d, up_to_iso=True), with trivial
# coefficients at relative degree 3; per applicable pair: verify_e2_product's
# convergence_ok, hr and product verdict, and long_exact_sequence_check's ok
SURVEY_VERDICTS = {
    (1, 0): {LT: (T, (1, 0, 0), T, T), LC: (T, (1, 0, 0), T, T), CT: (T, (0, 0, 0), T, T)},
    (2, 0): {LT: (T, (3, 2, 0), T, T), LC: (T, (2, 0, 0), F, T), CT: (T, (1, 2, 3), T, T)},
    (2, 1): {CT: (T, (1, 1, 0), T, T)},
    (2, 2): {LT: (T, (2, 1, 0), T, T), LC: (T, (2, 0, 0), F, T), CT: (T, (0, 1, 1), T, T)},
    (3, 0): {LT: (T, (6, 8, 3), T, T), LC: (T, (3, 0, 0), F, T), CT: (T, (3, 8, 15), T, T)},
    (3, 1): {CT: (T, (2, 3, 2), T, T)},
    (3, 2): {LT: (T, (4, 4, 1), T, T), LC: (T, (3, 0, 0), F, T), CT: (T, (1, 4, 7), T, T)},
    (3, 3): {CT: (T, (0, 1, 0), T, T)},
    (3, 4): {CT: (T, (1, 2, 1), T, T)},
    (3, 5): {LT: (T, (4, 4, 1), T, T), LC: (T, (3, 0, 0), F, T), CT: (T, (1, 4, 7), T, T)},
    (3, 6): {CT: (T, (1, 2, 1), T, T)},
    (3, 7): {LT: (T, (3, 2, 0), T, T), LC: (T, (3, 0, 0), F, T), CT: (T, (0, 2, 3), T, T)},
    (3, 8): {LT: (T, (3, 2, 0), T, T), LC: (T, (3, 0, 0), F, T), CT: (T, (0, 2, 3), T, T)},
    (3, 9): {LT: (T, (3, 2, 0), T, T), LC: (T, (3, 0, 0), F, T), CT: (T, (0, 2, 3), T, T)},
    (3, 10): {LT: (T, (3, 2, 0), T, T), LC: (T, (3, 0, 0), F, T), CT: (T, (0, 2, 3), T, T)},
}


class TestSurveyCorpus:
    """The 15 orbit representatives of dimension 1 to 3 through every route
    that reduces over GF(2): the pairing, the Betti route and the long exact
    sequence.  lie-comm's product verdict fails on every Lie orbit of
    dimension 2 and 3 (README, "The lie-comm mismatch")."""

    def test_pinned_verdicts(self):
        got = {}
        for d in (1, 2, 3):
            for k, table in enumerate(survey(d, True).rep_tables()):
                coeffs = trivial_module(table)
                tables = flavor_tables(table, coeffs, 5)
                got[(d, k)] = verdicts = {}
                for pair in applicable_pairs(table):
                    rep = verify_e2_product(pair, table, coeffs, 5, tables)
                    les = long_exact_sequence_check(build_relative_complex(pair, table, coeffs, 3))
                    verdicts[pair] = (rep.convergence_ok, rep.hr, not rep.mismatches(), les.ok)
        assert got == SURVEY_VERDICTS

    def test_lie_comm_mismatch_shape(self):
        """lie-comm's second page and product prediction, exactly, on the 9 Lie
        orbits of dimension 2 and 3 with trivial coefficients, relative degree
        4.  C10's proof for abelian(2) (test_acceptance) generalises to every
        commutative Lie algebra g of dimension d:

        1. Degree p of the CR complex is the mixed class span of the g*-valued
           symmetric (p+1)-cochains modulo the pulled-back alternating scalar
           (p+2)-cochains.  A class, the multiset of a combined word (args, y),
           dies when one of its members repeats a letter among its args, so
           the live classes are the (p+2)-sets and, at p = 0 only, the d
           doubles {a, a}.  The sets are the pulled-back coordinates, so the
           cokernel is d-dimensional at p = 0 and zero above, whatever the
           bracket: hr = (d, 0, 0, ...).
        2. The relative complex in word degree m is spanned by the monomials
           with a repeated letter, and step p >= 1 of the prefix filtration
           kills every word whose first p + 1 letters repeat one.  Each such
           monomial can be written with its repeated letter first, twice, so
           F^1 = 0 and E_0 is the column p = 0: E_2^{p,q} = 0 for p > 0 and
           E_2^{0,q} = dim H^q_rel = dim H^{q+2}(C_sym / C_ext).  C_ext is zero
           above word degree d, so the long exact sequence of 0 -> C_ext ->
           C_sym -> C_sym / C_ext -> 0 gives E_2^{0,q} = dim H^{q+2}_sym for
           q >= d - 1.
        3. The prediction is hr[p] * dim H^q_sym: d * dim H^q_sym at p = 0 and
           0 above.  Both sides vanish off p = 0; at p = 0 and q >= d - 1 the
           identity reads dim H^{q+2}_sym = d * dim H^q_sym, which fails at
           q = 2 on every orbit here.
        """
        pair, count = InclusionPair.EXT_IN_SYM, 0
        for d in (2, 3):
            for table in survey(d, True).rep_tables():
                if not classify_algebra(table).is_lie:
                    continue
                coeffs = trivial_module(table)
                tables = flavor_tables(table, coeffs, 6)
                sym = tables["sym"].dims
                rel = betti_table(build_relative_complex(pair, table, coeffs, 4)).dims
                assert not any(tables["ext"].dims[d + 1 :])
                assert all(rel[q] == sym[q + 2] for q in range(d - 1, 4))
                want = []
                for n in range(4):
                    for p in range(n + 1):
                        q = n - p
                        computed, predicted = (rel[q], d * sym[q]) if p == 0 else (0, 0)
                        want.append((p, q, computed, predicted, computed == predicted))
                rep = verify_e2_product(pair, table, coeffs, 6, tables)
                assert rep.hr == (d, 0, 0, 0)
                assert rep.entries == tuple(want)
                assert rep.convergence_ok and (0, 2) in [e[:2] for e in rep.mismatches()]
                count += 1
        assert count == 9


class TestPropagation:
    def test_window_bookkeeping(self):
        from commcoh.cohomology import BettiTable

        assert vanishing_window(BettiTable("", None, (0, 0, 1))) == 1
        assert vanishing_window(BettiTable("", None, (1, 0))) == -1
        assert vanishing_window(BettiTable("", None, (0, 0, 0))) == 2

    def test_abelian2_nontrivial_module(self):
        ab2 = catalog("abelian2")
        tables = flavor_tables(ab2.table, ab2.modules["flambda"], 8)
        reports = vanishing_propagation_report(tables)
        assert all(rep.ok for rep in reports)
        assert any(not rep.vacuous for rep in reports)
        assert all(v == 0 for v in tables["ext"].dims)

    def test_trivial_module_vacuous(self):
        a = catalog("a")
        reports = vanishing_propagation_report(flavor_tables(a.table, a.modules["trivial"], 6))
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
        tables = flavor_tables(n.table, n.modules["flambda"], 7)
        reports = vanishing_propagation_report(tables)
        for rep in reports:
            assert rep.ok, (rep.hypothesis, rep.conclusion)
