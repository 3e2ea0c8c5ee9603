"""Pages from the persistence pairing against the subspace-formula oracle.

Every entry of every page E_0 .. E_max(3, stabilization index), the
stable page, and each d_r rank are compared with the oracle in
page_oracle.py, on random filtered complexes and on every filtration
the package builds from the catalog.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commcoh.algebra import IdealVerdict, classify_algebra, is_ideal, trivial_module
from commcoh.catalog import catalog_names, parse_algebra_file
from commcoh.cochain import ComplexTower, Flavor, InclusionPair, build_tower
from commcoh.comparison import build_relative_complex, comparison_filtration
from commcoh import gf2, spectral
from commcoh.gf2 import BitMatrix, Subspace, inverse
from commcoh.spectral import (
    FiltrationError,
    FilteredTower,
    _adapted_basis,
    compute_pages,
    convergence_check,
    infinity_entries,
    stabilization_index,
    subalgebra_filtration,
)

from conftest import bench_workloads, catalog, class_leaders, raises_promptly, random_invertible, survey, traced
from dense_builders import spanned_chains, step_span, validate_chains
from page_oracle import oracle_infinity_entries, oracle_pages


def assert_pages_match_oracle(ft: FilteredTower) -> list:
    """The pages of ft against the oracle's, entry by entry; returns them."""
    pages = compute_pages(ft)
    want = oracle_pages(ft, max(3, stabilization_index(ft)))
    assert [p.r for p in pages] == [p.r for p in want]
    for page, ref in zip(pages, want):
        assert page.entries == ref.entries, page.r
        assert page.stable == ref.stable
        for pq, mat in ref.differentials.items():
            assert page.ranks[pq] == mat.rank(), (page.r, pq)
    # each page is the cohomology of the one before: an entry loses the
    # ranks of d_r out of it and into it; d_0 into (p, 0) leaves (p, -1),
    # outside the window
    for page, nxt in zip(pages, pages[1:]):
        r = page.r
        for (p, q), dim in page.entries.items():
            if q or r:
                into = page.ranks.get((p - r, q + r - 1), 0)
                assert nxt.entries[(p, q)] == dim - page.ranks[(p, q)] - into, (r, p, q)
    assert infinity_entries(ft) == oracle_infinity_entries(ft)
    assert convergence_check(ft, pages) == convergence_check(ft)
    return pages


def pages_one_class_per_part(ft: FilteredTower) -> list:
    """compute_pages(ft) at RANK_BLOCK_BYTES 1, where every weight class is
    its own part and every image block one basis row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "RANK_BLOCK_BYTES", 1)
        return compute_pages(ft)


def filtered_change(rng, lv) -> BitMatrix:
    """A random invertible matrix P with P[j, i] = 0 unless lv[j] >= lv[i].

    Such a P maps each coordinate span of the levels >= p onto itself.  It
    is drawn as B @ U: B invertible on each block of one level and zero
    across them, U the identity plus random entries where lv[j] > lv[i];
    every invertible matrix that keeps these spans factors so.
    """
    lv = np.asarray(lv, dtype=int)
    blocks = np.zeros((lv.size, lv.size), dtype=np.uint8)
    for f in set(lv.tolist()):
        at = np.flatnonzero(lv == f)
        blocks[np.ix_(at, at)] = random_invertible(rng, at.size).to_dense()
    lower = rng.integers(0, 2, (lv.size, lv.size)) * (lv[:, None] > lv[None, :])
    unipotent = (lower + np.eye(lv.size, dtype=int)).astype(np.uint8)
    return BitMatrix.from_dense(blocks) @ BitMatrix.from_dense(unipotent)


@st.composite
def interval_complexes(draw) -> FilteredTower:
    """A filtered complex: a sum of intervals, under a random change of basis.

    Every filtered complex over a field is a sum of intervals (a pair of
    basis vectors joined by d, or a lone vector) in some adapted basis.
    Step p is the span of the basis vectors of level >= p, and the change
    of basis keeps each step, so the draw reaches every filtered complex
    up to isomorphism.
    """
    n_max = draw(st.integers(1, 4))
    lengths = [draw(st.integers(1, 4)) for _ in range(n_max + 1)]
    levels = [
        draw(st.lists(st.integers(0, length - 1), max_size=5)) for length in lengths
    ]
    used = [set() for _ in levels]
    models = []
    for n in range(n_max):
        model = np.zeros((len(levels[n + 1]), len(levels[n])), dtype=np.uint8)
        for i, f in enumerate(levels[n]):
            free = [
                j for j, g in enumerate(levels[n + 1]) if g >= f and j not in used[n + 1]
            ]
            if i in used[n] or not free or not draw(st.booleans()):
                continue
            j = draw(st.sampled_from(free))
            model[j, i] = 1
            used[n].add(i)
            used[n + 1].add(j)
        models.append(model)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    changes = [filtered_change(rng, lv) for lv in levels]
    dims = tuple(len(lv) for lv in levels)
    diffs = tuple(
        changes[n + 1] @ BitMatrix.from_dense(models[n]) @ inverse(changes[n])
        for n in range(n_max)
    )
    filt = []
    for lv, length in zip(levels, lengths):
        lv, idx = np.array(lv, dtype=int), np.arange(len(lv))
        steps = [np.where(lv >= p, idx, -1) for p in range(length)]
        filt.append(tuple(steps) + (np.full(len(lv), -1),))
    ft = FilteredTower(ComplexTower.held(dims, diffs), tuple(filt))
    compute_pages(ft)  # raises unless the construction respects the filtration
    return ft


@settings(max_examples=150, deadline=None)
@given(interval_complexes())
def test_random_filtered_complexes(ft):
    assert_pages_match_oracle(ft)


@pytest.mark.parametrize("module", ["trivial", "adjoint"])
@pytest.mark.parametrize("name", catalog_names())
def test_catalog_subalgebra_filtrations(name, module):
    entry = catalog(name)
    checked = 0
    for h in entry.subspaces.values():
        if is_ideal(entry.table, h) is IdealVerdict.NOT_SUBALGEBRA:
            continue
        ft = subalgebra_filtration(entry.table, h, entry.modules[module], 5)
        assert pages_one_class_per_part(ft) == assert_pages_match_oracle(ft)
        checked += 1
    assert checked


COMPARISONS = [
    (pair.value, name)
    for name in catalog_names()
    for pair in InclusionPair
    if pair is InclusionPair.SYM_IN_TENSOR or classify_algebra(catalog(name).table).is_lie
]


@pytest.mark.parametrize("module", ["trivial", "adjoint"])
@pytest.mark.parametrize("pair, name", COMPARISONS)
def test_catalog_comparison_filtrations(pair, name, module):
    entry = catalog(name)
    pair = InclusionPair(pair)
    # degree 4 with adjoint coefficients takes the oracle about a second per case
    n_rel = 4 if module == "trivial" else 3
    ft = comparison_filtration(pair, build_relative_complex(pair, entry.table, entry.modules[module], n_rel))
    assert pages_one_class_per_part(ft) == assert_pages_match_oracle(ft)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spectral_files_match_oracle(seed):
    # the benchmark's seeded heis3 files (one-term brackets): each
    # comparison, and the filtration by the file's ideal h
    wl = bench_workloads()
    entry = parse_algebra_file(wl.heis3_file(*wl.draw_basis(seed, 1)))
    table, coeffs = entry.table, trivial_module(entry.table)
    fts = [comparison_filtration(p, build_relative_complex(p, table, coeffs, 3)) for p in InclusionPair]
    fts.append(subalgebra_filtration(table, entry.subspaces["h"], coeffs, 5))
    for ft in fts:
        assert pages_one_class_per_part(ft) == assert_pages_match_oracle(ft)


def test_dimension_three_corpus_matches_oracle():
    # every orbit representative of the survey in dimensions 1 to 3 (1, 3
    # and 11 orbits), each applicable comparison with trivial coefficients
    checked = 0
    for d in (1, 2, 3):
        for table in survey(d, up_to_iso=True).rep_tables():
            lie = classify_algebra(table).is_lie
            for pair in InclusionPair:
                if lie or pair is InclusionPair.SYM_IN_TENSOR:
                    rel = build_relative_complex(pair, table, trivial_module(table), 3)
                    ft = comparison_filtration(pair, rel)
                    assert pages_one_class_per_part(ft) == assert_pages_match_oracle(ft)
                    checked += 1
    assert checked == 35  # 10 of the 15 orbits are Lie algebras


@st.composite
def nested_partitions(draw):
    """Class-leader arrays from full to zero, each step merging classes of
    the last into fewer and killing some."""
    cols = draw(st.sampled_from([1, 5, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chain = [np.arange(cols)]
    for _ in range(draw(st.integers(0, 4))):
        lead = chain[-1]
        k = draw(st.integers(1, cols))
        # each class of the last step joins one of k classes, or dies (label k)
        label = rng.integers(0, k + 1, cols)[lead]
        chain.append(class_leaders(np.where((lead < 0) | (label == k), -1, label)))
    return tuple(chain) + (np.full(cols, -1),)


@settings(max_examples=100, deadline=None)
@given(nested_partitions())
def test_adapted_basis_levels_span_each_step(chain):
    levels, (k, i), coords = _adapted_basis(chain)
    cols = len(chain[0])
    assert (np.diff(k) >= 0).all()  # the ones are listed row by row
    rows = BitMatrix.from_coords(cols, cols, k, i)
    columns = rows.transpose()
    assert rows.rows == len(levels) == cols == rows.rank()
    # each row's leading one is its pivot, so the rows of level >= p are independent
    assert [int(np.flatnonzero(row)[0]) for row in rows.to_dense()] == coords.a.tolist()
    for p, step in enumerate(chain):
        keep = np.flatnonzero(np.array(levels, dtype=int) >= p)
        assert Subspace.from_rows(cols, BitMatrix(keep.size, cols, rows.words[keep])) == step_span(step)
    # coords writes each row as its own unit vector, so it inverts the basis
    assert coords @ columns == BitMatrix.identity(cols)
    assert levels == sorted(levels)


@pytest.mark.parametrize("pair, name", [
    (InclusionPair.SYM_IN_TENSOR, "heis3"), (InclusionPair.EXT_IN_TENSOR, "a"),
])
def test_pages_match_oracle_one_image_per_block(pair, name, monkeypatch):
    # 8 bytes packs each source's image as its own block; the pairing
    # reads the block size from gf2, as every other layer does
    monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", 8)
    blocks, real = [], spectral._rows_up
    monkeypatch.setattr(spectral, "_rows_up", lambda m: blocks.append(m.rows) or real(m))
    entry = catalog(name)
    rel = build_relative_complex(pair, entry.table, entry.modules["adjoint"], 3)
    assert_pages_match_oracle(comparison_filtration(pair, rel))
    assert blocks and set(blocks) == {1}


def test_top_pairing_holds_no_packed_images():
    # comm-leibniz on heis3 with trivial coefficients through relative
    # degree 7 (6516 -> 19628 at the top): the packed images and the square
    # packed target basis peaked at 86.8 MiB, the image blocks at 17.7 MiB;
    # the pages alone took 10.3 MiB paired a whole degree at a time, and
    # about 3.2 MiB a weight part at a time
    entry = catalog("heis3")
    rel = build_relative_complex(InclusionPair.SYM_IN_TENSOR, entry.table, entry.modules["trivial"], 7)
    ft = comparison_filtration(InclusionPair.SYM_IN_TENSOR, rel)
    pages, _, peak = traced(lambda: compute_pages(ft))
    assert peak < 6 * 2**20
    conv, _, peak = traced(lambda: convergence_check(ft, pages))
    assert conv.ok and ft.tower.dims[-2:] == (6516, 19628)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("block_bytes", [None, 1])
def test_lowest_degree_and_smallest_step_over_parts(block_bytes, monkeypatch):
    # heis3 with adjoint coefficients, by weight class (at 1 byte each
    # class is its own part, in the order of the weights): in degree 0 the
    # part of weight (0, 1, 0) leaves F^3, the later part (1, 0, 0) leaves
    # F^1, and the part (1, 1, -1), later still, leaves F^1 in degree 1
    if block_bytes:
        monkeypatch.setattr(gf2, "RANK_BLOCK_BYTES", block_bytes)
    entry = catalog("heis3")
    tower = build_tower(Flavor.SYM, entry.table, entry.modules["adjoint"], 2)
    levels = [{(0, 1, 0): 3, (1, 0, 0): 3}, {(0, 1, 0): 2, (1, 1, -1): 1}, {}]
    filt = []
    for n, at in enumerate(levels):
        lv = np.array([at.get(tuple(w), 0) for w in tower.weights(n).tolist()])
        filt.append(tuple(np.where(lv >= p, np.arange(lv.size), -1) for p in range(5)))
    with pytest.raises(FiltrationError) as want:
        validate_chains(tower, spanned_chains(tuple(filt)))
    with pytest.raises(FiltrationError) as got:
        compute_pages(FilteredTower(tower, tuple(filt)))
    assert str(got.value) == str(want.value) == "d F^1 C^0 not contained in F^1 C^1"


def test_non_nesting_steps_raise_promptly():
    full, zero = np.arange(2), np.full(2, -1)
    e0, e1 = np.array([0, -1]), np.array([-1, 1])
    tower = ComplexTower.held((2, 2), (BitMatrix.zeros(2, 2),))
    # e0 is not inside e1: the chain is refused when the tower is made
    make = lambda chain: FilteredTower(tower, (chain, (full, zero)))
    assert raises_promptly(lambda: make((full, e1, e0, zero)), FiltrationError)
    # so is a step whose entries are not the smallest members of their classes
    for bad in ([1, 1], [1, 0], [-1, 0], [0, 0, 1], [-2, 1]):
        assert raises_promptly(lambda: make((full, np.array(bad), zero)), FiltrationError)
