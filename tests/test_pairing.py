"""Pages from the persistence pairing against the subspace-formula oracle.

Every entry of every page E_0 .. E_max(3, stabilization index), the
stable page, and each d_r rank are compared with the oracle in
page_oracle.py, on random filtered complexes and on every filtration
the package builds from the catalog.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commcoh.algebra import IdealVerdict, classify_algebra, is_ideal
from commcoh.catalog import catalog_names
from commcoh.cochain import ComplexTower, InclusionPair
from commcoh.comparison import build_relative_complex, comparison_filtration
from commcoh import spectral
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
    validate_filtration,
)

from conftest import catalog, class_leaders, raises_promptly, random_invertible
from dense_builders import step_span
from page_oracle import oracle_infinity_entries, oracle_pages


def assert_pages_match_oracle(ft: FilteredTower) -> None:
    r_max = max(3, stabilization_index(ft))
    pages = compute_pages(ft, r_max)
    want = oracle_pages(ft, r_max)
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
    ft = FilteredTower(ComplexTower(dims, diffs, None), tuple(filt))
    validate_filtration(ft)
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
        assert_pages_match_oracle(subalgebra_filtration(entry.table, h, entry.modules[module], 5))
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
    rel = build_relative_complex(pair, entry.table, entry.modules[module], n_rel)
    assert_pages_match_oracle(comparison_filtration(pair, rel))


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
    # 8 bytes packs each source's image as its own block
    monkeypatch.setattr(spectral, "RANK_BLOCK_BYTES", 8)
    entry = catalog(name)
    rel = build_relative_complex(pair, entry.table, entry.modules["adjoint"], 3)
    assert_pages_match_oracle(comparison_filtration(pair, rel))


def test_top_pairing_holds_no_packed_images():
    # comm-leibniz on heis3 with trivial coefficients through relative
    # degree 7 (6516 -> 19628 at the top): the packed images and the square
    # packed target basis peaked at 86.8 MiB, the image blocks at 17.7 MiB
    entry = catalog("heis3")
    rel = build_relative_complex(InclusionPair.SYM_IN_TENSOR, entry.table, entry.modules["trivial"], 7)
    ft = comparison_filtration(InclusionPair.SYM_IN_TENSOR, rel)
    tracemalloc.start()
    try:
        conv = convergence_check(ft, compute_pages(ft))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert conv.ok and ft.tower.dims[-2:] == (6516, 19628)
    assert peak < 32 * 2**20


def test_non_nesting_steps_raise_promptly():
    full, zero = np.arange(2), np.full(2, -1)
    e0, e1 = np.array([0, -1]), np.array([-1, 1])
    tower = ComplexTower((2, 2), (BitMatrix.zeros(2, 2),), None)
    # e0 is not inside e1: the chain is refused when the tower is made
    make = lambda chain: FilteredTower(tower, (chain, (full, zero)))
    assert raises_promptly(lambda: make((full, e1, e0, zero)), FiltrationError)
    # so is a step whose entries are not the smallest members of their classes
    for bad in ([1, 1], [1, 0], [-1, 0], [0, 0, 1], [-2, 1]):
        assert raises_promptly(lambda: make((full, np.array(bad), zero)), FiltrationError)
