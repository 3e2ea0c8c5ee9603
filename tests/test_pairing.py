"""Pages from the persistence pairing against the subspace-formula oracle.

Every entry of every page E_0 .. E_max(3, stabilization index), the
stable page, and each d_r rank are compared with the oracle in
page_oracle.py, on random filtered complexes and on every filtration
the package builds from the catalog.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commcoh.algebra import IdealVerdict, classify_algebra, is_ideal
from commcoh.catalog import catalog_names
from commcoh.cochain import ComplexTower, InclusionPair
from commcoh.comparison import build_relative_complex, comparison_filtration
from commcoh.gf2 import BitMatrix, GF2Error, Subspace, inverse
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

from conftest import catalog, raises_promptly, random_invertible
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


@st.composite
def interval_complexes(draw) -> FilteredTower:
    """A filtered complex: a sum of intervals, written in a random basis.

    Every filtered complex over a field is a sum of intervals (a pair of
    basis vectors joined by d, or a lone vector) in some adapted basis,
    so a random invertible change of basis in each degree reaches every
    filtered complex with the drawn levels.
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
    changes = [random_invertible(rng, len(lv)) for lv in levels]
    dims = tuple(len(lv) for lv in levels)
    diffs = tuple(
        changes[n + 1] @ BitMatrix.from_dense(models[n]) @ inverse(changes[n])
        for n in range(n_max)
    )
    filt = []
    for n, lv in enumerate(levels):
        # column i of the change of basis is the basis vector of level lv[i]
        vectors = changes[n].transpose().to_dense()
        chain = [
            Subspace.from_rows(dims[n], BitMatrix.from_dense(vectors[np.array(lv, dtype=int) >= p]))
            for p in range(lengths[n])
        ]
        filt.append(tuple(chain) + (Subspace.zero(dims[n]),))
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
def nested_chains(draw):
    """full = F^0 >= F^1 >= ... >= 0, each step spanned by random rows of the last."""
    cols = draw(st.sampled_from([1, 5, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chain = [Subspace.full(cols)]
    for _ in range(draw(st.integers(0, 4))):
        above = chain[-1]
        k = draw(st.integers(0, above.dim + 1))
        rows = rng.integers(0, 2, (k, above.dim)) @ above.basis.to_dense().astype(np.int64) % 2
        chain.append(Subspace.from_rows(cols, BitMatrix.from_dense(rows)))
    return tuple(chain) + (Subspace.zero(cols),)


@settings(max_examples=100, deadline=None)
@given(nested_chains())
def test_adapted_basis_levels_span_each_step(chain):
    picks, pivots, levels = _adapted_basis(chain)
    cols = chain[0].ambient_dim
    rows = BitMatrix.vstack(*(BitMatrix(len(k), cols, words[k]) for words, k in picks))
    assert rows.rows == len(pivots) == len(levels) == cols == rows.rank()
    # each row's leading one is its pivot, so the rows of level >= p are independent
    assert [int(np.flatnonzero(row)[0]) for row in rows.to_dense()] == pivots
    for p, step in enumerate(chain):
        keep = np.flatnonzero(np.array(levels, dtype=int) >= p)
        assert Subspace.from_rows(cols, BitMatrix(keep.size, cols, rows.words[keep])) == step


def test_non_nesting_steps_raise_promptly():
    full, zero = Subspace.full(2), Subspace.zero(2)
    e0, e1 = (Subspace.from_rows(2, BitMatrix.from_dense([row])) for row in ([1, 0], [0, 1]))
    tower = ComplexTower((2, 2), (BitMatrix.zeros(2, 2),), None)
    ft = FilteredTower(tower, ((full, e1, e0, zero), (full, zero)))  # e0 is not inside e1
    assert raises_promptly(lambda: compute_pages(ft), FiltrationError)
    assert raises_promptly(lambda: infinity_entries(ft), FiltrationError)
    assert raises_promptly(lambda: validate_filtration(ft), FiltrationError)
    # a step whose rows are swapped against its recorded pivots is refused when made
    swapped = BitMatrix.from_dense([[0, 1], [1, 0]])
    chain = lambda: (Subspace(2, swapped, (0, 1)), zero)
    bad = lambda: validate_filtration(FilteredTower(tower, (chain(), chain())))
    assert raises_promptly(bad, (GF2Error, FiltrationError))
