"""Tests for the filtration, page engine, and closed-form cross-checks."""

from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from commcoh import algebra, spectral
from commcoh.algebra import (
    BracketTable,
    IdealVerdict,
    adjoint_module,
    change_basis,
    is_ideal,
    module_change_basis,
    trivial_module,
)
from commcoh.catalog import catalog_names
from commcoh.cli import run
from commcoh.cochain import ComplexTower, Flavor, basis_tuples, build_tower
from commcoh.cohomology import betti_table
from commcoh.gf2 import BitMatrix, GF2Error, Subspace
from commcoh.spectral import (
    FilteredTower,
    FiltrationError,
    compute_pages,
    convergence_check,
    e2_closed_form_check,
    stabilization_index,
    subalgebra_filtration,
)

from conftest import (
    all_spans,
    bench_workloads,
    catalog,
    class_count,
    class_leaders,
    random_comm_lie_table,
    random_invertible,
    random_subalgebra,
    random_valid_module,
    survey,
)
from dense_builders import assert_steps_span, spanned_chains, validate_chains
from page_oracle import oracle_pages


def _filtration(name, module="trivial", sub="e", n_max=8):
    entry = catalog(name)
    return subalgebra_filtration(
        entry.table, entry.subspaces[sub], entry.modules[module], n_max
    )


def subalgebra_chains(ft) -> tuple:
    """The subalgebra filtration's steps as packed spans of unit rows, one
    per coordinate whose monomial has at most n - p factors in h."""
    d, h_dim, mdim = ft.tower.table.dim, ft.meta["split"].h_dim, ft.tower.coeffs.dim
    chains = []
    for n in range(ft.n_max + 1):
        monos = basis_tuples(Flavor.SYM, d, n)
        counts = np.array([sum(1 for i in mono if i < h_dim) for mono in monos])
        chain = []
        for p in range(n + 2):
            cols = (np.flatnonzero(counts <= n - p)[:, None] * mdim + np.arange(mdim)).ravel()
            rows = BitMatrix.from_coords(cols.size, ft.tower.dims[n], np.arange(cols.size), cols)
            chain.append(Subspace(ft.tower.dims[n], rows, tuple(cols.tolist())))
        chains.append(tuple(chain))
    return tuple(chains)


@st.composite
def forged_chains(draw):
    """A catalog tower with a chain of class-leader arrays per degree that
    may fail each check: a forged first or last step, a step that splits a
    class of the last or holds a coordinate outside it, or classes that d
    leaves."""
    entry = catalog(draw(st.sampled_from(["N", "a", "heis3"])))
    module = draw(st.sampled_from(["trivial", "adjoint"]))
    tower = build_tower(Flavor.SYM, entry.table, entry.modules[module], draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    filt = []
    for dim in tower.dims:
        chain = [np.arange(dim)]
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(1, dim + 1))
            if draw(st.booleans()):  # merge classes of the last step and kill some
                label = rng.integers(-1, k, dim)[chain[-1]]
                chain.append(class_leaders(np.where(chain[-1] < 0, -1, label)))
            else:  # any classes at all
                chain.append(class_leaders(rng.integers(-1, k, dim)))
        chain.append(np.full(dim, -1))
        if draw(st.integers(0, 5)) == 0:  # forge the first or the last step
            at = draw(st.sampled_from([0, -1]))
            chain[at] = class_leaders(rng.integers(-1, dim + 1, dim))
        filt.append(tuple(chain))
    return tower, tuple(filt)


def _nested(rng, dim: int, depth: int) -> tuple:
    """Class-leader arrays from full to zero, each step merging classes of
    the last and killing some."""
    chain = [np.arange(dim)]
    for _ in range(depth):
        k = int(rng.integers(1, dim + 2))
        # each class of the last step joins one of k classes, or dies (label k)
        label = rng.integers(0, k + 1, dim)[chain[-1]]
        chain.append(class_leaders(np.where((chain[-1] < 0) | (label == k), -1, label)))
    return tuple(chain) + (np.full(dim, -1),)


@st.composite
def compatible_complexes(draw):
    """Nested chains and differentials that map every step into the same
    step one degree up, with images that cancel outside a step.

    Column c of d^n is a sum of class indicators of F^q C^{n+1}, q the last
    step holding c, so each member's image lies in every step that holds
    it.  Then for two coordinates a, b one indicator of a class of F^q is
    added to both columns, q the last step where a and b are not in one
    class (nor both outside it): in the deeper steps the two copies cancel.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(0, 9), min_size=2, max_size=4))
    filt = [_nested(rng, dim, draw(st.integers(0, 3))) for dim in dims]
    diffs = []
    for n in range(len(dims) - 1):
        lo, hi = np.stack(filt[n]), filt[n + 1]
        r, c = [], []

        def add(cols, q):  # a random class indicator of F^q C^{n+1} into each of cols
            step = hi[min(q, len(hi) - 1)]
            if (step >= 0).any():
                rows = np.flatnonzero(step == rng.choice(step[step >= 0]))
                for col in cols:
                    r.extend(rows.tolist())
                    c.extend([col] * rows.size)

        last = (lo >= 0).sum(axis=0) - 1  # the last step holding each coordinate
        for col in range(dims[n]):
            for _ in range(int(rng.integers(0, 3))):
                add([col], last[col])
        for _ in range(int(rng.integers(0, 4)) if dims[n] > 1 else 0):
            a, b = rng.choice(dims[n], 2, replace=False)
            add([a, b], int(np.flatnonzero(lo[:, a] != lo[:, b]).max()))
        diffs.append(BitMatrix.from_coords(dims[n + 1], dims[n], r, c))
    return ComplexTower.held(dims, diffs), tuple(filt)


def _verdicts(tower, filt) -> tuple:
    """The messages the pairing (FilteredTower, then compute_pages) and the
    pivot-column oracle raise on (tower, filt), None where one passes."""
    out = []
    for check in (
        lambda: compute_pages(FilteredTower(tower, filt)),
        lambda: validate_chains(tower, spanned_chains(filt)),
    ):
        try:
            check()
            out.append(None)
        except FiltrationError as exc:
            out.append(str(exc))
    return tuple(out)


class TestFiltration:
    def test_boundary_steps(self):
        ft = _filtration("N", n_max=6)
        for n in range(7):
            chain = ft.filt[n]
            assert class_count(chain[0]) == ft.tower.dims[n]
            assert class_count(chain[-1]) == 0
            assert len(chain) == n + 2

    def test_nilpotent_degree_two_dims(self):
        # functionals on e.e, e.f, f.f; one subalgebra slot allowed in F^1,
        # none in F^2
        ft = _filtration("N", n_max=4)
        dims = [class_count(s) for s in ft.filt[2]]
        assert dims == [3, 2, 1, 0]

    def test_graded_piece_formula(self):
        # dim F^p - dim F^{p+1} counts split monomials times the module
        for name, sub in (("N", "e"), ("a", "e"), ("heis3", "z")):
            entry = catalog(name)
            d = entry.table.dim
            dh = entry.subspaces[sub].dim
            dq = d - dh
            for module in ("trivial", "adjoint"):
                mdim = entry.modules[module].dim
                ft = subalgebra_filtration(
                    entry.table, entry.subspaces[sub], entry.modules[module], 5
                )
                for n in range(6):
                    for p in range(n + 1):
                        got = class_count(ft.filt[n][p]) - class_count(ft.filt[n][p + 1])
                        q = n - p
                        want = (
                            comb(dh + q - 1, q) * comb(dq + p - 1, p) * mdim
                        )
                        assert got == want, (name, module, n, p)

    def test_subalgebra_only_input(self):
        ft = _filtration("a", sub="h", n_max=6)
        assert "subalgebra" in ft.label

    def test_rejects_non_subalgebra(self):
        heis = catalog("heis3")
        span = Subspace.from_rows(3, np.eye(3, dtype=np.uint8)[:2])
        with pytest.raises(Exception):
            subalgebra_filtration(heis.table, span, heis.modules["trivial"], 4)

    def test_validator_catches_incompatible_chain(self):
        entry = catalog("N")
        tower = build_tower(Flavor.SYM, entry.table, entry.modules["trivial"], 3)
        bad = []
        for n in range(4):
            full = np.arange(tower.dims[n])
            zero = np.full(tower.dims[n], -1)
            if n == 2:
                # a line the differential does not respect
                mid = np.where(full == 0, 0, -1)
                bad.append((full, mid, zero))
            else:
                bad.append((full, zero))
        ft = FilteredTower(tower, tuple(bad))
        with pytest.raises(FiltrationError):
            compute_pages(ft)

    def test_non_subalgebra_steps_raise_on_every_pairing_route(self):
        # the subalgebra filtration's steps for span{x, y} of heis3, which
        # subalgebra_filtration refuses ([x, y] = z): the pages, the stable
        # entries and the convergence check each pair the tower, and raise
        # the pivot-column oracle's message
        heis = catalog("heis3")
        tower = build_tower(Flavor.SYM, heis.table, heis.modules["trivial"], 4)
        filt = []
        for n in range(5):
            counts = np.array([sum(i < 2 for i in mono) for mono in basis_tuples(Flavor.SYM, 3, n)])
            idx = np.arange(counts.size)
            filt.append(tuple(np.where(counts <= n - p, idx, -1) for p in range(n + 2)))
        with pytest.raises(FiltrationError) as want:
            validate_chains(tower, spanned_chains(tuple(filt)))
        assert str(want.value) == "d F^1 C^1 not contained in F^1 C^2"
        ft = FilteredTower(tower, tuple(filt))
        with pytest.raises(FiltrationError) as got:
            compute_pages(ft)
        assert str(got.value) == str(want.value)

    def test_random_subalgebras_compatible(self):
        rng = np.random.default_rng(30)
        built = 0
        for _ in range(12):
            d = int(rng.integers(2, 4))
            t = random_comm_lie_table(rng, d)
            h = random_subalgebra(rng, t)
            mod = random_valid_module(rng, t)
            ft = subalgebra_filtration(t, h, mod, 5)
            compute_pages(ft)  # pairing the tower checks d-compatibility
            assert_steps_span(ft, subalgebra_chains(ft))
            built += 1
        assert built == 12

    @pytest.mark.parametrize("module", ["trivial", "adjoint", "flambda"])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_steps_match_unit_row_spans(self, name, module):
        entry = catalog(name)
        checked = 0
        for h in entry.subspaces.values():
            if is_ideal(entry.table, h) is IdealVerdict.NOT_SUBALGEBRA:
                continue
            ft = subalgebra_filtration(entry.table, h, entry.modules[module], 5)
            assert_steps_span(ft, subalgebra_chains(ft))
            checked += 1
        assert checked

    @settings(max_examples=60, deadline=None)
    @given(forged_chains())
    # d sends the one coordinate of C^0 to e_0, which the class {0, 1} of F^1 C^1 lacks
    @example((ComplexTower.held((1, 2), (BitMatrix.from_dense([[1], [0]]),)),
              ((np.arange(1), np.arange(1), np.full(1, -1)),
               (np.arange(2), np.zeros(2, dtype=int), np.full(2, -1)))))
    def test_forged_chains_raise_where_the_oracle_does(self, forged):
        # the structure is checked when the tower is made, d-compatibility
        # when it is paired; the pivot-column oracle checks both at once
        got, want = _verdicts(*forged)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(compatible_complexes(), st.data())
    def test_coordinate_check_matches_oracle_on_one_bit_flips(self, drawn, data):
        tower, filt = drawn
        assert _verdicts(tower, filt) == (None, None)
        flippable = [n for n, d in enumerate(tower.diffs) if d.rows and d.cols]
        if not flippable:
            return
        n = data.draw(st.sampled_from(flippable))
        d = tower.diffs[n].to_dense()
        d[data.draw(st.integers(0, d.shape[0] - 1)), data.draw(st.integers(0, d.shape[1] - 1))] ^= 1
        diffs = tower.diffs[:n] + (BitMatrix.from_dense(d),) + tower.diffs[n + 1 :]
        got, want = _verdicts(ComplexTower.held(tower.dims, diffs), filt)
        assert got == want

    @pytest.mark.parametrize(
        "d, up, error",
        [
            # both members of the class {0, 1} hit row 0, outside F^1 C^1: they cancel
            ([[1, 1], [0, 0]], [-1, -1], None),
            # the image e_0 covers half of the class {0, 1} of F^1 C^1
            ([[1, 0], [0, 0]], [0, 0], "d F^1 C^0 not contained in F^1 C^1"),
            # the image e_0 has a row in no class of F^1 C^1; row 1 is a class of one
            ([[1, 0], [0, 0]], [-1, 1], "d F^1 C^0 not contained in F^1 C^1"),
        ],
    )
    def test_coordinate_check_reads_odd_rows_whole_classes_and_live_rows(self, d, up, error):
        tower = ComplexTower.held((2, 2), (BitMatrix.from_dense(d),))
        full, zero = np.arange(2), np.full(2, -1)
        filt = ((full, np.zeros(2, dtype=int), zero), (full, np.array(up), zero))
        assert _verdicts(tower, filt) == (error, error)

    def test_smallest_step_left_is_reported(self):
        # C^0 coordinates 0, 1 at levels 2, 3; C^1 coordinates 0, 1, 2 at
        # levels 0, 1, 2.  d e_1 = e_1, paired first, leaves F^2 and F^3;
        # d e_0 = e_0 leaves F^1 and F^2: the smallest step left is 1, not 2
        tower = ComplexTower.held((2, 3), (BitMatrix.from_dense([[1, 0], [0, 1], [0, 0]]),))
        lo = (np.arange(2),) * 3 + (np.array([-1, 1]), np.full(2, -1))
        hi = (np.arange(3), np.array([-1, 1, 2]), np.array([-1, -1, 2]), np.full(3, -1))
        error = "d F^1 C^0 not contained in F^1 C^1"
        assert _verdicts(tower, (lo, hi)) == (error, error)


class TestPages:
    def test_zero_differential_pages_constant(self):
        t = BracketTable.zero(2)
        h = Subspace.from_rows(2, np.array([[1, 0]], dtype=np.uint8))
        ft = subalgebra_filtration(t, h, trivial_module(t), 5)
        pages = oracle_pages(ft)
        for page in pages[1:]:
            assert page.entries == pages[0].entries
            for mat in page.differentials.values():
                assert mat.is_zero()

    def test_nilpotent_e2_all_one_dimensional(self):
        ft = _filtration("N", n_max=7)
        pages = compute_pages(ft)
        for (p, q), dim in pages[2].entries.items():
            assert dim == 1, (p, q)

    def test_pages_shrink(self):
        for name in ("N", "a"):
            ft = _filtration(name, n_max=6)
            pages = compute_pages(ft)
            for r in range(len(pages) - 1):
                for pq, dim in pages[r + 1].entries.items():
                    assert dim <= pages[r].entries[pq]

    def test_dr_squares_to_zero(self):
        for name in ("N", "a"):
            ft = _filtration(name, n_max=7)
            pages = oracle_pages(ft)
            for page in pages[1:]:
                r = page.r
                for (p, q), mat in page.differentials.items():
                    nxt = page.differentials.get((p + r, q - r + 1))
                    if nxt is not None:
                        assert (nxt @ mat).is_zero()

    def test_stabilization_flag(self):
        ft = _filtration("N", n_max=5)
        pages = compute_pages(ft)
        assert pages[-1].stable
        assert stabilization_index(ft) == max(len(c) for c in ft.filt) + 1


class TestConvergence:
    @pytest.mark.parametrize("name", ["N", "a"])
    def test_worked_examples(self, name):
        ft = _filtration(name, n_max=8)
        report = convergence_check(ft, compute_pages(ft))
        assert report.ok
        direct = betti_table(ft.tower)
        for n, (total, hn, ok) in report.per_degree.items():
            assert ok and total == direct[n]

    def test_subalgebra_case_converges(self):
        ft = _filtration("a", sub="h", n_max=7)
        assert convergence_check(ft, compute_pages(ft)).ok

    def test_pages_not_ending_stable_are_refused(self):
        # the stable page is read as the last page, never paired again
        ft = _filtration("N", n_max=6)
        for pages in (compute_pages(ft)[:1], []):
            with pytest.raises(GF2Error, match="stable page"):
                convergence_check(ft, pages)


class TestClosedForms:
    @pytest.mark.parametrize("name", ["N", "a", "abelian2", "abelian3"])
    @pytest.mark.parametrize("module", ["trivial", "flambda"])
    def test_catalog_ideal_cases(self, name, module):
        entry = catalog(name)
        sub = entry.ideals[0]
        ft = subalgebra_filtration(entry.table, entry.subspaces[sub], entry.modules[module], 7)
        report = e2_closed_form_check(ft, compute_pages(ft))
        assert report.ok, report.mismatches()[:4]

    def test_vanishing_coefficients_zero_page(self):
        # a one-dimensional ideal acting by one kills every second-page entry
        entry = catalog("abelian2")
        ft = subalgebra_filtration(entry.table, entry.subspaces["e0"], entry.modules["flambda"], 6)
        report = e2_closed_form_check(ft, compute_pages(ft))
        assert report.ok
        assert all(v == 0 for v in report.hs_sub)

    def test_ideals_of_the_dim_three_orbits(self):
        # h's module, the quotient and the outer actions are blocks of the adapted table and module
        count = 0
        for t in survey(3, True).rep_tables():
            for h in (h for h in all_spans(3) if is_ideal(t, h) is IdealVerdict.IDEAL):
                for mod in (trivial_module(t), adjoint_module(t)):
                    ft = subalgebra_filtration(t, h, mod, 4)
                    report = e2_closed_form_check(ft, compute_pages(ft))
                    assert report.ok, report.mismatches()[:4]
                    count += 1
        assert count == 2 * 67  # 67 of the 11 x 16 spans are ideals

    def test_subalgebra_filtration_is_refused(self):
        ft = _filtration("a", sub="h", n_max=5)
        with pytest.raises(GF2Error, match="^not an ideal$"):
            e2_closed_form_check(ft, compute_pages(ft))

    def test_hs_ss_splits_the_algebra_once(self, monkeypatch):
        # the verdict, then one split, whose adapted table the filtration and the E_2 check share
        calls = Counter()

        def spy(fn):
            def counted(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(algebra, "is_ideal", spy(algebra.is_ideal))
        split = spy(algebra.quotient_algebra)
        for module in (algebra, spectral):
            monkeypatch.setattr(module, "quotient_algebra", split)
        report, code = run(["hs-ss", "--algebra", "catalog:heis3", "--ideal", "z", "--max-degree", "4"])
        assert code == 0 and report["payload"]["subalgebra_cohomology"]
        assert calls == {"quotient_algebra": 1, "is_ideal": 2}

    def test_each_quotient_module_is_ranked_once(self, monkeypatch, tmp_path):
        # the benchmark's `hs-ss --ideal h --max-degree 8` on its seed-1 heis3
        # file: H^q(h) is one module for every q > 0, so the E_2 check ranks
        # one quotient tower, beside h's tower and the convergence check's;
        # one quotient tower per q made 12 calls
        calls, real = [], betti_table
        monkeypatch.setattr(spectral, "betti_table", lambda tower: calls.append(tower.label) or real(tower))
        wl = bench_workloads()
        f = tmp_path / "heis3.alg"
        f.write_text(wl.heis3_file(*wl.draw_basis(1, 1)))
        report, code = run(["hs-ss", "--algebra", str(f), "--ideal", "h", "--max-degree", "8"])
        assert code == 0 and all(c["passed"] for c in report["checks"])
        assert sorted(calls) == ["adapted", "quot", "sub"]

    def test_solvable_action_alternates(self):
        # the quotient generator acts on the subalgebra cohomology by the
        # degree parity, so the second page vanishes in odd rows
        ft = _filtration("a", n_max=7)
        pages = compute_pages(ft)
        for (p, q), dim in pages[2].entries.items():
            assert dim == (1 if q % 2 == 0 else 0)

    def test_basis_change_leaves_page_dims(self):
        rng = np.random.default_rng(31)
        entry = catalog("N")
        p = random_invertible(rng, 2)
        t2 = change_basis(entry.table, p)
        mod2 = module_change_basis(entry.modules["trivial"], p)
        h2 = Subspace.from_rows(
            2, entry.subspaces["e"].basis @ __import__("commcoh.gf2", fromlist=["inverse"]).inverse(p.transpose()).transpose()
        )
        ft1 = _filtration("N", n_max=6)
        ft2 = subalgebra_filtration(t2, h2, mod2, 6)
        p1 = compute_pages(ft1)
        p2 = compute_pages(ft2)
        for r in range(3):
            assert p1[r].entries == p2[r].entries
