"""Tests for the filtration, page engine, and closed-form cross-checks."""

from math import comb

import numpy as np
import pytest

from commcoh.algebra import BracketTable, change_basis, module_change_basis, trivial_module
from commcoh.cochain import Flavor, build_tower
from commcoh.cohomology import betti_table
from commcoh.gf2 import Subspace
from commcoh.spectral import (
    FilteredTower,
    FiltrationError,
    compute_pages,
    convergence_check,
    e2_closed_form_check,
    infinity_entries,
    stabilization_index,
    subalgebra_filtration,
    validate_filtration,
)

from conftest import catalog, random_comm_lie_table, random_invertible, random_subalgebra, random_valid_module
from page_oracle import oracle_pages


def _filtration(name, module="trivial", sub="e", n_max=8):
    entry = catalog(name)
    return subalgebra_filtration(
        entry.table, entry.subspaces[sub], entry.modules[module], n_max
    )


class TestFiltration:
    def test_boundary_steps(self):
        ft = _filtration("N", n_max=6)
        for n in range(7):
            chain = ft.filt[n]
            assert chain[0].dim == ft.tower.dims[n]
            assert chain[-1].dim == 0
            assert len(chain) == n + 2

    def test_nilpotent_degree_two_dims(self):
        # functionals on e.e, e.f, f.f; one subalgebra slot allowed in F^1,
        # none in F^2
        ft = _filtration("N", n_max=4)
        dims = [s.dim for s in ft.filt[2]]
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
                        got = ft.filt[n][p].dim - ft.filt[n][p + 1].dim
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
            full = Subspace.full(tower.dims[n])
            zero = Subspace.zero(tower.dims[n])
            if n == 2:
                # a line the differential does not respect
                mid = Subspace.from_rows(
                    tower.dims[n], np.eye(tower.dims[n], dtype=np.uint8)[:1]
                )
                bad.append((full, mid, zero))
            else:
                bad.append((full, zero))
        ft = FilteredTower(tower, tuple(bad))
        with pytest.raises(FiltrationError):
            validate_filtration(ft)

    def test_random_subalgebras_compatible(self):
        rng = np.random.default_rng(30)
        built = 0
        for _ in range(12):
            d = int(rng.integers(2, 4))
            t = random_comm_lie_table(rng, d)
            h = random_subalgebra(rng, t)
            mod = random_valid_module(rng, t)
            subalgebra_filtration(t, h, mod, 5)  # validates on construction
            built += 1
        assert built == 12


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
        report = convergence_check(ft)
        assert report.ok
        direct = betti_table(ft.tower)
        for n, (total, hn, ok) in report.per_degree.items():
            assert ok and total == direct[n]

    def test_subalgebra_case_converges(self):
        ft = _filtration("a", sub="h", n_max=7)
        assert convergence_check(ft).ok

    def test_infinity_matches_stable_page(self):
        ft = _filtration("N", n_max=6)
        pages = compute_pages(ft)
        inf = infinity_entries(ft)
        assert all(pages[-1].entries[pq] == dim for pq, dim in inf.items())


class TestClosedForms:
    @pytest.mark.parametrize("name", ["N", "a", "abelian2", "abelian3"])
    @pytest.mark.parametrize("module", ["trivial", "flambda"])
    def test_catalog_ideal_cases(self, name, module):
        entry = catalog(name)
        sub = entry.ideals[0]
        report = e2_closed_form_check(
            entry.table, entry.subspaces[sub], entry.modules[module], 7
        )
        assert report.ok, report.mismatches()[:4]

    def test_vanishing_coefficients_zero_page(self):
        # a one-dimensional ideal acting by one kills every second-page entry
        entry = catalog("abelian2")
        report = e2_closed_form_check(
            entry.table, entry.subspaces["e0"], entry.modules["flambda"], 6
        )
        assert report.ok
        assert all(v == 0 for v in report.hs_sub)

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
