"""Deeper cross-checks: independent tensor oracle, degeneration facts,
random-filtration convergence, and induced-map fuzzing."""

import numpy as np
import pytest

from commcoh.algebra import BracketTable, trivial_module
from commcoh.cochain import Flavor, build_tower
from commcoh.cohomology import betti_table
from commcoh.gf2 import BitMatrix, Subspace
from commcoh.spectral import (
    compute_pages,
    convergence_check,
    subalgebra_filtration,
)

from conftest import (
    catalog,
    oracle_rank,
    random_comm_lie_table,
    random_subalgebra,
    random_valid_module,
    subspace_vectors,
)
from dense_builders import QuotientCoords, induced_map
from page_oracle import (
    apply_to_subspace,
    oracle_pages,
    quotient_dim,
    subspace_intersect,
    subspace_sum,
)


def oracle_tensor_betti(table, mod, n_max):
    """Tensor-flavor Betti numbers via int-bitmask elimination.

    Evaluates the coboundary with the bracket landing in the slot of the
    second argument; kept free of the package's matrix machinery.
    """
    from itertools import product as iproduct

    d = table.dim
    c = table.c.tolist()
    rho = mod.rho.tolist()
    mdim = mod.dim
    dims = []
    prev_rank = 0
    for n in range(n_max):
        words_n = list(iproduct(range(d), repeat=n))
        col = {w: i for i, w in enumerate(words_n)}
        rows = []
        for w in iproduct(range(d), repeat=n + 1):
            block = [0] * mdim
            for i in range(n + 1):
                sub = w[:i] + w[i + 1 :]
                a = rho[w[i]]
                for r_out in range(mdim):
                    for c_in in range(mdim):
                        if a[r_out][c_in]:
                            block[r_out] ^= 1 << (col[sub] * mdim + c_in)
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    vec = c[w[i]][w[j]]
                    base = w[:i] + w[i + 1 :]
                    for k in range(d):
                        if vec[k]:
                            arg = base[: j - 1] + (k,) + base[j:]
                            for r_out in range(mdim):
                                block[r_out] ^= 1 << (col[arg] * mdim + r_out)
            rows.extend(block)
        rank = oracle_rank(rows)
        dims.append(d**n * mdim - rank - prev_rank)
        prev_rank = rank
    return dims


class TestTensorOracle:
    def test_catalog_against_oracle(self):
        for name in ("N", "a", "heis3"):
            entry = catalog(name)
            got = betti_table(
                build_tower(Flavor.TENSOR, entry.table, entry.modules["trivial"], 4)
            )
            want = oracle_tensor_betti(entry.table, entry.modules["trivial"], 4)
            assert list(got.dims) == want, name

    def test_random_against_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(8):
            t = random_comm_lie_table(rng, 2)
            mod = random_valid_module(rng, t)
            got = betti_table(build_tower(Flavor.TENSOR, t, mod, 3))
            assert list(got.dims) == oracle_tensor_betti(t, mod, 3)


class TestDegeneration:
    def test_nilpotent_stops_at_page_three(self):
        # the ideal filtration of the nilpotent example needs exactly one
        # nonzero differential page: the third page already carries the
        # cohomology, the second does not
        n = catalog("N")
        ft = subalgebra_filtration(n.table, n.subspaces["e"], n.modules["trivial"], 8)
        pages = compute_pages(ft)
        inf = pages[-1].entries
        assert pages[3].entries == inf
        assert pages[2].entries != inf

    def test_nilpotent_second_differential_pattern(self):
        # exact second differentials: nonzero off the rows the stable page
        # keeps; in particular both total degrees 1 and 3 die, which the
        # parity-count shortcut for the published table misses at degree 3
        n = catalog("N")
        ft = subalgebra_filtration(n.table, n.subspaces["e"], n.modules["trivial"], 8)
        pages = oracle_pages(ft)
        nonzero = {pq for pq, m in pages[2].differentials.items() if not m.is_zero()}
        assert (0, 1) in nonzero
        assert (0, 3) in nonzero

    def test_solvable_stops_at_page_two(self):
        a = catalog("a")
        ft = subalgebra_filtration(a.table, a.subspaces["e"], a.modules["trivial"], 8)
        pages = compute_pages(ft)
        assert pages[2].entries == pages[-1].entries


class TestRandomFiltrations:
    def test_convergence_on_random_subalgebras(self):
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(10):
            d = int(rng.integers(2, 4))
            t = random_comm_lie_table(rng, d)
            h = random_subalgebra(rng, t)
            mod = random_valid_module(rng, t)
            ft = subalgebra_filtration(t, h, mod, 5)
            report = convergence_check(ft, compute_pages(ft))
            assert report.ok, (t.c.tolist(), h.basis.to_dense().tolist())
            checked += 1
        assert checked == 10

    def test_quotient_dimension_example(self):
        # cocycles modulo coboundaries in degree one of the nilpotent
        # example: a single class
        from dense_builders import boundaries, cycles

        n = catalog("N")
        tower = build_tower(Flavor.SYM, n.table, n.modules["trivial"], 4)
        assert quotient_dim(cycles(tower, 1), boundaries(tower, 1)) == 1


class TestInducedMapFuzz:
    def test_against_enumeration(self):
        # induced quotient maps agree with brute-force coset chasing on
        # small ambient spaces
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = BitMatrix.from_dense(rng.integers(0, 2, (n, n), dtype=np.uint8))
            dom_b = Subspace.from_rows(n, rng.integers(0, 2, (1, n), dtype=np.uint8))
            dom_a = subspace_sum(
                dom_b, Subspace.from_rows(n, rng.integers(0, 2, (2, n), dtype=np.uint8))
            )
            cod_d = subspace_sum(
                apply_to_subspace(m, dom_b),
                Subspace.from_rows(n, rng.integers(0, 2, (1, n), dtype=np.uint8)),
            )
            cod_c = subspace_sum(cod_d, apply_to_subspace(m, dom_a))
            qd = QuotientCoords(dom_a, dom_b)
            qc = QuotientCoords(cod_c, cod_d)
            got = induced_map(m, qd, qc)
            # brute force: the image of every domain vector must land in
            # the coset the matrix predicts
            for v in subspace_vectors(dom_a):
                vv = np.array(v, dtype=np.uint8)
                coords = qd.project_rows(BitMatrix.from_dense(vv.reshape(1, -1)))
                img = m.to_dense().astype(int) @ vv % 2
                want = qc.project_rows(BitMatrix.from_dense(img.reshape(1, -1)))
                pred = got @ coords.transpose()
                assert pred == want.transpose()

    def test_subspace_lattice_distributivity_modular(self):
        # the modular law holds when one side contains the other
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = 6
            a = Subspace.from_rows(n, rng.integers(0, 2, (3, n), dtype=np.uint8))
            b = Subspace.from_rows(n, rng.integers(0, 2, (2, n), dtype=np.uint8))
            c = subspace_sum(a, Subspace.from_rows(n, rng.integers(0, 2, (1, n), dtype=np.uint8)))
            # a <= c: a + (b intersect c) == (a + b) intersect c
            lhs = subspace_sum(a, subspace_intersect(b, c))
            rhs = subspace_intersect(subspace_sum(a, b), c)
            assert lhs == rhs
