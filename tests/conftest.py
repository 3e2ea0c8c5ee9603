"""Shared helpers: catalog access, random valid inputs, independent oracles.

The oracles deliberately avoid the package's matrix machinery: ranks are
computed by Gaussian elimination on int bitmasks, differentials by
evaluating the coboundary formula on dictionaries of tuples.
"""

from __future__ import annotations

import importlib.util
import threading
import tracemalloc
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from commcoh.algebra import (
    BracketTable,
    ModuleSpec,
    coadjoint_module,
    flambda_module,
    trivial_module,
)
from commcoh import comparison
from commcoh.catalog import load_catalog, parse_algebra_file, survey_enumerate
from commcoh.cochain import INCLUSION_FLAVORS, _index, _monomials, basis_dim
from commcoh.gf2 import BitMatrix, Subspace, WordMap, inverse

from dense_builders import packed
from page_oracle import annihilator


@lru_cache(maxsize=None)
def catalog(name):
    return load_catalog(name)


@lru_cache(maxsize=None)
def survey(d, up_to_iso=False):
    return survey_enumerate(d, up_to_iso=up_to_iso)


@lru_cache(maxsize=None)
def bench_workloads():
    """bench/workloads.py, which writes the benchmark's seeded heis3 files."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("commcoh_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def heis3_tables(z_terms: int) -> list:
    """heis3 in every basis the benchmark draws from for brackets of z_terms terms."""
    wl = bench_workloads()
    bases = [(g, inv) for g, inv in wl.gl3() if sum(inv[2]) == z_terms]
    return [parse_algebra_file(wl.heis3_file(g, inv)).table for g, inv in bases]


def heis3_table(z_terms: int, seed: int = 1) -> BracketTable:
    """The benchmark's heis3 table of that seed and number of bracket terms."""
    wl = bench_workloads()
    return parse_algebra_file(wl.heis3_file(*wl.draw_basis(seed, z_terms))).table


def inclusion_class_map(pair, d, m, mdim):
    """The class map of pair's quotient at word degree m, as the relative
    complex builds it: (generator words, last, incl, pi, sigma), with incl
    packed from the class array and the generator words read off pi.a."""
    sub, total = INCLUSION_FLAVORS[pair]
    words, n_sub = _monomials(total, d, m), basis_dim(sub, d, m)
    cls = _index(sub, d, words)
    last, pi = comparison._class_map(cls, n_sub, mdim)
    incl = packed(WordMap(cls.size * mdim, n_sub * mdim, comparison._expand(cls, mdim)))
    return words[pi.a[::mdim] // mdim], last, incl, pi, comparison._section(pi)


@st.composite
def tables_and_actions(draw):
    """Arbitrary bracket tables with arbitrary action tensors."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    bits = lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))
    return BracketTable(draw(bits((d, d, d)))), ModuleSpec(m, draw(bits((d, m, m))))


def random_invertible(rng, n):
    while True:
        m = BitMatrix.from_dense(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
        if m.rref()[1] == n:
            return m


def random_comm_lie_table(rng, d) -> BracketTable:
    """Uniform choice from the enumerated valid tables of that dimension."""
    pool = survey(d).tables
    return BracketTable(pool[rng.integers(0, len(pool))])


def random_valid_module(rng, table: BracketTable, max_dim=2) -> ModuleSpec:
    """A random coefficient module known to satisfy the axiom."""
    d = table.dim
    choices = ["trivial1", "trivial2", "flambda"]
    if d <= max_dim:
        choices.append("coadjoint")
    kind = choices[rng.integers(0, len(choices))]
    if kind == "trivial1":
        mod = trivial_module(table, 1)
    elif kind == "trivial2":
        mod = trivial_module(table, 2)
    elif kind == "coadjoint":
        mod = coadjoint_module(table)
    else:
        # annihilator of the derived span, the span of all brackets
        ann = annihilator(Subspace.from_rows(table.dim, table.c.reshape(-1, table.dim)))
        if ann.dim == 0:
            mod = trivial_module(table, 1)
        else:
            coeffs = rng.integers(0, 2, size=ann.dim, dtype=np.uint8)
            lam = (coeffs.astype(np.int64) @ ann.basis.to_dense().astype(np.int64)) % 2
            mod = flambda_module(table, lam.astype(np.uint8))
    if mod.dim > 1 and rng.integers(0, 2):
        s = random_invertible(rng, mod.dim)
        sd = s.to_dense().astype(np.int64)
        si = inverse(s).to_dense().astype(np.int64)
        rho = np.array(
            [(sd @ r.astype(np.int64) @ si) % 2 for r in mod.rho], dtype=np.uint8
        )
        mod = ModuleSpec(mod.dim, rho)
    return mod


def bimodule_axioms_oracle(table: BracketTable, left, right):
    """(ok, axiom, pair) of the three Leibniz bimodule axioms, checked in
    turn over every basis pair, for left and right action tensors."""
    c, li, ri = (np.asarray(a, dtype=np.int64) for a in (table.c, left, right))
    act = lambda rho, vec: np.einsum("i,imn->mn", vec, rho) % 2
    d = table.dim
    for i in range(d):
        for j in range(d):
            if not np.array_equal(act(li, c[i, j]), (li[i] @ li[j] + li[j] @ li[i]) % 2):
                return False, "left-module", (i, j)
    for i in range(d):
        for j in range(d):
            # x.(m.y) = (x.m).y + m.[x,y]
            if not np.array_equal((li[i] @ ri[j]) % 2, (ri[j] @ li[i] + act(ri, c[i, j])) % 2):
                return False, "left-middle", (i, j)
            # m.[x,y] = (m.x).y + x.(m.y)
            if not np.array_equal(act(ri, c[i, j]), (ri[j] @ ri[i] + li[i] @ ri[j]) % 2):
                return False, "middle-right", (i, j)
    return True, None, None


def random_subalgebra(rng, table: BracketTable) -> Subspace:
    """Bracket-closure of a random vector (possibly the whole algebra)."""
    d = table.dim
    v = rng.integers(0, 2, size=d, dtype=np.uint8)
    if not v.any():
        v[rng.integers(0, d)] = 1
    span = Subspace.from_rows(d, v.reshape(1, -1))
    while True:
        dense = span.basis.to_dense()
        closed = Subspace.from_rows(d, BitMatrix.vstack(span.basis, table.brackets(dense, dense)))
        if closed == span:
            return span
        span = closed


# -- independent oracles ------------------------------------------------


def oracle_rank(rows) -> int:
    """Gaussian elimination over GF(2) on int bitmasks."""
    pivots = {}
    for r in rows:
        while r:
            b = r.bit_length() - 1
            if b in pivots:
                r ^= pivots[b]
            else:
                pivots[b] = r
                break
    return len(pivots)


def oracle_sym_differential(c, rho, mdim, n):
    """Coboundary on symmetric n-cochains as int-bitmask rows.

    Row (monomial w of degree n+1, value row r): bitmask over columns
    (degree-n monomial, value column).  Independent of the package.
    """
    d = len(c)
    monos_n = list(combinations_with_replacement(range(d), n))
    monos_n1 = list(combinations_with_replacement(range(d), n + 1))
    col = {w: i for i, w in enumerate(monos_n)}
    rows = []
    for w in monos_n1:
        block = [0] * mdim
        for i in range(n + 1):
            sub = tuple(sorted(w[:i] + w[i + 1 :]))
            a = rho[w[i]]
            for r_out in range(mdim):
                for c_in in range(mdim):
                    if a[r_out][c_in]:
                        block[r_out] ^= 1 << (col[sub] * mdim + c_in)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                vec = c[w[i]][w[j]]
                rest = w[:i] + w[i + 1 : j] + w[j + 1 :]
                for k in range(d):
                    if vec[k]:
                        arg = tuple(sorted((k,) + rest))
                        for r_out in range(mdim):
                            block[r_out] ^= 1 << (col[arg] * mdim + r_out)
        rows.extend(block)
    return rows, len(monos_n) * mdim


def oracle_sym_betti(table: BracketTable, mod, n_max):
    """Betti numbers of the symmetric complex via the bitmask oracle."""
    c = table.c.tolist()
    rho = mod.rho.tolist()
    mdim = mod.dim
    dims = []
    prev_rank = 0
    from math import comb

    for n in range(n_max):
        rows, ncols = oracle_sym_differential(c, rho, mdim, n)
        rank = oracle_rank(rows)
        space = comb(table.dim + n - 1, n) * mdim
        dims.append(space - rank - prev_rank)
        prev_rank = rank
    return dims


def subspace_vectors(s: Subspace):
    """All vectors of a (small) subspace, for exhaustive-enumeration oracles."""
    dense = s.basis.to_dense()
    out = []
    for code in range(1 << s.dim):
        v = np.zeros(s.ambient_dim, dtype=np.uint8)
        for i in range(s.dim):
            if (code >> i) & 1:
                v ^= dense[i]
        out.append(tuple(int(x) for x in v))
    return set(out)


def all_spans(d: int) -> set:
    """Every subspace of F_2^d, once each."""
    vecs = [np.array(v, dtype=np.uint8) for v in product((0, 1), repeat=d)][1:]
    rows = (np.array(r) for k in range(1, d + 1) for r in combinations(vecs, k))
    return {Subspace.zero(d), *(Subspace.from_rows(d, r) for r in rows)}


def class_count(lead) -> int:
    """The dimension of a filtration step: one indicator row per class."""
    return len(np.unique(lead[lead >= 0]))


def class_leaders(labels) -> np.ndarray:
    """Each entry's label replaced by the first index carrying it; a
    negative label (no class) becomes -1."""
    first = {}
    return np.array(
        [first.setdefault(x, i) if x >= 0 else -1 for i, x in enumerate(labels)], dtype=np.int64
    )


def traced(fn):
    """(fn(), bytes it left allocated, its peak bytes), counting only what
    fn allocates, as tracemalloc traces it."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def raises_promptly(fn, errors, seconds=10.0):
    """Whether fn raises one of errors within seconds, run on a daemon thread
    so that a loop fails the test instead of hanging the suite."""
    caught = []

    def target():
        try:
            fn()
        except errors as exc:
            caught.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    return not worker.is_alive() and bool(caught)
