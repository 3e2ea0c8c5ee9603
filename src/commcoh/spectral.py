"""Spectral sequences of finitely filtered cochain towers.

Pages are computed from the filtration by the general subspace formulas

    Z_r(p, q) = F^p C^n  intersect  d^{-1}(F^{p+r} C^{n+1}),      n = p + q,
    E_r(p, q) = Z_r(p, q) / (Z_{r-1}(p+1, q-1) + d Z_{r-1}(p-r+1, q+r-2)),

never by transcribing hand identifications; closed forms are cross
checks, so a discrepancy with a pencil computation is surfaced rather
than baked in.  Entries touching the truncation degree are excluded
from convergence checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .algebra import (
    BimoduleSpec,
    BracketTable,
    ModuleSpec,
    SubalgebraSplit,
    as_coefficients,
    change_basis,
    check_module_axioms,
    module_change_basis,
    quotient_algebra,
)
from .cochain import (
    ComplexTower,
    Flavor,
    _block_matrix,
    basis_tuples,
    build_tower,
    derivation_operator_matrix,
)
from .cohomology import betti_table, induced_map_on_cohomology
from .gf2 import (
    BitMatrix,
    GF2Error,
    Subspace,
    apply_to_subspace,
    induced_map,
    preimage,
    quotient_dim,
    subspace_intersect,
    subspace_sum,
)

__all__ = [
    "FiltrationError",
    "FilteredTower",
    "Page",
    "subalgebra_filtration",
    "compute_pages",
    "infinity_entries",
    "ConvergenceReport",
    "convergence_check",
    "ClosedFormReport",
    "e2_closed_form_check",
]


class FiltrationError(ValueError):
    """A filtration violates boundary conventions or d-compatibility."""


@dataclass(frozen=True)
class FilteredTower:
    """A cochain tower with a decreasing chain of subspaces per degree.

    filt[n] runs from the full space down to the zero space; the chain is
    bookkept even when consecutive steps coincide.  Chains are always
    normalized to start at internal index 0; index_offset records the
    conventional starting index of the same chain (some filtrations are
    customarily written from index 1).
    """

    tower: ComplexTower
    filt: tuple  # per degree: tuple of Subspace, filt[n][0] full, last zero
    label: str = ""
    index_offset: int = 0
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n_max(self) -> int:
        return self.tower.n_max

    def step(self, n: int, p: int) -> Subspace:
        """F^p at degree n, clamped: full below the chain, zero above."""
        chain = self.filt[n]
        return chain[min(max(p, 0), len(chain) - 1)]

    def max_length(self) -> int:
        return max(len(chain) for chain in self.filt)


def validate_filtration(ft: FilteredTower) -> None:
    for n, chain in enumerate(ft.filt):
        if chain[0].dim != ft.tower.dims[n]:
            raise FiltrationError(f"degree {n}: chain does not start at the full space")
        if chain[-1].dim != 0:
            raise FiltrationError(f"degree {n}: chain does not end at zero")
        for p in range(len(chain) - 1):
            if not chain[p].contains(chain[p + 1]):
                raise FiltrationError(f"degree {n}: chain not decreasing at step {p}")
    for n in range(ft.n_max):
        dt = ft.tower.differential(n).transpose()
        for p, sub in enumerate(ft.filt[n]):
            if sub.dim == 0:
                continue
            img = sub.basis @ dt
            if not ft.step(n + 1, p).reduce_rows(img).is_zero():
                raise FiltrationError(
                    f"d F^{p} C^{n} not contained in F^{p} C^{n + 1}"
                )


def subalgebra_filtration(
    table: BracketTable, h: Subspace, coeffs, n_max: int
) -> FilteredTower:
    """Filtration of the symmetric complex by the count of subalgebra slots.

    The complex is rebuilt in an adapted basis (h first); F^p C^n is then
    the span of coordinate functionals on monomials with at most n - p
    factors in the h block, i.e. the annihilator of the monomials with at
    least n - p + 1 such factors.  d-compatibility is verified.
    """
    coeffs = as_coefficients(table, coeffs)
    split = quotient_algebra(table, h, require_ideal=False)
    t_ad = change_basis(table, split.adapted)
    m_ad = module_change_basis(coeffs, split.adapted)
    tower = build_tower(Flavor.SYM, t_ad, m_ad, n_max, label="adapted")
    mdim = coeffs.dim
    h_dim = split.h_dim
    filt = []
    for n in range(n_max + 1):
        monos = basis_tuples(Flavor.SYM, table.dim, n)
        counts = np.array([sum(1 for i in mono if i < h_dim) for mono in monos])
        chain = []
        dim_n = tower.dims[n]
        for p in range(n + 2):
            keep = np.flatnonzero(counts <= n - p)
            terms = [(np.arange(len(keep)), keep, None)]
            rows = _block_matrix((len(keep), len(monos)), mdim, terms)
            chain.append(Subspace.from_rows(dim_n, rows))
        filt.append(tuple(chain))
    ft = FilteredTower(
        tower,
        tuple(filt),
        label=f"subalgebra-filtration[{split.verdict.value}]",
        meta={"split": split, "coeffs": coeffs, "table": table},
    )
    validate_filtration(ft)
    return ft


@dataclass(frozen=True)
class Page:
    r: int
    entries: dict  # (p, q) -> dimension
    differentials: dict  # (p, q) -> BitMatrix into (p + r, q - r + 1)
    stable: bool


class _PageEngine:
    def __init__(self, ft: FilteredTower):
        self.ft = ft
        self._z_cache = {}
        self._img_cache = {}

    def _z(self, r: int, p: int, q: int) -> Subspace:
        n = p + q
        ft = self.ft
        if r <= 0:
            return ft.step(n, p)
        chain = ft.filt[n]
        p_eff = min(max(p, 0), len(chain) - 1)
        chain_up = ft.filt[n + 1]
        pr_eff = min(max(p + r, 0), len(chain_up) - 1)
        key = (n, p_eff, pr_eff)
        hit = self._z_cache.get(key)
        if hit is not None:
            return hit
        num = subspace_intersect(
            chain[p_eff], preimage(ft.tower.differential(n), chain_up[pr_eff])
        )
        self._z_cache[key] = num
        return num

    def _boundary_part(self, r: int, p: int, q: int) -> Subspace:
        """d Z_{r-1}(p - r + 1, q + r - 2), living in degree p + q."""
        n = p + q
        if n - 1 < 0:
            return Subspace.zero(self.ft.tower.dims[n])
        src = self._z(r - 1, p - r + 1, q + r - 2)
        key = (n - 1, src)
        hit = self._img_cache.get(key)
        if hit is not None:
            return hit
        img = apply_to_subspace(self.ft.tower.differential(n - 1), src)
        self._img_cache[key] = img
        return img

    def numerator(self, r: int, p: int, q: int) -> Subspace:
        return self._z(r, p, q)

    def denominator(self, r: int, p: int, q: int) -> Subspace:
        if r == 0:
            return self.ft.step(p + q, p + 1)
        return subspace_sum(
            self._z(r - 1, p + 1, q - 1), self._boundary_part(r, p, q)
        )

    def entry_dim(self, r: int, p: int, q: int) -> int:
        return quotient_dim(self.numerator(r, p, q), self.denominator(r, p, q))

    def d_matrix(self, r: int, p: int, q: int) -> BitMatrix:
        n = p + q
        return induced_map(
            self.ft.tower.differential(n),
            self.numerator(r, p, q),
            self.denominator(r, p, q),
            self.numerator(r, p + r, q - r + 1),
            self.denominator(r, p + r, q - r + 1),
        )


def stabilization_index(ft: FilteredTower) -> int:
    return ft.max_length() + 1


def compute_pages(ft: FilteredTower, r_max: int | None = None) -> list:
    """Pages E_0 .. E_{r_max}; entries cover p, q >= 0 with p + q < n_max.

    Differentials are attached wherever both source and target stay in
    the reliable window.  A page is stable once r exceeds the filtration
    length in every total degree.
    """
    r_stab = stabilization_index(ft)
    if r_max is None:
        r_max = max(r_stab, 3)
    engine = _PageEngine(ft)
    window = [
        (p, q)
        for n in range(ft.n_max)
        for p in range(n + 1)
        for q in [n - p]
    ]
    pages = []
    for r in range(r_max + 1):
        entries = {}
        diffs = {}
        for p, q in window:
            entries[(p, q)] = engine.entry_dim(r, p, q)
        if r >= 1:
            for p, q in window:
                tp, tq = p + r, q - r + 1
                if tq < 0 or tp + tq >= ft.n_max:
                    continue
                if entries[(p, q)] == 0:
                    continue
                diffs[(p, q)] = engine.d_matrix(r, p, q)
        pages.append(Page(r, entries, diffs, stable=r >= r_stab))
    return pages


def infinity_entries(ft: FilteredTower) -> dict:
    """Stable page entries, p + q < n_max."""
    engine = _PageEngine(ft)
    r = stabilization_index(ft)
    out = {}
    for n in range(ft.n_max):
        for p in range(n + 1):
            out[(p, n - p)] = engine.entry_dim(r, p, n - p)
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    per_degree: dict  # n -> (sum of stable entries, cohomology dim, ok)

    @property
    def ok(self) -> bool:
        return all(v[2] for v in self.per_degree.values())


def convergence_check(ft: FilteredTower) -> ConvergenceReport:
    """Strong convergence: stable page sums equal cohomology, per degree."""
    inf = infinity_entries(ft)
    h = betti_table(ft.tower)
    per = {}
    for n in range(ft.n_max - 1):
        total = sum(inf[(p, n - p)] for p in range(n + 1))
        per[n] = (total, h[n], total == h[n])
    return ConvergenceReport(per)


def restrict_coefficients(split: SubalgebraSplit, coeffs: BimoduleSpec) -> BimoduleSpec:
    """Coefficients as a module over the subalgebra, in its basis."""
    hb = split.h.basis.to_dense()
    left = np.array([coeffs.action(row) for row in hb], dtype=np.uint8)
    if left.size == 0:
        left = np.zeros((split.h_dim, coeffs.dim, coeffs.dim), dtype=np.uint8)
    return BimoduleSpec(coeffs.dim, left, left)


def outer_derivative_operator(
    split: SubalgebraSplit, coeffs: BimoduleSpec, x, n: int
) -> BitMatrix:
    """Lie derivative of an ambient element on the subalgebra complex.

    The element acts on values through the ambient module and on
    arguments through the projected adjoint action; for ideals every
    bracket [x, h] falls back into the subalgebra, which is checked.
    """
    x = np.asarray(x, dtype=np.uint8) & 1
    a = coeffs.action(x)
    hb = split.h.basis.to_dense()
    b = np.zeros((split.h_dim, split.h_dim), dtype=np.uint8)
    pivots = list(split.h.pivots)
    for idx in range(split.h_dim):
        w = split.table.bracket(x, hb[idx])
        if not split.h.contains_vector(w):
            raise GF2Error("element does not normalize the subalgebra")
        b[:, idx] = w[pivots]
    return derivation_operator_matrix(Flavor.SYM, split.h_dim, coeffs.dim, a, b, n)


def induced_cohomology_action(
    split: SubalgebraSplit,
    coeffs: BimoduleSpec,
    h_tower: ComplexTower,
    n: int,
    x,
) -> BitMatrix:
    """Action of an ambient element on H^n of the subalgebra complex."""
    op = outer_derivative_operator(split, coeffs, x, n)
    return induced_map_on_cohomology(h_tower, n, op)


@dataclass(frozen=True)
class ClosedFormReport:
    """Per-page comparison of engine entries against closed-form values."""

    rows: tuple  # (r, p, q, computed, predicted, match)
    hs_sub: tuple  # HS of the subalgebra complex

    @property
    def ok(self) -> bool:
        return all(row[5] for row in self.rows)

    def mismatches(self):
        return [row for row in self.rows if not row[5]]


def e2_closed_form_check(
    table: BracketTable, h: Subspace, coeffs, n_max: int, pages=None
) -> ClosedFormReport:
    """Check E_0, E_1, E_2 of an ideal filtration against closed forms.

    E_0 entries are graded Hom-space dimension counts; E_1 pairs the
    quotient monomials with the subalgebra cohomology; E_2 is the
    commutative cohomology of the quotient with coefficients in the
    subalgebra cohomology carrying the induced action.
    """
    coeffs = as_coefficients(table, coeffs)
    split = quotient_algebra(table, h, require_ideal=True)
    if pages is None:
        ft = subalgebra_filtration(table, h, coeffs, n_max)
        pages = compute_pages(ft, max(3, stabilization_index(ft)))
    h_coeffs = restrict_coefficients(split, coeffs)
    h_tower = build_tower(Flavor.SYM, split.h_table, h_coeffs, n_max, label="sub")
    hs_sub = betti_table(h_tower)
    mdim = coeffs.dim
    dh, dq = split.h_dim, split.q_dim
    sect = split.section.transpose().to_dense()  # rows: complement vectors

    def sym_count(d, n):
        return comb(d + n - 1, n) if d else int(n == 0)

    rows = []
    for n in range(n_max):
        for p in range(n + 1):
            q = n - p
            e0 = sym_count(dh, q) * sym_count(dq, p) * mdim
            rows.append((0, p, q, pages[0].entries[(p, q)], e0, pages[0].entries[(p, q)] == e0))

    for q in range(n_max):
        acts = np.zeros((dq, hs_sub[q], hs_sub[q]), dtype=np.uint8)
        for k in range(dq):
            acts[k] = induced_cohomology_action(
                split, coeffs, h_tower, q, sect[k]
            ).to_dense()
        hq_module = ModuleSpec(hs_sub[q], acts)
        check = check_module_axioms(split.q_table, hq_module)
        if not check.ok:
            raise GF2Error(
                f"induced action on H^{q} is not a quotient module (pair {check.pair})"
            )
        p_top = n_max - 1 - q
        if p_top < 0:
            continue
        if hs_sub[q] == 0:
            e2_of_p = [0] * (p_top + 1)
        else:
            q_tower = build_tower(
                Flavor.SYM, split.q_table, hq_module, p_top + 1, label="quot"
            )
            e2_of_p = list(betti_table(q_tower).dims)
        for p in range(p_top + 1):
            e1 = sym_count(dq, p) * hs_sub[q]
            rows.append((1, p, q, pages[1].entries[(p, q)], e1, pages[1].entries[(p, q)] == e1))
            e2 = e2_of_p[p]
            rows.append((2, p, q, pages[2].entries[(p, q)], e2, pages[2].entries[(p, q)] == e2))
    return ClosedFormReport(tuple(rows), tuple(hs_sub.dims))
