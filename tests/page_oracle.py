"""Test oracle for spectral-sequence pages: the general subspace formulas.

    Z_r(p, q) = F^p C^n  intersect  d^{-1}(F^{p+r} C^{n+1}),      n = p + q,
    E_r(p, q) = Z_r(p, q) / (Z_{r-1}(p+1, q-1) + d Z_{r-1}(p-r+1, q+r-2)),

with every d_r written out as a matrix on the quotients.  The package
reads page dimensions from one persistence pairing per degree; this
engine reaches the same numbers by intersections, preimages and sums of
subspaces, a route independent of the adapted bases the pairing builds.
Each filtration step is read as the Subspace its class indicators span.
The subspace helpers here are used by nothing in the package but this
engine and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from commcoh.gf2 import BitMatrix, GF2Error, Subspace
from commcoh.spectral import FilteredTower, stabilization_index
from dense_builders import QuotientCoords, induced_map, kernel_basis, spanned_chains


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise GF2Error("sum: ambient dimension mismatch")
    if a.dim == 0:
        return b
    if b.dim == 0:
        return a
    return Subspace.from_rows(a.ambient_dim, BitMatrix.vstack(a.basis, b.basis))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked-basis coefficient system."""
    if a.ambient_dim != b.ambient_dim:
        raise GF2Error("intersect: ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = BitMatrix.vstack(a.basis, b.basis)
    left_null = kernel_basis(stacked.transpose())
    if left_null.dim == 0:
        return Subspace.zero(a.ambient_dim)
    coeff_a = BitMatrix.from_dense(left_null.basis.to_dense()[:, : a.dim])
    return Subspace.from_rows(a.ambient_dim, coeff_a @ a.basis)


def annihilator(s: Subspace) -> Subspace:
    """All x with b . x = 0 for every basis row b of s."""
    return kernel_basis(s.basis)


def preimage(m: BitMatrix, s: Subspace) -> Subspace:
    """The subspace {x : m @ x lies in s}."""
    if m.rows != s.ambient_dim:
        raise GF2Error("preimage: codomain dimension mismatch")
    ann = annihilator(s)
    if ann.dim == 0:
        return kernel_basis(BitMatrix.zeros(0, m.cols))
    return kernel_basis(ann.basis @ m)


def apply_to_subspace(m: BitMatrix, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under the column-convention map."""
    if s.dim == 0:
        return Subspace.zero(m.rows)
    return Subspace.from_rows(m.rows, s.basis @ m.transpose())


def quotient_dim(a: Subspace, b: Subspace) -> int:
    """dim(a/b); b must be contained in a."""
    if not a.contains(b):
        raise GF2Error("quotient_dim: not a subspace")
    return a.dim - b.dim


@dataclass(frozen=True)
class OraclePage:
    r: int
    entries: dict  # (p, q) -> dimension
    differentials: dict  # (p, q) -> BitMatrix into (p + r, q - r + 1)
    stable: bool


class PageEngine:
    def __init__(self, ft: FilteredTower):
        self.ft = ft
        self.filt = spanned_chains(ft.filt)
        self._z_cache = {}
        self._img_cache = {}

    def step(self, n: int, p: int) -> Subspace:
        """F^p at degree n, clamped: full below the chain, zero above."""
        chain = self.filt[n]
        return chain[min(max(p, 0), len(chain) - 1)]

    def _z(self, r: int, p: int, q: int) -> Subspace:
        n = p + q
        ft = self.ft
        if r <= 0:
            return self.step(n, p)
        chain = self.filt[n]
        p_eff = min(max(p, 0), len(chain) - 1)
        chain_up = self.filt[n + 1]
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
            return self.step(p + q, p + 1)
        return subspace_sum(
            self._z(r - 1, p + 1, q - 1), self._boundary_part(r, p, q)
        )

    def entry_dim(self, r: int, p: int, q: int) -> int:
        return quotient_dim(self.numerator(r, p, q), self.denominator(r, p, q))

    def d_matrix(self, r: int, p: int, q: int) -> BitMatrix:
        n = p + q
        return induced_map(
            self.ft.tower.differential(n),
            QuotientCoords(self.numerator(r, p, q), self.denominator(r, p, q)),
            QuotientCoords(
                self.numerator(r, p + r, q - r + 1),
                self.denominator(r, p + r, q - r + 1),
            ),
        )


def oracle_pages(ft: FilteredTower, r_max: int | None = None) -> list:
    """Pages E_0 .. E_{r_max}; entries cover p, q >= 0 with p + q < n_max.

    Differentials are attached wherever the entry is nonzero and both
    source and target stay in that window.
    """
    r_stab = stabilization_index(ft)
    if r_max is None:
        r_max = max(r_stab, 3)
    engine = PageEngine(ft)
    window = [(p, n - p) for n in range(ft.n_max) for p in range(n + 1)]
    pages = []
    for r in range(r_max + 1):
        entries = {(p, q): engine.entry_dim(r, p, q) for p, q in window}
        diffs = {}
        if r >= 1:
            for p, q in window:
                tp, tq = p + r, q - r + 1
                if tq < 0 or tp + tq >= ft.n_max or entries[(p, q)] == 0:
                    continue
                diffs[(p, q)] = engine.d_matrix(r, p, q)
        pages.append(OraclePage(r, entries, diffs, stable=r >= r_stab))
    return pages


def oracle_infinity_entries(ft: FilteredTower) -> dict:
    """Stable page entries, p + q < n_max."""
    engine = PageEngine(ft)
    r = stabilization_index(ft)
    return {
        (p, n - p): engine.entry_dim(r, p, n - p)
        for n in range(ft.n_max)
        for p in range(n + 1)
    }
