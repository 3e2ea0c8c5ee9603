"""Structure-constant algebras over GF(2) and their coefficient modules.

A bracket table stores [b_i, b_j] as a vector of coordinates for every
ordered basis pair.  Classification (commutative / alternating / Jacobi
/ left Leibniz) is recomputed from the table, never trusted from input.
Alternativity is checked as c[i][i] = 0 together with commutativity, so
it is the polynomial identity [x,x] = 0 over every field extension and
not merely a statement about the finitely many vectors of F_2^d.  The
table is read-only, so its class is computed once and kept on it.

A grading gives each basis letter and each module basis vector an
integer weight, with w_k = w_i + w_j wherever c_ijk = 1 and
w(m_b) = w(b_i) + w(m_a) wherever b_i sends m_a to m_b.  The gradings
are the rational solutions of that small linear system; weight_grading
returns a basis of them, exactly, in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm

import numpy as np

from .gf2 import BitMatrix, GF2Error, Subspace, inverse

__all__ = [
    "BracketTable",
    "AlgebraClass",
    "ModuleSpec",
    "ModuleAxiomError",
    "classify_algebra",
    "weight_grading",
    "check_module_axioms",
    "trivial_module",
    "flambda_module",
    "coadjoint_module",
    "adjoint_module",
    "make_module",
    "leibniz_kernel",
    "IdealVerdict",
    "is_ideal",
    "SubalgebraSplit",
    "quotient_algebra",
    "change_basis",
    "module_change_basis",
]


class ModuleAxiomError(ValueError):
    """A constructed module violates its defining axiom."""

    def __init__(self, axiom: str, pair):
        self.axiom = axiom
        self.pair = pair
        super().__init__(f"axiom {axiom} fails on basis pair {pair}")


class BracketTable:
    """A d-dimensional algebra given by c[i, j] = coordinates of [b_i, b_j]."""

    __slots__ = ("dim", "c", "algebra_class")

    def __init__(self, c):
        c = np.asarray(c, dtype=np.uint8) & 1
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[1] != c.shape[2]:
            raise GF2Error("bracket table must be d x d x d")
        self.dim = c.shape[0]
        self.c = c
        c.setflags(write=False)
        self.algebra_class = None  # filled by the first classify_algebra call

    @classmethod
    def zero(cls, dim: int) -> "BracketTable":
        return cls(np.zeros((dim, dim, dim), dtype=np.uint8))

    @classmethod
    def from_entries(cls, dim: int, entries: dict) -> "BracketTable":
        """entries maps (i, j) -> coordinate vector or list of indices."""
        c = np.zeros((dim, dim, dim), dtype=np.uint8)
        for (i, j), val in entries.items():
            val = np.asarray(val)
            if val.shape == (dim,):
                c[i, j] = val & 1
            else:
                for k in val.reshape(-1):
                    c[i, j, int(k)] ^= 1
        return cls(c)

    def brackets(self, xs, ys) -> BitMatrix:
        """[x, y] for each row x of xs and each row y of ys, x-major, as matrix rows."""
        xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        w = np.einsum("bj,ajk->abk", ys, np.tensordot(xs, self.c.astype(np.int64), axes=1)) & 1
        return BitMatrix.from_dense(w.reshape(len(xs) * len(ys), self.dim))

    def __eq__(self, other):
        if not isinstance(other, BracketTable):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.c, other.c)

    def __hash__(self):
        return hash((self.dim, self.c.tobytes()))

    def __repr__(self):
        return f"BracketTable(dim={self.dim})"


@dataclass(frozen=True)
class AlgebraClass:
    commutative: bool
    alternating: bool
    jacobi: bool
    left_leibniz: bool

    @property
    def is_lie(self) -> bool:
        return self.alternating and self.jacobi

    @property
    def is_commutative_lie(self) -> bool:
        return self.commutative and self.jacobi


def classify_algebra(t: BracketTable) -> AlgebraClass:
    """The class of t, computed on the first call and kept on t."""
    if t.algebra_class is None:
        t.algebra_class = _classify(t)
    return t.algebra_class


def _classify(t: BracketTable) -> AlgebraClass:
    c = t.c.astype(np.int64)
    d = t.dim
    commutative = np.array_equal(t.c, t.c.transpose(1, 0, 2))
    alternating = commutative and not any(t.c[i, i].any() for i in range(d))
    jacobi = left_leibniz = True
    for i in range(d):
        # [b_i, v] = v @ c[i]  (row u of c[i] is [b_i, b_u]); entry [j, k] of each term below
        t1 = c @ c[i]  # [b_i, [b_j, b_k]]
        t2 = c[:, i] @ c  # [b_j, [b_k, b_i]]
        s = c[i] @ c  # at [j, k]: [b_j, [b_i, b_k]]
        jacobi &= not ((t1 + t2 + s.transpose(1, 0, 2)) % 2).any()
        # [[b_i, b_j], b_k] = sum_u c[i,j,u] c[u,k]
        rhs = (c[i] @ c.reshape(d, d * d)).reshape(d, d, d) + s
        left_leibniz &= not ((t1 + rhs) % 2).any()
    return AlgebraClass(bool(commutative), bool(alternating), jacobi, left_leibniz)


def _rational_kernel(rows, n: int) -> list:
    """An integer basis of {x in Q^n : r . x = 0 for each row r}, one vector per free column.

    Fraction-free elimination: each pivot row is kept zero at every other
    pivot column, and a combination of two rows is scaled to integers.
    """

    def clear(x, y, col):  # x with its entry at col cleared by y, over the integers
        x = [a * y[col] - b * x[col] for a, b in zip(x, y)]
        g = gcd(*x)
        return [a // g for a in x] if g else x

    pivots = {}  # pivot column -> its row
    for row in rows:
        x = list(row)
        for col, p in pivots.items():
            if x[col]:
                x = clear(x, p, col)
        lead = next((j for j, v in enumerate(x) if v), None)
        if lead is None:
            continue
        for col, p in pivots.items():
            if p[lead]:
                pivots[col] = clear(p, x, lead)
        pivots[lead] = x
    basis = []
    scale = lcm(*(p[col] for col, p in pivots.items()))  # x_col = -p[free] / p[col]
    for free in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[free] = scale
        for col, p in pivots.items():
            v[col] = -p[free] * scale // p[col]
        g = gcd(*v)
        basis.append([a // g for a in v])
    return basis


def weight_grading(t: BracketTable, coeffs: "ModuleSpec"):
    """The finest integer grading of (t, coeffs) as (letter weights, value weights).

    Column j of the d x r and m x r int arrays is the j-th vector of a
    basis of the gradings, so r is the grading's rank and two vectors
    share every weight exactly when their rows are equal.
    """
    d, m = t.dim, coeffs.dim
    equations = set()

    def equation(total, *parts):
        row = [0] * (d + m)
        row[total] += 1
        for part in parts:
            row[part] -= 1
        equations.add(tuple(row))

    for i, j, k in zip(*np.nonzero(t.c)):
        equation(k, i, j)
    # rho[i][b, a] = 1: b_i sends m_a to m_b
    for i, b, a in zip(*np.nonzero(coeffs.rho)):
        equation(d + b, i, d + a)
    basis = _rational_kernel(sorted(equations), d + m)
    w = np.array(basis, dtype=np.int64).reshape(len(basis), d + m).T
    return np.ascontiguousarray(w[:d]), np.ascontiguousarray(w[d:])


@dataclass(frozen=True)
class ModuleSpec:
    """Left module: rho[i] is the m x m action matrix of b_i.

    The tensor complex reads it as the symmetric Leibniz bimodule of
    Loday and Pirashvili, whose right action in characteristic 2 is the
    left one.
    """

    dim: int
    rho: np.ndarray  # (d, m, m) uint8

    @property
    def left(self) -> np.ndarray:
        """Read-only alias of rho; the benchmark's tracer keys towers by
        coeffs.left and coeffs.right."""
        return self.rho

    right = left

    def _key(self) -> tuple:
        return self.dim, self.rho.astype(np.uint8, copy=False).tobytes()

    def __eq__(self, other):
        if not isinstance(other, ModuleSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def action(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.rho.shape[0],):
            raise GF2Error("action argument must be an algebra coordinate vector")
        return _act(self.rho, x)


def _act(rho: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return (np.einsum("i,imn->mn", vec.astype(np.int64), rho.astype(np.int64)) & 1).astype(np.uint8)


@dataclass(frozen=True)
class ModuleCheck:
    ok: bool
    axiom: str | None = None
    pair: tuple | None = None


def check_module_axioms(t: BracketTable, mod: ModuleSpec) -> ModuleCheck:
    """Verify rho([x, y]) = rho(x) rho(y) + rho(y) rho(x) on basis pairs.

    With the right action equal to the left, both bimodule axioms reduce
    to this one.  Returns a verdict carrying the first violating basis
    pair on failure.
    """
    d = t.dim
    if mod.rho.shape[0] != d:
        raise GF2Error("module has wrong number of action matrices")
    li = mod.rho.astype(np.int64)
    for i in range(d):
        for j in range(d):
            lhs = _act(mod.rho, t.c[i, j])
            rhs = (li[i] @ li[j] + li[j] @ li[i]) % 2
            if not np.array_equal(lhs, rhs.astype(np.uint8)):
                return ModuleCheck(False, "left-module", (i, j))
    return ModuleCheck(True)


def _validated(t: BracketTable, mod):
    check = check_module_axioms(t, mod)
    if not check.ok:
        raise ModuleAxiomError(check.axiom, check.pair)
    return mod


def trivial_module(t: BracketTable, m: int = 1) -> ModuleSpec:
    return ModuleSpec(m, np.zeros((t.dim, m, m), dtype=np.uint8))


def flambda_module(t: BracketTable, lam) -> ModuleSpec:
    """One-dimensional module where b_i acts by the scalar lam[i]."""
    lam = np.asarray(lam, dtype=np.uint8).reshape(t.dim) & 1
    rho = lam.reshape(t.dim, 1, 1).copy()
    return _validated(t, ModuleSpec(1, rho))


def coadjoint_module(t: BracketTable) -> ModuleSpec:
    """Dual-space action (x . phi)(y) = phi([x, y]); needs Jacobi."""
    if not classify_algebra(t).jacobi:
        raise GF2Error("coadjoint module needs the Jacobi identity")
    rho = np.array([t.c[i] for i in range(t.dim)], dtype=np.uint8)
    return _validated(t, ModuleSpec(t.dim, rho))


def adjoint_module(t: BracketTable) -> ModuleSpec:
    """The algebra acting on itself by x . y = [x, y]."""
    rho = np.array([t.c[i].T for i in range(t.dim)], dtype=np.uint8)
    return _validated(t, ModuleSpec(t.dim, rho))


# A count is refused before its table is allocated if the table would be
# larger: a bracket table of dim d takes d^3 bytes, module actions d * M^2.
MAX_TABLE_BYTES = 1 << 24


def bounded_count(tok: str, table_bytes, syntax: str) -> int:
    """The decimal count tok; GF2Error(syntax) unless it is one, GF2Error
    if table_bytes(count) is over MAX_TABLE_BYTES."""
    if not (tok.isascii() and tok.isdigit()):
        raise GF2Error(syntax)
    digits = tok.lstrip("0") or "0"
    # past 12 digits every table is too large, and int() refuses 4300 digits
    if len(digits) > 12 or table_bytes(int(digits)) > MAX_TABLE_BYTES:
        shown = digits if len(digits) <= 12 else digits[:12] + "..."
        raise GF2Error(f"{shown} asks for a table over {MAX_TABLE_BYTES} bytes")
    return int(digits)


def make_module(t: BracketTable, spec: str) -> ModuleSpec:
    """Build a module from a CLI-style spec string.

    Accepted forms: "trivial", "trivial:K", "flambda:BITS", "adjoint",
    "coadjoint".
    """
    if spec == "trivial":
        return trivial_module(t, 1)
    if spec.startswith("trivial:"):
        k = bounded_count(spec.removeprefix("trivial:"), lambda k: max(t.dim, 1) * k * k,
                          "trivial:K wants a decimal K")
        return trivial_module(t, k)
    if spec.startswith("flambda:"):
        bits = spec.split(":", 1)[1]
        if len(bits) != t.dim or any(ch not in "01" for ch in bits):
            raise GF2Error(f"flambda wants {t.dim} bits, got {bits!r}")
        lam = np.array([int(ch) for ch in bits], dtype=np.uint8)
        return flambda_module(t, lam)
    if spec == "adjoint":
        return adjoint_module(t)
    if spec == "coadjoint":
        return coadjoint_module(t)
    raise GF2Error(f"unknown module spec {spec!r}")


def leibniz_kernel(t: BracketTable) -> Subspace:
    """Span of all squares [x, x], taken over every field extension.

    Generated by the diagonal brackets together with the sums
    [b_i, b_j] + [b_j, b_i] (the cross terms of the square expansion).
    """
    rows = []
    for i in range(t.dim):
        rows.append(t.c[i, i])
        for j in range(i + 1, t.dim):
            rows.append(t.c[i, j] ^ t.c[j, i])
    return Subspace.from_rows(t.dim, np.array(rows, dtype=np.uint8))


class IdealVerdict(Enum):
    NOT_SUBALGEBRA = "not-subalgebra"
    SUBALGEBRA = "subalgebra"
    IDEAL = "ideal"


def is_ideal(t: BracketTable, h: Subspace) -> IdealVerdict:
    if h.ambient_dim != t.dim:
        raise GF2Error("subspace ambient dimension does not match algebra")
    hb, eye = h.basis.to_dense(), np.eye(t.dim, dtype=np.uint8)
    if not h.reduce_rows(t.brackets(hb, hb)).is_zero():
        return IdealVerdict.NOT_SUBALGEBRA
    for xs, ys in ((eye, hb), (hb, eye)):
        if not h.reduce_rows(t.brackets(xs, ys)).is_zero():
            return IdealVerdict.SUBALGEBRA
    return IdealVerdict.IDEAL


@dataclass(frozen=True)
class SubalgebraSplit:
    """Adapted-basis data for a subalgebra (or ideal) h of an algebra."""

    h: Subspace
    verdict: IdealVerdict
    adapted: BitMatrix  # rows: h basis first, then echelon-complement vectors
    adapted_table: BracketTable  # the bracket in the basis of adapted's rows
    h_dim: int
    q_dim: int
    h_table: BracketTable  # bracket of h in its own basis coordinates
    proj: BitMatrix  # ambient -> quotient coordinates
    section: BitMatrix  # quotient coordinates -> ambient (proj @ section = id)
    q_table: BracketTable | None  # quotient algebra; ideals only


def quotient_algebra(
    t: BracketTable, h: Subspace, require_ideal: bool = True
) -> SubalgebraSplit:
    """Split the algebra along a subalgebra with a deterministic complement.

    The complement is spanned by the standard basis vectors away from the
    echelon pivots of h, so reports are reproducible.  The bracket is
    rewritten once in this adapted basis (h's k vectors first), and the
    other tables are its blocks: h's bracket is c[:k, :k, :k], as h is
    closed, and for an ideal the quotient's is c[k:, k:, k:], since a
    vector reduced modulo h has the complement coordinates of its coset.
    """
    verdict = is_ideal(t, h)
    if verdict is IdealVerdict.NOT_SUBALGEBRA:
        raise GF2Error("not a subalgebra")
    if require_ideal and verdict is not IdealVerdict.IDEAL:
        raise GF2Error("not an ideal")
    d, k = t.dim, h.dim
    free = sorted(set(range(d)) - set(h.pivots))
    complement = BitMatrix.from_coords(d - k, d, np.arange(d - k), free)
    adapted = BitMatrix.vstack(h.basis, complement)
    # row j of proj^T is the complement part of basis vector j reduced modulo h
    proj = h.reduce_rows(BitMatrix.identity(d)).take_columns(free).transpose()
    t_ad = change_basis(t, adapted)
    return SubalgebraSplit(
        h=h,
        verdict=verdict,
        adapted=adapted,
        adapted_table=t_ad,
        h_dim=k,
        q_dim=d - k,
        h_table=BracketTable(t_ad.c[:k, :k, :k]),
        proj=proj,
        section=complement.transpose(),
        q_table=BracketTable(t_ad.c[k:, k:, k:]) if verdict is IdealVerdict.IDEAL else None,
    )


def change_basis(t: BracketTable, p: BitMatrix) -> BracketTable:
    """Bracket table in the basis whose vectors are the rows of p."""
    d = t.dim
    if p.shape != (d, d):
        raise GF2Error("basis matrix must be d x d")
    pinv = inverse(p.transpose()).transpose()  # coords = x @ pinv
    pd = p.to_dense().astype(np.int64)
    c = t.c.astype(np.int64)
    raw = np.einsum("ai,bj,ijk->abk", pd, pd, c) & 1
    pid = pinv.to_dense().astype(np.int64)
    new_c = np.einsum("abk,kl->abl", raw, pid) & 1
    return BracketTable(new_c.astype(np.uint8))


def module_change_basis(mod: ModuleSpec, p: BitMatrix) -> ModuleSpec:
    """Actions of the new basis vectors (rows of p); value space unchanged."""
    pd = p.to_dense()
    rho = np.array([_act(mod.rho, row) for row in pd], dtype=np.uint8)
    return ModuleSpec(mod.dim, rho)
