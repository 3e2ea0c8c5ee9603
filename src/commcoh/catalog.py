"""Built-in example algebras, the algebra-file format, and the survey
enumeration of small commutative Lie algebras.

The catalog is one table of six named algebras (catalog_names()); any
other name is refused.  A catalog entry and a parsed file are one type,
CatalogEntry.  The file format is line oriented:

    # comment
    algebra NAME
    dim D
    basis e f
    bracket f f = e
    module triv dim 1
    action triv e = 0
    subspace h = 10

Unlisted brackets and actions are zero; vectors and matrix rows are bit
strings over the declared basis.  Parsing and serialization round-trip;
a file marks no ideals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MAX_TABLE_BYTES,
    BracketTable,
    ModuleSpec,
    adjoint_module,
    bounded_count,
    coadjoint_module,
    flambda_module,
    trivial_module,
)
from .gf2 import GF2Error, Subspace

__all__ = [
    "CatalogEntry",
    "catalog_names",
    "load_catalog",
    "AlgebraFileError",
    "parse_algebra_file",
    "serialize_algebra_file",
    "SurveyResult",
    "survey_enumerate",
    "line_module_instances",
]


@dataclass(frozen=True)
class CatalogEntry:
    """An algebra with its named modules (name -> ModuleSpec), named spans
    (name -> Subspace) and marked ideals (names of spans)."""

    name: str
    labels: tuple
    table: BracketTable
    modules: dict = field(default_factory=dict)
    subspaces: dict = field(default_factory=dict)
    ideals: tuple = ()


# name -> (basis labels, brackets {(i, j): indices of [b_i, b_j]}, the
# flambda functional, named spans, marked ideals); each named span is the
# line of the basis vector with that label
_CATALOG = {
    "N": (("e", "f"), {(1, 1): [0]}, [0, 1], ("e", "f"), ("e",)),
    "a": (("h", "e"), {(0, 1): [1], (1, 0): [1]}, [1, 0], ("e", "h"), ("e",)),
    "abelian1": (("e0",), {}, [1], ("e0",), ("e0",)),
    "abelian2": (("e0", "e1"), {}, [1, 0], ("e0", "e1"), ("e0", "e1")),
    "abelian3": (("e0", "e1", "e2"), {}, [1, 0, 0], ("e0", "e1", "e2"), ("e0", "e1", "e2")),
    "heis3": (("x", "y", "z"), {(0, 1): [2], (1, 0): [2]}, [1, 0, 0], ("z", "x"), ("z",)),
}


def catalog_names():
    return tuple(_CATALOG)


def load_catalog(name: str) -> CatalogEntry:
    """Verified example algebras with prebuilt modules and marked ideals.

    flambda is the nontrivial one-dimensional module in each case where
    a consistent one exists (the functional must kill every bracket).
    Parentheses and colons in the name are ignored.
    """
    key = name.replace("(", "").replace(")", "").replace(":", "")
    if key not in _CATALOG:
        raise GF2Error(f"unknown catalog algebra {name!r}; known: {', '.join(catalog_names())}")
    labels, brackets, lam, spans, ideals = _CATALOG[key]
    t = BracketTable.from_entries(len(labels), brackets)
    modules = {
        "trivial": trivial_module(t),
        "adjoint": adjoint_module(t),
        "coadjoint": coadjoint_module(t),
        "flambda": flambda_module(t, lam),
    }
    lines = np.eye(t.dim, dtype=np.uint8)
    subspaces = {s: Subspace.from_rows(t.dim, lines[[labels.index(s)]]) for s in spans}
    return CatalogEntry(key, labels, t, modules, subspaces, ideals)


class AlgebraFileError(ValueError):
    def __init__(self, line_no, msg):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {msg}")


def _parse_count(tok, line_no, syntax, table_bytes):
    """The decimal count tok, refused if table_bytes(count) is over MAX_TABLE_BYTES."""
    try:
        return bounded_count(tok, table_bytes, syntax)
    except GF2Error as exc:
        raise AlgebraFileError(line_no, str(exc)) from None


def _parse_bits(tok, width, line_no, what):
    if len(tok) != width or any(ch not in "01" for ch in tok):
        raise AlgebraFileError(line_no, f"{what} must be {width} bits, got {tok!r}")
    return np.array([int(ch) for ch in tok], dtype=np.uint8)


def parse_algebra_file(text: str) -> CatalogEntry:
    name = "anon"
    dim = None
    labels = None
    brackets = {}
    module_dims = {}
    actions = {}
    subspaces = {}

    def label_index(tok, line_no):
        if tok not in labels:
            raise AlgebraFileError(line_no, f"unknown basis label {tok!r}")
        return labels.index(tok)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "algebra":
            if len(toks) != 2:
                raise AlgebraFileError(line_no, "algebra wants one name")
            name = toks[1]
            continue
        if head == "dim":
            if len(toks) != 2:
                raise AlgebraFileError(line_no, "dim wants one integer")
            count = _parse_count(toks[1], line_no, "dim wants one integer", lambda n: n**3)
            if dim is not None:
                raise AlgebraFileError(line_no, "dim declared twice")
            if count == 0:
                raise AlgebraFileError(line_no, "dim must be at least 1")
            dim = count
            if labels is None:
                labels = [f"b{i}" for i in range(dim)]
            continue
        if dim is None:
            raise AlgebraFileError(line_no, "dim must come before other declarations")
        if head == "basis":
            if len(toks) != dim + 1:
                raise AlgebraFileError(line_no, f"basis wants {dim} labels")
            # a bracket's right side is 0 or labels joined by +
            if any(tok == "0" or "+" in tok for tok in toks[1:]):
                raise AlgebraFileError(line_no, "a basis label cannot be 0 or contain +")
            labels = list(toks[1:])
            continue
        if head == "bracket":
            if len(toks) < 5 or toks[3] != "=":
                raise AlgebraFileError(line_no, "bracket syntax: bracket i j = rhs")
            i = label_index(toks[1], line_no)
            j = label_index(toks[2], line_no)
            rhs = "".join(toks[4:])
            vec = np.zeros(dim, dtype=np.uint8)
            if rhs != "0":
                for term in rhs.split("+"):
                    vec[label_index(term, line_no)] ^= 1
            brackets[(i, j)] = vec
            continue
        if head == "module":
            syntax = "module syntax: module NAME dim M"
            if len(toks) != 4 or toks[2] != "dim":
                raise AlgebraFileError(line_no, syntax)
            count = _parse_count(toks[3], line_no, syntax, lambda m: max(dim, 1) * m * m)
            if toks[1] in module_dims:
                raise AlgebraFileError(line_no, f"module {toks[1]!r} declared twice")
            module_dims[toks[1]] = count
            continue
        if head == "action":
            if len(toks) < 5 or toks[3] != "=":
                raise AlgebraFileError(line_no, "action syntax: action MOD b = rows")
            mod = toks[1]
            if mod not in module_dims:
                raise AlgebraFileError(line_no, f"module {mod!r} not declared")
            m = module_dims[mod]
            i = label_index(toks[2], line_no)
            rows = toks[4:]
            if len(rows) != m:
                raise AlgebraFileError(line_no, f"action wants {m} rows")
            mat = np.stack([_parse_bits(r, m, line_no, "action row") for r in rows])
            actions.setdefault(mod, {})[i] = mat
            continue
        if head == "subspace":
            if len(toks) < 4 or toks[2] != "=":
                raise AlgebraFileError(line_no, "subspace syntax: subspace NAME = vecs")
            vecs = np.stack([_parse_bits(v, dim, line_no, "vector") for v in toks[3:]])
            subspaces[toks[1]] = Subspace.from_rows(dim, vecs)
            continue
        raise AlgebraFileError(line_no, f"unknown directive {head!r}")

    if dim is None:
        raise AlgebraFileError(0, "missing dim declaration")
    table = BracketTable.from_entries(dim, brackets)
    modules = {}
    for mod, m in module_dims.items():
        rho = np.zeros((dim, m, m), dtype=np.uint8)
        for i, mat in actions.get(mod, {}).items():
            rho[i] = mat
        modules[mod] = ModuleSpec(m, rho)
    return CatalogEntry(name, tuple(labels), table, modules, subspaces)


def serialize_algebra_file(entry: CatalogEntry) -> str:
    """Canonical text form; parse(serialize(x)) == x for an entry with no
    marked ideals, which the format does not hold."""
    d = entry.table.dim
    out = [f"algebra {entry.name}", f"dim {d}", "basis " + " ".join(entry.labels)]
    for i in range(d):
        for j in range(d):
            vec = entry.table.c[i, j]
            if vec.any():
                rhs = "+".join(entry.labels[k] for k in np.nonzero(vec)[0])
                out.append(f"bracket {entry.labels[i]} {entry.labels[j]} = {rhs}")
    for mod in sorted(entry.modules):
        spec = entry.modules[mod]
        out.append(f"module {mod} dim {spec.dim}")
        for i in range(d):
            if spec.rho[i].any():
                rows = " ".join("".join(str(b) for b in row) for row in spec.rho[i])
                out.append(f"action {mod} {entry.labels[i]} = {rows}")
    for name in sorted(entry.subspaces):
        # the zero subspace is written as its zero vector
        rows = entry.subspaces[name].basis.to_dense() if entry.subspaces[name].dim else [[0] * d]
        vecs = " ".join("".join(str(b) for b in row) for row in rows)
        out.append(f"subspace {name} = {vecs}")
    return "\n".join(out) + "\n"


# -- survey of small commutative Lie algebras --------------------------


def _free_pairs(d):
    return [(i, j) for i in range(d) for j in range(i, d)]


def _candidate_block(d, idx):
    """Symmetric bracket tables for the candidate indices idx."""
    pairs = _free_pairs(d)
    nbits = len(pairs) * d
    idx = np.asarray(idx, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(nbits, dtype=np.uint64)[None, :]) & 1
    bits = bits.astype(np.uint8).reshape(len(idx), len(pairs), d)
    c = np.zeros((len(idx), d, d, d), dtype=np.uint8)
    for t, (i, j) in enumerate(pairs):
        c[:, i, j] = bits[:, t]
        c[:, j, i] = bits[:, t]
    return c


def _det2(mats):
    """Determinants mod 2 of a stack of square 0/1 matrices, by expansion
    along the first row; over F2 the determinant is the permanent."""
    k = mats.shape[-1]
    if k == 0:
        return np.ones(len(mats), dtype=np.uint8)
    rest = mats[:, 1:]
    det = np.zeros(len(mats), dtype=np.uint8)
    for j in range(k):
        det ^= mats[:, 0, j] & _det2(np.delete(rest, j, axis=2))
    return det


def _gl_group(d):
    """GL(d, 2) and the inverse of each element, two (n, d, d) uint8 arrays
    in the order of the codes whose bit k is entry k."""
    codes = np.arange(1 << (d * d))
    mats = ((codes[:, None] >> np.arange(d * d)) & 1).astype(np.uint8).reshape(-1, d, d)
    g = mats[_det2(mats) == 1]
    # over F2 with det g = 1 the inverse is the adjugate: ginv[l, k] is the
    # determinant of g without row k and column l
    ginv = np.empty_like(g)
    for k, l in np.ndindex(d, d):
        ginv[:, l, k] = _det2(np.delete(np.delete(g, k, axis=1), l, axis=2))
    return g, ginv


def _transform_matrices(d):
    """GF(2)-linear action of each basis change on flattened tables."""
    g, ginv = _gl_group(d)
    # c'[a,b,k] = sum_{i,j,l} g[a,i] g[b,j] c[i,j,l] ginv[l,k]
    return np.einsum("nai,nbj,nlk->nabkijl", g, g, ginv).reshape(len(g), d**3, d**3)


def _canonical_ints(cands, d, transforms):
    """Smallest code in each candidate's orbit, all transforms at once; bit k
    of a code is entry k of the flattened table."""
    # cols[t, i]: the code of transform t's image of the i-th unit table,
    # assembled from the bytes of its packed column
    packed = np.packbits(transforms, axis=1, bitorder="little")
    cols = sum(packed[:, b].astype(np.uint64) << np.uint64(8 * b) for b in range(packed.shape[1]))
    best = np.zeros((len(cands), len(transforms)), dtype=np.uint64)
    for i, bit in enumerate(cands.reshape(len(cands), -1).T):
        np.bitwise_xor(best, cols[:, i], out=best, where=bit[:, None] == 1)
    return best.min(axis=1)


def _survey_chunk(d, start, stop):
    """Jacobi survivors among the candidate indices [start, stop).

    Bit-sliced: plane q packs bit q of every index in the range, so each
    coefficient of the Jacobi identity is a few AND/XOR passes over the
    planes for all candidates at once.  A plane is made byte by byte: the
    range starts at start rounded down to a multiple of 8, so bits 0-2 of
    an index repeat one byte and bit q >= 3 is bit q - 3 of the byte's
    index.  Tables are built for survivors only.
    """
    lo = start >> 3
    byte = np.arange(lo, (stop + 7) >> 3, dtype=np.int32)
    plane = {}  # (i, j, m) -> packed bits c[i, j, m] of every candidate
    for t, (i, j) in enumerate(_free_pairs(d)):
        for m in range(d):
            q = t * d + m
            if q < 3:
                bits = np.full(len(byte), (0xAA, 0xCC, 0xF0)[q], dtype=np.uint8)
            else:
                bits = ((byte >> (q - 3)) & 1).astype(np.uint8) * np.uint8(0xFF)
            plane[i, j, m] = plane[j, i, m] = bits
    bad = np.zeros(len(byte), dtype=np.uint8)
    for i, j, k, m in np.ndindex(d, d, d, d):
        s = np.zeros_like(bad)
        for u in range(d):
            s ^= plane[j, k, u] & plane[i, u, m]
            s ^= plane[k, i, u] & plane[j, u, m]
            s ^= plane[i, j, u] & plane[k, u, m]
        bad |= s
    # drop the candidates below start that the rounding added
    skip = start - (lo << 3)
    keep = np.flatnonzero(np.unpackbits(bad, count=stop - (lo << 3), bitorder="little")[skip:] == 0)
    return _candidate_block(d, keep + start)


@dataclass(frozen=True)
class SurveyResult:
    dim: int
    candidate_count: int
    valid_count: int
    tables: np.ndarray  # (valid, d, d, d)
    orbit_count: int | None = None
    orbit_reps: np.ndarray | None = None

    def rep_tables(self):
        src = self.orbit_reps if self.orbit_reps is not None else self.tables
        return [BracketTable(c) for c in src]


SURVEY_MAX_DIM = 3


def survey_enumerate(d: int, up_to_iso: bool = False) -> SurveyResult:
    """Enumerate symmetric bracket tables and filter by the Jacobi identity.

    Candidates fix c[i][j] = c[j][i]; bit t*d + m of a candidate index is
    c[i, j, m] of free pair t.  The Jacobi filter is bit-sliced over the
    indices (_survey_chunk), so only survivors become tables: all 2^18
    candidates of d = 3 pass in one call.  With up_to_iso the survivors
    are reduced modulo basis changes by canonical orbit representatives;
    the basis changes and their inverses come from determinants and
    adjugates mod 2 (_gl_group), so every step is integer arithmetic.
    """
    if not 1 <= d <= SURVEY_MAX_DIM:
        raise GF2Error(f"enumeration bound: dim from 1 to {SURVEY_MAX_DIM}")
    total = 1 << (len(_free_pairs(d)) * d)
    valid = _survey_chunk(d, 0, total)
    result = SurveyResult(d, total, len(valid), valid)
    if not up_to_iso:
        return result
    transforms = _transform_matrices(d)
    canon = _canonical_ints(valid, d, transforms)
    uniq, _ = np.unique(canon, return_index=True)  # no numpy.ma check with an index
    # the canonical integer decodes back into the minimal table of the
    # orbit, which is itself a Jacobi survivor
    shifts = np.arange(d * d * d, dtype=np.uint64)
    reps = ((uniq[:, None] >> shifts) & 1).astype(np.uint8).reshape(len(uniq), d, d, d)
    return SurveyResult(d, total, len(valid), valid, len(uniq), reps)


def line_module_instances(table: BracketTable):
    """All (ideal line, functional) pairs with the line acting by one.

    The functional must kill the derived span (module axiom) and take
    value 1 on the line generator, so the line cannot meet the derived
    subalgebra.  These feed the one-dimensional vanishing checks.
    """
    d, c = table.dim, table.c
    # every nonzero vector, bit k of its code in coordinate k
    vecs = ((np.arange(1, 1 << d)[:, None] >> np.arange(d)) & 1).astype(np.uint8)
    # the functionals that kill every bracket
    lams = vecs[~((c.reshape(d * d, d) @ vecs.T) % 2).any(axis=0)]
    # u spans an ideal when its brackets with the basis, on both sides, are each 0 or u
    sides = np.concatenate([np.einsum("ui,ijk->ujk", vecs, c), np.einsum("uj,ijk->uik", vecs, c)], 1) % 2
    ideal = ((sides == 0).all(axis=2) | (sides == vecs[:, None]).all(axis=2)).all(axis=1)
    value = (lams @ vecs.T) % 2  # value[l, u]: functional l at vector u
    out = []
    for u in np.flatnonzero(ideal):
        line = Subspace.from_rows(d, vecs[u].reshape(1, -1))
        out.extend((line, lam) for lam in lams[value[:, u] == 1])
    return out
