"""Built-in example algebras, the algebra-file format, and the survey
enumeration of small commutative Lie algebras.

The file format is line oriented:

    # comment
    algebra NAME
    dim D
    basis e f
    bracket f f = e
    module triv dim 1
    action triv e = 0
    subspace h = 10

Unlisted brackets and actions are zero; vectors and matrix rows are bit
strings over the declared basis.  Parsing and serialization round-trip.
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
    is_ideal,
    IdealVerdict,
    trivial_module,
)
from .gf2 import GF2Error, Subspace

__all__ = [
    "CatalogEntry",
    "catalog_names",
    "load_catalog",
    "AlgebraFileError",
    "FileAlgebra",
    "parse_algebra_file",
    "serialize_algebra_file",
    "SurveyResult",
    "survey_enumerate",
    "line_module_instances",
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    labels: tuple
    table: BracketTable
    modules: dict
    subspaces: dict
    ideals: tuple


def _span(dim, rows):
    return Subspace.from_rows(dim, np.array(rows, dtype=np.uint8))


def _standard_modules(table: BracketTable, lam=None) -> dict:
    mods = {
        "trivial": trivial_module(table),
        "adjoint": adjoint_module(table),
        "coadjoint": coadjoint_module(table),
    }
    if lam is not None:
        mods["flambda"] = flambda_module(table, lam)
    return mods


def catalog_names():
    return ("N", "a", "abelian1", "abelian2", "abelian3", "heis3")


def load_catalog(name: str) -> CatalogEntry:
    """Verified example algebras with prebuilt modules and marked ideals.

    flambda is the nontrivial one-dimensional module in each case where
    a consistent one exists (the functional must kill every bracket).
    """
    key = name.replace("(", "").replace(")", "").replace(":", "")
    if key == "N":
        t = BracketTable.from_entries(2, {(1, 1): [0]})
        return CatalogEntry(
            "N",
            ("e", "f"),
            t,
            _standard_modules(t, lam=[0, 1]),
            {"e": _span(2, [[1, 0]]), "f": _span(2, [[0, 1]])},
            ("e",),
        )
    if key == "a":
        t = BracketTable.from_entries(2, {(0, 1): [1], (1, 0): [1]})
        return CatalogEntry(
            "a",
            ("h", "e"),
            t,
            _standard_modules(t, lam=[1, 0]),
            {"e": _span(2, [[0, 1]]), "h": _span(2, [[1, 0]])},
            ("e",),
        )
    if key.startswith("abelian"):
        d = int(key[len("abelian"):])
        t = BracketTable.zero(d)
        lam = [1] + [0] * (d - 1)
        labels = tuple(f"e{i}" for i in range(d))
        subs = {f"e{i}": _span(d, [np.eye(d, dtype=np.uint8)[i]]) for i in range(d)}
        return CatalogEntry(
            f"abelian{d}", labels, t, _standard_modules(t, lam=lam), subs,
            tuple(f"e{i}" for i in range(d)),
        )
    if key == "heis3":
        t = BracketTable.from_entries(3, {(0, 1): [2], (1, 0): [2]})
        return CatalogEntry(
            "heis3",
            ("x", "y", "z"),
            t,
            _standard_modules(t, lam=[1, 0, 0]),
            {"z": _span(3, [[0, 0, 1]]), "x": _span(3, [[1, 0, 0]])},
            ("z",),
        )
    raise GF2Error(f"unknown catalog algebra {name!r}; known: {', '.join(catalog_names())}")


class AlgebraFileError(ValueError):
    def __init__(self, line_no, msg):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {msg}")


@dataclass
class FileAlgebra:
    name: str
    labels: tuple
    table: BracketTable
    modules: dict = field(default_factory=dict)  # name -> ModuleSpec
    subspaces: dict = field(default_factory=dict)  # name -> Subspace

    def __eq__(self, other):
        return (
            isinstance(other, FileAlgebra)
            and self.name == other.name
            and self.labels == other.labels
            and self.table == other.table
            and self.modules.keys() == other.modules.keys()
            and all(
                np.array_equal(self.modules[k].rho, other.modules[k].rho)
                for k in self.modules
            )
            and self.subspaces == other.subspaces
        )


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


def parse_algebra_file(text: str) -> FileAlgebra:
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
    return FileAlgebra(name, tuple(labels), table, modules, subspaces)


def serialize_algebra_file(fa: FileAlgebra) -> str:
    """Canonical text form; parse(serialize(x)) == x."""
    d = fa.table.dim
    out = [f"algebra {fa.name}", f"dim {d}", "basis " + " ".join(fa.labels)]
    for i in range(d):
        for j in range(d):
            vec = fa.table.c[i, j]
            if vec.any():
                rhs = "+".join(fa.labels[k] for k in np.nonzero(vec)[0])
                out.append(f"bracket {fa.labels[i]} {fa.labels[j]} = {rhs}")
    for mod in sorted(fa.modules):
        spec = fa.modules[mod]
        out.append(f"module {mod} dim {spec.dim}")
        for i in range(d):
            if spec.rho[i].any():
                rows = " ".join("".join(str(b) for b in row) for row in spec.rho[i])
                out.append(f"action {mod} {fa.labels[i]} = {rows}")
    for name in sorted(fa.subspaces):
        # the zero subspace is written as its zero vector
        rows = fa.subspaces[name].basis.to_dense() if fa.subspaces[name].dim else [[0] * d]
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


def _gl_group(d):
    """GL(d, 2) as an (n, d, d) uint8 array, in the order of the codes
    whose bit k is entry k."""
    codes = np.arange(1 << (d * d))
    mats = ((codes[:, None] >> np.arange(d * d)) & 1).astype(np.uint8).reshape(-1, d, d)
    # integer determinants of 0/1 matrices this small are exact in floating point
    return mats[np.rint(np.linalg.det(mats)).astype(np.int64) % 2 == 1]


def _transform_matrices(d):
    """GF(2)-linear action of each basis change on flattened tables."""
    g = _gl_group(d)
    # over F2 the inverse is the adjugate, det(g) g^-1, exact at these sizes
    adj = np.linalg.det(g)[:, None, None] * np.linalg.inv(g)
    ginv = (np.rint(adj).astype(np.int64) % 2).astype(np.uint8)
    # c'[a,b,k] = sum_{i,j,l} g[a,i] g[b,j] c[i,j,l] ginv[l,k]
    return np.einsum("nai,nbj,nlk->nabkijl", g, g, ginv).reshape(len(g), d**3, d**3)


def _canonical_ints(cands, d, transforms):
    """Smallest code in each candidate's orbit, all transforms at once; bit k
    of a code is entry k of the flattened table."""
    # cols[t, i]: the code of transform t's image of the i-th unit table
    cols = (transforms.astype(np.uint64) << np.arange(d**3, dtype=np.uint64)[:, None]).sum(axis=1)
    best = np.zeros((len(cands), len(transforms)), dtype=np.uint64)
    for i, bit in enumerate(cands.reshape(len(cands), -1).T):
        best ^= bit[:, None] * cols[:, i]
    return best.min(axis=1)


def _survey_chunk(d, start, stop):
    """Jacobi survivors among the candidate indices [start, stop).

    Bit-sliced: plane q packs bit q of every index in the range, so each
    coefficient of the Jacobi identity is a few AND/XOR passes over the
    planes for all candidates at once.  Tables are built for survivors.
    """
    idx = np.arange(start, stop, dtype=np.uint64)
    bit = np.empty_like(idx)
    plane = {}  # (i, j, m) -> packed bits c[i, j, m] of every candidate
    for t, (i, j) in enumerate(_free_pairs(d)):
        for m in range(d):
            np.right_shift(idx, np.uint64(t * d + m), out=bit)
            bit &= np.uint64(1)
            plane[i, j, m] = plane[j, i, m] = np.packbits(bit != 0, bitorder="little")
    bad = np.zeros_like(plane[0, 0, 0])
    for i, j, k, m in np.ndindex(d, d, d, d):
        s = np.zeros_like(bad)
        for u in range(d):
            s ^= plane[j, k, u] & plane[i, u, m]
            s ^= plane[k, i, u] & plane[j, u, m]
            s ^= plane[i, j, u] & plane[k, u, m]
        bad |= s
    keep = np.unpackbits(bad, count=stop - start, bitorder="little") == 0
    return _candidate_block(d, idx[keep])


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
    are reduced modulo basis changes by canonical orbit representatives.
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
    d = table.dim
    # every nonzero vector, bit k of its code in coordinate k
    vecs = ((np.arange(1, 1 << d)[:, None] >> np.arange(d)) & 1).astype(np.uint8)
    # the functionals that kill every bracket
    lams = [lam for lam in vecs if not ((table.c.reshape(d * d, d) @ lam) % 2).any()]
    out = []
    for u in vecs:
        line = Subspace.from_rows(d, u.reshape(1, -1))
        if is_ideal(table, line) is IdealVerdict.IDEAL:
            out.extend((line, lam) for lam in lams if int(lam @ u) % 2)
    return out
