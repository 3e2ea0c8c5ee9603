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

import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BracketTable,
    ModuleSpec,
    adjoint_module,
    coadjoint_module,
    derived_span,
    flambda_module,
    is_ideal,
    IdealVerdict,
    symmetrize,
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
        "trivial": symmetrize(trivial_module(table), table),
        "adjoint": symmetrize(adjoint_module(table), table),
        "coadjoint": symmetrize(coadjoint_module(table), table),
    }
    if lam is not None:
        mods["flambda"] = symmetrize(flambda_module(table, lam), table)
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


# The parser allocates the bracket table (dim^3 bytes) and each module's
# actions (dim * M^2 bytes); a file that asks for more is refused first.
MAX_TABLE_BYTES = 1 << 24


def _parse_count(tok, line_no, syntax, table_bytes):
    """The decimal count tok, refused if table_bytes(count) is over MAX_TABLE_BYTES."""
    if not (tok.isascii() and tok.isdigit()):
        raise AlgebraFileError(line_no, syntax)
    digits = tok.lstrip("0") or "0"
    # past 12 digits every table is too large, and int() refuses 4300 digits
    if len(digits) > 12 or table_bytes(int(digits)) > MAX_TABLE_BYTES:
        shown = digits if len(digits) <= 12 else digits[:12] + "..."
        raise AlgebraFileError(line_no, f"{shown} asks for a table over {MAX_TABLE_BYTES} bytes")
    return int(digits)


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


def _candidate_block(d, start, stop):
    """Symmetric bracket tables for candidate indices [start, stop)."""
    pairs = _free_pairs(d)
    nbits = len(pairs) * d
    idx = np.arange(start, stop, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(nbits, dtype=np.uint64)[None, :]) & 1
    bits = bits.astype(np.uint8).reshape(len(idx), len(pairs), d)
    c = np.zeros((len(idx), d, d, d), dtype=np.uint8)
    for t, (i, j) in enumerate(pairs):
        c[:, i, j] = bits[:, t]
        c[:, j, i] = bits[:, t]
    return c


def _jacobi_mask(c):
    ci = c.astype(np.int32)
    t1 = np.einsum("njku,nium->nijkm", ci, ci)
    t2 = np.einsum("nkiu,njum->nijkm", ci, ci)
    t3 = np.einsum("niju,nkum->nijkm", ci, ci)
    return ~(((t1 + t2 + t3) % 2).any(axis=(1, 2, 3, 4)))


def _gl_group(d):
    from .gf2 import BitMatrix

    mats = []
    for code in range(1 << (d * d)):
        m = np.array(
            [(code >> k) & 1 for k in range(d * d)], dtype=np.uint8
        ).reshape(d, d)
        if BitMatrix.from_dense(m).rank() == d:
            mats.append(m)
    return mats


def _transform_matrices(d):
    """GF(2)-linear action of each basis change on flattened tables."""
    from .gf2 import BitMatrix, inverse

    out = []
    nb = d * d * d
    for g in _gl_group(d):
        ginv = inverse(BitMatrix.from_dense(g)).to_dense()
        tm = np.zeros((nb, nb), dtype=np.uint8)
        gi = g.astype(np.int32)
        gv = ginv.astype(np.int32)
        # c'[a,b,k] = sum_{i,j,l} g[a,i] g[b,j] c[i,j,l] ginv[l,k]
        for a in range(d):
            for b in range(d):
                for k in range(d):
                    row = np.einsum("i,j,l->ijl", gi[a], gi[b], gv[:, k]) % 2
                    tm[(a * d + b) * d + k] = row.reshape(-1)
        out.append(tm)
    return out


def _canonical_ints(cands, d, transforms):
    bits = cands.reshape(len(cands), -1).astype(np.float64)
    powers = (1 << np.arange(d * d * d, dtype=np.uint64)).astype(np.float64)
    best = None
    for tm in transforms:
        moved = (bits @ tm.T.astype(np.float64)) % 2
        ints = moved @ powers
        best = ints if best is None else np.minimum(best, ints)
    return best.astype(np.uint64)


# Candidates per Jacobi evaluation: _jacobi_mask builds three
# candidates x d^5 int32 cubes, so a block bounds its memory.
SURVEY_BLOCK = 8192


def _survey_chunk(args):
    d, start, stop = args
    parts = []
    for lo in range(start, stop, SURVEY_BLOCK):
        c = _candidate_block(d, lo, min(lo + SURVEY_BLOCK, stop))
        parts.append(c[_jacobi_mask(c)])
    return np.concatenate(parts, axis=0)


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


def survey_enumerate(d: int, up_to_iso: bool = False, jobs: int = 1) -> SurveyResult:
    """Enumerate symmetric bracket tables and filter by the Jacobi identity.

    Candidates fix c[i][j] = c[j][i]; with up_to_iso the Jacobi survivors
    are reduced modulo basis changes by canonical orbit representatives.
    Chunked workers merge in index order, so counts do not depend on the
    worker count.
    """
    if not 1 <= d <= SURVEY_MAX_DIM:
        raise GF2Error(f"enumeration bound: dim from 1 to {SURVEY_MAX_DIM}")
    total = 1 << (len(_free_pairs(d)) * d)
    chunks = max(1, min(jobs, 8))
    bounds = np.linspace(0, total, chunks + 1, dtype=np.int64)
    args = [(d, int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if a < b]
    if chunks > 1:
        with multiprocessing.Pool(processes=chunks) as pool:
            parts = pool.map(_survey_chunk, args)
    else:
        parts = [_survey_chunk(a) for a in args]
    valid = np.concatenate(parts, axis=0)
    result = SurveyResult(d, total, len(valid), valid)
    if not up_to_iso:
        return result
    transforms = _transform_matrices(d)
    canon = _canonical_ints(valid, d, transforms)
    uniq = np.unique(canon)
    # the canonical integer decodes back into the minimal table of the
    # orbit, which is itself a Jacobi survivor
    nbits = d * d * d
    reps = np.array(
        [[(int(v) >> k) & 1 for k in range(nbits)] for v in uniq], dtype=np.uint8
    ).reshape(len(uniq), d, d, d)
    return SurveyResult(d, total, len(valid), valid, len(uniq), reps)


def line_module_instances(table: BracketTable):
    """All (ideal line, functional) pairs with the line acting by one.

    The functional must kill the derived span (module axiom) and take
    value 1 on the line generator, so the line cannot meet the derived
    subalgebra.  These feed the one-dimensional vanishing checks.
    """
    d = table.dim
    der = derived_span(table)
    out = []
    for code in range(1, 1 << d):
        u = np.array([(code >> k) & 1 for k in range(d)], dtype=np.uint8)
        line = Subspace.from_rows(d, u.reshape(1, -1))
        if is_ideal(table, line) is not IdealVerdict.IDEAL:
            continue
        for lcode in range(1, 1 << d):
            lam = np.array([(lcode >> k) & 1 for k in range(d)], dtype=np.uint8)
            if int(lam @ u) % 2 != 1:
                continue
            ok = True
            for i in range(d):
                for j in range(d):
                    if int(lam @ table.c[i, j]) % 2:
                        ok = False
            if ok:
                out.append((line, lam))
    return out
