"""Exact linear algebra over the two-element field on bit-packed matrices.

Matrices are stored row-major with 64 entries packed into each uint64
word; addition of entries is XOR and the scalar field is exactly {0, 1}.
Padding bits past the last column are kept at zero after every
operation, otherwise ranks silently corrupt.

Elimination runs on Python ints, one per row, so one XOR adds whole
rows.  The bits of a row are reversed on the way in: column 0 is the
highest of its 64 * words bits and column c is bit 64 * words - 1 - c.
Pivots are taken on the highest set bit, which is the leftmost column,
so one forward pass gives a row-echelon form.  The highest bit is the
cheap one: ``bit_length()`` finds it without building an int and keys
the pivot dict by a small int, while the lowest bit needs ``x & -x``
(two new ints) and a dict key as wide as the row.  On the degree-8
tensor coboundary of the catalog heis3 (19683 x 6561, trivial
coefficients) the highest-bit pass ranks in 0.02 s and the lowest-bit
pass in 0.34 s on a 2-vCPU x86 host.  The forward pass alone gives
the rank; the RREF back-substitutes in ascending pivot order, clearing
the pivot bits of each row with the rows already reduced.

Rows enter the echelon from the bottom of the matrix upward: row_blocks
cuts the blocks from the bottom, yields the bottom block first, and each
block's rows go in last row first (_row_echelon), converted to ints one
block at a time.  Pivots stay on the leftmost column and the RREF is
unique, so the order changes no result, only the work.  The Betti route
(cohomology.py) ranks transposed coboundaries this way and may leave
rows out: a row it has cleared never becomes an int.
On the degree-7 tensor coboundary of heis3 with two-term brackets and
adjoint coefficients (19683 x 6561, the largest matrix of the benchmark)
the echelon makes 483,814 row XORs bottom-up against 998,788 top-down
(543,734 against 1,250,136 in another basis), and takes 0.13 s against
0.19 s on the host above.  Reversing the rows only inside each 1 MiB
block makes 966,750 XORs: the order has to be reversed across the
whole matrix.

Products, transposes and column takes work on the coordinates of the
ones (``coords``), unpacking only the nonzero words.  A product XORs
row j of the right operand into row i for each one (i, j) of the left,
by one gather and one ``bitwise_xor.reduceat``, so it costs the ones of
the left operand times the words of the right.  The left operands on
the cochain routes (differentials, selections, span maps) have one or
two ones a row: of the 400 products with 4096 or more left cells in
the benchmark and frontier commands, the densest had 5.3% ones.  A
dense left operand is the slow case: a random 4096 x 4096 product at
density 1/2 takes 1.1 s against 0.40 s for the Four-Russians table
loop this replaced, on the host above.  A transpose XOR-scatters the
swapped coordinates; a column take maps columns through one lookup
array.  Coordinates and gathered rows are made one row block of about
RANK_BLOCK_BYTES at a time, so no temporary grows with the ones.

Subspaces are always kept with a reduced-row-echelon basis, so two equal
subspaces are bit-identical and comparison is a byte compare; any other
basis is refused.  Queries read the pivot columns P of the basis B, the
identity on P: a row m reduces to m + m[P] @ B, a row of the span has the
coefficients m[P], and b <= a puts the pivots of b among those of a, whose
rows at the other pivots complete b to a.  Values are immutable;
operations return new ones.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
# rank() and rref() convert this many bytes of rows to ints at once; the
# byte copies of one block, not of the whole matrix, are alive beside the echelon
RANK_BLOCK_BYTES = 1 << 19
# temporaries per one while coordinates are made: its word unpacked to 64
# bytes when the word holds no other one, nonzero indices and coordinates
_COORD_BYTES = 128


class GF2Error(ValueError):
    """Raised on dimension mismatches and failed containment checks."""


def _word_count(cols: int) -> int:
    return (cols + WORD_BITS - 1) // WORD_BITS


def _pack(dense: np.ndarray) -> np.ndarray:
    """Pack a {0,1} uint8 array into little-endian uint64 words per row."""
    rows, cols = dense.shape
    nw = _word_count(cols)
    if rows == 0 or nw == 0:
        return np.zeros((rows, nw), dtype=np.uint64)
    padded = np.zeros((rows, nw * WORD_BITS), dtype=np.uint8)
    np.bitwise_and(dense, 1, out=padded[:, :cols])
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


# _BIT_REVERSE[b] is the byte b with its eight bits in reverse order
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _int_rows(words: np.ndarray) -> list:
    """Each row as an int whose highest of 64 * words bits is column 0."""
    nb = words.shape[1] * 8
    if nb == 0:
        return [0] * words.shape[0]
    buf = words.astype("<u8", copy=False).tobytes().translate(_BIT_REVERSE)
    return [int.from_bytes(buf[i : i + nb], "big") for i in range(0, len(buf), nb)]


def _int_words(ints: list, rows: int, cols: int) -> np.ndarray:
    """Word buffer of rows x cols whose leading rows are ints; the rest are zero."""
    nw = _word_count(cols)
    words = np.zeros((rows, nw), dtype=np.uint64)
    if ints and nw:
        buf = b"".join(x.to_bytes(nw * 8, "big") for x in ints).translate(_BIT_REVERSE)
        words[: len(ints)] = np.frombuffer(buf, dtype="<u8").reshape(len(ints), nw)
    return words


def _xor_scatter(words: np.ndarray, r: np.ndarray, c: np.ndarray) -> None:
    """XOR a one into words at each (r[i], c[i]); a coordinate listed twice cancels."""
    nw = words.shape[1]
    bits = np.left_shift(np.uint64(1), (c % WORD_BITS).astype(np.uint64))
    np.bitwise_xor.at(words.reshape(-1), r * nw + c // WORD_BITS, bits)


def _echelon(rows, top=None) -> dict:
    """Independent rows spanning rows, keyed by the bit length of each (its pivot).

    Given top, the new rows are reduced against it and added to it in place.
    """
    top = {} if top is None else top
    for x in rows:
        while x:
            h = x.bit_length()
            y = top.get(h)
            if y is None:
                top[h] = x
                break
            x ^= y
    return top


def _row_echelon(m: "BitMatrix", live=None) -> dict:
    """_echelon of the rows of m, or of those where the bool array live is set.

    The rows are converted to ints one row block at a time and fed from
    the bottom of m upward: the bottom block first, each block's last row
    first.
    """
    top, stop = {}, m.rows
    for block in m.row_blocks():
        start = stop - block.rows
        words = block.words if live is None else block.words[live[start:stop]]
        _echelon(reversed(_int_rows(words)), top)
        stop = start
    return top


def _reduce(x: int, mask: int, by_length: dict) -> int:
    """Clear the bits of x in mask with the reduced rows keyed by pivot bit length."""
    m = x & mask
    while m:
        x ^= by_length[m.bit_length()]
        m = x & mask
    return x


def _is_rref(m: "BitMatrix", pivots: tuple) -> bool:
    """Whether m is the reduced row-echelon form with these increasing pivots."""
    bounds = (-1, *pivots, m.cols)  # the pivots increase inside the columns
    if len(pivots) != m.rows or any(a >= b for a, b in zip(bounds, bounds[1:])):
        return False
    if not pivots:
        return True
    c = np.asarray(pivots, dtype=np.int64)
    word, bit = np.divmod(c, WORD_BITS)
    one = np.left_shift(np.uint64(1), bit.astype(np.uint64))  # each pivot's bit in its word
    mask = np.zeros(m.words.shape[1], dtype=np.uint64)
    np.bitwise_or.at(mask, word, one)
    at = m.words[np.arange(c.size), word]
    blocks = [b.words for b in m.row_blocks()][::-1]  # views, top to bottom: no copy of m
    lead = np.concatenate([np.argmax(w != 0, axis=1) for w in blocks])
    ones = np.concatenate([np.bitwise_count(w & mask).sum(axis=1) for w in blocks])
    # the pivot is the lowest one of the row's first nonzero word, and its only pivot one
    return np.array_equal(lead, word) and np.array_equal(at & -at, one) and bool((ones == 1).all())


class BitMatrix:
    """A rows x cols matrix over GF(2), bit-packed row-major."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if words.shape != (rows, _word_count(cols)):
            raise GF2Error("word buffer does not match matrix shape")
        self.rows = rows
        self.cols = cols
        self.words = words
        words.setflags(write=False)

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, _word_count(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        diag = np.arange(n)
        return cls.from_coords(n, n, diag, diag)

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        arr = np.atleast_2d(np.asarray(dense, dtype=np.uint8))
        return cls(arr.shape[0], arr.shape[1], _pack(arr))

    @classmethod
    def from_coords(cls, rows: int, cols: int, r, c) -> "BitMatrix":
        """rows x cols matrix with a one at each (r[i], c[i]).

        Entries are XOR-scattered into the packed words, so a coordinate
        listed twice cancels, as two equal terms of a GF(2) sum do.
        """
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if r.shape != c.shape:
            raise GF2Error("from_coords: row and column lists differ in length")
        if r.size and not (0 <= r.min() and r.max() < rows and 0 <= c.min() and c.max() < cols):
            raise GF2Error("from_coords: coordinate outside the matrix")
        words = np.zeros((rows, _word_count(cols)), dtype=np.uint64)
        _xor_scatter(words, r, c)
        return cls(rows, cols, words)

    @classmethod
    def vstack(cls, *mats: "BitMatrix") -> "BitMatrix":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise GF2Error("vstack needs equal column counts")
        words = np.concatenate([m.words for m in mats], axis=0)  # a fresh array
        return cls(sum(m.rows for m in mats), cols, words)

    # -- inspection --------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def get(self, i: int, j: int) -> int:
        w, s = divmod(j, WORD_BITS)
        return int((self.words[i, w] >> np.uint64(s)) & np.uint64(1))

    def to_dense(self) -> np.ndarray:
        if self.rows == 0 or self.cols == 0:
            return np.zeros(self.shape, dtype=np.uint8)
        as_bytes = np.ascontiguousarray(self.words).view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        return bits[:, : self.cols].copy()

    def coords(self):
        """(row, col) int64 arrays of the ones, in row-major order."""
        r, c = zip(*self._coord_blocks(_COORD_BYTES))
        return np.concatenate(r), np.concatenate(c)

    def _coord_blocks(self, bytes_per_one: int):
        """coords() of row blocks of one row or about RANK_BLOCK_BYTES at bytes_per_one a one."""
        budget = max(1, RANK_BLOCK_BYTES // bytes_per_one)
        cuts = [0]
        if self.words.size * WORD_BITS <= budget:  # even all ones fit: skip the count
            cuts.append(self.rows)
        else:
            ones = np.cumsum(np.bitwise_count(self.words).sum(axis=1, dtype=np.int64))
            while cuts[-1] < self.rows:
                below = ones[cuts[-1] - 1] if cuts[-1] else 0
                cuts.append(max(cuts[-1] + 1, int(np.searchsorted(ones, below + budget, "right"))))
        for start, stop in zip(cuts, cuts[1:]):
            block = self.words[start:stop]
            wr, wc = np.nonzero(block)
            nonzero_bytes = block[wr, wc].view(np.uint8).reshape(-1, 8)
            k, b = np.nonzero(np.unpackbits(nonzero_bytes, axis=1, bitorder="little"))
            yield wr[k] + start, wc[k] * WORD_BITS + b

    def is_zero(self) -> bool:
        return not self.words.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if self.shape != other.shape:
            raise GF2Error("shape mismatch in addition")
        return BitMatrix(self.rows, self.cols, self.words ^ other.words)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        """GF(2) matrix product; the one (i, j) of self adds row j of other to row i."""
        if self.cols != other.rows:
            raise GF2Error(f"product shape mismatch: {self.shape} @ {other.shape}")
        nw = other.words.shape[1]
        out = np.zeros((self.rows, nw), dtype=np.uint64)
        if nw:
            # a block holds whole rows, so each output row is written once
            for r, c in self._coord_blocks(_COORD_BYTES + 16 * nw):
                if r.size:
                    starts = np.concatenate(([0], np.flatnonzero(r[1:] != r[:-1]) + 1))
                    out[r[starts]] = np.bitwise_xor.reduceat(other.words[c], starts, axis=0)
        return BitMatrix(self.rows, other.cols, out)

    def transpose(self) -> "BitMatrix":
        words = np.zeros((self.cols, _word_count(self.rows)), dtype=np.uint64)
        for r, c in self._coord_blocks(_COORD_BYTES):
            _xor_scatter(words, c, r)
        return BitMatrix(self.cols, self.rows, words)

    def take_columns(self, cols) -> "BitMatrix":
        """The distinct columns cols of self, in that order."""
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and not (0 <= cols.min() and cols.max() < self.cols):
            raise GF2Error("take_columns: column outside the matrix")
        slot = np.full(self.cols, -1, dtype=np.int64)  # new position of each column
        slot[cols] = np.arange(cols.size)
        if np.count_nonzero(slot >= 0) != cols.size:
            raise GF2Error("take_columns: a column is taken twice")
        words = np.zeros((self.rows, _word_count(cols.size)), dtype=np.uint64)
        for r, c in self._coord_blocks(_COORD_BYTES):
            t = slot[c]
            keep = t >= 0
            _xor_scatter(words, r[keep], t[keep])
        return BitMatrix(self.rows, cols.size, words)

    # -- elimination -------------------------------------------------

    def row_blocks(self):
        """Row slices of one row or about RANK_BLOCK_BYTES each, bottom to top.

        The blocks are cut from the bottom, so a partial block is the top one.
        """
        step = max(1, RANK_BLOCK_BYTES // max(1, self.words.shape[1] * 8))
        for stop in range(self.rows, 0, -step):
            block = self.words[max(0, stop - step) : stop]
            yield BitMatrix(block.shape[0], self.cols, block)

    def rank(self) -> int:
        """Rank by the forward pass alone, converting one row block at a time."""
        return len(_row_echelon(self))

    def rref(self):
        """Reduced row-echelon form.

        Returns (reduced, rank, pivots).  Row space is preserved and the
        result is the unique RREF of the input.
        """
        top = _row_echelon(self)
        mask = 0
        for h in sorted(top):  # pivots from the rightmost column leftwards
            top[h] = _reduce(top[h], mask, top)
            mask |= 1 << (h - 1)
        order = sorted(top, reverse=True)
        words = _int_words([top[h] for h in order], self.rows, self.cols)
        width = self.words.shape[1] * WORD_BITS
        pivots = tuple(width - h for h in order)
        return BitMatrix(self.rows, self.cols, words), len(order), pivots


class WordMap:
    """A rows x cols matrix over GF(2) with at most two ones a row.

    Row i has its ones at columns a[i] and b[i], -1 meaning none (b=None:
    no second one).  Maps of words, such as a quotient's projection and
    section, have no more, so two index arrays replace packed rows as
    wide as the word space.
    """

    __slots__ = ("rows", "cols", "a", "b")

    def __init__(self, rows: int, cols: int, a, b=None):
        a = np.asarray(a, dtype=np.int64)
        b = np.full(rows, -1, dtype=np.int64) if b is None else np.asarray(b, dtype=np.int64)
        if a.shape != (rows,) or b.shape != (rows,):
            raise GF2Error("word map: index arrays do not match the row count")
        if rows and not (-1 <= min(a.min(), b.min()) and max(a.max(), b.max()) < cols):
            raise GF2Error("word map: column outside the matrix")
        self.rows, self.cols, self.a, self.b = rows, cols, a, b
        a.setflags(write=False), b.setflags(write=False)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        """Product with a packed matrix: row i is row a[i] plus row b[i] of other."""
        if self.cols != other.rows:
            raise GF2Error(f"product shape mismatch: {self.shape} @ {other.shape}")
        out = np.zeros((self.rows, other.words.shape[1]), dtype=np.uint64)
        step = max(1, RANK_BLOCK_BYTES // max(1, out.shape[1] * 8))
        for start in range(0, self.rows, step):
            block = out[start : start + step]  # a view: rows are gathered one block at a time
            for col in (self.a[start : start + step], self.b[start : start + step]):
                hit = np.flatnonzero(col >= 0)
                block[hit] ^= other.words[col[hit]]
        return BitMatrix(self.rows, other.cols, out)

    def product_columns(self, other: BitMatrix, cols) -> BitMatrix:
        """self @ other.take_columns(cols), made one block of rows at a time:
        each block gathers its rows of other, then takes their columns, so
        only the result is held whole, never a full-height copy of other."""
        cols = np.asarray(cols, dtype=np.int64)
        out = np.zeros((self.rows, _word_count(cols.size)), dtype=np.uint64)
        step = max(1, RANK_BLOCK_BYTES // max(1, other.words.shape[1] * 8))
        for start in range(0, self.rows, step):
            a, b = self.a[start : start + step], self.b[start : start + step]
            rows = WordMap(a.size, self.cols, a, b) @ other
            out[start : start + step] = rows.take_columns(cols).words
        return BitMatrix(self.rows, cols.size, out)


def solve(a: BitMatrix, b: BitMatrix):
    """Solve a @ x = b over GF(2).

    Returns the pivot-based particular solution, or None if the system
    is inconsistent.  When a has full column rank the solution is unique.
    """
    if a.rows != b.rows:
        raise GF2Error("solve: row count mismatch")
    aug = BitMatrix.from_dense(
        np.concatenate([a.to_dense(), b.to_dense()], axis=1)
    )
    red, _, pivots = aug.rref()
    if any(p >= a.cols for p in pivots):
        return None
    dense = red.to_dense()
    x = np.zeros((a.cols, b.cols), dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = dense[i, a.cols:]
    return BitMatrix.from_dense(x) if a.cols else BitMatrix.zeros(0, b.cols)


def inverse(a: BitMatrix) -> BitMatrix:
    if a.rows != a.cols:
        raise GF2Error("inverse needs a square matrix")
    x = solve(a, BitMatrix.identity(a.rows))
    if x is None:
        raise GF2Error("matrix is singular")
    return x


class Subspace:
    """A subspace of F_2^n held as its reduced row-echelon basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: BitMatrix, pivots: tuple):
        if basis.cols != ambient_dim or not _is_rref(basis, pivots):
            raise GF2Error("subspace basis is not reduced row-echelon at its pivots")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Subspace":
        if isinstance(rows, np.ndarray):
            rows = BitMatrix.from_dense(rows.reshape(-1, ambient_dim))
        if rows.cols != ambient_dim:
            raise GF2Error("spanning rows have wrong ambient dimension")
        red, rank, pivots = rows.rref()
        words = red.words[:rank].copy()
        return cls(ambient_dim, BitMatrix(rank, ambient_dim, words), pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.zeros(0, ambient_dim), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def reduce_rows(self, mat: BitMatrix) -> BitMatrix:
        """Reduce every row of mat modulo this subspace, clearing its pivot columns."""
        if mat.cols != self.ambient_dim:
            raise GF2Error("reduce_rows: ambient dimension mismatch")
        return mat + mat.take_columns(self.pivots) @ self.basis

    def contains_vector(self, vec: np.ndarray) -> bool:
        return self.reduce_rows(BitMatrix.from_dense(np.asarray(vec).reshape(1, -1))).is_zero()

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise GF2Error("containment: ambient dimension mismatch")
        return self.reduce_rows(other.basis).is_zero()

    def row_coefficients(self, mat: BitMatrix) -> BitMatrix:
        """Coefficients of rows of mat in this RREF basis (rows must lie in it)."""
        coeffs = mat.take_columns(self.pivots)
        if coeffs @ self.basis != mat:
            raise GF2Error("row_coefficients: rows not inside the subspace")
        return coeffs


def kernel_basis(m: BitMatrix) -> Subspace:
    """Right null space {x : m @ x = 0} with canonical basis."""
    red, _, pivots = m.rref()
    n = m.cols
    free = np.delete(np.arange(n), pivots)
    if free.size == 0:
        return Subspace.zero(n)
    # free variable t set to one: pivot variable i takes red[i, free[t]]
    i, t = red.take_columns(free).coords()
    rows = np.concatenate([np.arange(free.size), t])
    cols = np.concatenate([free, np.asarray(pivots, dtype=np.int64)[i]])
    return Subspace.from_rows(n, BitMatrix.from_coords(free.size, n, rows, cols))


def image(m: BitMatrix) -> Subspace:
    """Column space of m, i.e. the image of x -> m @ x."""
    return Subspace.from_rows(m.rows, m.transpose())


class QuotientCoords:
    """Canonical coset coordinates on a/b for a pair b <= a.

    The pivots of b are among those of a, and a's basis rows at the other
    pivots complete b to a.  Those rows represent the coset basis, and the
    coset coordinates of a vector of a are the entries, at their pivot
    columns, of the vector reduced modulo b.
    """

    __slots__ = ("sup", "sub", "free")

    def __init__(self, a: Subspace, b: Subspace):
        if not a.contains(b):
            raise GF2Error("quotient coordinates: not a subspace")
        self.sup, self.sub = a, b
        below = set(b.pivots)
        self.free = [k for k, c in enumerate(a.pivots) if c not in below]

    @property
    def dim(self) -> int:
        return len(self.free)

    def project_rows(self, mat: BitMatrix) -> BitMatrix:
        """Coset coordinates of ambient row vectors (must lie in a)."""
        self.sup.row_coefficients(mat)  # raises unless the rows lie in a
        return self.sub.reduce_rows(mat).take_columns(np.take(self.sup.pivots, self.free))

    def lift_rows(self) -> BitMatrix:
        """Ambient representatives of the coset coordinate basis."""
        return BitMatrix(self.dim, self.sup.ambient_dim, self.sup.basis.words[self.free])


def induced_map(m: "BitMatrix | WordMap", dom: QuotientCoords, cod: QuotientCoords) -> BitMatrix:
    """Matrix of the induced map a/b -> c/d, for dom = a/b and cod = c/d.

    Both containments, m(a) <= c and m(b) <= d, are checked; the result
    is written in the canonical coset coordinates of the two quotients.
    """
    if m.cols != dom.sup.ambient_dim or m.rows != cod.sup.ambient_dim:
        raise GF2Error("induced_map: matrix shape does not match ambients")
    apply_rows = lambda vecs: (m @ vecs.transpose()).transpose()  # vecs @ m^T, through m @ packed
    if dom.sup.dim and not cod.sup.reduce_rows(apply_rows(dom.sup.basis)).is_zero():
        raise GF2Error("induced_map: m does not map dom_a into cod_c")
    if dom.sub.dim and not cod.sub.reduce_rows(apply_rows(dom.sub.basis)).is_zero():
        raise GF2Error("induced_map: m does not map dom_b into cod_d")
    return cod.project_rows(apply_rows(dom.lift_rows())).transpose()
