"""Exact linear algebra over the two-element field on bit-packed matrices.

Matrices are stored row-major with 64 entries packed into each uint64
word; addition of entries is XOR and the scalar field is exactly {0, 1}.
Padding bits past the last column are kept at zero after every
operation, otherwise ranks silently corrupt.

Elimination runs on Python ints, one per row, so one XOR adds whole
rows.  The bits of a row are reversed on the way in: column 0 is the
highest of its 64 * words bits and column c is bit 64 * words - 1 - c.
Every route reduces through one kernel, _echelon: a row is reduced by
its highest set bit, the leftmost column, against an echelon keyed by
bit length, so one forward pass gives a row-echelon form.  The highest
bit is the cheap one: ``bit_length()`` finds it without building an int
and keys the pivot dict by a small int, while the lowest bit needs
``x & -x`` (two new ints) and a dict key as wide as the row.  On the
degree-8 tensor coboundary of the catalog heis3 (19683 x 6561, trivial
coefficients) the highest-bit pass ranks in 0.02 s and the lowest-bit
pass in 0.34 s on a 2-vCPU x86 host.  rank() and the Betti route read
the echelon alone; the spectral pairing reads the pivot of each stored
row, and the long exact sequence what is left below lim of a row that
carries its combination in its low bits, a cycle (cohomology._Classes).
One back-substitution (_substitute) serves rref() and the class lifts.

Rows enter the echelon from the bottom of the matrix upward, through one
walk (_rows_up): the matrix is cut from the bottom into pieces of at
most RANK_BLOCK_BYTES >> 3 bytes of rows (one row if wider), the bottom
piece first, each piece's rows go in last row first, and each row
becomes an int only when it is taken.  Only one piece's bytes,
bit-reversed, are held beside the echelon, and a masked-out row is
skipped inside its piece, never copied.  _int_words, the way back, fills
its word array one piece of ints at a time.  Pivots stay on the leftmost
column and the RREF is unique, so the order changes no result, only the
work.  The Betti route (cohomology.betti_table) ranks transposed
coboundaries this way and masks rows out: a cleared row never becomes an
int.  On the degree-7 tensor coboundary of heis3 with two-term brackets
and adjoint coefficients (19683 x 6561, the largest matrix of the
benchmark) the echelon makes 483,814 row XORs bottom-up against 998,788
top-down (543,734 against 1,250,136 in another basis), and takes 0.13 s
against 0.19 s on the host above.  Reversing the rows only inside each
1 MiB block makes 966,750 XORs: the order has to be reversed across the
whole matrix.

Products, transposes, column takes and WordMap.apply_rows work on the
coordinates of the ones (``coords``), unpacking only the nonzero words.  A product XORs
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

from collections import deque

import numpy as np

WORD_BITS = 64
# the size of every block: the temporaries of a product or transpose, a
# weight part, a generator chunk; the int conversions (_rows_up, _int_words)
# work in pieces of an eighth of it
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


def _int_words(ints: list, cols: int) -> np.ndarray:
    """Word buffer of len(ints) x cols whose rows are ints, filled a piece of rows at a time."""
    nw = _word_count(cols)
    out = np.zeros((len(ints), nw), dtype=np.uint64)
    step = _piece_rows(nw)
    for start in range(0, len(ints) if nw else 0, step):
        piece = b"".join(x.to_bytes(nw * 8, "big") for x in ints[start : start + step])
        out[start : start + step] = np.frombuffer(piece.translate(_BIT_REVERSE), dtype="<u8").reshape(-1, nw)
    return out


def _xor_scatter(words: np.ndarray, r: np.ndarray, c: np.ndarray) -> None:
    """XOR a one into words at each (r[i], c[i]); a coordinate listed twice cancels."""
    nw = words.shape[1]
    bits = np.left_shift(np.uint64(1), (c % WORD_BITS).astype(np.uint64))
    np.bitwise_xor.at(words.reshape(-1), r * nw + c // WORD_BITS, bits)


def _block_rows(words: int) -> int:
    """The rows of that many words each in one block of about RANK_BLOCK_BYTES, at least one."""
    return max(1, RANK_BLOCK_BYTES // max(1, words * 8))


def _piece_rows(words: int) -> int:
    """The rows of that many words each in one piece of RANK_BLOCK_BYTES >> 3, at least one."""
    return max(1, (RANK_BLOCK_BYTES >> 3) // max(1, words * 8))


def _runs(counts: np.ndarray):
    """(run, offset) of each element of consecutive runs of the given lengths."""
    run = np.repeat(np.arange(counts.size), counts)
    return run, np.arange(run.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _grouped(keys, values, n: int) -> tuple:
    """values grouped by key (0 <= key < n, others dropped), as (starts, values):
    the values of key x are values[starts[x] : starts[x + 1]]."""
    keep = keys >= 0
    keys, values = keys[keep], values[keep]
    starts = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))
    return starts, values[np.argsort(keys, kind="stable")]


def _gather(grouped: tuple, keys, tags) -> tuple:
    """(tag, value) for each value grouped under keys[t], tagged tags[t]."""
    starts, values = grouped
    run, offset = _runs(starts[keys + 1] - starts[keys])
    return tags[run], values[starts[keys][run] + offset]


def _rows_up(m: "BitMatrix", live=None):
    """(i, row i of m as an int, column 0 its highest of 64 * words bits) for
    each row where the bool array live is set (all without it), last row first,
    the bytes of one piece of rows (_piece_rows) made at a time, each int made
    when it is taken."""
    nb = m.words.shape[1] * 8
    step = _piece_rows(m.words.shape[1])
    for stop in range(m.rows, 0, -step):
        start = max(0, stop - step)
        index = range(stop - 1, start - 1, -1)
        if live is not None:
            index = start + np.flatnonzero(live[start:stop])[::-1]  # 8 bytes a live row, no row copied
            if not index.size:
                continue
        buf = m.words[start:stop].astype("<u8", copy=False).tobytes().translate(_BIT_REVERSE)
        for i in map(int, index):
            at = (i - start) * nb
            yield i, int.from_bytes(buf[at : at + nb], "big")
        del buf  # before the next piece's bytes are made


def _echelon(rows, top: dict, lim: int = 1):
    """Reduce each int of rows by its highest bit, while it is at least lim, against the
    echelon top keyed by bit length (the pivot), and yield its result: the row as stored
    in top once it leads at a new pivot, or what is left of it below lim (0 for lim 1)."""
    for x in rows:
        while x >= lim:
            h = x.bit_length()
            y = top.get(h)
            if y is None:
                top[h] = x
                break
            x ^= y
        yield x


def _row_echelon(m: "BitMatrix", live=None) -> dict:
    """The echelon of the rows of m (_rows_up), where no row's result is read."""
    top = {}
    deque(_echelon((x for _, x in _rows_up(m, live)), top), 0)
    return top


def _reduce(x: int, mask: int, by_length: dict) -> int:
    """Clear the bits of x in mask with the reduced rows keyed by pivot bit length."""
    m = x & mask
    while m:
        x ^= by_length[m.bit_length()]
        m = x & mask
    return x


def _substitute(rows: dict, by: dict, mask: int = 0) -> int:
    """Back-substitute the echelon rows in place, lowest pivot first, clearing the pivots
    in mask (those of by) and of the rows before, and add each to by; returns the mask."""
    for h in sorted(rows):  # pivots from the rightmost column leftwards
        rows[h] = by[h] = _reduce(rows[h], mask, by)
        mask |= 1 << (h - 1)
    return mask


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
        step = _block_rows(self.words.shape[1])
        for stop in range(self.rows, 0, -step):
            block = self.words[max(0, stop - step) : stop]
            yield BitMatrix(block.shape[0], self.cols, block)

    def rank(self) -> int:
        """Rank by the forward pass alone, converting one row block at a time."""
        return len(_row_echelon(self))

    def rref(self):
        """Reduced row-echelon form.

        Returns (reduced, rank, pivots): reduced holds the rank nonzero rows
        of the unique RREF of the input, which span its row space.
        """
        top = _row_echelon(self)
        _substitute(top, {})
        order = sorted(top, reverse=True)
        words = _int_words([top[h] for h in order], self.cols)
        width = self.words.shape[1] * WORD_BITS
        pivots = tuple(width - h for h in order)
        return BitMatrix(len(order), self.cols, words), len(order), pivots


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

    def column_rows(self) -> tuple:
        """The rows with a one in each column, grouped by column (_grouped)."""
        return _grouped(np.concatenate((self.a, self.b)), np.tile(np.arange(self.rows), 2), self.cols)

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        """Product with a packed matrix: row i is row a[i] plus row b[i] of other."""
        if self.cols != other.rows:
            raise GF2Error(f"product shape mismatch: {self.shape} @ {other.shape}")
        out = np.zeros((self.rows, other.words.shape[1]), dtype=np.uint64)
        step = _block_rows(out.shape[1])
        for start in range(0, self.rows, step):
            block = out[start : start + step]  # a view: rows are gathered one block at a time
            for col in (self.a[start : start + step], self.b[start : start + step]):
                hit = np.flatnonzero(col >= 0)
                block[hit] ^= other.words[col[hit]]
        return BitMatrix(self.rows, other.cols, out)

    def apply_rows(self, x: BitMatrix) -> BitMatrix:
        """x @ self^T: column i is column a[i] plus column b[i] of x.  Each one
        (r, c) of x is scattered to the columns that read c, a block of ones
        at a time, so the product is written once and nothing is transposed."""
        if x.cols != self.cols:
            raise GF2Error(f"product shape mismatch: {x.shape} @ {self.shape}^T")
        out = np.zeros((x.rows, _word_count(self.rows)), dtype=np.uint64)
        readers = self.column_rows()
        fanout = max(1, -(-readers[1].size // max(1, self.cols)))  # readers per column, rounded up
        for r, c in x._coord_blocks(_COORD_BYTES * fanout):
            _xor_scatter(out, *_gather(readers, c, r))
        return BitMatrix(x.rows, self.rows, out)


def inverse(a: BitMatrix) -> BitMatrix:
    """a^-1, read off the reduced row-echelon form of [a | 1]."""
    n = a.rows
    if a.cols != n:
        raise GF2Error("inverse needs a square matrix")
    red, _, pivots = BitMatrix.from_dense(np.hstack([a.to_dense(), np.eye(n, dtype=np.uint8)])).rref()
    if any(p >= n for p in pivots):
        raise GF2Error("matrix is singular")
    return red.take_columns(np.arange(n, 2 * n))


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
        red, _, pivots = rows.rref()
        return cls(ambient_dim, red, pivots)

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
