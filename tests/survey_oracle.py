"""The survey's earlier Jacobi filter and orbit transforms, kept as oracles.

The filter builds every candidate table of a block and evaluates the
Jacobi identity with int32 einsum cubes (candidates x d^5 entries each);
the package's bit-sliced filter must keep exactly the same tables in the
same order.  The transforms are built one row at a time by an einsum over
g, g and the inverse of g; the package builds them with Kronecker
products.  The line-module search tests "the functional kills every
bracket" with a loop over the pairs (i, j); the package reads it off one
product.
"""

from __future__ import annotations

import numpy as np

from commcoh.algebra import IdealVerdict, is_ideal
from commcoh.catalog import _free_pairs, _gl_group
from commcoh.gf2 import BitMatrix, Subspace, inverse

ORACLE_BLOCK = 8192  # candidates per einsum evaluation


def candidate_range(d, start, stop):
    """Symmetric bracket tables for the candidate indices [start, stop)."""
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


def jacobi_mask(c):
    ci = c.astype(np.int32)
    t1 = np.einsum("njku,nium->nijkm", ci, ci)
    t2 = np.einsum("nkiu,njum->nijkm", ci, ci)
    t3 = np.einsum("niju,nkum->nijkm", ci, ci)
    return ~(((t1 + t2 + t3) % 2).any(axis=(1, 2, 3, 4)))


def oracle_survivors(d, start, stop):
    """Tables of [start, stop) that pass jacobi_mask, in index order."""
    parts = [np.zeros((0, d, d, d), dtype=np.uint8)]
    for lo in range(start, stop, ORACLE_BLOCK):
        c = candidate_range(d, lo, min(lo + ORACLE_BLOCK, stop))
        parts.append(c[jacobi_mask(c)])
    return np.concatenate(parts, axis=0)


def transform_matrices_loop(d):
    """Action of each basis change on flattened tables, row by row."""
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


def line_module_instances_loop(table):
    """(ideal line, functional) pairs, the functional tested bracket by bracket."""
    d = table.dim
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
