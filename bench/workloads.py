"""The benchmark's workloads and the seeded generator of their inputs.

The workloads are named in BENCHMARK.json at the root of the checkout;
spec.json gives each one's list of real `commcoh` command lines.  `{algebra}`
stands for the algebra file generated from the seed: heis3 (brackets
[x, y] = [y, x] = z, everything else zero) written in a basis g drawn
from GL(3, F2), with the ideal spanned by z carried along as
`subspace h`.  The command sees only that file.

The bracket of two basis vectors is always 0 or z, so the basis change
fixes how many terms each nonzero bracket has: the number of ones in z's
new coordinates.  That number sets the sparsity of every cochain matrix
and so the work (heis3 has only seven tables over F2, in three sparsity
classes).  A workload fixes the class and the seed draws g uniformly
inside it, so different seeds give different files with comparable work.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path


HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = {w["name"]: SPEC["workloads"][w["name"]] for w in BENCHMARK["workloads"]}


def _minor(m, r: int, c: int) -> int:
    """Determinant mod 2 of m without row r and column c."""
    (a, b), (u, v) = [[x for j, x in enumerate(row) if j != c] for i, row in enumerate(m) if i != r]
    return (a & v) ^ (b & u)


def gl3():
    """All (g, g^-1) in GL(3, F2), in a fixed order."""
    out = []
    for bits in itertools.product((0, 1), repeat=9):
        g = (bits[0:3], bits[3:6], bits[6:9])
        if sum(g[0][c] & _minor(g, 0, c) for c in range(3)) & 1:
            # over F2 the inverse of a determinant-one matrix is its adjugate
            out.append((g, tuple(tuple(_minor(g, j, i) for j in range(3)) for i in range(3))))
    return out


def draw_basis(seed: int, z_terms: int):
    """The seed's basis change among those giving z exactly z_terms terms."""
    pool = [(g, inv) for g, inv in gl3() if sum(inv[2]) == z_terms]
    return random.Random(seed).choice(pool)


def heis3_file(g, g_inv) -> str:
    """heis3 in the basis whose i-th vector has old coordinates g[i]."""
    labels = ("x", "y", "z")
    z_new = g_inv[2]  # z = sum_k g_inv[2][k] * (new basis vector k)
    rhs = "+".join(labels[k] for k in range(3) if z_new[k])
    lines = [
        "# heis3 in basis g = " + " ".join("".join(map(str, row)) for row in g),
        "algebra heis3",
        "dim 3",
        "basis x y z",
    ]
    for a, b in itertools.product(range(3), repeat=2):
        # [g_a, g_b] = (g_a0 g_b1 + g_a1 g_b0) z
        if (g[a][0] & g[b][1]) ^ (g[a][1] & g[b][0]):
            lines.append(f"bracket {labels[a]} {labels[b]} = {rhs}")
    lines.append("subspace h = " + "".join(map(str, z_new)))
    return "\n".join(lines) + "\n"


def command_lines(name: str, algebra_path: str) -> list:
    """argv lists for `python -m commcoh.cli`, with the input file filled in."""
    return [line.replace("{algebra}", algebra_path).split() for line in WORKLOADS[name]["commands"]]
