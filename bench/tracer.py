"""Run one commcoh command with a span around every call into each layer.

Usage: python bench/tracer.py SPANS.json -- <commcoh arguments>

The layers are the modules of the package.  Their public functions and
the methods listed below are replaced by wrappers before the command
runs, in the defining module and in every module that imported them by
name, so calls between modules are seen too.  Spans (name, start, end,
parent) stay in memory; after the command they are written to SPANS.json
together with the counters and the originals are put back.  Span times
are read from a clock that stops while a counter hook runs, so the
hooks' cost goes to no layer but to cli.unattributed_s.  The exit
code is the command's own.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import statistics
import time
from collections import defaultdict

MODULES = ("catalog", "algebra", "cochain", "gf2", "cohomology", "spectral", "comparison")

# Methods traced besides the public module-level functions.
METHODS = {
    "BitMatrix": ("rref", "__matmul__", "transpose"),
    "Subspace": ("from_rows", "zero", "full", "reduce_rows", "contains_vector",
                 "contains", "row_coefficients"),
    "QuotientCoords": ("__init__", "project_rows", "lift_rows"),
    "ComplexTower": ("check_composition",),
}

# Per-monomial helpers called millions of times inside the matrix builders;
# a span around each would cost more than the work it measures.
UNTRACED = {"cochain.canonical", "cochain.basis_dim", "cochain.basis_tuples",
            "cochain.monomial_rank"}

# gf2.py holds two layers: elimination on matrices and subspace algebra.
SUBSPACE_FUNCS = {"subspace_sum", "subspace_intersect", "subspace_combine", "annihilator",
                  "apply_to_subspace", "preimage", "quotient_dim", "induced_map"}


def span_name(module: str, owner: str | None, attr: str) -> tuple[str, str]:
    """(layer, span name) for a traced callable."""
    if module == "gf2" and (owner in ("Subspace", "QuotientCoords") or attr in SUBSPACE_FUNCS):
        layer = "gf2.subspace"
        attr = attr.removeprefix("subspace_")
    else:
        layer = module
    if owner == "BitMatrix":
        owner = None
    attr = {"__matmul__": "matmul", "__init__": "init"}.get(attr, attr)
    return layer, f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"


def _digest(words) -> bytes:
    return hashlib.blake2b(words.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.stack: list[int] = [-1]
        self.paused = [0.0]  # seconds spent in counter hooks so far
        self.depth: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self.patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        hook = HOOKS.get(name)
        spans, stack, depth, paused = self.spans, self.stack, self.depth, self.paused
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            depth[layer] += 1
            span[1] = perf() - paused[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf() - paused[0]
                depth[layer] -= 1
                stack.pop()
            if hook is not None:
                # the callers' spans are still open: keep the hook out of them
                start = perf()
                hook(self, args, result)
                paused[0] += perf() - start
            return result

        return traced

    def install(self, package) -> None:
        originals = {}
        for mod_name in MODULES:
            mod = getattr(package, mod_name)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    layer, name = span_name(mod_name, None, attr)
                    if name not in UNTRACED:
                        originals[id(obj)] = (obj, self.wrap(obj, layer, name))
                        self._set(mod, attr, originals[id(obj)][1])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth in METHODS.get(attr, ()):
                        raw = vars(obj)[meth]
                        layer, name = span_name(mod_name, attr, meth)
                        if isinstance(raw, classmethod):
                            new = classmethod(self.wrap(raw.__func__, layer, name))
                        else:
                            new = self.wrap(raw, layer, name)
                        self._set(obj, meth, new)
        # names bound by `from .x import f` elsewhere in the package
        for mod in [package] + [m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".")]:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])

    def _set(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self.patched):
            setattr(owner, attr, value)
        self.patched.clear()

    def dump(self, path: str, import_s: float) -> None:
        data = {
            "names": self.names,
            "layers": self.layers,
            "spans": self.spans,
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.seen.items()},
            "import_s": import_s,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


# -- counters computed from arguments and results ---------------------


def _rref(tr, args, result):
    m = args[0]
    tr.counters["gf2.rref.cells"] += m.rows * m.cols


def _matmul(tr, args, result):
    a, b = args
    tr.counters["gf2.matmul.word_ops"] += a.rows * a.cols * b.words.shape[1]


def _build_tower(tr, args, tower):
    tr.counters["cochain.diffs_built"] += len(tower.diffs)
    key = (tower.flavor.value, tower.table.c.tobytes(),
           tower.coeffs.left.tobytes(), tower.coeffs.right.tobytes())
    for n, diff in enumerate(tower.diffs):
        tr.seen["cochain.diffs"].add(key + (n,))
        mb = diff.rows * diff.cols / 2**20
        tr.counters["cochain.max_dense_mb"] = max(tr.counters["cochain.max_dense_mb"], mb)


def _compute_pages(tr, args, pages):
    tr.counters["spectral.page_entries"] += sum(len(p.entries) for p in pages)


def _preimage(tr, args, result):
    m, s = args
    tr.seen["gf2.subspace.preimage"].add(
        (m.rows, m.cols, _digest(m.words), s.ambient_dim, _digest(s.basis.words))
    )
    if tr.depth["spectral"]:
        tr.counters["spectral.preimage_calls"] += 1


HOOKS = {
    "gf2.rref": _rref,
    "gf2.matmul": _matmul,
    "cochain.build_tower": _build_tower,
    "spectral.compute_pages": _compute_pages,
    "gf2.subspace.preimage": _preimage,
}


# -- per-layer metrics from the dumps of one pass -------------------------

LAYERS = {"catalog", "algebra", "cochain", "gf2", "gf2.subspace", "cohomology",
          "spectral", "comparison"}


def layer_metrics(dumps: list, names: list) -> dict:
    """Per-layer metrics from [(dump, wall seconds of that command)].

    `L.self_s` is layer L's span time minus its child spans; for a span
    name N, `N.self_s` is the same for N alone, `N.s` its inclusive time
    (outermost calls only) and `N.calls` its call count.  The counters
    and `cli.*` metrics are derived below; `cli.cpu_s` and
    `cli.trace_overhead_frac` need the untraced pass and are left to the
    caller.
    """
    layer_self = defaultdict(float)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(int)
    distinct = defaultdict(int)
    imports = []
    unattributed = 0.0
    known = set()
    for dump, wall in dumps:
        names_, layers, spans = dump["names"], dump["layers"], dump["spans"]
        known.update(names_)
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        roots = 0.0
        for i, (nid, start, end, parent) in enumerate(spans):
            name, dur = names_[nid], end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            layer_self[layers[nid]] += dur - child[i]
            up = parent
            while up >= 0 and spans[up][0] != nid:
                up = spans[up][3]
            if up < 0:
                incl[name] += dur
            if parent < 0:
                roots += dur
        unattributed += wall - roots
        imports.append(dump["import_s"])
        for key, value in dump["counters"].items():
            if key == "cochain.max_dense_mb":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for key, value in dump["distinct"].items():
            distinct[key] += value
    built = counters["cochain.diffs_built"]
    entries = counters["spectral.page_entries"]
    derived = {
        "cli.import_s": statistics.median(imports),
        "cli.unattributed_s": unattributed,
        "cochain.max_dense_mb": counters["cochain.max_dense_mb"],
        "cochain.diffs_built": built,
        "cochain.diffs_distinct": distinct["cochain.diffs"],
        "cochain.diff_reuse_ratio": distinct["cochain.diffs"] / built if built else 0.0,
        "gf2.rref.cells": counters["gf2.rref.cells"],
        "gf2.matmul.word_ops": counters["gf2.matmul.word_ops"],
        "gf2.subspace.preimage.distinct": distinct["gf2.subspace.preimage"],
        "spectral.page_entries": entries,
        "spectral.preimage_per_entry": (
            counters["spectral.preimage_calls"] / entries if entries else 0.0
        ),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        for suffix, table in ((".self_s", self_s), (".calls", calls), (".s", incl)):
            if name.endswith(suffix):
                key = name[: -len(suffix)]
                if suffix == ".self_s" and key in LAYERS:
                    out[name] = layer_self[key]
                else:
                    if key not in known:
                        print(f"tracer: no span named {key}", file=sys.stderr)
                    out[name] = table[key]
                break
    return out


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    out_path, argv = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    import commcoh
    import commcoh.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(commcoh)
    try:
        code = commcoh.cli.main(argv)
    finally:
        tracer.restore()
    tracer.dump(out_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
