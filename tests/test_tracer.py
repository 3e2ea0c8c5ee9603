"""The benchmark's layer tracer still fits the package.

bench/tracer.py wraps the package's public functions and the methods
named in its METHODS table, so renaming or removing one of those breaks
the benchmark's traced pass.  This runs small spectral and comparison
commands under it and checks that it installs, records and restores.
"""

import importlib.util
import json
import sys
from pathlib import Path

import commcoh
from commcoh import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("commcoh_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    """Every attribute the tracer may rebind: package module names and traced methods."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "commcoh" or name.startswith("commcoh."):
            out.update({(name, attr): obj for attr, obj in vars(mod).items()})
    for mod_name in tracer.MODULES:
        mod = getattr(commcoh, mod_name)
        for cls_name, methods in tracer.METHODS.items():
            cls = vars(mod).get(cls_name)
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                out.update({(cls_name, m): vars(cls)[m] for m in methods})
    return out


def test_tracer_installs_records_and_restores(tmp_path):
    tracer = _load_tracer()
    before = _bindings(tracer)
    tr = tracer.Tracer()
    tr.install(commcoh)
    try:
        _, hs_code = cli.run(["hs-ss", "--algebra", "catalog:a", "--ideal", "e", "--max-degree", "3"])
        _, compare_code = cli.run(["compare", "--algebra", "catalog:a", "--max-degree", "3"])
        _, les_code = cli.run(["les", "--algebra", "catalog:N", "--max-degree", "3"])
        # no route calls check_composition; the benchmark still wraps it
        entry = commcoh.catalog.load_catalog("N")
        commcoh.build_tower(commcoh.Flavor.SYM, entry.table, entry.modules["trivial"], 3).check_composition()
    finally:
        tr.restore()
    assert _bindings(tracer) == before
    assert hs_code == compare_code == les_code == 0
    seen = {tr.names[span[0]] for span in tr.spans}
    assert {
        "spectral.compute_pages",
        "spectral.convergence_check",
        "comparison.comparison_filtration",
        "comparison.build_relative_complex",
        "comparison.build_cr_complex",
        "comparison.long_exact_sequence_check",
        "cochain.build_tower",
        "cochain.ComplexTower.check_composition",
        "gf2.rref",
        "gf2.subspace.Subspace.from_rows",
    } <= seen
    assert tr.counters["spectral.page_entries"] > 0

    path = tmp_path / "spans.json"
    tr.dump(str(path), 0.0)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = tracer.layer_metrics([(json.loads(path.read_text()), 1.0)], names)
    assert metrics["spectral.compute_pages.s"] > 0
