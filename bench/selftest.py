"""Checks of the benchmark itself; not part of the package's test suite.

    python -m pytest -q bench/selftest.py

Run from the root of a checkout; it takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
from workloads import BENCHMARK, WORKLOADS, draw_basis, gl3, heis3_file

ROOT = Path(__file__).resolve().parent.parent

# Small-degree commands that reach every layer between them.
PROBES = [
    "cohomology --algebra {algebra} --module adjoint --flavor sym,tensor --max-degree 3",
    "compare --algebra {algebra} --max-degree 2",
    "les --algebra {algebra} --module adjoint --max-degree 2",
    "hs-ss --algebra {algebra} --ideal h --max-degree 4",
    "survey --dim 2 --up-to-iso",
]


def _runner(name: str) -> run.Runner:
    run_dir = run.HERE / "_runs" / f"selftest-{name}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run.Runner(ROOT, run_dir, time.monotonic() + run.DEADLINE_S)


def _probe(runner: run.Runner, seed: int, z_terms: int, traced: bool) -> list:
    algebra = runner.run_dir / f"algebra-{seed}-{z_terms}.txt"
    algebra.write_text(heis3_file(*draw_basis(seed, z_terms)))
    results = []
    for line in PROBES:
        r = runner.command(line.replace("{algebra}", str(algebra)).split(), traced)
        assert r["exit"] == 0, (line, r["out"])
        results.append(r)
    return results


def _invariants(results: list) -> list:
    return [run.invariant(json.loads(r["out"].read_text())) for r in results]


@pytest.fixture(scope="module")
def traced_probe():
    runner = _runner("trace")
    return _probe(runner, 5, 1, traced=False), _probe(runner, 5, 1, traced=True)


def test_traced_outputs_equal_untraced(traced_probe):
    plain, traced = traced_probe
    assert _invariants(plain) == _invariants(traced)


def test_every_per_layer_metric_is_produced(traced_probe, capsys):
    _, traced = traced_probe
    dumps = [(json.loads(r["spans"].read_text()), r["wall"]) for r in traced]
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    metrics = tracer.layer_metrics(dumps, names)
    assert "no span named" not in capsys.readouterr().err
    assert set(metrics) | {"cli.cpu_s", "cli.trace_overhead_frac"} == set(names)
    for layer in tracer.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, f"probe commands never reach {layer}"


def test_run_prints_every_metric_of_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "small", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_same_seed_same_files():
    for workload in WORKLOADS.values():
        if workload["z_terms"] is not None:
            first, second = (heis3_file(*draw_basis(7, workload["z_terms"])) for _ in range(2))
            assert first == second
    assert len(gl3()) == 168


def test_seeds_give_same_invariants():
    runner = _runner("seeds")
    expected = _invariants(_probe(runner, 1, 1, False))
    for seed, z_terms in ((2, 1), (2, 2), (3, 3)):
        assert _invariants(_probe(runner, seed, z_terms, False)) == expected, (seed, z_terms)


def test_hook_time_is_not_billed_to_callers(monkeypatch):
    monkeypatch.setitem(tracer.HOOKS, "t.inner", lambda *_: time.sleep(0.05))
    tr = tracer.Tracer()
    inner = tr.wrap(lambda: None, "t", "t.inner")
    outer = tr.wrap(lambda: inner(), "t", "t.outer")
    outer()
    (_, start, end, _), (_, _, _, parent) = tr.spans
    assert parent == 0 and end - start < 0.01


def test_golden_covers_every_command():
    golden = json.loads(run.GOLDEN_PATH.read_text())
    for name, workload in WORKLOADS.items():
        assert [g["command"] for g in golden[name]] == workload["commands"]
