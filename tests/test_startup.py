"""Each command starts with only the modules it runs.

The package exports its names lazily and the CLI imports each command's
modules inside its handler, so `--version`, `--help` and refused
arguments start without numpy.  No command loads OpenSSL (`_hashlib`),
and numpy starts no OpenBLAS worker thread unless the caller asks.  The test session has imported the whole
package already, so every start-up case runs in a fresh interpreter.  Every
name a submodule exports resolves, and README's library sketch and its
command lines run as written.
"""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

# Runs `commcoh ARGS` as `python -m commcoh.cli` would, then prints its exit
# code, the modules it loaded, its thread count (None without /proc) and
# OPENBLAS_NUM_THREADS as the last line of stdout.
PROBE = """
import json, os, runpy, sys
sys.argv = ["commcoh", *sys.argv[1:]]
try:
    runpy.run_module("commcoh.cli", run_name="__main__")
    code = 0
except SystemExit as exc:
    code = exc.code
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([code, sorted(sys.modules), threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""

ALL = {"catalog", "algebra", "cochain", "gf2", "cohomology", "spectral", "comparison"}


def _probe(args, env=ENV):
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def _start(args):
    code, modules, _, _ = _probe(args)
    return code, set(modules)


@pytest.mark.parametrize("args, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["cohomology", "--algebra", "catalog:N", "--no-such-flag"], 1),
    (["les", "--algebra", "catalog:N", "--max-degree", "-1"], 1),
])
def test_refusals_and_version_load_no_numpy(args, code):
    got, modules = _start(args)
    assert got == code
    assert "numpy" not in modules and "_hashlib" not in modules
    assert not {m for m in modules if m.startswith("commcoh.")}
    # the report's writers load with the report; the probe imports json itself
    assert "csv" not in modules and "datetime" not in modules


README_COMMANDS = re.search(r"## Command line\s+```\n(.*?)```", (ROOT / "README.md").read_text(),
                            re.S).group(1).splitlines()


@pytest.mark.parametrize("line", README_COMMANDS, ids=lambda line: line.split()[1])
def test_readme_command_line_runs(line):
    from commcoh import cli

    assert line.startswith("commcoh ")
    report, code = cli.run(line.split()[1:])
    assert code == 0, report


@pytest.mark.parametrize("args, layers", [
    (["check", "--algebra", "catalog:N"], {"catalog", "algebra", "gf2"}),
    (["cohomology", "--algebra", "catalog:N", "--flavor", "tensor", "--max-degree", "2"],
     {"catalog", "algebra", "gf2", "cochain", "cohomology"}),
    (["cohomology", "--algebra", "catalog:N", "--max-degree", "2"], ALL - {"comparison"}),
    (["hs-ss", "--algebra", "catalog:a", "--ideal", "e", "--max-degree", "2"], ALL - {"comparison"}),
    (["compare", "--algebra", "catalog:a", "--max-degree", "2"], ALL),
    (["les", "--algebra", "catalog:N", "--max-degree", "2"], ALL),
    (["survey", "--dim", "2"], {"catalog", "algebra", "gf2"}),
    (["survey", "--dim", "3", "--up-to-iso", "--betti-degree", "1"],
     {"catalog", "algebra", "gf2", "cochain", "cohomology"}),
])
def test_command_loads_only_what_it_runs(args, layers):
    code, modules = _start(args)
    assert code == 0
    assert {m for m in modules if m.startswith("commcoh.")} == {f"commcoh.{m}" for m in layers}
    assert "numpy.ma" not in modules
    assert "_hashlib" not in modules  # the digest's sha256 loads no OpenSSL


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc")
@pytest.mark.parametrize("caller", [None, "2"])
def test_command_starts_no_blas_worker_unless_asked(caller):
    env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    code, modules, threads, setting = _probe(["check", "--algebra", "catalog:N"], env)
    assert code == 0 and "numpy" in modules
    if caller is None:
        assert (threads, setting) == (1, "1")
    else:
        # the caller's value is kept and reaches OpenBLAS as in a bare numpy import
        bare = "import os, numpy; print(len(os.listdir('/proc/self/task')))"
        proc = subprocess.run([sys.executable, "-c", bare], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert (threads, setting) == (int(proc.stdout), caller)


def test_package_resolves_names_on_first_access():
    probe = ("import sys, commcoh; assert 'numpy' not in sys.modules; "
             "from commcoh import BitMatrix, betti_table, compute_pages; "
             "assert commcoh.comparison.__name__ == 'commcoh.comparison'; "
             "assert all(hasattr(commcoh, name) for name in commcoh.__all__); "
             "assert not hasattr(commcoh, 'no_such_name')")
    subprocess.run([sys.executable, "-c", probe], check=True, cwd=ROOT, env=ENV, timeout=120)


@pytest.mark.parametrize("module", sorted(ALL - {"gf2"}))  # gf2 declares no __all__
def test_submodule_exports_resolve(module):
    mod = import_module(f"commcoh.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_library_sketch_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", sketch], capture_output=True, text=True,
                          cwd=tmp_path, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args, layers", [
    # les ranks each weight part with gf2 itself, so no public cohomology function runs
    (["les", "--algebra", "catalog:N", "--max-degree", "3"], ALL - {"spectral", "cohomology"}),
    (["compare", "--algebra", "catalog:a", "--max-degree", "3"], ALL),
])
def test_tracer_wraps_every_layer(tmp_path, args, layers):
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--", *args],
                   check=True, capture_output=True, cwd=ROOT, env=ENV, timeout=120)
    dump = json.loads(spans.read_text())
    # every layer is wrapped; les builds no spectral sequence and no Betti table, so it records none there
    assert {layer.split(".")[0] for layer in dump["layers"]} == ALL
    assert {dump["layers"][span[0]].split(".")[0] for span in dump["spans"]} == layers
