"""commcoh benchmark: real CLI commands, one fresh process each.

    python3 bench/run.py --workload {betti,spectral,small} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
./src.  The workloads and metrics are named in BENCHMARK.json; the
commands and inputs are defined in spec.json and workloads.py.  With --trace 0 the workload's commands run in whole passes
for about S seconds and the end-to-end metrics are reported: median pass
wall time, median of the per-pass peak RSS of the largest command, and
the start-up time of `commcoh --version`.  A pass is never cut short,
so a workload whose pass takes longer than S (spectral, about 50 s)
makes one pass and reports that single sample.  With --trace 1 one untraced
and one traced pass (tracer.py) give the per-layer metrics.

Start-up time drifts by a fifth or more within half an hour on a shared
machine, so `--version` is timed alternately with the bare start-up of
the interpreter and numpy (`python -c "import numpy"`), and setup_s is
the ratio of their medians times NUMPY_START_S: start-up in seconds on a
machine where that bare start-up takes NUMPY_START_S.  The raw medians
are printed before the result.

Every command's exit code and basis-invariant output is compared with
golden.json; a mismatch, a timeout or unreadable output is a failed
command.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Files a run writes stay under
bench/_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from workloads import BENCHMARK, HERE, SPEC, WORKLOADS, command_lines, draw_basis, heis3_file

GOLDEN_PATH = HERE / "golden.json"
SETUP_SAMPLES = (5, 4)  # start-up pairs timed before the first and after the last pass
NUMPY_START_S = SPEC["numpy_start_s"]
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take

# Output fields that depend on the basis the algebra is written in.
BASIS_FIELDS = ("adapted_basis", "basis")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed command)."""


def invariant(report: dict) -> dict:
    """The basis-invariant part of a command's JSON report.

    Keeps the payload (Betti tables, page and stable entries, comparison
    and LES verdicts, survey counts and summaries) and each check's
    verdict; drops the timestamp, the input digest, check details and
    every adapted or kernel basis.
    """

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in BASIS_FIELDS}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    if "payload" not in report:
        return {"error": True}
    return {
        "payload": strip(report["payload"]),
        "checks": [[c["name"], c["passed"]] for c in report["checks"]],
    }


class Runner:
    """Starts processes one at a time and records their cost."""

    def __init__(self, root: Path, run_dir: Path, deadline: float):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + old if old else ""),
            PYTHONHASHSEED="0",
            TMPDIR=str(run_dir),
        )
        self.count = 0

    def run(self, args: list) -> dict:
        """Run `python ARGS` to completion; returns wall, rss, cpu, exit and output path."""
        self.count += 1
        out = self.run_dir / f"out-{self.count}.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"timeout": True, "exit": None, "out": out}
        with open(out, "wb") as fh_out, open(self.run_dir / f"err-{self.count}.txt", "wb") as fh_err:
            start = time.perf_counter()
            # own process group, so a timeout also stops survey's pool workers
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=fh_out, stderr=fh_err,
                cwd=self.root, env=self.env, start_new_session=True,
            )
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(remaining, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            # reaped by wait4 above; tell Popen so that it never waits again
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "timeout": timed_out.is_set(),
            "exit": proc.returncode,
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024,
            "cpu": usage.ru_utime + usage.ru_stime,
            "out": out,
        }

    def command(self, argv: list, traced: bool = False) -> dict:
        """One commcoh command, plain or under tracer.py."""
        spans = self.run_dir / f"spans-{self.count + 1}.json"
        head = [str(HERE / "tracer.py"), str(spans), "--"] if traced else ["-m", "commcoh.cli"]
        return {**self.run([*head, *argv]), "argv": argv, "spans": spans}


def check(result: dict, expected: dict) -> bool:
    """Whether one command's exit code and invariant output match golden."""
    if result["timeout"] or result["exit"] != expected["exit"]:
        return False
    try:
        report = json.loads(result["out"].read_text())
    except (OSError, ValueError):
        return False
    return invariant(report) == expected["invariant"]


def run_pass(runner: Runner, commands: list, golden: list, traced: bool = False) -> dict:
    results = [runner.command(argv, traced) for argv in commands]
    failed = sum(not check(r, g) for r, g in zip(results, golden))
    done = [r for r in results if not r["timeout"]]
    return {
        "results": results,
        "failed": failed,
        "wall": sum(r["wall"] for r in done),
        "peak_rss_mb": max((r["rss_mb"] for r in done), default=0.0),
        "cpu": sum(r["cpu"] for r in done),
    }


def setup_times(runner: Runner, samples: int) -> tuple:
    """Times of `commcoh --version` and of bare numpy start-up, alternately."""
    commcoh, bare = [], []
    for _ in range(samples):
        for args, times in ((["-c", "import numpy"], bare), (["-m", "commcoh.cli", "--version"], commcoh)):
            r = runner.run(args)
            if r["timeout"] or r["exit"] != 0:
                raise BenchError(f"start-up run {args} failed; see {runner.run_dir}")
            times.append(r["wall"])
    return commcoh, bare


def measure(runner: Runner, commands: list, golden: list, seconds: int) -> tuple:
    commcoh, bare = setup_times(runner, SETUP_SAMPLES[0])
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(runner, commands, golden))
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / len(passes)
        if elapsed + mean_pass > seconds or time.monotonic() + mean_pass > runner.deadline:
            break
    more = setup_times(runner, SETUP_SAMPLES[1])
    commcoh, bare = statistics.median(commcoh + more[0]), statistics.median(bare + more[1])
    print(f"start-up medians: commcoh --version {commcoh} s, python -c 'import numpy' {bare} s")
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": commcoh / bare * NUMPY_START_S,
    }
    return passes, metrics


def measure_traced(runner: Runner, commands: list, golden: list) -> tuple:
    plain = run_pass(runner, commands, golden)
    traced = run_pass(runner, commands, golden, traced=True)
    dumps = []
    for r in traced["results"]:
        if r["timeout"] or not r["spans"].exists():
            raise BenchError(f"traced command {r['argv']} left no spans")
        dumps.append((json.loads(r["spans"].read_text()), r["wall"]))
    metrics = tracer.layer_metrics(dumps, [m["name"] for m in BENCHMARK["per_layer"]])
    metrics["cli.cpu_s"] = plain["cpu"]
    metrics["cli.trace_overhead_frac"] = traced["wall"] / plain["wall"] - 1
    return [plain, traced], metrics


def environment(seed: int) -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed}


def units() -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def prepare(root: Path, workload: str, seed: int, trace: int) -> tuple:
    """Fresh run directory with the seed's inputs; returns (dir, commands)."""
    if not (root / "src" / "commcoh" / "cli.py").is_file():
        raise BenchError(f"no commcoh sources under {root / 'src'}; run from a checkout root")
    run_dir = HERE / "_runs" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    algebra = run_dir / "algebra.txt"
    z_terms = WORKLOADS[workload]["z_terms"]
    if z_terms is not None:
        g, g_inv = draw_basis(seed, z_terms)
        algebra.write_text(heis3_file(g, g_inv))
        print(f"seed {seed}: heis3 in basis g = {g}")
    return run_dir, command_lines(workload, str(algebra))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops the command it is waiting for (Runner.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    try:
        run_dir, commands = prepare(root, args.workload, args.seed, args.trace)
        golden = json.loads(GOLDEN_PATH.read_text())[args.workload]
        runner = Runner(root, run_dir, deadline)
        setup_times(runner, 1)  # writes the .pyc files before anything is timed
        if args.trace:
            passes, values = measure_traced(runner, commands, golden)
        else:
            passes, values = measure(runner, commands, golden, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    unit = units()
    print("environment", json.dumps(environment(args.seed)))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} commands failed (failed_frac {failed / attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
