"""Record golden.json: each workload command's exit code and invariant output.

    python3 bench/make_golden.py

Run from the root of a checkout whose outputs are trusted.  One golden
file serves every seed, because only basis-invariant output is kept.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import DEADLINE_S, GOLDEN_PATH, Runner, invariant, prepare
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    for name, workload in WORKLOADS.items():
        run_dir, commands = prepare(Path.cwd(), name, 1, 0)
        runner = Runner(Path.cwd(), run_dir, time.monotonic() + DEADLINE_S)
        golden[name] = []
        for line, argv_ in zip(workload["commands"], commands):
            result = runner.command(argv_)
            if result["timeout"]:
                raise SystemExit(f"{line}: timed out")
            report = json.loads(result["out"].read_text())
            golden[name].append(
                {"command": line, "exit": result["exit"], "invariant": invariant(report)}
            )
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
