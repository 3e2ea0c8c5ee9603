"""The `compare` and `les` reports on every catalog entry and shipped module,
pinned against a stored copy.

Each case runs one command at --max-degree 4 through `cli.run` and compares
its exit code and `payload` with tests/golden_reports.json.  Only the
payload is pinned: `generated_at` changes on every run.  Regenerate the
file with `PYTHONPATH=src python tests/test_golden_reports.py` and review
the diff: any change in it is a change of a published answer.
"""

import json
from pathlib import Path

import pytest

from commcoh.catalog import catalog_names, load_catalog
from commcoh.cli import run

GOLDEN = Path(__file__).with_name("golden_reports.json")
CASES = [
    (command, name, module)
    for command in ("compare", "les")
    for name in catalog_names()
    for module in load_catalog(name).modules
]


def _report(command, name, module):
    argv = [command, "--algebra", f"catalog:{name}", "--module", module, "--max-degree", "4"]
    report, code = run(argv)
    return {"code": code, "payload": report.get("payload")}


def _key(command, name, module):
    return f"{command} {name} {module}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("command,name,module", CASES)
def test_report_matches_golden(golden, command, name, module):
    got = json.loads(json.dumps(_report(command, name, module)))
    assert got == golden[_key(command, name, module)]


if __name__ == "__main__":
    lines = [
        f"{json.dumps(_key(*case))}: {json.dumps(_report(*case), sort_keys=True)}"
        for case in CASES
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
