"""The `compare`, `les` and `hs-ss` reports on every catalog entry and shipped
module, pinned against a stored copy.

`hs-ss` runs once per catalog subspace, with --ideal for the entry's marked
ideals and --subalgebra for the other spans.  Each case runs one command at
--max-degree 4 through `cli.run` and compares its exit code and `payload`
with tests/golden_reports.json.  Only the payload is pinned: `generated_at`
changes on every run.  Regenerate the file with
`PYTHONPATH=src python tests/test_golden_reports.py` and review the diff:
any change in it is a change of a published answer.
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
] + [
    ("hs-ss", name, module, "--ideal" if span in entry.ideals else "--subalgebra", span)
    for name in catalog_names()
    for entry in [load_catalog(name)]
    for span in entry.subspaces
    for module in entry.modules
]


def _report(command, name, module, *span):
    argv = [command, "--algebra", f"catalog:{name}", "--module", module, "--max-degree", "4"]
    report, code = run(argv + list(span))
    return {"code": code, "payload": report.get("payload")}


def _key(*case):
    return " ".join(case)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_report_matches_golden(golden, case):
    got = json.loads(json.dumps(_report(*case)))
    assert got == golden[_key(*case)]


if __name__ == "__main__":
    lines = [
        f"{json.dumps(_key(*case))}: {json.dumps(_report(*case), sort_keys=True)}"
        for case in CASES
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
