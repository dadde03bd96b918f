"""Golden reports: `--task report` on every bundled spec, byte for byte.

The files in tests/golden/ were recorded by scripts/record_golden.py.  A
refactor must leave every report byte-identical; a change that is meant to
alter a report re-records the files and logs the change.
"""

from pathlib import Path

import pytest

from hopfquiver.cli import main as cli_main

from conftest import SPECS_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SPECS = sorted(SPECS_DIR.glob("*.json"))
RERECORD = "re-record with `python3 scripts/record_golden.py` only if the change is intended"


@pytest.mark.parametrize("spec", SPECS, ids=[s.stem for s in SPECS])
def test_report_matches_golden(spec, tmp_path, capsys):
    golden = GOLDEN_DIR / spec.name
    assert golden.exists(), f"no golden report for {spec.name}; {RERECORD}"
    code = cli_main(["run", "--spec", str(spec), "--task", "report", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 1)
    got = (tmp_path / "report.json").read_bytes()
    assert got == golden.read_bytes(), f"report.json of {spec.name} differs from {golden}; {RERECORD}"
