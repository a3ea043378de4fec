"""The experiment scripts run to completion with their defaults."""

from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["reproduce_tables.py", "orthogonality_report.py"])
def test_script_runs_with_defaults(name):
    proc = run_python(str(SCRIPTS / name))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
