"""The CI "must stay deleted" table holds on this tree (run locally)."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
SCRIPT = os.path.join(".github", "scripts", "must_stay_deleted.py")


def test_no_deleted_mechanism_is_back():
    result = subprocess.run([sys.executable, SCRIPT], cwd=ROOT, text=True,
                            capture_output=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "61 of 61 rules hold" in result.stdout
