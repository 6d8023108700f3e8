import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ["evidence_sweep.py", "--min-modulus", "2", "--max-modulus", "4", "--extra", "1"],
    ["monomial_survey.py", "--max-modulus", "5", "--family-bound", "16"],
    ["triangulation_search.py", "--modulus", "3", "--max-size", "5"],
]


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(r[0] for r in RUNS)


@pytest.mark.parametrize("argv", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
