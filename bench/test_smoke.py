"""The benchmark's own test: ``python -m pytest bench/test_smoke.py``.

Runs ``run.py --smoke``: every workload at tiny sample counts, traced and
untraced, checking that every declared metric appears with its unit and
that every report passes.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
