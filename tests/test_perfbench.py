"""The benchmark harness runs against the package as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_selftest_passes():
    # every workload at toy sizes, about 2 s; it writes only under the
    # git-ignored perfbench/out, so an API change that breaks the
    # harness fails here rather than in a benchmark run
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
