"""The outputs of small runs of every subcommand, byte for byte.

tools/output_digests.txt holds the lines tools/output_digests.py
printed, under a first line naming the python, numpy and scipy versions
they were recorded with: every manifest embeds those versions, and
SuperLU and BLAS results can differ across them.  A change that means
to change an output re-records the file in the same diff, as the
running versions line (the assertion message prints it) followed by
the output of `PYTHONPATH=src python3 tools/output_digests.py`.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).parents[1]


def test_outputs_match_recorded_digests():
    recorded = (ROOT / "tools" / "output_digests.txt").read_text() \
        .splitlines()
    running = f"# python {sys.version.split()[0]}, numpy {np.__version__}, " \
        f"scipy {scipy.__version__}"
    assert recorded[0] == running, \
        f"digests recorded with {recorded[0][2:]}, running {running[2:]}; " \
        f"re-record them under the line {running!r}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))
    run = subprocess.run([sys.executable, str(ROOT / "tools" /
                                              "output_digests.py")],
                         capture_output=True, text=True, env=env, check=True)
    running_lines = run.stdout.splitlines()
    exits, digests = _split(running_lines)
    recorded_exits, recorded_digests = _split(recorded[1:])
    assert exits == recorded_exits
    changed = sorted(path for path in digests.keys() & recorded_digests.keys()
                     if digests[path] != recorded_digests[path])
    appeared = sorted(digests.keys() - recorded_digests.keys())
    vanished = sorted(recorded_digests.keys() - digests.keys())
    assert not (changed or appeared or vanished), \
        f"changed: {changed}; appeared: {appeared}; vanished: {vanished}"
    assert running_lines == recorded[1:]


def _split(lines):
    """The exit-code lines, and the digest of each output path."""
    exits = [line for line in lines if "  " not in line]
    digests = dict(line.split("  ")[::-1] for line in lines if "  " in line)
    return exits, digests
