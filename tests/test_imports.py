"""What each entry point loads, in a fresh interpreter: `import pmlstrip`
and the subcommands without finite elements (symbol-audit, parseval)
load numpy alone; scipy.sparse comes with the first mesh assembly."""

import functools
import json
import os
import subprocess
import sys

import pytest

import pmlstrip

SRC = os.path.dirname(os.path.dirname(pmlstrip.__file__))


def _fresh_run(code: str, *args: str) -> str:
    """Stdout of `code` in a fresh interpreter that imports the package
    under test; args follow as sys.argv[2:]."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code
    return subprocess.run([sys.executable, "-c", code, SRC, *args],
                          capture_output=True, text=True, check=True).stdout


@functools.cache
def _modules_after_import() -> frozenset:
    """Modules loaded by a bare `import pmlstrip`; one subprocess serves
    every import test."""
    return frozenset(_fresh_run("import pmlstrip; "
                                "print(' '.join(sys.modules))").split())


# scipy.sparse loads with the first sparse matrix, scipy.sparse.linalg
# and scipy.linalg on the first factorization and banded solve;
# scipy.integrate, scipy.fft (with scipy.special) and scipy.signal are
# never needed; sympy is a test dependency
@pytest.mark.parametrize("module", [
    "scipy.signal", "scipy.integrate", "sympy", "scipy.fft",
    "scipy.special", "scipy.linalg", "scipy.sparse.linalg", "scipy.sparse"])
def test_import_leaves_unloaded(module):
    assert module not in _modules_after_import()


TINY_CONFIG = """\
[numerics]
mesh_size = 0.125
n_modes = 4
s1 = 1.0

[freq]
s2_values = 2

[audit]
s1_values = 1
s2_range = -5,5,3
xi_points = 5
sigma0_values = 1
L_values = 1

[parseval]
horizon = 20
n_time = 4000
s2_max = 100
n_freq = 1001
"""

# runs symbol-audit and parseval, then freq-solve, in one interpreter
# and prints the exit codes and the scipy modules loaded after each step
_SUBCOMMANDS = """\
import json
from pmlstrip.cli import main
config, out = sys.argv[2:]
steps = []
for command in ("symbol-audit", "parseval", "freq-solve"):
    code = main([command, "--config", config, "--out", out + command])
    steps.append((command, code,
                  sorted(m for m in sys.modules if m.startswith("scipy."))))
print(json.dumps(steps))
"""


def test_sparse_loads_with_the_first_mesh(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    steps = json.loads(_fresh_run(_SUBCOMMANDS, str(config),
                                  str(tmp_path / "out-")))
    assert [(command, code) for command, code, _ in steps] == [
        ("symbol-audit", 0), ("parseval", 0), ("freq-solve", 0)]
    for command, _, loaded in steps[:2]:
        assert "scipy.sparse" not in loaded, command
        assert "scipy.linalg" not in loaded, command
    # the lazy path: freq-solve builds and factors sparse matrices
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(steps[2][2])
