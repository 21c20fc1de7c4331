#!/usr/bin/env python3
"""Digests of the outputs of small runs of every subcommand.

    PYTHONPATH=src python3 tools/output_digests.py

Runs, on small inline configs (cosine bottom with the inclusion, mesh
0.05): freq-solve with each variant, td-run with two snapshots,
convergence on both routes, layer-check, symbol-audit and parseval,
and one small contour_synthesize call.  Each run writes into a fresh
temporary directory with a relative --out, so the plot scripts embed
equal paths.  Prints each run's exit code, then one `sha256  path` line
per output file and one for the contour trace's bytes, sorted by path,
so that a changed output changes one line in place.

Two checkouts write byte-identical outputs when the script prints the
same lines with PYTHONPATH set to each one's src directory.
tests/test_output_digests.py compares the lines with those recorded in
tools/output_digests.txt.  Standard library and the package only.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

import pmlstrip
from pmlstrip.cli import main

BASE = """\
[geom]
period = 1.0
h = 0.5
surface = cosine:0.1,1
obstacle = 0.4,0.2; 0.6,0.2; 0.6,0.4; 0.4,0.4
[source]
center = 0.2,0.3
radius = 0.05
T = 1.0
[pml]
sigma0 = 2.0
m = 1
L = 0.3
[probes]
points = 0.25,0.3; 0.75,0.3; 0.5,0.45
[freq]
s2_values = 0,5
[sweep]
L_values = 0.2,0.3,0.4
L_ref = 0.8
[audit]
s1_values = 1.0,0.1
s2_range = -10,10,21
xi_points = 41
sigma0_values = 1,2
L_values = 0.5,1
[parseval]
s2_max = 100
n_freq = 2001
horizon = 20
n_time = 4000
"""

# (name, subcommand, [numerics] lines)
RUNS = [
    ("freq-exact_dtn", "freq-solve", "variant = exact_dtn"),
    ("freq-pml_dtn", "freq-solve", "variant = pml_dtn"),
    ("freq-pml_layer", "freq-solve", "variant = pml_layer"),
    ("td-run", "td-run", "[td]\nsnapshot_times = 0.5,1.0"),
    ("convergence-freq", "convergence", "route = freq"),
    ("convergence-time", "convergence", "route = time"),
    ("layer-check", "layer-check", ""),
    ("symbol-audit", "symbol-audit", ""),
    ("parseval", "parseval", ""),
]
NUMERICS = "[numerics]\nmesh_size = 0.05\nn_modes = 16\nn_steps = 40\n" \
    "s1 = 1.0\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(name, command, lines, digests):
    """One subcommand in a fresh directory; its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "run.ini"), "w") as fh:
            fh.write(BASE + NUMERICS + lines + "\n")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", "run.ini", "--out", "out"])
        finally:
            os.chdir(cwd)
        for root, _, files in os.walk(os.path.join(tmp, "out")):
            for fname in files:
                path = os.path.join(root, fname)
                with open(path, "rb") as fh:
                    digests.append(f"{sha256(fh.read())}  {name}/"
                                   f"{os.path.relpath(path, tmp)}")
    return code


def contour_trace() -> bytes:
    """Probe traces of a 41-frequency contour on the mesh without the
    layer (exact_dtn)."""
    from pmlstrip import fem, mesh, model, timedomain
    geom = model.Geometry(
        period=1.0, surface=model.SurfaceProfile.cosine(0.1, 1.0), h=0.5,
        obstacle=model.Rectangle(0.4, 0.6, 0.2, 0.4))
    blk = fem.build_blocks(mesh.build_mesh(geom, None, 0.05), n_modes=16)
    source = model.SourceSpec(center=(0.2, 0.3), radius=0.05, T=1.0)
    probes = timedomain.locate_probes(blk.mesh, [[0.25, 0.3], [0.75, 0.3],
                                                 [0.5, 0.45]])
    cfg = timedomain.ContourConfig(s1=1.0, s2_max=20.0, n_freq=41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = timedomain.contour_synthesize(blk, model.MediaParams(),
                                             source, cfg, probes,
                                             variant="exact_dtn")
    return traj.probe_p.tobytes()


if __name__ == "__main__":
    print(f"pmlstrip from {os.path.dirname(pmlstrip.__file__)}",
          file=sys.stderr)
    digests = []
    for name, command, lines in RUNS:
        print(f"{name}: exit {run_cli(name, command, lines, digests)}")
    digests.append(f"{sha256(contour_trace())}  contour/probe_p")
    print("\n".join(sorted(digests, key=lambda line: line.split("  ")[1])))
