#!/usr/bin/env python3
"""Write the stored reference trace that the ``contour`` output check
compares against for the default seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter that trace beyond
round-off; the checks accept a relative L2 deviation of 1e-8.
"""

import json
import os
import sys

from run import SRC, cap_threads

if __name__ == "__main__":
    cap_threads()
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in ("contour",):
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, "full",
                                       workloads.REFERENCE_DIR)
        wl.check_reference = False
        state = wl.setup()
        result = wl.solve(state)
        problems = wl.check(state, result)
        if problems:
            sys.exit(f"{name}: " + "; ".join(problems))
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(wl.reference(state, result), fh)
        print(f"wrote {path}")
