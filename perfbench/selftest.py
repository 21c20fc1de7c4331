#!/usr/bin/env python3
"""Fast self-test of the benchmark runner at toy sizes.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is printed with its
unit, for every workload, untraced and traced; that a failed output
check raises ``error_rate`` instead of being dropped; and that the
runner refuses to report anything without the package sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.cap_threads()
sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

RATES = {
    "contour": {"freq_solves_per_s"},
    "layer-sweep": {"newmark_steps_per_s"},
    "certify": {"transform_points_per_s", "audit_rows_per_s"},
}


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def invoke(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv) + ["--size", "toy", "--seconds", "0"])
    lines = buf.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines):
    return {line.split()[1] for line in lines if line.startswith("metric ")}


def test_every_metric_is_printed():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, res = invoke("--workload", name, "--seed", "3",
                                      "--trace", str(trace))
            assert code == 0 and res["correct"], lines
            assert res["failed"] == 0 and res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert {k: v["unit"] for k, v in res["metrics"].items()} == want
            assert set(want) | {"error_rate"} <= printed(lines)
            if trace == 0:
                assert RATES[name] <= printed(lines)
                assert all(v["value"] > 0 for v in res["metrics"].values())
            else:
                assert any(line.startswith("tracing overhead")
                           for line in lines)


def test_failed_check_raises_error_rate():
    original = workloads.Contour.check
    workloads.Contour.check = \
        lambda self, st, res: original(self, st, res) + ["forced failure"]
    try:
        code, lines, res = invoke("--workload", "contour", "--seed", "3",
                                  "--trace", "0")
    finally:
        workloads.Contour.check = original
    assert code == 1 and res["correct"] is False
    assert res["failed"] == res["attempted"] > 0
    assert "FAILED: forced failure" in lines
    assert any(line.startswith("metric error_rate 1 ") for line in lines)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [Span("outer", 0.0, 10.0), Span("a", 1.0, 3.0, parent=0),
                    Span("b", 4.0, 8.0, parent=0),
                    Span("c", 5.0, 6.0, parent=2)]
    assert tracer.self_times() == [4.0, 2.0, 3.0, 1.0]


def test_refuses_without_sources():
    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "contour",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok")
