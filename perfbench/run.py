#!/usr/bin/env python3
"""pmlstrip benchmark runner.

    python3 perfbench/run.py --workload contour --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run repeats one workload (set-up, solution, output check) until
``--seconds`` have passed, then prints one ``metric`` line per metric,
the problem sizes, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones below; with ``--trace 1`` untraced and
traced repetitions alternate and the metrics are the per-layer ones,
plus the tracing overhead.

End-to-end metrics (medians over the repetitions of one run):
  setup_s      import time + set-up time (mesh, blocks, probes, or the
               config load for CLI workloads): start to first solution call
  total_s      import time + set-up + solution + output check
  peak_rss_mb  peak resident memory of the process
The metric lines also give solve_s (time inside the solution calls), the
workload's own throughput (freq_solves_per_s, newmark_steps_per_s,
transform_points_per_s, audit_rows_per_s) and error_rate, which is also
``failed / attempted``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("contour", "layer-sweep", "certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit); the values come from layer_metrics()
PER_LAYER = (
    ("mesh.build_mesh.s", "s"), ("mesh.n_vertices", "count"),
    ("fem.build_blocks.s", "s"), ("fem.n_dofs", "count"),
    ("fem.assemble.s", "s"), ("fem.assemble.ms_p50", "ms"),
    ("fem.assemble.ms_p90", "ms"), ("fem.frequency_matrix.s", "s"),
    ("fem.dtn_block.s", "s"), ("fem.load_vector.s", "s"),
    ("fem.solve_frequency.s", "s"), ("fem.solve_frequency.ms_p50", "ms"),
    ("fem.solve_frequency.ms_p90", "ms"), ("fem.matrix_nnz", "count"),
    ("fem.h_norm_sq.s", "s"), ("fem.h_norm_sq.calls", "count"),
    ("fem.nodal_to_dofs.s", "s"), ("cli._time_route_errors.self_s", "s"),
    ("timedomain.locate_probes.s", "s"), ("timedomain.newmark_run.s", "s"),
    ("timedomain.newmark_run.setup_s", "s"),
    ("timedomain.newmark_run.step_ms", "ms"),
    ("timedomain.contour_synthesize.s", "s"),
    ("timedomain.synthesize.s", "s"), ("timedomain.reconstruct_signal.s", "s"),
    ("timedomain.probe_values.s", "s"), ("xform.laplace_grid.s", "s"),
    ("xform.laplace_grid.calls", "count"),
    ("xform.laplace_grid.points", "count"),
    ("xform.inverse_laplace_grid.s", "s"), ("xform.laplace_numeric.s", "s"),
    ("symbols.symbol_gap_sup.s", "s"),
    ("symbols.modal_passivity_check.s", "s"), ("cli.write_csv.s", "s"),
    ("cli.write_csv.rows", "count"), ("cli.write_csv.bytes", "bytes"),
    ("config.load_config.s", "s"), ("trace.overhead_s", "s"),
)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def release_heap():
    """Return free heap pages to the OS (glibc only; elsewhere a no-op)."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def tail_percentile(samples):
    """(p, value) for the highest of p99/p95/p90/p75/p50 that leaves at
    least ten samples above it, or None when there are too few."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def describe(samples, unit):
    tail = tail_percentile(samples)
    text = f"median of n={len(samples)}"
    if tail:
        text += f", p{tail[0]} {tail[1]:.6g} {unit}"
    else:
        text += ", no tail percentile (fewer than 11 samples)"
    return text


def one_rep(wl):
    """Set up, solve and check once.  An exception, a non-zero exit code
    or a failed gate counts all operations of the repetition (or of the
    subcommand, for ``certify``) as failed."""
    rep = {"failed": 0, "problems": [], "timed": False}
    t0 = time.perf_counter()
    state = None
    try:
        state = wl.setup()
        t1 = time.perf_counter()
        result = wl.solve(state)
        t2 = time.perf_counter()
        problems = wl.check(state, result)
        t3 = time.perf_counter()
        rep.update(timed=True, setup_s=t1 - t0, solve_s=t2 - t1,
                   total_s=t3 - t0, rates=wl.rates(t2 - t1, result),
                   problems=problems, failed=wl.failed_ops(problems),
                   state=state, result=result)
    except Exception:   # a failed operation is counted, not fatal
        rep.update(failed=wl.ops,
                   problems=[traceback.format_exc(limit=4).strip()])
    finally:
        if state is not None:
            wl.cleanup(state)
    return rep


def percentile_ms(durations, q):
    import numpy as np
    return 1000.0 * float(np.percentile(durations, q)) if durations else 0.0


def layer_metrics(summ, replay, overhead_s):
    def rec(name):
        return summ.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "durations": [], "counts": {}, "max": {}})

    def busy(name):
        return rec(name)["s"]

    setup_s = sum((r[0] for r in replay), 0.0)
    steps = sum(r[2] for r in replay)
    return {
        "mesh.build_mesh.s": busy("mesh.build_mesh"),
        "mesh.n_vertices": rec("mesh.build_mesh")["max"].get("n_vertices", 0),
        "fem.build_blocks.s": busy("fem.build_blocks"),
        "fem.n_dofs": rec("fem.build_blocks")["max"].get("n_dofs", 0),
        "fem.assemble.s": busy("fem.assemble"),
        "fem.assemble.ms_p50": percentile_ms(
            rec("fem.assemble")["durations"], 50),
        "fem.assemble.ms_p90": percentile_ms(
            rec("fem.assemble")["durations"], 90),
        "fem.frequency_matrix.s": busy("fem.frequency_matrix"),
        "fem.dtn_block.s": busy("fem.dtn_block"),
        "fem.load_vector.s": busy("fem.load_vector"),
        "fem.solve_frequency.s": busy("fem.solve_frequency"),
        "fem.solve_frequency.ms_p50": percentile_ms(
            rec("fem.solve_frequency")["durations"], 50),
        "fem.solve_frequency.ms_p90": percentile_ms(
            rec("fem.solve_frequency")["durations"], 90),
        "fem.matrix_nnz": rec("fem.assemble")["max"].get("nnz", 0),
        "fem.h_norm_sq.s": busy("fem.h_norm_sq"),
        "fem.h_norm_sq.calls": rec("fem.h_norm_sq")["calls"],
        "fem.nodal_to_dofs.s": busy("fem.nodal_to_dofs"),
        "cli._time_route_errors.self_s":
            rec("cli._time_route_errors")["self_s"],
        "timedomain.locate_probes.s": busy("timedomain.locate_probes"),
        "timedomain.newmark_run.s": busy("timedomain.newmark_run"),
        "timedomain.newmark_run.setup_s": setup_s,
        "timedomain.newmark_run.step_ms":
            1000.0 * (busy("timedomain.newmark_run") - setup_s) / steps
            if steps else 0.0,
        "timedomain.contour_synthesize.s":
            rec("timedomain.contour_synthesize")["self_s"],
        "timedomain.synthesize.s": busy("timedomain.synthesize"),
        "timedomain.reconstruct_signal.s":
            busy("timedomain.reconstruct_signal"),
        "timedomain.probe_values.s": busy("timedomain.probe_values"),
        "xform.laplace_grid.s": busy("xform.laplace_grid"),
        "xform.laplace_grid.calls": rec("xform.laplace_grid")["calls"],
        "xform.laplace_grid.points":
            rec("xform.laplace_grid")["counts"].get("points", 0),
        "xform.inverse_laplace_grid.s": busy("xform.inverse_laplace_grid"),
        "xform.laplace_numeric.s": busy("xform.laplace_numeric"),
        "symbols.symbol_gap_sup.s": busy("symbols.symbol_gap_sup"),
        "symbols.modal_passivity_check.s":
            busy("symbols.modal_passivity_check"),
        "cli.write_csv.s": busy("cli.write_csv"),
        "cli.write_csv.rows": rec("cli.write_csv")["counts"].get("rows", 0),
        "cli.write_csv.bytes": rec("cli.write_csv")["counts"].get("bytes", 0),
        "config.load_config.s": busy("config.load_config"),
        "trace.overhead_s": overhead_s,
    }


def replay_newmark(tracer, original, run):
    """Re-run each traced Newmark call for one step of the same length on
    the same blocks: [(one-step s, full s, steps)].  The one-step run is
    the call's set-up; the rest of the full run, per step beyond the
    first, is the step cost."""
    out = []
    for span, bound in tracer.captured.pop("timedomain.newmark_run", []):
        if span.run != run:
            continue
        args = dict(bound.arguments)
        n = args["n_steps"]
        args["T"], args["n_steps"] = args["T"] / n, 1
        t0 = time.perf_counter()
        original(**args)
        one = time.perf_counter() - t0
        out.append((one, span.duration, n - 1))
    return out


def git_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    import hashlib
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pmlstrip")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def run_workload(args, threads):
    import numpy as np
    import scipy

    import pmlstrip
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - T_START
    if not os.path.abspath(pmlstrip.__file__).startswith(SRC + os.sep):
        print(f"pmlstrip imported from {pmlstrip.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, outdir)

    reps, traced, layers, problems = [], [], [], []
    sizes = None
    tracer = Tracer() if args.trace else None
    loop_start = time.perf_counter()
    while True:
        rep = one_rep(wl)
        reps.append(rep)
        if sizes is None and rep["timed"]:
            sizes = wl.sizes(rep["state"], rep["result"])
        if args.trace:
            tracer.run = len(traced)
            originals = tracer.install(
                pmlstrip, capture=("timedomain.newmark_run",))
            try:
                trep = one_rep(wl)
            finally:
                tracer.restore()
            traced.append(trep)
            replay = replay_newmark(
                tracer, originals["timedomain.newmark_run"], tracer.run)
            layers.append((tracer.summary(tracer.run), replay))
        for r in reps[-1:] + traced[-1:]:
            problems += r["problems"]
            r.pop("state", None)
            r.pop("result", None)
        # free the repetition's arrays now, not whenever the cyclic
        # collector next runs, and hand freed heap pages back, so that
        # peak_rss_mb does not grow with heap fragmentation across
        # repetitions
        gc.collect()
        release_heap()
        if time.perf_counter() - loop_start >= args.seconds:
            break
    loop_s = time.perf_counter() - loop_start

    counted = reps + traced
    attempted = wl.ops * len(counted)
    failed = sum(r["failed"] for r in counted)
    # the first repetition warms caches and lazy imports; it is left out
    # when at least two others remain
    timed = [r for r in reps[1 if len(reps) >= 3 else 0:] if r["timed"]]
    series = {k: [r[k] for r in timed] for k in ("setup_s", "solve_s",
                                                  "total_s")}
    rate_series = {}
    for r in timed:
        for k, v in r["rates"].items():
            rate_series.setdefault(k, []).append(v)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(reps)} repetitions{' + %d traced' % len(traced) if traced else ''}"
          f" in {loop_s:.1f} s, threads capped at {threads}")
    for msg in problems:
        print(f"FAILED: {msg}")
    metrics = {}
    if args.trace:
        traced_ok = [r for r in traced if r["timed"]]
        overhead = (statistics.median([r["total_s"] for r in traced_ok])
                    - statistics.median(series["total_s"])) \
            if traced_ok and timed else 0.0
        per_rep = [layer_metrics(summ, replay, overhead)
                   for summ, replay in layers]
        for name, unit in PER_LAYER:
            value = statistics.median([m[name] for m in per_rep])
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} {value:.6g} {unit}")
        print(f"tracing overhead {overhead:+.4f} s per repetition (traced "
              "minus untraced total_s)")
        print("waiting time: none to report (one thread, no queue)")
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed"
                                  f"{args.seed}.json")
        tracer.dump(trace_path, {"workload": args.workload,
                                 "seed": args.seed})
        print(f"spans: {len(tracer.spans)} written to "
              f"{os.path.relpath(trace_path, ROOT)}")
    elif timed:
        values = {
            "setup_s": import_s + statistics.median(series["setup_s"]),
            "total_s": import_s + statistics.median(series["total_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"import {import_s:.4f} s + "
                       + describe(series["setup_s"], "s"),
            "total_s": f"import {import_s:.4f} s + "
                       + describe(series["total_s"], "s"),
            "peak_rss_mb": "whole process",
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} {values[name]:.6g} {unit} "
                  f"({notes[name]})")
        print(f"metric solve_s {statistics.median(series['solve_s']):.6g} s "
              f"({describe(series['solve_s'], 's')})")
        for name, vals in rate_series.items():
            print(f"metric {name} {statistics.median(vals):.6g} 1/s "
                  f"({describe(vals, '1/s')})")
    print(f"metric error_rate {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} operations failed)")
    env = {"threads": threads, "git_revision": git_revision(),
           "src_sha256": source_digest(), "numpy": np.__version__,
           "scipy": scipy.__version__, "python": sys.version.split()[0],
           "import_s": import_s}
    print("sizes " + json.dumps(sizes, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0 and bool(timed), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "sizes": sizes, "env": env,
                   "repetitions": [{k: v for k, v in r.items()
                                    if k != "problems"} for r in reps]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = val
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the runner's self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pmlstrip", "__init__.py")):
        print(f"no pmlstrip sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = cap_threads()
    sys.path.insert(0, SRC)
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
