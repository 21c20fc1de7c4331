"""Command line harness: experiment drivers, CSV/manifest emission,
rate fitting and plot-script generation.

Subcommands: symbol-audit, layer-check, freq-solve, td-run,
convergence, parseval.  Exit codes: 0 pass, 1 assertion failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, distinct_names, load_config
from .fem import build_blocks, assemble, dofs_to_nodal, frequency_weights, \
    h_norm_sq, load_vector, map_solves, shared_dofs, solve_frequency, \
    source_l2_norm, stability_ratios
from .layer_bvp import LayerMode, analytic_layer_solution, fd_layer_solve, \
    numeric_dtn_at_h
from .mesh import build_mesh, check_grid, export_mesh
from .model import GeometryError, PmlProfile, check_source, validate_media
from .symbols import DEGENERATE_DENOMINATOR, default_xi_grid, \
    dtn_symbol_grid, layer_denominator_floor, symbol_gap_sup
from .timedomain import ProbeError, energy_trace, locate_probes, \
    nearest_steps, newmark_run, step_grid
from .xform import SampledSignal, parseval_residual, \
    transform_property_check


class FitError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

CELL = "%.12g"      # every number in a CSV; bools print as 1/0
EOL = "\r\n"         # every CSV line end
# the most rows a symbol-audit file may have, and the most one s
# evaluates over all files: 13 times the default grid's 161,202 per file
# (2^20 rows of one s in nine files peaked at 733 MB)
MAX_AUDIT_ROWS = 2 ** 21
# the most files a symbol audit writes, all open at once: 28 times the
# default's 9, a quarter of the common limit of 1,024 open files
MAX_AUDIT_FILES = 2 ** 8
# the most values a time-route history, or td-run's snapshots, may hold:
# about 50 times criterion 7's 401 steps of 3,553 sub-layer dofs (a
# sweep holds three)
MAX_HISTORY = 2 ** 26


def _format_rows(pattern: str, cells, n_rows: int) -> str:
    """n_rows CSV lines: `pattern`, the %-pattern of one line without its
    end, filled row by row from the flat sequence `cells`."""
    return (pattern + EOL) * n_rows % tuple(cells)


def write_csv(path: str, header: list[str], rows) -> None:
    """CSV with CRLF line ends: strings as they are, numbers in CELL,
    each column's conversion read off the first row; formatted 1024 rows
    at a time to bound the cells' memory."""
    line = ",".join("%s" if isinstance(v, str) else CELL
                    for v in (rows[0] if len(rows) else ()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + EOL)
        for i in range(0, len(rows), 1024):
            part = np.asarray(rows[i:i + 1024], dtype=object)
            fh.write(_format_rows(line, part.ravel().tolist(), len(part)))


def write_manifest(out: str, cfg: RunConfig, command: str,
                   extra: dict) -> None:
    import scipy
    lines = {
        "command": command,
        "config_sha256": cfg.digest,
        "package": f"pmlstrip {__version__}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **extra,
    }
    with open(os.path.join(out, "manifest.txt"), "w") as fh:
        for key in sorted(lines):
            fh.write(f"{key}={lines[key]}\n")


def write_field(path: str, values: np.ndarray) -> None:
    """Nodal complex field as 'node re im' (two value pairs for
    2-component fields)."""
    values = np.atleast_2d(values.T).T
    n, n_comp = values.shape
    table = np.empty((n, 1 + 2 * n_comp))
    table[:, 0] = np.arange(n)
    table[:, 1::2], table[:, 2::2] = values.real, values.imag
    line = "%d" + " %.12g" * (2 * n_comp) + "\n"
    with open(path, "w") as fh:
        fh.write(line * n % tuple(table.ravel().tolist()))


@dataclass
class RateFit:
    """Least-squares exponential fit of errors against layer thickness:
    log error ~ intercept - exponent * L."""

    log_errors: np.ndarray
    exponent: float
    residual: float


def fit_rate(L_values, errors) -> RateFit:
    L = np.asarray(L_values, dtype=float)
    err = np.asarray(errors, dtype=float)
    keep = err > 1e-12
    L, err = L[keep], err[keep]
    if L.size < 3:
        raise FitError("need at least 3 points above the round-off floor")
    if not np.all(np.diff(err) < 0):
        raise FitError("error sequence is not monotonically decreasing: "
                       + ", ".join(f"{e:.3e}" for e in err))
    log_e = np.log(err)
    A = np.vstack([L, np.ones_like(L)]).T
    coef, *_ = np.linalg.lstsq(A, log_e, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - log_e) ** 2)))
    return RateFit(log_errors=log_e, exponent=-float(coef[0]),
                   residual=resid)


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

def emit_plots(csv_path: str, out_path: str, kind: str,
               rates: tuple = ()) -> None:
    """Write a self-contained matplotlib script for one result CSV, run
    beside it: kind "convergence" (with reference rates) or "audit"."""
    if kind == "convergence":
        body = f"""\
import csv
import math
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

L, err = [], []
with open({os.path.basename(csv_path)!r}) as fh:
    for row in csv.DictReader(fh):
        L.append(float(row["L"]))
        err.append(float(row["error"]))
plt.semilogy(L, err, "o-", label="measured")
rates = {rates!r}
for rate in rates:
    ref = [err[0] * math.exp(-2.0 * rate * (x - L[0])) for x in L]
    plt.semilogy(L, ref, "--", label=f"rate {{rate:g}}")
plt.xlabel("layer thickness L")
plt.ylabel("integrated squared H1 gap")
plt.legend()
plt.savefig("convergence.png", dpi=150)
"""
    else:
        body = f"""\
import csv
from collections import defaultdict
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

curves = defaultdict(list)
with open({os.path.basename(csv_path)!r}) as fh:
    for row in csv.DictReader(fh):
        key = (row["s1"], row["s2"])
        curves[key].append((float(row["xi"]), float(row["gap"]),
                            float(row["bound"])))
for (s1, s2), pts in sorted(curves.items()):
    pts.sort()
    xi = [p[0] for p in pts]
    plt.loglog([x if x > 0 else 1e-3 for x in xi], [p[1] for p in pts],
               label=f"gap s={{s1}}+{{s2}}i")
    plt.loglog([x if x > 0 else 1e-3 for x in xi], [p[2] for p in pts],
               "--", label=f"bound s={{s1}}+{{s2}}i")
plt.xlabel("|xi|")
plt.ylabel("weighted gap")
plt.legend(fontsize=6)
plt.savefig("symbol_audit.png", dpi=150)
"""
    with open(out_path, "w") as fh:
        fh.write(body)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# each run_* writes its files to `out` and returns (ok, manifest extras)

def _in_range(keys: str, what: str, numbers, floor: float = 0.0) -> None:
    """The one numeric-range rule: a ConfigError naming keys unless every
    number v listed by numbers() (warnings off) has floor <= |v| < inf."""
    try:
        with np.errstate(all="ignore"):
            v = np.abs(np.concatenate([np.ravel(x) for x in numbers()]))
    except ArithmeticError:     # a Python float power overflows, or x / 0
        v = np.inf
    if not np.all((floor <= v) & (v < np.inf)):
        raise ConfigError(f"{keys}: {what}")


def _check_symbols(keys: str, c: float, layers) -> None:
    """The boundary symbols' rules at Re s = s1, for (s1, layer profiles)
    pairs: their root of s^2/c^2 + xi^2 lands on the branch cut once
    (s1/c)^2 underflows, and is lost once it overflows; the floor of a
    layer symbol's denominator clears the degeneracy guard twice over,
    so that rounding in the symbol cannot trip the guard."""
    _in_range(keys, "(s1/c)^2 is not a normal double",
              lambda: [(v / c) ** 2 for v, _ in layers], np.finfo(float).tiny)
    _in_range(keys, "a layer is too thin for its boundary symbol",
              lambda: [layer_denominator_floor(v, c, np.array(
                  [p.L_tilde for p in profiles])) for v, profiles in layers],
              2.0 * DEGENERATE_DENOMINATOR)


def _check_strip(cfg: RunConfig, layers=()) -> None:
    """The mesh runs' rules: admissible media, and a strip with the
    source ball in its fluid that build_mesh grids at the mesh size, bare
    and topped by each layer of layers, (keys, thickness) pairs."""
    bad = validate_media(cfg.media)
    if bad:
        raise ConfigError("inadmissible media: " + ", ".join(bad))
    keys = "geom, source and numerics.mesh_size"
    try:
        check_source(cfg.source, cfg.geometry)
        for keys, L in [(keys, None), *layers]:
            check_grid(cfg.geometry, L, cfg.numerics["mesh_size"])
    except GeometryError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


# numerics.s1 over the faster of the layer's damping rate sigma0 and a
# wave's rate c / mesh_size across one mesh cell: the least ratio the
# frequency systems resolve
ABSCISSA_FLOOR = 1e-5


def _check_frequencies(cfg: RunConfig, layers=()) -> None:
    """The frequency systems' rules, at each s = s1 + i s2 of [freq], with
    boundary maps the layer symbols of layers (profiles) or the exact."""
    c, s1 = cfg.media.c, cfg.pml.s1
    _check_symbols("numerics.s1, pml and media.c", c, [(s1, layers)])
    # Below this floor the frequency systems at s2 = 0 lose their
    # slowest modes to rounding.  A layer's relative residual grows
    # like 1e-16 sigma0/s1 (flat and inclusion strips, meshes 0.125 to
    # 0.05, c = 0.1 to 10: 2e-10 at sigma0/s1 = 2e6, failing the
    # residual check from about 1e8), and an inclusion without a layer
    # failed its check at s1 = 1e-10 (mesh 0.125); at s1 = 1e-150 its
    # mass terms underflow
    floor = ABSCISSA_FLOOR * max(cfg.pml.sigma0,
                                 c / cfg.numerics["mesh_size"])
    _in_range("numerics.s1", f"below {ABSCISSA_FLOOR:g} max(sigma0, "
              f"c / mesh_size) = {floor:g}", lambda: [s1], floor)
    # the weights theta(s) grow like |s|^3, and past a finite
    # (s + a -+ i omega0)^4 the pulse transform reads 0 or nan
    s = s1 + 1j * np.array(cfg.numerics["freq_s2_values"])
    _in_range("media, source, numerics.s1 and freq.s2_values",
              "the frequency system overflows",
              lambda: [frequency_weights(cfg.media, s[:, None]),
                       *cfg.source.pulse.laplace_denominators(s)])


def _newmark(cfg: RunConfig, blk, **kwargs):
    """newmark_run of the configured source on blk over T in n_steps, if
    the step is a normal double and the snapshots lie in [0, T] on steps
    of distinct names; step matrices that overflow refuse the config."""
    T, n_steps = cfg.source.T, cfg.numerics["n_steps"]
    t_grid, dt = step_grid(T, n_steps)
    _in_range("source.T and numerics.n_steps", "the time step T / "
              "n_steps is not a normal double", lambda: [dt],
              np.finfo(float).tiny)
    # a snapshot is written at its nearest step, named by that time
    snap = kwargs.get("snapshot_times", ())
    if snap and not (all(0 <= ts <= T for ts in snap)
                     and distinct_names(t_grid[nearest_steps(snap, dt)])):
        raise ConfigError("td.snapshot_times must lie in [0, T], on time "
                          "steps with distinct file names")
    try:
        return newmark_run(blk, cfg.media, cfg.source, T, n_steps, **kwargs)
    except OverflowError as exc:
        raise ConfigError(f"media, source.T and numerics.n_steps: {exc}") \
            from exc


def _blocks(cfg: RunConfig, pml: PmlProfile | None):
    """Blocks on the configured strip and mesh size, topped by `pml`."""
    return build_blocks(build_mesh(cfg.geometry, pml,
                                   cfg.numerics["mesh_size"]),
                        cfg.numerics["n_modes"])


def run_symbol_audit(cfg: RunConfig, out: str) -> tuple[bool, dict]:
    """One CSV per (sigma0, L), written block by block: per s, one
    symbol evaluation over every profile, the cells shared by all files
    (s1, s2, xi, beta) formatted once, then each file's gap cells and
    its block's `,bound,pass` endings."""
    a, c = cfg.audit, cfg.media.c
    per_file = len(a["s1_values"]) * a["s2_range"][2] * a["xi_points"]
    n_files = len(a["sigma0_values"]) * len(a["L_values"])
    # each bound before any file is opened
    for keys, size, what, bound in [
            ("s1_values, s2_range and xi_points", per_file, "rows per file",
             MAX_AUDIT_ROWS),
            ("sigma0_values and L_values", n_files, "files", MAX_AUDIT_FILES),
            ("sigma0_values, L_values and xi_points",
             n_files * a["xi_points"], "rows per s", MAX_AUDIT_ROWS)]:
        if size > bound:
            raise ConfigError(f"audit.{keys} give {size} {what}, above "
                              f"{bound}")
    files = [(sigma0, L) for sigma0 in a["sigma0_values"]
             for L in a["L_values"]]
    paths = [os.path.join(out, f"audit_sigma{sigma0:g}_L{L:g}.csv")
             for sigma0, L in files]
    profiles = {v: [PmlProfile(sigma0=sigma0, m=a["m"], L=L, s1=v)
                    for sigma0, L in files] for v in a["s1_values"]}
    _check_symbols("audit and media.c", c, profiles.items())
    s1, s2 = (g.ravel() for g in np.meshgrid(
        a["s1_values"], np.linspace(*a["s2_range"]), indexing="ij"))
    shared = ",".join([CELL] * 5) + ","
    all_pass = True
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(p, "w", newline=""))
                   for p in paths]
        for fh in handles:
            fh.write("s1,s2,xi,beta_re,beta_im,gap,bound,pass" + EOL)
        for s1_i, s2_i, v in zip(s1, s2, s1 + 1j * s2):
            # one |xi| row per s: a single grid rescaled per s is not
            # bitwise default_xi_grid's geomspace
            xi = default_xi_grid(v, c, a["xi_points"])
            audit = symbol_gap_sup(v, c, profiles[s1_i], xi)
            all_pass &= audit.passed
            b, n = audit.beta_vals, xi.size
            block = np.column_stack((np.full(n, s1_i), np.full(n, s2_i), xi,
                                     b.real, b.imag))
            # per row: the shared cells as one string, the file's gap,
            # its ending
            cells = [None] * (3 * n)
            cells[0::3] = _format_rows(shared, block.ravel().tolist(),
                                       n).splitlines()
            for fh, gap, bound, ok in zip(handles, audit.gap,
                                          audit.bound[:, 0], audit.ok):
                ends = [("," + CELL) * 2 % (bound, k) for k in (0, 1)]
                cells[1::3] = gap.tolist()
                cells[2::3] = [ends[k] for k in ok.tolist()]
                fh.write(_format_rows("%s" + CELL + "%s", cells, n))
    emit_plots(paths[0], os.path.join(out, "plot_audit.py"), "audit")
    return all_pass, {"pass": int(all_pass)}


def run_layer_check(cfg: RunConfig, out: str) -> tuple[bool, dict]:
    lay, c, pml = cfg.layer, cfg.media.c, cfg.pml
    _check_symbols("layer.s, pml and media.c", c, [(lay["s"].real, [pml])])
    # fd_layer_solve's largest entry is below 2 (n/L)^2 + k^2 sigma_max,
    # with k^2 = |s|^2/c^2 + xi^2 >= |s^2/c^2 + xi^2| and the damping
    # peaking at sigma_max = 1 + sigma0/s1 on the layer top; it squares
    # its widest grid step L/n; and the layer symbol takes
    # exp(-2 beta L~), with |beta| <= k
    def sizes():
        n, k = lay["n_values"], np.hypot(
            np.abs(lay["s"]) / c, np.max(np.abs(lay["xi_values"])))
        return [2.0 * (max(n) / pml.L) ** 2
                + k * k * (1.0 + pml.sigma0 / pml.s1),
                (pml.L / min(n)) ** 2, 2.0 * k * pml.L_tilde]
    _in_range("layer with pml", "layer-check overflows", sizes)
    ok, summary = True, []
    for xi in lay["xi_values"]:
        mode = LayerMode(xi=xi, s=lay["s"], c=c, pml=pml)
        sym = dtn_symbol_grid(abs(xi), lay["s"], c, pml.L_tilde)
        errs = []
        for n in lay["n_values"]:
            sol = fd_layer_solve(mode, n)
            exact = analytic_layer_solution(mode, sol.x3)
            errs.append(float(np.max(np.abs(sol.values - exact))))
            dtn = numeric_dtn_at_h(sol)
            summary.append((xi, n, errs[-1], dtn.real, dtn.imag,
                            sym.real, sym.imag))
        # errors of exactly 0 (the mode underflows on every grid) fit no order
        ok &= min(errs) > 0 and bool(-2.3 <= np.polyfit(
            np.log(lay["n_values"]), np.log(errs), 1)[0] <= -1.7)
        # dump the finest grid profile per mode
        write_csv(os.path.join(out, f"layer_mode_xi{xi:g}.csv"),
                  ["x3", "v_re", "v_im", "analytic_re", "analytic_im"],
                  np.column_stack((sol.x3, sol.values.real,
                                   sol.values.imag, exact.real, exact.imag)))
    write_csv(os.path.join(out, "layer_summary.csv"),
              ["xi", "n", "max_err", "dtn_re", "dtn_im",
               "symbol_re", "symbol_im"], summary)
    return ok, {"pass": int(ok)}


def run_freq_solve(cfg: RunConfig, out: str) -> tuple[bool, dict]:
    variant = cfg.numerics["variant"]
    with_layer = variant == "pml_layer"
    _check_strip(cfg, [("pml.L", cfg.pml.L)] if with_layer else ())
    _check_frequencies(cfg, [cfg.pml] if variant == "pml_dtn" else [])
    blk = _blocks(cfg, cfg.pml if with_layer else None)
    export_mesh(blk.mesh, os.path.join(out, "mesh.txt"))
    chi = source_l2_norm(blk, cfg.source.spatial)
    load = load_vector(blk, cfg.source.spatial)
    s1 = cfg.pml.s1
    s2_values = cfg.numerics["freq_s2_values"]

    def solve(s2):
        s = complex(s1, s2)
        scale = complex(cfg.source.pulse.laplace(s))
        sol = solve_frequency(assemble(blk, cfg.media, s, load, scale,
                                       variant, cfg.pml))
        return sol, stability_ratios(blk, s, sol.x, abs(scale) * chi)

    rows = []
    for s2, (sol, ratios) in zip(s2_values, map_solves(solve, s2_values)):
        p_hat, u_hat = dofs_to_nodal(blk, sol.x)
        write_field(os.path.join(out, f"p_hat_s2_{s2:g}.txt"), p_hat)
        if blk.dof.n_u:
            write_field(os.path.join(out, f"u_hat_s2_{s2:g}.txt"), u_hat)
        rows.append((s1, s2, ratios["fluid_lhs"], ratios["solid_lhs"],
                     ratios["fluid_ratio"], ratios["solid_ratio"],
                     sol.residual))
    write_csv(os.path.join(out, "freq_summary.csv"),
              ["s1", "s2", "fluid_lhs", "solid_lhs", "fluid_ratio",
               "solid_ratio", "residual"], rows)
    return True, {"n_modes_effective": blk.n_modes_effective}


def run_td(cfg: RunConfig, out: str) -> tuple[bool, dict]:
    _check_strip(cfg, [("pml.L", cfg.pml.L)])
    snap = cfg.numerics["snapshot_times"]
    # the inclusion carries no pressure: a probe there would read 0
    ob = cfg.geometry.obstacle
    if ob is not None and np.any(ob.contains(*cfg.probes.T)):
        raise ConfigError("probes.points must lie off the inclusion")
    blk = _blocks(cfg, cfg.pml)
    if len(snap) * blk.dof.size > MAX_HISTORY:
        raise ConfigError(f"td.snapshot_times and numerics.mesh_size: "
                          f"{len(snap)} snapshots of {blk.dof.size} dofs "
                          f"are above {MAX_HISTORY} values")
    try:
        probes = locate_probes(blk.mesh, cfg.probes)
    except ProbeError as exc:
        raise ConfigError(f"probes.points: {exc}") from exc
    traj = _newmark(cfg, blk, probes=probes, snapshot_times=snap,
                    record_norms=True)
    rows = np.column_stack((np.repeat(traj.t, probes.n),
                            np.tile(np.arange(probes.n), traj.t.size),
                            traj.probe_p.T.ravel()))
    write_csv(os.path.join(out, "probes.csv"), ["t", "probe_id", "p"],
              rows)
    for t_snap, x in traj.snapshots:
        write_field(os.path.join(out, f"p_t{t_snap:g}.txt"),
                    dofs_to_nodal(blk, x)[0])
    ratios = energy_trace(traj, blk, cfg.media, cfg.source)
    write_csv(os.path.join(out, "energy_ratios.csv"),
              sorted(ratios), [[ratios[k] for k in sorted(ratios)]])
    return True, {"n_modes_effective": blk.n_modes_effective}


def _freq_route_errors(cfg: RunConfig, L_values) -> tuple[list[float], int]:
    """Squared H-norm gaps between the transparent-boundary reference
    and the layer solutions, summed over the configured frequencies,
    and the reference's effective boundary-map mode count."""
    _check_frequencies(cfg)
    blk_ref = _blocks(cfg, None)
    s_list = [complex(cfg.pml.s1, s2)
              for s2 in cfg.numerics["freq_s2_values"]]

    def solve_all(blk, variant):
        load = load_vector(blk, cfg.source.spatial)
        return map_solves(lambda s: solve_frequency(assemble(
            blk, cfg.media, s, load, complex(cfg.source.pulse.laplace(s)),
            variant)), s_list)

    refs = solve_all(blk_ref, "exact_dtn")
    errors = []
    for L in L_values:
        blk_L = _blocks(cfg, replace(cfg.pml, L=L))
        shared = shared_dofs(blk_ref, blk_L)
        errors.append(sum(h_norm_sq(blk_ref, sol.x[shared] - ref.x)
                          for sol, ref in zip(solve_all(blk_L, "pml_layer"),
                                              refs)))
    return errors, blk_ref.n_modes_effective


def _time_route_errors(cfg: RunConfig, L_values) -> tuple[list[float], int]:
    """Time-integrated squared H1 gaps against a thick-layer reference
    run, restricted to the sub-layer mesh (the layer meshes extend it:
    fem.shared_dofs), and the sub-layer blocks' effective boundary-map
    mode count."""
    n_steps = cfg.numerics["n_steps"]
    dt = cfg.source.T / n_steps
    sigma_ref = max([cfg.pml.sigma0] + cfg.sweep["sigma0_values"])
    blk_sub = _blocks(cfg, None)
    if (n_steps + 1) * blk_sub.dof.size > MAX_HISTORY:
        raise ConfigError(f"numerics.n_steps and mesh_size: a history of "
                          f"{n_steps + 1} steps of {blk_sub.dof.size} dofs "
                          f"is above {MAX_HISTORY} values")

    def history(L, sigma0):
        """Sub-layer dof vectors of one run, one column per step."""
        blk = _blocks(cfg, replace(cfg.pml, L=L, sigma0=sigma0))
        return _newmark(cfg, blk, store_dofs=shared_dofs(blk_sub,
                                                         blk)).history

    x_ref = history(cfg.sweep["L_ref"], sigma_ref)
    errors = []
    for L in L_values:
        gaps = h_norm_sq(blk_sub, history(L, cfg.pml.sigma0) - x_ref)
        errors.append(float(np.trapezoid(gaps, dx=dt)))
    return errors, blk_sub.n_modes_effective


def run_convergence(cfg: RunConfig, out: str) -> tuple[bool, dict]:
    L_values, L_ref = cfg.sweep["L_values"], cfg.sweep["L_ref"]
    if len(L_values) < 3:
        raise ConfigError("sweep.L_values: convergence needs at least 3")
    time_route = cfg.numerics["route"] == "time"
    if time_route and not L_ref > L_values[-1]:
        raise ConfigError("sweep.L_ref must be above every sweep.L_values "
                          "entry")
    _check_strip(cfg, [("every sweep.L_values entry", L) for L in L_values]
                 + [("sweep.L_ref", L_ref)] * time_route)
    route = _time_route_errors if time_route else _freq_route_errors
    errors, n_modes_effective = route(cfg, L_values)
    csv_path = os.path.join(out, "convergence.csv")
    write_csv(csv_path, ["L", "error", "sqrt_error"],
              [(L, e, np.sqrt(e)) for L, e in zip(L_values, errors)])
    c = cfg.media.c
    rate_lbar = 2.0 * cfg.pml.sigma0 / ((cfg.pml.m + 1) * c)
    rate_printed = 4.0 * cfg.pml.sigma0 / c
    extra = {"rate_theory_lbar": f"{rate_lbar:.12g}",
             "rate_theory_printed": f"{rate_printed:.12g}",
             "n_modes_effective": n_modes_effective}
    try:
        fit = fit_rate(L_values, np.sqrt(np.asarray(errors)))
        extra["fitted_exponent"] = f"{fit.exponent:.12g}"
        extra["fit_residual"] = f"{fit.residual:.12g}"
    except FitError as exc:
        extra["fit_rejected"] = str(exc)
    emit_plots(csv_path, os.path.join(out, "plot_convergence.py"),
               "convergence", (rate_lbar, rate_printed))
    return "fit_rejected" not in extra, extra


def run_parseval(cfg: RunConfig, out: str) -> tuple[bool, dict]:
    par = cfg.parseval
    s1 = par["s1"]
    horizon, n_time = par["horizon"], par["n_time"]
    s2_max, n_freq = par["s2_max"], par["n_freq"]
    rows = []
    ok = True

    def check(name, value, tol):
        nonlocal ok
        good = value <= tol
        ok &= good
        rows.append((name, value, tol, good))

    r1, r2, r3 = transform_property_check(
        lambda t: t, lambda t: np.ones_like(t), lambda t: 0.0 * t,
        complex(s1, 0.0), T=horizon, n=n_time)
    check("rules_linear_u", max(r1, r2, r3), 1e-6)
    r1, r2, r3 = transform_property_check(
        np.sin, np.cos, lambda t: -np.sin(t), complex(s1, 1.0),
        T=horizon, n=n_time)
    check("rules_sine_u", max(r1, r2, r3), 1e-6)

    decay = SampledSignal.sample(lambda t: np.exp(-t), horizon, n_time)
    check("parseval_exp", parseval_residual(decay, 1.0, s2_max=s2_max,
                                            n_freq=n_freq), 1e-6)
    pulse = cfg.source.pulse
    sig = SampledSignal.sample(pulse, horizon, n_time)
    ref = float(np.trapezoid(np.exp(-2 * s1 * sig.t)
                         * np.abs(sig.values) ** 2, sig.t))
    check("parseval_pulse_rel",
          parseval_residual(sig, s1, s2_max=s2_max, n_freq=n_freq)
          / max(ref, 1e-300), 1e-5)
    write_csv(os.path.join(out, "parseval.csv"),
              ["case", "residual", "tolerance", "pass"], rows)
    return ok, {"pass": int(ok)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "symbol-audit": run_symbol_audit,
    "layer-check": run_layer_check,
    "freq-solve": run_freq_solve,
    "td-run": run_td,
    "convergence": run_convergence,
    "parseval": run_parseval,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmlstrip",
        description="Transient acoustic-elastic scattering above a rough "
                    "surface with an absorbing-layer truncation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        ok, extras = _COMMANDS[args.command](cfg, args.out)
        write_manifest(args.out, cfg, args.command, extras)
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
