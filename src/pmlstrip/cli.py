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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .fem import build_blocks, assemble, nodal_to_dofs, h_norm_sq, \
    map_solves, solve_frequency, source_l2_norm, stability_ratios
from .layer_bvp import LayerMode, analytic_layer_solution, fd_layer_solve, \
    numeric_dtn_at_h
from .mesh import build_mesh, export_mesh
from .model import PmlProfile
from .symbols import default_xi_grid, pml_dtn_symbol, symbol_gap_sup
from .timedomain import energy_trace, locate_probes, newmark_run
from .xform import SampledSignal, parseval_residual, \
    transform_property_check


class PlotError(ValueError):
    pass


class FitError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

CELL = "%.12g"      # every number in a CSV; bools print as 1/0
EOL = "\r\n"         # every CSV line end


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
                   extra: dict | None = None) -> None:
    lines = {
        "command": command,
        "config_sha256": cfg.digest,
        "seed": cfg.numerics["seed"],
        "package": f"pmlstrip {__version__}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    import scipy
    lines["scipy"] = scipy.__version__
    if extra:
        lines.update(extra)
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
    """Least-squares exponential fit of errors against layer thickness."""

    abscissas: np.ndarray
    log_errors: np.ndarray
    slope: float
    intercept: float
    residual: float

    @property
    def exponent(self) -> float:
        return -self.slope


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
    return RateFit(abscissas=L, log_errors=log_e, slope=float(coef[0]),
                   intercept=float(coef[1]), residual=resid)


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

_PLOT_KINDS = {
    "convergence": ["L", "error"],
    "audit": ["s1", "s2", "xi", "gap", "bound"],
}


def emit_plots(csv_path: str, out_path: str, kind: str,
               extra: dict | None = None) -> None:
    """Write a self-contained matplotlib script for one result CSV."""
    if kind not in _PLOT_KINDS:
        raise PlotError(f"unknown plot kind {kind!r}")
    if not os.path.exists(csv_path):
        raise PlotError(f"missing CSV {csv_path!r}")
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    for col in _PLOT_KINDS[kind]:
        if col not in header:
            raise PlotError(f"CSV {csv_path!r} lacks column {col!r}")
    extra = extra or {}
    if kind == "convergence":
        body = f"""\
import csv
import math
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

L, err = [], []
with open({csv_path!r}) as fh:
    for row in csv.DictReader(fh):
        L.append(float(row["L"]))
        err.append(float(row["error"]))
plt.semilogy(L, err, "o-", label="measured")
rates = {extra.get('rates', (2.0, 4.0))!r}
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
with open({csv_path!r}) as fh:
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

def run_symbol_audit(cfg: RunConfig, out: str) -> int:
    """One CSV per (sigma0, L), written block by block: per s, one
    symbol evaluation over every profile, the cells shared by all files
    (s1, s2, xi, beta) formatted once, then each file's gap cells and
    its block's `,bound,pass` endings."""
    a, c = cfg.audit, cfg.media.c
    files = [(sigma0, L) for sigma0 in a["sigma0_values"]
             for L in a["L_values"]]
    paths = [os.path.join(out, f"audit_sigma{sigma0:g}_L{L:g}.csv")
             for sigma0, L in files]
    profiles = {v: [PmlProfile(sigma0=sigma0, m=a["m"], L=L, s1=v)
                    for sigma0, L in files] for v in a["s1_values"]}
    s1 = np.repeat(a["s1_values"], a["s2_grid"].size)
    s2 = np.tile(a["s2_grid"], len(a["s1_values"]))
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
    write_manifest(out, cfg, "symbol-audit",
                   {"pass": "1" if all_pass else "0"})
    return 0 if all_pass else 1


def run_layer_check(cfg: RunConfig, out: str) -> int:
    lay, c, pml = cfg.layer, cfg.media.c, cfg.pml
    ok, summary = True, []
    for xi in lay["xi_values"]:
        mode = LayerMode(xi=xi, s=lay["s"], c=c, pml=pml)
        sym = pml_dtn_symbol(xi, lay["s"], c, pml.L_tilde)
        errs = []
        for n in lay["n_values"]:
            sol = fd_layer_solve(mode, n)
            exact = analytic_layer_solution(mode, sol.x3)
            errs.append(float(np.max(np.abs(sol.values - exact))))
            dtn = numeric_dtn_at_h(sol)
            summary.append((xi, n, errs[-1], dtn.real, dtn.imag,
                            sym.real, sym.imag))
        order = np.polyfit(np.log(lay["n_values"]), np.log(errs), 1)[0]
        ok &= bool(-2.3 <= order <= -1.7)
        # dump the finest grid profile per mode
        write_csv(os.path.join(out, f"layer_mode_xi{xi:g}.csv"),
                  ["x3", "v_re", "v_im", "analytic_re", "analytic_im"],
                  np.column_stack((sol.x3, sol.values.real,
                                   sol.values.imag, exact.real, exact.imag)))
    write_csv(os.path.join(out, "layer_summary.csv"),
              ["xi", "n", "max_err", "dtn_re", "dtn_im",
               "symbol_re", "symbol_im"], summary)
    write_manifest(out, cfg, "layer-check", {"pass": "1" if ok else "0"})
    return 0 if ok else 1


def run_freq_solve(cfg: RunConfig, out: str) -> int:
    variant = cfg.numerics["variant"]
    with_layer = variant == "pml_layer"
    mesh = build_mesh(cfg.geometry, cfg.pml if with_layer else None,
                      cfg.numerics["mesh_size"])
    blk = build_blocks(mesh, cfg.numerics["n_modes"])
    export_mesh(mesh, os.path.join(out, "mesh.txt"))
    chi = source_l2_norm(blk, cfg.source.spatial)
    s1 = cfg.numerics["s1"]
    s2_values = cfg.numerics["freq_s2_values"]

    def solve(s2):
        s = complex(s1, s2)
        scale = complex(cfg.source.pulse.laplace(s))
        sol = solve_frequency(assemble(blk, cfg.media, s, cfg.source.spatial,
                                       scale, variant, cfg.pml))
        return sol, stability_ratios(sol, abs(scale) * chi)

    rows = []
    for s2, (sol, ratios) in zip(s2_values, map_solves(solve, s2_values)):
        write_field(os.path.join(out, f"p_hat_s2_{s2:g}.txt"), sol.p_hat)
        if blk.dof.n_u:
            write_field(os.path.join(out, f"u_hat_s2_{s2:g}.txt"),
                        sol.u_hat)
        rows.append((s1, s2, ratios["fluid_lhs"], ratios["solid_lhs"],
                     ratios["fluid_ratio"], ratios["solid_ratio"],
                     sol.residual))
    write_csv(os.path.join(out, "freq_summary.csv"),
              ["s1", "s2", "fluid_lhs", "solid_lhs", "fluid_ratio",
               "solid_ratio", "residual"], rows)
    write_manifest(out, cfg, "freq-solve",
                   {"n_modes_effective": blk.n_modes_effective})
    return 0


def run_td(cfg: RunConfig, out: str) -> int:
    mesh = build_mesh(cfg.geometry, cfg.pml, cfg.numerics["mesh_size"])
    blk = build_blocks(mesh, cfg.numerics["n_modes"])
    probes = locate_probes(mesh, cfg.probes)
    traj = newmark_run(blk, cfg.media, cfg.source, cfg.source.T,
                       cfg.numerics["n_steps"], probes=probes,
                       snapshot_times=cfg.numerics["snapshot_times"],
                       record_norms=True)
    rows = np.column_stack((np.repeat(traj.t, probes.n),
                            np.tile(np.arange(probes.n), traj.t.size),
                            traj.probe_p.T.ravel()))
    write_csv(os.path.join(out, "probes.csv"), ["t", "probe_id", "p"],
              rows)
    for t_snap, p_nodal, u_nodal in traj.snapshots:
        write_field(os.path.join(out, f"p_t{t_snap:g}.txt"), p_nodal)
    ratios = energy_trace(traj, blk, cfg.media, cfg.source)
    write_csv(os.path.join(out, "energy_ratios.csv"),
              sorted(ratios), [[ratios[k] for k in sorted(ratios)]])
    write_manifest(out, cfg, "td-run",
                   {"n_modes_effective": blk.n_modes_effective})
    return 0


def _freq_route_errors(cfg: RunConfig, L_values) -> tuple[list[float], int]:
    """Squared H-norm gaps between the transparent-boundary reference
    and the layer solutions, summed over the configured frequencies,
    and the reference's effective boundary-map mode count."""
    mesh_ref = build_mesh(cfg.geometry, None, cfg.numerics["mesh_size"])
    blk_ref = build_blocks(mesh_ref, cfg.numerics["n_modes"])
    s1 = cfg.numerics["s1"]
    s_list = [complex(s1, s2) for s2 in cfg.numerics["freq_s2_values"]]

    def solve_all(blk, variant):
        return map_solves(lambda s: solve_frequency(assemble(
            blk, cfg.media, s, cfg.source.spatial,
            complex(cfg.source.pulse.laplace(s)), variant)), s_list)

    refs = solve_all(blk_ref, "exact_dtn")
    nv_ref = mesh_ref.n_vertices
    errors = []
    for L in L_values:
        pml = PmlProfile(sigma0=cfg.pml.sigma0, m=cfg.pml.m, L=L, s1=s1)
        mesh_L = build_mesh(cfg.geometry, pml, cfg.numerics["mesh_size"])
        blk_L = build_blocks(mesh_L, cfg.numerics["n_modes"])
        err_sq = 0.0
        for sol, ref in zip(solve_all(blk_L, "pml_layer"), refs):
            diff = nodal_to_dofs(blk_ref,
                                 sol.p_hat[:nv_ref] - ref.p_hat,
                                 sol.u_hat[:nv_ref] - ref.u_hat)
            err_sq += h_norm_sq(blk_ref, diff)
        errors.append(err_sq)
    return errors, blk_ref.n_modes_effective


def _time_route_errors(cfg: RunConfig, L_values) -> tuple[list[float], int]:
    """Time-integrated squared H1 gaps against a thick-layer reference
    run sharing the sub-layer mesh (the layer meshes extend it: their
    first vertices are its vertices, in order), and the sub-layer
    blocks' effective boundary-map mode count."""
    s1 = cfg.numerics["s1"]
    n_steps = cfg.numerics["n_steps"]
    T = cfg.source.T
    sigma_ref = max([cfg.pml.sigma0] + cfg.sweep["sigma0_values"])

    mesh_sub = build_mesh(cfg.geometry, None, cfg.numerics["mesh_size"])
    blk_sub = build_blocks(mesh_sub, cfg.numerics["n_modes"])
    sub = np.arange(mesh_sub.n_vertices)

    def history(L, sigma0):
        """Sub-layer dof vectors of one run, one column per step."""
        pml = PmlProfile(sigma0=sigma0, m=cfg.pml.m, L=L, s1=s1)
        mesh = build_mesh(cfg.geometry, pml, cfg.numerics["mesh_size"])
        blk = build_blocks(mesh, cfg.numerics["n_modes"])
        traj = newmark_run(blk, cfg.media, cfg.source, T, n_steps,
                           store_nodes=sub)
        return nodal_to_dofs(blk_sub, traj.field_p, traj.field_u)

    x_ref = history(cfg.sweep["L_ref"], sigma_ref)
    dt = T / n_steps
    errors = []
    for L in L_values:
        gaps = h_norm_sq(blk_sub, history(L, cfg.pml.sigma0) - x_ref)
        errors.append(float(np.trapezoid(gaps, dx=dt)))
    return errors, blk_sub.n_modes_effective


def run_convergence(cfg: RunConfig, out: str) -> int:
    L_values = cfg.sweep["L_values"]
    if len(L_values) < 3:
        raise ConfigError("convergence sweep needs at least 3 L values")
    route = _freq_route_errors if cfg.numerics["route"] == "freq" \
        else _time_route_errors
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
    code = 0
    try:
        fit = fit_rate(L_values, np.sqrt(np.asarray(errors)))
        extra["fitted_exponent"] = f"{fit.exponent:.12g}"
        extra["fit_residual"] = f"{fit.residual:.12g}"
    except FitError as exc:
        extra["fit_rejected"] = str(exc)
        code = 1
    emit_plots(csv_path, os.path.join(out, "plot_convergence.py"),
               "convergence", {"rates": (rate_lbar, rate_printed)})
    write_manifest(out, cfg, "convergence", extra)
    return code


def run_parseval(cfg: RunConfig, out: str) -> int:
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
    check("parseval_exp", parseval_residual(decay, decay, 1.0,
                                            s2_max=s2_max,
                                            n_freq=n_freq), 1e-6)
    pulse = cfg.source.pulse
    sig = SampledSignal.sample(pulse, horizon, n_time)
    ref = float(np.trapezoid(np.exp(-2 * s1 * sig.t)
                         * np.abs(sig.values) ** 2, sig.t))
    check("parseval_pulse_rel",
          parseval_residual(sig, sig, s1, s2_max=s2_max, n_freq=n_freq)
          / max(ref, 1e-300), 1e-5)
    write_csv(os.path.join(out, "parseval.csv"),
              ["case", "residual", "tolerance", "pass"], rows)
    write_manifest(out, cfg, "parseval", {"pass": "1" if ok else "0"})
    return 0 if ok else 1


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
        np.random.seed(cfg.numerics["seed"])
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
