"""Acceptance gate: one test and one pass/fail line per criterion.

Each test prints a single `criterion NN ... PASS/FAIL` line (visible
with `pytest -s` or on failure) and asserts the stated tolerances.
"""

import time

import numpy as np
import pytest
import sympy

from pmlstrip import (ContourConfig, FrequencySystem, Geometry, LayerMode,
                      MediaParams, PmlProfile, Pulse, Rectangle, SampledSignal,
                      SourceSpec, SurfaceProfile, analytic_layer_solution,
                      assemble, build_blocks, build_mesh,
                      contour_synthesize, cu_bound, energy_trace,
                      fd_layer_solve, h_norm_sq, locate_probes,
                      newmark_run, numeric_dtn_at_h, parseval_residual,
                      solve_frequency, symbol_gap_sup,
                      transform_property_check)
from pmlstrip.cli import _time_route_errors, fit_rate
from pmlstrip.config import load_config
from pmlstrip.symbols import beta_grid, dtn_symbol_grid

from oracles import causality_margin, fluid_error_norms, \
    manufactured_residual, symbol_gap

MEDIA = MediaParams()


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {verdict} ({detail})")
    return ok


def spec_grid():
    """The shared audit grid: s1, s2, |xi| values."""
    xi = np.concatenate([[0.0], np.geomspace(1e-2, 100.0, 400)])
    s2 = np.linspace(-50.0, 50.0, 201)
    return (1.0, 0.1), s2, xi


def test_criterion_01_symbol_bound_certification():
    s1_vals, s2_vals, xi = spec_grid()
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for sigma0 in (1.0, 2.0, 4.0):
        for L in (0.5, 1.0, 2.0):
            for s1 in s1_vals:
                pml = PmlProfile(sigma0=sigma0, m=1, L=L, s1=s1)
                Lb = pml.L_bar
                for s2 in s2_vals:
                    s = complex(s1, s2)
                    gaps = symbol_gap_sup(s, MEDIA.c, [pml], xi).gap
                    bound = cu_bound(s, MEDIA.c, Lb)
                    ratio = float(gaps.max() / bound)
                    worst = max(worst, ratio)
                    ok &= bool(np.all(gaps <= bound * (1.0 + 1e-10)))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    assert report(1, "symbol bound", ok,
                  f"worst gap/bound {worst:.4f}, {elapsed:.2f} s")


def test_criterion_02_modal_passivity():
    s1_vals, s2_vals, xi = spec_grid()
    worst = np.inf
    for s1 in s1_vals:
        for s2 in s2_vals:
            s = complex(s1, s2)
            b = beta_grid(xi, s, MEDIA.c)
            worst = min(worst, float((b / s).real.min()))
    ok = worst >= -1e-14
    assert report(2, "modal passivity", ok, f"min Re(beta/s) {worst:.2e}")


def test_criterion_03_layer_bvp_consistency():
    mode = LayerMode(xi=0.0, s=1.0 + 0.0j, c=1.0,
                     pml=PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0))
    n_vals = (32, 64, 128, 256)
    errs, dtn_errs = [], []
    target_dtn = dtn_symbol_grid(0.0, mode.s, mode.c, mode.pml.L_tilde)
    mid_val = None
    for n in n_vals:
        sol = fd_layer_solve(mode, n)
        exact = analytic_layer_solution(mode, sol.x3)
        errs.append(float(np.max(np.abs(sol.values - exact))))
        dtn_errs.append(abs(numeric_dtn_at_h(sol) - target_dtn))
        if n == 256:
            mid_val = sol.values[n // 2]
    logs = np.log(n_vals)
    order = -np.polyfit(logs, np.log(errs), 1)[0]
    order_dtn = -np.polyfit(logs, np.log(dtn_errs), 1)[0]
    mid_err = abs(mid_val - 0.44168)
    ok = (abs(order - 2.0) <= 0.2 and abs(order_dtn - 2.0) <= 0.2
          and mid_err <= 1e-3)
    assert report(3, "layer bvp", ok,
                  f"orders {order:.2f}/{order_dtn:.2f}, "
                  f"midpoint err {mid_err:.1e}")


def test_criterion_04_discrete_coercivity():
    t0 = time.perf_counter()
    pml = PmlProfile(sigma0=2.0, m=1, L=0.5, s1=1.0)
    geom = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
                    obstacle=Rectangle(0.4, 0.6, 0.15, 0.35))
    rng = np.random.default_rng(42)
    ok = True
    details = []
    for variant in ("exact_dtn", "pml_dtn", "pml_layer"):
        with_layer = variant == "pml_layer"
        constants = []
        for target in (0.022, 0.011):
            blk = build_blocks(build_mesh(
                geom, pml if with_layer else None, target), n_modes=32)
            for s in (1.0 + 0.0j, 1.0 + 10.0j):
                A = assemble(blk, MEDIA, s, None, 0.0, variant, pml).matrix
                cmin = np.inf
                for _ in range(200):
                    w = rng.normal(size=blk.dof.size) \
                        + 1j * rng.normal(size=blk.dof.size)
                    re_a, nsq = np.vdot(w, A @ w).real, h_norm_sq(blk, w)
                    ok &= re_a > 0.0
                    cmin = min(cmin, re_a / nsq)
                constants.append(cmin)
        # compare coarse vs fine at matching s
        for k in (0, 1):
            c_coarse, c_fine = constants[k], constants[k + 2]
            ok &= abs(c_fine - c_coarse) < 0.5 * max(c_fine, c_coarse)
        details.append(f"{variant} c={min(constants):.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(4, "discrete coercivity", ok,
                  "; ".join(details) + f", {elapsed:.1f} s")


def _manufactured_order(surface, with_obstacle):
    x1, x3 = sympy.symbols("x1 x3", real=True)
    h = sympy.Rational(1, 2)
    if surface == "flat":
        f_expr = sympy.Integer(0)
        prof = SurfaceProfile.flat(0.0)
    else:
        f_expr = sympy.Rational(1, 20) * sympy.cos(2 * sympy.pi * x1)
        prof = SurfaceProfile.cosine(0.05, 1.0)
    p_expr = (x3 - f_expr) * (h - x3) ** 2 * sympy.cos(2 * sympy.pi * x1)
    u_expr = None
    obstacle = None
    if with_obstacle:
        obstacle = Rectangle(0.4, 0.6, 0.2, 0.4)
        u_expr = (sympy.sin(sympy.pi * x1) * x3,
                  sympy.cos(sympy.pi * x1) * x3 ** 2)
    geom = Geometry(period=1.0, surface=prof, h=0.5, obstacle=obstacle)
    s = 1.0 + 2.0j
    errs, sizes = [], []
    for target in (0.08, 0.04, 0.02):
        blk = build_blocks(build_mesh(geom, None, target), n_modes=16)
        rhs, x_ex = manufactured_residual(blk, MEDIA, s, p_expr, u_expr)
        system = assemble(blk, MEDIA, s, None, 0.0, "exact_dtn")
        sol = solve_frequency(FrequencySystem(system.matrix, rhs))
        l2, _ = fluid_error_norms(blk, sol.x, x_ex)
        errs.append(l2)
        sizes.append(target)
    return float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])


def test_criterion_05_manufactured_convergence():
    ok = True
    details = []
    for surface in ("flat", "cosine"):
        for with_obstacle in (False, True):
            order = _manufactured_order(surface, with_obstacle)
            ok &= abs(order - 2.0) <= 0.3
            tag = surface + ("+obstacle" if with_obstacle else "")
            details.append(f"{tag} {order:.2f}")
    assert report(5, "manufactured order", ok, ", ".join(details))


def test_criterion_06_per_mode_convergence():
    t0 = time.perf_counter()
    s, c = 1.0 + 0.0j, 1.0
    L_vals = np.array([0.25, 0.5, 1.0, 1.5, 2.0])
    rate_target = 2.0 * 2.0 / ((1 + 1) * c)      # 2 sigma0 / ((m+1) c)
    gaps, stretched = [], []
    ok = True
    for L in L_vals:
        pml = PmlProfile(sigma0=2.0, m=1, L=float(L), s1=s.real)
        g = symbol_gap(0.0, s, c, pml.L_tilde)
        ok &= g <= cu_bound(s, c, pml.L_bar) * (1.0 + 1e-10)
        gaps.append(g)
        stretched.append(pml.L_tilde)
    # slope of the log gap against the stretched thickness (see the
    # decisions ledger for the abscissa choice)
    slope = -np.polyfit(stretched, np.log(gaps), 1)[0]
    elapsed = time.perf_counter() - t0
    ok &= abs(slope - rate_target) <= 0.1 * rate_target
    ok &= elapsed < 1.0
    assert report(6, "per-mode rate", ok,
                  f"slope {slope:.3f} vs {rate_target:g}, {elapsed:.2f} s")


def test_criterion_07_field_level_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg_text = (
        "[geom]\nperiod = 1.0\nh = 0.5\nsurface = cosine:0.1,1\n"
        "obstacle = 0.4,0.2; 0.6,0.2; 0.6,0.4; 0.4,0.4\n"
        "[source]\ncenter = 0.2,0.3\nradius = 0.05\nT = 2.0\n"
        "[pml]\nsigma0 = 2.0\nm = 1\nL = 0.1\n"
        "[numerics]\nmesh_size = 0.0125\nn_steps = 400\nn_modes = 32\n"
        "route = time\n"
        "[sweep]\nL_values = 0.1,0.15,0.2,0.25\nL_ref = 3.0\n")
    path = tmp_path / "field.ini"
    path.write_text(cfg_text)
    cfg = load_config(str(path))
    L_values = cfg.sweep["L_values"]
    errors, _ = _time_route_errors(cfg, L_values)
    monotone = bool(np.all(np.diff(errors) < 0))
    fit = fit_rate(L_values, np.sqrt(np.asarray(errors)))
    log_range = float(fit.log_errors.max() - fit.log_errors.min())
    rate_target = 2.0 * cfg.pml.sigma0 / ((cfg.pml.m + 1) * MEDIA.c)
    elapsed = time.perf_counter() - t0
    ok = (monotone and fit.residual < 0.15 * log_range
          and fit.exponent >= 0.8 * rate_target and elapsed < 900.0)
    assert report(7, "field-level rate", ok,
                  f"exponent {fit.exponent:.2f} (>= {0.8 * rate_target:g})"
                  f", residual {fit.residual:.3f} of range {log_range:.2f}"
                  f", {elapsed:.0f} s")


def test_criterion_08_stability_envelopes():
    geom = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
                    obstacle=Rectangle(0.4, 0.6, 0.15, 0.35))
    src = SourceSpec(center=(0.2, 0.25), radius=0.06, T=1.0,
                     pulse=Pulse(a=2.0, omega0=3.0))

    def ratios(target, sigma0):
        pml = PmlProfile(sigma0=sigma0, m=1, L=0.4, s1=1.0)
        blk = build_blocks(build_mesh(geom, pml, target), n_modes=16)
        traj = newmark_run(blk, MEDIA, src, src.T, 200, record_norms=True)
        return energy_trace(traj, blk, MEDIA, src)

    vals = [ratios(t, 2.0)["fluid_ratio"] for t in (0.04, 0.02, 0.01)]
    spread = max(vals) / min(vals) - 1.0
    base = ratios(0.04, 2.0)["fluid_ratio_pml"]
    doubled = ratios(0.04, 4.0)["fluid_ratio_pml"]
    ok = (np.all(np.isfinite(vals)) and spread < 0.5
          and doubled <= base * 1.05)
    assert report(8, "stability envelopes", ok,
                  f"spread {spread:.2f}, normalized ratio "
                  f"{base:.3f} -> {doubled:.3f} on sigma0 doubling")


def test_criterion_09_transform_identities():
    residuals = {}
    r = transform_property_check(
        lambda t: t, lambda t: np.ones_like(t), lambda t: 0.0 * t,
        1.0 + 0.0j, T=40.0, n=16000)
    residuals["linear"] = max(r)
    r = transform_property_check(
        np.sin, np.cos, lambda t: -np.sin(t), 1.0 + 1.0j,
        T=40.0, n=16000)
    residuals["sine"] = max(r)
    decay = SampledSignal.sample(lambda t: np.exp(-t), 40.0, 16000)
    residuals["parseval_exp"] = parseval_residual(decay, 1.0)
    pulse = Pulse()
    sig = SampledSignal.sample(pulse, 40.0, 16000)
    ref = float(np.trapezoid(np.exp(-2.0 * sig.t) * sig.values ** 2,
                             sig.t))
    residuals["parseval_pulse_rel"] = \
        parseval_residual(sig, 1.0) / ref
    ok = (residuals["linear"] <= 1e-6 and residuals["sine"] <= 1e-6
          and residuals["parseval_exp"] <= 1e-6
          and residuals["parseval_pulse_rel"] <= 1e-5)
    assert report(9, "transform identities", ok,
                  ", ".join(f"{k} {v:.1e}" for k, v in residuals.items()))


def test_criterion_10_route_consistency():
    geom = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5)
    src = SourceSpec(center=(0.5, 0.25), radius=0.08, T=2.0)
    probe_pts = [[0.25, 0.3], [0.5, 0.35], [0.75, 0.3]]
    target = 0.025
    s1 = 1.0 / src.T

    pml = PmlProfile(sigma0=4.0, m=1, L=1.5, s1=s1)
    blk_td = build_blocks(build_mesh(geom, pml, target), n_modes=32)
    probes_td = locate_probes(blk_td.mesh, probe_pts)
    traj_td = newmark_run(blk_td, MEDIA, src, src.T, 400, probes=probes_td)

    blk_fq = build_blocks(build_mesh(geom, None, target), n_modes=32)
    probes_fq = locate_probes(blk_fq.mesh, probe_pts)
    cfg = ContourConfig(s1=s1, s2_max=40.0, n_freq=321,
                        t_grid=traj_td.t)
    traj_fq = contour_synthesize(blk_fq, MEDIA, src, cfg, probes_fq,
                                 variant="exact_dtn")
    rels = []
    for k in range(3):
        diff = traj_td.probe_p[k] - traj_fq.probe_p[k]
        rels.append(np.linalg.norm(diff)
                    / max(np.linalg.norm(traj_fq.probe_p[k]), 1e-300))
    ok = max(rels) <= 0.05
    assert report(10, "route consistency", ok,
                  "relative L2 " + ", ".join(f"{r:.3f}" for r in rels))


def test_criterion_11_causality():
    geom = Geometry(period=2.0, surface=SurfaceProfile.flat(0.0), h=0.45)
    src = SourceSpec(center=(0.5, 0.25), radius=0.06, T=3.0,
                     pulse=Pulse(a=1.5, omega0=2.0))
    pml = PmlProfile(sigma0=4.0, m=1, L=0.35, s1=1.0 / 3.0)
    blk = build_blocks(build_mesh(geom, pml, 0.00625), n_modes=16)
    probes = locate_probes(blk.mesh, [[1.5, 0.25]])
    traj = newmark_run(blk, MEDIA, src, src.T, 1200, probes=probes)
    distance = 1.0 - src.radius
    pre, tot = causality_margin(traj, distance, MEDIA.c)
    ratio = pre / tot
    ok = ratio <= 1e-6
    assert report(11, "causality", ok,
                  f"pre-arrival ratio {ratio:.1e}")
