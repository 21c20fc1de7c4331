"""Newmark integration, probes, and contour synthesis."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import norm as sparse_norm

from pmlstrip import (ContourConfig, Geometry, MediaParams, PmlProfile,
                      Pulse, Rectangle, SourceSpec, SurfaceProfile,
                      assemble, build_blocks, build_mesh, causality_margin,
                      contour_synthesize, dofs_to_nodal, energy_trace,
                      free_dofs, frequency_matrix, inverse_laplace_grid,
                      load_vector, locate_probes, newmark_run, probe_values,
                      reconstruct_signal, solve_frequency, synthesize,
                      term_weights, time_matrices)
import pmlstrip.timedomain
from pmlstrip.fem import DIAG_PIVOT_THRESH, LU_ORDERING, \
    SingularSystemError, _affine_form, _sqrt_form, _with_data, factorize
from pmlstrip.timedomain import ProbeError

MEDIA = MediaParams()
# distinct material constants, so that a misplaced weight shows
ODD_MEDIA = MediaParams(c=1.3, rho0=0.8, rho_e=2.1, lam=1.7, mu=0.9)
PML = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=0.5)


def layer_blocks(obstacle=False, target=0.08):
    geom = Geometry(
        period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
        obstacle=Rectangle.square((0.5, 0.25), 0.2) if obstacle else None)
    return build_blocks(build_mesh(geom, PML, target), n_modes=16)


class TestProbes:
    def test_locate_and_interpolate_linear(self):
        blk = layer_blocks()
        mesh = blk.mesh
        pts = np.array([[0.31, 0.22], [0.77, 0.41]])
        probes = locate_probes(mesh, pts)
        nodal = 2.0 * mesh.vertices[:, 0] - 3.0 * mesh.vertices[:, 1] + 1.0
        vals = probe_values(mesh, probes, nodal)
        assert vals == pytest.approx(2.0 * pts[:, 0] - 3.0 * pts[:, 1]
                                     + 1.0)

    def test_outside_rejected(self):
        blk = layer_blocks()
        with pytest.raises(ProbeError):
            locate_probes(blk.mesh, [[0.5, 5.0]])


class TestNewmark:
    def test_requires_layer(self):
        geom = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0),
                        h=0.5)
        blk = build_blocks(build_mesh(geom, None, 0.1))
        with pytest.raises(ValueError):
            newmark_run(blk, MEDIA, None, 1.0, 10)

    def test_matrices_real(self):
        blk = layer_blocks(obstacle=True)
        M, K = time_matrices(blk, MEDIA)
        assert M.dtype.kind == "f" and K.dtype.kind == "f"

    def test_rest_stays_at_rest(self):
        blk = layer_blocks()
        traj = newmark_run(blk, MEDIA, None, 0.5, 20,
                           probes=locate_probes(blk.mesh, [[0.5, 0.25]]))
        assert np.max(np.abs(traj.probe_p)) == 0.0

    def test_energy_conservation_free_oscillation(self):
        # zero forcing, nonzero initial displacement: the average
        # acceleration scheme conserves the discrete energy exactly
        blk = layer_blocks()
        rng = np.random.default_rng(4)
        d0 = np.zeros(blk.dof.size)
        d0[:blk.dof.n_p] = rng.normal(size=blk.dof.n_p)
        traj = newmark_run(blk, MEDIA, None, 1.0, 100, initial_d=d0,
                           record_energy=True)
        e = traj.energy
        assert e[0] > 0
        drift = np.max(np.abs(e - e[0])) / e[0]
        assert drift < 1e-10

    def test_snapshots_and_norms(self):
        blk = layer_blocks(obstacle=True)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=1.0)
        traj = newmark_run(blk, MEDIA, src, 1.0, 50,
                           snapshot_times=[0.5, 1.0], record_norms=True)
        assert len(traj.snapshots) == 2
        assert traj.snapshots[0][0] == pytest.approx(0.5)
        assert traj.norms["grad_p"].max() > 0
        ratios = energy_trace(traj, blk, MEDIA, src)
        assert 0 < ratios["fluid_ratio"] < np.inf
        assert ratios["fluid_ratio_pml"] <= ratios["fluid_ratio"]

    def test_store_nodes(self):
        blk = layer_blocks()
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=0.5)
        keep = np.arange(10)
        traj = newmark_run(blk, MEDIA, src, 0.5, 10, store_nodes=keep)
        assert traj.field_p.shape == (10, 11)
        assert traj.field_u.shape == (10, 2, 11)

    def test_causality_margin_shape(self):
        blk = layer_blocks()
        src = SourceSpec(center=(0.2, 0.25), radius=0.06, T=1.0)
        probes = locate_probes(blk.mesh, [[0.8, 0.25]])
        traj = newmark_run(blk, MEDIA, src, 1.0, 100, probes=probes)
        pre, tot = causality_margin(traj, 0.54, MEDIA.c)
        assert 0.0 <= pre <= tot


def reference_newmark_run(blk, media, source, T, n_steps, probes=None,
                          snapshot_times=(), record_norms=False,
                          store_nodes=None):
    """newmark_run with its former readout: the scalar pulse derivative at
    every step, and every step expands the whole dof vector through
    dofs_to_nodal and reads probes, stored nodes and snapshots off the
    nodal fields."""
    dt = T / n_steps
    form = _affine_form(blk, "pml_layer")
    free = form.free
    w_M, w_K = term_weights(media)
    Kr, A_eff = (_with_data(form.reduced, (w @ form.terms)[form.gather])
                 for w in (w_K, w_M + 0.25 * dt * dt * w_K))
    lu = factorize(A_eff)
    f_shape = load_vector(blk, source.spatial)[free] / media.c ** 2
    d, v = np.zeros(free.size), np.zeros(free.size)
    a = np.zeros(free.size)
    t_grid = np.linspace(0.0, T, n_steps + 1)
    out = {"probe_p": [], "field_p": [], "field_u": [], "snapshots": [],
           "norms": {k: [] for k in ("dt_p", "grad_p", "dt_u", "div_u",
                                     "grad_u")}}
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}
    x_full, v_full = np.zeros(blk.dof.size), np.zeros(blk.dof.size)
    for step in range(n_steps + 1):
        if step:
            d_star = d + dt * v + dt * dt * 0.25 * a
            v_star = v + dt * 0.5 * a
            a = lu.solve(source.pulse.derivative(t_grid[step]) * f_shape
                         - Kr @ d_star)
            d = d_star + 0.25 * dt * dt * a
            v = v_star + 0.5 * dt * a
        x_full[free] = d
        v_full[free] = v
        p_nodal, u_nodal = dofs_to_nodal(blk, x_full)
        if store_nodes is not None:
            out["field_p"].append(p_nodal[store_nodes])
            out["field_u"].append(u_nodal[store_nodes])
        if probes is not None:
            out["probe_p"].append(probe_values(blk.mesh, probes, p_nodal))
        if step in snap_steps:
            out["snapshots"].append((t_grid[step], p_nodal.copy(),
                                     u_nodal.copy()))
        if record_norms:
            for key, A, x in (("dt_p", blk.M_fluid, v_full),
                              ("grad_p", blk.K_fluid, x_full),
                              ("dt_u", blk.M_solid, v_full),
                              ("div_u", blk.K_div, x_full),
                              ("grad_u", blk.K_solid_h1, x_full)):
                out["norms"][key].append(_sqrt_form(A, x))
    out["probe_p"] = np.array(out["probe_p"]).T
    out["field_p"] = np.array(out["field_p"]).T
    out["field_u"] = np.moveaxis(np.array(out["field_u"]), 0, -1)
    return out


class TestNewmarkReadout:
    """Probes, stored nodes, snapshots and norms read straight off the
    free-dof state equal the former per-step nodal expansion."""

    SRC = SourceSpec(center=(0.2, 0.25), radius=0.08, T=1.0)

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_store_nodes_bitwise(self, obstacle):
        blk = layer_blocks(obstacle=obstacle)
        # every vertex: Dirichlet, layer, periodic-slave and solid-only
        keep = np.arange(blk.mesh.n_vertices)[::-1]
        traj = newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30,
                           store_nodes=keep)
        ref = reference_newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30,
                                    store_nodes=keep)
        assert np.abs(ref["field_p"]).max() > 0
        if obstacle:
            assert np.abs(ref["field_u"]).max() > 0
        assert traj.field_p.shape == ref["field_p"].shape
        assert traj.field_u.shape == ref["field_u"].shape
        assert np.array_equal(traj.field_p, ref["field_p"])
        assert np.array_equal(traj.field_u, ref["field_u"])
        # both are views of one history buffer, not copies
        assert traj.field_p.base is not None
        assert traj.field_p.base is traj.field_u.base

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_probes_match(self, obstacle):
        blk = layer_blocks(obstacle=obstacle)
        pts = [[0.31, 0.22], [0.77, 0.41], [0.0, 0.3], [0.5, 0.7],
               [0.5, 0.25], [0.6, 0.35]]
        probes = locate_probes(blk.mesh, pts)
        traj = newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30,
                           probes=probes)
        ref = reference_newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30,
                                    probes=probes)["probe_p"]
        assert traj.probe_p.shape == ref.shape
        assert np.max(np.abs(traj.probe_p - ref)) \
            <= 1e-14 * np.max(np.abs(ref))

    def test_snapshots_and_norms_unchanged(self):
        blk = layer_blocks(obstacle=True)
        kw = dict(snapshot_times=[0.0, 0.5, 1.0], record_norms=True)
        traj = newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30, **kw)
        ref = reference_newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30, **kw)
        assert len(traj.snapshots) == len(ref["snapshots"]) == 3
        for (t, p, u), (t_ref, p_ref, u_ref) in zip(traj.snapshots,
                                                     ref["snapshots"]):
            assert t == t_ref
            assert np.array_equal(p, p_ref) and np.array_equal(u, u_ref)
        assert np.abs(ref["snapshots"][-1][2]).max() > 0
        for key, series in ref["norms"].items():
            assert np.array_equal(traj.norms[key], series)


class TestFactorization:
    @pytest.mark.parametrize("s", [None, 0.5, 0.5 + 100.0j])
    def test_fill_below_colamd(self, s):
        # the structurally symmetric inclusion layer systems, the Newmark
        # step matrix (s None) and frequency systems, fill less under
        # minimum degree on A + A^T than under COLAMD (2,411 dofs; below
        # about 1,000 COLAMD fills less); at large |s| only with the
        # lowered diagonal pivot threshold (0.74M LU nonzeros with
        # SuperLU's default 1.0, against 0.18M)
        blk = layer_blocks(obstacle=True, target=0.02)
        if s is None:
            form = _affine_form(blk, "pml_layer")
            w_M, w_K = term_weights(ODD_MEDIA)
            A = _with_data(form.reduced,
                           ((w_M + 1e-4 * w_K) @ form.terms)[form.gather])
        else:
            A = assemble(blk, ODD_MEDIA, s, None, 0.0, "pml_layer").matrix
        assert factorize(A).nnz \
            < spla.splu(A, diag_pivot_thresh=DIAG_PIVOT_THRESH).nnz

    def test_ordering_and_fill_reported(self):
        blk = layer_blocks(obstacle=True)
        traj = newmark_run(blk, MEDIA, None, 0.5, 2)
        assert traj.meta["ordering"] == LU_ORDERING == "MMD_AT_PLUS_A"
        assert traj.meta["lu_nnz"] > free_dofs(blk, "pml_layer").size
        sol = solve_frequency(assemble(blk, MEDIA, 1.0 + 2.0j, None, 0.0,
                                       "pml_layer"))
        assert sol.ordering == LU_ORDERING
        assert sol.lu_nnz > sol.system.matrix.shape[0]


def sparse_sum_time_matrices(blk, media):
    """M and K as sparse sums of the weighted blocks: the construction
    the term table replaces."""
    M = blk.M_all / media.c ** 2 + media.rho_e * blk.M_solid \
        - media.rho0 * blk.C_pu
    K = blk.K_all + media.lam * blk.K_div + media.mu * blk.K_eps \
        + blk.C_up
    return M, K


class TestOneOperator:
    """The Newmark and Laplace-line routes read one term table."""

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_time_matrices_match_sparse_sums(self, obstacle):
        blk = layer_blocks(obstacle=obstacle)
        for A, ref in zip(time_matrices(blk, ODD_MEDIA),
                          sparse_sum_time_matrices(blk, ODD_MEDIA)):
            assert sparse_norm(A - ref) <= 1e-14 * sparse_norm(ref)

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_layer_form_is_transformed_time_system(self, obstacle):
        # Laplace transform of M d'' + K d, test rows scaled by 1/s
        # (pressure) and rho0 conj(s) (displacement)
        blk = layer_blocks(obstacle=obstacle)
        M, K = time_matrices(blk, ODD_MEDIA)
        pressure = np.arange(blk.dof.size) < blk.dof.n_p
        for s in (0.7, 0.5 + 7.0j, 2.0 - 3.0j):
            r = np.where(pressure, 1.0 / s, ODD_MEDIA.rho0 * np.conj(s))
            ref = sp.diags(r) @ (s * s * M + K)
            A = frequency_matrix(blk, ODD_MEDIA, s, "pml_layer")
            assert sparse_norm(A - ref) <= 1e-13 * sparse_norm(ref)

    def test_newmark_energy_uses_reduced_stiffness(self):
        # at rest the discrete energy is d.K d / 2 on the free dofs
        blk = layer_blocks(obstacle=True)
        d0 = np.random.default_rng(5).normal(size=blk.dof.size)
        traj = newmark_run(blk, ODD_MEDIA, None, 0.1, 1, initial_d=d0,
                           record_energy=True)
        free = free_dofs(blk, "pml_layer")
        K = sparse_sum_time_matrices(blk, ODD_MEDIA)[1]
        ref = 0.5 * d0[free] @ (K[np.ix_(free, free)] @ d0[free])
        assert traj.energy[0] == pytest.approx(ref, rel=1e-13)


class TestContour:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContourConfig(s1=0.0, s2_max=10.0)
        with pytest.raises(ValueError):
            ContourConfig(s1=1.0, s2_max=10.0, n_freq=4)
        cfg = ContourConfig(s1=1.0, s2_max=10.0, n_freq=5)
        assert cfg.half_grid() == pytest.approx([0.0, 5.0, 10.0])

    def test_synthesize_is_twice_half_grid_inversion(self):
        cfg = ContourConfig(s1=0.8, s2_max=30.0, n_freq=301)
        half = cfg.half_grid()
        s = cfg.s1 + 1j * half
        vals = np.stack([Pulse().laplace(s), 1.0 / (s + 1.0) ** 2])
        t = np.linspace(0.0, 4.0, 81)
        out = synthesize(vals, cfg, t)
        assert out.shape == (2, t.size)
        assert np.array_equal(
            out, 2.0 * inverse_laplace_grid(vals, cfg.s1, half, t))
        # one trapezoid sum per time, as e^{s1 t}/pi Re trapz on the half
        # grid
        looped = np.stack([np.exp(cfg.s1 * tk) / np.pi * np.real(
            np.trapezoid(vals * np.exp(1j * half * tk), half, axis=-1))
            for tk in t], axis=-1)
        assert np.max(np.abs(out - looped)) < 1e-12
        # conjugate-symmetric data: the full line gives the same signal
        full = np.linspace(-cfg.s2_max, cfg.s2_max, cfg.n_freq)
        sf = cfg.s1 + 1j * full
        vals_full = np.stack([Pulse().laplace(sf), 1.0 / (sf + 1.0) ** 2])
        assert np.max(np.abs(out - inverse_laplace_grid(
            vals_full, cfg.s1, full, t))) < 1e-12

    def test_pulse_self_reconstruction(self):
        p = Pulse()
        cfg = ContourConfig(s1=1.0, s2_max=60.0, n_freq=961)
        t = np.linspace(0.0, 2.0, 101)
        recon = reconstruct_signal(p.laplace, cfg, t)
        scale = np.max(np.abs(p(t)))
        assert np.max(np.abs(recon - p(t))) < 1e-3 * scale

    @pytest.mark.filterwarnings("ignore::pmlstrip.xform.TruncationWarning")
    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer"])
    def test_synthesis_matches_per_frequency_load(self, variant):
        # the source load assembled once and scaled per frequency equals
        # assembling it with the pulse transform at every frequency
        geom = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
                        obstacle=Rectangle.square((0.6, 0.25), 0.16))
        blk = build_blocks(build_mesh(geom, PML, 0.08), n_modes=16)
        src = SourceSpec(center=(0.25, 0.25), radius=0.08, T=2.0)
        probes = locate_probes(blk.mesh, [[0.3, 0.4], [0.8, 0.2]])
        cfg = ContourConfig(s1=0.5, s2_max=20.0, n_freq=41,
                            t_grid=np.linspace(0.0, 2.0, 21))
        traj = contour_synthesize(blk, ODD_MEDIA, src, cfg, probes, variant)
        rows = []
        for w in cfg.half_grid():
            s = cfg.s1 + 1j * w
            sol = solve_frequency(assemble(blk, ODD_MEDIA, s, src.spatial,
                                           complex(src.pulse.laplace(s)),
                                           variant))
            rows.append(probe_values(blk.mesh, probes, sol.p_hat))
        ref = synthesize(np.stack(rows, axis=-1), cfg, cfg.t_grid)
        assert np.abs(ref).max() > 0
        assert np.max(np.abs(traj.probe_p - ref)) \
            <= 1e-12 * np.max(np.abs(ref))


def serial_contour(blk, media, source, cfg, probes, variant):
    """Probe traces and solve residuals of contour_synthesize's loop as
    one serial pass over the frequencies."""
    rhs0 = load_vector(blk, source.spatial)[_affine_form(blk, variant).free] \
        / media.c ** 2
    rows, residuals = [], []
    for w in cfg.half_grid():
        s = cfg.s1 + 1j * w
        sol = solve_frequency(assemble(blk, media, s, None, 0.0, variant),
                              rhs=complex(source.pulse.laplace(s)) * rhs0)
        rows.append(probe_values(blk.mesh, probes, sol.p_hat))
        residuals.append(sol.residual)
    return synthesize(np.stack(rows, axis=-1), cfg, cfg.t_grid), residuals


@pytest.mark.filterwarnings("ignore::pmlstrip.xform.TruncationWarning")
class TestConcurrentContour:
    SRC = SourceSpec(center=(0.25, 0.25), radius=0.08, T=2.0)
    CFG = ContourConfig(s1=0.5, s2_max=20.0, n_freq=41,
                        t_grid=np.linspace(0.0, 2.0, 21))

    def setup_blocks(self):
        geom = Geometry(period=1.0, surface=SurfaceProfile.cosine(0.1, 1.0),
                        h=0.5, obstacle=Rectangle.square((0.6, 0.3), 0.16))
        blk = build_blocks(build_mesh(geom, PML, 0.08), n_modes=16)
        return blk, locate_probes(blk.mesh, [[0.3, 0.4], [0.8, 0.2]])

    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer"])
    def test_equals_serial_loop_bitwise(self, cpus, variant):
        blk, probes = self.setup_blocks()
        traj = contour_synthesize(blk, ODD_MEDIA, self.SRC, self.CFG, probes,
                                  variant)
        ref, residuals = serial_contour(blk, ODD_MEDIA, self.SRC, self.CFG,
                                        probes, variant)
        assert np.abs(ref).max() > 0
        assert np.array_equal(traj.probe_p, ref)
        assert traj.meta["workers"] == cpus
        assert traj.meta["max_residual"] == max(residuals)
        assert traj.meta["max_residual"] <= 1e-10

    def test_singular_solve_propagates(self, cpus, monkeypatch):
        blk, probes = self.setup_blocks()
        solve = pmlstrip.timedomain.solve_frequency

        def failing(system, rhs=None):
            if system.s.imag in (7.0, 15.0):
                raise SingularSystemError(f"singular at s2 = {system.s.imag}")
            return solve(system, rhs)
        monkeypatch.setattr(pmlstrip.timedomain, "solve_frequency", failing)
        with pytest.raises(SingularSystemError, match="s2 = 7.0"):
            contour_synthesize(blk, MEDIA, self.SRC, self.CFG, probes)
