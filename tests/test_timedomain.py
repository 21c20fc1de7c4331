"""Newmark integration, probes, and contour synthesis."""

import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import norm as sparse_norm

from pmlstrip import (ContourConfig, FrequencySystem, Geometry,
                      MediaParams, PmlProfile, Pulse, Rectangle, SourceSpec,
                      SurfaceProfile,
                      assemble, build_blocks, build_mesh,
                      contour_synthesize, dofs_to_nodal, energy_trace,
                      inverse_laplace_grid, load_vector,
                      locate_probes, newmark_run, solve_frequency,
                      term_weights)
import pmlstrip.timedomain
from pmlstrip.fem import DIAG_PIVOT_THRESH, LU_ORDERING, \
    SingularSystemError, _sqrt_form, factorize, pad_dofs
from pmlstrip.timedomain import ProbeError, _probe_reader

from oracles import causality_margin

MEDIA = MediaParams()
# distinct material constants, so that a misplaced weight shows
ODD_MEDIA = MediaParams(c=1.3, rho0=0.8, rho_e=2.1, lam=1.7, mu=0.9)
PML = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=0.5)
# a source whose pulse is zero (sin(0 t))
AT_REST = SourceSpec(center=(0.2, 0.25), radius=0.08, T=1.0,
                     pulse=Pulse(omega0=0.0))


def layer_blocks(obstacle=False, target=0.08):
    geom = Geometry(
        period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
        obstacle=Rectangle(0.4, 0.6, 0.15, 0.35) if obstacle else None)
    return build_blocks(build_mesh(geom, PML, target), n_modes=16)


def probe_values(mesh, probes, nodal):
    """Nodal readout: a per-vertex field (last axis = vertices)
    interpolated at the probes, the reference for the dof-frame
    readout."""
    return np.einsum("...nk,nk->...n",
                     np.take(nodal, mesh.triangles[probes.tri], axis=-1),
                     probes.bary)


class TestProbes:
    def test_locate_and_interpolate_linear(self):
        blk = layer_blocks()
        mesh = blk.mesh
        pts = np.array([[0.31, 0.22], [0.77, 0.41]])
        probes = locate_probes(mesh, pts)
        x = np.zeros(blk.dof.size + 1)
        x[:blk.dof.n_p] = 2.0 * mesh.vertices[blk.dof.p_nodes, 0] \
            - 3.0 * mesh.vertices[blk.dof.p_nodes, 1] + 1.0
        vals = _probe_reader(blk, probes)(x)
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
        with pytest.raises(ValueError, match="layer mesh"):
            newmark_run(blk, MEDIA, AT_REST, 1.0, 10)

    def test_rejects_load_on_at_start(self):
        # Newmark starts at rest, which a load on at t = 0 contradicts
        class LoadOnAtStart(Pulse):
            def derivative(self, t):
                return np.exp(-t) * np.cos(6.0 * t)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=1.0,
                         pulse=LoadOnAtStart())
        with pytest.raises(ValueError, match="vanish at t = 0"):
            newmark_run(layer_blocks(), MEDIA, src, 1.0, 10)

    def test_matrices_real(self):
        blk = layer_blocks(obstacle=True)
        form = blk.form
        M, K = (form.matrix(w @ form.terms) for w in term_weights(MEDIA))
        assert M.dtype.kind == "f" and K.dtype.kind == "f"

    def test_rest_stays_at_rest(self):
        blk = layer_blocks()
        traj = newmark_run(blk, MEDIA, AT_REST, 0.5, 20,
                           probes=locate_probes(blk.mesh, [[0.5, 0.25]]))
        assert np.max(np.abs(traj.probe_p)) == 0.0

    def test_work_energy_balance(self):
        # the average-acceleration scheme changes the discrete energy
        # E = (v.M v + d.K d) / 2 by exactly the trapezoidal work of the
        # load, (d_{n+1} - d_n).(f_n + f_{n+1}) / 2, when M and K are
        # symmetric (a flat layer mesh without the inclusion)
        blk = layer_blocks()
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=1.0)
        n, n_steps, dt = blk.dof.size, 100, 0.01
        d = newmark_run(blk, MEDIA, src, 1.0, n_steps,
                        store_dofs=np.arange(n)).history
        # v from rest through d_{n+1} - d_n = dt (v_n + v_{n+1}) / 2
        v = np.zeros_like(d)
        for k in range(n_steps):
            v[:, k + 1] = 2.0 * (d[:, k + 1] - d[:, k]) / dt - v[:, k]
        form = blk.form
        M, K = (form.matrix(w @ form.terms) for w in term_weights(MEDIA))
        assert (M != M.T).nnz == 0 and (K != K.T).nnz == 0
        energy = 0.5 * (np.einsum("it,it->t", v, M @ v)
                        + np.einsum("it,it->t", d, K @ d))
        f = np.outer(load_vector(blk, src.spatial) / MEDIA.c ** 2,
                     src.pulse.derivative(np.linspace(0.0, 1.0,
                                                      n_steps + 1)))
        work = 0.5 * np.einsum("it,it->t", np.diff(d, axis=1),
                               f[:, 1:] + f[:, :-1])
        assert energy.max() > 0
        assert np.max(np.abs(np.diff(energy) - work)) \
            <= 1e-12 * energy.max()

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

    def test_store_dofs(self):
        blk = layer_blocks()
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=0.5)
        keep = np.arange(10)
        traj = newmark_run(blk, MEDIA, src, 0.5, 10, store_dofs=keep)
        assert traj.history.shape == (10, 11)

    def test_causality_margin_shape(self):
        blk = layer_blocks()
        src = SourceSpec(center=(0.2, 0.25), radius=0.06, T=1.0)
        probes = locate_probes(blk.mesh, [[0.8, 0.25]])
        traj = newmark_run(blk, MEDIA, src, 1.0, 100, probes=probes)
        pre, tot = causality_margin(traj, 0.54, MEDIA.c)
        assert 0.0 <= pre <= tot


def reference_newmark_run(blk, media, source, T, n_steps, probes=None,
                          snapshot_times=(), record_norms=False,
                          store_dofs=None):
    """newmark_run with its former readout: the scalar pulse derivative at
    every step, and every step expands the whole dof vector through
    dofs_to_nodal and reads probes and snapshots off the nodal fields,
    stored dofs off the dof vector."""
    dt = T / n_steps
    form = blk.form
    w_M, w_K = term_weights(media)
    Kr, A_eff = (form.matrix(w @ form.terms)
                 for w in (w_K, w_M + 0.25 * dt * dt * w_K))
    lu = factorize(A_eff)
    f_shape = load_vector(blk, source.spatial) / media.c ** 2
    d, v, a = np.zeros(blk.dof.size), np.zeros(blk.dof.size), \
        np.zeros(blk.dof.size)
    t_grid = np.linspace(0.0, T, n_steps + 1)
    out = {"probe_p": [], "history": [], "snapshots": [],
           "norms": {k: [] for k in ("dt_p", "grad_p", "dt_u", "div_u",
                                     "grad_u")}}
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}
    for step in range(n_steps + 1):
        if step:
            d_star = d + dt * v + dt * dt * 0.25 * a
            v_star = v + dt * 0.5 * a
            a = lu.solve(source.pulse.derivative(t_grid[step]) * f_shape
                         - Kr @ d_star)
            d = d_star + 0.25 * dt * dt * a
            v = v_star + 0.5 * dt * a
        p_nodal, u_nodal = dofs_to_nodal(blk, d)
        if store_dofs is not None:
            out["history"].append(d[store_dofs])
        if probes is not None:
            out["probe_p"].append(probe_values(blk.mesh, probes, p_nodal))
        if step in snap_steps:
            out["snapshots"].append((t_grid[step], p_nodal.copy(),
                                     u_nodal.copy()))
        if record_norms:
            for key, A, x in (("dt_p", blk.M_fluid, v),
                              ("grad_p", blk.K_fluid, d),
                              ("dt_u", blk.M_solid, v),
                              ("div_u", blk.K_div, d),
                              ("grad_u", blk.K_solid_h1, d)):
                out["norms"][key].append(_sqrt_form(A, x))
    out["probe_p"] = np.array(out["probe_p"]).T
    out["history"] = np.array(out["history"]).T
    return out


class TestNewmarkReadout:
    """Probes, stored dofs, snapshots and norms read straight off the
    dof state equal the former per-step nodal expansion."""

    SRC = SourceSpec(center=(0.2, 0.25), radius=0.08, T=1.0)

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_store_dofs_bitwise(self, obstacle):
        blk = layer_blocks(obstacle=obstacle)
        # every dof, some twice
        keep = np.concatenate([np.arange(blk.dof.size)[::-1], [0, 3]])
        traj = newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30,
                           store_dofs=keep)
        ref = reference_newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30,
                                    store_dofs=keep)["history"]
        assert np.abs(ref[:blk.dof.n_p]).max() > 0
        if obstacle:
            assert np.abs(ref[blk.dof.n_p:]).max() > 0
        assert traj.history.shape == ref.shape == (keep.size, 31)
        assert np.array_equal(traj.history, ref)

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
        assert np.abs(ref).max() > 0
        assert traj.probe_p.shape == ref.shape
        assert np.array_equal(traj.probe_p, ref)

    def test_snapshots_and_norms_unchanged(self):
        blk = layer_blocks(obstacle=True)
        kw = dict(snapshot_times=[0.0, 0.5, 1.0], record_norms=True)
        traj = newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30, **kw)
        ref = reference_newmark_run(blk, ODD_MEDIA, self.SRC, 1.0, 30, **kw)
        assert len(traj.snapshots) == len(ref["snapshots"]) == 3
        for (t, x), (t_ref, p_ref, u_ref) in zip(traj.snapshots,
                                                 ref["snapshots"]):
            assert t == t_ref and x.shape == (blk.dof.size,)
            p, u = dofs_to_nodal(blk, x)
            assert np.array_equal(p, p_ref) and np.array_equal(u, u_ref)
        assert np.abs(ref["snapshots"][-1][2]).max() > 0
        for key, series in ref["norms"].items():
            assert np.array_equal(traj.norms[key], series)


class TestTrapezoidalIdentity:
    """Average-acceleration Newmark is the trapezoidal rule, so its
    trajectory is one frequency solve (trapezoidal convolution
    quadrature, Lubich 1988).  With D(z) = sum d_n z^n, F(z) = sum f_n
    z^n and delta(z) = (2/dt)(1 - z)/(1 + z), exactly

        (delta^2 M + K) D(z) = F(z),

    as Newmark starts at rest under a load that is off at t = 0.  The
    left side is the pml_layer form at s = delta up to its row scaling
    r(s): 1/s on pressure rows, rho0 conj(s) on displacement rows.  On
    |z| = rho with rho^N = 1e-16 the truncated series obey it to
    round-off."""

    N = 200

    @pytest.mark.parametrize("obstacle", [False, True])
    @pytest.mark.parametrize("pulse", [Pulse()], ids=["pulse"])
    def test_newmark_is_one_frequency_solve(self, obstacle, pulse):
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=1.0,
                         pulse=pulse)
        blk = layer_blocks(obstacle=obstacle)
        probes = locate_probes(blk.mesh, [[0.31, 0.22], [0.77, 0.41],
                                          [0.5, 0.7]])
        traj = newmark_run(blk, ODD_MEDIA, src, src.T, self.N,
                           probes=probes,
                           store_dofs=np.arange(blk.dof.size))
        d = traj.history                                  # (dofs, N + 1)
        f = np.outer(load_vector(blk, src.spatial) / ODD_MEDIA.c ** 2,
                     pulse.derivative(traj.t))
        pressure = np.arange(blk.dof.size) < blk.dof.n_p
        assert np.abs(d[pressure]).max() > 0
        if obstacle:
            assert np.abs(d[~pressure]).max() > 0
        read = _probe_reader(blk, probes)
        dt, n = traj.meta["dt"], np.arange(self.N + 1)
        rho = 1e-16 ** (1.0 / self.N)
        scale = np.sum(rho ** n * np.linalg.norm(d, axis=0))
        for angle in np.linspace(0.0, np.pi, 5):
            z = rho * np.exp(1j * angle)
            D, F = d @ z ** n, f @ z ** n
            delta = 2.0 / dt * (1.0 - z) / (1.0 + z)
            r = np.where(pressure, 1.0 / delta,
                         ODD_MEDIA.rho0 * np.conj(delta))
            sol = solve_frequency(FrequencySystem(assemble(
                blk, ODD_MEDIA, delta, None, 0.0, "pml_layer").matrix, r * F))
            assert np.linalg.norm(D - sol.x) <= 1e-12 * scale
            # the probe series transform equally, through the readout
            P = traj.probe_p @ z ** n
            assert np.abs(P - read(pad_dofs(D))).max() <= 1e-12 * scale


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
            form = blk.form
            w_M, w_K = term_weights(ODD_MEDIA)
            A = form.matrix((w_M + 1e-4 * w_K) @ form.terms)
        else:
            A = assemble(blk, ODD_MEDIA, s, None, 0.0, "pml_layer").matrix
        assert factorize(A).nnz \
            < spla.splu(A, diag_pivot_thresh=DIAG_PIVOT_THRESH).nnz

    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer",
                                         "newmark"])
    def test_fill_below_relaxed_supernodes(self, variant):
        # without SuperLU's relaxed supernodes (relax=1) a factor holds
        # fewer nonzeros than with its default relaxation, at the same
        # ordering and threshold: the frequency systems of the contour
        # workload's strip at mesh 0.025 (913 dofs without the layer,
        # 1,513 with it) and the Newmark step matrix of its layer strip
        geom = Geometry(period=1.0, surface=SurfaceProfile.cosine(0.1, 1.0),
                        h=0.5, obstacle=Rectangle(0.4, 0.6, 0.2, 0.4))
        pml = None if variant == "exact_dtn" else PML
        blk = build_blocks(build_mesh(geom, pml, 0.025), n_modes=32)
        assert blk.dof.size == (913 if pml is None else 1513)

        def relaxed(A):
            return spla.splu(A, permc_spec=LU_ORDERING,
                             diag_pivot_thresh=DIAG_PIVOT_THRESH).nnz
        if variant == "newmark":
            T, n_steps = 0.5, 2
            traj = newmark_run(blk, MEDIA, AT_REST, T, n_steps)
            w_M, w_K = term_weights(MEDIA)
            dt = T / n_steps
            A_eff = blk.form.matrix((w_M + 0.25 * dt * dt * w_K)
                                    @ blk.form.terms)
            assert traj.meta["lu_nnz"] < relaxed(A_eff)
            return
        source = SourceSpec(center=(0.2, 0.3), radius=0.05, T=2.0)
        for s in (0.5, 0.5 + 40.0j):
            system = assemble(blk, MEDIA, s, source.spatial, 1.0, variant,
                              pml)
            assert solve_frequency(system).lu_nnz < relaxed(system.matrix)

    def test_ordering_and_fill_reported(self):
        # every factorization orders by LU_ORDERING; both routes report
        # the fill
        assert LU_ORDERING == "MMD_AT_PLUS_A"
        blk = layer_blocks(obstacle=True)
        traj = newmark_run(blk, MEDIA, AT_REST, 0.5, 2)
        assert traj.meta["lu_nnz"] > blk.dof.size
        sol = solve_frequency(assemble(blk, MEDIA, 1.0 + 2.0j, None, 0.0,
                                       "pml_layer"))
        assert sol.lu_nnz > blk.dof.size


def sparse_sum_layer_matrices(blk, media):
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
    def test_layer_matrices_match_sparse_sums(self, obstacle):
        # Newmark's mass and stiffness
        blk = layer_blocks(obstacle=obstacle)
        form = blk.form
        for w, ref in zip(term_weights(ODD_MEDIA),
                          sparse_sum_layer_matrices(blk, ODD_MEDIA)):
            A = form.matrix(w @ form.terms)
            assert sparse_norm(A - ref) <= 1e-14 * sparse_norm(ref)

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_layer_form_is_transformed_time_system(self, obstacle):
        # Laplace transform of M d'' + K d, test rows scaled by 1/s
        # (pressure) and rho0 conj(s) (displacement)
        blk = layer_blocks(obstacle=obstacle)
        M, K = sparse_sum_layer_matrices(blk, ODD_MEDIA)
        pressure = np.arange(blk.dof.size) < blk.dof.n_p
        for s in (0.7, 0.5 + 7.0j, 2.0 - 3.0j):
            r = np.where(pressure, 1.0 / s, ODD_MEDIA.rho0 * np.conj(s))
            ref = (sp.diags(r) @ (s * s * M + K)).tocsr()
            A = assemble(blk, ODD_MEDIA, s, None, 0.0, "pml_layer").matrix
            assert sparse_norm(A - ref) <= 1e-13 * sparse_norm(ref)


class TestContour:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContourConfig(s1=0.0, s2_max=10.0)
        with pytest.raises(ValueError):
            ContourConfig(s1=1.0, s2_max=10.0, n_freq=4)
        cfg = ContourConfig(s1=1.0, s2_max=10.0, n_freq=5)
        assert cfg.half_grid() == pytest.approx([0.0, 5.0, 10.0])

    def test_pulse_self_reconstruction(self):
        p = Pulse()
        cfg = ContourConfig(s1=1.0, s2_max=60.0, n_freq=961)
        t = np.linspace(0.0, 2.0, 101)
        half = cfg.half_grid()
        recon = inverse_laplace_grid(p.laplace(cfg.s1 + 1j * half), cfg.s1,
                                     half, t)
        scale = np.max(np.abs(p(t)))
        assert np.max(np.abs(recon - p(t))) < 1e-3 * scale

    @pytest.mark.filterwarnings("ignore::pmlstrip.xform.TruncationWarning")
    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer"])
    def test_synthesis_matches_per_frequency_load(self, variant):
        # the source load assembled once and scaled per frequency equals
        # assembling it with the pulse transform at every frequency
        geom = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
                        obstacle=Rectangle(0.52, 0.68, 0.17, 0.33))
        pml = PML if variant == "pml_layer" else None
        blk = build_blocks(build_mesh(geom, pml, 0.08), n_modes=16)
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
            rows.append(probe_values(blk.mesh, probes,
                                     dofs_to_nodal(blk, sol.x)[0]))
        ref = inverse_laplace_grid(np.stack(rows, axis=-1), cfg.s1,
                                   cfg.half_grid(), cfg.t_grid)
        assert np.abs(ref).max() > 0
        assert np.max(np.abs(traj.probe_p - ref)) \
            <= 1e-12 * np.max(np.abs(ref))


def serial_contour(blk, media, source, cfg, probes, variant):
    """Probe traces and solve residuals of contour_synthesize's loop as
    one serial pass over the frequencies."""
    rows, residuals = [], []
    for w in cfg.half_grid():
        s = cfg.s1 + 1j * w
        sol = solve_frequency(assemble(blk, media, s, source.spatial,
                                       complex(source.pulse.laplace(s)),
                                       variant))
        rows.append(probe_values(blk.mesh, probes,
                                 dofs_to_nodal(blk, sol.x)[0]))
        residuals.append(sol.residual)
    return inverse_laplace_grid(np.stack(rows, axis=-1), cfg.s1,
                                cfg.half_grid(), cfg.t_grid), residuals


@pytest.mark.filterwarnings("ignore::pmlstrip.xform.TruncationWarning")
class TestConcurrentContour:
    SRC = SourceSpec(center=(0.25, 0.25), radius=0.08, T=2.0)
    CFG = ContourConfig(s1=0.5, s2_max=20.0, n_freq=41,
                        t_grid=np.linspace(0.0, 2.0, 21))

    def setup_blocks(self, variant):
        geom = Geometry(period=1.0, surface=SurfaceProfile.cosine(0.1, 1.0),
                        h=0.5, obstacle=Rectangle(0.52, 0.68, 0.22, 0.38))
        pml = PML if variant == "pml_layer" else None
        blk = build_blocks(build_mesh(geom, pml, 0.08), n_modes=16)
        return blk, locate_probes(blk.mesh, [[0.3, 0.4], [0.8, 0.2]])

    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer"])
    def test_equals_serial_loop_bitwise(self, cpus, variant, monkeypatch):
        blk, probes = self.setup_blocks(variant)
        # the source's load is computed once, in the caller, which
        # builds the fluid load rule for it
        rule, builders = pmlstrip.fem._load_rule, []

        def counted(*args):
            builders.append(os.getpid())
            return rule(*args)
        monkeypatch.setattr(pmlstrip.fem, "_load_rule", counted)
        traj = contour_synthesize(blk, ODD_MEDIA, self.SRC, self.CFG, probes,
                                  variant)
        assert builders == [os.getpid()]
        ref, residuals = serial_contour(blk, ODD_MEDIA, self.SRC, self.CFG,
                                        probes, variant)
        assert np.abs(ref).max() > 0
        assert np.array_equal(traj.probe_p, ref)
        assert traj.meta["workers"] == cpus
        assert traj.meta["max_residual"] == max(residuals)
        assert traj.meta["max_residual"] <= 1e-10

    def test_singular_solve_propagates(self, cpus, monkeypatch):
        blk, probes = self.setup_blocks("exact_dtn")
        assemble_ = pmlstrip.timedomain.assemble

        def failing(blk, media, s, *args):
            if s.imag in (7.0, 15.0):
                raise SingularSystemError(f"singular at s2 = {s.imag}")
            return assemble_(blk, media, s, *args)
        monkeypatch.setattr(pmlstrip.timedomain, "assemble", failing)
        with pytest.raises(SingularSystemError, match="s2 = 7.0"):
            contour_synthesize(blk, MEDIA, self.SRC, self.CFG, probes)
