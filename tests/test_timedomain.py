"""Newmark integration, probes, and contour synthesis."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm

from pmlstrip import (ContourConfig, Geometry, MediaParams, PmlProfile,
                      Pulse, Rectangle, SourceSpec, SurfaceProfile,
                      build_blocks, build_mesh, causality_margin,
                      energy_trace, free_dofs, frequency_matrix,
                      inverse_laplace_grid, locate_probes, newmark_run,
                      probe_values, reconstruct_signal, synthesize,
                      time_matrices)
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
