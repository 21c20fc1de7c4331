"""Time-domain routes to the transient scattering fields.

Two independent paths: direct implicit Newmark integration of the real
variable-coefficient layer system (the stretching is frequency
independent, so no auxiliary memory variables appear), and synthesis of
probe trajectories from a family of frequency solves along a vertical
contour in the right half-plane.  Both combine one term table
(fem.AffineForm) with the weights of fem.term_weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem import LU_ORDERING, FemBlocks, _affine_form, _cpu_count, \
    _sqrt_form, _with_data, assemble, dofs_to_nodal, factorize, \
    load_vector, map_solves, solve_frequency, source_l2_norm, term_weights
from .model import MediaParams, SourceSpec
from .xform import TruncationWarning, inverse_laplace_grid


class ProbeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# point probes
# ---------------------------------------------------------------------------

@dataclass
class ProbeSet:
    """Barycentric interpolation data for fixed sample points."""

    points: np.ndarray           # (n, 2)
    tri: np.ndarray              # containing triangle per point
    bary: np.ndarray             # (n, 3) barycentric weights

    @property
    def n(self) -> int:
        return self.points.shape[0]


def locate_probes(mesh, points) -> ProbeSet:
    """First containing triangle of each point (barycentric weights
    >= -1e-10), tested against all triangles at once; degenerate ones
    (det = 0) get non-finite weights and never match."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tri_idx = np.empty(points.shape[0], dtype=np.int64)
    bary = np.empty((points.shape[0], 3))
    a, b, c = np.moveaxis(mesh.vertices[mesh.triangles], 1, 0)
    e1, e2 = b - a, c - a
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    for k, pt in enumerate(points):
        r = pt - a
        with np.errstate(divide="ignore", invalid="ignore"):
            l1 = (e2[:, 1] * r[:, 0] - e2[:, 0] * r[:, 1]) / det
            l2 = (-e1[:, 1] * r[:, 0] + e1[:, 0] * r[:, 1]) / det
            l0 = 1.0 - l1 - l2
        hit = np.flatnonzero(np.min([l0, l1, l2], axis=0) >= -1e-10)
        if hit.size == 0:
            raise ProbeError(f"probe point {tuple(pt)} outside the mesh")
        tri_idx[k] = t = hit[0]
        bary[k] = (l0[t], l1[t], l2[t])
    return ProbeSet(points=points, tri=tri_idx, bary=bary)


def probe_values(mesh, probes: ProbeSet, nodal: np.ndarray) -> np.ndarray:
    """Interpolate a nodal field (last axis = vertices) at the probes."""
    tri_nodes = mesh.triangles[probes.tri]          # (n, 3)
    vals = np.take(nodal, tri_nodes, axis=-1)       # (..., n, 3)
    return np.einsum("...nk,nk->...n", vals, probes.bary)


# ---------------------------------------------------------------------------
# Newmark time integration
# ---------------------------------------------------------------------------

@dataclass
class TimeTrajectory:
    """Probe series and per-step diagnostics of one transient run."""

    t: np.ndarray
    probe_p: np.ndarray | None = None      # (n_probes, n_steps+1)
    field_p: np.ndarray | None = None      # stored nodes x steps
    field_u: np.ndarray | None = None      # stored nodes x 2 x steps
    energy: np.ndarray | None = None
    norms: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)   # (t, p_nodal, u_nodal)
    meta: dict = field(default_factory=dict)


def time_matrices(blk: FemBlocks, media: MediaParams):
    """Real global mass and stiffness (CSR) of the second-order-in-time
    layer system: the layer family's term table combined with the
    weights of fem.term_weights."""
    form = _affine_form(blk, "pml_layer")
    return tuple(_with_data(form.pattern, w @ form.terms)
                 for w in term_weights(media))


def newmark_run(blk: FemBlocks, media: MediaParams,
                source: SourceSpec | None, T: float, n_steps: int,
                probes: ProbeSet | None = None,
                snapshot_times=(), record_norms: bool = False,
                record_energy: bool = False,
                initial_d: np.ndarray | None = None,
                store_nodes: np.ndarray | None = None) -> TimeTrajectory:
    """Average-acceleration (1/4, 1/2) integration from rest.

    initial_d optionally seeds a nonzero displacement state (used by the
    conservation checks); store_nodes keeps the full history of the
    listed vertex ids.  meta records the step matrix's LU ordering and
    fill (lu_nnz).
    """
    mesh = blk.mesh
    if mesh.pml is None:
        raise ValueError("transient runs need a mesh with the absorbing "
                         "layer (Dirichlet wall at its top)")
    if n_steps < 1 or T <= 0:
        raise ValueError("need T > 0 and n_steps >= 1")
    dt = T / n_steps
    beta_n, gamma_n = 0.25, 0.5

    form = _affine_form(blk, "pml_layer")
    free = form.free
    w_M, w_K = term_weights(media)
    Mr, Kr, A_eff = (_with_data(form.reduced, (w @ form.terms)[form.gather])
                     for w in (w_M, w_K, w_M + beta_n * dt * dt * w_K))
    lu = factorize(A_eff)

    t_grid = np.linspace(0.0, T, n_steps + 1)
    if source is None:
        f_shape, g_t = np.zeros(free.size), np.zeros(t_grid.size)
    else:
        f_shape = load_vector(blk, source.spatial)[free] / media.c ** 2
        g_t = source.pulse.derivative(t_grid)

    d = np.zeros(free.size)
    v = np.zeros(free.size)
    if initial_d is not None:
        d = np.asarray(initial_d, dtype=float)[free].copy()
    r0 = g_t[0] * f_shape - Kr @ d
    if np.linalg.norm(r0) > 0:
        a = factorize(Mr).solve(r0)
    else:
        a = np.zeros(free.size)

    traj = TimeTrajectory(t=t_grid, meta={"dt": dt, "n_steps": n_steps,
                                          "ordering": LU_ORDERING,
                                          "lu_nnz": lu.nnz})
    # readout straight from the free-dof state: pos maps a global dof to
    # its slot in (d, 0), so a vertex without that dof reads the sentinel
    pos = np.full(blk.dof.size + 1, free.size)
    pos[free] = np.arange(free.size)
    state = np.zeros(free.size + 1)
    if probes is not None:
        cols = pos[blk.dof.node_dof[mesh.triangles[probes.tri], 0]]
        probe_op = sp.csr_matrix(
            (probes.bary.ravel(), (np.repeat(np.arange(probes.n), 3),
                                   cols.ravel())),
            shape=(probes.n, state.size))
        traj.probe_p = np.zeros((probes.n, n_steps + 1))
    if store_nodes is not None:
        store_slots = pos[blk.dof.node_dof[store_nodes]]
        # one contiguous (p, u1, u2) row block per step
        history = np.zeros((n_steps + 1,) + store_slots.shape)
        traj.field_p = history[:, :, 0].T
        traj.field_u = history[:, :, 1:].transpose(1, 2, 0)
    if record_energy:
        traj.energy = np.zeros(n_steps + 1)
    if record_norms:
        for key in ("dt_p", "grad_p", "dt_u", "div_u", "grad_u"):
            traj.norms[key] = np.zeros(n_steps + 1)
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}

    x_full = np.zeros(blk.dof.size)
    v_full = np.zeros(blk.dof.size)

    def record(step):
        state[:-1] = d
        if store_nodes is not None:
            history[step] = state[store_slots]
        if probes is not None:
            traj.probe_p[:, step] = probe_op @ state
        if step in snap_steps or record_norms:
            x_full[free] = d
            v_full[free] = v
        if step in snap_steps:
            p_nodal, u_nodal = dofs_to_nodal(blk, x_full)
            traj.snapshots.append((t_grid[step], p_nodal, u_nodal))
        if record_energy:
            traj.energy[step] = 0.5 * float(v @ (Mr @ v)) \
                + 0.5 * float(d @ (Kr @ d))
        if record_norms:
            traj.norms["dt_p"][step] = _sqrt_form(blk.M_fluid, v_full)
            traj.norms["grad_p"][step] = _sqrt_form(blk.K_fluid, x_full)
            traj.norms["dt_u"][step] = _sqrt_form(blk.M_solid, v_full)
            traj.norms["div_u"][step] = _sqrt_form(blk.K_div, x_full)
            traj.norms["grad_u"][step] = _sqrt_form(blk.K_solid_h1, x_full)

    record(0)
    for step in range(1, n_steps + 1):
        d_star = d + dt * v + dt * dt * (0.5 - beta_n) * a
        v_star = v + dt * (1.0 - gamma_n) * a
        a = lu.solve(g_t[step] * f_shape - Kr @ d_star)
        d = d_star + beta_n * dt * dt * a
        v = v_star + gamma_n * dt * a
        record(step)
    return traj


def energy_trace(traj: TimeTrajectory, blk: FemBlocks,
                 media: MediaParams, source: SourceSpec) -> dict:
    """Max-over-time solution norms against the cumulative source norm
    ||dg/dt||_{L1(0,t; L2)}, with the layer-strength normalizations."""
    if not traj.norms:
        raise ValueError("trajectory was run without norm recording")
    dg = np.abs(source.pulse.derivative(traj.t)) \
        * source_l2_norm(blk, source.spatial)
    dt = traj.t[1] - traj.t[0]
    cum = np.concatenate([[0.0],
                          np.cumsum(0.5 * (dg[1:] + dg[:-1])) * dt])
    cum = np.maximum(cum, 1e-300)
    fluid = (traj.norms["dt_p"] + traj.norms["grad_p"]) / cum
    solid = (traj.norms["dt_u"] + traj.norms["div_u"]
             + traj.norms["grad_u"]) / cum
    sigma0 = blk.mesh.pml.sigma0
    T = traj.t[-1]
    return {
        "fluid_ratio": float(fluid[1:].max()),
        "solid_ratio": float(solid[1:].max()),
        "fluid_ratio_pml": float(fluid[1:].max()) / (1.0 + sigma0 * T),
        "solid_ratio_pml": float(solid[1:].max())
        / np.sqrt(1.0 + sigma0 * T),
    }


def causality_margin(traj: TimeTrajectory, distance: float, c: float,
                     probe: int = 0) -> tuple[float, float]:
    """(pre-arrival max, global max) of one probe series for arrival
    time distance/c minus two steps."""
    dt = traj.meta["dt"]
    cutoff = distance / c - 2.0 * dt
    pre = traj.t < cutoff
    series = np.abs(traj.probe_p[probe])
    pre_max = float(series[pre].max()) if pre.any() else 0.0
    return pre_max, float(series.max())


# ---------------------------------------------------------------------------
# contour synthesis
# ---------------------------------------------------------------------------

@dataclass
class ContourConfig:
    """Vertical-line inversion parameters."""

    s1: float
    s2_max: float
    n_freq: int = 401           # symmetric count including s2 = 0 (odd)
    t_grid: np.ndarray | None = None

    def __post_init__(self):
        if self.s1 <= 0:
            raise ValueError("s1 must be positive")
        if self.n_freq % 2 != 1 or self.n_freq < 3:
            raise ValueError("n_freq must be odd and >= 3")

    def half_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.s2_max, (self.n_freq - 1) // 2 + 1)


def synthesize(values: np.ndarray, cfg: ContourConfig,
               t: np.ndarray) -> np.ndarray:
    """Inverse transform of conjugate-symmetric contour data.

    values holds the transform on the nonnegative half grid (last axis);
    the result is e^{s1 t}/pi * Re trapz(values * e^{i s2 t}), i.e.
    twice the full-line inversion restricted to the half grid.
    """
    return 2.0 * inverse_laplace_grid(values, cfg.s1, cfg.half_grid(), t)


def reconstruct_signal(transform, cfg: ContourConfig,
                       t: np.ndarray) -> np.ndarray:
    """Self-reconstruction of a scalar signal from its closed-form
    transform (the calibration oracle for the contour parameters);
    transform is evaluated once on the array of half-grid s values."""
    return synthesize(transform(cfg.s1 + 1j * cfg.half_grid()), cfg, t)


def contour_synthesize(blk: FemBlocks, media: MediaParams,
                       source: SourceSpec, cfg: ContourConfig,
                       probes: ProbeSet,
                       variant: str = "exact_dtn") -> TimeTrajectory:
    """Probe pressure trajectories from per-frequency solves on the
    contour s = s1 + i s2, exploiting conjugate symmetry; the solves run
    side by side (fem.map_solves).  meta reports the pulse
    self-reconstruction error, the solve pool's size (workers) and the
    largest relative solve residual (max_residual)."""
    t = cfg.t_grid
    if t is None:
        t = np.linspace(0.0, source.T, 201)
    # calibration: the contour must reproduce the pulse itself
    recon = reconstruct_signal(source.pulse.laplace, cfg, t)
    err = float(np.max(np.abs(recon - source.pulse(t))))
    scale = float(np.max(np.abs(source.pulse(t))))
    if err > 1e-3 * max(scale, 1e-300):
        warnings.warn("contour too short/coarse: pulse self-"
                      f"reconstruction error {err:.2e}",
                      TruncationWarning, stacklevel=2)

    # the source load does not depend on s: assemble it once at scale 1
    rhs0 = load_vector(blk, source.spatial)[_affine_form(blk, variant).free] \
        / media.c ** 2

    def solve(w):
        s = cfg.s1 + 1j * w
        sol = solve_frequency(assemble(blk, media, s, None, 0.0, variant),
                              rhs=complex(source.pulse.laplace(s)) * rhs0)
        return probe_values(blk.mesh, probes, sol.p_hat), sol.residual

    rows, residuals = zip(*map_solves(solve, cfg.half_grid()))
    return TimeTrajectory(t=np.asarray(t, dtype=float),
                          probe_p=synthesize(np.stack(rows, axis=-1), cfg, t),
                          meta={"variant": variant, "s1": cfg.s1,
                                "s2_max": cfg.s2_max,
                                "n_freq": cfg.n_freq,
                                "reconstruction_error": err,
                                "workers": _cpu_count(),
                                "max_residual": max(residuals)})
