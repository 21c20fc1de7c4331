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

from .fem import FemBlocks, _cpu_count, _sqrt_form, assemble, factorize, \
    load_vector, map_solves, pad_dofs, solve_frequency, source_l2_norm, \
    term_weights
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


def _probe_reader(blk: FemBlocks, probes: ProbeSet):
    """The probe pressures of a dof vector padded with one zero: the
    pressure dofs at the corners of each probe's triangle (the sentinel
    dof.size, which reads the 0, where a corner has none), interpolated."""
    corners = blk.dof.node_dof[blk.mesh.triangles[probes.tri], 0]
    return lambda padded: np.einsum("...nk,nk->...n", padded[corners],
                                    probes.bary)


# ---------------------------------------------------------------------------
# Newmark time integration
# ---------------------------------------------------------------------------

NEWMARK_BETA = 0.25


def step_grid(T: float, n_steps: int) -> tuple[np.ndarray, float]:
    """Newmark's n_steps + 1 times from 0 to T, and its step dt."""
    return np.linspace(0.0, T, n_steps + 1), T / n_steps


def nearest_steps(times, dt: float) -> list[int]:
    """The step nearest each time, where newmark_run keeps a snapshot."""
    return [int(round(ts / dt)) for ts in times]


def step_weights(media: MediaParams, dt: float):
    """Each term's weight in Kr and in A_eff = w_M + NEWMARK_BETA dt^2 w_K."""
    w_M, w_K = term_weights(media)
    return w_K, w_M + NEWMARK_BETA * dt * dt * w_K


@dataclass
class TimeTrajectory:
    """Probe series and per-step diagnostics of one transient run."""

    t: np.ndarray
    probe_p: np.ndarray | None = None      # (n_probes, n_steps+1)
    history: np.ndarray | None = None      # stored dofs x steps
    norms: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)   # (t, dof vector)
    meta: dict = field(default_factory=dict)


def newmark_run(blk: FemBlocks, media: MediaParams, source: SourceSpec,
                T: float, n_steps: int, probes: ProbeSet | None = None,
                snapshot_times=(), record_norms: bool = False,
                store_dofs: np.ndarray | None = None) -> TimeTrajectory:
    """Average-acceleration (1/4, 1/2) integration on a layer mesh
    (Dirichlet wall at the layer top), from rest: d = v = a = 0 at
    t = 0, where the load dg/dt must vanish.

    store_dofs keeps the full history of the listed dofs (the sentinel
    dof.size reads 0).  meta records the step matrix's LU fill (lu_nnz).
    """
    if n_steps < 1 or T <= 0:
        raise ValueError("need T > 0 and n_steps >= 1")
    if blk.mesh.pml is None:
        raise ValueError("Newmark integration needs a layer mesh")
    t_grid, dt = step_grid(T, n_steps)
    beta_n, gamma_n = NEWMARK_BETA, 0.5
    g_t = source.pulse.derivative(t_grid)
    if g_t[0] != 0:
        raise ValueError("the load dg/dt must vanish at t = 0: Newmark "
                         "starts at rest")

    form = blk.form
    n = blk.dof.size
    Kr, A_eff = (form.matrix(w @ form.terms) for w in step_weights(media, dt))
    lu = factorize(A_eff)
    f_shape = load_vector(blk, source.spatial) / media.c ** 2

    d, v, a = np.zeros(n), np.zeros(n), np.zeros(n)

    traj = TimeTrajectory(t=t_grid, meta={"dt": dt, "n_steps": n_steps,
                                          "lu_nnz": lu.nnz})
    # readout from the state padded with one zero, (d, 0)
    state = np.zeros(n + 1)
    if probes is not None:
        read_probes = _probe_reader(blk, probes)
        traj.probe_p = np.zeros((probes.n, n_steps + 1))
    if store_dofs is not None:
        # one contiguous row per step
        history = np.zeros((n_steps + 1, len(store_dofs)))
        traj.history = history.T
    if record_norms:
        for key in ("dt_p", "grad_p", "dt_u", "div_u", "grad_u"):
            traj.norms[key] = np.zeros(n_steps + 1)
    snap_steps = set(nearest_steps(snapshot_times, dt))

    def record(step):
        state[:-1] = d
        if store_dofs is not None:
            history[step] = state[store_dofs]
        if probes is not None:
            traj.probe_p[:, step] = read_probes(state)
        if step in snap_steps:
            traj.snapshots.append((t_grid[step], d.copy()))
        if record_norms:
            traj.norms["dt_p"][step] = _sqrt_form(blk.M_fluid, v)
            traj.norms["grad_p"][step] = _sqrt_form(blk.K_fluid, d)
            traj.norms["dt_u"][step] = _sqrt_form(blk.M_solid, v)
            traj.norms["div_u"][step] = _sqrt_form(blk.K_div, d)
            traj.norms["grad_u"][step] = _sqrt_form(blk.K_solid_h1, d)

    record(0)
    for step in range(1, n_steps + 1):
        d_star = d + dt * v + dt * dt * (0.5 - beta_n) * a
        v_star = v + dt * (1.0 - gamma_n) * a
        a = lu.solve(g_t[step] * f_shape - Kr @ d_star)
        d = d_star + beta_n * dt * dt * a
        v = v_star + gamma_n * dt * a
        record(step)
    if not np.isfinite(d).all():
        raise RuntimeError("the Newmark state is not finite")
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
    half = cfg.half_grid()
    # calibration: the contour must reproduce the pulse itself
    recon = inverse_laplace_grid(source.pulse.laplace(cfg.s1 + 1j * half),
                                 cfg.s1, half, t)
    err = float(np.max(np.abs(recon - source.pulse(t))))
    scale = float(np.max(np.abs(source.pulse(t))))
    if err > 1e-3 * max(scale, 1e-300):
        warnings.warn("contour too short/coarse: pulse self-"
                      f"reconstruction error {err:.2e}",
                      TruncationWarning, stacklevel=2)

    read_probes = _probe_reader(blk, probes)

    def solve(w):
        s = cfg.s1 + 1j * w
        sol = solve_frequency(assemble(blk, media, s, source.spatial,
                                       complex(source.pulse.laplace(s)),
                                       variant))
        return read_probes(pad_dofs(sol.x)), sol.residual

    rows, residuals = zip(*map_solves(solve, half))
    return TimeTrajectory(t=np.asarray(t, dtype=float),
                          probe_p=inverse_laplace_grid(
                              np.stack(rows, axis=-1), cfg.s1, half, t),
                          meta={"reconstruction_error": err,
                                "workers": _cpu_count(),
                                "max_residual": max(residuals)})
