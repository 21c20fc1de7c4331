"""Reference oracles the acceptance criteria and the unit tests compare
against: closed-form manufactured data, error norms, the scalar symbol
gap and the causality margin.  No subcommand or benchmark workload
needs them, so they live with the tests; sympy is a test dependency.
"""

import numpy as np
import sympy as sym

from pmlstrip.fem import AssemblyError, FemBlocks, _load_rule, _sqrt_form, \
    load_vector
from pmlstrip.mesh import MARKER_GAMMA, MARKER_GAMMA_F, SOLID
from pmlstrip.model import MediaParams
from pmlstrip.symbols import _layer_modes
from pmlstrip.timedomain import TimeTrajectory


# ---------------------------------------------------------------------------
# the scalar symbol gap
# ---------------------------------------------------------------------------

def symbol_gap(xi, s: complex, c: float, L_tilde: float) -> float:
    """|exact symbol - layer symbol| = |beta| * |1 - coth(beta*L_tilde)|."""
    b, _, coth_gap, _ = _layer_modes(np.linalg.norm(xi), s, c, L_tilde)
    return float(abs(b) * coth_gap)


# ---------------------------------------------------------------------------
# causality
# ---------------------------------------------------------------------------

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
# manufactured solutions
# ---------------------------------------------------------------------------

def manufactured_residual(blk: FemBlocks, media: MediaParams, s: complex,
                          p_expr, u_expr=None):
    """Turn closed-form fields into consistent data for the strip
    problem.

    p_expr is a sympy expression in (x1, x3) vanishing on the bottom
    surface with zero value and zero x3-slope on x3 = h; u_expr is an
    optional pair of sympy expressions on the inclusion.  Returns
    (rhs_vector, x_exact): the exact fields at the dof nodes as a dof
    vector.
    """
    x1, x3 = sym.symbols("x1 x3", real=True)
    c, rho0, rho_e = media.c, media.rho0, media.rho_e

    trace = sym.simplify(p_expr.subs(x3, blk.mesh.geometry.h))
    if trace != 0:
        raise AssemblyError("manufactured pressure must vanish on x3 = h")

    F_f = -sym.diff(p_expr, x1, 2) / s - sym.diff(p_expr, x3, 2) / s \
        + s / c ** 2 * p_expr
    f_fluid = sym.lambdify((x1, x3), F_f, "numpy")

    mesh, dof = blk.mesh, blk.dof
    rhs = load_vector(blk, f_fluid).astype(complex)

    grad_p = [sym.lambdify((x1, x3), sym.diff(p_expr, v), "numpy")
              for v in (x1, x3)]
    p_num = sym.lambdify((x1, x3), p_expr, "numpy")

    u_num = None
    if u_expr is not None:
        lam, mu = media.lam, media.mu
        u1e, u2e = u_expr
        div_u = sym.diff(u1e, x1) + sym.diff(u2e, x3)
        # Lame operator: div sigma(u)
        sig11 = lam * div_u + 2 * mu * sym.diff(u1e, x1)
        sig22 = lam * div_u + 2 * mu * sym.diff(u2e, x3)
        sig12 = mu * (sym.diff(u1e, x3) + sym.diff(u2e, x1))
        lame1 = sym.diff(sig11, x1) + sym.diff(sig12, x3)
        lame2 = sym.diff(sig12, x1) + sym.diff(sig22, x3)
        # solid volume residual of the rho0*conj(s)-scaled weak form
        Fs1 = rho0 * np.conj(s) * (-lame1 + rho_e * s ** 2 * u1e)
        Fs2 = rho0 * np.conj(s) * (-lame2 + rho_e * s ** 2 * u2e)
        fs = [sym.lambdify((x1, x3), e, "numpy") for e in (Fs1, Fs2)]

        for comp in (0, 1):
            q1, q3, _, op = _load_rule(blk, SOLID, 1 + comp)
            rhs += op @ np.broadcast_to(fs[comp](q1, q3), q1.shape).ravel()

        sig_num = [sym.lambdify((x1, x3), e, "numpy")
                   for e in (sig11, sig12, sig22)]
        u_num = [sym.lambdify((x1, x3), e, "numpy") for e in (u1e, u2e)]

        # interface corrections: the weak form imposed
        #   dn p = -rho0 s^2 n.u   and   sigma(u) n = -p n
        # exactly; add the manufactured imbalances as extra data.
        edges, n = mesh.boundary_edges[MARKER_GAMMA], mesh.gamma_normals
        va, vb = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
        half = 0.5 * np.hypot(*(vb - va).T)
        for t in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            # one point of the 2-point Gauss rule on every edge
            xq = (1 - t) * va + t * vb
            f = [np.broadcast_to(g(xq[:, 0], xq[:, 1]), half.shape)
                 for g in grad_p + u_num + sig_num + [p_num]]
            dpdx1, dpdx3, u1, u2, s11, s12, s22, pq = f
            r1 = n[:, 0] * dpdx1 + n[:, 1] * dpdx3 \
                + rho0 * s ** 2 * (n[:, 0] * u1 + n[:, 1] * u2)
            shp = np.outer(half, [1 - t, t])        # shape x weight
            np.add.at(rhs, dof.node_dof[edges, 0],
                      -(1.0 / s) * r1[:, None] * shp)
            r2 = (s11 * n[:, 0] + s12 * n[:, 1] + pq * n[:, 0],
                  s12 * n[:, 0] + s22 * n[:, 1] + pq * n[:, 1])
            for comp in (0, 1):
                np.add.at(rhs, dof.node_dof[edges, 1 + comp],
                          rho0 * np.conj(s) * r2[comp][:, None] * shp)

    # exact fields on the dof nodes for error measurement
    x_exact = np.zeros(dof.size, dtype=complex)
    x_exact[:dof.n_p] = p_num(*mesh.vertices[dof.p_nodes].T)
    scale = max(1.0, float(np.max(np.abs(x_exact))))
    bottom = p_num(*mesh.vertices[mesh.boundary_edges[MARKER_GAMMA_F]].T)
    if np.max(np.abs(bottom)) > 1e-9 * scale:
        raise AssemblyError("manufactured pressure must vanish on the "
                            "bottom surface")
    if u_num is not None:
        for comp in (0, 1):
            x_exact[dof.n_p + comp::2] = u_num[comp](
                *mesh.vertices[dof.u_nodes].T)
    return rhs, x_exact


def fluid_error_norms(blk: FemBlocks, x: np.ndarray,
                      x_ref: np.ndarray) -> tuple[float, float]:
    """(L2, H1) norms of the pressure difference of two dof vectors
    over the fluid region below x3 = h."""
    e = x - x_ref
    return _sqrt_form(blk.M_fluid, e), \
        _sqrt_form(blk.M_fluid + blk.K_fluid, e)
