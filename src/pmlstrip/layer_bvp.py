"""Two-point boundary value problem inside the absorbing layer.

For one lateral mode xi the transformed pressure v(x3) on (h, h+L)
satisfies the sigma-weighted ODE

    d/dx3 ( (1/sigma) dv/dx3 ) - (s^2/c^2 + |xi|^2) * sigma * v = 0

with v(h) = phi and v(h+L) = 0.  The closed-form solution is a ratio of
exponentials in the stretched coordinate; a conservative finite
difference scheme provides the independent numerical route, and the
one-sided derivative at x3 = h recovers the layer boundary symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import OutOfLayerError, PmlProfile, sigma_profile, \
    stretched_coordinate
from .symbols import beta


@dataclass(frozen=True)
class LayerMode:
    """One lateral mode of the layer problem."""

    xi: float
    s: complex
    c: float
    pml: PmlProfile
    h: float = 0.0
    phi: complex = 1.0

    @property
    def beta(self) -> complex:
        return beta(self.xi, self.s, self.c)


@dataclass
class LayerSolution:
    """Grid values of the per-mode layer solution."""

    x3: np.ndarray
    values: np.ndarray
    mode: LayerMode


def analytic_layer_solution(mode: LayerMode, x3):
    """Closed-form layer solution at x3 in [h, h+L].

    With tau = L_tilde - (xhat3 - h) the solution is
    phi * e^{-beta(L_tilde - tau)} (1 - e^{-2 beta tau}) / (1 - e^{-2 beta L_tilde}),
    which only ever exponentiates arguments with nonpositive real part.
    """
    x3a = np.asarray(x3, dtype=float)
    h, L = mode.h, mode.pml.L
    if np.any(x3a < h - 1e-12) or np.any(x3a > h + L + 1e-12):
        raise OutOfLayerError("x3 outside [h, h+L]")
    b = mode.beta
    Lt = mode.pml.L_tilde
    xhat = stretched_coordinate(x3a, mode.pml, h)
    tau = Lt - (xhat - h)
    out = mode.phi * np.exp(-b * (Lt - tau)) * (1.0 - np.exp(-2.0 * b * tau)) \
        / (1.0 - np.exp(-2.0 * b * Lt))
    return out if out.ndim else complex(out)


def fd_layer_solve(mode: LayerMode, n: int) -> LayerSolution:
    """Solve the sigma-weighted mode ODE with a conservative three-point
    flux scheme on a uniform grid of n+1 points (n >= 8 intervals)."""
    if n < 8:
        raise ValueError("need at least 8 grid intervals")
    h, L = mode.h, mode.pml.L
    x3 = np.linspace(h, h + L, n + 1)
    dx = L / n
    sig_mid = sigma_profile(0.5 * (x3[:-1] + x3[1:]), mode.pml, h)
    sig_node = sigma_profile(x3, mode.pml, h)
    k2 = mode.s ** 2 / mode.c ** 2 + mode.xi ** 2

    # interior unknowns v_1..v_{n-1}
    m = n - 1
    lower = np.zeros(m, dtype=complex)
    diag = np.zeros(m, dtype=complex)
    upper = np.zeros(m, dtype=complex)
    rhs = np.zeros(m, dtype=complex)
    inv_mid = 1.0 / sig_mid
    for i in range(1, n):
        j = i - 1
        a_w = inv_mid[i - 1] / dx ** 2
        a_e = inv_mid[i] / dx ** 2
        diag[j] = -(a_w + a_e) - k2 * sig_node[i]
        if j > 0:
            lower[j] = a_w
        else:
            rhs[j] -= a_w * mode.phi
        if j < m - 1:
            upper[j] = a_e
        # top boundary value is zero: no contribution
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    # imported here: of the subcommands only layer-check runs this
    from scipy.linalg import solve_banded
    interior = solve_banded((1, 1), ab, rhs)

    values = np.empty(n + 1, dtype=complex)
    values[0] = mode.phi
    values[1:-1] = interior
    values[-1] = 0.0
    return LayerSolution(x3=x3, values=values, mode=mode)


def numeric_dtn_at_h(sol: LayerSolution) -> complex:
    """Second-order one-sided derivative of the layer solution at x3 = h
    (where sigma = 1), i.e. the numerically extracted boundary map value."""
    if sol.x3.size < 9:
        raise ValueError("grid too coarse for derivative extraction")
    dx = sol.x3[1] - sol.x3[0]
    v = sol.values
    return complex((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx))
