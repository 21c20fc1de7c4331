"""Two-point boundary value problem inside the absorbing layer.

For one lateral mode xi the transformed pressure v(x3) on (0, L), with
x3 measured from the layer bottom (x3 = h of the strip), satisfies the
sigma-weighted ODE

    d/dx3 ( (1/sigma) dv/dx3 ) - (s^2/c^2 + |xi|^2) * sigma * v = 0

with v(0) = 1 and v(L) = 0.  The closed-form solution is a ratio of
exponentials in the stretched coordinate; a conservative finite
difference scheme provides the independent numerical route, and the
one-sided derivative at x3 = 0 recovers the layer boundary symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import OutOfLayerError, PmlProfile, sigma_profile, \
    stretched_coordinate
from .symbols import beta_grid


@dataclass(frozen=True)
class LayerMode:
    """One lateral mode of the layer problem."""

    xi: float
    s: complex
    c: float
    pml: PmlProfile

    @property
    def beta(self) -> complex:
        return beta_grid(abs(self.xi), self.s, self.c)


@dataclass
class LayerSolution:
    """Grid values of the per-mode layer solution."""

    x3: np.ndarray
    values: np.ndarray


def analytic_layer_solution(mode: LayerMode, x3):
    """Closed-form layer solution at x3 in [0, L].

    With tau = L_tilde - xhat3 the solution is
    e^{-beta(L_tilde - tau)} (1 - e^{-2 beta tau}) / (1 - e^{-2 beta L_tilde}),
    which only ever exponentiates arguments with nonpositive real part.
    """
    x3a = np.asarray(x3, dtype=float)
    L = mode.pml.L
    if np.any(x3a < -1e-12) or np.any(x3a > L + 1e-12):
        raise OutOfLayerError("x3 outside [0, L]")
    b = mode.beta
    Lt = mode.pml.L_tilde
    tau = Lt - stretched_coordinate(x3a, mode.pml, 0.0)
    out = np.exp(-b * (Lt - tau)) * (1.0 - np.exp(-2.0 * b * tau)) \
        / (1.0 - np.exp(-2.0 * b * Lt))
    return out if out.ndim else complex(out)


def fd_layer_solve(mode: LayerMode, n: int) -> LayerSolution:
    """Solve the sigma-weighted mode ODE with a conservative three-point
    flux scheme on a uniform grid of n+1 points (n >= 8 intervals)."""
    if n < 8:
        raise ValueError("need at least 8 grid intervals")
    L = mode.pml.L
    x3 = np.linspace(0.0, L, n + 1)
    dx = L / n
    sig_mid = sigma_profile(0.5 * (x3[:-1] + x3[1:]), mode.pml, 0.0)
    sig_node = sigma_profile(x3, mode.pml, 0.0)
    k2 = mode.s ** 2 / mode.c ** 2 + mode.xi ** 2

    # interior unknowns v_1..v_{n-1}: the flux weight a of each interval
    # couples its two ends; v_0 = 1 moves to the right-hand side and the
    # top value v_n = 0 contributes nothing
    a = 1.0 / sig_mid / dx ** 2
    ab = np.zeros((3, n - 1), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = a[1:-1]
    ab[1] = -(a[:-1] + a[1:]) - k2 * sig_node[1:-1]
    rhs = np.zeros(n - 1, dtype=complex)
    rhs[0] -= a[0]
    # imported here: of the subcommands only layer-check runs this
    from scipy.linalg import solve_banded
    interior = solve_banded((1, 1), ab, rhs)

    values = np.empty(n + 1, dtype=complex)
    values[0] = 1.0
    values[1:-1] = interior
    values[-1] = 0.0
    return LayerSolution(x3=x3, values=values)


def numeric_dtn_at_h(sol: LayerSolution) -> complex:
    """Second-order one-sided derivative of the layer solution at the
    layer bottom x3 = 0 (where sigma = 1), i.e. the numerically extracted
    boundary map value."""
    if sol.x3.size < 9:
        raise ValueError("grid too coarse for derivative extraction")
    dx = sol.x3[1] - sol.x3[0]
    v = sol.values
    return complex((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx))
