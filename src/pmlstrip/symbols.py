"""Modal calculus on the transparent boundary.

Everything here works per Fourier mode xi on the plane x3 = h.  The
vertical wavenumber ``beta = sqrt(s^2/c^2 + |xi|^2)`` (positive real
part) determines both the exact boundary symbol ``-beta`` and the
layer-truncated symbol ``-beta * coth(beta * L_tilde)``; their gap is
controlled by the closed-form envelope :func:`cu_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PmlProfile


class BranchError(ValueError):
    """Argument on the closed negative real axis; the half-plane square
    root is not defined there."""


def principal_sqrt(z):
    """Square root with positive real part.

    Rejects the closed negative real axis, where no such root exists.
    """
    z = np.asarray(z, dtype=complex)
    on_cut = (z.real <= 0) & (z.imag == 0)
    if np.any(on_cut):
        raise BranchError("argument on the closed negative real axis")
    w = np.sqrt(z)  # numpy principal branch: Re >= 0, cut on negative axis
    # Re underflows to 0 for tiny Im z, Re z < 0: keep Re > 0, w * w ~ z
    out = np.where(w.real > 0, w,
                   np.finfo(float).smallest_subnormal + 1j * w.imag)
    return out if out.ndim else complex(out)


def _xi_norm2(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        return float(xi) ** 2
    return float(np.dot(xi, xi))


def beta(xi, s: complex, c: float) -> complex:
    """Vertical wavenumber sqrt(s^2/c^2 + |xi|^2), Re > 0.

    xi may be a scalar (2D section) or a length-2 vector (full 3D);
    only |xi| matters.
    """
    if s.real <= 0:
        raise ValueError("s must lie in the right half-plane")
    return principal_sqrt(s * s / (c * c) + _xi_norm2(xi))


def beta_grid(xi_abs: np.ndarray, s: complex, c: float) -> np.ndarray:
    """Vectorized beta over an array of |xi| values."""
    if s.real <= 0:
        raise ValueError("s must lie in the right half-plane")
    xi_abs = np.atleast_1d(np.asarray(xi_abs, dtype=float))
    return np.atleast_1d(principal_sqrt(s * s / (c * c) + xi_abs ** 2))


def dtn_symbol(xi, s: complex, c: float) -> complex:
    """Symbol of the exact transparent-boundary map: -beta(xi)."""
    return -beta(xi, s, c)


def pml_dtn_symbol(xi, s: complex, c: float, L_tilde: float) -> complex:
    """Symbol of the layer-truncated boundary map:
    -beta * coth(beta * L_tilde), evaluated through exp(-2*beta*L_tilde)
    only so it never overflows."""
    return _layer_symbol(beta(xi, s, c), L_tilde)


def _layer_symbol(b, L_tilde: float):
    """-b coth(b L_tilde) for Re b > 0, scalar or array."""
    if L_tilde <= 0:
        raise ValueError("L_tilde must be positive")
    q = np.exp(-2.0 * b * L_tilde)
    den = 1.0 - q
    # |1 - q| >= 1 - exp(-2*Re(beta)*L_tilde) > 0 for Re(beta) > 0
    if np.any(np.abs(den) < 1e-14):
        raise ArithmeticError("degenerate layer symbol denominator")
    return -b * (1.0 + q) / den


def dtn_symbol_grid(xi_abs, s: complex, c: float,
                    L_tilde: float | None = None) -> np.ndarray:
    """Boundary symbol on an array of |xi| values: the exact -beta, or
    with L_tilde the layer-truncated symbol of pml_dtn_symbol."""
    b = beta_grid(xi_abs, s, c)
    return -b if L_tilde is None else _layer_symbol(b, L_tilde)


def symbol_gap(xi, s: complex, c: float, L_tilde: float) -> float:
    """|exact symbol - layer symbol| = |beta| * |1 - coth(beta*L_tilde)|."""
    b = beta(xi, s, c)
    q = np.exp(-2.0 * b * L_tilde)
    return abs(b) * abs(2.0 * q / (1.0 - q))


def cu_bound(s: complex, c: float, L_bar: float) -> float:
    """Operator-norm envelope for the boundary-map gap:
    max{1, |s|/c} * 2 e^{-2 L_bar / c} / (1 - e^{-2 L_bar / c})."""
    if L_bar <= 0:
        raise ValueError("L_bar must be positive")
    q = np.exp(-2.0 * L_bar / c)
    return max(1.0, abs(s) / c) * 2.0 * q / (1.0 - q)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

@dataclass
class SymbolAudit:
    """Per-mode records of the weighted symbol gap against its bound."""

    s: complex
    c: float
    L_tilde: float
    L_bar: float
    bound: float
    xi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta_vals: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))
    gap: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def passed(self) -> bool:
        return bool(np.all(self.gap <= self.bound * (1.0 + 1e-10)))

    @property
    def max_gap(self) -> float:
        return float(self.gap.max()) if self.gap.size else 0.0


def weighted_gap(xi_abs, s: complex, c: float, L_tilde: float):
    """Per-mode quantity whose supremum over xi bounds the operator norm
    of the boundary-map gap between the +1/2 and -1/2 trace spaces:

        (|s|^2/c^2 + xi^2)^(1/2) * (1 + xi^2)^(-1/2) * |1 - coth(beta L~)|
    """
    xi_abs = np.asarray(xi_abs, dtype=float)
    s2 = abs(s) ** 2 / c ** 2
    b = beta_grid(xi_abs, s, c)
    q = np.exp(-2.0 * b * L_tilde)
    coth_gap = np.abs(2.0 * q / (1.0 - q))
    w = np.sqrt((s2 + xi_abs ** 2) / (1.0 + xi_abs ** 2))
    out = np.atleast_1d(w * coth_gap)
    return out if xi_abs.ndim else float(out[0])


def default_xi_grid(s: complex, c: float, n: int = 401) -> np.ndarray:
    """|xi| grid for audits: 0 plus log-spaced values up to
    100*max(1, |s|/c)."""
    top = 100.0 * max(1.0, abs(s) / c)
    grid = np.concatenate([[0.0], np.geomspace(1e-3 * top, top, n - 1)])
    return grid


def symbol_gap_sup(s: complex, c: float, pml: PmlProfile,
                   xi_grid: np.ndarray) -> SymbolAudit:
    """Evaluate the weighted gap over a grid of |xi| values and compare
    with the closed-form envelope."""
    xi_grid = np.asarray(xi_grid, dtype=float)
    if xi_grid.size == 0:
        raise ValueError("xi grid must be nonempty")
    Lt, Lb = pml.L_tilde, pml.L_bar
    gaps = weighted_gap(xi_grid, s, c, Lt)
    betas = beta_grid(xi_grid, s, c)
    return SymbolAudit(s=s, c=c, L_tilde=Lt, L_bar=Lb,
                       bound=cu_bound(s, c, Lb),
                       xi=xi_grid, beta_vals=betas, gap=np.atleast_1d(gaps))


def modal_passivity_check(s: complex, c: float, xi_grid: np.ndarray):
    """Check Re(beta/s) >= 0 per mode and report the empirical constant
    of the modal norm bound |beta| <= C |s| (1+xi^2)^(1/2).

    Returns (pass_array, empirical_C).
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    b = beta_grid(xi_grid, s, c)
    passive = (b / s).real >= -1e-14
    c_emp = float(np.max(np.abs(b) / (abs(s) * np.sqrt(1.0 + xi_grid ** 2))))
    return passive, c_emp


# ---------------------------------------------------------------------------
# boundary traces
# ---------------------------------------------------------------------------

@dataclass
class BoundaryTrace:
    """Fourier-side representation of a periodic function on the plane
    x3 = h: coefficients for modes xi_n = 2*pi*n/period, |n| <= N.

    Coefficient order is n = -N..N.
    """

    period: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.size % 2 != 1:
            raise ValueError("coefficient array must have odd length 2N+1")

    @property
    def n_max(self) -> int:
        return (self.coeffs.size - 1) // 2

    def xi_values(self) -> np.ndarray:
        n = np.arange(-self.n_max, self.n_max + 1)
        return 2.0 * np.pi * n / self.period


def apply_dtn(trace: BoundaryTrace, s: complex, c: float,
              variant: str = "exact",
              L_tilde: float | None = None) -> BoundaryTrace:
    """Apply the modal boundary map (exact or layer-truncated) to a
    trace: coefficientwise multiplication by the symbol."""
    if variant not in ("exact", "pml"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "pml" and L_tilde is None:
        raise ValueError("pml variant needs L_tilde")
    sym = dtn_symbol_grid(trace.xi_values(), s, c,
                          L_tilde if variant == "pml" else None)
    return BoundaryTrace(trace.period, sym * trace.coeffs)


def trace_sobolev_norm(trace: BoundaryTrace, order: float) -> float:
    """Discrete fractional trace norm:
    ( sum_n (1+xi_n^2)^order |phi_n|^2 * 2*pi/period )^(1/2)."""
    xi = trace.xi_values()
    w = (1.0 + xi ** 2) ** order
    return float(np.sqrt(np.sum(w * np.abs(trace.coeffs) ** 2)
                         * 2.0 * np.pi / trace.period))
