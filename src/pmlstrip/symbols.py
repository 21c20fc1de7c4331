"""Modal calculus on the transparent boundary.

Everything here works per Fourier mode xi on the plane x3 = h.  The
vertical wavenumber ``beta = sqrt(s^2/c^2 + |xi|^2)`` (positive real
part) determines both the exact boundary symbol ``-beta`` and the
layer-truncated symbol ``-beta * coth(beta * L_tilde)``; their gap is
controlled by the closed-form envelope :func:`cu_bound`.  Every symbol,
gap and audit is one broadcast evaluation over s and |xi|.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def beta_grid(xi_abs, s, c: float):
    """Vertical wavenumber sqrt(s^2/c^2 + |xi|^2), Re > 0, broadcast over
    |xi| and s (a Python complex for 0-d input)."""
    s = np.asarray(s, dtype=complex)
    if np.any(s.real <= 0):
        raise ValueError("s must lie in the right half-plane")
    # s^2/c^2 by parts, as Python rounds it (NumPy's complex multiply may
    # fuse a multiply-add, its division multiplies by a reciprocal)
    sr, si = s.real, s.imag
    k2 = (sr * sr - si * si) / (c * c) + 1j * ((sr * si + si * sr) / (c * c))
    return principal_sqrt(k2 + np.asarray(xi_abs, dtype=float) ** 2)


def beta(xi, s: complex, c: float) -> complex:
    """beta at one mode; xi is |xi| (2D section) or a length-2 vector
    (full 3D), of which only the norm matters."""
    return beta_grid(np.linalg.norm(xi), s, c)


# |1 - q| below this makes the layer symbol's denominator degenerate
DEGENERATE_DENOMINATOR = 1e-14


def layer_denominator_floor(s1, c: float, L_tilde):
    """Lower bound 1 - exp(-2 s1 L~ / c) of the layer symbol's
    denominator |1 - q| = |1 - exp(-2 beta L~)| over every mode of every
    s with Re s = s1, since Re beta >= s1 / c."""
    return -np.expm1(-2.0 * s1 * L_tilde / c)


def _layer_modes(xi_abs, s, c: float, L_tilde):
    """beta, -beta * coth(beta L~), |1 - coth(beta L~)| = |2q / (1 - q)|
    and the weighted gap per mode, broadcast over |xi|, s and L~ = L_tilde;
    all through q = exp(-2 beta L~), so nothing overflows."""
    if np.any(np.asarray(L_tilde) <= 0):
        raise ValueError("L_tilde must be positive")
    b = beta_grid(xi_abs, s, c)
    q = np.exp(-2.0 * b * L_tilde)
    den = 1.0 - q
    # |1 - q| >= layer_denominator_floor(Re s, c, L_tilde) > 0
    if np.any(np.abs(den) < DEGENERATE_DENOMINATOR):
        raise ArithmeticError("degenerate layer symbol denominator")
    coth_gap = np.abs(2.0 * q / den)
    s2 = np.hypot(np.real(s), np.imag(s)) ** 2 / c ** 2
    xi2 = np.asarray(xi_abs, dtype=float) ** 2
    return b, -b * (1.0 + q) / den, coth_gap, \
        np.sqrt((s2 + xi2) / (1.0 + xi2)) * coth_gap


def dtn_symbol_grid(xi_abs, s, c: float, L_tilde=None):
    """Boundary symbol over |xi| (and s): the exact -beta, or with
    L_tilde the layer-truncated -beta * coth(beta * L_tilde)."""
    if L_tilde is None:
        return -beta_grid(xi_abs, s, c)
    return _layer_modes(xi_abs, s, c, L_tilde)[1]


def dtn_symbol(xi, s: complex, c: float) -> complex:
    """Symbol of the exact transparent-boundary map: -beta(xi)."""
    return dtn_symbol_grid(np.linalg.norm(xi), s, c)


def pml_dtn_symbol(xi, s: complex, c: float, L_tilde: float) -> complex:
    """Symbol of the layer-truncated boundary map at one mode."""
    return dtn_symbol_grid(np.linalg.norm(xi), s, c, L_tilde)


def symbol_gap(xi, s: complex, c: float, L_tilde: float) -> float:
    """|exact symbol - layer symbol| = |beta| * |1 - coth(beta*L_tilde)|."""
    b, _, coth_gap, _ = _layer_modes(np.linalg.norm(xi), s, c, L_tilde)
    return float(abs(b) * coth_gap)


def weighted_gap(xi_abs, s, c: float, L_tilde):
    """Per-mode quantity whose supremum over xi bounds the operator norm
    of the boundary-map gap between the +1/2 and -1/2 trace spaces:

        (|s|^2/c^2 + xi^2)^(1/2) * (1 + xi^2)^(-1/2) * |1 - coth(beta L~)|
    """
    return _layer_modes(xi_abs, s, c, L_tilde)[3]


def cu_bound(s, c: float, L_bar):
    """Operator-norm envelope for the boundary-map gap, broadcast over s
    and L_bar: max{1, |s|/c} * 2 e^{-2 L_bar / c} / (1 - e^{-2 L_bar / c})."""
    if np.any(np.asarray(L_bar) <= 0):
        raise ValueError("L_bar must be positive")
    q = np.exp(-2.0 * L_bar / c)
    return np.maximum(1.0, np.hypot(np.real(s), np.imag(s)) / c) \
        * 2.0 * q / (1.0 - q)


def default_xi_grid(s: complex, c: float, n: int = 401) -> np.ndarray:
    """|xi| grid for audits: 0 plus log-spaced values up to
    100*max(1, |s|/c)."""
    top = 100.0 * max(1.0, np.hypot(s.real, s.imag) / c)
    return np.concatenate([[0.0], np.geomspace(1e-3 * top, top, n - 1)])


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

@dataclass
class SymbolAudit:
    """Per-mode beta, weighted gap and passivity, with the envelope per s
    (a trailing length-1 axis, so it broadcasts against the modes)."""

    beta_vals: np.ndarray
    gap: np.ndarray
    bound: np.ndarray
    passive: np.ndarray         # Re(beta/s) >= 0 up to round-off

    @property
    def ok(self) -> np.ndarray:
        """Per mode: passive, with the gap within its envelope."""
        return (self.gap <= self.bound * (1.0 + 1e-10)) & self.passive

    @property
    def passed(self) -> bool:
        return bool(np.all(self.ok))


def symbol_gap_sup(s, c: float, pml, xi_grid) -> SymbolAudit:
    """Weighted gap against the envelope, and modal passivity, in one
    broadcast: s is one value or a 1-D array, pml one profile or one per
    s, xi_grid one |xi| grid or, for an array of s, one row per s.

    One s with a list of profiles audits every profile at once: beta and
    passivity, which do not depend on the layer, are computed once, with
    shape (n_xi,), while gap, bound and ok gain a leading profile axis."""
    if np.size(xi_grid) == 0:
        raise ValueError("xi grid must be nonempty")
    s = np.asarray(s, dtype=complex)[..., None]
    if isinstance(pml, PmlProfile):
        Lt, Lb = pml.L_tilde, pml.L_bar
    else:       # one profile per s
        Lt, Lb = np.array([(p.L_tilde, p.L_bar) for p in pml]).T[:, :, None]
    b, _, _, gap = _layer_modes(xi_grid, s, c, Lt)
    return SymbolAudit(beta_vals=b, gap=gap, bound=cu_bound(s, c, Lb),
                       passive=(b / s).real >= -1e-14)


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
