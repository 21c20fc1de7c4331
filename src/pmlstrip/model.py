"""Physical parameters, strip geometry, PML profile and source construction.

The computational domain is a strip that is periodic in the lateral
coordinate x1 (period ``Lambda``), bounded below by a rough surface
``x3 = f(x1)`` and truncated above either at ``x3 = h`` (transparent
boundary) or at ``x3 = h + L`` (absorbing layer of thickness ``L``).
A rectangular elastic inclusion may sit strictly inside the fluid part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class OutOfLayerError(ValueError):
    """Raised when a coordinate lies above the absorbing layer."""


class GeometryError(ValueError):
    """Raised for inconsistent geometric configurations."""


# ---------------------------------------------------------------------------
# media
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediaParams:
    """Constant material parameters of the fluid and the elastic body.

    c: sound speed in the fluid, rho0: fluid density, rho_e: solid
    density, lam/mu: Lame constants.
    """

    c: float = 1.0
    rho0: float = 1.0
    rho_e: float = 1.0
    lam: float = 1.0
    mu: float = 1.0


def validate_media(p: MediaParams) -> list[str]:
    """Return the list of violated admissibility constraints (empty = ok)."""
    violations = []
    if not p.c > 0:
        violations.append("c>0")
    if not p.rho0 > 0:
        violations.append("rho0>0")
    if not p.rho_e > 0:
        violations.append("rho_e>0")
    if p.mu < 0:
        violations.append("mu>=0")
    if 3.0 * p.lam + 2.0 * p.mu < 0:
        violations.append("3*lam+2*mu>=0")
    return violations


# ---------------------------------------------------------------------------
# absorbing-layer profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PmlProfile:
    """Absorbing-layer description.

    sigma0: layer strength, m: polynomial grading exponent, L: layer
    thickness, s1: the fixed real abscissa used in the stretching.
    """

    sigma0: float = 2.0
    m: int = 1
    L: float = 1.0
    s1: float = 1.0

    def __post_init__(self):
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be >= 0")
        if self.m < 1:
            raise ValueError("m must be an integer >= 1")
        if self.L <= 0:
            raise ValueError("L must be > 0")
        if self.s1 <= 0:
            raise ValueError("s1 must be > 0")

    @property
    def L_tilde(self) -> float:
        """Stretched layer thickness (1 + sigma0/(s1*(m+1))) * L."""
        return (1.0 + self.sigma0 / (self.s1 * (self.m + 1))) * self.L

    @property
    def L_bar(self) -> float:
        """Absorption thickness sigma0*L/(m+1)."""
        return self.sigma0 * self.L / (self.m + 1)


def _layer_ramp(x3, pml: PmlProfile, h: float):
    """x3 as an array, and clip((x3 - h)/L, 0, 1); above h + L raises."""
    x3 = np.asarray(x3, dtype=float)
    if np.any(x3 > h + pml.L + 1e-12 * max(1.0, abs(h) + pml.L)):
        raise OutOfLayerError("x3 above the top of the absorbing layer")
    return x3, np.clip((x3 - h) / pml.L, 0.0, 1.0)


def sigma_profile(x3, pml: PmlProfile, h: float):
    """Damping profile: 1 below h, polynomially graded inside the layer.

    Accepts scalars or arrays.  Values above h + L are rejected.
    """
    _, ramp = _layer_ramp(x3, pml, h)
    out = 1.0 + pml.sigma0 / pml.s1 * ramp ** pml.m
    return out if out.ndim else float(out)


def stretched_coordinate(x3, pml: PmlProfile, h: float):
    """Stretched vertical coordinate: identity below h, integral of the
    profile inside the layer (closed form)."""
    x3, ramp = _layer_ramp(x3, pml, h)
    out = x3 + pml.sigma0 / pml.s1 * pml.L / (pml.m + 1) * ramp ** (pml.m + 1)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# surface profiles and geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceProfile:
    """Periodic bottom profile x3 = f(x1) with known bounds.

    peaks(a, b), when given, returns every x1 in [a, b] where f can have
    an interior maximum, so that max_over is exact; without it max_over
    is the bound f_plus, exact for a flat profile.
    """

    func: Callable[[np.ndarray], np.ndarray]
    f_minus: float
    f_plus: float
    peaks: Callable[[float, float], np.ndarray] | None = None

    def __call__(self, x1):
        return self.func(np.asarray(x1, dtype=float))

    def max_over(self, a: float, b: float) -> float:
        """max f over [a, b]: f at both ends and at the interior peaks;
        the global bound f_plus for a profile without a peak locator."""
        if self.peaks is None:
            return self.f_plus
        return float(np.max(self(np.concatenate(([a, b], self.peaks(a, b))))))

    @staticmethod
    def flat(level: float = 0.0) -> "SurfaceProfile":
        return SurfaceProfile(lambda x: np.full_like(x, level, dtype=float),
                              level, level)

    @staticmethod
    def cosine(amplitude: float, frequency: float,
               period: float = 1.0) -> "SurfaceProfile":
        """f(x1) = amplitude*cos(2*pi*frequency*x1/period)."""
        k = 2.0 * math.pi * frequency / period

        def crests(a, b):
            # cos(k x) = sign(amplitude) at x = (n + shift) * wavelength
            if k == 0.0:
                return np.zeros(0)
            wavelength = 2.0 * math.pi / abs(k)
            shift = 0.0 if amplitude > 0 else 0.5
            return (np.arange(math.ceil(a / wavelength - shift),
                              math.floor(b / wavelength - shift) + 1)
                    + shift) * wavelength

        return SurfaceProfile(lambda x: amplitude * np.cos(k * x),
                              -abs(amplitude), abs(amplitude), crests)

    @staticmethod
    def from_samples(x1: np.ndarray, values: np.ndarray,
                     period: float) -> "SurfaceProfile":
        """Periodic cubic-free (linear) interpolation of sampled heights."""
        x1 = np.asarray(x1, dtype=float)
        values = np.asarray(values, dtype=float)

        def f(x):
            return np.interp(np.mod(x, period), x1, values,
                             period=period)

        def knots(a, b):
            # a piecewise-linear profile peaks only at its knots
            shifts = period * np.arange(math.floor(a / period) - 1,
                                        math.floor(b / period) + 2)
            x = (np.mod(x1, period)[None, :] + shifts[:, None]).ravel()
            return x[(x >= a) & (x <= b)]

        return SurfaceProfile(f, float(values.min()), float(values.max()),
                              knots)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangular elastic inclusion [x1a, x1b] x [x3a, x3b]."""

    x1a: float
    x1b: float
    x3a: float
    x3b: float

    def __post_init__(self):
        if not (self.x1a < self.x1b and self.x3a < self.x3b):
            raise GeometryError("degenerate obstacle rectangle")

    def contains(self, x1, x3):
        return ((x1 > self.x1a) & (x1 < self.x1b)
                & (x3 > self.x3a) & (x3 < self.x3b))


@dataclass(frozen=True)
class Geometry:
    """Lateral period, bottom profile, truncation height and inclusion."""

    period: float
    surface: SurfaceProfile
    h: float
    obstacle: Rectangle | None = None

    def __post_init__(self):
        if self.period <= 0:
            raise GeometryError("period must be positive")
        if abs(self.surface(0.0) - self.surface(self.period)) > 1e-12:
            raise GeometryError("surface profile is not periodic")
        if self.surface.f_plus >= self.h:
            raise GeometryError("surface reaches the truncation plane "
                                "(f_plus >= h)")
        if self.obstacle is not None:
            ob = self.obstacle
            if not (0.0 < ob.x1a and ob.x1b < self.period):
                raise GeometryError("obstacle must lie strictly inside one "
                                    "period")
            if not (self.surface.f_plus < ob.x3a and ob.x3b < self.h):
                raise GeometryError("obstacle must lie strictly between the "
                                    "surface and the truncation plane")


# ---------------------------------------------------------------------------
# source
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pulse:
    """Temporal profile w(t) = t^3 * exp(-a t) * sin(omega0 t).

    The cubic ramp makes w, w' and w'' vanish identically at t = 0.  Past
    the decay, where exp(-a t) underflows to 0, w and w' read 0 (t^3 may
    overflow there, and 0 * inf is nan).
    """

    a: float = 4.0
    omega0: float = 8.0

    def _decaying(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):    # -a t = -inf: e = 0
            e = np.exp(-self.a * t)
        return e, np.where(e > 0, t, 0.0)

    def __call__(self, t):
        e, t = self._decaying(t)
        out = np.where(t > 0, t ** 3 * e * np.sin(self.omega0 * t), 0.0)
        return out if out.ndim else float(out)

    def derivative(self, t):
        e, t = self._decaying(t)
        w = np.sin(self.omega0 * t)
        dw = self.omega0 * np.cos(self.omega0 * t)
        out = np.where(t > 0,
                       e * (3 * t ** 2 * w - self.a * t ** 3 * w
                            + t ** 3 * dw), 0.0)
        return out if out.ndim else float(out)

    def laplace_denominators(self, s):
        """(s + a - i omega0)^4 and (s + a + i omega0)^4."""
        s = np.asarray(s, dtype=complex) + self.a
        return (s - 1j * self.omega0) ** 4, (s + 1j * self.omega0) ** 4

    def laplace(self, s):
        """Closed-form Laplace transform, valid for complex s with
        Re(s) > -a."""
        lo, hi = self.laplace_denominators(s)
        out = (6.0 / lo - 6.0 / hi) / 2j
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class SourceSpec:
    """Separable source g(x, t) = bump(x) * w(t)."""

    center: tuple[float, float]
    radius: float
    T: float
    pulse: Pulse = field(default_factory=Pulse)

    def spatial(self, x1, x3):
        """Compactly supported C-infinity bump, 1 at the center and 0 on
        and outside the ball boundary."""
        x1 = np.asarray(x1, dtype=float)
        x3 = np.asarray(x3, dtype=float)
        r2 = ((x1 - self.center[0]) ** 2 + (x3 - self.center[1]) ** 2) \
            / self.radius ** 2
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(r2 < 1.0,
                           np.exp(1.0 - 1.0 / np.maximum(1.0 - r2, 1e-300)),
                           0.0)
        return out if out.ndim else float(out)


def check_source(spec: SourceSpec, geom: Geometry) -> None:
    """Verify the support ball lies in the fluid strip, clear of the
    boundaries, and that its bounding square misses the open inclusion
    (two interval overlaps, so no inclusion is too thin to be seen)."""
    cx, cz = spec.center
    r = spec.radius
    if cz - r <= geom.surface.max_over(cx - r, cx + r):
        raise GeometryError("source support touches the rough surface")
    if cz + r >= geom.h:
        raise GeometryError("source support touches the truncation plane")
    ob = geom.obstacle
    if ob is not None and cx - r < ob.x1b and ob.x1a < cx + r \
            and cz - r < ob.x3b and ob.x3a < cz + r:
        raise GeometryError("source support intersects the obstacle")
