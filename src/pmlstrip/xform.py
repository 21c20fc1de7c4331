"""Laplace-transform utilities on sampled signals.

Fixed-grid trapezoid quadrature throughout (bit-reproducible for
identical grids), sharpened by Euler-Maclaurin endpoint corrections so
the transforms stay accurate for strongly oscillatory e^{-i s2 t}
factors, and by a closed-form contour-tail estimate where a truncated
s2 integral would otherwise dominate the error.  Sums along s = s1 + i*s2
are chirp-z transforms over uniform s2 and t grids (Rabiner et al. 1969).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np


class TruncationWarning(UserWarning):
    """The sampled horizon or contour truncates a slowly decaying tail."""


def _uniform_step(x: np.ndarray) -> float:
    """Step of a uniform 1-D grid (0 for a single point)."""
    if x.ndim != 1 or x.size == 0:
        raise ValueError("grid must be non-empty and 1-D")
    step = (x[-1] - x[0]) / max(x.size - 1, 1)
    if not np.allclose(np.diff(x), step, rtol=1e-8, atol=0.0):
        raise ValueError("grid must be uniform")
    return float(step)


@dataclass
class SampledSignal:
    """Uniformly sampled signal starting at t = 0."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values)
        if self.t.size < 4 or self.t[0] != 0.0 or _uniform_step(self.t) <= 0:
            raise ValueError("grid must start at t = 0 and increase, with "
                             ">= 4 samples")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @staticmethod
    def sample(func: Callable, T: float, n: int) -> "SampledSignal":
        t = np.linspace(0.0, T, n + 1)
        return SampledSignal(t, np.asarray(func(t)))


_D1 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0   # O(dt^4) slope
_D3 = np.array([-5.0, 18.0, -24.0, 14.0, -3.0]) / 2.0     # O(dt^2) f'''
# Euler-Maclaurin terms - dt^2/12 (f'(b) - f'(a)) + dt^4/720 (f'''(b) -
# f'''(a)) by those stencils, as unit-step weights on the end samples
_EC = _D1 / 12.0 - _D3 / 720.0


def _rule_weights(n: int, end_corrected: bool) -> np.ndarray:
    """Unit-step trapezoid weights on n samples, with the end correction
    on the first and last five when end_corrected: keeps the rule sharp
    for strongly oscillatory transforms without analytic derivatives."""
    w = np.ones(n)
    w[[0, -1]] = 0.5
    if end_corrected:
        w[:5] += _EC
        w[-1:-6:-1] += _EC
    return w


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n: the FFT length SciPy's
    next_fast_len picks for complex input."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _chirp_quad(fw: np.ndarray, x: np.ndarray, y: np.ndarray,
                sign: float) -> np.ndarray:
    """dx sum_n fw[..., n] e^{sign i x[n] y[k]} over uniform grids x
    (quadrature weights already in fw, leading axes batched) and y.

    With x = x0 + n dx, y = y0 + k dy and a = dx dy, x y = x0 y +
    n dx y0 + a (n^2 + k^2 - (k - n)^2) / 2: one FFT convolution with the
    chirp e^{-i sign a j^2/2} (Bluestein), not the N x M kernel."""
    dx, dy = _uniform_step(x), _uniform_step(y)
    n, m = x.size, y.size
    # a j^2/2 runs to many turns: reducing it modulo one turn in long
    # double keeps round-off at the direct kernel's eps |x y| (x86-64)
    turns = np.arange(max(n, m), dtype=np.longdouble) ** 2 \
        * (sign * dx * dy / (4.0 * np.pi))
    chirp = np.exp(-2j * np.pi * (turns - np.round(turns)).astype(float))
    size = _next_fast_len(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m], kernel[size - n + 1:] = chirp[:m], chirp[n - 1:0:-1]
    pre = np.exp(sign * 1j * dx * y[0] * np.arange(n)) * np.conj(chirp[:n])
    spec = np.fft.fft(fw * pre, size) * np.fft.fft(kernel)
    conv = np.fft.ifft(spec)[..., :m]
    return dx * conv * np.conj(chirp[:m]) * np.exp(sign * 1j * x[0] * y)


def laplace_numeric(sig: SampledSignal, s: complex) -> complex:
    """Approximate int_0^inf e^{-s t} u(t) dt on the sampled horizon."""
    s = complex(s)
    if s.real <= 0:
        raise ValueError("s must lie in the right half-plane")
    integrand = np.exp(-s * sig.t) * sig.values
    return complex(sig.dt * (integrand @ _rule_weights(sig.t.size, True)))


def laplace_grid(sig: SampledSignal, s1: float,
                 s2: np.ndarray) -> np.ndarray:
    """Transform along the vertical line s = s1 + i*s2 for a uniform
    s2 grid: the end-corrected rule of laplace_numeric, its weights
    folded into the samples, as one chirp-z sum over all s2."""
    if s1 <= 0:
        raise ValueError("s1 must be positive")
    fw = np.exp(-s1 * sig.t) * sig.values * _rule_weights(sig.t.size, True)
    return _chirp_quad(fw, sig.t, np.asarray(s2, dtype=float), -1.0)


def inverse_laplace_grid(vals: np.ndarray, s1: float, s2: np.ndarray,
                         t: np.ndarray) -> np.ndarray:
    """Synthesize u(t) = (e^{s1 t}/pi) Re int_0^inf vals(s2) e^{i s2 t}
    ds2 from the nonnegative half of a conjugate-symmetric line (the
    transform of a real signal): trapezoid on a uniform s2 grid starting
    at 0 (last axis of vals; leading axes batched), one chirp-z sum over
    a uniform t grid.  Equals the full-line trapezoid (e^{s1 t}/2pi) Re
    int over the mirrored grid."""
    s2 = np.asarray(s2, dtype=float)
    if s2.ndim != 1 or s2.size == 0 or s2[0] != 0.0:
        raise ValueError("the s2 grid must be 1-D and start at 0")
    t = np.asarray(t, dtype=float)
    return np.exp(s1 * t) / np.pi * np.real(_chirp_quad(
        vals * _rule_weights(s2.size, False), s2, t, 1.0))


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running integral from 0 of samples y (n >= 3) at spacing dx, as
    SciPy's cumulative_simpson(y, dx=dx, initial=0.0): interval
    k takes the Simpson parabola through samples k..k+2 when k is even
    and k-1..k+1 when k is odd; the last one always the parabola
    through the last three samples."""
    def panel(a, b, c):     # int over [a, b] of the parabola on a, b, c
        return dx / 3 * (5 * a / 4 + 2 * b - c / 4)

    left = panel(y[:-2], y[1:-1], y[2:])
    right = panel(y[2:], y[1:-1], y[:-2])
    parts = np.empty(y.size - 1)
    parts[:-1:2], parts[1::2], parts[-1] = left[::2], right[::2], right[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


# the antiderivative rule's contour, the nonnegative half of an
# RULE_N_FREQ-point line up to RULE_S2_MAX, and its window [0, RULE_T_MAX]
# (which bounds the e^{s1 t} amplification of contour noise in the
# synthesized antiderivative)
RULE_S2_MAX = 400.0
RULE_N_FREQ = 12001
RULE_T_MAX = 3.0


def transform_property_check(u: Callable, du: Callable, d2u: Callable,
                             s: complex, T: float = 40.0, n: int = 20000):
    """Residuals of the derivative and antiderivative transform rules.

    Returns (r1, r2, r3):
      r1 = |L(u')  - (s L(u) - u(0))|
      r2 = |L(u'') - (s^2 L(u) - s u(0) - u'(0))|
      r3 = max over t in [0, RULE_T_MAX] of
           |int_0^t u - Linv(s^-1 L(u))(t)|
    """
    sig = SampledSignal.sample(u, T, n)
    Lu = laplace_numeric(sig, s)
    Lu1 = laplace_numeric(SampledSignal.sample(du, T, n), s)
    Lu2 = laplace_numeric(SampledSignal.sample(d2u, T, n), s)
    u0 = complex(np.asarray(u(np.array(0.0))))
    du0 = complex(np.asarray(du(np.array(0.0))))
    r1 = abs(Lu1 - (s * Lu - u0))
    r2 = abs(Lu2 - (s * s * Lu - s * u0 - du0))

    # antiderivative rule: running integral vs contour synthesis of
    # s^-1 * L(u)
    s1 = s.real
    s2 = np.linspace(0.0, RULE_S2_MAX, (RULE_N_FREQ - 1) // 2 + 1)
    vals = laplace_grid(sig, s1, s2) / (s1 + 1j * s2)
    window = sig.t <= min(RULE_T_MAX, sig.t[-1])
    stride = max(1, int(window.sum()) // 50)
    t_out = sig.t[window][::stride]
    running = _cumulative_simpson(np.real(sig.values),
                                  sig.dt)[window][::stride]
    synth = inverse_laplace_grid(vals, s1, s2, t_out)
    r3 = float(np.max(np.abs(np.real(running) - synth)))
    return r1, r2, r3


def parseval_residual(u: SampledSignal, s1: float,
                      s2_max: float = 400.0, n_freq: int = 8001) -> float:
    """|LHS - RHS| of the Plancherel identity

        (1/2pi) int |L(u)|^2 ds2 = int_0^inf e^{-2 s1 t} |u|^2 dt.

    The truncated part of the contour is accounted for by the leading
    asymptotic term |u(0)|^2 / |s|^2 of the integrand.
    """
    if s1 <= 0:
        raise ValueError("s1 must be positive")
    s2 = np.linspace(-s2_max, s2_max, n_freq)
    Lu = laplace_grid(u, s1, s2)
    lhs = np.trapezoid(Lu * np.conj(Lu), s2) / (2.0 * np.pi)
    u0 = complex(np.asarray(u.values[0]))
    tail = (u0 * np.conj(u0) / (np.pi * s1)) \
        * (np.pi / 2.0 - np.arctan(s2_max / s1))
    if abs(tail) > 0.1 * abs(lhs) and abs(lhs) > 0:
        warnings.warn("contour truncation dominates the Parseval check",
                      TruncationWarning, stacklevel=2)
    lhs = lhs + tail
    rhs = u.dt * (np.exp(-2.0 * s1 * u.t) * u.values * np.conj(u.values)) \
        @ _rule_weights(u.t.size, True)
    return float(abs(lhs - rhs))
