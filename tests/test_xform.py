"""Laplace-transform quadrature, inversion and the Plancherel identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmlstrip import (Pulse, SampledSignal, inverse_laplace_grid,
                      laplace_grid, laplace_numeric, parseval_residual,
                      transform_property_check)
from pmlstrip.xform import _cumulative_simpson, _next_fast_len

D1 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
D3 = np.array([-5.0, 18.0, -24.0, 14.0, -3.0]) / 2.0


def direct_laplace_grid(sig, s1, s2):
    """The full len(s2) x len(t) kernel, trapezoid row by row plus
    - dt^2/12 (f'(b) - f'(a)) + dt^4/720 (f'''(b) - f'''(a)) from
    one-sided stencils on the five head and tail samples."""
    f = np.exp(-(s1 + 1j * s2[:, None]) * sig.t[None, :]) * sig.values
    dt = sig.dt
    head, tail = f[:, :5], f[:, -1:-6:-1]
    fp_a, fp_b = head @ D1 / dt, -(tail @ D1) / dt
    f3_a, f3_b = head @ D3 / dt ** 3, -(tail @ D3) / dt ** 3
    return np.trapezoid(f, dx=dt, axis=-1) \
        - dt ** 2 / 12.0 * (fp_b - fp_a) + dt ** 4 / 720.0 * (f3_b - f3_a)


def looped_inverse(vals, s1, s2, t):
    """One trapezoid sum over s2 per output time, e^{s1 t}/pi Re trapz:
    the half-line inversion on s2 >= 0, or twice the full-line one on a
    symmetric grid."""
    out = np.empty(vals.shape[:-1] + t.shape)
    for k, tk in enumerate(t):
        out[..., k] = np.exp(s1 * tk) / np.pi * np.real(
            np.trapezoid(vals * np.exp(1j * s2 * tk), s2, axis=-1))
    return out


class TestSampledSignal:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            SampledSignal(np.array([0.5, 1.0, 1.5, 2.0]), np.zeros(4))
        with pytest.raises(ValueError):
            SampledSignal(np.array([0.0, 1.0, 1.5, 3.0]), np.zeros(4))

    def test_sample(self):
        sig = SampledSignal.sample(np.exp, 2.0, 100)
        assert sig.t.size == 101
        assert sig.dt == pytest.approx(0.02)
        assert sig.values[-1] == pytest.approx(np.exp(2.0))


class TestLaplaceNumeric:
    def test_exponential_oracle(self):
        sig = SampledSignal.sample(lambda t: np.exp(-t), 40.0, 20000)
        for s in (1.0 + 0.0j, 0.5 + 3.0j, 2.0 - 7.0j):
            assert abs(laplace_numeric(sig, s) - 1.0 / (s + 1.0)) < 1e-9

    def test_rejects_left_half_plane(self):
        sig = SampledSignal.sample(lambda t: np.exp(-t), 5.0, 100)
        with pytest.raises(ValueError):
            laplace_numeric(sig, -1.0 + 2.0j)

    def test_grid_matches_pointwise(self):
        sig = SampledSignal.sample(lambda t: np.exp(-t) * np.cos(3 * t),
                                   30.0, 6000)
        s2 = np.linspace(-10.0, 10.0, 11)
        vals = laplace_grid(sig, 1.0, s2)
        ref = np.array([laplace_numeric(sig, complex(1.0, w)) for w in s2])
        assert np.max(np.abs(vals - ref)) < 1e-12


class TestChirpZ:
    SIG = SampledSignal.sample(lambda t: np.exp(-t) * np.cos(3 * t)
                               + t * np.exp(-0.3 * t), 12.0, 600)

    @pytest.mark.parametrize("s2", [
        np.linspace(-10.0, 10.0, 41),       # odd, symmetric
        np.linspace(-10.0, 10.0, 40),       # even
        np.linspace(-3.0, 25.0, 57),        # asymmetric start
        np.array([2.5]),                    # single frequency
    ])
    def test_forward_matches_direct_kernel(self, s2):
        vals = laplace_grid(self.SIG, 0.7, s2)
        ref = direct_laplace_grid(self.SIG, 0.7, s2)
        assert vals.shape == s2.shape
        assert np.max(np.abs(vals - ref)) < 1e-12

    def test_inverse_matches_time_loop(self):
        p = Pulse()
        t = np.linspace(0.35, 2.5, 44)       # nonzero first time
        for s1, s2_max, n_half in ((1.0, 90.0, 1201), (0.8, 30.0, 151)):
            half = np.linspace(0.0, s2_max, n_half)
            full = np.concatenate([-half[:0:-1], half])
            sf = s1 + 1j * full
            vals_full = np.stack([p.laplace(sf), p.laplace(sf) / sf,
                                  1.0 / (sf + 1.0) ** 2])
            vals = vals_full[:, n_half - 1:]
            recon = inverse_laplace_grid(vals, s1, half, t)
            assert recon.shape == (3, t.size)
            assert np.max(np.abs(
                recon - looped_inverse(vals, s1, half, t))) < 1e-12
            # conjugate-symmetric data: the full-line trapezoid gives the
            # same signal
            assert np.max(np.abs(recon - 0.5 * looped_inverse(
                vals_full, s1, full, t))) < 1e-12
            assert np.max(np.abs(recon[0] - inverse_laplace_grid(
                vals[0], s1, half, t))) == 0.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is plain double here")
    def test_round_off_on_long_contour(self):
        # the 6001 nonnegative frequencies of a 12001-point line against
        # 51 times: the chirp phase runs to ~1e5 radians, yet the sum
        # keeps the direct kernel's round-off
        s2 = np.linspace(0.0, 400.0, 6001)
        vals = 1.0 / (2.0 + 1j * s2)        # L(e^{-t}) at s = 1 + i s2
        t = np.linspace(0.0, 3.0, 51)
        recon = inverse_laplace_grid(vals, 1.0, s2, t)
        assert np.max(np.abs(recon - looped_inverse(vals, 1.0, s2, t))) \
            < 1e-12

    def test_rejects_nonuniform_grids(self):
        s2 = np.linspace(0.0, 5.0, 11)
        bent = s2 + 1e-3 * s2 ** 2
        with pytest.raises(ValueError):
            laplace_grid(self.SIG, 1.0, bent)
        t = np.linspace(0.0, 2.0, 9)
        vals = np.ones(s2.size, dtype=complex)
        with pytest.raises(ValueError):
            inverse_laplace_grid(vals, 1.0, bent, t)
        with pytest.raises(ValueError):
            inverse_laplace_grid(vals, 1.0, s2, t ** 2)
        # the inversion reads the nonnegative half line from s2 = 0
        for shifted in (s2 - 2.5, s2 + 0.5):
            with pytest.raises(ValueError, match="start at 0"):
                inverse_laplace_grid(vals, 1.0, shifted, t)


class TestScipyEquivalents:
    """The local stand-ins for scipy helpers return scipy's values."""

    def test_next_fast_len(self):
        from scipy.fft import next_fast_len
        # past the chirp sizes of contour_synthesize and of the default
        # parseval (24,001) and transform_property_check (26,001) runs
        for n in range(1, 32_768):
            assert _next_fast_len(n) == next_fast_len(n), n

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 4001])
    def test_cumulative_simpson_bitwise(self, n):
        from scipy.integrate import cumulative_simpson
        y = np.random.default_rng(n).standard_normal(n)
        dx = 0.0137
        assert np.array_equal(_cumulative_simpson(y, dx),
                              cumulative_simpson(y, dx=dx, initial=0.0))


# random uniform s2 grids: odd, even and single-point, with any start
s2_grids = st.builds(lambda start, step, n: start + step * np.arange(n),
                     st.floats(-30.0, 30.0), st.floats(0.05, 2.0),
                     st.integers(1, 41))
abscissas = st.floats(0.1, 3.0)


class TestLaplaceGridProperties:
    SIG = TestChirpZ.SIG
    OTHER = SampledSignal(SIG.t, np.exp(-0.5 * SIG.t) * np.sin(5 * SIG.t))

    @settings(max_examples=50, deadline=None)
    @given(s1=abscissas, s2=s2_grids, a=st.floats(-3.0, 3.0),
           b=st.floats(-3.0, 3.0))
    @example(s1=0.7, s2=np.array([2.5]), a=1.0, b=-1.0)
    def test_linear(self, s1, s2, a, b):
        mix = SampledSignal(self.SIG.t, a * self.SIG.values
                            + b * self.OTHER.values)
        lhs = laplace_grid(mix, s1, s2)
        rhs = a * laplace_grid(self.SIG, s1, s2) \
            + b * laplace_grid(self.OTHER, s1, s2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(s1=abscissas, s2=s2_grids)
    @example(s1=0.7, s2=np.linspace(-10.0, 10.0, 40))
    def test_conjugate_symmetric(self, s1, s2):
        # F(s1 - i s2) = conj F(s1 + i s2) for a real signal
        vals = laplace_grid(self.SIG, s1, s2)
        mirrored = laplace_grid(self.SIG, s1, -s2[::-1])[::-1]
        assert np.max(np.abs(mirrored - np.conj(vals))) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(s1=abscissas, s2=s2_grids)
    def test_matches_direct_kernel(self, s1, s2):
        ref = direct_laplace_grid(self.SIG, s1, s2)
        assert np.max(np.abs(laplace_grid(self.SIG, s1, s2) - ref)) < 1e-12


class TestInversion:
    def test_pulse_round_trip(self):
        p = Pulse()
        s1 = 1.0
        s2 = np.linspace(0.0, 200.0, 2001)
        vals = p.laplace(s1 + 1j * s2)
        t = np.linspace(0.0, 3.0, 31)
        recon = inverse_laplace_grid(vals, s1, s2, t)
        assert np.max(np.abs(recon - p(t))) < 1e-5


class TestTransformRules:
    def test_exponential_sine(self):
        u = lambda t: np.exp(-t) * np.sin(2 * t)          # noqa: E731
        du = lambda t: np.exp(-t) * (2 * np.cos(2 * t)    # noqa: E731
                                     - np.sin(2 * t))
        d2u = lambda t: np.exp(-t) * (-4 * np.cos(2 * t)  # noqa: E731
                                      - 3 * np.sin(2 * t))
        r1, r2, r3 = transform_property_check(u, du, d2u, 1.0 + 3.0j)
        assert r1 <= 1e-6
        assert r2 <= 1e-6
        assert r3 <= 1e-6

    def test_nonzero_initial_slope(self):
        # u(0) = 0, u'(0) = 1 exercises the initial-value term of the
        # second-derivative rule
        u = lambda t: t * np.exp(-t)                      # noqa: E731
        du = lambda t: (1 - t) * np.exp(-t)               # noqa: E731
        d2u = lambda t: (t - 2) * np.exp(-t)              # noqa: E731
        r1, r2, r3 = transform_property_check(u, du, d2u, 2.0 + 1.0j)
        assert max(r1, r2, r3) <= 1e-6


class TestParseval:
    def test_exponential_pair_quarter(self):
        # int_0^inf e^{-2t} e^{-t} e^{-t} dt = 1/4 exactly
        sig = SampledSignal.sample(lambda t: np.exp(-t), 40.0, 16000)
        res = parseval_residual(sig, 1.0)
        assert res <= 1e-6
        rhs = np.trapezoid(np.exp(-2 * sig.t) * sig.values ** 2, sig.t)
        assert rhs == pytest.approx(0.25, abs=1e-5)

    def test_pulse_relative(self):
        p = Pulse()
        sig = SampledSignal.sample(p, 8.0, 8000)
        ref = float(np.trapezoid(np.exp(-2 * sig.t) * sig.values ** 2,
                                 sig.t))
        res = parseval_residual(sig, 1.0)
        assert res / ref <= 1e-5

    def test_rejects_bad_abscissa(self):
        sig = SampledSignal.sample(lambda t: np.exp(-t), 5.0, 100)
        with pytest.raises(ValueError):
            parseval_residual(sig, 0.0)
