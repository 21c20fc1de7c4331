"""Parameters, geometry, layer profile and source construction."""

import numpy as np
import pytest
from scipy.integrate import quad

from pmlstrip import (Geometry, GeometryError, MediaParams, OutOfLayerError,
                      PmlProfile, Pulse, Rectangle, SourceSpec,
                      SurfaceProfile, check_source, laplace_numeric, SampledSignal, sigma_profile,
                      stretched_coordinate, validate_media)


class TestMedia:
    def test_defaults_admissible(self):
        assert validate_media(MediaParams()) == []

    @pytest.mark.parametrize("kwargs,flag", [
        ({"c": -1.0}, "c>0"),
        ({"rho0": 0.0}, "rho0>0"),
        ({"rho_e": -2.0}, "rho_e>0"),
        ({"mu": -0.1}, "mu>=0"),
        ({"lam": -1.0, "mu": 0.5}, "3*lam+2*mu>=0"),
    ])
    def test_violations_reported(self, kwargs, flag):
        assert flag in validate_media(MediaParams(**kwargs))


class TestPmlProfile:
    def test_thickness_oracles(self):
        pml = PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0)
        assert pml.L_tilde == pytest.approx(2.0)
        assert pml.L_bar == pytest.approx(1.0)

    def test_general_thickness(self):
        pml = PmlProfile(sigma0=3.0, m=2, L=0.5, s1=0.25)
        assert pml.L_tilde == pytest.approx((1.0 + 3.0 / (0.25 * 3)) * 0.5)
        assert pml.L_bar == pytest.approx(3.0 * 0.5 / 3)

    @pytest.mark.parametrize("kwargs", [
        {"sigma0": -1.0}, {"m": 0}, {"L": 0.0}, {"s1": 0.0}])
    def test_invalid_profiles(self, kwargs):
        with pytest.raises(ValueError):
            PmlProfile(**kwargs)

    def test_sigma_profile_values(self):
        pml = PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0)
        h = 0.5
        assert sigma_profile(0.2, pml, h) == pytest.approx(1.0)
        assert sigma_profile(h, pml, h) == pytest.approx(1.0)
        assert sigma_profile(h + 0.5, pml, h) == pytest.approx(2.0)
        assert sigma_profile(h + 1.0, pml, h) == pytest.approx(3.0)
        with pytest.raises(OutOfLayerError):
            sigma_profile(h + 1.5, pml, h)

    def test_stretched_coordinate_is_profile_integral(self):
        pml = PmlProfile(sigma0=3.0, m=2, L=0.8, s1=0.5)
        h = 0.3
        for x3 in (h + 0.1, h + 0.4, h + 0.8):
            ref, _ = quad(lambda z: sigma_profile(z, pml, h), 0.0, x3)
            assert stretched_coordinate(x3, pml, h) == pytest.approx(ref,
                                                                     rel=1e-9)

    def test_stretched_top_value(self):
        pml = PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0)
        h = 0.5
        # identity below h, h + L_tilde at the top
        assert stretched_coordinate(0.1, pml, h) == pytest.approx(0.1)
        assert stretched_coordinate(h + pml.L, pml, h) \
            == pytest.approx(h + pml.L_tilde)


class TestSurfaceAndGeometry:
    def test_flat_and_cosine(self):
        f = SurfaceProfile.flat(0.1)
        assert f(0.3) == pytest.approx(0.1)
        g = SurfaceProfile.cosine(0.1, 1.0, period=1.0)
        x = np.linspace(0.0, 1.0, 7)
        assert np.allclose(g(x), 0.1 * np.cos(2 * np.pi * x))
        assert g.f_minus == pytest.approx(-0.1)
        assert g.f_plus == pytest.approx(0.1)

    def test_from_samples_periodic(self):
        x = np.linspace(0.0, 1.0, 11)
        vals = 0.05 * np.sin(2 * np.pi * x)
        f = SurfaceProfile.from_samples(x, vals, 1.0)
        assert f(0.25) == pytest.approx(f(1.25))

    @pytest.mark.parametrize("surface", [
        SurfaceProfile.flat(0.07),
        SurfaceProfile.cosine(0.1, 10.0),
        SurfaceProfile.cosine(-0.1, 3.0, period=2.0),
        SurfaceProfile.from_samples(
            np.linspace(0.0, 1.0, 13, endpoint=False),
            0.05 * np.sin(2 * np.pi * np.linspace(0.0, 1.0, 13,
                                                  endpoint=False)) ** 3,
            1.0)])
    def test_max_over_is_exact(self, surface):
        # a crest or knot inside the interval counts; a dense sample,
        # plus the located peaks, never exceeds the returned maximum
        for a, b in [(0.422, 0.582), (-0.31, 0.04), (0.93, 1.37),
                     (0.2101, 0.2102)]:
            peak = surface.max_over(a, b)
            x = np.linspace(a, b, 20001)
            assert np.max(surface(x)) <= peak + 1e-15
            found = np.zeros(0) if surface.peaks is None \
                else surface.peaks(a, b)
            assert np.all((found >= a) & (found <= b))
            assert peak == pytest.approx(
                np.max(surface(np.concatenate((x, found)))), abs=1e-15)

    def test_max_over_crest_between_samples(self):
        # the crest of cosine:0.1,10 at x1 = 0.5 falls between the 41
        # samples of [0.422, 0.582]; the sampled maximum is 0.0992
        g = SurfaceProfile.cosine(0.1, 10.0)
        assert np.max(g(np.linspace(0.422, 0.582, 41))) < 0.0995
        assert g.max_over(0.422, 0.582) == pytest.approx(0.1, abs=1e-15)
        # file surface: a knot between the interval ends
        x1 = np.array([0.0, 0.25, 0.5, 0.75])
        f = SurfaceProfile.from_samples(x1, [0.0, 0.0, 0.08, 0.0], 1.0)
        assert f.max_over(0.3, 0.7) == 0.08
        assert f.max_over(1.3, 1.7) == 0.08
        assert f.max_over(0.55, 0.7) == pytest.approx(f(0.55))

    def test_max_over_without_peaks_is_global_bound(self):
        ramp = SurfaceProfile(lambda x: 0.1 * x, 0.0, 0.1)
        assert ramp.max_over(0.2, 0.3) == 0.1

    def test_rectangle(self):
        with pytest.raises(GeometryError):
            Rectangle(0.4, 0.4, 0.1, 0.2)
        sq = Rectangle(0.4, 0.6, 0.15, 0.35)
        assert sq.contains(0.5, 0.25)
        assert not sq.contains(0.7, 0.25)

    def test_geometry_validation(self):
        flat = SurfaceProfile.flat(0.0)
        with pytest.raises(GeometryError):
            Geometry(period=1.0, surface=SurfaceProfile.flat(0.6), h=0.5)
        with pytest.raises(GeometryError):
            Geometry(period=1.0, surface=flat, h=0.5,
                     obstacle=Rectangle(-0.1, 0.3, 0.1, 0.2))
        with pytest.raises(GeometryError):
            Geometry(period=1.0, surface=flat, h=0.5,
                     obstacle=Rectangle(0.3, 0.7, 0.1, 0.6))
        geom = Geometry(period=1.0, surface=flat, h=0.5,
                        obstacle=Rectangle(0.4, 0.6, 0.15, 0.35))
        assert geom.obstacle is not None


class TestPulse:
    def test_rest_start(self):
        p = Pulse()
        assert p(0.0) == 0.0
        assert p.derivative(0.0) == 0.0
        t = np.linspace(-1.0, 0.0, 5)
        assert np.all(p(t) == 0.0)

    def test_derivative_matches_fd(self):
        p = Pulse(a=2.0, omega0=5.0)
        t = np.linspace(0.05, 3.0, 40)
        eps = 1e-6
        fd = (p(t + eps) - p(t - eps)) / (2 * eps)
        assert np.allclose(p.derivative(t), fd, atol=1e-6)

    def test_zero_past_the_decay(self):
        # at a = 4, exp(-a t) underflows to 0 from t ~ 186, and a t^3
        # overflows from t ~ 3.5e102, where 0 * inf read nan
        p = Pulse()
        t = np.array([1.0, 150.0, 200.0, 5e102, 1e103, 1e300])
        with np.errstate(over="raise", invalid="raise"):
            w, dw = p(t), p.derivative(t)
        assert np.all(w[2:] == 0.0) and np.all(dw[2:] == 0.0)
        # the closed form where it is finite
        assert np.array_equal(w[:2], t[:2] ** 3 * np.exp(-4.0 * t[:2])
                              * np.sin(8.0 * t[:2]))

    def test_laplace_matches_quadrature(self):
        p = Pulse()
        sig = SampledSignal.sample(p, 10.0, 20000)
        for s in (1.0 + 0.0j, 2.0 + 5.0j, 0.5 + 12.0j):
            assert abs(laplace_numeric(sig, s) - p.laplace(s)) < 1e-10


class TestSource:
    def test_bump_support(self):
        spec = SourceSpec(center=(0.5, 0.25), radius=0.1, T=2.0)
        assert spec.spatial(0.5, 0.25) == pytest.approx(1.0)
        assert spec.spatial(0.61, 0.25) == 0.0
        assert spec.spatial(0.5, 0.25 + 0.1) == 0.0
        # smooth falloff inside
        assert 0.0 < spec.spatial(0.55, 0.25) < 1.0

    def test_check_source(self):
        flat = SurfaceProfile.flat(0.0)
        geom = Geometry(period=1.0, surface=flat, h=0.5,
                        obstacle=Rectangle(0.4, 0.6, 0.15, 0.35))
        good = SourceSpec(center=(0.2, 0.25), radius=0.05, T=2.0)
        check_source(good, geom)
        with pytest.raises(GeometryError):
            check_source(SourceSpec(center=(0.2, 0.03), radius=0.05, T=2.0),
                         geom)
        with pytest.raises(GeometryError):
            check_source(SourceSpec(center=(0.2, 0.47), radius=0.05, T=2.0),
                         geom)
        with pytest.raises(GeometryError):
            check_source(SourceSpec(center=(0.42, 0.25), radius=0.05,
                                    T=2.0), geom)

    def test_check_source_sees_crest_between_samples(self):
        # support bottom 0.0995 against the crest 0.1 at x1 = 0.5
        geom = Geometry(period=1.0, surface=SurfaceProfile.cosine(0.1, 10.0),
                        h=0.5)
        with pytest.raises(GeometryError, match="rough surface"):
            check_source(SourceSpec(center=(0.502, 0.1795), radius=0.08,
                                    T=2.0), geom)
        check_source(SourceSpec(center=(0.502, 0.1805), radius=0.08,
                                T=2.0), geom)
        knot = Geometry(period=1.0, surface=SurfaceProfile.from_samples(
            [0.0, 0.25, 0.5, 0.75], [0.0, 0.0, 0.08, 0.0], 1.0), h=0.5)
        with pytest.raises(GeometryError, match="rough surface"):
            check_source(SourceSpec(center=(0.45, 0.125), radius=0.05,
                                    T=2.0), knot)
        check_source(SourceSpec(center=(0.45, 0.135), radius=0.05,
                                T=2.0), knot)

    def test_check_source_sees_thin_inclusion_between_samples(self):
        # an inclusion 0.005 wide, 1.5e-3 from the source centre, fits
        # between the 21 x 21 samples (0.008 apart) once tested
        thin = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
                        obstacle=Rectangle(0.4, 0.405, 0.2, 0.4))
        with pytest.raises(GeometryError, match="obstacle"):
            check_source(SourceSpec(center=(0.3985, 0.3), radius=0.08,
                                    T=2.0), thin)
        # the ball's bounding square, not the ball: a ball 0.01 clear of
        # the inclusion's corner is refused, as the samples refused it;
        # a square that only touches the open inclusion is not
        block = Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
                         obstacle=Rectangle(0.4, 0.6, 0.15, 0.35))
        with pytest.raises(GeometryError, match="obstacle"):
            check_source(SourceSpec(center=(0.35, 0.1), radius=0.06,
                                    T=2.0), block)
        check_source(SourceSpec(center=(0.3, 0.25), radius=0.1, T=2.0),
                     block)
