"""Modal boundary-map calculus: branch choice, symbols, gap envelope."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmlstrip import (BranchError, PmlProfile, beta_grid, cu_bound,
                      default_xi_grid, dtn_symbol_grid, principal_sqrt,
                      symbol_gap_sup)

from oracles import symbol_gap

COTH1 = 1.0 / np.tanh(1.0)


class TestPrincipalSqrt:
    def test_oracle_values(self):
        assert principal_sqrt(2j) == pytest.approx(1.0 + 1.0j)
        assert principal_sqrt(4.0) == pytest.approx(2.0)
        assert principal_sqrt(-2j) == pytest.approx(1.0 - 1.0j)

    def test_rejects_branch_cut(self):
        for z in (-1.0, 0.0, -4.0 + 0.0j):
            with pytest.raises(BranchError):
                principal_sqrt(z)

    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False))
    @example(complex(-1.0, 5e-324))
    def test_positive_real_part(self, z):
        if z.real <= 0 and z.imag == 0:
            return
        w = principal_sqrt(z)
        assert w.real > 0
        assert w * w == pytest.approx(z, rel=1e-9)


class TestBeta:
    def test_oracle(self):
        assert beta_grid(0.0, 1.0 + 0.0j, 1.0) == pytest.approx(1.0)
        # s = i limit avoided; s = 1+1i, xi = 0: sqrt(2i) = 1+i
        assert beta_grid(0.0, 1.0 + 1.0j, 1.0) == pytest.approx(1.0 + 1.0j)

    def test_vector_xi(self):
        s = 2.0 + 3.0j
        # a 3D mode xi = (3, 4) enters through |xi| = 5
        assert beta_grid(np.linalg.norm([3.0, 4.0]), s, 1.0) \
            == pytest.approx(principal_sqrt(s * s + 25.0))

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            beta_grid(1.0, -1.0 + 2.0j, 1.0)

    @given(st.floats(0.01, 100.0), st.floats(-100.0, 100.0),
           st.floats(0.0, 1000.0), st.floats(0.1, 10.0))
    @settings(max_examples=200)
    def test_positive_real_part_sweep(self, s1, s2, xi, c):
        b = beta_grid(xi, complex(s1, s2), c)
        assert b.real > 0

    def test_grid_matches_scalar(self):
        s, c = 1.5 + 7.0j, 2.0
        xi = np.array([0.0, 0.3, 10.0])
        g = beta_grid(xi, s, c)
        for k, x in enumerate(xi):
            assert g[k] == pytest.approx(beta_grid(x, s, c))


class TestSymbols:
    def test_exact_symbol(self):
        assert dtn_symbol_grid(0.0, 1.0 + 0.0j, 1.0) == pytest.approx(-1.0)

    def test_layer_symbol_oracle(self):
        # beta = 1, L_tilde = 1: -coth(1)
        val = dtn_symbol_grid(0.0, 1.0 + 0.0j, 1.0, 1.0)
        assert val == pytest.approx(-COTH1, rel=1e-12)

    def test_layer_symbol_converges_to_exact(self):
        s, c = 1.0 + 2.0j, 1.0
        for xi in (0.0, 1.0, 5.0):
            exact = dtn_symbol_grid(xi, s, c)
            gaps = [abs(dtn_symbol_grid(xi, s, c, Lt) - exact)
                    for Lt in (1.0, 2.0, 4.0, 8.0)]
            assert np.all(np.diff(gaps) < 0)
            assert gaps[-1] < 1e-6

    def test_no_overflow_large_beta(self):
        # beta*L_tilde huge: coth -> 1 without overflow
        val = dtn_symbol_grid(1e4, 1.0 + 0.0j, 1.0, 10.0)
        assert val == pytest.approx(dtn_symbol_grid(1e4, 1.0 + 0.0j, 1.0))

    def test_grid_matches_scalar_symbols(self):
        xi = 2.0 * np.pi * np.arange(-6, 7)
        for s in (1.0 + 0.0j, 0.3 + 9.0j, 2.0 - 4.0j):
            assert dtn_symbol_grid(xi, s, 1.5) == pytest.approx(
                [dtn_symbol_grid(x, s, 1.5) for x in xi], rel=1e-14)
            assert dtn_symbol_grid(xi, s, 1.5, 0.7) == pytest.approx(
                [dtn_symbol_grid(x, s, 1.5, 0.7) for x in xi], rel=1e-14)

    def test_degenerate_layer_denominator(self):
        # beta * L_tilde ~ 1e-15: 1 - exp(-2 beta L_tilde) is below 1e-14
        with pytest.raises(ArithmeticError):
            dtn_symbol_grid(0.0, 1e-15 + 0.0j, 1.0, 1.0)
        with pytest.raises(ArithmeticError):
            dtn_symbol_grid(np.array([1.0, 0.0]), 1e-15 + 0.0j, 1.0, 1.0)
        with pytest.raises(ValueError):
            dtn_symbol_grid(np.array([0.0]), 1.0 + 0.0j, 1.0, 0.0)

    def test_gap_equals_bound_at_origin(self):
        # xi = 0, s = 1, c = 1, L_bar = L_tilde = 1: both equal
        # 2 e^{-2} / (1 - e^{-2})
        expected = 2.0 * np.exp(-2.0) / (1.0 - np.exp(-2.0))
        assert symbol_gap(0.0, 1.0 + 0.0j, 1.0, 1.0) \
            == pytest.approx(expected, rel=1e-12)
        assert cu_bound(1.0 + 0.0j, 1.0, 1.0) \
            == pytest.approx(expected, rel=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(-20.0, 20.0),
           st.floats(0.0, 20.0))
    @settings(max_examples=100)
    def test_gap_below_decreasing_envelope(self, s1, s2, xi):
        # the raw gap oscillates through the |1 - q| denominator; the
        # certified envelope 2|beta| |q| / (1 - |q|) decreases strictly
        s = complex(s1, s2)
        b = beta_grid(xi, s, 1.0)
        envelopes = []
        for Lt in (0.5, 1.0, 2.0, 4.0):
            qa = np.exp(-2.0 * b.real * Lt)
            env = 2.0 * abs(b) * qa / (1.0 - qa)
            assert symbol_gap(xi, s, 1.0, Lt) <= env * (1.0 + 1e-12)
            envelopes.append(env)
        assert np.all(np.diff(envelopes) < 0)

    def test_weighted_gap_below_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = complex(rng.uniform(0.05, 5.0), rng.uniform(-50.0, 50.0))
            pml = PmlProfile(sigma0=rng.uniform(0.5, 4.0), m=1,
                             L=rng.uniform(0.3, 2.0), s1=s.real)
            xi = default_xi_grid(s, 1.0, 101)
            g = symbol_gap_sup(s, 1.0, [pml], xi).gap
            assert np.all(g <= cu_bound(s, 1.0, pml.L_bar) * (1 + 1e-10))


class TestAudits:
    def test_symbol_gap_sup(self):
        s = 1.0 + 5.0j
        pml = PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0)
        audit = symbol_gap_sup(s, 1.0, [pml], default_xi_grid(s, 1.0))
        assert audit.passed
        assert 0.0 < audit.gap.max() <= audit.bound[0, 0]
        # several profiles: beta once, one row of gaps per profile
        thin = PmlProfile(sigma0=2.0, m=1, L=0.5, s1=1.0)
        both = symbol_gap_sup(s, 1.0, [pml, thin], default_xi_grid(s, 1.0))
        assert both.gap.shape == (2, 401) and both.bound.shape == (2, 1)
        assert both.beta_vals.shape == (401,)
        assert both.passed and np.array_equal(both.gap[0], audit.gap[0])

    def test_empty_grid_rejected(self):
        pml = PmlProfile()
        with pytest.raises(ValueError):
            symbol_gap_sup(1.0 + 0.0j, 1.0, [pml], np.zeros(0))

    def test_modal_passivity(self):
        s = 1.0 + 10.0j
        xi = default_xi_grid(s, 1.0)
        audit = symbol_gap_sup(s, 1.0, [PmlProfile()], xi)
        assert np.all(audit.passive)
        # empirical constant of |beta| <= C |s| (1 + xi^2)^(1/2)
        c_emp = np.max(np.abs(audit.beta_vals)
                       / (abs(s) * np.sqrt(1.0 + xi ** 2)))
        assert c_emp <= 1.0 + 1e-12


def _trace_norm(xi, coeffs, order):
    """Discrete fractional trace norm of a 1-periodic trace:
    ( sum_n (1+xi_n^2)^order |phi_n|^2 * 2*pi )^(1/2)."""
    return np.sqrt(np.sum((1.0 + xi ** 2) ** order * np.abs(coeffs) ** 2)
                   * 2.0 * np.pi)


class TestBoundaryTraces:
    def test_operator_norm_bound(self):
        # ||B phi||_{-1/2} <= max(1, |s|/c) ||phi||_{+1/2}
        rng = np.random.default_rng(3)
        xi = 2.0 * np.pi * np.arange(-10, 11)
        for s in (1.0 + 0.0j, 0.5 + 8.0j, 2.0 - 3.0j):
            sym = dtn_symbol_grid(xi, s, 1.0)
            for _ in range(20):
                coeffs = rng.normal(size=21) + 1j * rng.normal(size=21)
                lhs = _trace_norm(xi, sym * coeffs, -0.5)
                rhs = max(1.0, abs(s)) * _trace_norm(xi, coeffs, 0.5)
                assert lhs <= rhs * (1.0 + 1e-12)
