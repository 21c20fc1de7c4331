"""Modal boundary-map calculus: branch choice, symbols, gap envelope."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmlstrip import (BoundaryTrace, BranchError, PmlProfile, apply_dtn,
                      beta, beta_grid, cu_bound, default_xi_grid,
                      dtn_symbol, dtn_symbol_grid, pml_dtn_symbol,
                      principal_sqrt, symbol_gap, symbol_gap_sup,
                      trace_sobolev_norm, weighted_gap)

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
        assert beta(0.0, 1.0 + 0.0j, 1.0) == pytest.approx(1.0)
        # s = i limit avoided; s = 1+1i, xi = 0: sqrt(2i) = 1+i
        assert beta(0.0, 1.0 + 1.0j, 1.0) == pytest.approx(1.0 + 1.0j)

    def test_vector_xi(self):
        s = 2.0 + 3.0j
        assert beta(np.array([3.0, 4.0]), s, 1.0) \
            == pytest.approx(principal_sqrt(s * s + 25.0))

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            beta(1.0, -1.0 + 2.0j, 1.0)

    @given(st.floats(0.01, 100.0), st.floats(-100.0, 100.0),
           st.floats(0.0, 1000.0), st.floats(0.1, 10.0))
    @settings(max_examples=200)
    def test_positive_real_part_sweep(self, s1, s2, xi, c):
        b = beta(xi, complex(s1, s2), c)
        assert b.real > 0

    def test_grid_matches_scalar(self):
        s, c = 1.5 + 7.0j, 2.0
        xi = np.array([0.0, 0.3, 10.0])
        g = beta_grid(xi, s, c)
        for k, x in enumerate(xi):
            assert g[k] == pytest.approx(beta(x, s, c))


class TestSymbols:
    def test_exact_symbol(self):
        assert dtn_symbol(0.0, 1.0 + 0.0j, 1.0) == pytest.approx(-1.0)

    def test_layer_symbol_oracle(self):
        # beta = 1, L_tilde = 1: -coth(1)
        val = pml_dtn_symbol(0.0, 1.0 + 0.0j, 1.0, 1.0)
        assert val == pytest.approx(-COTH1, rel=1e-12)

    def test_layer_symbol_converges_to_exact(self):
        s, c = 1.0 + 2.0j, 1.0
        for xi in (0.0, 1.0, 5.0):
            exact = dtn_symbol(xi, s, c)
            gaps = [abs(pml_dtn_symbol(xi, s, c, Lt) - exact)
                    for Lt in (1.0, 2.0, 4.0, 8.0)]
            assert np.all(np.diff(gaps) < 0)
            assert gaps[-1] < 1e-6

    def test_no_overflow_large_beta(self):
        # beta*L_tilde huge: coth -> 1 without overflow
        val = pml_dtn_symbol(1e4, 1.0 + 0.0j, 1.0, 10.0)
        assert val == pytest.approx(dtn_symbol(1e4, 1.0 + 0.0j, 1.0))

    def test_grid_matches_scalar_symbols(self):
        xi = 2.0 * np.pi * np.arange(-6, 7)
        for s in (1.0 + 0.0j, 0.3 + 9.0j, 2.0 - 4.0j):
            assert dtn_symbol_grid(xi, s, 1.5) == pytest.approx(
                [dtn_symbol(x, s, 1.5) for x in xi], rel=1e-14)
            assert dtn_symbol_grid(xi, s, 1.5, 0.7) == pytest.approx(
                [pml_dtn_symbol(x, s, 1.5, 0.7) for x in xi], rel=1e-14)

    def test_degenerate_layer_denominator(self):
        # beta * L_tilde ~ 1e-15: 1 - exp(-2 beta L_tilde) is below 1e-14
        with pytest.raises(ArithmeticError):
            pml_dtn_symbol(0.0, 1e-15 + 0.0j, 1.0, 1.0)
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
        b = beta(xi, s, 1.0)
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
            g = weighted_gap(xi, s, 1.0, pml.L_tilde)
            assert np.all(g <= cu_bound(s, 1.0, pml.L_bar) * (1 + 1e-10))


class TestAudits:
    def test_symbol_gap_sup(self):
        s = 1.0 + 5.0j
        pml = PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0)
        audit = symbol_gap_sup(s, 1.0, pml, default_xi_grid(s, 1.0))
        assert audit.passed
        assert 0.0 < audit.gap.max() <= audit.bound
        # one profile for several s: one row of modes per s
        grid = symbol_gap_sup(np.array([s, 0.5 - 2.0j]), 1.0, pml,
                              default_xi_grid(s, 1.0))
        assert grid.gap.shape == (2, 401) and grid.bound.shape == (2, 1)
        assert grid.passed and np.array_equal(grid.gap[0], audit.gap)

    def test_empty_grid_rejected(self):
        pml = PmlProfile()
        with pytest.raises(ValueError):
            symbol_gap_sup(1.0 + 0.0j, 1.0, pml, np.zeros(0))

    def test_modal_passivity(self):
        s = 1.0 + 10.0j
        xi = default_xi_grid(s, 1.0)
        audit = symbol_gap_sup(s, 1.0, PmlProfile(), xi)
        assert np.all(audit.passive)
        # empirical constant of |beta| <= C |s| (1 + xi^2)^(1/2)
        c_emp = np.max(np.abs(audit.beta_vals)
                       / (abs(s) * np.sqrt(1.0 + xi ** 2)))
        assert c_emp <= 1.0 + 1e-12


class TestBoundaryTraces:
    def test_trace_construction(self):
        with pytest.raises(ValueError):
            BoundaryTrace(1.0, np.ones(4))
        tr = BoundaryTrace(1.0, np.array([0.0, 1.0, 0.0]))
        assert tr.n_max == 1
        assert tr.xi_values() == pytest.approx(
            2 * np.pi * np.array([-1.0, 0.0, 1.0]))

    def test_apply_dtn_constant_mode(self):
        tr = BoundaryTrace(1.0, np.array([0.0, 1.0, 0.0]))
        out = apply_dtn(tr, 1.0 + 0.0j, 1.0, "exact")
        assert out.coeffs[1] == pytest.approx(-1.0)
        out_pml = apply_dtn(tr, 1.0 + 0.0j, 1.0, "pml", L_tilde=1.0)
        assert out_pml.coeffs[1] == pytest.approx(-COTH1)
        with pytest.raises(ValueError):
            apply_dtn(tr, 1.0 + 0.0j, 1.0, "pml")
        with pytest.raises(ValueError):
            apply_dtn(tr, 1.0 + 0.0j, 1.0, "nope")

    def test_operator_norm_bound(self):
        # ||B phi||_{-1/2} <= max(1, |s|/c) ||phi||_{+1/2}
        rng = np.random.default_rng(3)
        for s in (1.0 + 0.0j, 0.5 + 8.0j, 2.0 - 3.0j):
            for _ in range(20):
                coeffs = rng.normal(size=21) + 1j * rng.normal(size=21)
                tr = BoundaryTrace(1.0, coeffs)
                out = apply_dtn(tr, s, 1.0, "exact")
                lhs = trace_sobolev_norm(out, -0.5)
                rhs = max(1.0, abs(s)) * trace_sobolev_norm(tr, 0.5)
                assert lhs <= rhs * (1.0 + 1e-12)

    def test_trace_norm_scaling(self):
        tr = BoundaryTrace(1.0, np.array([0.0, 2.0, 0.0]))
        assert trace_sobolev_norm(tr, 0.5) \
            == pytest.approx(2.0 * np.sqrt(2 * np.pi))
