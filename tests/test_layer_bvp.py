"""Per-mode layer boundary value problem: analytic vs finite differences."""

import numpy as np
import pytest

from pmlstrip import (LayerMode, OutOfLayerError, PmlProfile,
                      analytic_layer_solution, fd_layer_solve,
                      dtn_symbol_grid, numeric_dtn_at_h)


def default_mode(**kwargs):
    params = dict(xi=0.0, s=1.0 + 0.0j, c=1.0,
                  pml=PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0))
    params.update(kwargs)
    return LayerMode(**params)


class TestAnalytic:
    def test_boundary_values(self):
        mode = default_mode(s=1.0 + 3.0j)
        assert analytic_layer_solution(mode, 0.0) == pytest.approx(1.0)
        assert abs(analytic_layer_solution(mode, mode.pml.L)) < 1e-14

    def test_midpoint_oracle(self):
        # sigma0=2, m=1, s1=1, L=1: L_tilde=2, stretched midpoint 0.75,
        # value sinh(1.25)/sinh(2) = 0.44168...
        mode = default_mode()
        val = analytic_layer_solution(mode, 0.5)
        assert val == pytest.approx(np.sinh(1.25) / np.sinh(2.0), rel=1e-12)
        assert abs(val - 0.44168) < 1e-5

    def test_out_of_layer(self):
        with pytest.raises(OutOfLayerError):
            analytic_layer_solution(default_mode(), 1.5)

    def test_complex_mode_stable(self):
        mode = default_mode(xi=6.0, s=0.5 + 30.0j)
        vals = analytic_layer_solution(mode, np.linspace(0.0, 1.0, 11))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9


class TestFiniteDifference:
    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            fd_layer_solve(default_mode(), 4)

    @pytest.mark.parametrize("mode", [
        default_mode(),
        default_mode(xi=2 * np.pi),
        default_mode(s=1.0 + 4.0j, xi=1.0),
        default_mode(pml=PmlProfile(sigma0=4.0, m=2, L=0.5, s1=0.5)),
    ])
    def test_second_order_convergence(self, mode):
        errs = []
        for n in (32, 64, 128, 256):
            sol = fd_layer_solve(mode, n)
            exact = analytic_layer_solution(mode, sol.x3)
            errs.append(float(np.max(np.abs(sol.values - exact))))
        order = -np.polyfit(np.log([32, 64, 128, 256]), np.log(errs), 1)[0]
        assert 1.8 <= order <= 2.2

    def test_dtn_extraction(self):
        mode = default_mode(xi=1.0, s=1.0 + 2.0j)
        target = dtn_symbol_grid(mode.xi, mode.s, mode.c, mode.pml.L_tilde)
        errs = []
        for n in (64, 128, 256, 512):
            errs.append(abs(numeric_dtn_at_h(fd_layer_solve(mode, n))
                            - target))
        order = -np.polyfit(np.log([64, 128, 256, 512]), np.log(errs), 1)[0]
        assert 1.7 <= order <= 2.3
        assert errs[-1] < 1e-4
