"""Command line harness: configs, subcommands, CSV and manifest output."""

import csv
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import pmlstrip.cli
import pmlstrip.fem
import pmlstrip.symbols
from pmlstrip import ConfigError, PmlProfile, assemble, build_blocks, \
    build_mesh, h_norm_sq, load_config, nodal_to_dofs, solve_frequency, \
    source_l2_norm, stability_ratios
from pmlstrip.cli import (FitError, PlotError, emit_plots, fit_rate, main,
                          write_csv, write_field)
from pmlstrip.symbols import default_xi_grid, principal_sqrt, \
    symbol_gap_sup


BASE_CONFIG = """\
[geom]
period = 1.0
h = 0.5
surface = flat
obstacle = 0.4,0.15; 0.6,0.15; 0.6,0.35; 0.4,0.35

[pml]
sigma0 = 2.0
m = 1
L = 0.4

[source]
center = 0.2,0.25
radius = 0.06
T = 1.0

[numerics]
mesh_size = 0.08
n_modes = 16
n_steps = 40
s1 = 1.0
"""


def reference_fmt(v) -> str:
    """One CSV cell as the value-by-value writer formatted it."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def reference_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        for row in rows:
            w.writerow([reference_fmt(v) for v in row])


def reference_write_field(path, values):
    values = np.atleast_2d(values.T).T
    with open(path, "w") as fh:
        for i in range(values.shape[0]):
            parts = [str(i)]
            for comp in range(values.shape[1]):
                v = complex(values[i, comp])
                parts += [f"{v.real:.12g}", f"{v.imag:.12g}"]
            fh.write(" ".join(parts) + "\n")


# The per-s symbol audit as the package evaluated it before the one
# broadcast call: the reference the grid audit reproduces bit for bit.

def reference_default_xi_grid(s, c, n=401):
    top = 100.0 * max(1.0, abs(s) / c)
    grid = np.concatenate([[0.0], np.geomspace(1e-3 * top, top, n - 1)])
    return grid


def reference_beta_grid(xi_abs, s, c):
    """Vectorized beta over an array of |xi| values."""
    if s.real <= 0:
        raise ValueError("s must lie in the right half-plane")
    xi_abs = np.atleast_1d(np.asarray(xi_abs, dtype=float))
    return np.atleast_1d(principal_sqrt(s * s / (c * c) + xi_abs ** 2))


def reference_weighted_gap(xi_abs, s, c, L_tilde):
    xi_abs = np.asarray(xi_abs, dtype=float)
    s2 = abs(s) ** 2 / c ** 2
    b = reference_beta_grid(xi_abs, s, c)
    q = np.exp(-2.0 * b * L_tilde)
    coth_gap = np.abs(2.0 * q / (1.0 - q))
    w = np.sqrt((s2 + xi_abs ** 2) / (1.0 + xi_abs ** 2))
    out = np.atleast_1d(w * coth_gap)
    return out if xi_abs.ndim else float(out[0])


def reference_cu_bound(s, c, L_bar):
    if L_bar <= 0:
        raise ValueError("L_bar must be positive")
    q = np.exp(-2.0 * L_bar / c)
    return max(1.0, abs(s) / c) * 2.0 * q / (1.0 - q)


def reference_symbol_gap_sup(s, c, pml, xi_grid, cu_bound=reference_cu_bound):
    """(beta, gap, bound) of one s."""
    xi_grid = np.asarray(xi_grid, dtype=float)
    if xi_grid.size == 0:
        raise ValueError("xi grid must be nonempty")
    Lt, Lb = pml.L_tilde, pml.L_bar
    gaps = reference_weighted_gap(xi_grid, s, c, Lt)
    betas = reference_beta_grid(xi_grid, s, c)
    return betas, np.atleast_1d(gaps), cu_bound(s, c, Lb)


def reference_modal_passivity_check(s, c, xi_grid):
    xi_grid = np.asarray(xi_grid, dtype=float)
    b = reference_beta_grid(xi_grid, s, c)
    passive = (b / s).real >= -1e-14
    c_emp = float(np.max(np.abs(b) / (abs(s) * np.sqrt(1.0 + xi_grid ** 2))))
    return passive, c_emp


def reference_audit_rows(cfg, sigma0, L, cu_bound=reference_cu_bound):
    """One audit file's rows, built mode by mode."""
    a, c = cfg.audit, cfg.media.c
    rows = []
    for s1 in a["s1_values"]:
        pml = PmlProfile(sigma0=sigma0, m=a["m"], L=L, s1=s1)
        for s2 in a["s2_grid"]:
            s = complex(s1, s2)
            xi = reference_default_xi_grid(s, c, a["xi_points"])
            betas, gaps, bound = reference_symbol_gap_sup(s, c, pml, xi,
                                                          cu_bound)
            passive, _ = reference_modal_passivity_check(s, c, xi)
            ok_row = gaps <= bound * (1.0 + 1e-10)
            for k in range(xi.size):
                rows.append((s1, s2, xi[k], betas[k].real, betas[k].imag,
                             gaps[k], bound, bool(ok_row[k] and passive[k])))
    return rows


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestConfig:
    def test_load_and_digest(self, config_path):
        cfg = load_config(config_path)
        assert cfg.media.c == 1.0
        assert cfg.geometry.obstacle is not None
        assert cfg.pml.s1 == 1.0
        assert len(cfg.digest) == 64
        assert cfg.numerics["route"] == "freq"
        # digest is stable
        assert load_config(config_path).digest == cfg.digest

    def test_default_abscissa_from_horizon(self, tmp_path):
        path = tmp_path / "d.ini"
        path.write_text(BASE_CONFIG.replace("s1 = 1.0\n", ""))
        cfg = load_config(str(path))
        assert cfg.pml.s1 == pytest.approx(1.0)   # 1/T with T = 1
        assert cfg.numerics["s2_max"] == pytest.approx(40.0)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    @pytest.mark.parametrize("patch", [
        ("surface = flat", "surface = spline:1,2"),
        ("obstacle = 0.4,0.15; 0.6,0.15; 0.6,0.35; 0.4,0.35",
         "obstacle = 0.4,0.15; 0.6,0.2; 0.6,0.35; 0.4,0.35"),
        ("center = 0.2,0.25", "center = 0.2,0.49"),
        ("[numerics]", "[numerics]\nroute = sideways"),
    ])
    def test_invalid_configs(self, tmp_path, patch):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(*patch))
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("section, line", [
        ("audit", "sigma0_values = 0"),
        ("audit", "sigma0_values = -1"),
        ("audit", "s1_values = -1"),
        ("audit", "L_values = 0"),
        ("audit", "m = 0"),
        ("audit", "xi_points = 0"),
        ("audit", "s2_range = -5,5,2.5"),
        ("layer", "s = -1,0"),
        ("layer", "n_values = 4,8,16"),
        ("layer", "n_values = 32"),
        ("layer", "n_values = 64,32"),
        ("layer", "xi_values ="),
        # two values, one output file name (values in :g)
        ("audit", "L_values = 1,1.0000001"),
        ("audit", "sigma0_values = 2,2"),
        ("layer", "xi_values = 6.2831853,6.28318531"),
        ("freq", "s2_values = 5,5.0000001"),
        ("audit", "xi_point = 11"),         # misspelt key
        ("audti", "xi_points = 11"),        # misspelt section
    ])
    def test_rejected_at_load(self, tmp_path, section, line):
        # each of these used to load and then fail, or be ignored, at
        # run time
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG + f"\n[{section}]\n{line}\n")
        with pytest.raises(ConfigError):
            load_config(str(path))
        command = "layer-check" if section == "layer" else "symbol-audit"
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) \
            == 2
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("command, text", [
        ("symbol-audit", BASE_CONFIG + "\n[audit]\ns2_range = -5,5,3\n"
         "xi_points = 5\nsigma0_values = 1\nL_values = 1e-15\n"),
        ("layer-check", BASE_CONFIG.replace("L = 0.4", "L = 1e-15")),
    ], ids=["audit", "pml"])
    def test_degenerate_layer_rejected_at_load(self, tmp_path, capsys,
                                               command, text):
        # 1 - exp(-2 s1 L~ / c) ~ 1e-15: the layer symbol's denominator
        # is degenerate at every s; these used to end in a traceback
        path = tmp_path / "thin.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="too thin"):
            load_config(str(path))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) \
            == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") \
            and err.count("\n") == 1
        assert not out.exists() or not os.listdir(out)

    def test_keys_case_insensitive(self, tmp_path):
        path = tmp_path / "k.ini"
        path.write_text(BASE_CONFIG + "\n[sweep]\nl_ref = 2.0\n"
                        "L_VALUES = 0.1,0.2,0.3\n")
        cfg = load_config(str(path))
        assert cfg.sweep["L_ref"] == 2.0
        assert cfg.sweep["L_values"] == [0.1, 0.2, 0.3]

    def test_cosine_and_file_surface(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("surface = flat",
                                            "surface = cosine:0.05,1")
                        .replace("obstacle = 0.4,0.15; 0.6,0.15; "
                                 "0.6,0.35; 0.4,0.35", "obstacle ="))
        cfg = load_config(str(path))
        assert cfg.geometry.surface.f_plus == pytest.approx(0.05)

    def test_digest_without_surface_file_unchanged(self, config_path):
        # the INI-only digest, as before surface files were hashed too
        assert load_config(config_path).digest == \
            "e747b216842fdbc3f7bd40101a535815058014982ee9a2c74f8907c090be489b"

    def test_digest_covers_surface_file(self, tmp_path):
        surf = tmp_path / "surface.txt"
        path = tmp_path / "f.ini"
        path.write_text(BASE_CONFIG.replace("surface = flat",
                                            f"surface = file:{surf}"))
        x1 = np.linspace(0.0, 1.0, 16, endpoint=False)
        digests = []
        for amp in (0.02, 0.03, 0.02):
            np.savetxt(surf, np.column_stack((x1, amp * np.cos(
                2 * np.pi * x1))))
            cfg = load_config(str(path))
            assert cfg.geometry.surface.f_plus == pytest.approx(amp)
            digests.append(cfg.digest)
        assert digests[0] != digests[1]
        assert digests[0] == digests[2]


class TestFitRate:
    def test_recovers_exponent(self):
        L = np.array([0.5, 1.0, 1.5, 2.0])
        fit = fit_rate(L, 3.0 * np.exp(-2.5 * L))
        assert fit.exponent == pytest.approx(2.5, rel=1e-10)
        assert fit.residual < 1e-12

    def test_rejects_nonmonotone(self):
        with pytest.raises(FitError):
            fit_rate([0.5, 1.0, 1.5], [1.0, 0.5, 0.7])

    def test_rejects_short(self):
        with pytest.raises(FitError):
            fit_rate([0.5, 1.0, 1.5], [1.0, 1e-14, 1e-15])


class TestPlots:
    def test_errors(self, tmp_path):
        with pytest.raises(PlotError):
            emit_plots("missing.csv", str(tmp_path / "p.py"),
                       "convergence")
        csv_path = str(tmp_path / "c.csv")
        write_csv(csv_path, ["L", "error"], [(1.0, 0.5)])
        with pytest.raises(PlotError):
            emit_plots(csv_path, str(tmp_path / "p.py"), "unknown")
        with pytest.raises(PlotError):
            emit_plots(csv_path, str(tmp_path / "p.py"), "audit")

    def test_emits_script(self, tmp_path):
        csv_path = str(tmp_path / "c.csv")
        write_csv(csv_path, ["L", "error", "sqrt_error"],
                  [(0.5, 1.0, 1.0), (1.0, 0.1, 0.32)])
        out = tmp_path / "plot.py"
        emit_plots(csv_path, str(out), "convergence")
        text = out.read_text()
        assert "matplotlib" in text
        compile(text, str(out), "exec")


class TestWriters:
    # str, Python and NumPy bools and ints, non-finite values, -0.0,
    # 1e-300 and 12-digit values; a column's kind may change by row
    # between bool, int and float, never to or from str
    MIXED = [
        ("case_a", True, 0, float("nan"), 123456789012, 0.1),
        ("case_b", np.bool_(False), np.int64(-7), float("inf"),
         np.int32(12), 0.123456789012345),
        ("c", np.True_, 999999999999, -float("inf"), 3.0, -0.0),
        ("d", False, np.int64(0), 1e-300, np.float64(123456789012.0),
         np.float32(0.1)),
        ("e", np.bool_(True), 1, -1e-300, np.uint8(200), 1e300),
    ]

    @pytest.mark.parametrize("rows", [
        MIXED,
        MIXED[:1],
        [],
        np.array([[0.5, -0.0, np.nan, 1.0], [1e-300, np.inf, 2.0 / 3.0,
                                              0.0]]),
        np.array([[True, False], [False, True]]),
        [[float(v) for v in np.random.default_rng(0).normal(size=4)]
         for _ in range(50)],
        # more rows than several formatting blocks
        np.random.default_rng(1).normal(size=(10001, 3)),
    ])
    def test_csv_matches_reference(self, tmp_path, rows):
        header = ["h0", "h1", "h2", "h3", "h4", "h5"][:np.shape(rows)[1]] \
            if len(rows) else ["only"]
        write_csv(str(tmp_path / "new.csv"), header, rows)
        reference_write_csv(str(tmp_path / "ref.csv"), header, rows)
        assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_csv_row_count_from_len(self, tmp_path):
        rows = np.arange(12.0).reshape(4, 3)
        write_csv(str(tmp_path / "a.csv"), ["a", "b", "c"], rows)
        lines = (tmp_path / "a.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"a,b,c" and lines[-1] == b""
        assert len(lines) == 2 + len(rows)

    @pytest.mark.parametrize("n_comp, dtype", [(1, complex), (2, complex),
                                                (1, float), (2, float)])
    def test_field_matches_reference(self, tmp_path, n_comp, dtype):
        rng = np.random.default_rng(n_comp)
        values = rng.normal(size=(40, n_comp)) * 10.0 ** rng.integers(
            -8, 8, size=(40, n_comp))
        if dtype is complex:
            values = values + 1j * rng.normal(size=(40, n_comp))
        values[:4] = [[-0.0], [1e-300], [123456789012.0], [np.nan]]
        if n_comp == 1:
            values = values[:, 0]
        write_field(str(tmp_path / "new.txt"), values)
        reference_write_field(str(tmp_path / "ref.txt"), values)
        assert same_bytes(tmp_path / "new.txt", tmp_path / "ref.txt")


class TestGridAudit:
    @pytest.mark.parametrize("c", [1.0, 1.3])
    def test_matches_per_s_reference_bitwise(self, c):
        # 2 s1 x 41 s2 in one broadcast call against the per-s audit;
        # complex products and |s| in NumPy would move the last bit of
        # some beta, gap and bound values
        s1 = np.repeat([1.0, 0.1], 41)
        s2 = np.tile(np.linspace(-50.0, 50.0, 41), 2)
        s = s1 + 1j * s2
        xi = np.array([default_xi_grid(v, c) for v in s])
        pmls = [PmlProfile(sigma0=2.0, m=1, L=0.5, s1=v) for v in s1]
        audit = symbol_gap_sup(s, c, pmls, xi)
        assert audit.gap.shape == (82, 401)
        for k in range(s.size):
            sk = complex(s1[k], s2[k])
            assert np.array_equal(xi[k], reference_default_xi_grid(sk, c))
            betas, gaps, bound = reference_symbol_gap_sup(sk, c, pmls[k],
                                                          xi[k])
            passive, _ = reference_modal_passivity_check(sk, c, xi[k])
            ok = (gaps <= bound * (1.0 + 1e-10)) & passive
            assert np.array_equal(audit.beta_vals[k], betas)
            assert np.array_equal(audit.gap[k], gaps)
            assert np.array_equal(audit.bound[k], [bound])
            assert np.array_equal(audit.ok[k], ok)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSubcommands:
    def test_symbol_audit(self, config_path, tmp_path):
        out = str(tmp_path / "audit")
        extra = ("\n[audit]\ns1_values = 1.0\ns2_range = -5,5,5\n"
                 "xi_points = 21\nsigma0_values = 2\nL_values = 0.5,1\n")
        path = tmp_path / "a.ini"
        path.write_text(BASE_CONFIG + extra)
        assert main(["symbol-audit", "--config", str(path),
                     "--out", out]) == 0
        rows = read_csv(os.path.join(out, "audit_sigma2_L0.5.csv"))
        assert all(r["pass"] == "1" for r in rows)
        assert os.path.exists(os.path.join(out, "plot_audit.py"))
        manifest = Path(out, "manifest.txt").read_text()
        assert "config_sha256=" in manifest
        assert "command=symbol-audit" in manifest

    @pytest.mark.parametrize("extra", [
        "[audit]\ns2_range = -5,5,3\nxi_points = 31\nsigma0_values = 1,2\n"
        "L_values = 0.5,1\n",
        # s^2/c^2 is rounded by parts, as Python rounds it
        "[media]\nc = 1.3\n[audit]\ns2_range = -5,5,3\nxi_points = 31\n"
        "sigma0_values = 1,2\nL_values = 0.5,1\n",
        # one block: one s and one mode; only the thick layers pass
        "[audit]\ns1_values = 1.0\ns2_range = -5,5,1\nxi_points = 1\n"
        "sigma0_values = 1,2\nL_values = 0.5,5\n",
    ], ids=["c1", "c1.3", "one-block"])
    def test_symbol_audit_matches_reference(self, tmp_path, monkeypatch,
                                            extra):
        # a bound shrunk 1000-fold fails near the gap's peak and holds in
        # the decaying tail, so both pass values are written
        bound = pmlstrip.symbols.cu_bound
        monkeypatch.setattr(pmlstrip.symbols, "cu_bound",
                            lambda s, c, L_bar: 1e-3 * bound(s, c, L_bar))
        out = str(tmp_path / "audit")
        path = tmp_path / "a.ini"
        path.write_text(BASE_CONFIG + "\n" + extra)
        assert main(["symbol-audit", "--config", str(path),
                     "--out", out]) == 1
        cfg = load_config(str(path))
        passes = set()
        for sigma0 in cfg.audit["sigma0_values"]:
            for L in cfg.audit["L_values"]:
                name = f"audit_sigma{sigma0:g}_L{L:g}.csv"
                rows = reference_audit_rows(cfg, sigma0, L,
                                            pmlstrip.symbols.cu_bound)
                reference_write_csv(str(tmp_path / name), ["s1", "s2", "xi",
                                    "beta_re", "beta_im", "gap", "bound",
                                    "pass"], rows)
                assert same_bytes(os.path.join(out, name), tmp_path / name)
                passes |= {r[-1] for r in rows}
        assert passes == {True, False}

    def test_symbol_audit_closes_files_on_error(self, tmp_path):
        # a directory in place of the last of the four files: the open
        # fails after three files are open, and all three are closed
        path = tmp_path / "a.ini"
        path.write_text(BASE_CONFIG + "\n[audit]\ns2_range = -5,5,3\n"
                        "xi_points = 11\nsigma0_values = 1,2\n"
                        "L_values = 0.5,1\n")
        out = tmp_path / "audit"
        (out / "audit_sigma2_L1.csv").mkdir(parents=True)
        assert main(["symbol-audit", "--config", str(path),
                     "--out", str(out)]) == 1
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("n_modes, expected", [(64, 5), (3, 3)])
    def test_manifest_reports_mode_clamp(self, tmp_path, n_modes, expected):
        # mesh_size 0.08: 12 nodes on x3 = h keep at most (12 - 1) // 2
        path = tmp_path / "m.ini"
        path.write_text(BASE_CONFIG.replace("n_modes = 16",
                                            f"n_modes = {n_modes}")
                        + "\n[sweep]\nL_values = 0.3,0.6,0.9\n"
                        "[freq]\ns2_values = 0,5\n")
        for command in ("freq-solve", "td-run", "convergence"):
            out = tmp_path / command
            assert main([command, "--config", str(path),
                         "--out", str(out)]) == 0
            assert f"n_modes_effective={expected}\n" in \
                (out / "manifest.txt").read_text()

    def test_layer_check(self, config_path, tmp_path):
        out = str(tmp_path / "layer")
        assert main(["layer-check", "--config", config_path,
                     "--out", out]) == 0
        rows = read_csv(os.path.join(out, "layer_summary.csv"))
        errs = [float(r["max_err"]) for r in rows if r["xi"] == "0"]
        assert errs == sorted(errs, reverse=True)

    def test_freq_solve(self, config_path, tmp_path):
        out = str(tmp_path / "freq")
        assert main(["freq-solve", "--config", config_path,
                     "--out", out]) == 0
        rows = read_csv(os.path.join(out, "freq_summary.csv"))
        assert len(rows) == 3
        assert all(float(r["residual"]) <= 1e-10 for r in rows)
        assert os.path.exists(os.path.join(out, "mesh.txt"))
        assert os.path.exists(os.path.join(out, "p_hat_s2_5.txt"))

    def test_td_run(self, config_path, tmp_path):
        out = str(tmp_path / "td")
        assert main(["td-run", "--config", config_path, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "probes.csv"))
        assert len(rows) == 41 * 3
        assert os.path.exists(os.path.join(out, "energy_ratios.csv"))

    def test_convergence_freq_route(self, config_path, tmp_path):
        out = str(tmp_path / "conv")
        extra = ("\n[sweep]\nL_values = 0.3,0.6,0.9\n"
                 "[freq]\ns2_values = 0,5\n")
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG + extra)
        assert main(["convergence", "--config", str(path),
                     "--out", out]) == 0
        rows = read_csv(os.path.join(out, "convergence.csv"))
        errs = [float(r["error"]) for r in rows]
        assert errs == sorted(errs, reverse=True)
        manifest = Path(out, "manifest.txt").read_text()
        assert "fitted_exponent=" in manifest
        assert "rate_theory_lbar=2" in manifest

    def test_exit_codes(self, tmp_path, config_path):
        out = str(tmp_path / "x")
        # missing config file: configuration error
        assert main(["freq-solve", "--config",
                     str(tmp_path / "nope.ini"), "--out", out]) == 2
        # runtime failure: mesh size too coarse for the layer
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("mesh_size = 0.08",
                                            "mesh_size = 0.45"))
        assert main(["td-run", "--config", str(path), "--out", out]) == 1

    def test_source_below_surface_crest_exits_2(self, tmp_path):
        # the support bottom 0.0995 dips below the crest 0.1 at x1 = 0.5,
        # between the points a 41-point sample of the surface would see
        path = tmp_path / "crest.ini"
        path.write_text(
            BASE_CONFIG.replace("surface = flat", "surface = cosine:0.1,10")
            .replace("obstacle = 0.4,0.15; 0.6,0.15; 0.6,0.35; 0.4,0.35",
                     "obstacle =")
            .replace("center = 0.2,0.25", "center = 0.502,0.1795")
            .replace("radius = 0.06", "radius = 0.08"))
        out = str(tmp_path / "x")
        assert main(["freq-solve", "--config", str(path), "--out", out]) \
            == 2
        assert not os.path.exists(os.path.join(out, "manifest.txt"))

    def test_manifest_reproducible(self, config_path, tmp_path):
        extra = ("\n[layer]\nn_values = 32,64,128\n")
        path = tmp_path / "r.ini"
        path.write_text(BASE_CONFIG + extra)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["layer-check", "--config", str(path), "--out", out1])
        main(["layer-check", "--config", str(path), "--out", out2])
        m1 = Path(out1, "manifest.txt").read_text()
        m2 = Path(out2, "manifest.txt").read_text()
        assert m1 == m2
        c1 = Path(out1, "layer_summary.csv").read_text()
        c2 = Path(out2, "layer_summary.csv").read_text()
        assert c1 == c2


def serial_freq_solve(cfg, out):
    """freq-solve's per-frequency fields and summary as one serial loop
    over the frequencies wrote them."""
    variant, num = cfg.numerics["variant"], cfg.numerics
    blk = build_blocks(build_mesh(cfg.geometry, cfg.pml if variant ==
                                  "pml_layer" else None, num["mesh_size"]),
                       num["n_modes"])
    chi = source_l2_norm(blk, cfg.source.spatial)
    rows = []
    for s2 in num["freq_s2_values"]:
        s = complex(num["s1"], s2)
        scale = complex(cfg.source.pulse.laplace(s))
        sol = solve_frequency(assemble(blk, cfg.media, s, cfg.source.spatial,
                                       scale, variant, cfg.pml))
        ratios = stability_ratios(sol, abs(scale) * chi)
        reference_write_field(os.path.join(out, f"p_hat_s2_{s2:g}.txt"),
                              sol.p_hat)
        reference_write_field(os.path.join(out, f"u_hat_s2_{s2:g}.txt"),
                              sol.u_hat)
        rows.append((num["s1"], s2, ratios["fluid_lhs"], ratios["solid_lhs"],
                     ratios["fluid_ratio"], ratios["solid_ratio"],
                     sol.residual))
    reference_write_csv(os.path.join(out, "freq_summary.csv"),
                        ["s1", "s2", "fluid_lhs", "solid_lhs", "fluid_ratio",
                         "solid_ratio", "residual"], rows)


def serial_freq_route_errors(cfg, L_values):
    """The freq-route sweep's squared gaps from one serial loop over the
    frequencies per layer, summed in s order."""
    num, chi = cfg.numerics, cfg.source.spatial
    blk_ref = build_blocks(build_mesh(cfg.geometry, None, num["mesh_size"]),
                           num["n_modes"])
    nv = blk_ref.mesh.n_vertices
    s_list = [complex(num["s1"], s2) for s2 in num["freq_s2_values"]]

    def solve(blk, s, variant):
        return solve_frequency(assemble(blk, cfg.media, s, chi, complex(
            cfg.source.pulse.laplace(s)), variant))
    refs = [solve(blk_ref, s, "exact_dtn") for s in s_list]
    errors = []
    for L in L_values:
        pml = PmlProfile(sigma0=cfg.pml.sigma0, m=cfg.pml.m, L=L, s1=num["s1"])
        blk = build_blocks(build_mesh(cfg.geometry, pml, num["mesh_size"]),
                           num["n_modes"])
        err_sq = 0.0
        for s, ref in zip(s_list, refs):
            sol = solve(blk, s, "pml_layer")
            err_sq += h_norm_sq(blk_ref, nodal_to_dofs(
                blk_ref, sol.p_hat[:nv] - ref.p_hat,
                sol.u_hat[:nv] - ref.u_hat))
        errors.append(err_sq)
    return errors


class TestConcurrentSolves:
    """The frequency solves of freq-solve and of the freq-route sweep run
    side by side (fem.map_solves); their outputs equal a serial loop's
    bit for bit."""

    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer"])
    def test_freq_solve_files_equal_serial_loop(self, tmp_path, cpus,
                                                variant):
        path = tmp_path / "f.ini"
        path.write_text(BASE_CONFIG + f"variant = {variant}\n[freq]\n"
                        "s2_values = 0,2.5,5,10\n")
        out = tmp_path / "out"
        assert main(["freq-solve", "--config", str(path),
                     "--out", str(out)]) == 0
        ref = tmp_path / "ref"
        ref.mkdir()
        serial_freq_solve(load_config(str(path)), str(ref))
        names = os.listdir(ref)
        assert len(names) == 9
        for name in names:
            assert same_bytes(out / name, ref / name), name

    def test_freq_route_errors_equal_serial_loop(self, tmp_path, cpus):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG + "\n[sweep]\nL_values = 0.3,0.6,0.9\n"
                        "[freq]\ns2_values = 0,5,10\n")
        cfg = load_config(str(path))
        errors, n_modes = pmlstrip.cli._freq_route_errors(
            cfg, cfg.sweep["L_values"])
        assert errors == serial_freq_route_errors(cfg, cfg.sweep["L_values"])
        assert all(e > 0 for e in errors)

    def test_term_table_built_once_under_stress(self, tmp_path,
                                                monkeypatch):
        # eight threads on any machine, switching every microsecond: the
        # term table the solves share is still built once, by the
        # calling thread, and the outputs still equal the serial loop's
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        form, builders = pmlstrip.fem.AffineForm, []

        def counted(**fields):
            builders.append(threading.current_thread())
            return form(**fields)
        monkeypatch.setattr(pmlstrip.fem, "AffineForm", counted)
        path = tmp_path / "f.ini"
        path.write_text(BASE_CONFIG + "variant = pml_layer\n[freq]\n"
                        "s2_values = " + ",".join(map(str, range(16))) + "\n")
        out = tmp_path / "out"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert main(["freq-solve", "--config", str(path),
                         "--out", str(out)]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert builders == [threading.current_thread()]
        ref = tmp_path / "ref"
        ref.mkdir()
        serial_freq_solve(load_config(str(path)), str(ref))
        for name in os.listdir(ref):
            assert same_bytes(out / name, ref / name), name
