"""Command line harness: configs, subcommands, CSV and manifest output."""

import csv
import os

import numpy as np
import pytest

import pmlstrip.symbols
from pmlstrip import ConfigError, PmlProfile, load_config
from pmlstrip.cli import (FitError, PlotError, emit_plots, fit_rate, main,
                          write_csv, write_field)
from pmlstrip.symbols import default_xi_grid, modal_passivity_check, \
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


def reference_audit_rows(cfg, sigma0, L):
    """One audit file's rows, built mode by mode."""
    a, c = cfg.audit, cfg.media.c
    rows = []
    for s1 in a["s1_values"]:
        pml = PmlProfile(sigma0=sigma0, m=a["m"], L=L, s1=s1)
        for s2 in a["s2_grid"]:
            s = complex(s1, s2)
            xi = default_xi_grid(s, c, a["xi_points"])
            audit = symbol_gap_sup(s, c, pml, xi)
            passive, _ = modal_passivity_check(s, c, xi)
            ok_row = audit.gap <= audit.bound * (1.0 + 1e-10)
            for k in range(xi.size):
                rows.append((s1, s2, xi[k], audit.beta_vals[k].real,
                             audit.beta_vals[k].imag, audit.gap[k],
                             audit.bound, bool(ok_row[k] and passive[k])))
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
        manifest = open(os.path.join(out, "manifest.txt")).read()
        assert "config_sha256=" in manifest
        assert "command=symbol-audit" in manifest

    def test_symbol_audit_matches_reference(self, tmp_path, monkeypatch):
        # a bound shrunk 1000-fold fails near the gap's peak and holds in
        # the decaying tail, so both pass values are written
        bound = pmlstrip.symbols.cu_bound
        monkeypatch.setattr(pmlstrip.symbols, "cu_bound",
                            lambda s, c, L_bar: 1e-3 * bound(s, c, L_bar))
        out = str(tmp_path / "audit")
        path = tmp_path / "a.ini"
        path.write_text(BASE_CONFIG + "\n[audit]\ns2_range = -5,5,3\n"
                        "xi_points = 31\nsigma0_values = 1,2\n"
                        "L_values = 0.5,1\n")
        assert main(["symbol-audit", "--config", str(path),
                     "--out", out]) == 1
        cfg = load_config(str(path))
        passes = set()
        for sigma0 in (1, 2):
            for L in (0.5, 1):
                name = f"audit_sigma{sigma0:g}_L{L:g}.csv"
                rows = reference_audit_rows(cfg, sigma0, L)
                reference_write_csv(str(tmp_path / name), ["s1", "s2", "xi",
                                    "beta_re", "beta_im", "gap", "bound",
                                    "pass"], rows)
                assert same_bytes(os.path.join(out, name), tmp_path / name)
                passes |= {r[-1] for r in rows}
        assert passes == {True, False}

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
        manifest = open(os.path.join(out, "manifest.txt")).read()
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

    def test_manifest_reproducible(self, config_path, tmp_path):
        extra = ("\n[layer]\nn_values = 32,64,128\n")
        path = tmp_path / "r.ini"
        path.write_text(BASE_CONFIG + extra)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["layer-check", "--config", str(path), "--out", out1])
        main(["layer-check", "--config", str(path), "--out", out2])
        m1 = open(os.path.join(out1, "manifest.txt")).read()
        m2 = open(os.path.join(out2, "manifest.txt")).read()
        assert m1 == m2
        c1 = open(os.path.join(out1, "layer_summary.csv")).read()
        c2 = open(os.path.join(out2, "layer_summary.csv")).read()
        assert c1 == c2
