"""Command line harness: configs, subcommands, CSV and manifest output."""

import configparser
import contextlib
import csv
import io
import os
import runpy
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmlstrip.cli
import pmlstrip.fem
import pmlstrip.symbols
from pmlstrip import ConfigError, PmlProfile, assemble, build_blocks, \
    build_mesh, dofs_to_nodal, h_norm_sq, load_config, solve_frequency, \
    source_l2_norm, stability_ratios
from pmlstrip.config import MAX_SAMPLES, SCHEMA
from pmlstrip.cli import (MAX_AUDIT_FILES, MAX_AUDIT_ROWS, FitError,
                          emit_plots, fit_rate, main, write_csv, write_field)
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


def with_setting(text: str, section: str, line: str) -> str:
    """The config text with `line` (key = value) set in [section]: an
    existing key is overwritten, a missing section is added."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, *(part.strip() for part in line.split("=", 1)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


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
        for s2 in np.linspace(*a["s2_range"]):
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
        assert "s1" not in cfg.numerics     # pml.s1 is the one copy
        assert len(cfg.digest) == 64
        assert cfg.numerics["route"] == "freq"
        # digest is stable
        assert load_config(config_path).digest == cfg.digest

    def test_default_abscissa_from_horizon(self, tmp_path):
        path = tmp_path / "d.ini"
        path.write_text(BASE_CONFIG.replace("s1 = 1.0\n", ""))
        cfg = load_config(str(path))
        assert cfg.pml.s1 == pytest.approx(1.0)   # 1/T with T = 1

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
        # freq-solve reads [geom], [source] and [numerics]
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(*patch))
        assert main(["freq-solve", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

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
        ("numerics", "s2_max = 40"),        # removed keys
        ("numerics", "n_freq = 401"),
        ("numerics", "seed = 0"),
        # T = 1 and n_steps = 40: dt = 0.025
        ("numerics", "n_modes = -1"),
        ("numerics", "n_steps = 0"),
        ("numerics", "mesh_size = 0.5"),    # h - f_plus = 0.5
        ("numerics", "mesh_size = 0"),
        ("td", "snapshot_times = 5"),
        ("td", "snapshot_times = -1"),
        ("td", "snapshot_times = 0.5,0.51"),    # one step
        ("parseval", "n_time = 1"),
        ("parseval", "n_time = 3"),
        ("parseval", "n_freq = 0"),
        ("parseval", "s1 = -1"),
        ("parseval", "horizon = 0"),
        ("parseval", "s2_max = 0"),
        ("parseval", "s2_max = -400"),
        ("sweep", "sigma0_values = -5,-1"),     # max() used to drop them
        # Laplace abscissas whose square (s1/c)^2 is not a normal double
        ("numerics", "s1 = 1e-300"),
        ("numerics", "s1 = 1e-160"),
        ("audit", "s1_values = 1e-300"),
        ("audit", "s1_values = 1,1e-170"),
        ("layer", "s = 1e-300,0"),
        ("numerics", "s1 = 1e160"),
        # s1 below 1e-5 max(sigma0, c / mesh_size): the s2 = 0 system is
        # singular to working precision and solved by chance (at mesh
        # 0.125: an `error:` line, `Factor is exactly singular`)
        ("numerics", "s1 = 1e-150"),
        ("audit", "s1_values = 1,1e160"),
        ("layer", "s = 1e160,0"),
        # the pulse transform's (s + a +- i omega0)^4 overflows at
        # s = s1 + i s2 (an overflow warning or a singular factor)
        ("numerics", "s1 = 1e78"),
        ("numerics", "s1 = 1e120"),
        ("freq", "s2_values = 0,1e200"),
        # layer-check's system overflows (a traceback or `error:` line)
        # through xi, s, the damping 1 + sigma0/s1, the grid's (n/L)^2 or
        # its squared step (L/n)^2
        ("layer", "xi_values = 1e154"),
        ("layer", "s = 1,1e160"),
        ("pml", "sigma0 = 1e307"),
        ("layer", "n_values = 8,1e160"),
        ("pml", "L = 1e160"),
        ("pml", "L = 1e308"),
        # the source lives on a time interval (0, T) in a ball of radius
        # > 0: T = 0 ended in a traceback, T = -1 and a negative radius
        # ran, radius = 0 wrote an all-zero solution
        ("source", "T = 0"),
        ("source", "T = -1"),
        ("source", "radius = 0"),
        ("source", "radius = -0.06"),
        # build_mesh's column and row counts, period / mesh_size and
        # h / mesh_size, overflow (a traceback), or its grid exceeds
        # mesh.MAX_VERTICES (an `error:` line)
        ("geom", "period = 1e308"),
        ("geom", "h = 1e308"),
        ("geom", "period = 1e200"),
        # f(0) = 0.05, f(period) = -0.05 (an `error:` line)
        ("geom", "surface = cosine:0.05,1.5"),
        # the frequency grid's width 2 s2_max overflows (an `error:` line)
        ("parseval", "s2_max = 1e308"),
        # Newmark's step weight dt^2 overflows (td-run: `Factor is exactly
        # singular`)
        ("source", "T = 1e160"),
        ("source", "T = 1e308"),
        # Newmark's stiffness Kr overflows (td-run: `the Newmark state is
        # not finite`), as do the frequency weights theta(s) at s2 = 5 and
        # 10 (freq-solve: `Factor is exactly singular`)
        ("media", "mu = 1e308"),
        # a growing pulse, with no transform at Re s <= -a (freq-solve
        # exited 0 on the closed form, which does not hold there)
        ("source", "a = -1"),
        # an inclusion 0.005 wide inside the source ball, between two of
        # the samples (0.006 apart) that the overlap check used to test
        # (freq-solve exited 0 and dropped the load on the solid)
        ("geom", "obstacle = 0.2545,0.2; 0.2595,0.2; 0.2595,0.3; "
                 "0.2545,0.3"),
    ])
    def test_rejected_at_load(self, tmp_path, section, line):
        # each of these used to load and then fail, or be ignored, at
        # run time; a subcommand that reads the key refuses it before it
        # solves: layer-check the [layer] and [pml] values, otherwise the
        # key's subcommand in KEY_BOUNDS (any for an unknown key)
        path = tmp_path / "bad.ini"
        path.write_text(with_setting(BASE_CONFIG, section, line))
        key = line.split("=")[0].strip()
        command = "layer-check" if section in ("layer", "pml") \
            else KEY_BOUNDS.get((section, key), ("symbol-audit",))[0]
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
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) \
            == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "too thin" in err \
            and err.count("\n") == 1
        assert not out.exists() or not os.listdir(out)

    @settings(max_examples=60, deadline=None)
    @given(s1=st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0]), min_size=1,
                       max_size=3, unique=True),
           sigma0=st.lists(st.sampled_from([1e-3, 0.5, 1.0, 4.0, 1e3]),
                           min_size=1, max_size=3, unique=True),
           L=st.lists(st.sampled_from([1e-15, 5e-15, 9e-15, 1e-14, 1.1e-14,
                                       2e-14, 1e-13, 1.0]),
                      min_size=1, max_size=3, unique=True),
           m=st.integers(1, 3))
    def test_audit_floor_judged_by_thinnest_layer(self, s1, sigma0, L, m):
        # symbol-audit judges the floor over every profile it audits: its
        # verdict is the whole grid's, its thinnest layer's
        floor = 2.0 * pmlstrip.symbols.DEGENERATE_DENOMINATOR
        whole_grid = all(
            pmlstrip.symbols.layer_denominator_floor(
                v, 1.0, PmlProfile(sigma0=g, m=m, L=thick, s1=v).L_tilde)
            >= floor for v in s1 for g in sigma0 for thick in L)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.ini")
            Path(path).write_text(
                BASE_CONFIG + "[audit]\ns2_range = -5,5,1\nxi_points = 2\n"
                + "\n".join(f"{key} = {','.join(map(repr, values))}"
                            for key, values in (
                                ("s1_values", s1), ("sigma0_values", sigma0),
                                ("L_values", L), ("m", [m]))) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), mock.patch.object(
                    pmlstrip.cli, "symbol_gap_sup",
                    side_effect=RuntimeError("audit reached")):
                code = main(["symbol-audit", "--config", path,
                             "--out", os.path.join(tmp, "out")])
        assert code == (1 if whole_grid else 2)
        assert "audit reached" in err.getvalue() if whole_grid \
            else "too thin" in err.getvalue()

    def test_underflowing_step_rejected(self, tmp_path, capsys):
        # dt = T / n_steps underflows to 0: snapping a snapshot time to a
        # step divided by it (a ZeroDivisionError traceback)
        path, out = tmp_path / "dt.ini", tmp_path / "out"
        path.write_text(BASE_CONFIG.replace("T = 1.0", "T = 5e-324")
                        .replace("n_steps = 40", "n_steps = 2")
                        + "[td]\nsnapshot_times = 0\n")
        assert main(["td-run", "--config", str(path), "--out", str(out)]) \
            == 2
        err = capsys.readouterr().err
        assert err == "configuration error: source.T and numerics.n_steps: " \
            "the time step T / n_steps is not a normal double\n"
        assert not (out / "manifest.txt").exists()

    def test_readme_schema_names_every_key(self):
        # the README's INI block documents exactly the sections and keys
        # load_config accepts, with their defaults
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("## Config schema (INI)", 1)[1] \
            .split("```ini\n", 1)[1].split("```", 1)[0]
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
        cp.optionxform = str
        cp.read_string(block)
        assert {sec: dict(cp[sec]) for sec in cp.sections()} == \
            {sec: {key: default for key, (default, _) in keys.items()}
             for sec, keys in SCHEMA.items()}

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in SCHEMA.items() for key in keys])
    def test_every_key_rejects_garbage_and_non_finite(self, tmp_path, capsys,
                                                      section, key):
        # a parse failure names the key: one `configuration error:` line,
        # exit 2 and no manifest, whatever the key's parser
        out = tmp_path / "out"
        for value in ("x", "nan", "inf", "-inf"):
            path = tmp_path / "bad.ini"
            path.write_text(with_setting(BASE_CONFIG, section,
                                         f"{key} = {value}"))
            assert main(["freq-solve", "--config", str(path),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") \
                and err.count("\n") == 1 and f"{section}.{key}" in err, err
            assert not (out / "manifest.txt").exists()

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
        # the INI-only digest, as before surface files were hashed too;
        # it covers the defaults, so it changed when [numerics] lost the
        # unread s2_max and n_freq (with them put back, this formula
        # gives the former e747b216...c090be489b), and again when it
        # lost seed, which no computation read (with seed = 0 put back,
        # the former 96a278b7...caef0e56528)
        assert load_config(config_path).digest == \
            "18e704ed3d16eeccd49588188060fa428372e2662fbdb7977d1be2ba061c8985"

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
    def test_emits_script(self, tmp_path):
        csv_path = str(tmp_path / "c.csv")
        write_csv(csv_path, ["L", "error", "sqrt_error"],
                  [(0.5, 1.0, 1.0), (1.0, 0.1, 0.32)])
        out = tmp_path / "plot.py"
        emit_plots(csv_path, str(out), "convergence", (2.0, 4.0))
        text = out.read_text()
        assert "matplotlib" in text
        compile(text, str(out), "exec")

    @pytest.mark.parametrize("command, route, script, csv_name", [
        ("symbol-audit", "freq", "plot_audit.py", "audit_sigma1_L0.5.csv"),
        ("convergence", "freq", "plot_convergence.py", "convergence.csv"),
        ("convergence", "time", "plot_convergence.py", "convergence.csv")])
    def test_script_runs_in_its_directory(self, tmp_path, monkeypatch,
                                          command, route, script, csv_name):
        # README: run the script inside the output directory, whatever
        # --out was; it opened --out/<csv> from there.  matplotlib is
        # stubbed by a pyplot that records what the script plots
        path = tmp_path / "p.ini"
        path.write_text(with_setting(FUZZ_CONFIG, "numerics",
                                     f"route = {route}"))
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(path), "--out", "rel_out"]) \
            == 0
        plotted = []
        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.semilogy = pyplot.loglog = \
            lambda x, y, *args, **kwargs: plotted.append((x, y))
        pyplot.xlabel = pyplot.ylabel = pyplot.legend = pyplot.savefig = \
            lambda *args, **kwargs: None
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.use, matplotlib.pyplot = lambda backend: None, pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        monkeypatch.chdir(tmp_path / "rel_out")
        runpy.run_path(script)
        rows = read_csv(csv_name)
        if command == "convergence":     # measured first, then the rates
            assert plotted[0] == ([float(r["L"]) for r in rows],
                                  [float(r["error"]) for r in rows])
        else:       # per (s1, s2) curve, its gaps, then its bounds
            for column, curves in (("gap", plotted[0::2]),
                                   ("bound", plotted[1::2])):
                assert sorted(v for _, y in curves for v in y) == \
                    sorted(float(r[column]) for r in rows)
            assert sorted(x for xi, _ in plotted[0::2] for x in xi) == \
                sorted(float(r["xi"]) if float(r["xi"]) > 0 else 1e-3
                       for r in rows)


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
        # 2 s1 x 41 s2, each s with its profiles in one broadcast call,
        # against the per-profile audit; complex products and |s| in
        # NumPy would move the last bit of some beta, gap and bound values
        s1 = np.repeat([1.0, 0.1], 41)
        s2 = np.tile(np.linspace(-50.0, 50.0, 41), 2)
        for s1_k, s2_k, v in zip(s1, s2, s1 + 1j * s2):
            sk = complex(s1_k, s2_k)
            xi = default_xi_grid(v, c)
            assert np.array_equal(xi, reference_default_xi_grid(sk, c))
            pmls = [PmlProfile(sigma0=sigma0, m=1, L=0.5, s1=s1_k)
                    for sigma0 in (1.0, 2.0)]
            audit = symbol_gap_sup(v, c, pmls, xi)
            assert audit.gap.shape == (2, 401)
            passive, _ = reference_modal_passivity_check(sk, c, xi)
            for k, pml in enumerate(pmls):
                betas, gaps, bound = reference_symbol_gap_sup(sk, c, pml, xi)
                ok = (gaps <= bound * (1.0 + 1e-10)) & passive
                assert np.array_equal(audit.beta_vals, betas)
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

    @pytest.mark.parametrize("n_sigma0, rejected", [(16, False),
                                                    (17, True)])
    def test_symbol_audit_file_count_bounded(self, tmp_path, capsys,
                                             n_sigma0, rejected):
        # n_sigma0 x 16 files, each held open: at most MAX_AUDIT_FILES
        assert 16 * 16 == MAX_AUDIT_FILES
        path, out = tmp_path / "a.ini", tmp_path / "audit"
        path.write_text(BASE_CONFIG + "\n[audit]\ns1_values = 1\n"
                        "s2_range = -5,5,1\nxi_points = 1\n"
                        "sigma0_values = " + ",".join(
                            str(k) for k in range(1, n_sigma0 + 1))
                        + "\nL_values = " + ",".join(
                            str(k) for k in range(1, 17)) + "\n")
        code = main(["symbol-audit", "--config", str(path),
                     "--out", str(out)])
        err = capsys.readouterr().err
        if rejected:
            assert code == 2 and err == (
                "configuration error: audit.sigma0_values and L_values "
                f"give {17 * 16} files, above {MAX_AUDIT_FILES}\n")
            assert os.listdir(out) == []
        else:
            assert code in (0, 1) and err == ""
            assert len(os.listdir(out)) == 16 * 16 + 2

    @pytest.mark.parametrize("bound, rejected", [(45, False), (44, True)])
    def test_symbol_audit_block_bounded(self, tmp_path, capsys, monkeypatch,
                                        bound, rejected):
        # one s evaluates all 9 default files' 5 xi rows: a block of 45,
        # while each file has 5 rows
        monkeypatch.setattr(pmlstrip.cli, "MAX_AUDIT_ROWS", bound)
        path, out = tmp_path / "a.ini", tmp_path / "audit"
        path.write_text(BASE_CONFIG + "\n[audit]\ns1_values = 1\n"
                        "s2_range = -5,5,1\nxi_points = 5\n")
        code = main(["symbol-audit", "--config", str(path),
                     "--out", str(out)])
        err = capsys.readouterr().err
        if rejected:
            assert code == 2 and err == (
                "configuration error: audit.sigma0_values, L_values and "
                "xi_points give 45 rows per s, above 44\n")
            assert os.listdir(out) == []
        else:
            assert code == 0 and err == ""

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

    def test_freq_solve_large_abscissa(self, tmp_path):
        # s1 = 1e60 and 1e55 load; the solid envelope g_norm / (s1 min(1,
        # s1)) underflows to 0, which used to end in a ZeroDivisionError,
        # and so does the solution: 0 over a zero envelope reads 0, as
        # under a zero load (it read inf).  The residual is measured on
        # the load scaled to max|b| in [0.5, 1), where its norm no longer
        # underflows (it read 0)
        cases = [[("numerics", "s1 = 1e60"), ("numerics", "mesh_size = 0.1"),
                  ("freq", "s2_values = 0,5")]] + [
            [("numerics", "s1 = 1e55"), ("numerics", "mesh_size = 0.125"),
             ("geom", "obstacle = "), ("numerics", f"variant = {variant}"),
             ("freq", "s2_values = 3")]
            for variant in ("exact_dtn", "pml_layer")]
        for k, lines in enumerate(cases):
            text = BASE_CONFIG
            for section, line in lines:
                text = with_setting(text, section, line)
            path, out = tmp_path / f"big{k}.ini", tmp_path / f"big{k}"
            path.write_text(text)
            assert main(["freq-solve", "--config", str(path),
                         "--out", str(out)]) == 0
            rows = (out / "freq_summary.csv").read_text().splitlines()[1:]
            assert [row.split(",")[2:6] for row in rows] \
                == [["0"] * 4] * len(rows)
            assert all(0 < float(row.split(",")[6]) <= 1e-10
                       for row in rows)

    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer"])
    def test_freq_solve_smallest_abscissa(self, tmp_path, variant):
        # just above the floor 1e-5 max(sigma0, c / mesh_size) = 8e-5, at
        # s2 = 0, the inclusion strip solves to the residual check's bound
        text = FUZZ_CONFIG
        for section, line in [("numerics", "s1 = 9e-5"),
                              ("numerics", f"variant = {variant}"),
                              ("freq", "s2_values = 0")]:
            text = with_setting(text, section, line)
        path, out = tmp_path / "small.ini", tmp_path / "small"
        path.write_text(text)
        assert main(["freq-solve", "--config", str(path),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "freq_summary.csv")
        assert [float(r["residual"]) <= 1e-10 for r in rows] == [True]

    @pytest.mark.parametrize("line", ["lambda = 1e200", "rho0 = 1e200"])
    def test_td_run_non_finite_state_fails(self, tmp_path, capsys, line):
        # the weights load, and the Newmark state overflows to nan: this
        # wrote nan probe rows with exit 0
        path, out = tmp_path / "big.ini", tmp_path / "out"
        path.write_text(with_setting(FUZZ_CONFIG, "media", line))
        assert main(["td-run", "--config", str(path), "--out", str(out)]) \
            == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (out / "probes.csv").exists()
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("command, section, line, name, code", [
        ("td-run", "source", "T = 5e102", "probes.csv", 0),
        # parseval's coarse grid fails its gate
        ("parseval", "parseval", "horizon = 1e103", "parseval.csv", 1)])
    def test_no_nan_past_the_pulse_decay(self, tmp_path, command, section,
                                         line, name, code):
        # the pulse and its derivative read 0 where exp(-a t) underflows to
        # 0; they read 0 * inf = nan there, and these runs wrote nan rows
        path, out = tmp_path / "long.ini", tmp_path / "out"
        path.write_text(with_setting(FUZZ_CONFIG, section, line))
        assert main([command, "--config", str(path), "--out", str(out)]) \
            == code
        assert "nan" not in (out / name).read_text()

    def test_parseval_ignores_audit_grid_size(self, tmp_path):
        # load_config keeps the audit grid as (min, max, count): a count of
        # 1e15 used to be allocated at load, by every subcommand
        path, out = tmp_path / "p.ini", tmp_path / "out"
        path.write_text(with_setting(BASE_CONFIG, "audit",
                                     "s2_range = -5,5,1e15"))
        assert main(["parseval", "--config", str(path), "--out", str(out)]) \
            == 0

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
        # mesh size too coarse for the layer: configuration error
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("mesh_size = 0.08",
                                            "mesh_size = 0.45"))
        assert main(["td-run", "--config", str(path), "--out", out]) == 2

    # BASE_CONFIG: inclusion 0.4-0.6 x 0.15-0.35, strip top h + L = 0.9,
    # mesh_size 0.08
    @pytest.mark.parametrize("command, lines, message", [
        ("td-run", [("probes", "points = 0.3,0.3; 0.5,0.25")],
         "off the inclusion"),
        ("td-run", [("probes", "points = 0.5,0.95")], "outside the mesh"),
        ("td-run", [("probes", "points = 0.5,-0.01")], "outside the mesh"),
        ("td-run", [("pml", "L = 0.04")], "pml.L"),
        ("td-run", [("pml", "L = 0.08")], "pml.L"),
        ("freq-solve", [("numerics", "variant = pml_layer"),
                        ("pml", "L = 0.08")], "pml.L"),
        ("convergence", [("sweep", "L_values = 0.08,0.2,0.3")],
         "sweep.L_values"),
        ("convergence", [("sweep", "L_values = 0.02,0.1,0.2")],
         "sweep.L_values"),
        # a layer that loads (layer-check's (L/n)^2 stays finite) and
        # gives a grid of about 1e157 vertices (an `error:` line)
        ("td-run", [("pml", "L = 1e155")], "pml.L"),
        ("convergence", [("numerics", "route = time"),
                         ("sweep", "L_values = 0.25,0.5,1"),
                         ("sweep", "L_ref = 1e308")], "sweep.L_ref"),
        ("convergence", [("numerics", "route = time"),
                         ("sweep", "L_values = 0.25,0.5,1"),
                         ("sweep", "L_ref = 0.5")], "sweep.L_ref"),
        ("convergence", [("numerics", "route = time"),
                         ("sweep", "L_values = 0.25,0.5,1"),
                         ("sweep", "L_ref = 1")], "sweep.L_ref"),
    ], ids=["probe-in-inclusion", "probe-above-strip", "probe-below-surface",
            "td-L-below-mesh-size", "td-L-at-mesh-size",
            "freq-L-at-mesh-size", "sweep-L-at-mesh-size",
            "sweep-L-below-mesh-size", "td-L-row-count-overflows",
            "L_ref-row-count-overflows", "L_ref-inside-sweep",
            "L_ref-at-sweep-end"])
    def test_rejected_before_solving(self, tmp_path, capsys, command,
                                     lines, message):
        # rules on values only one subcommand reads, checked where it
        # reads them; each used to fail at run time with exit 1, or (a
        # probe in the inclusion) write the pressure sentinel 0
        text = BASE_CONFIG
        for section, line in lines:
            text = with_setting(text, section, line)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        load_config(str(path))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) \
            == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err \
            and err.count("\n") == 1
        assert not out.exists() or not os.listdir(out)

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

    def test_global_rng_untouched(self, tmp_path):
        # main draws no random numbers and leaves an in-process caller's
        # global NumPy generator as it was
        path = tmp_path / "r.ini"
        path.write_text(BASE_CONFIG + "\n[layer]\nn_values = 32,64\n")
        np.random.seed(12345)
        np.random.normal(size=3)
        before = np.random.get_state()
        assert main(["layer-check", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])

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


# a tiny strip for the contract fuzz: the inclusion 0.4-0.6 x 0.15-0.35
# of BASE_CONFIG, few steps, one or two frequencies, short signals, a
# small audit grid
FUZZ_MESH = 0.125
FUZZ_CONFIG = BASE_CONFIG.replace("mesh_size = 0.08",
                                  f"mesh_size = {FUZZ_MESH}") \
    .replace("n_steps = 40", "n_steps = 4") \
    .replace("n_modes = 16", "n_modes = 4") \
    + "[parseval]\ns2_max = 10\nn_freq = 11\nhorizon = 0.5\nn_time = 40\n" \
    + "[audit]\ns2_range = -5,5,3\nxi_points = 5\n"
AROUND_MESH = [FUZZ_MESH - 1e-3, FUZZ_MESH, FUZZ_MESH + 1e-3, 0.3]
# [layer] values around sqrt(max double / 3) = 7.74e153, where
# layer-check's system overflows for BASE_CONFIG's layer
AROUND_LAYER_BOUND = [0.0, 1e150, 7.7e153, 7.8e153, 1e154, 1e160]
# s^4 overflows above max double ** (1/4) = 1.158e77, where freq-solve
# draws s1 = 1.15e77 and 1.16e77
QUARTIC_BOUND = np.finfo(float).max ** 0.25
# numerics.s1 below 1e-5 max(sigma0, c / mesh_size) = 1e-5 / FUZZ_MESH
# is rejected (sigma0 = 2, c = 1) by freq-solve and convergence, and so
# is pml.sigma0 above 1e5 s1 = 1e5
S1_FLOOR = 1e-5 / FUZZ_MESH
RECTANGLE = "0.4,0.15; 0.6,0.15; 0.6,0.35; 0.4,0.35"
# (section, key): (a subcommand that reads the key, values at and around
# its documented bound, whether a rule rejects the value).  FUZZ_CONFIG
# has a flat surface at 0, h = 0.5, the inclusion RECTANGLE, the source
# ball at 0.2,0.25 of radius 0.06, mu = lambda = 1, T = 1, s1 = 1 and
# L = 0.4; pml.L and the source center and radius decide whether the
# strip fits around it.
KEY_BOUNDS = {
    ("media", "c"): ("freq-solve", [-1.0, 0.0, 0.5, 2.0],
                     lambda v: v <= 0),
    ("media", "rho0"): ("freq-solve", [-1.0, 0.0, 1e-3, 2.0],
                        lambda v: v <= 0),
    ("media", "rho_e"): ("td-run", [-1.0, 0.0, 1e-3, 2.0],
                         lambda v: v <= 0),
    ("media", "lambda"): ("freq-solve", [-1.0, -0.7, -0.6, 0.0],
                          lambda v: 3 * v + 2 < 0),
    # from about 3e307 Newmark's stiffness Kr overflows
    ("media", "mu"): ("td-run", [-0.5, 0.0, 1e-3, 2.0, 1e307, 3e307, 1e308],
                      lambda v: v < 0 or v >= 3e307),
    # the inclusion's right side is at x1 = 0.6; from 1e200 the grid
    # exceeds mesh.MAX_VERTICES
    ("geom", "period"): ("freq-solve", [-1.0, 0.0, 0.6, 0.7, 2.0, 1e200,
                                        1e308],
                         lambda v: v <= 0.6 or v >= 1e200),
    # the inclusion's top is at x3 = 0.35
    ("geom", "h"): ("freq-solve", [0.3, 0.35, 0.36, 0.5, 1e308],
                    lambda v: v <= 0.35 or v == 1e308),
    # the inclusion's bottom is at 0.15, the source ball's at 0.19;
    # cosine:0.05,1.5 is not periodic
    ("geom", "surface"): ("freq-solve", ["flat", "flat:0.1", "flat:0.15",
                                         "cosine:0.05,1", "cosine:0.05",
                                         "cosine:0.05,1.5", "spline:1,2"],
                          lambda v: v not in ("flat", "flat:0.1",
                                              "cosine:0.05,1")),
    ("geom", "obstacle"): ("freq-solve", [
        "", RECTANGLE, "0.4,0.15; 0.6,0.2; 0.6,0.35; 0.4,0.35",
        "0.1,0.15; 0.3,0.15; 0.3,0.35; 0.1,0.35",   # holds the source
        "0.4,0.15; 0.6,0.15; 0.6,0.5; 0.4,0.5",     # reaches h
        "0.4,0.15; 0.6,0.15; 0.6,0.35"], lambda v: v not in ("", RECTANGLE)),
    # the frequency systems' floor on s1 (S1_FLOOR) is not td-run's
    ("pml", "sigma0"): ("td-run", [-1.0, 0.0, 0.5, 2.0, 2e5],
                        lambda v: v < 0),
    ("pml", "m"): ("td-run", [0, 1, 2], lambda v: v < 1),
    # from 1e155 the grid exceeds mesh.MAX_VERTICES
    ("pml", "L"): ("td-run", AROUND_MESH + [1e155, 1e308],
                   lambda v: v <= FUZZ_MESH or v >= 1e155),
    # the ball's support must clear the surface 0, h = 0.5 and the
    # inclusion
    ("source", "center"): ("freq-solve", ["0.2,0.25", "0.2,0.07", "0.2,0.06",
                                          "0.2,0.43", "0.2,0.44",
                                          "0.35,0.25", "0.2"],
                           lambda v: v not in ("0.2,0.25", "0.2,0.07",
                                               "0.2,0.43")),
    ("source", "radius"): ("freq-solve", [-0.06, 0.0, 0.06, 0.15, 0.25],
                           lambda v: not 0 < v < 0.25),
    # at 5e-324 the step T / 4 underflows to 0; at 5e102 the pulse has
    # decayed to 0 at every step; from 1e160 Newmark's dt^2 overflows
    ("source", "T"): ("td-run", [-1.0, 0.0, 5e-324, 1e-3, 1.0, 4.0, 5e102,
                                 1e160],
                      lambda v: v <= 0 or v in (5e-324, 1e160)),
    # a >= 0, and (s + a -+ i omega0)^4 must be a finite double
    ("source", "a"): ("freq-solve", [-1.0, 0.0, 4.0, 1e76, 1.2e77, 1e78],
                      lambda v: v < 0 or v > QUARTIC_BOUND),
    ("source", "omega0"): ("freq-solve", [0.0, 8.0, 1e76, 1.2e77, 1e78],
                           lambda v: v > QUARTIC_BOUND),
    ("numerics", "mesh_size"): ("freq-solve", [-0.1, 0.0, 0.125, 0.45, 0.5],
                                lambda v: not 0 < v < 0.5),
    ("numerics", "s1"): ("freq-solve", [-1.0, 0.0, 1e-160, 1e-150, 7e-5,
                                        9e-5, 1.0, 1e78],
                         lambda v: not S1_FLOOR < v < QUARTIC_BOUND),
    # from MAX_SAMPLES + 1, as parseval's n_time and n_freq and each
    # layer.n_values entry (numpy refused these arrays at once)
    ("numerics", "n_steps"): ("td-run", [-1, 0, 1, 4, 1000000000000],
                              lambda v: not 1 <= v <= MAX_SAMPLES),
    ("numerics", "n_modes"): ("freq-solve", [-1, 0, 4, 1000],
                              lambda v: v < 0),
    ("numerics", "route"): ("convergence", ["freq", "time", "Freq"],
                            lambda v: v not in ("freq", "time")),
    ("numerics", "variant"): ("freq-solve", ["exact_dtn", "pml_dtn",
                                             "pml_layer", "pml"],
                              lambda v: v == "pml"),
    ("freq", "s2_values"): ("freq-solve", ["", "0", "0,5", "5,5.0000001",
                                           "0,1e200"],
                            lambda v: v in ("5,5.0000001", "0,1e200")),
    # T = 1 in four steps of 0.25
    ("td", "snapshot_times"): ("td-run", ["", "0,1", "0.5,0.51", "-0.1",
                                          "1.1"],
                               lambda v: v in ("0.5,0.51", "-0.1", "1.1")),
    ("sweep", "L_values"): ("convergence", ["0.25,0.5,1", "0.125,0.5,1",
                                            "0.126,0.5,1", "0.25,0.5",
                                            "0.5,0.25,1"],
                            lambda v: v not in ("0.25,0.5,1",
                                                "0.126,0.5,1")),
    ("sweep", "sigma0_values"): ("convergence", ["", "0", "1,2", "-1", "2,1"],
                                 lambda v: v in ("-1", "2,1")),
    # the frequency route does not read L_ref
    ("sweep", "L_ref"): ("convergence", [0.5, 3.0, 1e308], lambda v: False),
    ("audit", "s1_values"): ("symbol-audit", ["1", "0.1,1", "0", "-1",
                                              "1,1e-170", "1,1e160"],
                             lambda v: v not in ("1", "0.1,1")),
    # FUZZ_CONFIG's audit files have 2 s1 values x count x xi_points
    # rows, at most cli.MAX_AUDIT_ROWS
    ("audit", "s2_range"): ("symbol-audit", ["-5,5,3", "-5,5,1", "-5,5,0",
                                             "-5,5,2.5", "-5,5",
                                             "-5,5,1e15"],
                            lambda v: v not in ("-5,5,3", "-5,5,1")),
    ("audit", "xi_points"): ("symbol-audit", [0, 1, 5, 1000000000000],
                             lambda v: not 1 <= 6 * v <= MAX_AUDIT_ROWS),
    ("audit", "sigma0_values"): ("symbol-audit", ["1", "0", "-1", "2,2"],
                                 lambda v: v != "1"),
    ("audit", "L_values"): ("symbol-audit", ["1", "0", "1e-15",
                                             "1,1.0000001"],
                            lambda v: v != "1"),
    ("audit", "m"): ("symbol-audit", [0, 1, 3], lambda v: v < 1),
    ("layer", "xi_values"): ("layer-check", ["0", "", "6.2831853,6.28318531",
                                             "1e154"], lambda v: v != "0"),
    ("layer", "s"): ("layer-check", ["1,0", "0,1", "-1,0", "1", "1e160,0"],
                     lambda v: v != "1,0"),
    ("layer", "n_values"): ("layer-check", ["8,16", "4,8", "16,8", "32",
                                            "8,16.5", "8,1000000000000"],
                            lambda v: v != "8,16"),
    # off the inclusion, between the surface and the layer top 0.9
    ("probes", "points"): ("td-run", ["0.25,0.3", "0.5,0.9", "0.5,0.25",
                                      "0.5,0.95", "0.5,-0.01", "0.25"],
                           lambda v: v not in ("0.25,0.3", "0.5,0.9")),
    ("parseval", "s1"): ("parseval", [-1.0, 0.0, 0.5], lambda v: v <= 0),
    ("parseval", "s2_max"): ("parseval", [-400.0, 0.0, 10.0, 1e308],
                             lambda v: v <= 0 or v == 1e308),
    ("parseval", "n_freq"): ("parseval", [0, 1, 11, 1000000000001],
                             lambda v: not 1 <= v <= MAX_SAMPLES),
    ("parseval", "horizon"): ("parseval", [-1.0, 0.0, 0.5],
                              lambda v: v <= 0),
    ("parseval", "n_time"): ("parseval", [1, 3, 4, 40, 1000000000000],
                             lambda v: not 4 <= v <= MAX_SAMPLES),
}


# the keys whose own bound their schema row enforces, and KEY_BOUNDS'
# rejected values of those keys that a rule joining keys rejects instead
OWN_RULE_KEYS = [("source", "T"), ("source", "radius"), ("source", "a"),
                 ("numerics", "n_steps"), ("numerics", "n_modes"),
                 ("sweep", "L_values"), ("sweep", "sigma0_values"),
                 ("audit", "s2_range"), ("audit", "s1_values"),
                 ("audit", "sigma0_values"), ("audit", "L_values"),
                 ("audit", "m"), ("audit", "xi_points"), ("layer", "s"),
                 ("layer", "n_values"), ("layer", "xi_values"),
                 ("parseval", "s1"), ("parseval", "horizon"),
                 ("parseval", "s2_max"), ("parseval", "n_time"),
                 ("parseval", "n_freq")]
JOINT_REJECTIONS = {
    ("source", "T", 1e160),             # Newmark's step matrix
    ("source", "T", 5e-324),            # Newmark's step
    ("source", "radius", 0.25),         # the ball must fit the strip
    ("source", "a", 1.2e77), ("source", "a", 1e78),   # the pulse transform
    ("sweep", "L_values", "0.125,0.5,1"),               # above mesh_size
    ("audit", "s1_values", "1,1e-170"), ("audit", "s1_values", "1,1e160"),
    ("audit", "L_values", "1e-15"),     # too thin at s1
    # the rows of an audit file
    ("audit", "s2_range", "-5,5,1e15"), ("audit", "xi_points", 1000000000000),
    ("layer", "xi_values", "1e154"), ("layer", "s", "1e160,0"),
}


# One row per rule joining keys: lines on FUZZ_CONFIG that break that
# rule alone, the subcommands that read its keys and exit 2 on them,
# and one that does not and exits as it does on FUZZ_CONFIG (parseval's
# coarse grid fails its gate).  While load_config ran every rule for
# every subcommand, each non-reader exited 2, but for the Newmark row,
# whose readers ended in `error: the Newmark state is not finite`
TIME_ROUTE = ("numerics", "route = time")
RULE_SCOPE = {
    "media": ([("media", "lambda = -1")],
              ["freq-solve", "td-run", "convergence"], ("symbol-audit", 0)),
    "geometry": ([("geom", "h = 0.3")],
                 ["freq-solve", "td-run", "convergence"], ("symbol-audit", 0)),
    "source-ball": ([("source", "radius = 0.3")],
                    ["freq-solve", "td-run", "convergence"], ("parseval", 1)),
    "mesh-size": ([("numerics", "mesh_size = 0.5")],
                  ["freq-solve", "td-run", "convergence"], ("layer-check", 0)),
    "time-step": ([("source", "T = 5e-324"), ("numerics", "n_steps = 2"),
                   TIME_ROUTE], ["td-run", "convergence"], ("freq-solve", 0)),
    "snapshots": ([("td", "snapshot_times = 5")], ["td-run"],
                  ("freq-solve", 0)),
    "s1-square": ([("numerics", "s1 = 1e-160")],
                  ["freq-solve", "convergence"], ("symbol-audit", 0)),
    "s1-floor": ([("pml", "sigma0 = 2e5")], ["freq-solve", "convergence"],
                 ("td-run", 0)),
    "frequency-overflow": ([("freq", "s2_values = 0,1e200")],
                           ["freq-solve", "convergence"], ("td-run", 0)),
    "newmark-overflow": ([("media", "mu = 3e307"), ("freq", "s2_values = "),
                          TIME_ROUTE], ["td-run", "convergence"],
                         ("layer-check", 0)),
    "audit-square": ([("audit", "s1_values = 1,1e-170")], ["symbol-audit"],
                     ("parseval", 1)),
    "audit-floor": ([("audit", "L_values = 1e-15")], ["symbol-audit"],
                    ("freq-solve", 0)),
    "layer-square": ([("layer", "s = 1e-300,0")], ["layer-check"],
                     ("td-run", 0)),
    "layer-floor": ([("pml", "L = 1e-15"), ("numerics", "variant = pml_dtn")],
                    ["layer-check", "freq-solve"], ("symbol-audit", 0)),
    "layer-check-overflow": ([("layer", "xi_values = 1e160")],
                             ["layer-check"], ("freq-solve", 0)),
}


@st.composite
def contract_cases(draw):
    """(command, lines, rejected): values at and around the bounds of
    the rules checked where td-run, freq-solve, convergence, parseval
    and layer-check read them, or at and around one key's documented
    bound, and whether a rule rejects them."""
    if draw(st.booleans()):
        section, key = draw(st.sampled_from(sorted(KEY_BOUNDS)))
        command, values, rejected = KEY_BOUNDS[section, key]
        value = draw(st.sampled_from(values))
        return command, [(section, f"{key} = {value}")], rejected(value)
    command = draw(st.sampled_from(["td-run", "freq-solve", "convergence",
                                    "parseval", "layer-check"]))
    if command == "layer-check":
        # the layer system holds (s^2/c^2 + xi^2) times the damping, which
        # peaks at 1 + sigma0/s1 = 3: 3 (|s|^2 + xi^2) must stay finite;
        # so must the squared step (L/8)^2 and the layer symbol's exponent
        # 2 |beta| L~ <= 4 sqrt(|s|^2 + xi^2) L (L~ = 2 L)
        xi = draw(st.sampled_from(AROUND_LAYER_BOUND))
        s1, s2 = draw(st.sampled_from([(1.0, 0.0), (1.0, 7.7e153),
                                       (7.7e153, 0.0), (1.0, 7.8e153),
                                       (7.8e153, 1.0), (1e160, 0.0),
                                       (1.0, 1e160)]))
        L = draw(st.sampled_from([0.4, 1e155, 1e156, 1e308]))
        with np.errstate(over="ignore"):
            entry = 3.0 * (np.float64(xi) ** 2 + np.float64(s1) ** 2
                           + np.float64(s2) ** 2)
            k = np.hypot(np.hypot(s1, s2), xi)
            finite = np.isfinite([entry, (np.float64(L) / 8) ** 2,
                                  4.0 * k * L])
        return command, [("layer", f"xi_values = {xi!r}"),
                         ("layer", f"s = {s1!r},{s2!r}"),
                         ("layer", "n_values = 8,16"),
                         ("pml", f"L = {L!r}")], not finite.all()
    if command == "parseval":
        s1, horizon = draw(st.sampled_from([-1.0, 0.0, 0.5])), \
            draw(st.sampled_from([-1.0, 0.0, 0.5]))
        n_time, n_freq = draw(st.sampled_from([1, 3, 4, 5, 40])), \
            draw(st.sampled_from([0, 1, 2, 11]))
        s2_max = draw(st.sampled_from([-400.0, 0.0, 1e-300, 10.0]))
        return command, [("parseval", f"s1 = {s1}"),
                         ("parseval", f"horizon = {horizon}"),
                         ("parseval", f"s2_max = {s2_max!r}"),
                         ("parseval", f"n_time = {n_time}"),
                         ("parseval", f"n_freq = {n_freq}")], \
            not (s1 > 0 and horizon > 0 and s2_max > 0 and n_time >= 4
                 and n_freq >= 1)
    if command == "convergence":
        route = draw(st.sampled_from(["freq", "time"]))
        first = draw(st.sampled_from(AROUND_MESH))
        L_values = [first, first + 0.1, first + 0.2]
        L_ref = L_values[-1] + draw(st.sampled_from([-1e-3, 0.0, 1e-3,
                                                     0.5]))
        return command, [
            ("numerics", f"route = {route}"), ("freq", "s2_values = 0,4"),
            ("sweep", "L_values = " + ",".join(map(repr, L_values))),
            ("sweep", f"L_ref = {L_ref!r}")], \
            first <= FUZZ_MESH or (route == "time" and L_ref <= L_values[-1])
    L = draw(st.sampled_from(AROUND_MESH))
    lines = [("pml", f"L = {L!r}")]
    if command == "freq-solve":
        # s1 must clear S1_FLOOR, and the pulse transform's (s + a +- i
        # omega0)^4, about s1^4, must be a finite double
        variant = draw(st.sampled_from(["pml_layer", "exact_dtn"]))
        s1 = draw(st.sampled_from([1.0, 9e-5, 7e-5, 1e-150, 1e-300, 1e60,
                                   1.15e77, 1.16e77, 1e78]))
        s2 = draw(st.sampled_from([0, 3]))
        lines += [("numerics", f"variant = {variant}"),
                  ("numerics", f"s1 = {s1!r}"), ("freq", f"s2_values = {s2}")]
        return command, lines, (variant == "pml_layer" and L <= FUZZ_MESH) \
            or s1 < S1_FLOOR or s1 > QUARTIC_BOUND
    x1 = draw(st.sampled_from([0.0, 0.3, 0.4, 0.5, 0.6, 1.0]))
    x3 = draw(st.sampled_from([-0.01, 0.0, 0.15, 0.25, 0.35, 0.5, 0.5 + L,
                               0.51 + L]))
    lines.append(("probes", f"points = {x1!r},{x3!r}"))
    return command, lines, L <= FUZZ_MESH or not 0 <= x3 <= 0.5 + L \
        or (0.4 < x1 < 0.6 and 0.15 < x3 < 0.35)


def check_exit_contract(command, lines, rejected):
    """Exit 2 exactly when a rule rejects the values, with one
    `configuration error:` line and no manifest; exit 1 only through a
    gate the manifest records; never an `error:` line."""
    text = FUZZ_CONFIG
    for section, line in lines:
        text = with_setting(text, section, line)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "f.ini"), os.path.join(tmp, "out")
        Path(path).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out])
        manifest = os.path.join(out, "manifest.txt")
        assert "error: " not in err.getvalue().replace(
            "configuration error: ", "")
        assert (code == 2) == rejected, (code, err.getvalue())
        if code == 2:
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(manifest)
        elif code == 1:
            gates = Path(manifest).read_text()
            assert "fit_rejected=" in gates or "pass=0" in gates


class TestExitContract:
    @settings(max_examples=60, deadline=None)
    @given(case=contract_cases())
    def test_exits_0_2_or_a_documented_gate(self, case):
        check_exit_contract(*case)

    @pytest.mark.parametrize("section, key, value", [
        (section, key, value) for (section, key), (_, values, _) in
        KEY_BOUNDS.items() for value in values])
    def test_each_documented_bound(self, section, key, value):
        command, _, rejected = KEY_BOUNDS[section, key]
        check_exit_contract(command, [(section, f"{key} = {value}")],
                            rejected(value))

    @pytest.mark.parametrize("lines", [
        [("pml", "L = 1e155")],
        # every error is exactly 0, the mode underflowing on both grids:
        # no order to fit (log 0 raised a RuntimeWarning)
        [("pml", "L = 1e155"), ("layer", "xi_values = 1e150"),
         ("layer", "n_values = 8,16")]], ids=["default-layer", "zero-errors"])
    def test_layer_check_thickest_layer_fails_its_gate(self, tmp_path,
                                                       lines):
        # (L/n)^2 is finite up to L = 1e155 for n >= 8: layer-check runs
        text = BASE_CONFIG
        for section, line in lines:
            text = with_setting(text, section, line)
        path, out = tmp_path / "thick.ini", tmp_path / "out"
        path.write_text(text)
        assert main(["layer-check", "--config", str(path),
                     "--out", str(out)]) == 1
        assert "pass=0" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("section, key, value", [
        (section, key, value) for section, key in OWN_RULE_KEYS
        for value in KEY_BOUNDS[section, key][1]
        if KEY_BOUNDS[section, key][2](value)
        and (section, key, value) not in JOINT_REJECTIONS])
    def test_own_rule_names_its_key(self, tmp_path, capsys, section, key,
                                    value):
        # one `configuration error: section.key:` line, exit 2, no manifest
        path, out = tmp_path / "own.ini", tmp_path / "out"
        path.write_text(with_setting(FUZZ_CONFIG, section,
                                     f"{key} = {value}"))
        assert main([KEY_BOUNDS[section, key][0], "--config", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {section}.{key}:") \
            and err.count("\n") == 1, err
        assert not (out / "manifest.txt").exists()

    def test_snapshots_keep_distinct_file_names(self, tmp_path, capsys,
                                                monkeypatch):
        # dt = 2.5e-7: 0.1 and 0.1000002 snap to steps 400,000 and
        # 400,001, whose times 0.1 and 0.10000025 both name p_t0.1.txt;
        # td-run checks them before its run
        def newmark_run(*args, **kwargs):
            raise RuntimeError("run reached")
        monkeypatch.setattr(pmlstrip.cli, "newmark_run", newmark_run)
        text = with_setting(BASE_CONFIG, "source", "T = 0.25")
        text = with_setting(text, "numerics", "n_steps = 1000000")
        assert round(0.1 / 2.5e-7) != round(0.1000002 / 2.5e-7)
        path = tmp_path / "snap.ini"
        for times, ok in [("0.1,0.1000002", False), ("0.1,0.1000012", True)]:
            path.write_text(with_setting(text, "td",
                                         f"snapshot_times = {times}"))
            code = main(["td-run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert (code, err) == (1, "error: run reached\n") if ok else \
                code == 2 and "td.snapshot_times" in err

    @pytest.mark.parametrize("n_steps, bound, reaches_run", [
        (40, 41 * 89, True), (40, 41 * 89 - 1, False),
        (MAX_SAMPLES, None, False)])
    def test_time_route_history_bounded_before_any_run(
            self, tmp_path, capsys, monkeypatch, n_steps, bound, reaches_run):
        # BASE_CONFIG's sub-layer mesh has 89 dofs: a history holds
        # (n_steps + 1) x 89 values, checked before any Newmark run
        def newmark_run(*args, **kwargs):
            raise RuntimeError("run reached")
        monkeypatch.setattr(pmlstrip.cli, "newmark_run", newmark_run)
        if bound is not None:
            monkeypatch.setattr(pmlstrip.cli, "MAX_HISTORY", bound)
        path, out = tmp_path / "hist.ini", tmp_path / "out"
        path.write_text(with_setting(with_setting(
            BASE_CONFIG, "numerics", "route = time"), "numerics",
            f"n_steps = {n_steps}"))
        code = main(["convergence", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if reaches_run:
            assert (code, err) == (1, "error: run reached\n")
        else:
            assert code == 2 and err.count("\n") == 1 and err.startswith(
                "configuration error: numerics.n_steps"), err

    @pytest.mark.parametrize("bound, reaches_run", [(2 * 137, True),
                                                    (2 * 137 - 1, False)])
    def test_td_snapshots_bounded_before_the_run(
            self, tmp_path, capsys, monkeypatch, bound, reaches_run):
        # BASE_CONFIG's layer mesh has 137 dofs: two snapshots keep
        # 2 x 137 values, checked before the Newmark run
        def newmark_run(*args, **kwargs):
            raise RuntimeError("run reached")
        monkeypatch.setattr(pmlstrip.cli, "newmark_run", newmark_run)
        monkeypatch.setattr(pmlstrip.cli, "MAX_HISTORY", bound)
        path, out = tmp_path / "snap.ini", tmp_path / "out"
        path.write_text(with_setting(BASE_CONFIG, "td",
                                     "snapshot_times = 0.5,1"))
        code = main(["td-run", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if reaches_run:
            assert (code, err) == (1, "error: run reached\n")
        else:
            assert code == 2 and err == (
                "configuration error: td.snapshot_times and "
                "numerics.mesh_size: 2 snapshots of 137 dofs are above "
                f"{bound} values\n")
            assert os.listdir(out) == []

    @pytest.mark.parametrize("rule", sorted(RULE_SCOPE))
    def test_rule_runs_where_its_keys_are_read(self, tmp_path, rule):
        lines, readers, (other, usual) = RULE_SCOPE[rule]
        text = FUZZ_CONFIG
        for section, line in lines:
            text = with_setting(text, section, line)
        path = tmp_path / "scope.ini"
        path.write_text(text)
        for command in readers + [other]:
            out = tmp_path / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path),
                             "--out", str(out)])
            if command == other:
                assert code == usual, (command, err.getvalue())
            else:
                assert code == 2 and err.getvalue().count("\n") == 1 \
                    and not (out / "manifest.txt").exists(), \
                    (command, err.getvalue())

    @pytest.mark.parametrize("command", ["td-run", "convergence"])
    @pytest.mark.parametrize("mu", ["3e307", "1e308"])
    def test_newmark_step_matrices_overflow(self, tmp_path, capsys, command,
                                            mu):
        # Newmark's stiffness Kr overflows while A_eff, scaled by dt^2,
        # stays finite; with no frequency to check, this ended in
        # `error: the Newmark state is not finite`
        text = BASE_CONFIG + f"[media]\nmu = {mu}\n[freq]\ns2_values =\n"
        path, out = tmp_path / "stiff.ini", tmp_path / "out"
        path.write_text(with_setting(text, "numerics", "route = time"))
        assert main([command, "--config", str(path), "--out", str(out)]) \
            == 2
        assert capsys.readouterr().err == "configuration error: media, " \
            "source.T and numerics.n_steps: a Newmark step matrix overflows\n"
        assert not (out / "manifest.txt").exists()

    def test_bounds_cover_every_key(self):
        assert set(KEY_BOUNDS) == {(section, key) for section, keys in
                                   SCHEMA.items() for key in keys}


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
        s = complex(cfg.pml.s1, s2)
        scale = complex(cfg.source.pulse.laplace(s))
        sol = solve_frequency(assemble(blk, cfg.media, s, cfg.source.spatial,
                                       scale, variant, cfg.pml))
        ratios = stability_ratios(blk, s, sol.x, abs(scale) * chi)
        p_hat, u_hat = dofs_to_nodal(blk, sol.x)
        reference_write_field(os.path.join(out, f"p_hat_s2_{s2:g}.txt"),
                              p_hat)
        reference_write_field(os.path.join(out, f"u_hat_s2_{s2:g}.txt"),
                              u_hat)
        rows.append((cfg.pml.s1, s2, ratios["fluid_lhs"], ratios["solid_lhs"],
                     ratios["fluid_ratio"], ratios["solid_ratio"],
                     sol.residual))
    reference_write_csv(os.path.join(out, "freq_summary.csv"),
                        ["s1", "s2", "fluid_lhs", "solid_lhs", "fluid_ratio",
                         "solid_ratio", "residual"], rows)


def nodal_to_dofs(blk, p, u):
    """Per-vertex pressure and displacement packed into a dof
    vector: the nodal reference for the dof-frame comparison."""
    x = np.zeros(blk.dof.size, dtype=np.result_type(p, u))
    x[:blk.dof.n_p] = p[blk.dof.p_nodes]
    x[blk.dof.n_p::2] = u[blk.dof.u_nodes, 0]
    x[blk.dof.n_p + 1::2] = u[blk.dof.u_nodes, 1]
    return x


def serial_freq_route_errors(cfg, L_values):
    """The freq-route sweep's squared gaps from one serial loop over the
    frequencies per layer, summed in s order."""
    num, chi = cfg.numerics, cfg.source.spatial
    blk_ref = build_blocks(build_mesh(cfg.geometry, None, num["mesh_size"]),
                           num["n_modes"])
    nv = blk_ref.mesh.n_vertices
    s_list = [complex(cfg.pml.s1, s2) for s2 in num["freq_s2_values"]]

    def solve(blk, s, variant):
        return solve_frequency(assemble(blk, cfg.media, s, chi, complex(
            cfg.source.pulse.laplace(s)), variant))
    refs = [solve(blk_ref, s, "exact_dtn") for s in s_list]
    errors = []
    for L in L_values:
        pml = replace(cfg.pml, L=L)
        blk = build_blocks(build_mesh(cfg.geometry, pml, num["mesh_size"]),
                           num["n_modes"])
        err_sq = 0.0
        for s, ref in zip(s_list, refs):
            p, u = dofs_to_nodal(blk, solve(blk, s, "pml_layer").x)
            p_ref, u_ref = dofs_to_nodal(blk_ref, ref.x)
            err_sq += h_norm_sq(blk_ref, nodal_to_dofs(
                blk_ref, p[:nv] - p_ref, u[:nv] - u_ref))
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
        # eight processes on any machine: the term table the solves
        # share, and its copy in the frequency matrices' order, are each
        # built once, by the caller before the fork, and the outputs
        # still equal the serial loop's
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        form, builders = pmlstrip.fem.AffineForm, []

        def counted(**fields):
            builders.append(os.getpid())
            return form(**fields)
        monkeypatch.setattr(pmlstrip.fem, "AffineForm", counted)
        path = tmp_path / "f.ini"
        path.write_text(BASE_CONFIG + "variant = pml_layer\n[freq]\n"
                        "s2_values = " + ",".join(map(str, range(16))) + "\n")
        out = tmp_path / "out"
        assert main(["freq-solve", "--config", str(path),
                     "--out", str(out)]) == 0
        assert builders == [os.getpid()] * 2
        ref = tmp_path / "ref"
        ref.mkdir()
        serial_freq_solve(load_config(str(path)), str(ref))
        for name in os.listdir(ref):
            assert same_bytes(out / name, ref / name), name
