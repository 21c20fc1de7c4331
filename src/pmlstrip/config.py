"""Configuration files for the command line harness.

Plain INI files parsed with configparser.  Sections mirror the
documented key groups: [media], [geom], [pml], [source], plus harness
controls in [numerics], [sweep], [audit], [layer] and [probes].  See
the README for the full schema.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .fem import VARIANTS, frequency_weights, term_weights
from .mesh import check_grid
from .model import Geometry, MediaParams, PmlProfile, Pulse, Rectangle, \
    SourceSpec, SurfaceProfile, check_source, validate_media
from .symbols import DEGENERATE_DENOMINATOR, layer_denominator_floor
from .timedomain import NEWMARK_BETA


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text!r} is not a finite number")
    return value


def _floats(text: str) -> list[float]:
    """Comma- or semicolon-separated finite numbers; [] if empty."""
    return [_finite(tok) for tok in text.replace(";", ",").split(",")
            if tok.strip()]


def _pair(text: str) -> tuple[float, float]:
    xy = _floats(text)
    if len(xy) != 2:
        raise ConfigError(f"expected two numbers: {text!r}")
    return xy[0], xy[1]


def _points(text: str) -> np.ndarray:
    """`x,z; x,z; ...` as an (n, 2) array."""
    return np.array([_pair(chunk) for chunk in text.split(";")
                     if chunk.strip()], dtype=float).reshape(-1, 2)


def _choice(*names: str):
    def parse(text: str) -> str:
        if text not in names:
            raise ConfigError(f"must be {', '.join(names[:-1])} or "
                              f"{names[-1]}")
        return text
    return parse


def _surface(spec: str):
    """The profile as a function of the period, and the bytes of its
    samples file (b"" if none)."""
    kind, sep, arg = spec.partition(":")
    if kind == "flat":
        level = _finite(arg) if sep else 0.0
        return lambda period: SurfaceProfile.flat(level), b""
    if kind == "cosine":
        vals = _floats(arg)
        if len(vals) != 2:
            raise ConfigError("cosine surface needs amplitude,frequency")
        return lambda period: SurfaceProfile.cosine(*vals, period), b""
    if kind == "file":
        path = arg.strip()
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read surface file {path!r}") from exc
        data = np.loadtxt(raw.decode().splitlines())
        if data.ndim != 2 or data.shape[1] != 2 \
                or not np.isfinite(data).all():
            raise ConfigError("surface file must have two columns x1, f "
                              "of finite numbers")
        return lambda period: SurfaceProfile.from_samples(*data.T,
                                                         period), raw
    raise ConfigError(f"unknown surface spec {spec!r}")


def _obstacle(text: str):
    """Parse a polygon vertex list; only axis-aligned rectangles are
    supported (four vertices)."""
    pts = _points(text)
    if pts.size == 0:
        return None
    if pts.shape[0] != 4:
        raise ConfigError("obstacle polygon must have exactly 4 vertices "
                          "(axis-aligned rectangle)")
    x1s, x3s = sorted(set(pts[:, 0])), sorted(set(pts[:, 1]))
    if len(x1s) != 2 or len(x3s) != 2:
        raise ConfigError("obstacle polygon must be an axis-aligned "
                          "rectangle")
    corners = {(a, b) for a in x1s for b in x3s}
    if {(p[0], p[1]) for p in pts} != corners:
        raise ConfigError("obstacle polygon must be an axis-aligned "
                          "rectangle")
    return Rectangle(x1s[0], x1s[1], x3s[0], x3s[1])


# section -> key -> (default, parser).  The config digest hashes the
# default strings, so changing one changes every run's config_sha256.
SCHEMA = {
    "media": {"c": ("1.0", _finite), "rho0": ("1.0", _finite),
              "rho_e": ("1.0", _finite), "lambda": ("1.0", _finite),
              "mu": ("1.0", _finite)},
    "geom": {"period": ("1.0", _finite), "h": ("0.5", _finite),
             "surface": ("flat", _surface), "obstacle": ("", _obstacle)},
    "pml": {"sigma0": ("2.0", _finite), "m": ("1", int),
            "L": ("1.0", _finite)},
    "source": {"center": ("0.5,0.25", _pair), "radius": ("0.08", _finite),
               "T": ("2.0", _finite), "a": ("4.0", _finite),
               "omega0": ("8.0", _finite)},
    "numerics": {"mesh_size": ("0.05", _finite),
                 "s1": ("", lambda text: _finite(text) if text else None),
                 "n_steps": ("400", int), "n_modes": ("64", int),
                 "route": ("freq", _choice("freq", "time")),
                 "variant": ("exact_dtn", _choice(*VARIANTS))},
    "freq": {"s2_values": ("0,5,10", _floats)},
    "td": {"snapshot_times": ("", _floats)},
    "sweep": {"L_values": ("0.25,0.5,1.0", _floats),
              "sigma0_values": ("", _floats), "L_ref": ("3.0", _finite)},
    "audit": {"s1_values": ("1.0,0.1", _floats),
              "s2_range": ("-50,50,201", _floats),
              "xi_points": ("401", int),
              "sigma0_values": ("1,2,4", _floats),
              "L_values": ("0.5,1,2", _floats), "m": ("1", int)},
    "layer": {"xi_values": ("0.0,6.283185307179586", _floats),
              "s": ("1.0,0.0", _pair),
              "n_values": ("32,64,128,256", _floats)},
    "probes": {"points": ("0.25,0.3; 0.5,0.35; 0.75,0.3", _points)},
    "parseval": {"s1": ("1.0", _finite), "s2_max": ("400.0", _finite),
                 "n_freq": ("8001", int), "horizon": ("40.0", _finite),
                 "n_time": ("16000", int)},
}


@dataclass
class RunConfig:
    """Everything a subcommand needs, parsed and validated."""

    media: MediaParams
    geometry: Geometry
    pml: PmlProfile
    source: SourceSpec
    numerics: dict
    sweep: dict
    audit: dict
    layer: dict
    probes: np.ndarray
    parseval: dict
    digest: str = ""


def _distinct_names(what: str, names: list[str]) -> None:
    """Reject values that would share an output file: files are named
    after their values in the `:g` format, so distinct values can
    collide."""
    if len(set(names)) < len(names):
        raise ConfigError(f"{what} give two output files the same name")


def _in_range(keys: str, what: str, numbers, floor: float = 0.0) -> None:
    """The one numeric-range rule: a ConfigError naming keys unless every
    number v listed by numbers() (warnings off) has floor <= |v| < inf."""
    try:
        with np.errstate(all="ignore"):
            v = np.abs(np.concatenate([np.ravel(x) for x in numbers()]))
    except ArithmeticError:     # a Python float power overflows, or x / 0
        v = np.inf
    if not np.all((floor <= v) & (v < np.inf)):
        raise ConfigError(f"{keys}: {what}")


# numerics.s1 over the faster of the layer's damping rate sigma0 and a
# wave's rate c / mesh_size across one mesh cell: the least ratio the
# frequency systems resolve
ABSCISSA_FLOOR = 1e-5


def load_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.read_dict({sec: {key: default for key, (default, _) in keys.items()}
                  for sec, keys in SCHEMA.items()})
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    for sec in cp.sections():   # a misspelt name would be silently ignored
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        unknown = set(cp[sec]) - {key.lower() for key in SCHEMA[sec]}
        if unknown:
            raise ConfigError(f"unknown key(s) in [{sec}]: "
                              + ", ".join(sorted(unknown)))
    p = {}
    for sec, keys in SCHEMA.items():
        p[sec] = {}
        for key, (_, parse) in keys.items():
            try:
                p[sec][key] = parse(cp.get(sec, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{sec}.{key}: {exc}") from exc

    try:
        med, geo, src = p["media"], p["geom"], p["source"]
        media = MediaParams(c=med["c"], rho0=med["rho0"], rho_e=med["rho_e"],
                            lam=med["lambda"], mu=med["mu"])
        bad = validate_media(media)
        if bad:
            raise ConfigError("inadmissible media: " + ", ".join(bad))

        make_surface, surface_bytes = geo["surface"]
        geometry = Geometry(period=geo["period"],
                            surface=make_surface(geo["period"]),
                            h=geo["h"], obstacle=geo["obstacle"])

        T = src["T"]
        # for a < 0 the pulse grows, and has no transform at Re s <= -a
        if not (T > 0 and src["radius"] > 0 and src["a"] >= 0):
            raise ConfigError("source needs T > 0, radius > 0 and a >= 0")
        s1 = p["numerics"].pop("s1")   # kept once, as pml.s1
        s1 = 1.0 / T if s1 is None else s1
        pml = PmlProfile(s1=s1, **p["pml"])

        source = SourceSpec(center=src["center"], radius=src["radius"], T=T,
                            pulse=Pulse(a=src["a"], omega0=src["omega0"]))
        check_source(source, geometry)

        numerics = {**p["numerics"],
                    "freq_s2_values": p["freq"]["s2_values"],
                    "snapshot_times": p["td"]["snapshot_times"]}
        _distinct_names("freq.s2_values", [f"{v:g}" for v in
                                           numerics["freq_s2_values"]])
        check_grid(geometry, None, numerics["mesh_size"])
        if numerics["n_steps"] < 1 or numerics["n_modes"] < 0:
            raise ConfigError("numerics needs n_steps >= 1 and n_modes >= 0")
        # Newmark snaps each time to its nearest step of dt = T / n_steps
        snap, dt = numerics["snapshot_times"], T / numerics["n_steps"]
        if not all(0 <= ts <= T for ts in snap) \
                or len({round(ts / dt) for ts in snap}) < len(snap):
            raise ConfigError("td.snapshot_times must lie in [0, T], on "
                              "distinct time steps")

        sweep = p["sweep"]
        for key in ("L_values", "sigma0_values"):
            vals = sweep[key]
            if vals and not np.all(np.diff(vals) > 0):
                raise ConfigError(f"sweep.{key} must be strictly "
                                  "increasing")
        if any(v < 0 for v in sweep["sigma0_values"]):
            raise ConfigError("sweep.sigma0_values must be >= 0")

        audit = p["audit"]
        rng = audit["s2_range"]
        if len(rng) != 3 or not rng[2].is_integer() or rng[2] < 1:
            raise ConfigError("audit.s2_range must be min,max,count with "
                              "a positive integer count")
        # run_symbol_audit builds the grid: nothing here is sized by a value
        audit["s2_range"] = (rng[0], rng[1], int(rng[2]))
        for key in ("s1_values", "sigma0_values", "L_values"):
            if not audit[key] or not all(v > 0 for v in audit[key]):
                raise ConfigError(f"audit.{key} must be nonempty and "
                                  "positive")
        if audit["m"] < 1 or audit["xi_points"] < 1:
            raise ConfigError("audit.m and audit.xi_points must be >= 1")
        _distinct_names("audit (sigma0, L) pairs",
                        [f"sigma{sigma0:g}_L{L:g}"
                         for sigma0 in audit["sigma0_values"]
                         for L in audit["L_values"]])

        s_pair, n_values = p["layer"]["s"], p["layer"]["n_values"]
        if not s_pair[0] > 0:
            raise ConfigError("layer.s must be s1,s2 with s1 > 0")
        if len(n_values) < 2 or not all(v.is_integer() and v >= 8
                                        for v in n_values) \
                or not np.all(np.diff(n_values) > 0):
            raise ConfigError("layer.n_values must be two or more "
                              "increasing integers >= 8")
        layer = {"xi_values": p["layer"]["xi_values"],
                 "s": complex(*s_pair),
                 "n_values": [int(v) for v in n_values]}
        if not layer["xi_values"]:
            raise ConfigError("layer.xi_values must be nonempty")
        _distinct_names("layer.xi_values",
                        [f"{v:g}" for v in layer["xi_values"]])

        parseval = p["parseval"]
        # n_time + 1 samples: the end-corrected time rule reads five
        if not (parseval["s1"] > 0 and parseval["horizon"] > 0
                and parseval["s2_max"] > 0 and parseval["n_time"] >= 4
                and parseval["n_freq"] >= 1):
            raise ConfigError("parseval needs s1 > 0, horizon > 0, "
                              "s2_max > 0, n_time >= 4 and n_freq >= 1")

        # The numbers the runs derive, each a double in range.  The
        # symbols take the root of s^2/c^2 + xi^2, which lands on the
        # branch cut once (s1/c)^2 underflows and is lost once it overflows
        c, abscissas = media.c, [s1, *audit["s1_values"], s_pair[0]]
        _in_range("numerics.s1, audit.s1_values or layer.s, over media.c",
                  "(s1/c)^2 is not a normal double",
                  lambda: [(v / c) ** 2 for v in abscissas],
                  np.finfo(float).tiny)
        # Below this floor the frequency systems at s2 = 0 lose their
        # slowest modes to rounding.  A layer's relative residual grows
        # like 1e-16 sigma0/s1 (flat and inclusion strips, meshes 0.125 to
        # 0.05, c = 0.1 to 10: 2e-10 at sigma0/s1 = 2e6, failing the
        # residual check from about 1e8), and an inclusion without a layer
        # failed its check at s1 = 1e-10 (mesh 0.125); at s1 = 1e-150 its
        # mass terms underflow
        floor = ABSCISSA_FLOOR * max(pml.sigma0, c / numerics["mesh_size"])
        _in_range("numerics.s1", f"below {ABSCISSA_FLOOR:g} max(sigma0, "
                  f"c / mesh_size) = {floor:g}", lambda: [s1], floor)
        # the frequency systems at each s = s1 + i s2: the weights theta(s)
        # grow like |s|^3, and past a finite (s + a -+ i omega0)^4 the
        # pulse transform reads 0 or nan
        s = s1 + 1j * np.array(numerics["freq_s2_values"])
        _in_range("media, source, numerics.s1 and freq.s2_values",
                  "the frequency system overflows",
                  lambda: [frequency_weights(media, s[:, None]),
                           *source.pulse.laplace_denominators(s)])
        w_M, w_K = term_weights(media)
        _in_range("media, source.T and numerics.n_steps",
                  "the Newmark step matrix overflows",
                  lambda: [w_M + NEWMARK_BETA * dt * dt * w_K])
        # The floor of a layer symbol's denominator at Re s = s1 must
        # clear the degeneracy guard twice over, so that rounding in the
        # symbol cannot trip the guard.  The boundary-map solves run at
        # Re s = s1, layer-check at layer.s
        layers = [(min(s1, s_pair[0]), pml)] + [
            (v, PmlProfile(sigma0=sigma0, m=audit["m"], L=L, s1=v))
            for v in audit["s1_values"] for sigma0 in audit["sigma0_values"]
            for L in audit["L_values"]]
        _in_range("pml or audit", "a layer is too thin for its boundary "
                  "symbol", lambda: [layer_denominator_floor(v, c, lay.L_tilde)
                                     for v, lay in layers],
                  2.0 * DEGENERATE_DENOMINATOR)
        # layer-check: fd_layer_solve's largest entry is below 2 (n/L)^2 +
        # k^2 sigma_max, with k^2 = |s|^2/c^2 + xi^2 >= |s^2/c^2 + xi^2|
        # and the damping peaking at sigma_max = 1 + sigma0/s1 on the
        # layer top; it squares its widest grid step L/n; and the layer
        # symbol takes exp(-2 beta L~), with |beta| <= k
        def layer_check():
            n, k = layer["n_values"], np.hypot(
                np.abs(layer["s"]) / c, np.max(np.abs(layer["xi_values"])))
            return [2.0 * (max(n) / pml.L) ** 2
                    + k * k * (1.0 + pml.sigma0 / s1),
                    (pml.L / min(n)) ** 2, 2.0 * k * pml.L_tilde]
        _in_range("layer with pml", "layer-check overflows", layer_check)
        # parseval's frequency grid spans [-s2_max, s2_max]
        _in_range("parseval.s2_max", "2 s2_max overflows",
                  lambda: [2.0 * parseval["s2_max"]])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    digest = hashlib.sha256(repr(sorted(
        (sec, tuple(sorted(cp.items(sec)))) for sec in cp.sections()
    )).encode())
    if surface_bytes:   # the samples file is an input too
        digest.update(hashlib.sha256(surface_bytes).digest())
    return RunConfig(media=media, geometry=geometry, pml=pml,
                     source=source, numerics=numerics, sweep=sweep,
                     audit=audit, layer=layer, probes=p["probes"]["points"],
                     parseval=parseval, digest=digest.hexdigest())
