"""Configuration files for the command line harness.

Plain INI files parsed with configparser.  Sections mirror the
documented key groups: [media], [geom], [pml], [source], plus harness
controls in [numerics], [sweep], [audit], [layer] and [probes].  See
the README for the full schema.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .fem import VARIANTS
from .model import Geometry, MediaParams, PmlProfile, Pulse, Rectangle, \
    SourceSpec, SurfaceProfile, check_source, validate_media
from .symbols import DEGENERATE_DENOMINATOR, layer_denominator_floor


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


DEFAULTS = {
    "media": {"c": "1.0", "rho0": "1.0", "rho_e": "1.0",
              "lambda": "1.0", "mu": "1.0"},
    "geom": {"period": "1.0", "h": "0.5", "surface": "flat",
             "obstacle": ""},
    "pml": {"sigma0": "2.0", "m": "1", "L": "1.0"},
    "source": {"center": "0.5,0.25", "radius": "0.08", "T": "2.0",
               "a": "4.0", "omega0": "8.0"},
    "numerics": {"mesh_size": "0.05", "s1": "", "n_steps": "400",
                 "n_modes": "64", "route": "freq", "variant": "exact_dtn"},
    "freq": {"s2_values": "0,5,10"},
    "td": {"snapshot_times": ""},
    "sweep": {"L_values": "0.25,0.5,1.0", "sigma0_values": "",
              "L_ref": "3.0"},
    "audit": {"s1_values": "1.0,0.1", "s2_range": "-50,50,201",
              "xi_points": "401", "sigma0_values": "1,2,4",
              "L_values": "0.5,1,2", "m": "1"},
    "layer": {"xi_values": "0.0,6.283185307179586", "s": "1.0,0.0",
              "n_values": "32,64,128,256"},
    "probes": {"points": "0.25,0.3; 0.5,0.35; 0.75,0.3"},
    "parseval": {"s1": "1.0", "s2_max": "400.0", "n_freq": "8001",
                 "horizon": "40.0", "n_time": "16000"},
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


def _floats(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [float(tok) for tok in text.replace(";", ",").split(",")
                if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers: {text!r}") \
            from exc


def _distinct_names(what: str, names: list[str]) -> None:
    """Reject values that would share an output file: files are named
    after their values in the `:g` format, so distinct values can
    collide."""
    if len(set(names)) < len(names):
        raise ConfigError(f"{what} give two output files the same name")


def _resolvable_layer(what: str, pml: PmlProfile, s1: float,
                      c: float) -> None:
    """Reject a layer too thin for its symbol at Re s = s1: the floor of
    the symbol's denominator must clear the degeneracy guard twice over,
    so that rounding in the symbol cannot trip the guard."""
    if not layer_denominator_floor(s1, c, pml.L_tilde) \
            >= 2.0 * DEGENERATE_DENOMINATOR:
        raise ConfigError(f"{what}: layer L = {pml.L:g} is too thin for "
                          f"its boundary symbol at s1 = {s1:g}")


def _normal_square(what: str, s1: float, c: float) -> None:
    """Reject a Laplace abscissa whose square is not a normal double: the
    symbols take the root of s^2/c^2 + xi^2, which at s = s1, xi = 0
    lands on the branch cut once (s1/c)^2 underflows and is lost once it
    overflows."""
    r = s1 / c     # r * r overflows to inf, where r ** 2 would raise
    if not np.finfo(float).tiny <= r * r < np.inf:
        raise ConfigError(f"{what} = {s1:g} is out of range: (s1/c)^2 "
                          "is not a normal double")


def _finite_pulse_transform(pulse: Pulse, s1: float, s2_values) -> None:
    """Reject a Laplace frequency s = s1 + i s2 at which the pulse
    transform's denominators (s + a -+ i omega0)^4, computed as
    Pulse.laplace computes them, are not finite doubles: the transform
    then reads 0 or nan, and the weights theta(s) of the frequency
    system, which grow like |s|^3, overflow soon after."""
    s = np.array([complex(s1, s2) for s2 in s2_values], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite((s + pulse.a - 1j * pulse.omega0) ** 4) \
            & np.isfinite((s + pulse.a + 1j * pulse.omega0) ** 4)
    if not finite.all():
        raise ConfigError("numerics.s1 with freq.s2_values: (s + a +- i "
                          "omega0)^4 is not a finite double at s = "
                          f"{s[~finite][0]:g}")


def _finite_layer_system(layer: dict, pml: PmlProfile, c: float) -> None:
    """Reject [layer] values that overflow fd_layer_solve's system: its
    largest entry is below 2 (n/L)^2 + |k2| sigma_max, where
    |k2| = |s^2/c^2 + xi^2| <= |s|^2/c^2 + xi^2 and the damping peaks at
    sigma_max = 1 + sigma0/s1 on the layer top."""
    s, xi = layer["s"], np.max(np.abs(layer["xi_values"]))
    with np.errstate(over="ignore"):
        k = np.hypot(np.hypot(s.real, s.imag) / c, xi)
        bound = 2.0 * (np.float64(max(layer["n_values"])) / pml.L) ** 2 \
            + k * k * (1.0 + np.float64(pml.sigma0) / pml.s1)
    if not np.isfinite(bound):
        raise ConfigError("layer: the finite-difference system overflows: "
                          "(|s|^2/c^2 + xi^2)(1 + sigma0/s1) + 2 (n/L)^2 "
                          "is not a finite double")


def _points(text: str) -> np.ndarray:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        xy = _floats(chunk)
        if len(xy) != 2:
            raise ConfigError(f"point needs two coordinates: {chunk!r}")
        pts.append(xy)
    return np.array(pts, dtype=float).reshape(-1, 2)


def _surface(spec: str, period: float) -> tuple[SurfaceProfile, bytes]:
    """The profile and the bytes of its samples file (b"" if none)."""
    spec = spec.strip()
    if spec == "flat":
        return SurfaceProfile.flat(0.0), b""
    if spec.startswith("flat:"):
        return SurfaceProfile.flat(float(spec.split(":", 1)[1])), b""
    if spec.startswith("cosine:"):
        vals = _floats(spec.split(":", 1)[1])
        if len(vals) != 2:
            raise ConfigError("cosine surface needs amplitude,frequency")
        return SurfaceProfile.cosine(vals[0], vals[1], period), b""
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1].strip()
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read surface file {path!r}") from exc
        data = np.loadtxt(raw.decode().splitlines())
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError("surface file must have two columns x1, f")
        return SurfaceProfile.from_samples(*data.T, period), raw
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


def load_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    for sec in cp.sections():   # a misspelt name would be silently ignored
        if sec not in DEFAULTS:
            raise ConfigError(f"unknown section [{sec}]")
        unknown = set(cp[sec]) - {key.lower() for key in DEFAULTS[sec]}
        if unknown:
            raise ConfigError(f"unknown key(s) in [{sec}]: "
                              + ", ".join(sorted(unknown)))

    try:
        media = MediaParams(
            c=cp.getfloat("media", "c"),
            rho0=cp.getfloat("media", "rho0"),
            rho_e=cp.getfloat("media", "rho_e"),
            lam=cp.getfloat("media", "lambda"),
            mu=cp.getfloat("media", "mu"))
        bad = validate_media(media)
        if bad:
            raise ConfigError("inadmissible media: " + ", ".join(bad))

        period = cp.getfloat("geom", "period")
        surface, surface_bytes = _surface(cp.get("geom", "surface"), period)
        geometry = Geometry(
            period=period,
            surface=surface,
            h=cp.getfloat("geom", "h"),
            obstacle=_obstacle(cp.get("geom", "obstacle")))

        T = cp.getfloat("source", "T")
        s1_default = 1.0 / T
        s1_text = cp.get("numerics", "s1").strip()
        s1 = float(s1_text) if s1_text else s1_default
        pml = PmlProfile(sigma0=cp.getfloat("pml", "sigma0"),
                         m=cp.getint("pml", "m"),
                         L=cp.getfloat("pml", "L"), s1=s1)
        _normal_square("numerics.s1", s1, media.c)

        center = _floats(cp.get("source", "center"))
        if len(center) != 2:
            raise ConfigError("source.center needs two coordinates")
        source = SourceSpec(center=(center[0], center[1]),
                            radius=cp.getfloat("source", "radius"), T=T,
                            pulse=Pulse(a=cp.getfloat("source", "a"),
                                        omega0=cp.getfloat("source",
                                                           "omega0")))
        check_source(source, geometry)

        numerics = {
            "mesh_size": cp.getfloat("numerics", "mesh_size"),
            "s1": s1,
            "n_steps": cp.getint("numerics", "n_steps"),
            "n_modes": cp.getint("numerics", "n_modes"),
            "route": cp.get("numerics", "route").strip(),
            "variant": cp.get("numerics", "variant").strip(),
            "freq_s2_values": _floats(cp.get("freq", "s2_values")),
            "snapshot_times": _floats(cp.get("td", "snapshot_times")),
        }
        _distinct_names("freq.s2_values", [f"{v:g}" for v in
                                           numerics["freq_s2_values"]])
        _finite_pulse_transform(source.pulse, s1,
                                numerics["freq_s2_values"])
        if not 0 < numerics["mesh_size"] < geometry.h - surface.f_plus \
                or numerics["n_steps"] < 1 or numerics["n_modes"] < 0:
            raise ConfigError("numerics needs 0 < mesh_size < h - f_plus, "
                              "n_steps >= 1 and n_modes >= 0")
        # Newmark snaps each time to its nearest step of dt = T / n_steps
        snap, dt = numerics["snapshot_times"], T / numerics["n_steps"]
        if not all(0 <= ts <= T for ts in snap) \
                or len({round(ts / dt) for ts in snap}) < len(snap):
            raise ConfigError("td.snapshot_times must lie in [0, T], on "
                              "distinct time steps")
        if numerics["route"] not in ("freq", "time"):
            raise ConfigError("numerics.route must be freq or time")
        if numerics["variant"] not in VARIANTS:
            raise ConfigError("numerics.variant must be "
                              f"{', '.join(VARIANTS[:-1])} or {VARIANTS[-1]}")

        sweep = {
            "L_values": _floats(cp.get("sweep", "L_values")),
            "sigma0_values": _floats(cp.get("sweep", "sigma0_values")),
            "L_ref": cp.getfloat("sweep", "L_ref"),
        }
        for key in ("L_values", "sigma0_values"):
            vals = sweep[key]
            if vals and not np.all(np.diff(vals) > 0):
                raise ConfigError(f"sweep.{key} must be strictly "
                                  "increasing")
        if any(v < 0 for v in sweep["sigma0_values"]):
            raise ConfigError("sweep.sigma0_values must be >= 0")

        rng = _floats(cp.get("audit", "s2_range"))
        if len(rng) != 3 or not rng[2].is_integer() or rng[2] < 1:
            raise ConfigError("audit.s2_range must be min,max,count with "
                              "a positive integer count")
        audit = {
            "s1_values": _floats(cp.get("audit", "s1_values")),
            "s2_grid": np.linspace(rng[0], rng[1], int(rng[2])),
            "xi_points": cp.getint("audit", "xi_points"),
            "sigma0_values": _floats(cp.get("audit", "sigma0_values")),
            "L_values": _floats(cp.get("audit", "L_values")),
            "m": cp.getint("audit", "m"),
        }
        for key in ("s1_values", "sigma0_values", "L_values"):
            if not audit[key] or not all(v > 0 for v in audit[key]):
                raise ConfigError(f"audit.{key} must be nonempty and "
                                  "positive")
        for s1_a in audit["s1_values"]:
            _normal_square("audit.s1_values entry", s1_a, media.c)
        if audit["m"] < 1 or audit["xi_points"] < 1:
            raise ConfigError("audit.m and audit.xi_points must be >= 1")
        for s1_a, sigma0, L in itertools.product(
                audit["s1_values"], audit["sigma0_values"], audit["L_values"]):
            _resolvable_layer("audit", PmlProfile(sigma0=sigma0, m=audit["m"],
                                                  L=L, s1=s1_a), s1_a, media.c)
        _distinct_names("audit (sigma0, L) pairs",
                        [f"sigma{sigma0:g}_L{L:g}"
                         for sigma0 in audit["sigma0_values"]
                         for L in audit["L_values"]])

        s_pair = _floats(cp.get("layer", "s"))
        if len(s_pair) != 2 or not s_pair[0] > 0:
            raise ConfigError("layer.s must be s1,s2 with s1 > 0")
        _normal_square("layer.s real part", s_pair[0], media.c)
        n_values = _floats(cp.get("layer", "n_values"))
        if len(n_values) < 2 or not all(v.is_integer() and v >= 8
                                        for v in n_values) \
                or not np.all(np.diff(n_values) > 0):
            raise ConfigError("layer.n_values must be two or more "
                              "increasing integers >= 8")
        layer = {
            "xi_values": _floats(cp.get("layer", "xi_values")),
            "s": complex(s_pair[0], s_pair[1]),
            "n_values": [int(v) for v in n_values],
        }
        if not layer["xi_values"]:
            raise ConfigError("layer.xi_values must be nonempty")
        _distinct_names("layer.xi_values",
                        [f"{v:g}" for v in layer["xi_values"]])
        # the boundary-map solves run at Re s = s1, layer-check at layer.s
        _resolvable_layer("pml", pml, min(s1, s_pair[0]), media.c)
        _finite_layer_system(layer, pml, media.c)

        parseval = {k: float(cp.get("parseval", k))
                    for k in ("s1", "s2_max", "horizon")}
        parseval["n_freq"] = cp.getint("parseval", "n_freq")
        parseval["n_time"] = cp.getint("parseval", "n_time")
        # n_time + 1 samples: the end-corrected time rule reads five
        if not (parseval["s1"] > 0 and parseval["horizon"] > 0
                and parseval["s2_max"] > 0 and parseval["n_time"] >= 4
                and parseval["n_freq"] >= 1):
            raise ConfigError("parseval needs s1 > 0, horizon > 0, "
                              "s2_max > 0, n_time >= 4 and n_freq >= 1")

        probes = _points(cp.get("probes", "points"))
    except (ValueError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    raw = {sec: dict(cp.items(sec)) for sec in cp.sections()}
    digest = hashlib.sha256(repr(sorted(
        (sec, tuple(sorted(items.items()))) for sec, items in raw.items()
    )).encode())
    if surface_bytes:   # the samples file is an input too
        digest.update(hashlib.sha256(surface_bytes).digest())
    return RunConfig(media=media, geometry=geometry, pml=pml,
                     source=source, numerics=numerics, sweep=sweep,
                     audit=audit, layer=layer, probes=probes,
                     parseval=parseval, digest=digest.hexdigest())
