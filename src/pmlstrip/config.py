"""Configuration files for the command line harness: INI files read
with configparser against SCHEMA, one row per key holding its default
and a parser that enforces the key's own rule.  See the README."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .fem import VARIANTS, frequency_weights
from .mesh import check_grid
from .model import Geometry, MediaParams, PmlProfile, Pulse, Rectangle, \
    SourceSpec, SurfaceProfile, check_source, validate_media
from .symbols import DEGENERATE_DENOMINATOR, layer_denominator_floor
from .timedomain import nearest_steps, step_grid, step_weights


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


def _rule(parse, ok, message: str, make=None):
    """One key's own rule: parse, then a ConfigError `message` (the parse
    loop names the key) unless ok(value); returns value or make(value)."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise ConfigError(message)
        return value if make is None else make(value)
    return check


_pair = _rule(_floats, lambda v: len(v) == 2, "expected two numbers", tuple)


def _points(text: str) -> np.ndarray:
    """`x,z; x,z; ...` as an (n, 2) array."""
    return np.array([_pair(chunk) for chunk in text.split(";")
                     if chunk.strip()], dtype=float).reshape(-1, 2)


def _choice(*names: str):
    return _rule(str, names.__contains__,
                 f"must be {', '.join(names[:-1])} or {names[-1]}")


def _at_least(low: float, parse=_finite):
    return _rule(parse, lambda v: v >= low, f"must be >= {low:g}")


# the most samples a size key may ask for (n_time, n_freq, n_steps, each
# n_values grid): about 130 times the 16,000 time samples of criterion 9
MAX_SAMPLES = 2 ** 21


def _size(low: int):
    return _rule(int, lambda v: low <= v <= MAX_SAMPLES,
                 f"must be an integer from {low} to {MAX_SAMPLES}")


def _distinct_names(values) -> bool:
    """Whether values print apart in the `:g` format, which names files."""
    names = [f"{v:g}" for v in values]
    return len(set(names)) == len(names)


def _named(parse):
    """Values that each name an output file."""
    return _rule(parse, _distinct_names,
                 "two values give one output file name (values in :g)")


_positive = _rule(_finite, lambda v: v > 0, "must be > 0")
_increasing = _rule(_floats, lambda v: all(a < b for a, b in zip(v, v[1:])),
                    "must be strictly increasing")
_positives = _rule(_floats, lambda v: v and min(v) > 0,
                   "must be a nonempty list of numbers > 0")


def _surface(spec: str):
    """The profile as a function of the period, and the bytes of its
    samples file (b"" if none)."""
    kind, sep, arg = spec.partition(":")
    if kind == "flat":
        level = _finite(arg) if sep else 0.0
        return lambda period: SurfaceProfile.flat(level), b""
    if kind == "cosine":
        vals = _rule(_floats, lambda v: len(v) == 2,
                     "cosine surface needs amplitude,frequency")(arg)
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
    # for a < 0 the pulse grows, and has no transform at Re s <= -a
    "source": {"center": ("0.5,0.25", _pair), "radius": ("0.08", _positive),
               "T": ("2.0", _positive), "a": ("4.0", _at_least(0)),
               "omega0": ("8.0", _finite)},
    "numerics": {"mesh_size": ("0.05", _finite),
                 "s1": ("", lambda text: _finite(text) if text else None),
                 "n_steps": ("400", _size(1)),
                 "n_modes": ("64", _at_least(0, int)),
                 "route": ("freq", _choice("freq", "time")),
                 "variant": ("exact_dtn", _choice(*VARIANTS))},
    "freq": {"s2_values": ("0,5,10", _named(_floats))},
    "td": {"snapshot_times": ("", _floats)},
    "sweep": {"L_values": ("0.25,0.5,1.0", _increasing),
              "sigma0_values": ("", _rule(_increasing, lambda v: min(
                  v, default=0) >= 0, "must be >= 0")),
              "L_ref": ("3.0", _finite)},
    # one file per (sigma0, L), named after both; run_symbol_audit sizes
    # the grid, so nothing here is allocated by a value
    "audit": {"s1_values": ("1.0,0.1", _positives),
              "s2_range": ("-50,50,201", _rule(
                  _floats, lambda v: len(v) == 3 and v[2].is_integer()
                  and v[2] >= 1, "must be min,max,count with a positive "
                  "integer count", lambda v: (v[0], v[1], int(v[2])))),
              "xi_points": ("401", _at_least(1, int)),
              "sigma0_values": ("1,2,4", _named(_positives)),
              "L_values": ("0.5,1,2", _named(_positives)),
              "m": ("1", _at_least(1, int))},
    "layer": {"xi_values": ("0.0,6.283185307179586", _named(_rule(
                  _floats, bool, "must be nonempty"))),
              "s": ("1.0,0.0", _rule(_pair, lambda v: v[0] > 0, "must be "
                                     "s1,s2 with s1 > 0",
                                     lambda v: complex(*v))),
              "n_values": ("32,64,128,256", _rule(
                  _increasing, lambda v: len(v) >= 2 and all(
                      x.is_integer() and 8 <= x <= MAX_SAMPLES for x in v),
                  f"must be two or more integers from 8 to {MAX_SAMPLES}",
                  lambda v: [int(x) for x in v]))},
    "probes": {"points": ("0.25,0.3; 0.5,0.35; 0.75,0.3", _points)},
    # n_time + 1 samples: the end-corrected time rule reads five; the
    # frequency grid spans [-s2_max, s2_max]
    "parseval": {"s1": ("1.0", _positive),
                 "s2_max": ("400.0", _rule(_positive, lambda v: 2.0 * v
                                           < math.inf, "2 s2_max overflows")),
                 "n_freq": ("8001", _size(1)), "horizon": ("40.0", _positive),
                 "n_time": ("16000", _size(4))},
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
        s1 = p["numerics"].pop("s1")   # kept once, as pml.s1
        s1 = 1.0 / T if s1 is None else s1
        pml = PmlProfile(s1=s1, **p["pml"])

        source = SourceSpec(center=src["center"], radius=src["radius"], T=T,
                            pulse=Pulse(a=src["a"], omega0=src["omega0"]))
        check_source(source, geometry)

        numerics = {**p["numerics"],
                    "freq_s2_values": p["freq"]["s2_values"],
                    "snapshot_times": p["td"]["snapshot_times"]}
        check_grid(geometry, None, numerics["mesh_size"])
        # a snapshot is written at its nearest step, named by that time
        snap = numerics["snapshot_times"]
        t_grid, dt = step_grid(T, numerics["n_steps"])
        _in_range("source.T and numerics.n_steps", "the time step T / "
                  "n_steps is not a normal double", lambda: [dt],
                  np.finfo(float).tiny)
        if snap and not (all(0 <= ts <= T for ts in snap) and _distinct_names(
                t_grid[nearest_steps(snap, dt)])):
            raise ConfigError("td.snapshot_times must lie in [0, T], on "
                              "time steps with distinct file names")

        audit, layer, parseval = p["audit"], p["layer"], p["parseval"]
        # The numbers the runs derive, each a double in range.  The
        # symbols take the root of s^2/c^2 + xi^2, which lands on the
        # branch cut once (s1/c)^2 underflows and is lost once it overflows
        c, abscissas = media.c, [s1, *audit["s1_values"], layer["s"].real]
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
        _in_range("media, source.T and numerics.n_steps",
                  "the Newmark step matrix overflows",
                  lambda: step_weights(media, dt))
        # The floor of a layer symbol's denominator at Re s = s1 must
        # clear the degeneracy guard twice over, so that rounding in the
        # symbol cannot trip the guard.  The boundary-map solves run at
        # Re s = s1, layer-check at layer.s.  The floor grows with L~,
        # and L~ with sigma0 and with L: an audit s1 is judged by its
        # thinnest layer, at the least sigma0 and the least L
        layers = [(min(s1, layer["s"].real), pml)] + [
            (v, PmlProfile(sigma0=min(audit["sigma0_values"]), m=audit["m"],
                           L=min(audit["L_values"]), s1=v))
            for v in audit["s1_values"]]
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
                     source=source, numerics=numerics, sweep=p["sweep"],
                     audit=audit, layer=layer, probes=p["probes"]["points"],
                     parseval=parseval, digest=digest.hexdigest())
