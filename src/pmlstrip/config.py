"""Configuration files for the command line harness: INI files read
with configparser against SCHEMA, one row per key holding its default
and a parser that enforces the key's own rule.  See the README."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import VARIANTS
from .model import Geometry, MediaParams, PmlProfile, Pulse, Rectangle, \
    SourceSpec, SurfaceProfile


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


def distinct_names(values) -> bool:
    """Whether values print apart in the `:g` format, which names files."""
    names = [f"{v:g}" for v in values]
    return len(set(names)) == len(names)


def _named(parse):
    """Values that each name an output file."""
    return _rule(parse, distinct_names,
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
    "media": {"c": ("1.0", _positive), "rho0": ("1.0", _finite),
              "rho_e": ("1.0", _finite), "lambda": ("1.0", _finite),
              "mu": ("1.0", _finite)},
    "geom": {"period": ("1.0", _positive), "h": ("0.5", _finite),
             "surface": ("flat", _surface), "obstacle": ("", _obstacle)},
    "pml": {"sigma0": ("2.0", _at_least(0)), "m": ("1", _at_least(1, int)),
            "L": ("1.0", _positive)},
    # for a < 0 the pulse grows, and has no transform at Re s <= -a
    "source": {"center": ("0.5,0.25", _pair), "radius": ("0.08", _positive),
               "T": ("2.0", _positive), "a": ("4.0", _at_least(0)),
               "omega0": ("8.0", _finite)},
    "numerics": {"mesh_size": ("0.05", _finite),
                 "s1": ("", lambda text: _positive(text) if text else None),
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
    """Each section parsed and built, the strip on its first read (its
    rule, model.Geometry); each subcommand checks the rules it reads."""

    media: MediaParams
    pml: PmlProfile
    source: SourceSpec
    numerics: dict
    sweep: dict
    audit: dict
    layer: dict
    probes: np.ndarray
    parseval: dict
    geom: dict
    digest: str = ""

    @cached_property
    def geometry(self) -> Geometry:
        g = self.geom
        return Geometry(period=g["period"], surface=g["surface"][0](
            g["period"]), h=g["h"], obstacle=g["obstacle"])


def load_config(path: str) -> RunConfig:
    """The config at path, each key parsed by its SCHEMA row (its own
    rule), with the digest of its keys and of a surface samples file."""
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

    med, src = p["media"], p["source"]
    s1 = p["numerics"].pop("s1")   # kept once, as pml.s1
    digest = hashlib.sha256(repr(sorted(
        (sec, tuple(sorted(cp.items(sec)))) for sec in cp.sections()
    )).encode())
    surface_bytes = p["geom"]["surface"][1]
    if surface_bytes:   # the samples file is an input too
        digest.update(hashlib.sha256(surface_bytes).digest())
    return RunConfig(
        media=MediaParams(c=med["c"], rho0=med["rho0"], rho_e=med["rho_e"],
                          lam=med["lambda"], mu=med["mu"]),
        pml=PmlProfile(s1=1.0 / src["T"] if s1 is None else s1, **p["pml"]),
        source=SourceSpec(center=src["center"], radius=src["radius"],
                          T=src["T"], pulse=Pulse(a=src["a"],
                                                  omega0=src["omega0"])),
        numerics={**p["numerics"], "freq_s2_values": p["freq"]["s2_values"],
                  "snapshot_times": p["td"]["snapshot_times"]},
        sweep=p["sweep"], audit=p["audit"], layer=p["layer"],
        probes=p["probes"]["points"], parseval=p["parseval"], geom=p["geom"],
        digest=digest.hexdigest())
