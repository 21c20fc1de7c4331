"""The three benchmark workloads.

Each workload is single-process and single-threaded beyond the capped
BLAS pool, has a fixed problem size, and takes only positions and pulse
parameters from the seed, so its cost does not depend on the seed.  Every
call into the package goes through a module attribute
(``timedomain.contour_synthesize``, ``cli.main``, ...), so the traced run
sees it.

A workload splits one repetition into ``setup`` (timed as set-up),
``solve`` (the solution calls) and ``check`` (output gates); ``ops`` is
the number of operations one repetition attempts, as counted by
``error_rate``: one frequency solve, one Newmark run or one subcommand.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
import warnings

import numpy as np

from pmlstrip import cli, config, fem, mesh, model, timedomain, xform

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "ref")
MEDIA = model.MediaParams()

# criterion 7's strip: cosine bottom with an elastic inclusion
INCLUSION_GEOM_INI = (
    "[geom]\nperiod = 1.0\nh = 0.5\nsurface = cosine:0.1,1\n"
    "obstacle = 0.4,0.2; 0.6,0.2; 0.6,0.4; 0.4,0.4\n")

# Full sizes and the toy sizes the self-test runs.
SIZES = {
    "full": {
        "contour": {"mesh_size": 0.025, "n_freq": 321, "n_t": 401},
        "layer-sweep": {"mesh_size": 0.0125, "n_steps": 200,
                        "L_values": "0.1,0.15,0.2,0.25"},
        "certify": {"s2_count": 21, "horizon": 20.0, "n_time": 4000,
                    "s2_max": 100.0, "n_freq": 1001},
    },
    "toy": {
        "contour": {"mesh_size": 0.05, "n_freq": 161, "n_t": 101},
        "layer-sweep": {"mesh_size": 0.05, "n_steps": 100,
                        "L_values": "0.1,0.15,0.2,0.25"},
        "certify": {"s2_count": 3, "horizon": 20.0, "n_time": 4000,
                    "s2_max": 100.0, "n_freq": 1001},
    },
}


def rel_l2(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


class Workload:
    name = ""
    ops = 1

    def __init__(self, seed: int, size: str, outdir: str):
        self.seed = seed
        self.p = SIZES[size][self.name]
        self.outdir = outdir
        self.rng = random.Random(seed)
        # the stored reference traces are for the default seed at full size
        self.check_reference = seed == DEFAULT_SEED and size == "full"

    def uniform(self, lo, hi) -> float:
        return round(self.rng.uniform(lo, hi), 4)

    def setup(self):
        raise NotImplementedError

    def solve(self, state):
        raise NotImplementedError

    def check(self, state, result) -> list[str]:
        """Return one message per failed gate (empty when all pass)."""
        raise NotImplementedError

    def failed_ops(self, problems: list[str]) -> int:
        return self.ops if problems else 0

    def rates(self, solve_s: float, result) -> dict:
        raise NotImplementedError

    def sizes(self, state, result) -> dict:
        raise NotImplementedError

    def reference(self, state, result) -> dict:
        """Trace stored for the default seed (see make_reference.py)."""
        raise NotImplementedError

    def cleanup(self, state):
        """Remove the files one repetition wrote."""


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

class Contour(Workload):
    """Frequency route: 161 Laplace-line solves, then synthesis."""

    name = "contour"

    def __init__(self, seed, size, outdir):
        super().__init__(seed, size, outdir)
        self.T = 2.0
        self.center = (self.uniform(0.15, 0.30), self.uniform(0.22, 0.32))
        self.probe_points = [
            [self.uniform(0.20, 0.30), self.uniform(0.38, 0.45)],
            [self.uniform(0.45, 0.55), self.uniform(0.43, 0.47)],
            [self.uniform(0.70, 0.85), self.uniform(0.20, 0.35)]]
        n_half = (self.p["n_freq"] - 1) // 2 + 1
        self.ops = n_half

    def setup(self):
        geom = model.Geometry(
            period=1.0, surface=model.SurfaceProfile.cosine(0.1, 1.0),
            h=0.5, obstacle=model.Rectangle(0.4, 0.6, 0.2, 0.4))
        source = model.SourceSpec(center=self.center, radius=0.05, T=self.T)
        model.check_source(source, geom)
        blk = fem.build_blocks(mesh.build_mesh(geom, None,
                                               self.p["mesh_size"]),
                               n_modes=32)
        probes = timedomain.locate_probes(blk.mesh, self.probe_points)
        cfg = timedomain.ContourConfig(
            s1=1.0 / self.T, s2_max=40.0, n_freq=self.p["n_freq"],
            t_grid=np.linspace(0.0, self.T, self.p["n_t"]))
        return {"blk": blk, "source": source, "probes": probes, "cfg": cfg}

    def solve(self, st):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", xform.TruncationWarning)
            traj = timedomain.contour_synthesize(
                st["blk"], MEDIA, st["source"], st["cfg"], st["probes"],
                variant="exact_dtn")
        return {"traj": traj, "warnings": [
            str(w.message) for w in caught
            if issubclass(w.category, xform.TruncationWarning)]}

    def check(self, st, res):
        traj = res["traj"]
        problems = [f"TruncationWarning: {m}" for m in res["warnings"]]
        pulse = st["source"].pulse(traj.t)
        err = traj.meta["reconstruction_error"] / float(np.max(np.abs(pulse)))
        if not err <= 1e-3:
            problems.append(f"pulse self-reconstruction error {err:.2e}")
        if not np.all(np.isfinite(traj.probe_p)) \
                or not np.all(np.max(np.abs(traj.probe_p), axis=1) > 0):
            problems.append("probe traces not finite or identically zero")
        if self.check_reference and not problems:
            ref = load_reference(self.name)
            for k, row in enumerate(ref["probe_p"]):
                dev = rel_l2(traj.probe_p[k], row)
                if not dev <= 1e-8:
                    problems.append(f"probe {k} off reference by {dev:.1e}")
        return problems

    def rates(self, solve_s, res):
        return {"freq_solves_per_s": self.ops / solve_s}

    def sizes(self, st, res):
        blk = st["blk"]
        system = fem.assemble(blk, MEDIA, complex(st["cfg"].s1, 0.0),
                              st["source"].spatial, 1.0, "exact_dtn")
        return {"n_vertices": blk.mesh.n_vertices, "n_dofs": blk.dof.size,
                "matrix_nnz": int(system.matrix.nnz),
                "n_freq": self.p["n_freq"], "freq_solves": self.ops,
                "n_probes": len(self.probe_points),
                "n_time_samples": self.p["n_t"],
                "mesh_size": self.p["mesh_size"]}

    def reference(self, st, res):
        return {"t": res["traj"].t.tolist(),
                "probe_p": res["traj"].probe_p.tolist()}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

class CliWorkload(Workload):
    """Writes one INI per run; set-up is the config load, the solution is
    one or more ``pmlstrip`` subcommands run through ``cli.main``."""

    def __init__(self, seed, size, outdir):
        super().__init__(seed, size, outdir)
        self.rep = 0
        self.config_path = os.path.join(outdir, f"{self.name}.ini")

    def write_config(self, text: str):
        with open(self.config_path, "w") as fh:
            fh.write(text)

    def setup(self):
        self.rep += 1
        out = os.path.join(self.outdir, f"rep{self.rep}")
        shutil.rmtree(out, ignore_errors=True)
        return {"cfg": config.load_config(self.config_path), "out": out}

    def run(self, command: str, out: str) -> tuple[int, float]:
        t0 = time.perf_counter()
        code = cli.main([command, "--config", self.config_path,
                         "--out", out])
        return code, time.perf_counter() - t0

    def cleanup(self, st):
        shutil.rmtree(st["out"], ignore_errors=True)


class LayerSweep(CliWorkload):
    """`pmlstrip convergence` on the time route: five Newmark runs."""

    name = "layer-sweep"

    def __init__(self, seed, size, outdir):
        super().__init__(seed, size, outdir)
        center = (self.uniform(0.15, 0.30), self.uniform(0.25, 0.32))
        self.ops = len(self.p["L_values"].split(",")) + 1
        self.write_config(
            INCLUSION_GEOM_INI
            + f"[source]\ncenter = {center[0]},{center[1]}\n"
            "radius = 0.05\nT = 2.0\n"
            "[pml]\nsigma0 = 2.0\nm = 1\nL = 0.1\n"
            f"[numerics]\nmesh_size = {self.p['mesh_size']}\n"
            f"n_steps = {self.p['n_steps']}\nn_modes = 32\nroute = time\n"
            f"[sweep]\nL_values = {self.p['L_values']}\nL_ref = 3.0\n")

    def solve(self, st):
        return {"code": self.run("convergence", st["out"])[0]}

    def check(self, st, res):
        if res["code"] != 0:
            return [f"convergence: exit code {res['code']}"]
        errors = np.loadtxt(os.path.join(st["out"], "convergence.csv"),
                            delimiter=",", skiprows=1)[:, 1]
        with open(os.path.join(st["out"], "manifest.txt")) as fh:
            manifest = dict(line.rstrip("\n").split("=", 1) for line in fh)
        problems = []
        if not np.all(np.diff(errors) < 0):
            problems.append("error sequence not monotone")
        exponent = float(manifest["fitted_exponent"])
        certified = float(manifest["rate_theory_lbar"])
        if not exponent >= 0.8 * certified:
            problems.append(f"fitted exponent {exponent:.2f} < 0.8 x "
                            f"{certified:g}")
        res["exponent"] = exponent
        return problems

    def rates(self, solve_s, res):
        return {"newmark_steps_per_s": self.ops * self.p["n_steps"] / solve_s}

    def sizes(self, st, res):
        cfg = st["cfg"]
        pml = model.PmlProfile(sigma0=cfg.pml.sigma0, m=cfg.pml.m,
                               L=cfg.sweep["L_ref"], s1=cfg.pml.s1)
        blk = fem.build_blocks(mesh.build_mesh(cfg.geometry, pml,
                                               self.p["mesh_size"]),
                               cfg.numerics["n_modes"])
        return {"n_vertices_ref": blk.mesh.n_vertices,
                "n_dofs_ref": blk.dof.size,
                "n_steps": self.p["n_steps"], "newmark_runs": self.ops,
                "L_values": self.p["L_values"],
                "mesh_size": self.p["mesh_size"],
                "fitted_exponent": res.get("exponent")}


class Certify(CliWorkload):
    """`pmlstrip symbol-audit` then `pmlstrip parseval`."""

    name = "certify"
    ops = 2
    # transform_property_check's fixed contour (its n_freq default), used
    # by the two transform-rule cases of `parseval`
    RULE_N_FREQ = 12001

    def __init__(self, seed, size, outdir):
        super().__init__(seed, size, outdir)
        p = self.p
        self.write_config(
            f"[source]\na = {self.uniform(3.0, 5.0)}\n"
            f"omega0 = {self.uniform(6.0, 10.0)}\n"
            f"[audit]\ns2_range = -50,50,{p['s2_count']}\n"
            f"[parseval]\nhorizon = {p['horizon']}\nn_time = {p['n_time']}\n"
            f"s2_max = {p['s2_max']}\nn_freq = {p['n_freq']}\n")
        # len(s2) * len(t) summed over the Laplace-line grids parseval
        # evaluates: two rule cases, then two Plancherel cases of two
        # transforms each
        n_t = p["n_time"] + 1
        self.transform_points = 2 * self.RULE_N_FREQ * n_t \
            + 4 * p["n_freq"] * n_t

    def solve(self, st):
        res = {"code": {}, "phase_s": {}}
        for command in ("symbol-audit", "parseval"):
            out = os.path.join(st["out"], command)
            res["code"][command], res["phase_s"][command] = \
                self.run(command, out)
        return res

    def check(self, st, res):
        problems = []
        res["rows"] = res["bytes"] = 0
        for command, code in res["code"].items():
            if code != 0:
                problems.append(f"{command}: exit code {code}")
                continue
            out = os.path.join(st["out"], command)
            for fname in sorted(os.listdir(out)):
                if not fname.endswith(".csv"):
                    continue
                path = os.path.join(out, fname)
                with open(path) as fh:
                    header = fh.readline().rstrip("\n").split(",")
                    col = header.index("pass")
                    n_rows = bad = 0
                    for line in fh:
                        n_rows += 1
                        bad += line.rstrip("\n").split(",")[col] != "1"
                if bad:
                    problems.append(f"{command}: {bad} rows of {fname} "
                                    "fail")
                if command == "symbol-audit":
                    res["rows"] += n_rows
                    res["bytes"] += os.path.getsize(path)
        return problems

    def failed_ops(self, problems):
        return len({p.split(":", 1)[0] for p in problems})

    def rates(self, solve_s, res):
        return {"audit_rows_per_s":
                res["rows"] / res["phase_s"]["symbol-audit"],
                "transform_points_per_s":
                self.transform_points / res["phase_s"]["parseval"]}

    def sizes(self, st, res):
        return {"audit_rows": res["rows"], "audit_csv_bytes": res["bytes"],
                "audit_s2_count": self.p["s2_count"],
                "transform_points": self.transform_points,
                "parseval_n_time": self.p["n_time"],
                "parseval_n_freq": self.p["n_freq"],
                "rule_n_freq": self.RULE_N_FREQ}


WORKLOADS = {cls.name: cls for cls in (Contour, LayerSweep, Certify)}
