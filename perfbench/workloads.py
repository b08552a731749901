"""The benchmark's workloads: inputs made from a seed, one timed unit of work
through bll's public entry points, and the checks on that unit's outputs.

Each workload has a ``full`` size (the measured configuration) and a
``small`` size with a few steps, used by the harness self-test.  The seed
scales the wall temperatures and the ramp rate by up to 5%; walls stay
constant along each wall, so the NSF balanced-reference path is the same for
every seed.  Seed 0 is exactly the acceptance-gate configuration.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager

# Relative mass drift the NSF run must stay under (acceptance criterion 7).
MASS_DRIFT_LIMIT = 1e-12
# Gap between the mapped T-frame and the Theta-frame final states
# (acceptance criterion 5).
FRAME_GAP_LIMIT = 1e-11


def seed_factors(seed):
    """(bottom wall, top wall, ramp rate) multipliers; all 1.0 for seed 0."""
    if seed == 0:
        return 1.0, 1.0, 1.0
    rng = random.Random(seed)
    return tuple(1.0 + rng.uniform(-0.05, 0.05) for _ in range(3))


def _dir_digest(outdir):
    """sha256 over every artifact's name and bytes, and their total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), total


def _read_csv(path):
    """Numeric rows of a bll CSV artifact; '#' lines are returned apart."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    comments = [line for line in lines[1:] if line.startswith("#")]
    return rows, comments


@contextmanager
def _capture_results(module, name, sink):
    """Route module.name through a shim that appends each result to sink."""
    inner = getattr(module, name, None)
    if inner is None:
        raise LookupError(f"{module.__name__}.{name} no longer exists; the workload cannot count steps")

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, capture)
    try:
        yield
    finally:
        setattr(module, name, inner)


class _CliWorkload:
    """A ``bll`` subcommand run in-process through ``bll.cli.main``."""

    command = ""

    def __init__(self, seed, size, nproc):
        self.size = size
        self.config = self.config_text(*seed_factors(seed))

    def argv(self, config_path, outdir):
        return [self.command, "--config", str(config_path), "--out", str(outdir), "--quiet"]

    def timed_main(self, outdir):
        import bll.cli

        config_path = outdir.with_suffix(".ini")
        config_path.write_text(self.config, encoding="utf-8")
        start = time.perf_counter()
        code = bll.cli.main(self.argv(config_path, outdir))
        return code, time.perf_counter() - start


class SweepC8(_CliWorkload):
    name = "sweep-c8"
    command = "sweep"

    def __init__(self, seed, size, nproc):
        super().__init__(seed, size, nproc)
        self.threads = min(3, nproc)

    def config_text(self, fb, ft, _ramp):
        t_end = 0.25 if self.size == "full" else 0.05
        return (
            "[grid]\nnx = 64\nnz = 32\n\n"
            f"[forcing]\ng = 1\ntheta_b_bottom = {0.2 * fb!r}\ntheta_b_top = {-0.2 * ft!r}\n\n"
            f"[nsf]\neps_list = 0.2, 0.1, 0.05\nt_end = {t_end!r}\n\n"
            f"[ob]\ndt = 1e-3\nt_end = {t_end!r}\n\n"
            "[output]\ncadence = 0.05\nformats = csv, dat\n"
        )

    def argv(self, config_path, outdir):
        return super().argv(config_path, outdir) + ["--threads", str(self.threads)]

    def setup(self):
        from bll.cli import parse_config

        parse_config(self.config).ob_scenario()

    def run(self, outdir):
        import bll.diagnostics

        members = []
        with _capture_results(bll.diagnostics, "run_nsf", members):
            code, wall = self.timed_main(outdir)
        checks = [("exit code 0", code == 0, f"exit code {code}")]
        if code != 0:
            return {"wall_s": wall, "steps": 0, "checks": checks}
        rows, comments = _read_csv(outdir / "sweep.csv")
        failures = [c for c in comments if c.startswith("# failed")]
        checks.append(("no failed members", not failures and len(rows) == 3, "; ".join(failures) or f"{len(rows)} rows"))
        for col, name in ((1, "err_rho"), (2, "err_theta"), (3, "err_mom")):
            vals = [row[col] for row in rows]
            ok = len(vals) == 3 and all(a > b for a, b in zip(vals, vals[1:]))
            checks.append((f"{name} strictly decreasing over eps", ok, " > ".join(f"{v:.6g}" for v in vals)))
        digest, nbytes = _dir_digest(outdir)
        return {
            "wall_s": wall,
            "steps": sum(traj.steps for traj in members),
            "digest": digest,
            "artifact_bytes": nbytes,
            "figures": {"err_theta": rows[-1][2] if rows else 0.0},
            "checks": checks,
        }


class NsfRadiation(_CliWorkload):
    name = "nsf-radiation"
    command = "run-nsf"

    def config_text(self, fb, ft, _ramp):
        t_end = 0.25 if self.size == "full" else 0.01
        return (
            "[eos]\np_inf = 1\na = 1\n\n"
            "[grid]\nnx = 64\nnz = 32\n\n"
            f"[forcing]\ng = 1\ntheta_b_bottom = {0.2 * fb!r}\ntheta_b_top = {-0.2 * ft!r}\n\n"
            f"[nsf]\neps = 0.1\nt_end = {t_end!r}\n\n"
            "[output]\ncadence = 0.05\nformats = csv, dat\n"
        )

    def setup(self):
        from bll.cli import parse_config

        parse_config(self.config).nsf_scenario()

    def run(self, outdir):
        code, wall = self.timed_main(outdir)
        checks = [("exit code 0", code == 0, f"exit code {code}")]
        if code != 0:
            return {"wall_s": wall, "steps": 0, "checks": checks}
        rows, _ = _read_csv(outdir / "nsf_log.csv")
        mass = [row[1] for row in rows]
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
        checks.append(("relative mass drift <= 1e-12", drift <= MASS_DRIFT_LIMIT, f"{drift:.3e}"))
        digest, nbytes = _dir_digest(outdir)
        return {
            "wall_s": wall,
            "steps": len(rows) - 1,
            "digest": digest,
            "artifact_bytes": nbytes,
            "figures": {"mass_drift": drift},
            "checks": checks,
        }


class ObRamp4x32:
    """Acceptance criterion 6's ramp scenario through ``bll.ob.run_ob``,
    once per frame.  The ramp wall is a function of time, which the config
    dialect cannot express, so this workload calls the library directly."""

    name = "ob-ramp-4x32"

    def __init__(self, seed, size, nproc):
        self.rate = 0.2 * seed_factors(seed)[2]
        self.t_end = 0.03 if size == "full" else 0.001
        self.scenario = None

    def setup(self):
        from bll import EosParams, Grid, ObScenario

        rate = self.rate
        self.scenario = ObScenario(
            grid=Grid(4, 32), eos=EosParams(kappa0=0.5),
            theta_b_bottom=lambda t: rate * t, theta_b_top=0.0,
            dt=2e-5, t_end=self.t_end,
        )

    def run(self, outdir):
        import numpy as np

        import bll.ob

        sc = self.scenario
        start = time.perf_counter()
        traj_t = bll.ob.run_ob(sc, bll.ob.T_FRAME)
        traj_th = bll.ob.run_ob(sc, bll.ob.THETA_FRAME)
        wall = time.perf_counter() - start

        final_t, final_th = traj_t.states[-1], traj_th.states[-1]
        mapped = bll.ob.transform_frame(final_t, sc)
        gap = float(
            np.max(np.abs(mapped.temp.values - final_th.temp.values))
            + np.max(np.abs(final_t.U.u - final_th.U.u))
            + np.max(np.abs(final_t.U.w - final_th.U.w))
        )
        arrays = []
        for traj in (traj_t, traj_th):
            s = traj.states[-1]
            tr = traj.trace
            arrays += [s.temp.values, s.U.u, s.U.w, s.Pi.values, tr.t, tr.mean_T, tr.Lambda, tr.flux, tr.s24_residual]
        finite = all(bool(np.all(np.isfinite(a))) for a in arrays)
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        residual = max(abs(float(traj.trace.s24_residual[-1])) for traj in (traj_t, traj_th))
        return {
            "wall_s": wall,
            "steps": len(traj_t.trace.t) + len(traj_th.trace.t),
            "digest": h.hexdigest(),
            "artifact_bytes": 0,
            "figures": {"balance_residual": residual},
            "checks": [
                ("frame gap <= 1e-11", gap <= FRAME_GAP_LIMIT, f"{gap:.3e}"),
                ("all fields finite", finite, "finite" if finite else "non-finite values"),
            ],
        }


WORKLOADS = {cls.name: cls for cls in (SweepC8, ObRamp4x32, NsfRadiation)}


def make(name, seed, size, nproc):
    return WORKLOADS[name](seed, size, nproc)

