"""Batch front door: INI-like scenario configs, subcommand orchestration,
and plot-ready artifact emission (CSV and gnuplot .dat).

The config dialect is deliberately minimal: ``[section]`` headers and
``key = value`` lines, ``#``/``;`` comments, UTF-8.  One schema lists every
key with its type, default and ScenarioConfig field.  Parsing validates every
scenario invariant up front and reports the first offense with its line
number; unknown sections and keys are rejected.  A run that succeeds writes
``manifest.ini``, the fully-resolved config (defaults included) echoed from
the schema; a failed run leaves none.  Every table goes through one writer:
the .csv and .dat files of a table carry the same rows (floats as .17g) and
the same ``# `` note lines.  The same config yields byte-identical artifacts
on the same platform.

Initial data policy: runs start from rest with the temperature deviation set
to the linear wall interpolant T0(x, z) = Theta_B_bottom(x) (1 - z) +
Theta_B_top(x) z, which keeps the trace compatible with any wall spec.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import ErrorNorms, compare_modified_vs_naive, sweep
from .errors import (
    AlignmentError,
    ClosureError,
    CompatibilityError,
    ConfigError,
    DivergenceError,
    DomainError,
    ShapeError,
    StabilityError,
)
from .grid import Grid, ScalarField
from .nsf import (
    NsfScenario,
    discrete_hydrostatic_reference,
    hydrostatic_stationary_1d,
    run_nsf,
)
from .ob import ObScenario, gravity_potential, run_ob
from .thermo import EosParams, check_hypotheses, check_limit_identities, gibbs_residual

__all__ = ["ScenarioConfig", "parse_config", "main"]

# section -> key -> (type tag, default, ScenarioConfig field; None for [eos],
# whose keys are EosParams fields); schema order is echo order.
_SCHEMA = {
    "eos": {
        "p_inf": ("float", 0.0, None),
        "a": ("float", 0.0, None),
        "mu0": ("float", 1e-2, None),
        "eta0": ("float", 0.0, None),
        "kappa0": ("float", 1e-2, None),
        "beta": ("float", 6.5, None),
        "s0": ("float", 0.0, None),
    },
    "grid": {"nx": ("int", 32, "nx"), "nz": ("int", 16, "nz"), "Lx": ("float", 1.0, "lx")},
    "reference": {"rho_bar": ("float", 1.0, "rho_bar"), "theta_bar": ("float", 1.0, "theta_bar")},
    "forcing": {
        "g": ("float", 0.0, "g"),
        "theta_b_bottom": ("float", 0.0, "theta_b_bottom"),
        "theta_b_top": ("float", 0.0, "theta_b_top"),
        "theta_b_cos": ("float", 0.0, "theta_b_cos"),
    },
    "nsf": {
        "eps": ("float", 0.1, "eps"),
        "eps_list": ("floats", None, "eps_list"),
        "cfl": ("float", 0.4, "cfl"),
        "t_end": ("float", 0.25, "nsf_t_end"),
    },
    "ob": {
        "frame": ("str", "T", "frame"),
        "dt": ("float", 1e-3, "ob_dt"),
        "t_end": ("float", 0.25, "ob_t_end"),
    },
    "output": {
        "directory": ("str", "out", "directory"),
        "cadence": ("float", 0.05, "cadence"),
        "formats": ("str", "csv", "formats"),
    },
}


def _token(value):
    """Artifact text of a value: strings verbatim, ints exact, floats .17g,
    tuples as comma lists."""
    if isinstance(value, tuple):
        return ", ".join(_token(v) for v in value)
    if isinstance(value, str):
        return value
    return str(value) if isinstance(value, int) else format(value, ".17g")


def _initial_temperature(grid, wb, wt):
    z = grid.z_centers[None, :]
    return ScalarField(grid, wb[:, None] * (1.0 - z) + wt[:, None] * z)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-resolved scenario: every schema key with defaults applied."""

    eos: EosParams
    nx: int
    nz: int
    lx: float
    rho_bar: float
    theta_bar: float
    g: float
    theta_b_bottom: float
    theta_b_top: float
    theta_b_cos: float
    eps: float
    eps_list: tuple | None
    cfl: float
    nsf_t_end: float
    frame: str
    ob_dt: float
    ob_t_end: float
    directory: str
    cadence: float
    formats: tuple

    def echo(self):
        """Canonical config text; parsing it reproduces this config."""
        blocks = []
        for section, keys in _SCHEMA.items():
            lines = [f"[{section}]"]
            for key, (_, _, name) in keys.items():
                val = getattr(self.eos, key) if name is None else getattr(self, name)
                if val is not None:
                    lines.append(f"{key} = {_token(val)}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    def grid(self):
        return Grid(self.nx, self.nz, self.lx)

    def wall_arrays(self, grid):
        wave = self.theta_b_cos * np.cos(2 * np.pi * grid.x_centers / self.lx)
        return self.theta_b_bottom + wave, self.theta_b_top + wave

    def ob_scenario(self):
        grid = self.grid()
        wb, wt = self.wall_arrays(grid)
        return ObScenario(
            grid,
            self.eos,
            rho_bar=self.rho_bar,
            theta_bar=self.theta_bar,
            G=gravity_potential(grid, self.g),
            theta_b_bottom=wb,
            theta_b_top=wt,
            dt=self.ob_dt,
            t_end=self.ob_t_end,
            T0=_initial_temperature(grid, wb, wt),
        )

    def nsf_scenario(self):
        grid = self.grid()
        wb, wt = self.wall_arrays(grid)
        return NsfScenario(
            grid,
            self.eos,
            self.eps,
            rho_bar=self.rho_bar,
            theta_bar=self.theta_bar,
            G=gravity_potential(grid, self.g),
            theta_b_bottom=wb,
            theta_b_top=wt,
            cfl=self.cfl,
            t_end=self.nsf_t_end,
            T0=_initial_temperature(grid, wb, wt),
        )


def _convert(kind, key, val, lineno):
    try:
        if kind == "float":
            out = float(val)
        elif kind == "int":
            return int(val)
        elif kind == "floats":
            parts = [tok.strip() for tok in val.split(",")]
            out = tuple(float(tok) for tok in parts if tok)
        else:
            return val
    except ValueError:
        raise ConfigError(f"expected {kind} for '{key}', got '{val}'", line=lineno) from None
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"'{key}' must be finite, got '{val}'", line=lineno)
    return out


def _scan(text):
    values, lines = {}, {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", line=lineno)
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", line=lineno)
        if (section, key) in values:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", line=lineno)
        values[(section, key)] = _convert(_SCHEMA[section][key][0], key, val, lineno)
        lines[(section, key)] = lineno
    return values, lines


def parse_config(text):
    """Parse and validate a scenario config; the first offense raises
    ConfigError carrying the offending line number."""
    values, lines = _scan(text)

    def get(section, key):
        return values.get((section, key), _SCHEMA[section][key][1])

    def where(*keys):
        """The line of the first of the (section, key) pairs that the text sets."""
        return next((lines[k] for k in keys if k in lines), None)

    def demand(ok, section, key, message, *fallbacks):
        if not ok:
            raise ConfigError(message, line=where((section, key), *fallbacks))

    for key in _SCHEMA["eos"]:
        val = get("eos", key)
        if key in ("mu0", "kappa0"):
            demand(val > 0, "eos", key, f"{key} must be positive")
        elif key != "s0":
            demand(val >= 0, "eos", key, f"{key} must be non-negative")
    eos = EosParams(**{key: get("eos", key) for key in _SCHEMA["eos"]})

    demand(get("grid", "nx") >= 4, "grid", "nx", "nx must be at least 4")
    demand(get("grid", "nz") >= 4, "grid", "nz", "nz must be at least 4")
    demand(get("grid", "Lx") > 0, "grid", "Lx", "Lx must be positive")
    demand(get("reference", "rho_bar") > 0, "reference", "rho_bar", "rho_bar must be positive")
    demand(get("reference", "theta_bar") > 0, "reference", "theta_bar", "theta_bar must be positive")

    eps = get("nsf", "eps")
    demand(0.0 < eps <= 1.0, "nsf", "eps", "eps must lie in (0, 1]")
    eps_list = get("nsf", "eps_list")
    if eps_list is not None:
        demand(len(eps_list) > 0, "nsf", "eps_list", "eps_list must not be empty")
        demand(
            all(0.0 < e <= 1.0 for e in eps_list),
            "nsf", "eps_list", "every eps in eps_list must lie in (0, 1]",
        )
        demand(
            all(b < a for a, b in zip(eps_list, eps_list[1:])),
            "nsf", "eps_list", "eps_list must be strictly descending",
        )
    demand(0.0 < get("nsf", "cfl") <= 1.0, "nsf", "cfl", "cfl must lie in (0, 1]")
    demand(get("nsf", "t_end") > 0, "nsf", "t_end", "t_end must be positive")

    frame = get("ob", "frame")
    demand(frame in ("T", "Theta"), "ob", "frame", "frame must be 'T' or 'Theta'")
    ob_dt = get("ob", "dt")
    demand(ob_dt > 0, "ob", "dt", "dt must be positive")
    ob_t_end = get("ob", "t_end")
    demand(ob_t_end > 0, "ob", "t_end", "t_end must be positive")
    # np.round keeps an overflowing quotient at inf, which fails the check
    steps = np.round(ob_t_end / ob_dt)
    demand(
        steps >= 1 and abs(steps * ob_dt - ob_t_end) <= 1e-9 * ob_t_end,
        "ob", "t_end", "t_end must be an integer multiple of dt", ("ob", "dt"),
    )

    cadence = get("output", "cadence")
    demand(cadence > 0, "output", "cadence", "cadence must be positive")
    every = np.round(cadence / ob_dt)
    demand(
        every >= 1 and abs(every * ob_dt - cadence) <= 1e-9 * cadence,
        "output", "cadence", "cadence must be a positive multiple of the ob dt", ("ob", "dt"),
    )
    formats = tuple(tok.strip() for tok in get("output", "formats").split(",") if tok.strip())
    demand(
        len(formats) > 0 and all(fmt in ("csv", "dat") for fmt in formats),
        "output", "formats", "formats must be a comma list drawn from {csv, dat}",
    )

    fields = {
        name: get(section, key)
        for section, keys in _SCHEMA.items()
        for key, (_, _, name) in keys.items()
        if name is not None
    }
    cfg = ScenarioConfig(eos=eos, **{**fields, "formats": formats})

    # Wall positivity across every eps the config can run at.
    worst = max([cfg.eps, *(cfg.eps_list or ())])
    floor = cfg.theta_bar + worst * (
        min(cfg.theta_b_bottom, cfg.theta_b_top) - abs(cfg.theta_b_cos)
    )
    if floor <= 0:
        walls = ("theta_b_bottom", "theta_b_top")
        if cfg.theta_b_top < cfg.theta_b_bottom:
            walls = walls[::-1]
        raise ConfigError(
            f"eps={worst:g} with the configured Theta_B drives the wall "
            "temperature non-positive",
            line=where(("nsf", "eps_list"), ("nsf", "eps"), *(("forcing", k) for k in walls + ("theta_b_cos",))),
        )
    return cfg


def _write_table(outdir, name, header, columns, formats, notes=()):
    """Write the table `name` once per format: `name`.csv (comma-separated
    header and rows) and/or `name`.dat (space-separated, `# ` header).  Both
    end with the same note lines, each a tuple of values after `# `."""
    for fmt, sep, lead in (("csv", ",", ""), ("dat", " ", "# ")):
        if fmt in formats:
            with open(outdir / f"{name}.{fmt}", "w", encoding="utf-8") as fh:
                fh.write(lead + sep.join(header) + "\n")
                fh.writelines(sep.join(map(_token, row)) + "\n" for row in zip(*columns))
                fh.writelines("# " + sep.join(map(_token, n)) + "\n" for n in notes)


def _cmd_thermo_check(cfg, outdir, say):
    report = check_hypotheses(cfg.eos)
    (outdir / "hypothesis_report.txt").write_text("\n".join(report.lines()) + "\n", encoding="utf-8")
    r26, r27, r29 = check_limit_identities(cfg.rho_bar, cfg.theta_bar, cfg.eos)
    rng = np.logspace(-1, 1, 10)
    rho, theta = np.meshgrid(rng, rng, indexing="ij")
    gibbs = gibbs_residual(rho, theta, cfg.eos)
    _write_table(
        outdir, "limit_identities", ["identity", "residual"],
        [("r26", "r27", "r29", "gibbs_fd"), (r26, r27, r29, gibbs)], ("csv",),
    )
    say(f"hypotheses: {'all passed' if report.all_passed else 'some FAILED (see report)'}")
    say(f"limit identities: r26={r26:.3e} r27={r27:.3e} r29={r29:.3e} gibbs_fd={gibbs:.3e}")
    return 0


def _cmd_run_ob(cfg, outdir, say):
    traj = run_ob(cfg.ob_scenario(), cfg.frame, snapshot_dt=cfg.cadence)
    tr = traj.trace
    _write_table(outdir, "ob_trace", tr.dtype.names, [tr[name] for name in tr.dtype.names], cfg.formats)
    final = traj.states[-1]
    _write_table(
        outdir, "ob_final_profile",
        ["z", "temp_mean"],
        [traj.scenario.grid.z_centers, final.temp.values.mean(axis=0)],
        cfg.formats,
    )
    say(f"ob run: {len(tr.t)} steps to t={traj.times[-1]:g}, mean_T={tr.mean_T[-1]:.6g}")
    return 0


def _cmd_run_nsf(cfg, outdir, say):
    traj = run_nsf(cfg.nsf_scenario(), snapshot_dt=cfg.cadence)
    log = traj.log
    _write_table(outdir, "nsf_log", log.dtype.names, [log[name] for name in log.dtype.names], cfg.formats)
    final = traj.states[-1]
    _write_table(
        outdir, "nsf_final_profile",
        ["z", "rho_mean", "theta_mean"],
        [
            traj.scenario.grid.z_centers,
            final.rho.values.mean(axis=0),
            final.theta.values.mean(axis=0),
        ],
        cfg.formats,
    )
    drift = float(np.max(np.abs(log.mass - log.mass[0]))) / log.mass[0]
    say(
        f"nsf run: {traj.steps} steps in {traj.wall_seconds:.2f}s, "
        f"relative mass drift {drift:.3e}"
    )
    return 0


def _cmd_sweep(cfg, outdir, say):
    eps_seq = list(cfg.eps_list) if cfg.eps_list is not None else [cfg.eps]
    table = sweep(cfg.ob_scenario(), eps_seq, frame=cfg.frame, snapshot_dt=cfg.cadence)
    notes = [("fitted_rate", *(f"{r:.6g}" for r in table.rates))] if table.rates else []
    notes += [(f"failed eps={eps:g}: {msg}",) for eps, msg in table.failures]
    _write_table(outdir, "sweep", ErrorNorms._fields, list(zip(*table.rows)), cfg.formats, notes)
    for row in table.rows:
        say(
            f"eps={row.eps:g}: err_rho={row.err_rho:.6g} "
            f"err_theta={row.err_theta:.6g} err_mom={row.err_mom:.6g}"
        )
    if table.rates is not None:
        say(f"fitted rates: {table.rates[0]:.3g} {table.rates[1]:.3g} {table.rates[2]:.3g}")
    for eps, msg in table.failures:
        say(f"failed eps={eps:g}: {msg}")
    if not table.rows:  # the annotated table stays, the run failed
        print("error: solver: no sweep member finished", file=sys.stderr)
        return 12
    return 0


def _cmd_compare(cfg, outdir, say):
    report = compare_modified_vs_naive(cfg.ob_scenario(), cfg.eps, snapshot_dt=cfg.cadence)
    _write_table(
        outdir, "compare", ["target", *ErrorNorms._fields],
        [("modified", "naive"), *zip(report.modified, report.naive)],
        [f for f in cfg.formats if f == "csv"],
        [("ratio_theta", report.ratio), ("coincident", int(report.coincident))],
    )
    (outdir / "compare.txt").write_text(report.format_text(), encoding="utf-8")
    say(report.format_text().rstrip())
    return 0


def _cmd_hydrostatic(cfg, outdir, say):
    scenario = cfg.nsf_scenario()
    rho, theta = hydrostatic_stationary_1d(scenario)
    rho_hat, theta_hat = discrete_hydrostatic_reference(scenario)
    header = ["z", "rho", "theta", "rho_hat", "theta_hat"]
    columns = [scenario.grid.z_centers, rho, theta, rho_hat, theta_hat]
    _write_table(outdir, "hydrostatic_profile", header, columns, cfg.formats)
    say(f"hydrostatic profile: rho in [{rho.min():.6g}, {rho.max():.6g}]")
    return 0


_HANDLERS = {
    "thermo-check": _cmd_thermo_check,
    "run-ob": _cmd_run_ob,
    "run-nsf": _cmd_run_nsf,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "hydrostatic": _cmd_hydrostatic,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bll",
        description="Compressible convection runs, their incompressible limit, "
        "and the diagnostics tying the two together.",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="scenario config path")
    parser.add_argument("--out", default=None, help="override [output] directory")
    parser.add_argument("--threads", type=int, default=None, help="validated; sweeps run serially")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    def say(msg):
        if not args.quiet:
            print(msg)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = parse_config(text)
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        outdir = Path(args.out) if args.out is not None else Path(cfg.directory)
        outdir.mkdir(parents=True, exist_ok=True)
        code = _HANDLERS[args.command](cfg, outdir, say)
        if code == 0:
            (outdir / "manifest.ini").write_text(cfg.echo(), encoding="utf-8")
        return code
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 10
    except (DomainError, ShapeError, CompatibilityError, AlignmentError, ClosureError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 11
    except (StabilityError, DivergenceError) as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 12
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 13


if __name__ == "__main__":
    sys.exit(main())
