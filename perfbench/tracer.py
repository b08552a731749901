"""Outside-in span tracing of bll's public functions, and the per-layer
metrics derived from the spans.

The tracer replaces every binding of a target function inside the ``bll``
package (``from ... import`` copies bindings, so ``bll.nsf.rho_e`` and
``bll.diagnostics.run_nsf`` are patched as well as the defining module) with
a wrapper that records one span per call.  Span stacks are per thread, so the
members of a threaded sweep nest correctly.  Spans stay in memory until the
caller takes them.  A target that no longer exists is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


def _scenario_eps(args, kwargs):
    return getattr(args[0], "eps", None) if args else None


def _eps_argument(args, kwargs):
    return kwargs.get("eps", args[2] if len(args) > 2 else None)


# (span name, defining module, attribute, argument recorded with the span).
TARGETS = (
    ("thermo.theta_from_rho_e", "bll.thermo", "theta_from_rho_e", None),
    ("thermo.sound_speed_squared", "bll.thermo", "sound_speed_squared", None),
    ("thermo.transport", "bll.thermo", "transport", None),
    ("thermo.rho_e", "bll.thermo", "rho_e", None),
    ("thermo.pressure", "bll.thermo", "pressure", None),
    ("thermo.entropy", "bll.thermo", "entropy", None),
    ("grid.helmholtz_solve", "bll.grid", "helmholtz_solve", None),
    ("grid.helmholtz_solve_zface", "bll.grid", "helmholtz_solve_zface", None),
    ("grid.poisson_solve", "bll.grid", "poisson_solve", None),
    ("grid.laplace_dirichlet", "bll.grid", "laplace_dirichlet", None),
    ("grid.advect_velocity", "bll.grid", "advect_velocity", None),
    # The z-tridiagonal solve shared by the four direct solvers.
    ("grid.zsolve", "bll.grid", "_thomas", None),
    ("ob.step_tframe", "bll.ob", "step_ob_tframe", None),
    ("ob.step_thetaframe", "bll.ob", "step_ob_thetaframe", None),
    ("ob.run_ob", "bll.ob", "run_ob", None),
    ("nsf.step_nsf", "bll.nsf", "step_nsf", None),
    ("nsf.cfl_dt", "bll.nsf", "cfl_dt", None),
    ("nsf.ballistic_energy", "bll.nsf", "ballistic_energy", None),
    ("nsf.run_nsf", "bll.nsf", "run_nsf", _scenario_eps),
    ("diagnostics.sweep", "bll.diagnostics", "sweep", None),
    ("diagnostics.deviation_error_norms", "bll.diagnostics", "deviation_error_norms", _eps_argument),
    ("cli.parse_config", "bll.cli", "parse_config", None),
    ("cli.main", "bll.cli", "main", None),
)

THERMO = [t[0] for t in TARGETS if t[0].startswith("thermo.")]
GRID_SOLVES = ["grid.helmholtz_solve", "grid.helmholtz_solve_zface", "grid.poisson_solve", "grid.laplace_dirichlet"]
OB_STEPS = ["ob.step_tframe", "ob.step_thetaframe"]
SWEEP_EPS = (0.2, 0.1, 0.05)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [(f"{n}.{stat}", unit) for n in THERMO for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("thermo.calls_per_nsf_step", "1/step")]
    + [(f"{n}.{stat}", unit) for n in GRID_SOLVES for stat, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))]
    + [("grid.zsolve.self_s", "s"), ("grid.advect_velocity.self_s", "s")]
    + [("ob.step.calls", "count"), ("ob.step.self_s", "s")]
    + [(f"{n}.{stat}", unit) for n in OB_STEPS for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("ob.run_ob.self_s", "s"), ("ob.balance_residual", "1")]
    + [("nsf.step_nsf.calls", "count"), ("nsf.step_nsf.self_s", "s")]
    + [("nsf.cfl_dt.calls", "count"), ("nsf.cfl_dt.self_s", "s"), ("nsf.cfl_dt.calls_per_step", "1/step")]
    + [("nsf.ballistic_energy.self_s", "s"), ("nsf.run_nsf.self_s", "s")]
    + [(f"diagnostics.member.eps{e:g}.s", "s") for e in SWEEP_EPS]
    + [("diagnostics.sweep.overlap", "1"), ("diagnostics.deviation_error_norms.self_s", "s")]
    + [("diagnostics.err_theta", "1")]
    + [("cli.parse_config.self_s", "s"), ("cli.main.self_s", "s"), ("cli.artifact_bytes", "B")]
    + [("trace.overhead_s", "s")]
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._local = threading.local()

    def install(self):
        """Wrap every target; look each up now so removed ones are recorded."""
        for span, module_name, attr, arg in TARGETS:
            try:
                orig = getattr(importlib.import_module(module_name), attr, None)
            except ImportError:
                orig = None
            if not callable(orig):
                self.absent.append(span)
                continue
            wrapper = self._wrap(orig, span, arg)
            for module in [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "bll"]:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)

    def take(self):
        """Spans recorded since the last call: (name, thread, start, end, self, arg)."""
        spans = self.spans[:]
        del self.spans[:]
        return spans

    def _wrap(self, fn, name, arg):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
                spans.append(
                    (name, threading.get_ident(), start, end, end - start - children,
                     arg(args, kwargs) if arg else None)
                )

        return traced


def layer_metrics(spans, unit):
    """Per-layer metrics of one traced unit; unit is the workload's result."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for name, _, start, end, own, _ in spans:
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start

    def per(a, b):
        return a / b if b else 0.0

    m = {}
    for n in THERMO:
        m[f"{n}.calls"] = calls[n]
        m[f"{n}.self_s"] = self_s[n]
    nsf_steps = calls["nsf.step_nsf"]
    m["thermo.calls_per_nsf_step"] = per(sum(calls[n] for n in THERMO), nsf_steps)
    for n in GRID_SOLVES:
        m[f"{n}.calls"] = calls[n]
        m[f"{n}.self_s"] = self_s[n]
        m[f"{n}.us_per_call"] = per(total_s[n] * 1e6, calls[n])
    m["grid.zsolve.self_s"] = self_s["grid.zsolve"]
    m["grid.advect_velocity.self_s"] = self_s["grid.advect_velocity"]
    m["ob.step.calls"] = sum(calls[n] for n in OB_STEPS)
    m["ob.step.self_s"] = sum(self_s[n] for n in OB_STEPS)
    for n in OB_STEPS:
        m[f"{n}.calls"] = calls[n]
        m[f"{n}.self_s"] = self_s[n]
    m["ob.run_ob.self_s"] = self_s["ob.run_ob"]
    m["ob.balance_residual"] = unit.get("figures", {}).get("balance_residual", 0.0)
    m["nsf.step_nsf.calls"] = nsf_steps
    m["nsf.step_nsf.self_s"] = self_s["nsf.step_nsf"]
    m["nsf.cfl_dt.calls"] = calls["nsf.cfl_dt"]
    m["nsf.cfl_dt.self_s"] = self_s["nsf.cfl_dt"]
    m["nsf.cfl_dt.calls_per_step"] = per(calls["nsf.cfl_dt"], nsf_steps)
    m["nsf.ballistic_energy.self_s"] = self_s["nsf.ballistic_energy"]
    m["nsf.run_nsf.self_s"] = self_s["nsf.run_nsf"]
    m.update(_sweep_members(spans))
    m["diagnostics.deviation_error_norms.self_s"] = self_s["diagnostics.deviation_error_norms"]
    m["diagnostics.err_theta"] = unit.get("figures", {}).get("err_theta", 0.0)
    m["cli.parse_config.self_s"] = self_s["cli.parse_config"]
    m["cli.main.self_s"] = self_s["cli.main"]
    m["cli.artifact_bytes"] = unit.get("artifact_bytes", 0)
    return m


def _sweep_members(spans):
    """Member span time per eps and the member-phase overlap of each sweep.

    A member is the run_nsf call and the error-norm call for one eps that
    start inside a sweep span; overlap is their summed time over the wall
    time from the first member start to the last member end.
    """
    windows = [(s[2], s[3]) for s in spans if s[0] == "diagnostics.sweep"]
    members = [
        s for s in spans
        if s[0] in ("nsf.run_nsf", "diagnostics.deviation_error_norms")
        and s[5] is not None
        and any(a <= s[2] <= b for a, b in windows)
    ]
    out = {f"diagnostics.member.eps{e:g}.s": 0.0 for e in SWEEP_EPS}
    for s in members:
        key = f"diagnostics.member.eps{float(s[5]):g}.s"
        if key in out:
            out[key] += s[3] - s[2]
    phase = max((s[3] for s in members), default=0.0) - min((s[2] for s in members), default=0.0)
    out["diagnostics.sweep.overlap"] = sum(s[3] - s[2] for s in members) / phase if phase > 0 else 0.0
    return out


def absent_metrics(absent_spans):
    """Per-layer metric names that rest on a target the code no longer has."""
    prefixes = set(absent_spans)
    if "ob.step_tframe" in prefixes or "ob.step_thetaframe" in prefixes:
        prefixes.add("ob.step")
    if "nsf.step_nsf" in prefixes:
        prefixes.add("thermo.calls_per_nsf_step")
    if "nsf.run_nsf" in prefixes or "diagnostics.sweep" in prefixes:
        prefixes.add("diagnostics.member")
        prefixes.add("diagnostics.sweep")
    return [name for name, _ in PER_LAYER if any(name.startswith(p + ".") or name == p for p in prefixes)]
