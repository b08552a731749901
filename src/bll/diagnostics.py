"""Limit diagnostics: scaled relative energy with its essential/residual
coercivity report, deviation error norms between compressible runs and their
incompressible targets, the eps-sweep harness, and the modified-vs-naive
target comparison.

The relative energy is the Bregman gap of the total energy in conservative
variables (rho, rho s), scaled by 1/eps^2, plus the kinetic distance
(1/2) rho |u - u_ref|^2; under thermodynamic stability it is non-negative and
vanishes only where state and reference agree.  Coercivity is reported as the
largest cellwise constant C such that the essential part dominates the
quadratic deviations and the residual part dominates the full energy/entropy
content.

Error norms are L-infinity in time over shared snapshots (cadences must
match exactly; no interpolation) of: the L1 norm of (rho - rho_bar)/eps - r
and (theta - theta_bar)/eps - T against the incompressible deviations, and
the face-based L2 norm of sqrt(rho) u - sqrt(rho_bar) U (wall faces carry
no-slip zeros and are omitted); eps is read from the compressible run and the
limit scenario from the target.  One runner builds a compressible member from
its first target's initial state, runs it once and scores it against every
target.  The sweep calls it per eps against one shared target, in eps order
in the calling thread, assembling a table with log-log fitted rates; diverging
members annotate the table instead of aborting it.  The comparison is its
one-member case against the modified and the naive target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ConfigError, DomainError, DivergenceError, ShapeError, StabilityError
from .grid import ScalarField, Staggering, VectorField, center_to_xface, xface_to_center, zface_to_center
from .nsf import NsfScenario, _require_static_walls, run_nsf
from .ob import T_FRAME, recover_density_deviation, run_ob, transform_frame
from .thermo import entropy, internal_energy, pressure, rho_e

__all__ = [
    "EssentialSet",
    "EssResSplit",
    "RelEnergyReport",
    "ErrorNorms",
    "ConvergenceTable",
    "ComparisonReport",
    "default_essential_set",
    "relative_energy",
    "ess_res_decompose",
    "coercivity_check",
    "deviation_error_norms",
    "sweep",
    "compare_modified_vs_naive",
]


@dataclass(frozen=True)
class EssentialSet:
    """Compact box K in the (rho, theta) plane splitting cells into the
    essential range (inside K, quadratically coercive) and the residual
    range (outside, coercive against the full energy content)."""

    rho_lo: float
    rho_hi: float
    theta_lo: float
    theta_hi: float

    def __post_init__(self):
        if not (0.0 < self.rho_lo < self.rho_hi and 0.0 < self.theta_lo < self.theta_hi):
            raise DomainError("essential set needs 0 < lo < hi in both variables")

    def contains(self, rho, theta):
        """Boolean mask of cells inside the closed box."""
        return (
            (rho >= self.rho_lo)
            & (rho <= self.rho_hi)
            & (theta >= self.theta_lo)
            & (theta <= self.theta_hi)
        )

    def interior_contains(self, rho, theta):
        return (
            (rho > self.rho_lo)
            & (rho < self.rho_hi)
            & (theta > self.theta_lo)
            & (theta < self.theta_hi)
        )


def default_essential_set(rho_bar=1.0, theta_bar=1.0):
    """Dyadic box [rho_bar/2, 2 rho_bar] x [theta_bar/2, 2 theta_bar]; a
    fixed shape keeps reports reproducible across scenarios."""
    return EssentialSet(0.5 * rho_bar, 2.0 * rho_bar, 0.5 * theta_bar, 2.0 * theta_bar)


@dataclass(frozen=True)
class EssResSplit:
    essential: np.ndarray
    residual: np.ndarray
    essential_measure: float
    residual_measure: float


@dataclass(frozen=True)
class RelEnergyReport:
    """Integrated relative energy split by range, with the lower-bound
    integrals and the largest cellwise constants that keep both coercivity
    bounds true (inf when the range is empty: the bound is vacuous)."""

    total: float
    essential: float
    residual: float
    residual_measure: float
    essential_rhs: float
    residual_rhs: float
    c_essential: float
    c_residual: float


def _check_reference(state, ref):
    rho_t, theta_t, u_t = ref
    g = state.rho.grid
    if not isinstance(u_t, VectorField) or rho_t.grid != g or theta_t.grid != g or u_t.grid != g:
        raise ShapeError("reference fields must live on the state's grid")
    if rho_t.stag != Staggering.CENTER or theta_t.stag != Staggering.CENTER:
        raise ShapeError("reference rho and theta must be center-staggered")
    if np.any(rho_t.values <= 0) or np.any(theta_t.values <= 0):
        raise DomainError("reference density and temperature must be positive")
    return rho_t, theta_t, u_t


def _velocity_gap_sq(state, u_t):
    du = state.U.u - u_t.u
    dw = state.U.w - u_t.w
    return xface_to_center(du * du) + zface_to_center(dw * dw)


def relative_energy(state, ref, eos):
    """Pointwise scaled relative energy of a compressible state against a
    positive reference trio (rho_t, theta_t, u_t); returns (density field,
    integral).

    The thermostatic part is the Bregman gap of rho e in (rho, rho s), i.e.
    rho e - theta_t (rho s - rho_t s_t) - (e_t - theta_t s_t + p_t/rho_t)
    (rho - rho_t) - rho_t e_t, divided by eps^2; it is exactly zero where the
    state equals the reference.
    """
    rho_t, theta_t, u_t = _check_reference(state, ref)
    g = state.rho.grid
    r, th = state.rho.values, state.theta.values
    rt, tt = rho_t.values, theta_t.values
    e_t = internal_energy(rt, tt, eos)
    s_t = entropy(rt, tt, eos)
    p_t = pressure(rt, tt, eos)
    breg = (
        rho_e(r, th, eos)
        - tt * (r * entropy(r, th, eos) - rt * s_t)
        - (e_t - tt * s_t + p_t / rt) * (r - rt)
        - rho_e(rt, tt, eos)
    )
    dens = 0.5 * r * _velocity_gap_sq(state, u_t) + breg / state.eps**2
    fld = ScalarField(g, dens, Staggering.CENTER)
    return fld, float(np.sum(dens)) * g.cell_volume


def ess_res_decompose(state, K):
    """Indicator masks for the essential/residual ranges and their measures;
    the masks partition the cells exactly."""
    ess = K.contains(state.rho.values, state.theta.values)
    res = ~ess
    vol = state.rho.grid.cell_volume
    return EssResSplit(ess, res, float(np.count_nonzero(ess)) * vol, float(np.count_nonzero(res)) * vol)


def coercivity_check(state, ref, K, eos):
    """Largest cellwise constants C for the two coercivity bounds of the
    relative energy: on essential cells E >= C (|drho|^2/eps^2 +
    |dtheta|^2/eps^2 + |du|^2); on residual cells E >= C (1 + rho e +
    rho |s|)/eps^2 + C rho |u|^2.  The reference must stay in the interior
    of K."""
    rho_t, theta_t, u_t = _check_reference(state, ref)
    if not np.all(K.interior_contains(rho_t.values, theta_t.values)):
        raise ConfigError("reference state must stay in the interior of the essential set")
    g = state.rho.grid
    vol = g.cell_volume
    eps2 = state.eps**2
    dens = relative_energy(state, ref, eos)[0].values
    split = ess_res_decompose(state, K)
    essential = float(np.sum(dens[split.essential])) * vol
    residual = float(np.sum(dens[split.residual])) * vol

    r, th = state.rho.values, state.theta.values
    du2 = _velocity_gap_sq(state, u_t)
    rhs1 = ((r - rho_t.values) ** 2 + (th - theta_t.values) ** 2) / eps2 + du2
    u2 = xface_to_center(state.U.u**2) + zface_to_center(state.U.w**2)
    rhs2 = (1.0 + rho_e(r, th, eos) + r * np.abs(entropy(r, th, eos))) / eps2 + r * u2

    def _largest_constant(mask, rhs):
        active = mask & (rhs > 0)
        if not np.any(active):
            return float("inf")
        return float(np.min(dens[active] / rhs[active]))

    return RelEnergyReport(
        total=essential + residual,
        essential=essential,
        residual=residual,
        residual_measure=split.residual_measure,
        essential_rhs=float(np.sum(rhs1[split.essential])) * vol,
        residual_rhs=float(np.sum(rhs2[split.residual])) * vol,
        c_essential=_largest_constant(split.essential, rhs1),
        c_residual=_largest_constant(split.residual, rhs2),
    )


class ErrorNorms(NamedTuple):
    """One sweep row: worst-over-time deviation norms at a given eps."""

    eps: float
    err_rho: float
    err_theta: float
    err_mom: float


@dataclass
class ConvergenceTable:
    """Sweep result: rows sorted by eps descending, least-squares log-log
    rates (None with fewer than two clean rows), and per-member failure
    annotations as (eps, message)."""

    rows: list
    rates: tuple | None = None
    failures: list = field(default_factory=list)

    def __post_init__(self):
        eps_seq = [row.eps for row in self.rows]
        if any(b >= a for a, b in zip(eps_seq, eps_seq[1:])):
            raise DomainError("table rows must be sorted by eps descending")
        for row in self.rows:
            if not (
                np.isfinite([row.err_rho, row.err_theta, row.err_mom]).all()
                and min(row.err_rho, row.err_theta, row.err_mom) >= 0
            ):
                raise DomainError("error norms must be finite and non-negative")


def _tframe(state, scenario):
    return state if state.frame == T_FRAME else transform_frame(state, scenario)


def deviation_error_norms(nsf_traj, ob_traj):
    """Worst-over-snapshots norms of the compressible run against the
    incompressible target: L1 of (rho-rho_bar)/eps - r, L1 of
    (theta-theta_bar)/eps - T, and face L2 of sqrt(rho) u - sqrt(rho_bar) U.

    eps is the compressible run's and the limit scenario the target's.
    The two must share the grid, rho_bar, theta_bar, eos and G, and their
    snapshot cadences must agree exactly (no time interpolation); r is
    recovered from the target temperature by the linearized balance.
    """
    scenario, nsf_sc = ob_traj.scenario, nsf_traj.scenario
    eps = nsf_sc.eps
    g = scenario.grid
    if nsf_sc.grid != g:
        raise AlignmentError("trajectories must share one grid")
    for name in ("rho_bar", "theta_bar", "eos"):
        if getattr(nsf_sc, name) != getattr(scenario, name):
            raise AlignmentError(
                f"{name} differs: {getattr(nsf_sc, name)!r} in the compressible run, "
                f"{getattr(scenario, name)!r} in the target"
            )
    if not np.array_equal(nsf_sc.G.values, scenario.G.values):
        gap = float(np.max(np.abs(nsf_sc.G.values - scenario.G.values)))
        raise AlignmentError(f"G differs between the compressible run and the target by up to {gap:.3e}")
    ts_n, ts_o = nsf_traj.times, ob_traj.times
    if len(ts_n) != len(ts_o):
        raise AlignmentError(
            f"snapshot cadences differ: {len(ts_n)} vs {len(ts_o)} snapshots"
        )
    tol = 1e-9 * max(1.0, max(ts_n[-1], ts_o[-1]))
    gaps = [abs(a - b) for a, b in zip(ts_n, ts_o)]
    if max(gaps) > tol:
        raise AlignmentError(f"snapshot times differ by up to {max(gaps):.3e}")

    rho_bar, theta_bar = scenario.rho_bar, scenario.theta_bar
    vol = g.cell_volume
    sr_bar = np.sqrt(rho_bar)
    err_rho = err_theta = err_mom = 0.0
    for nstate, ostate in zip(nsf_traj.states, ob_traj.states):
        ostate = _tframe(ostate, scenario)
        r_target = recover_density_deviation(ostate.temp, scenario).values
        rho = nstate.rho.values
        err_rho = max(err_rho, float(np.sum(np.abs((rho - rho_bar) / eps - r_target))) * vol)
        err_theta = max(
            err_theta,
            float(np.sum(np.abs((nstate.theta.values - theta_bar) / eps - ostate.temp.values)))
            * vol,
        )
        rho_fx = center_to_xface(rho)
        rho_fz = 0.5 * (rho[:, 1:] + rho[:, :-1])
        du = np.sqrt(rho_fx) * nstate.U.u - sr_bar * ostate.U.u
        dw = np.sqrt(rho_fz) * nstate.U.w[:, 1:-1] - sr_bar * ostate.U.w[:, 1:-1]
        err_mom = max(err_mom, float(np.sqrt((np.sum(du * du) + np.sum(dw * dw)) * vol)))
    return ErrorNorms(eps, err_rho, err_theta, err_mom)


def _score_member(eps, targets, snapshot_dt):
    """Run the compressible member at eps, well-prepared from the first
    target's initial state (in the T frame) up to its t_end at the default
    CFL 0.4, and return its ErrorNorms against each target trajectory."""
    sc = targets[0].scenario
    state0 = _tframe(targets[0].states[0], sc)
    member = NsfScenario(
        sc.grid, sc.eos, eps, rho_bar=sc.rho_bar, theta_bar=sc.theta_bar, G=sc.G,
        theta_b_bottom=sc.theta_b_bottom, theta_b_top=sc.theta_b_top,
        t_end=sc.t_end, T0=state0.temp, U0=state0.U,
    )
    nsf_traj = run_nsf(member, snapshot_dt)
    return [deviation_error_norms(nsf_traj, target) for target in targets]


def _fit_rates(rows):
    if len(rows) < 2:
        return None
    errs = np.array([[row.err_rho, row.err_theta, row.err_mom] for row in rows])
    if np.any(errs <= 0):
        return None
    le = np.log([row.eps for row in rows])
    return tuple(float(np.polyfit(le, np.log(errs[:, k]), 1)[0]) for k in range(3))


def sweep(scenario, eps_list, frame=T_FRAME, snapshot_dt=None):
    """Run the shared incompressible target once in `frame` and score one
    compressible member per eps against it (the runner's one-target case),
    in eps order, and assemble the ConvergenceTable.

    eps_list must be strictly descending in (0, 1].  Members that blow up or
    hit positivity limits are recorded as failure annotations.
    """
    eps_seq = [float(e) for e in eps_list]
    if not eps_seq or any(b >= a for a, b in zip(eps_seq, eps_seq[1:])):
        raise DomainError("eps_list must be non-empty and strictly descending")
    if any(not 0.0 < e <= 1.0 for e in eps_seq):
        raise DomainError("every eps must lie in (0, 1]")
    _require_static_walls(scenario)

    ob_traj = run_ob(scenario, frame, snapshot_dt)
    rows, failures = [], []
    for eps in eps_seq:
        try:
            rows += _score_member(eps, [ob_traj], snapshot_dt)
        except (DomainError, DivergenceError, StabilityError) as exc:
            failures.append((eps, str(exc)))
    return ConvergenceTable(rows, _fit_rates(rows), failures)


@dataclass
class ComparisonReport:
    """Errors of one compressible run against the non-local target (modified)
    and against the classical Dirichlet target (naive, lambda hook = 0),
    with the temperature-error ratio naive/modified."""

    eps: float
    modified: ErrorNorms
    naive: ErrorNorms
    ratio: float
    coincident: bool
    max_lambda: float

    def format_text(self):
        lines = [
            f"target comparison at eps={self.eps:g}",
            f"  modified: err_rho={self.modified.err_rho:.6g} "
            f"err_theta={self.modified.err_theta:.6g} err_mom={self.modified.err_mom:.6g}",
            f"  naive:    err_rho={self.naive.err_rho:.6g} "
            f"err_theta={self.naive.err_theta:.6g} err_mom={self.naive.err_mom:.6g}",
            f"  temperature-error ratio naive/modified: {self.ratio:.6g}",
            f"  max |Lambda| along the modified run: {self.max_lambda:.6g}",
        ]
        if self.coincident:
            lines.append("  warning: the two targets coincide; the ratio is uninformative")
        return "\n".join(lines) + "\n"


def compare_modified_vs_naive(scenario, eps, snapshot_dt=None):
    """Score one compressible member at eps against the non-local target and
    the naive Dirichlet target (lambda hook forced to zero): the runner's
    one-member case, started from the non-local target.  Failures of the
    member raise.  Warns when the two targets coincide (the scenario never
    builds a mean temperature deviation), which makes the reported ratio
    uninformative."""
    _require_static_walls(scenario)
    mod_traj = run_ob(scenario, T_FRAME, snapshot_dt)
    naive_traj = run_ob(replace(scenario, lambda_override=0.0), T_FRAME, snapshot_dt)
    mod_row, naive_row = _score_member(eps, [mod_traj, naive_traj], snapshot_dt)

    gap = max(
        float(np.max(np.abs(a.temp.values - b.temp.values)))
        for a, b in zip(mod_traj.states, naive_traj.states)
    )
    scale = max(1.0, max(float(np.max(np.abs(s.temp.values))) for s in mod_traj.states))
    coincident = gap <= 1e-12 * scale
    if coincident:
        warnings.warn(
            "modified and naive targets coincide (no mean temperature deviation "
            "develops); the error ratio is uninformative"
        )
    if naive_row.err_theta == mod_row.err_theta:
        ratio = 1.0
    elif mod_row.err_theta == 0.0:
        ratio = float("inf")
    else:
        ratio = naive_row.err_theta / mod_row.err_theta
    return ComparisonReport(
        eps=eps,
        modified=mod_row,
        naive=naive_row,
        ratio=ratio,
        coincident=coincident,
        max_lambda=float(np.max(np.abs(mod_traj.trace.Lambda))),
    )
