"""Limit-system solver in two equivalent formulations.

T-frame: the temperature deviation T satisfies a heat equation with a
non-local source Lambda/(rho_bar c_p), Lambda = theta_bar alpha p_theta
d/dt fint(T), and plain Dirichlet walls T = Theta_B.  Theta-frame: the
shifted variable Theta = T - lam fint(T) satisfies the conventional heat
equation but with the non-local wall trace Theta_B - lam/(1-lam) fint(Theta).
Both close the scalar mean implicitly: the implicit diffusion step is affine
in the unknown mean, so two Helmholtz solves plus one scalar equation give
the exact discrete fixed point of the coupling.  One routine, step_ob,
steps either frame; the frames differ only in the buoyancy and in the unit
response (source or wall) that closes the mean.

Momentum: explicit Adams-Bashforth-2 advection and buoyancy, implicit Euler
diffusion (viscosity mu(theta_bar)), non-incremental Chorin projection.
Scalar advection is in divergence form, so the discrete mean of the
temperature is moved only by diffusion and the non-local term, matching the
integral identity the trace diagnostics monitor.

The lambda_override hook replaces lam everywhere it encodes the non-local
coupling (source, moving trace, frame transforms); 0 gives the classical
Dirichlet limit system.

Step invariants (coefficients, mu(theta_bar)/rho_bar, grad G) are cached on
the ObScenario at first use, so a scenario is not to be mutated once run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import grid as gr
from .errors import (
    ClosureError,
    CompatibilityError,
    DivergenceError,
    DomainError,
    ShapeError,
    StabilityError,
    require_positive,
)
from .grid import (
    DirichletZ,
    Grid,
    NeumannZ,
    ScalarField,
    Staggering,
    VectorField,
    advect_velocity,
    center_to_xface,
    div,
    grad,
    helmholtz_solve,
    helmholtz_solve_zface,
    mean,
    poisson_solve,
    xface_to_center,
    zface_to_center,
)
from .thermo import ob_coefficients, transport

T_FRAME = "T"
THETA_FRAME = "Theta"

__all__ = [
    "T_FRAME",
    "THETA_FRAME",
    "ObScenario",
    "ObState",
    "ObTrajectory",
    "LambdaTrace",
    "gravity_potential",
    "build_initial_ob",
    "step_ob",
    "transform_frame",
    "recover_density_deviation",
    "boundary_heat_flux",
    "run_ob",
]


def gravity_potential(grid, g):
    """G = -g (z - 1/2); mean-free on the strip by midpoint symmetry."""
    return ScalarField.from_function(grid, lambda x, z: -g * (z - 0.5))


@dataclass
class ObScenario:
    grid: Grid
    eos: object
    rho_bar: float = 1.0
    theta_bar: float = 1.0
    G: ScalarField | None = None
    theta_b_bottom: object = 0.0
    theta_b_top: object = 0.0
    dt: float = 1e-3
    t_end: float = 1.0
    T0: ScalarField | None = None
    U0: VectorField | None = None
    lambda_override: float | None = None
    temp_source: object = None

    def __post_init__(self):
        if self.G is None:
            self.G = ScalarField.zeros(self.grid)
        if abs(mean(self.G)) > 1e-12:
            raise DomainError(f"potential G must be mean-free, got mean {mean(self.G):.3e}")
        require_positive(self.dt, "dt")
        require_positive(self.t_end, "t_end")
        if self.lambda_override is not None and not 0.0 <= self.lambda_override < 1.0:
            raise DomainError("lambda_override must lie in [0, 1)")

    @cached_property
    def _invariants(self):
        """(limit coefficients, kinematic viscosity mu(theta_bar)/rho_bar, grad G)."""
        coeffs = ob_coefficients(self.rho_bar, self.theta_bar, self.eos)
        nu = float(transport(self.theta_bar, self.eos)[0]) / self.rho_bar
        return coeffs, nu, grad(self.G, NeumannZ())

    def coefficients(self):
        return self._invariants[0]

    def lam_effective(self):
        if self.lambda_override is not None:
            return self.lambda_override
        return self.coefficients().lam

    def wall_values(self, t=0.0):
        """Theta_B at time t as (nx,) arrays; entries may be callables of t."""
        nx = self.grid.nx
        b = self.theta_b_bottom(t) if callable(self.theta_b_bottom) else self.theta_b_bottom
        tp = self.theta_b_top(t) if callable(self.theta_b_top) else self.theta_b_top
        return gr._wall_array(b, nx), gr._wall_array(tp, nx)


@dataclass
class ObState:
    U: VectorField
    temp: ScalarField
    Pi: ScalarField
    t: float
    frame: str = T_FRAME
    rhs_hist: tuple | None = field(default=None, compare=False)

    def copy(self):
        return ObState(self.U.copy(), self.temp.copy(), self.Pi.copy(), self.t, self.frame, None)


@dataclass
class LambdaTrace:
    """Per-step record of the non-local coupling: fint(T), Lambda, the wall
    heat flux, and the residual of the integrated heat balance."""

    t: np.ndarray
    mean_T: np.ndarray
    Lambda: np.ndarray
    flux: np.ndarray
    s24_residual: np.ndarray


@dataclass
class ObTrajectory:
    scenario: ObScenario
    frame: str
    dt: float
    times: list
    states: list
    trace: LambdaTrace


def _project(U, dt, grid):
    """Chorin projection: remove the discrete-gradient part of U."""
    rhs = div(U)
    rhs.values /= dt
    phi, _ = poisson_solve(rhs)
    gphi = grad(phi, NeumannZ())
    u = U.u - dt * gphi.u
    w = U.w - dt * gphi.w
    w[:, 0] = 0.0
    w[:, -1] = 0.0
    return VectorField(grid, u, w), phi


def _advect_scalar(grid, U, vals):
    """-div(U s) at centers; wall fluxes vanish because w = 0 there."""
    fx = U.u * center_to_xface(vals)
    fz = np.zeros_like(U.w)
    fz[:, 1:-1] = U.w[:, 1:-1] * 0.5 * (vals[:, 1:] + vals[:, :-1])
    dfx = (gr._xnext(fx) - fx) / grid.dx
    dfz = (fz[:, 1:] - fz[:, :-1]) / grid.dz
    return -(dfx + dfz)


def _grad_dot_faces(grid, U, gG):
    """grad G . U averaged from face products back to centers."""
    return xface_to_center(U.u * gG.u) + zface_to_center(U.w * gG.w)


def _buoyancy_faces(coef_center, gG):
    """Face force coef * grad G from a center coefficient field."""
    fx = center_to_xface(coef_center) * gG.u
    fz = np.zeros_like(gG.w)
    fz[:, 1:-1] = 0.5 * (coef_center[:, 1:] + coef_center[:, :-1]) * gG.w[:, 1:-1]
    return fx, fz


def recover_density_deviation(temp_field, scenario):
    """Density deviation from the Boussinesq relation,
    r = (rho_bar G + p_theta fint(T) - p_theta T) / p_rho; mean-free.

    temp_field must hold the T-frame deviation.
    """
    c = scenario.coefficients()
    m = mean(temp_field)
    vals = (scenario.rho_bar * scenario.G.values + c.p_theta * m - c.p_theta * temp_field.values) / c.p_rho
    return ScalarField(scenario.grid, vals, Staggering.CENTER)


def transform_frame(state, scenario):
    """Map between frames: Theta = T - lam fint(T); T = Theta + lam/(1-lam) fint(Theta)."""
    lam = scenario.lam_effective()
    if state.frame == T_FRAME:
        vals = state.temp.values - lam * mean(state.temp)
        frame = THETA_FRAME
    elif state.frame == THETA_FRAME:
        vals = state.temp.values + lam / (1.0 - lam) * mean(state.temp)
        frame = T_FRAME
    else:
        raise ShapeError(f"unknown frame {state.frame!r}")
    return ObState(state.U.copy(), ScalarField(scenario.grid, vals), state.Pi.copy(), state.t, frame, None)


def build_initial_ob(scenario, frame=T_FRAME):
    """Project U0 to the discrete divergence-free space and check that the
    initial temperature trace matches Theta_B (to discretization order)."""
    g = scenario.grid
    T0 = scenario.T0 if scenario.T0 is not None else ScalarField.zeros(g)
    U0 = scenario.U0 if scenario.U0 is not None else VectorField.zeros(g)
    wb, wt = scenario.wall_values(0.0)
    vals = T0.values
    trace_b = 1.5 * vals[:, 0] - 0.5 * vals[:, 1]
    trace_t = 1.5 * vals[:, -1] - 0.5 * vals[:, -2]
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = max(1e-8, 4.0 * g.dz ** 2 * scale)
    mismatch = max(np.max(np.abs(trace_b - wb)), np.max(np.abs(trace_t - wt)))
    if mismatch > tol:
        raise CompatibilityError(
            f"initial temperature trace deviates from Theta_B by {mismatch:.3e} (tol {tol:.3e})"
        )
    w = U0.w.copy()
    w[:, 0] = 0.0
    w[:, -1] = 0.0
    U, _ = _project(VectorField(g, U0.u.copy(), w), 1.0, g)
    state = ObState(U, T0.copy(), ScalarField.zeros(g), 0.0, T_FRAME, None)
    if frame == THETA_FRAME:
        state = transform_frame(state, scenario)
    return state


def _momentum_step(state, scenario, dt, buoy_center):
    """Shared AB2 advection + buoyancy, implicit diffusion, projection."""
    g = scenario.grid
    _, nu, gG = scenario._invariants

    adv_u, adv_w = advect_velocity(g, state.U.u, state.U.w)
    bx, bz = _buoyancy_faces(buoy_center, gG)
    F_u = adv_u + bx
    F_w = adv_w + bz
    F_w[:, 0] = 0.0
    F_w[:, -1] = 0.0
    if state.rhs_hist is not None:
        Fu_prev, Fw_prev = state.rhs_hist[0], state.rhs_hist[1]
        Fu_eff = 1.5 * F_u - 0.5 * Fu_prev
        Fw_eff = 1.5 * F_w - 0.5 * Fw_prev
    else:
        Fu_eff, Fw_eff = F_u, F_w

    ustar = helmholtz_solve(
        ScalarField(g, state.U.u + dt * Fu_eff, Staggering.XFACE), dt * nu, DirichletZ(0.0, 0.0)
    ).values
    wstar = helmholtz_solve_zface(
        ScalarField(g, state.U.w + dt * Fw_eff, Staggering.ZFACE), dt * nu
    ).values
    U_new, phi = _project(VectorField(g, ustar, wstar), dt, g)
    Pi = ScalarField(g, scenario.rho_bar * phi.values)
    return U_new, Pi, (F_u, F_w)


def _scalar_step(state, scenario, dt, U_new):
    """AB2 advection (plus source) and implicit diffusion under the Dirichlet
    walls at t + dt.  Returns the solution, the diffusion operator whose unit
    responses close the non-local mean, and this step's explicit rhs."""
    g = scenario.grid
    coeffs, _, gG = scenario._invariants
    A = _advect_scalar(g, U_new, state.temp.values)
    A += (scenario.theta_bar * coeffs.alpha / coeffs.c_p) * _grad_dot_faces(g, U_new, gG)
    if scenario.temp_source is not None:
        A += scenario.temp_source(state.t, *g._cell_mesh)
    A_eff = A if state.rhs_hist is None else 1.5 * A - 0.5 * state.rhs_hist[2]
    c = dt * coeffs.kappa_bar / (scenario.rho_bar * coeffs.c_p)
    wb, wt = scenario.wall_values(state.t + dt)
    data = helmholtz_solve(ScalarField(g, state.temp.values + dt * A_eff), c, DirichletZ(wb, wt))
    return data, gr._zop(g, c, "extrapolate"), A


def step_ob(state, scenario, dt):
    """One step of the state's frame: its buoyancy, then its closure of the mean."""
    g, lam = scenario.grid, scenario.lam_effective()
    k = lam / (1.0 - lam)
    if state.frame == T_FRAME:
        buoy = -scenario.coefficients().alpha * state.temp.values
    elif state.frame == THETA_FRAME:
        temp_equiv = ScalarField(g, state.temp.values + k * mean(state.temp))
        buoy = recover_density_deviation(temp_equiv, scenario).values / scenario.rho_bar
    else:
        raise ShapeError(f"unknown frame {state.frame!r}")
    U_new, Pi, (F_u, F_w) = _momentum_step(state, scenario, dt, buoy)
    temp, op, A = _scalar_step(state, scenario, dt, U_new)
    if lam != 0.0:
        # The step is affine in the unknown mean: temp + q * unit response.
        tframe = state.frame == T_FRAME
        denom = 1.0 - lam * op.unit_source_mean if tframe else 1.0 + k * op.unit_wall_mean
        if abs(denom) < 1e-12:
            raise ClosureError(f"degenerate scalar closure, denominator {denom:.3e}")
        if tframe:
            m_prev = mean(state.temp)
            q = lam * ((mean(temp) - lam * op.unit_source_mean * m_prev) / denom - m_prev)
        else:
            q = -k * (mean(temp) / denom)
        unit = op.unit_source if tframe else op.unit_wall
        temp = ScalarField(g, temp.values + q * unit.values)
    return ObState(U_new, temp, Pi, state.t + dt, state.frame, (F_u, F_w, A))


def boundary_heat_flux(vals, grid, wall_bottom, wall_top, kappa_bar):
    """Outward integral of kappa_bar grad(T) . n over both walls, with the
    one-sided quadratic stencil through the wall value and two cell centers.

    This stencil is exactly the conservative wall flux of the implicit
    diffusion step, so the reported flux is the one the scheme moves.
    """
    dz = grid.dz
    dn_bottom = (-8.0 * wall_bottom / 3.0 + 3.0 * vals[:, 0] - vals[:, 1] / 3.0) / dz
    dn_top = (8.0 * wall_top / 3.0 - 3.0 * vals[:, -1] + vals[:, -2] / 3.0) / dz
    return kappa_bar * grid.dx * float(np.sum(dn_top - dn_bottom))


_CUBIC_WALL = (-46.0 / 15.0, 15.0 / 4.0, -5.0 / 6.0, 3.0 / 20.0)


def _flux_cubic(vals, grid, wall_bottom, wall_top):
    """Outward flux integral with the one-sided cubic stencil (wall value and
    three cell centers).  Independent of the scheme's own flux, so the
    balance residual keeps an honest discretization error signal."""
    c0, c1, c2, c3 = _CUBIC_WALL
    dz = grid.dz
    dn_bottom = (c0 * wall_bottom + c1 * vals[:, 0] + c2 * vals[:, 1] + c3 * vals[:, 2]) / dz
    dn_top = -(c0 * wall_top + c1 * vals[:, -1] + c2 * vals[:, -2] + c3 * vals[:, -3]) / dz
    return grid.dx * float(np.sum(dn_top - dn_bottom))


def _frame_trace_data(state, scenario):
    """(T-frame mean, field values, wall values) seen by the trace diagnostics."""
    wb, wt = scenario.wall_values(state.t)
    if state.frame == T_FRAME:
        return mean(state.temp), state.temp.values, wb, wt
    # Theta differs from T by the constant lam/(1-lam) fint(Theta), so adding
    # the shift to field and walls recovers the T-frame pair exactly.
    M, lam = mean(state.temp), scenario.lam_effective()
    shift = lam / (1.0 - lam) * M
    return M / (1.0 - lam), state.temp.values + shift, wb, wt


def _source_mean(state, scenario):
    if scenario.temp_source is None:
        return 0.0
    return float(np.mean(scenario.temp_source(state.t, *scenario.grid._cell_mesh)))


@dataclass
class _TraceCursor:
    """Rolling quantities the per-step balance needs from the previous state."""

    m: float
    flux_cubic: float
    source_mean: float

    @classmethod
    def start(cls, state, scenario):
        m, vals, wb, wt = _frame_trace_data(state, scenario)
        return cls(m, _flux_cubic(vals, scenario.grid, wb, wt), _source_mean(state, scenario))


def _trace_row(cur, state, scenario, dt):
    """Advance the cursor by one state; returns the cursor and the CSV row.

    Lambda is the pinned backward difference.  The balance residual integrates
    the mean-temperature identity over the step: backward-difference mean
    change against the trapezoidal average of the cubic-stencil wall flux
    (plus the source mean when a source hook is active).  The flux column
    itself reports the scheme's conservative (quadratic-stencil) flux.
    """
    m_now, vals, wb, wt = _frame_trace_data(state, scenario)
    g, coeffs, lam = scenario.grid, scenario.coefficients(), scenario.lam_effective()
    dm_dt = (m_now - cur.m) / dt
    Lambda = lam * scenario.rho_bar * coeffs.c_p * dm_dt
    flux = boundary_heat_flux(vals, g, wb, wt, coeffs.kappa_bar)
    fc_now = _flux_cubic(vals, g, wb, wt)
    sm_now = _source_mean(state, scenario)
    nu_T = coeffs.kappa_bar / (scenario.rho_bar * coeffs.c_p)
    resid = (
        (1.0 - lam) * g.volume * dm_dt
        - nu_T * 0.5 * (fc_now + cur.flux_cubic)
        - g.volume * 0.5 * (sm_now + cur.source_mean)
    )
    return _TraceCursor(m_now, fc_now, sm_now), (state.t, m_now, Lambda, flux, resid)


def _check_cfl(state, scenario, dt):
    g = scenario.grid
    vmax = max(float(np.max(np.abs(state.U.u))), float(np.max(np.abs(state.U.w))))
    if vmax == 0.0:
        return
    bound = 0.5 * min(g.dx, g.dz) / vmax
    if dt > bound:
        raise StabilityError(
            f"advective CFL violated at t={state.t:.4g}: dt={dt:.3e} exceeds {bound:.3e}"
        )


def run_ob(scenario, frame=T_FRAME, snapshot_dt=None, initial=None):
    """Integrate to t_end; returns the trajectory with snapshots and trace.

    Snapshots are stored at multiples of snapshot_dt (which must be a
    multiple of dt) plus the initial and final states.
    """
    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    if abs(n_steps * dt - scenario.t_end) > 1e-9 * max(1.0, scenario.t_end):
        raise DomainError("t_end must be an integer multiple of dt")
    every = None
    if snapshot_dt is not None:
        require_positive(snapshot_dt, "snapshot_dt")
        every = int(round(snapshot_dt / dt))
        if every < 1 or abs(every * dt - snapshot_dt) > 1e-9 * snapshot_dt:
            raise DomainError("snapshot_dt must be a positive multiple of dt")

    state = initial.copy() if initial is not None else build_initial_ob(scenario, frame)
    if state.frame != frame:
        raise ShapeError(f"initial state frame {state.frame!r} does not match {frame!r}")

    times = [state.t]
    states = [state.copy()]
    rows = []
    cur = _TraceCursor.start(state, scenario)
    for n in range(1, n_steps + 1):
        _check_cfl(state, scenario, dt)
        state = step_ob(state, scenario, dt)
        if not (np.all(np.isfinite(state.temp.values)) and np.all(np.isfinite(state.U.u))):
            raise DivergenceError("non-finite fields", step=n, time=state.t)
        cur, row = _trace_row(cur, state, scenario, dt)
        rows.append(row)
        if (every is not None and n % every == 0) or n == n_steps:
            times.append(state.t)
            states.append(state.copy())
    return ObTrajectory(scenario, frame, dt, times, states, LambdaTrace(*np.array(rows).T))
