"""Limit-system solver in two equivalent formulations.

T-frame: the temperature deviation T satisfies a heat equation with a
non-local source Lambda/(rho_bar c_p), Lambda = theta_bar alpha p_theta
d/dt fint(T), and plain Dirichlet walls T = Theta_B.  Theta-frame: the
shifted variable Theta = T - lam fint(T) satisfies the conventional heat
equation but with the non-local wall trace Theta_B - lam/(1-lam) fint(Theta).
Both close the scalar mean implicitly: the implicit diffusion step is affine
in the unknown mean, so two Helmholtz solves plus one scalar equation give
the exact discrete fixed point of the coupling.  One routine steps either
frame; the frames differ only in the buoyancy and in the unit response
(source or wall) that closes the mean.  That routine, _step, is an unchecked
kernel on raw arrays: step_ob validates and wraps it, and run_ob calls it
directly and builds fields only for its snapshots.

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
    Grid,
    NeumannZ,
    ScalarField,
    Staggering,
    VectorField,
    advect_velocity,
    center_to_xface,
    grad,
    mean,
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
        gr._require_finite_walls(self.wall_values(0.0))  # callable walls at t = 0

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


def _project(u, w, dt, grid):
    """Chorin projection of the face arrays (u, w): returns the discretely
    divergence-free pair (w with zero wall rows) and the potential phi whose
    gradient was removed."""
    rhs = (gr._xnext(u) - u) / grid.dx + (w[:, 1:] - w[:, :-1]) / grid.dz
    rhs /= dt
    phi, _ = gr._poisson(rhs, grid)
    u_new = u - dt * ((phi - gr._xprev(phi)) / grid.dx)
    w_new = np.zeros(w.shape)
    w_new[:, 1:-1] = w[:, 1:-1] - dt * ((phi[:, 1:] - phi[:, :-1]) / grid.dz)
    return u_new, w_new, phi


def _advect_scalar(grid, u, w, vals):
    """-div(U s) at centers; wall fluxes vanish because w = 0 there."""
    fx = u * center_to_xface(vals)
    fz = np.zeros(w.shape)
    fz[:, 1:-1] = w[:, 1:-1] * 0.5 * (vals[:, 1:] + vals[:, :-1])
    dfx = (gr._xnext(fx) - fx) / grid.dx
    dfz = (fz[:, 1:] - fz[:, :-1]) / grid.dz
    return -(dfx + dfz)


def _grad_dot_faces(u, w, gG):
    """grad G . U averaged from face products back to centers."""
    return xface_to_center(u * gG.u) + zface_to_center(w * gG.w)


def _buoyancy_faces(coef_center, gG):
    """Face force coef * grad G from a center coefficient field."""
    fx = center_to_xface(coef_center) * gG.u
    fz = np.zeros(gG.w.shape)
    fz[:, 1:-1] = 0.5 * (coef_center[:, 1:] + coef_center[:, :-1]) * gG.w[:, 1:-1]
    return fx, fz


def _density_deviation(vals, m, scenario):
    """recover_density_deviation on T-frame values vals whose mean is m."""
    c = scenario.coefficients()
    return (scenario.rho_bar * scenario.G.values + c.p_theta * m - c.p_theta * vals) / c.p_rho


def recover_density_deviation(temp_field, scenario):
    """Density deviation from the Boussinesq relation,
    r = (rho_bar G + p_theta fint(T) - p_theta T) / p_rho; mean-free.

    temp_field must hold the T-frame deviation.
    """
    vals = _density_deviation(temp_field.values, mean(temp_field), scenario)
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
    u, w, _ = _project(U0.u, w, 1.0, g)
    state = ObState(VectorField(g, u, w), T0.copy(), ScalarField.zeros(g), 0.0, T_FRAME, None)
    if frame == THETA_FRAME:
        state = transform_frame(state, scenario)
    return state


def _step(scenario, tframe, dt, t, u, w, temp, m, hist):
    """One step on raw arrays, unchecked: the state (u, w, temp) at time t in
    the T frame (tframe) or the Theta frame, m = mean(temp), and hist the
    previous step's explicit right-hand sides (None on a first step).

    Returns (u, w, temp, Pi, hist, walls) at t + dt; walls are the Dirichlet
    wall values at t + dt that the scalar step used.  No input is modified.
    """
    g = scenario.grid
    coeffs, nu, gG = scenario._invariants
    lam = scenario.lam_effective()
    k = lam / (1.0 - lam)

    # Momentum: AB2 advection and buoyancy, implicit diffusion, projection.
    if tframe:
        buoy = -coeffs.alpha * temp
    else:
        equiv = temp + k * m
        buoy = _density_deviation(equiv, gr._mean(equiv), scenario) / scenario.rho_bar
    adv_u, adv_w = advect_velocity(g, u, w)
    bx, bz = _buoyancy_faces(buoy, gG)
    F_u = adv_u + bx
    F_w = adv_w + bz
    F_w[:, 0] = 0.0
    F_w[:, -1] = 0.0
    if hist is None:
        Fu_eff, Fw_eff = F_u, F_w
    else:
        Fu_eff = 1.5 * F_u - 0.5 * hist[0]
        Fw_eff = 1.5 * F_w - 0.5 * hist[1]
    ustar = gr._zop(g, dt * nu, "mirror").solve(u + dt * Fu_eff)
    wstar = np.zeros(w.shape)
    wstar[:, 1:-1] = gr._zop(g, dt * nu, "zface").solve((w + dt * Fw_eff)[:, 1:-1])
    u_new, w_new, phi = _project(ustar, wstar, dt, g)

    # Scalar: AB2 advection (plus source), implicit diffusion under the
    # Dirichlet walls at t + dt, then the closure of the mean.
    A = _advect_scalar(g, u_new, w_new, temp)
    A += (scenario.theta_bar * coeffs.alpha / coeffs.c_p) * _grad_dot_faces(u_new, w_new, gG)
    if scenario.temp_source is not None:
        A += scenario.temp_source(t, *g._cell_mesh)
    A_eff = A if hist is None else 1.5 * A - 0.5 * hist[2]
    c = dt * coeffs.kappa_bar / (scenario.rho_bar * coeffs.c_p)
    walls = scenario.wall_values(t + dt)
    op = gr._zop(g, c, "extrapolate")
    temp_new = op.solve(temp + dt * A_eff, *walls)
    if lam != 0.0:
        # The step is affine in the unknown mean: temp + q * unit response.
        denom = 1.0 - lam * op.unit_source_mean if tframe else 1.0 + k * op.unit_wall_mean
        if abs(denom) < 1e-12:
            raise ClosureError(f"degenerate scalar closure, denominator {denom:.3e}")
        if tframe:
            q = lam * ((gr._mean(temp_new) - lam * op.unit_source_mean * m) / denom - m)
        else:
            q = -k * (gr._mean(temp_new) / denom)
        unit = op.unit_source if tframe else op.unit_wall
        temp_new = temp_new + q * unit.values
    return u_new, w_new, temp_new, scenario.rho_bar * phi, (F_u, F_w, A), walls


def step_ob(state, scenario, dt):
    """One step of the state's frame: its buoyancy, then its closure of the mean."""
    require_positive(dt, "dt")
    if state.frame not in (T_FRAME, THETA_FRAME):
        raise ShapeError(f"unknown frame {state.frame!r}")
    u, w, temp, Pi, hist, _ = _step(
        scenario, state.frame == T_FRAME, dt, state.t,
        state.U.u, state.U.w, state.temp.values, mean(state.temp), state.rhs_hist,
    )
    g = scenario.grid
    return ObState(VectorField(g, u, w), ScalarField(g, temp), ScalarField(g, Pi), state.t + dt, state.frame, hist)


def boundary_heat_flux(vals, grid, wall_bottom, wall_top, kappa_bar):
    """Outward integral of kappa_bar grad(T) . n over both walls, with the
    one-sided quadratic stencil through the wall value and two cell centers.

    This stencil is exactly the conservative wall flux of the implicit
    diffusion step, so the reported flux is the one the scheme moves.
    """
    dz = grid.dz
    dn_bottom = (-8.0 * wall_bottom / 3.0 + 3.0 * vals[:, 0] - vals[:, 1] / 3.0) / dz
    dn_top = (8.0 * wall_top / 3.0 - 3.0 * vals[:, -1] + vals[:, -2] / 3.0) / dz
    return kappa_bar * grid.dx * float((dn_top - dn_bottom).sum())


_CUBIC_WALL = (-46.0 / 15.0, 15.0 / 4.0, -5.0 / 6.0, 3.0 / 20.0)


def _flux_cubic(vals, grid, wall_bottom, wall_top):
    """Outward flux integral with the one-sided cubic stencil (wall value and
    three cell centers).  Independent of the scheme's own flux, so the
    balance residual keeps an honest discretization error signal."""
    c0, c1, c2, c3 = _CUBIC_WALL
    dz = grid.dz
    dn_bottom = (c0 * wall_bottom + c1 * vals[:, 0] + c2 * vals[:, 1] + c3 * vals[:, 2]) / dz
    dn_top = -(c0 * wall_top + c1 * vals[:, -1] + c2 * vals[:, -2] + c3 * vals[:, -3]) / dz
    return grid.dx * float((dn_top - dn_bottom).sum())


def _frame_trace_data(scenario, tframe, temp, m):
    """(T-frame mean, T-frame field values) seen by the trace diagnostics;
    m is the mean of the frame's field temp."""
    if tframe:
        return m, temp
    # Theta differs from T by the constant lam/(1-lam) fint(Theta), so adding
    # the shift to field and walls recovers the T-frame pair exactly.
    lam = scenario.lam_effective()
    return m / (1.0 - lam), temp + lam / (1.0 - lam) * m


def _source_mean(scenario, t):
    if scenario.temp_source is None:
        return 0.0
    return float(np.mean(scenario.temp_source(t, *scenario.grid._cell_mesh)))


@dataclass
class _TraceCursor:
    """Rolling quantities the per-step balance needs from the previous state."""

    m: float
    flux_cubic: float
    source_mean: float

    @classmethod
    def start(cls, scenario, tframe, t, temp, m):
        m, vals = _frame_trace_data(scenario, tframe, temp, m)
        wb, wt = scenario.wall_values(t)
        return cls(m, _flux_cubic(vals, scenario.grid, wb, wt), _source_mean(scenario, t))


def _trace_row(cur, scenario, tframe, dt, t, temp, m, walls):
    """Advance the cursor by the state temp (mean m, wall values walls) at
    time t; returns the cursor and the CSV row.

    Lambda is the pinned backward difference.  The balance residual integrates
    the mean-temperature identity over the step: backward-difference mean
    change against the trapezoidal average of the cubic-stencil wall flux
    (plus the source mean when a source hook is active).  The flux column
    itself reports the scheme's conservative (quadratic-stencil) flux.
    """
    m_now, vals = _frame_trace_data(scenario, tframe, temp, m)
    wb, wt = walls
    g, coeffs, lam = scenario.grid, scenario.coefficients(), scenario.lam_effective()
    dm_dt = (m_now - cur.m) / dt
    Lambda = lam * scenario.rho_bar * coeffs.c_p * dm_dt
    flux = boundary_heat_flux(vals, g, wb, wt, coeffs.kappa_bar)
    fc_now = _flux_cubic(vals, g, wb, wt)
    sm_now = _source_mean(scenario, t)
    nu_T = coeffs.kappa_bar / (scenario.rho_bar * coeffs.c_p)
    resid = (
        (1.0 - lam) * g.volume * dm_dt
        - nu_T * 0.5 * (fc_now + cur.flux_cubic)
        - g.volume * 0.5 * (sm_now + cur.source_mean)
    )
    return _TraceCursor(m_now, fc_now, sm_now), (t, m_now, Lambda, flux, resid)


def _check_cfl(u, w, t, grid, dt):
    vmax = max(float(np.abs(u).max()), float(np.abs(w).max()))
    if vmax == 0.0:
        return
    bound = 0.5 * min(grid.dx, grid.dz) / vmax
    if dt > bound:
        raise StabilityError(
            f"advective CFL violated at t={t:.4g}: dt={dt:.3e} exceeds {bound:.3e}"
        )


def run_ob(scenario, frame=T_FRAME, snapshot_dt=None, initial=None):
    """Integrate to t_end; returns the trajectory with snapshots and trace.

    Snapshots are stored at multiples of snapshot_dt (which must be a
    multiple of dt) plus the initial and final states.  The loop steps raw
    arrays and builds fields only for the snapshots.
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

    g, tframe = scenario.grid, frame == T_FRAME
    u, w, temp, t, hist = state.U.u, state.U.w, state.temp.values, state.t, None
    m = mean(state.temp)
    times = [t]
    states = [state]  # a private copy, and the steps never write to their inputs
    rows = []
    cur = _TraceCursor.start(scenario, tframe, t, temp, m)
    for n in range(1, n_steps + 1):
        _check_cfl(u, w, t, g, dt)
        u, w, temp, Pi, hist, walls = _step(scenario, tframe, dt, t, u, w, temp, m, hist)
        t = t + dt
        if not (np.isfinite(temp).all() and np.isfinite(u).all()):
            raise DivergenceError("non-finite fields", step=n, time=t)
        m = gr._mean(temp)
        cur, row = _trace_row(cur, scenario, tframe, dt, t, temp, m, walls)
        rows.append(row)
        if (every is not None and n % every == 0) or n == n_steps:
            times.append(t)
            states.append(ObState(VectorField(g, u, w), ScalarField(g, temp), ScalarField(g, Pi), t, frame))
    return ObTrajectory(scenario, frame, dt, times, states, LambdaTrace(*np.array(rows).T))
