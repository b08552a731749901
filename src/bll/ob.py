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
directly and builds fields only for its snapshots.  run_ob builds a wall
that is not a callable of t once per run (_wall_schedule); only callable
walls are evaluated per step.

run_ob's trace audits the non-local coupling at every step.  The loop only
records each step's mean, the cell rows next to the walls, the wall values
and the source mean, in buffers of _TRACE_BLOCK steps; the rows of a block
are formed in one vectorised pass, element for element the arithmetic of a
row formed per step.

Momentum: explicit Adams-Bashforth-2 advection and buoyancy, implicit Euler
diffusion (viscosity mu(theta_bar)), non-incremental Chorin projection.
Scalar advection is in divergence form, so the discrete mean of the
temperature is moved only by diffusion and the non-local term, matching the
integral identity the trace diagnostics monitor.

The lambda_override hook replaces lam everywhere it encodes the non-local
coupling (source, moving trace, frame transforms); 0 gives the classical
Dirichlet limit system.

The step takes a run's invariants from a private plan (_StepPlan) that
run_ob builds once per run and step_ob once per call: lam, k, the
viscosity nu = mu(theta_bar)/rho_bar and theta_bar alpha/c_p, the
z-operators, the closure's unit response and its denominator, checked
once, and grad G as its x and z components, each None when it is
identically zero; the step skips every term that multiplies such a zero.
A run at rest (G = 0 and a projected U0 exactly 0) has no buoyancy, so U
stays exactly 0: run_ob's plan then builds no momentum half, and its step
runs only the scalar diffusion and closure.  step_ob takes the full path.
A skipped term would add an exact zero, so every value equals the full
form's (a zero may differ in sign).  The scenario caches its coefficients,
nu and grad G at first use, so a scenario is not to be mutated once run.

The plan also owns every work array of the step and the views its
stencils read: the advection stencil's (grid._Advection) and the
projection's (_Projection), x-ghost-padded so that a periodic neighbour is
a contiguous slice, the spectra of the four z-solves, the AB2 combinations,
the padded temperature and the scalar fluxes; the factors of its array
operations are 0-d arrays (grid._const).  The step writes them with out=
and allocates only what it returns (u, w, temp, Pi and the AB2 history),
which run_ob keeps as snapshots and history, and the boolean mask of the
projection's finite check; every value is bit for bit the allocating
form's.  Work arrays live on the plan only, never on the
grid-cached z-operators, the Grid or the scenario, so that runs share no
state.  step_ob rejects a state on another grid (ShapeError) or with a NaN
or inf (DomainError).
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
    ScalarField,
    Staggering,
    VectorField,
    grad,
    mean,
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
    "TRACE_COLUMNS",
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
        require_positive(self.rho_bar, "rho_bar")
        require_positive(self.theta_bar, "theta_bar")
        if self.G is None:
            self.G = ScalarField.zeros(self.grid)
        if not np.isfinite(self.G.values).all():
            raise DomainError("G must be finite")
        if abs(mean(self.G)) > 1e-12:
            raise DomainError(f"potential G must be mean-free, got mean {mean(self.G):.3e}")
        require_positive(self.dt, "dt")
        require_positive(self.t_end, "t_end")
        if self.lambda_override is not None and not 0.0 <= self.lambda_override < 1.0:
            raise DomainError("lambda_override must lie in [0, 1)")
        gr._require_finite_walls(self.wall_values(0.0))  # callable walls at t = 0
        gr._require_finite_initial(self.T0, self.U0)

    @cached_property
    def _invariants(self):
        """(limit coefficients, kinematic viscosity mu(theta_bar)/rho_bar, grad G)."""
        coeffs = ob_coefficients(self.rho_bar, self.theta_bar, self.eos)
        nu = float(transport(self.theta_bar, self.eos)[0]) / self.rho_bar
        return coeffs, nu, grad(self.G)

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
        """A deep copy, the AB2 history included."""
        hist = None if self.rhs_hist is None else tuple(np.array(a, dtype=float) for a in self.rhs_hist)
        return ObState(self.U.copy(), self.temp.copy(), self.Pi.copy(), self.t, self.frame, hist)


# Columns of run_ob's per-step trace of the non-local coupling: time, fint(T),
# Lambda, the wall heat flux, and the residual of the integrated heat balance.
TRACE_COLUMNS = ("t", "mean_T", "Lambda", "flux", "s24_residual")


@dataclass
class ObTrajectory:
    scenario: ObScenario
    frame: str
    times: list
    states: list
    trace: np.recarray  # one record per step, fields TRACE_COLUMNS


class _Projection:
    """Chorin projection on one grid, with its work arrays and the views its
    stencils read: write the face arrays to be projected into u and w_in,
    the interior rows of w (its wall rows stay zero), then call it with dt."""

    def __init__(self, grid):
        nx, nz = grid.nx, grid.nz
        self.op = gr._poisson_op(grid)
        self.work = self.op.workspace()
        self.dx, self.dz = gr._const(grid.dx), gr._const(grid.dz)
        # u with its periodic next row u[0] below it, and phi with its
        # periodic previous row phi[-1] above it.
        self.u_pad = np.empty((nx + 1, nz))
        self.u, self.u_next = self.u_pad[:-1], self.u_pad[1:]
        self.w = np.zeros((nx, nz + 1))
        self.w_in, self.w_hi, self.w_lo = self.w[:, 1:-1], self.w[:, 1:], self.w[:, :-1]
        self.phi_pad = np.empty((nx + 1, nz))
        self.phi, self.phi_prev = self.phi_pad[1:], self.phi_pad[:-1]
        self.phi_hi, self.phi_lo = self.phi[:, 1:], self.phi[:, :-1]
        self.rhs, self.dz_part = np.empty((nx, nz)), np.empty((nx, nz))
        self.grad_z = np.empty((nx, nz - 1))

    def __call__(self, dt):
        """The discretely divergence-free pair (u, w), fresh arrays, w with
        zero wall rows, and the potential phi whose gradient was removed, a
        work array that the next call overwrites."""
        u, phi = self.u, self.phi
        self.u_pad[-1] = u[0]
        rhs = np.subtract(self.u_next, u, out=self.rhs)
        rhs /= self.dx
        dz_part = np.subtract(self.w_hi, self.w_lo, out=self.dz_part)
        dz_part /= self.dz
        rhs += dz_part
        rhs /= dt
        gr._poisson(rhs, self.op, out=phi, work=self.work)
        self.phi_pad[0] = phi[-1]
        grad_x = np.subtract(phi, self.phi_prev, out=self.rhs)
        grad_x /= self.dx
        grad_x *= dt
        u_new = np.subtract(u, grad_x)
        grad_z = np.subtract(self.phi_hi, self.phi_lo, out=self.grad_z)
        grad_z /= self.dz
        grad_z *= dt
        w_new = np.zeros(self.w.shape)
        np.subtract(self.w_in, grad_z, out=w_new[:, 1:-1])
        return u_new, w_new, phi


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
    """Project U0 to the discrete divergence-free space (no U0 starts at
    rest, unprojected) and check that the initial temperature trace matches
    Theta_B (to discretization order); the state is in the given frame."""
    if frame not in (T_FRAME, THETA_FRAME):
        raise ShapeError(f"unknown frame {frame!r}")
    g = scenario.grid
    T0 = scenario.T0 if scenario.T0 is not None else ScalarField.zeros(g)
    U0 = scenario.U0 if scenario.U0 is not None else VectorField.zeros(g)
    wb, wt = scenario.wall_values(0.0)
    scale = max(1.0, float(np.max(np.abs(T0.values))))
    tol = max(1e-8, 4.0 * g.dz ** 2 * scale)
    mismatch = gr._wall_trace_gap(T0.values, wb, wt)
    if mismatch > tol:
        raise CompatibilityError(
            f"initial temperature trace deviates from Theta_B by {mismatch:.3e} (tol {tol:.3e})"
        )
    if scenario.U0 is None:  # projected zeros are +0.0 zeros: build no projection
        u, w = U0.u, U0.w
    else:
        project = _Projection(g)
        project.u[...] = U0.u
        project.w_in[...] = U0.w[:, 1:-1]
        u, w, _ = project(1.0)
    state = ObState(VectorField(g, u, w), T0.copy(), ScalarField.zeros(g), 0.0, T_FRAME, None)
    if frame == THETA_FRAME:
        state = transform_frame(state, scenario)
    return state


def _source(scenario, t):
    """The scenario's temp_source at time t on the cell centers (None without one)."""
    if scenario.temp_source is None:
        return None
    return scenario.temp_source(t, *scenario.grid._cell_mesh)


def _wall_schedule(scenario):
    """Theta_B of one run as a function of t that returns two (bottom, top)
    pairs: the (nx,) wall arrays at t, and the walls for the scalar solve,
    in which an all-zero wall is 0.0 (the solve skips a zero wall, and a
    scalar one unexpanded).  A wall that is not a callable of t is built
    and checked for zeros once, when the schedule is made."""
    nx = scenario.grid.nx
    bottom, top = scenario.theta_b_bottom, scenario.theta_b_top
    fixed_b = None if callable(bottom) else gr._wall_array(bottom, nx)
    fixed_t = None if callable(top) else gr._wall_array(top, nx)
    solve_b = fixed_b if fixed_b is None or fixed_b.any() else 0.0
    solve_t = fixed_t if fixed_t is None or fixed_t.any() else 0.0

    def at(t):
        wb = gr._wall_array(bottom(t), nx) if fixed_b is None else fixed_b
        wt = gr._wall_array(top(t), nx) if fixed_t is None else fixed_t
        return (wb, wt), (wb if solve_b is None else solve_b, wt if solve_t is None else solve_t)

    return at


def _closure_denominator(lam, k, unit_mean, tframe):
    """Denominator of the mean's closure: the step is affine in the unknown
    mean, temp + q * unit response, and q divides by this."""
    return 1.0 - lam * unit_mean if tframe else 1.0 + k * unit_mean


class _StepPlan:
    """What every step of one run shares, bound once: the coefficients, the
    z-operators, the closure's unit response with its checked denominator,
    and grad G as (gx, gz), a component None when it is identically zero.
    The step skips every term multiplying such a zero, and an at-rest plan
    has no momentum half.

    The plan also owns every work array of the step, which the step
    overwrites with out=: the advection stencil's and the projection's, the
    spectra of the z-solves, the AB2 combinations, the x-ghost-padded
    temperature, the scalar fluxes and the buoyancy.  A plan therefore
    serves one run, or one step_ob call, and no other."""

    def __init__(self, scenario, tframe, dt, at_rest=False):
        coeffs, nu, gG = scenario._invariants
        g = scenario.grid
        self.tframe = tframe
        self.lam = lam = scenario.lam_effective()
        self.k = k = lam / (1.0 - lam)
        # The factors of array operations as 0-d arrays (grid._const).
        const = gr._const
        self.dt, self.dx, self.dz, self.rho_bar = const(dt), const(g.dx), const(g.dz), const(scenario.rho_bar)
        self.half, self.three_halves = const(0.5), const(1.5)
        self.neg_alpha = const(-coeffs.alpha)
        self.p_theta, self.p_rho = const(coeffs.p_theta), const(coeffs.p_rho)
        self.rho_G = scenario.rho_bar * scenario.G.values
        self.adiabatic = const(scenario.theta_bar * coeffs.alpha / coeffs.c_p)
        self.gx = gG.u if gG.u.any() else None
        self.gz = gG.w if gG.w.any() else None
        # at_rest: the run starts from U = 0 exactly.  Without grad G it stays
        # there, and the plan has no momentum half.
        self.at_rest = at_rest and self.gx is None and self.gz is None
        c = dt * coeffs.kappa_bar / (scenario.rho_bar * coeffs.c_p)
        self.extrapolate = op = gr._zop(g, c, "extrapolate")
        self.unit = None
        if lam != 0.0:
            self.unit = op.unit_source if tframe else op.unit_wall
            unit_mean = gr._mean(self.unit)
            self.denom = _closure_denominator(lam, k, unit_mean, tframe)
            if abs(self.denom) < 1e-12:
                raise ClosureError(f"degenerate scalar closure, denominator {self.denom:.3e}")
            self.lam_unit_mean = lam * unit_mean

        nx, nz = g.nx, g.nz
        self.extrapolate_work = op.workspace()
        # x + dt F_eff (_explicit) and its lag term, per staggering.
        self.data, self.lag = np.empty((nx, nz)), np.empty((nx, nz))
        self.center = np.empty((nx, nz))
        if self.at_rest:
            return
        self.mirror = gr._zop(g, dt * nu, "mirror")
        self.zface = gr._zop(g, dt * nu, "zface")
        self.advect = gr._Advection(g)
        self.project = _Projection(g)  # with the pinned Poisson operator
        self.mirror_work = self.mirror.workspace()
        self.zface_work = self.zface.workspace()
        self.data_u, self.lag_u = np.empty((nx, nz)), np.empty((nx, nz))
        self.data_w, self.lag_w = np.empty((nx, nz + 1)), np.empty((nx, nz + 1))
        self.data_w_in = self.data_w[:, 1:-1]
        # Centre arrays with their periodic previous row above them, and the
        # x-flux with its periodic next row below it.
        self.buoy_pad = np.empty((nx + 1, nz))
        self.buoy, self.buoy_prev = self.buoy_pad[1:], self.buoy_pad[:-1]
        self.temp_pad = np.empty((nx + 1, nz))
        self.temp_in, self.temp_prev = self.temp_pad[1:], self.temp_pad[:-1]
        self.flux_x_pad = np.empty((nx + 1, nz))
        self.flux_x, self.flux_x_next = self.flux_x_pad[:-1], self.flux_x_pad[1:]
        self.flux_z = np.zeros((nx, nz + 1))  # wall rows stay zero: w = 0 there
        self.flux_z_in, self.flux_z_hi, self.flux_z_lo = self.flux_z[:, 1:-1], self.flux_z[:, 1:], self.flux_z[:, :-1]
        self.div_x, self.div_z = np.empty((nx, nz)), np.empty((nx, nz))
        self.pairs_z = np.empty((nx, nz - 1))
        self.face_z = np.empty((nx, nz + 1))


def _explicit(p, x, F, old, out, lag):
    """x + dt F_eff written to out, F_eff the AB2 combination 1.5 F - 0.5 old
    (F itself on a first step, old None); lag is a work array."""
    if old is None:
        np.multiply(F, p.dt, out=out)
    else:
        np.multiply(F, p.three_halves, out=out)
        np.multiply(old, p.half, out=lag)
        out -= lag
        out *= p.dt
    out += x
    return out


def _buoyancy(p, temp, m):
    """The buoyancy of the plan's frame at the centres, a work array:
    -alpha T in the T frame, the density deviation of the T-frame values
    temp + k m over rho_bar in the Theta frame."""
    buoy = p.buoy
    if p.tframe:
        return np.multiply(temp, p.neg_alpha, out=buoy)
    equiv = np.add(temp, p.k * m, out=p.center)
    np.add(p.rho_G, p.p_theta * gr._mean(equiv), out=buoy)
    equiv *= p.p_theta
    buoy -= equiv
    buoy /= p.p_rho
    buoy /= p.rho_bar
    return buoy


def _advect_scalar(p, u, w, vals):
    """-div(U s) at centers, a fresh array; wall fluxes vanish because w = 0
    there."""
    p.temp_in[...] = vals
    p.temp_pad[0] = vals[-1]
    fx = np.add(p.temp_prev, vals, out=p.flux_x)
    fx *= p.half
    fx *= u
    p.flux_x_pad[-1] = fx[0]
    dfx = np.subtract(p.flux_x_next, fx, out=p.div_x)
    dfx /= p.dx
    fz = np.multiply(w[:, 1:-1], p.half, out=p.flux_z_in)
    fz *= np.add(vals[:, 1:], vals[:, :-1], out=p.pairs_z)
    dfz = np.subtract(p.flux_z_hi, p.flux_z_lo, out=p.div_z)
    dfz /= p.dz
    A = np.add(dfx, dfz)
    return np.negative(A, out=A)


def _adiabatic_term(p, u, w):
    """(theta_bar alpha/c_p) grad G . U, averaged from face products back to
    centers, a work array; a component of grad G that is None is zero and
    skipped."""
    gx, gz = p.gx, p.gz
    if gz is not None:
        wz = np.multiply(w, gz, out=p.face_z)
        out = np.add(wz[:, 1:], wz[:, :-1], out=p.div_z)
        out *= p.half
    if gx is not None:
        ux = np.multiply(u, gx, out=p.flux_x)
        p.flux_x_pad[-1] = ux[0]
        xc = np.add(p.flux_x_next, ux, out=p.div_x)
        xc *= p.half
        out = xc if gz is None else np.add(xc, out, out=xc)
    out *= p.adiabatic
    return out


def _momentum(p, u, w, temp, m, old_u, old_w):
    """The momentum half of a step: AB2 advection and buoyancy, implicit
    diffusion, projection.  Returns (u, w, Pi) at the step's end and the
    explicit right-hand sides (F_u, F_w), each a fresh array."""
    gx, gz = p.gx, p.gz
    # The wall rows of F_w are the advection's zeros.
    F_u, F_w = p.advect(u, w)
    if gx is not None or gz is not None:
        buoy = _buoyancy(p, temp, m)
        if gx is not None:
            p.buoy_pad[0] = buoy[-1]
            face = np.add(p.buoy_prev, buoy, out=p.center)
            face *= p.half
            face *= gx
            F_u += face
        if gz is not None:
            face = np.add(buoy[:, 1:], buoy[:, :-1], out=p.pairs_z)
            face *= p.half
            face *= gz[:, 1:-1]
            F_w[:, 1:-1] += face
    # The diffused velocities land in the projection's input arrays.
    project = p.project
    p.mirror.solve(_explicit(p, u, F_u, old_u, p.data_u, p.lag_u), out=project.u, work=p.mirror_work)
    _explicit(p, w, F_w, old_w, p.data_w, p.lag_w)
    p.zface.solve(p.data_w_in, out=project.w_in, work=p.zface_work)
    u_new, w_new, phi = project(p.dt)
    return u_new, w_new, np.multiply(phi, p.rho_bar), F_u, F_w


def _step(plan, u, w, temp, m, hist, source, walls):
    """One step on raw arrays, unchecked: the state (u, w, temp) in the
    plan's frame, m = mean(temp), hist the previous step's explicit
    right-hand sides (None on a first step), source the scenario's
    temp_source at the step's start (None without one) and walls the
    Dirichlet (bottom, top) wall values at its end, as helmholtz_solve
    takes them.

    Returns (u, w, temp, Pi, hist) at the step's end, each a fresh array;
    every other array the step writes is a work array of the plan.  No
    input is modified.  On an at-rest plan u, w and Pi are zeros, which
    hist's first two entries share, and only the scalar half runs.
    """
    p = plan
    old_u, old_w, old_A = (None, None, None) if hist is None else hist
    if p.at_rest:
        # U = 0 exactly: every momentum term and every scalar flux is zero.
        u_new, w_new, Pi = np.zeros(u.shape), np.zeros(w.shape), np.zeros(temp.shape)
        F_u, F_w, A = u_new, w_new, np.zeros(temp.shape)
    else:
        u_new, w_new, Pi, F_u, F_w = _momentum(p, u, w, temp, m, old_u, old_w)
        A = _advect_scalar(p, u_new, w_new, temp)
        if p.gx is not None or p.gz is not None:
            A += _adiabatic_term(p, u_new, w_new)
    # Scalar: AB2 advection plus source, implicit diffusion under the
    # Dirichlet walls at t + dt, then the closure of the mean.
    if source is not None:
        A += source
    data = _explicit(p, temp, A, old_A, p.data, p.lag)
    temp_new = p.extrapolate.solve(data, *walls, work=p.extrapolate_work)
    if p.unit is not None:
        if p.tframe:
            q = p.lam * ((gr._mean(temp_new) - p.lam_unit_mean * m) / p.denom - m)
        else:
            q = -p.k * (gr._mean(temp_new) / p.denom)
        temp_new += np.multiply(p.unit, q, out=p.center)
    return u_new, w_new, temp_new, Pi, (F_u, F_w, A)


def _require_compatible(state, scenario):
    """Raise ShapeError unless every field of state lives on scenario's grid
    and its AB2 history holds three arrays of the (u, w, temp) shapes, and
    DomainError unless what the step reads (U, temp, the history) is
    finite."""
    gr._require_grid(scenario.grid, (state.U, state.temp, state.Pi))
    named = {"U.u": state.U.u, "U.w": state.U.w, "temp": state.temp.values}
    if state.rhs_hist is not None:
        hist = state.rhs_hist
        if len(hist) != 3 or any(np.shape(h) != a.shape for h, a in zip(hist, named.values())):
            raise ShapeError("rhs_hist must hold three arrays shaped like U.u, U.w and temp")
        named.update(zip(("rhs_hist[0]", "rhs_hist[1]", "rhs_hist[2]"), hist))
    for name, a in named.items():
        if not np.isfinite(a).all():
            raise DomainError(f"state {name} must be finite")


def step_ob(state, scenario, dt):
    """One step of the state's frame: its buoyancy, then its closure of the
    mean.  Rejects a state on another grid (ShapeError) or with a NaN or
    inf (DomainError), and, like run_ob, a dt over the advective CFL
    bound."""
    require_positive(dt, "dt")
    if state.frame not in (T_FRAME, THETA_FRAME):
        raise ShapeError(f"unknown frame {state.frame!r}")
    _require_compatible(state, scenario)
    g = scenario.grid
    _check_cfl(_vmax(state.U.u, state.U.w), state.t, g, dt)
    u, w, temp, Pi, hist = _step(
        _StepPlan(scenario, state.frame == T_FRAME, dt),
        state.U.u, state.U.w, state.temp.values, mean(state.temp), state.rhs_hist,
        _source(scenario, state.t), scenario.wall_values(state.t + dt),
    )
    return ObState(VectorField(g, u, w), ScalarField(g, temp), ScalarField(g, Pi), state.t + dt, state.frame, hist)


def boundary_heat_flux(vals, grid, wall_bottom, wall_top, kappa_bar):
    """Outward integral of kappa_bar grad(T) . n over both walls, with the
    one-sided quadratic stencil through the wall value and two cell centers.

    This stencil is exactly the conservative wall flux of the implicit
    diffusion step, so the reported flux is the one the scheme moves.
    """
    return float(_quadratic_wall_flux(
        grid, kappa_bar, wall_bottom, vals[:, 0], vals[:, 1], wall_top, vals[:, -1], vals[:, -2]
    ))


def _quadratic_wall_flux(grid, kappa_bar, wb, b0, b1, wt, t0, t1):
    """boundary_heat_flux from the wall values and the two cell rows next to
    each wall (b0, b1 up from the bottom, t0, t1 down from the top), summed
    along the last axis, so rows stacked per step give one flux per step."""
    dz = grid.dz
    dn_bottom = (-8.0 * wb / 3.0 + 3.0 * b0 - b1 / 3.0) / dz
    dn_top = (8.0 * wt / 3.0 - 3.0 * t0 + t1 / 3.0) / dz
    return kappa_bar * grid.dx * (dn_top - dn_bottom).sum(axis=-1)


_CUBIC_WALL = (-46.0 / 15.0, 15.0 / 4.0, -5.0 / 6.0, 3.0 / 20.0)

# run_ob forms its trace rows in blocks of at most this many steps.
_TRACE_BLOCK = 256


class _TraceRecorder:
    """run_ob's trace, recorded per step and formed per block.

    Each step stores its time, its frame mean, the three cell rows next to
    each wall, the wall values and the source mean; each block of at most
    _TRACE_BLOCK steps then becomes trace rows in one vectorised pass with
    the arithmetic of boundary_heat_flux and the cubic stencil element for
    element.  Slot 0 of the buffers holds the step before the block.
    """

    def __init__(self, scenario, tframe, n_steps, temp, m, walls, source):
        self.scenario, self.tframe = scenario, tframe
        size = min(n_steps, _TRACE_BLOCK) + 1
        self.m, self.sm = np.empty(size), np.empty(size)
        # Per slot: bottom wall, cells 0, 1, 2, cells nz-3, nz-2, nz-1, top wall.
        self.rows = np.empty((size, 8, scenario.grid.nx))
        self.trace = np.recarray(n_steps, dtype=[(name, float) for name in TRACE_COLUMNS])
        self.t = self.trace["t"]
        self.filled = self.done = 0
        self._store(0, temp, m, walls, source)

    def _store(self, j, temp, m, walls, source):
        self.m[j] = m
        self.sm[j] = 0.0 if source is None else float(np.mean(source))
        row = self.rows[j]
        row[0], row[7] = walls
        row[1:4] = temp[:, :3].T
        row[4:7] = temp[:, -3:].T

    def record(self, t, temp, m, walls, source):
        """Store the state after the next step; t is its time."""
        self.t[self.done + self.filled] = t
        self.filled += 1
        self._store(self.filled, temp, m, walls, source)
        if self.filled == len(self.m) - 1:
            self._form()

    def _form(self):
        """Form the rows of the filled slots and carry the last one to slot 0.

        Lambda is the pinned backward difference of the T-frame mean.  The
        balance residual integrates the mean-temperature identity over each
        step: backward-difference mean change against the trapezoidal average
        of the cubic-stencil wall flux (plus the source mean when a source
        hook is active).  The flux column reports the scheme's conservative
        (quadratic-stencil) flux.
        """
        sc, n = self.scenario, self.filled
        g, coeffs, lam = sc.grid, sc.coefficients(), sc.lam_effective()
        m, sm, rows = self.m[: n + 1], self.sm[: n + 1], self.rows[: n + 1]
        wb, wt = rows[:, 0], rows[:, 7]
        cells = rows[:, 1:7]
        if not self.tframe:
            # Theta differs from T by the constant lam/(1-lam) fint(Theta), so
            # shifting the cells recovers the T-frame pair exactly.
            m, cells = m / (1.0 - lam), cells + (lam / (1.0 - lam) * m)[:, None, None]
        v0, v1, v2, vt2, vt1, vt0 = cells.transpose(1, 0, 2)
        flux = _quadratic_wall_flux(g, coeffs.kappa_bar, wb, v0, v1, wt, vt0, vt1)
        # The cubic stencil (wall value and three cells) is independent of the
        # scheme's own flux, so the residual keeps an honest discretization
        # error signal.
        c0, c1, c2, c3 = _CUBIC_WALL
        dn_bottom = (c0 * wb + c1 * v0 + c2 * v1 + c3 * v2) / g.dz
        dn_top = -(c0 * wt + c1 * vt0 + c2 * vt1 + c3 * vt2) / g.dz
        fc = g.dx * (dn_top - dn_bottom).sum(axis=1)

        dm_dt = (m[1:] - m[:-1]) / sc.dt
        nu_T = coeffs.kappa_bar / (sc.rho_bar * coeffs.c_p)
        block = slice(self.done, self.done + n)
        self.trace["mean_T"][block] = m[1:]
        self.trace["Lambda"][block] = lam * sc.rho_bar * coeffs.c_p * dm_dt
        self.trace["flux"][block] = flux[1:]
        self.trace["s24_residual"][block] = (
            (1.0 - lam) * g.volume * dm_dt
            - nu_T * 0.5 * (fc[1:] + fc[:-1])
            - g.volume * 0.5 * (sm[1:] + sm[:-1])
        )
        self.m[0], self.sm[0], self.rows[0] = self.m[n], self.sm[n], self.rows[n]
        self.done += n
        self.filled = 0

    def finish(self):
        """The trace, once every step is recorded."""
        if self.filled:
            self._form()
        return self.trace


def _vmax(u, w):
    """max(|u|, |w|), or inf if either holds a NaN or an inf (max(1.0, nan)
    is 1.0); vu - vw cannot overflow, so it is finite iff both maxima are."""
    vu, vw = float(np.abs(u).max()), float(np.abs(w).max())
    return max(vu, vw) if abs(vu - vw) < np.inf else np.inf


def _check_cfl(vmax, t, grid, dt):
    if vmax == 0.0:
        return
    bound = 0.5 * min(grid.dx, grid.dz) / vmax
    if dt > bound:
        raise StabilityError(
            f"advective CFL violated at t={t:.4g}: dt={dt:.3e} exceeds {bound:.3e}"
        )


def run_ob(scenario, frame=T_FRAME, snapshot_dt=None):
    """Integrate from build_initial_ob(scenario, frame) to t_end in that
    frame; returns the trajectory with snapshots and trace.

    Snapshots are stored at multiples of snapshot_dt (which must be a
    multiple of dt) plus the initial and final states.  The loop steps raw
    arrays and builds fields only for the snapshots.
    """
    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - scenario.t_end) > 1e-9 * max(1.0, scenario.t_end):
        raise DomainError("t_end must be a positive integer multiple of dt")
    every = None
    if snapshot_dt is not None:
        require_positive(snapshot_dt, "snapshot_dt")
        every = int(round(snapshot_dt / dt))
        if every < 1 or abs(every * dt - snapshot_dt) > 1e-9 * snapshot_dt:
            raise DomainError("snapshot_dt must be a positive multiple of dt")

    state = build_initial_ob(scenario, frame)

    g, tframe = scenario.grid, frame == T_FRAME
    u, w, temp, t, hist = state.U.u, state.U.w, state.temp.values, state.t, None
    vmax = _vmax(u, w)
    plan = _StepPlan(scenario, tframe, dt, at_rest=vmax == 0.0)
    m = mean(state.temp)
    times = [t]
    states = [state]  # a private copy, and the steps never write to their inputs
    # The source at each step time feeds both that time's trace record and
    # the step that starts there, so it is evaluated once per time.
    source = _source(scenario, t)
    walls_at = _wall_schedule(scenario)
    trace = _TraceRecorder(scenario, tframe, n_steps, temp, m, walls_at(t)[0], source)
    for n in range(1, n_steps + 1):
        _check_cfl(vmax, t, g, dt)
        walls, solve_walls = walls_at(t + dt)
        u, w, temp, Pi, hist = _step(plan, u, w, temp, m, hist, source, solve_walls)
        t = t + dt
        # One pass over the velocities serves this check and the next CFL one.
        vmax = _vmax(u, w)
        if not (np.isfinite(temp).all() and vmax < np.inf):
            raise DivergenceError("non-finite fields", step=n, time=t)
        m = gr._mean(temp)
        source = _source(scenario, t)
        trace.record(t, temp, m, walls, source)
        if (every is not None and n % every == 0) or n == n_steps:
            times.append(t)
            states.append(ObState(VectorField(g, u, w), ScalarField(g, temp), ScalarField(g, Pi), t, frame))
    return ObTrajectory(scenario, frame, times, states, trace.finish())
