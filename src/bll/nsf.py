"""Compressible flow integrator at finite scaling parameter eps.

Advances (rho, theta, U) of the scaled system: conservative continuity,
primitive-velocity momentum with the 1/eps^2 pressure gradient and 1/eps
potential force, and the conservative internal-energy balance
d_t(rho e) + div(rho e U) + div q = eps^2 S:grad U - p div U with Fourier flux
q = -kappa(theta) grad theta, Dirichlet temperature walls and no-slip
velocity.  Time stepping is explicit SSP-RK2 under an acoustic CFL bound, so
the cost of a run grows like 1/eps.

Flux dissipation is Rusanov-type but acts on deviations from a discrete
hydrostatic reference (rho_hat, theta_hat): theta_hat is the exact steady
state of the discrete conduction operator, and rho_hat satisfies the discrete
face balance p_hat_{k+1} - p_hat_k = eps rho_hat_f (G_{k+1} - G_k) with the
column mass pinned to rho_bar.  The reference is then an exact fixed point of
the whole scheme, dissipation never acts on the equilibrium stratification,
and the potential force enters z-momentum in the balanced form
G' (1 - rho_hat_f / rho_f).  Jumps split into an acoustic part (from the
pressure jump, dissipated at |u| + c/eps) and a material part (dissipated at
|u|); the acoustic energy jump is weighted by the specific enthalpy.  When the
potential is not z-only or the walls are not per-wall constant, the reference
degenerates to zero profiles and the scheme reduces to the plain form.

Validation runs at the public entry points and in the positivity guard after
every stage.  A run evaluates each state's thermodynamics once, with the
unchecked thermo kernels, and shares it between the log row, the CFL bound
(evaluated once per step) and the next step's first stage.  Each stage starts
the Newton recovery of theta from rho*e at the previous stage's theta.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from .errors import (
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
    advect_velocity,
    center_to_xface,
    laplace_dirichlet,
    mean,
    xface_to_center,
    zface_to_center,
)
from .thermo import (
    _check_state,
    _energy_dtheta,
    _entropy,
    _eta,
    _kappa,
    _mu,
    _pressure,
    _rho_e,
    _sound_speed_squared,
    pressure,
    pressure_derivatives,
    rho_e,
    theta_from_rho_e,
    transport,
)

__all__ = [
    "NsfScenario",
    "NsfState",
    "NsfTrajectory",
    "ConservationLog",
    "build_initial_nsf",
    "step_nsf",
    "cfl_dt",
    "run_nsf",
    "ballistic_energy",
    "hydrostatic_stationary_1d",
    "discrete_hydrostatic_reference",
]


@dataclass
class NsfScenario:
    grid: Grid
    eos: object
    eps: float
    rho_bar: float = 1.0
    theta_bar: float = 1.0
    G: ScalarField | None = None
    theta_b_bottom: object = 0.0
    theta_b_top: object = 0.0
    cfl: float = 0.4
    dt: float | None = None
    t_end: float = 1.0
    T0: ScalarField | None = None
    U0: VectorField | None = None

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise DomainError(f"eps must lie in (0, 1], got {self.eps}")
        if self.G is None:
            self.G = ScalarField.zeros(self.grid)
        if abs(mean(self.G)) > 1e-12:
            raise DomainError(f"potential G must be mean-free, got mean {mean(self.G):.3e}")
        require_positive(self.t_end, "t_end")
        if self.dt is not None:
            require_positive(self.dt, "dt")
        if not 0.0 < self.cfl <= 1.0:
            raise DomainError("cfl must lie in (0, 1]")
        gr._require_finite_walls(self.wall_values())
        wb, wt = self.wall_theta()
        if np.min(wb) <= 0 or np.min(wt) <= 0:
            raise DomainError(
                f"eps={self.eps:g} too large: wall temperature theta_bar + eps Theta_B loses positivity"
            )
        self._aux = None

    def wall_values(self):
        """Theta_B wall data as (nx,) arrays."""
        nx = self.grid.nx
        return gr._wall_array(self.theta_b_bottom, nx), gr._wall_array(self.theta_b_top, nx)

    def wall_theta(self):
        """Physical wall temperatures theta_bar + eps Theta_B as (nx,) arrays."""
        wb, wt = self.wall_values()
        return self.theta_bar + self.eps * wb, self.theta_bar + self.eps * wt

    def reference(self):
        """Cached discrete reference and per-scenario flux stencils."""
        if self._aux is None:
            self._aux = _build_reference(self)
        return self._aux


@dataclass
class NsfState:
    rho: ScalarField
    theta: ScalarField
    U: VectorField
    t: float
    eps: float

    def __post_init__(self):
        for name, vals in (("rho", self.rho.values), ("theta", self.theta.values)):
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
                raise DomainError(f"{name} must be finite and strictly positive")

    def copy(self):
        return NsfState(self.rho.copy(), self.theta.copy(), self.U.copy(), self.t, self.eps)


def _checked_state(rho, theta, U, t, eps):
    """An NsfState whose rho and theta _theta_of has just checked; skips __post_init__."""
    state = object.__new__(NsfState)
    state.rho, state.theta, state.U, state.t, state.eps = rho, theta, U, t, eps
    return state


@dataclass
class ConservationLog:
    """Per-step record: time, total mass, ballistic energy, the entropy
    integral, and the step size taken (0 for the initial row)."""

    t: np.ndarray
    mass: np.ndarray
    ballistic_energy: np.ndarray
    entropy_proxy: np.ndarray
    dt: np.ndarray


@dataclass
class NsfTrajectory:
    scenario: NsfScenario
    times: list
    states: list
    log: ConservationLog
    steps: int
    wall_seconds: float


@dataclass
class _NsfAux:
    """Hydrostatic reference profiles plus cached wall and potential stencils."""

    rho_hat: np.ndarray
    theta_hat: np.ndarray
    p_hat: np.ndarray
    E_hat: np.ndarray
    balanced: bool
    wall_b: np.ndarray
    wall_t: np.ndarray
    kap_b: np.ndarray
    kap_t: np.ndarray
    dGx: np.ndarray | None
    dGz: np.ndarray
    rho_hat_f: np.ndarray


def _conduction_profile(grid, eos, gb, gt):
    """Exact steady state of the discrete conduction operator: interior faces
    carry kappa at the face-averaged temperature, wall fluxes use the mirror
    form 2 kappa(g) (theta_0 - g)/dz.  Picard iteration: each pass solves
    the frozen-kappa operator, the z-solver with kappa as face weights.  The
    walls are constant, so only the kx = 0 mode carries data, and the
    operator is built on the narrowest grid (4 columns) of the same nz."""
    scale = max(abs(gb), abs(gt))
    if abs(gt - gb) <= 1e-14 * scale:
        return np.full(grid.nz, 0.5 * (gb + gt))
    column = Grid(4, grid.nz)
    th = gb + (gt - gb) * grid.z_centers
    for _ in range(400):
        faces = transport(np.concatenate([[gb], 0.5 * (th[:-1] + th[1:]), [gt]]), eos)[2]
        new = gr._ZOperator(column, 1.0, "mirror", a=0.0, faces=faces).solve(None, gb, gt)[0]
        done = np.max(np.abs(new - th)) <= 1e-13 * scale
        th = new
        if done:
            return th
    raise DomainError("discrete conduction profile did not converge")


def _face_density_root(rho_l, th_l, th_r, dG_eps, eos):
    """rho_r solving p(rho_r, th_r) - p(rho_l, th_l) = eps (rho_l+rho_r)/2 dG."""
    p_l = float(pressure(np.asarray(rho_l), np.asarray(th_l), eos))
    x = rho_l
    for _ in range(60):
        f = float(pressure(np.asarray(x), np.asarray(th_r), eos)) - p_l - 0.5 * (rho_l + x) * dG_eps
        df = float(pressure_derivatives(np.asarray(x), np.asarray(th_r), eos)[0]) - 0.5 * dG_eps
        step = f / df
        x = max(x - step, 0.5 * x)
        if abs(step) <= 1e-15 * x:
            return x
    raise DomainError("hydrostatic face balance did not converge")


def _brentq(f, xa, xb, xtol, rtol):
    """Root of f in [xa, xb] by Brent's method: a step-for-step port of the C
    iteration behind scipy.optimize.brentq (at most 100 iterations, same roots)."""
    xpre, xcur, fpre, fcur = xa, xb, f(xa), f(xb)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise DomainError(f"Brent root not bracketed: f({xa})={fpre}, f({xb})={fcur}")
    for _ in range(100):  # the first pass brackets, as the signs differ
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:  # bisect
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise DomainError("Brent root search did not converge in 100 iterations")


def _shoot_mass(resid, rho_bar):
    lo, hi = 0.7 * rho_bar, 1.4 * rho_bar
    rlo, rhi = resid(lo), resid(hi)
    for _ in range(4):
        if rlo * rhi <= 0:
            break
        lo *= 0.5
        hi *= 2.0
        rlo, rhi = resid(lo), resid(hi)
    else:
        raise DomainError("hydrostatic mass shooting failed to bracket")
    return _brentq(resid, lo, hi, xtol=1e-14, rtol=1e-12)


def _balanced_density(grid, eos, theta_hat, G_prof, eps, rho_bar):
    """Per-face pressure-jump chain with the bottom density shot so the column
    mass is rho_bar."""
    nz, dz = grid.nz, grid.dz
    dG = eps * np.diff(G_prof)

    def chain(b):
        r = np.empty(nz)
        r[0] = b
        for k in range(nz - 1):
            r[k + 1] = _face_density_root(r[k], theta_hat[k], theta_hat[k + 1], dG[k], eos)
        return r

    b = _shoot_mass(lambda b: float(np.sum(chain(b))) * dz - rho_bar, rho_bar)
    return chain(b)


def _build_reference(scenario):
    g = scenario.grid
    eos = scenario.eos
    wb, wt = scenario.wall_theta()
    Gv = scenario.G.values
    gscale = max(1.0, float(np.max(np.abs(Gv))))
    z_only = float(np.max(np.abs(Gv - Gv[:1, :]))) <= 1e-12 * gscale
    flat_walls = float(np.ptp(wb)) <= 1e-13 and float(np.ptp(wt)) <= 1e-13
    if z_only and flat_walls:
        theta_hat = _conduction_profile(g, eos, float(wb[0]), float(wt[0]))
        rho_hat = _balanced_density(g, eos, theta_hat, Gv[0], scenario.eps, scenario.rho_bar)
        p_hat = pressure(rho_hat, theta_hat, eos)
        E_hat = rho_e(rho_hat, theta_hat, eos)
        balanced = True
    else:
        theta_hat = np.full(g.nz, scenario.theta_bar)
        rho_hat = np.zeros(g.nz)
        p_hat = np.zeros(g.nz)
        E_hat = np.zeros(g.nz)
        balanced = False
    dGx = Gv - gr._xprev(Gv)
    return _NsfAux(
        rho_hat=rho_hat,
        theta_hat=theta_hat,
        p_hat=p_hat,
        E_hat=E_hat,
        balanced=balanced,
        wall_b=wb,
        wall_t=wt,
        kap_b=transport(wb, eos)[2],
        kap_t=transport(wt, eos)[2],
        dGx=None if not dGx.any() else dGx,
        dGz=Gv[:, 1:] - Gv[:, :-1],
        rho_hat_f=0.5 * (rho_hat[1:] + rho_hat[:-1]),
    )


def discrete_hydrostatic_reference(scenario):
    """(rho_hat, theta_hat) z-profiles: the exact discrete stationary state
    the scheme is balanced around.  Needs a z-only potential and per-wall
    constant Theta_B."""
    aux = scenario.reference()
    if not aux.balanced:
        raise ShapeError(
            "discrete reference needs a z-only potential and per-wall-constant Theta_B"
        )
    return aux.rho_hat.copy(), aux.theta_hat.copy()


def hydrostatic_stationary_1d(scenario):
    """Continuum stationary profiles (rho(z), theta(z)) at the cell centers.

    theta inverts the Kirchhoff integral K(theta) = kappa0 (theta +
    theta^{beta+1}/(beta+1)), which is linear in z between the wall
    temperatures.  rho integrates p(rho, theta(z))' = eps rho G'(z) with an
    augmented mass variable, shooting the bottom density so the column mass
    is rho_bar.  Independent of the flux discretization: scipy (imported here
    only) quadrature-grade ODE integration against a spline of the potential.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline
    wb, wt = scenario.wall_values()
    if float(np.ptp(wb)) > 1e-13 or float(np.ptp(wt)) > 1e-13:
        raise ShapeError("hydrostatic profiles need per-wall-constant Theta_B")
    Gv = scenario.G.values
    if float(np.max(np.abs(Gv - Gv[:1, :]))) > 1e-12 * max(1.0, float(np.max(np.abs(Gv)))):
        raise ShapeError("hydrostatic profiles need a z-only potential")
    eos = scenario.eos
    eps = scenario.eps
    gb = scenario.theta_bar + eps * float(wb[0])
    gt = scenario.theta_bar + eps * float(wt[0])
    zc = scenario.grid.z_centers

    def K(th):
        return eos.kappa0 * (th + th ** (eos.beta + 1.0) / (eos.beta + 1.0))

    if abs(gt - gb) <= 1e-14 * max(abs(gb), abs(gt)):
        dK = 0.0
        theta_of = lambda z: 0.5 * (gb + gt) + 0.0 * z
    else:
        dK = K(gt) - K(gb)
        ths = np.linspace(gb, gt, 1025)
        zs = (K(ths) - K(gb)) / dK
        zs[0], zs[-1] = 0.0, 1.0
        theta_of = CubicSpline(zs, ths)
    g_spline = CubicSpline(zc, Gv[0])
    g_prime = g_spline.derivative()

    def rhs(z, y):
        th = float(theta_of(z))
        p_r, p_th = pressure_derivatives(np.asarray(y[0]), np.asarray(th), eos)
        th_prime = dK / _kappa(th, eos)
        return [(eps * y[0] * float(g_prime(z)) - float(p_th) * th_prime) / float(p_r), y[0]]

    def column(b):
        sol = solve_ivp(rhs, (0.0, 1.0), [b, 0.0], rtol=1e-11, atol=1e-13, dense_output=True)
        if not sol.success:
            raise DomainError(f"hydrostatic integration failed: {sol.message}")
        return sol

    b = _shoot_mass(lambda b: column(b).y[1, -1] - scenario.rho_bar, scenario.rho_bar)
    rho_prof = column(b).sol(zc)[0]
    return rho_prof, np.asarray(theta_of(zc), dtype=float) + np.zeros_like(zc)


def build_initial_nsf(scenario):
    """Well-prepared state at finite eps: the density deviation is recovered
    from the temperature deviation and the potential by the limit-system
    relation r0 = (rho_bar G + p_theta fint(T0) - p_theta T0) / p_rho, so r0
    is mean-free and the column mass is rho_bar |Omega|.

    rho = rho_bar + eps r0, theta = theta_bar + eps T0, U = U0.  Raises when
    eps is too large for the prescribed deviations to keep rho, theta > 0.
    """
    g = scenario.grid
    T0 = scenario.T0 if scenario.T0 is not None else ScalarField.zeros(g)
    U0 = scenario.U0 if scenario.U0 is not None else VectorField.zeros(g)
    if T0.stag != Staggering.CENTER:
        raise ShapeError("T0 must be center-staggered")
    p_r, p_th = pressure_derivatives(
        np.asarray(scenario.rho_bar), np.asarray(scenario.theta_bar), scenario.eos
    )
    m = mean(T0)
    r0 = (scenario.rho_bar * scenario.G.values + float(p_th) * (m - T0.values)) / float(p_r)
    rho = scenario.rho_bar + scenario.eps * r0
    th = scenario.theta_bar + scenario.eps * T0.values
    if np.any(rho <= 0) or np.any(th <= 0):
        raise DomainError(
            f"eps={scenario.eps:g} too large: initial fields lose positivity"
        )
    return NsfState(ScalarField(g, rho), ScalarField(g, th), U0.copy(), 0.0, scenario.eps)


# Thermo and transport fields of one checked (rho, theta), shared within a
# stage; eta is None when eos.eta0 == 0, and the bulk-viscosity terms are skipped.
_Thermo = namedtuple("_Thermo", "E p c2 e_theta mu eta")


def _thermo(rho, th, eos):
    e_theta = _energy_dtheta(rho, th, eos)
    c2 = _sound_speed_squared(rho, th, eos, e_theta)
    eta = _eta(th, eos) if eos.eta0 else None
    return _Thermo(_rho_e(rho, th, eos), _pressure(rho, th, eos), c2, e_theta, _mu(th, eos), eta)


def _rhs(rho, th, u, w, scenario, aux, tf):
    """Semi-discrete right-hand side for (rho, rho e, u, w); tf is the
    _Thermo of (rho, th)."""
    g = scenario.grid
    dx, dz = g.dx, g.dz
    eps = scenario.eps
    eos = scenario.eos
    E, p, c2, mu, eta = tf.E, tf.p, tf.c2, tf.mu, tf.eta
    spec_h = (E + p) / rho

    dp = p - aux.p_hat[None, :]
    dr = rho - aux.rho_hat[None, :]
    dE = E - aux.E_hat[None, :]

    # x faces: face i sits between centers i-1 and i.
    th_l = gr._xprev(th)
    rho_fx = center_to_xface(rho)
    jp_x = dp - gr._xprev(dp)
    jr_x = dr - gr._xprev(dr)
    jE_x = dE - gr._xprev(dE)
    c2_fx = center_to_xface(c2)
    s_ac = np.abs(u) + np.sqrt(c2_fx) / eps
    s_ad = np.abs(u)
    jr_ac = jp_x / c2_fx
    jE_ac = center_to_xface(spec_h) * jr_ac
    Fm_x = u * rho_fx - 0.5 * (s_ac * jr_ac + s_ad * (jr_x - jr_ac))
    FE_x = u * center_to_xface(E) - 0.5 * (s_ac * jE_ac + s_ad * (jE_x - jE_ac))
    FE_x -= _kappa(0.5 * (th_l + th), eos) * (th - th_l) / dx

    # z faces: interior face k (1..nz-1) sits between centers k-1 and k.
    wi = w[:, 1:-1]
    rho_fz = 0.5 * (rho[:, :-1] + rho[:, 1:])
    jp_z = dp[:, 1:] - dp[:, :-1]
    jr_z = dr[:, 1:] - dr[:, :-1]
    jE_z = dE[:, 1:] - dE[:, :-1]
    c2_fz = 0.5 * (c2[:, :-1] + c2[:, 1:])
    s_ac_z = np.abs(wi) + np.sqrt(c2_fz) / eps
    s_ad_z = np.abs(wi)
    jr_ac_z = jp_z / c2_fz
    jE_ac_z = 0.5 * (spec_h[:, :-1] + spec_h[:, 1:]) * jr_ac_z
    Fm_z = np.zeros_like(w)
    Fm_z[:, 1:-1] = wi * rho_fz - 0.5 * (s_ac_z * jr_ac_z + s_ad_z * (jr_z - jr_ac_z))
    FE_z = np.zeros_like(w)
    FE_z[:, 1:-1] = wi * 0.5 * (E[:, :-1] + E[:, 1:]) - 0.5 * (
        s_ac_z * jE_ac_z + s_ad_z * (jE_z - jE_ac_z)
    )
    FE_z[:, 1:-1] -= _kappa(0.5 * (th[:, :-1] + th[:, 1:]), eos) * (th[:, 1:] - th[:, :-1]) / dz
    # Wall rows: no mass flux; Fourier flux against the Dirichlet wall value.
    FE_z[:, 0] = -aux.kap_b * 2.0 * (th[:, 0] - aux.wall_b) / dz
    FE_z[:, -1] = -aux.kap_t * 2.0 * (aux.wall_t - th[:, -1]) / dz

    d_rho = -((gr._xnext(Fm_x) - Fm_x) / dx + (Fm_z[:, 1:] - Fm_z[:, :-1]) / dz)
    d_E = -((gr._xnext(FE_x) - FE_x) / dx + (FE_z[:, 1:] - FE_z[:, :-1]) / dz)

    # Newton stress in d = 2: S = mu (grad U + grad U^T - div U I) + eta div U I.
    adv_u, adv_w = advect_velocity(g, u, w)
    Dxx = (gr._xnext(u) - u) / dx
    Dzz = (w[:, 1:] - w[:, :-1]) / dz
    divU = Dxx + Dzz
    Sxx = mu * (Dxx - Dzz)
    Szz = mu * (Dzz - Dxx)
    if eta is not None:
        Sxx += eta * divU
        Szz += eta * divU
    shear = np.zeros_like(w)
    shear[:, 1:-1] = (u[:, 1:] - u[:, :-1]) / dz
    shear[:, 0] = 2.0 * u[:, 0] / dz
    shear[:, -1] = -2.0 * u[:, -1] / dz
    shear += (w - gr._xprev(w)) / dx
    th_corner = np.empty_like(w)
    # x-pairs first: keeps the average bitwise equal under x-mirroring.
    th_corner[:, 1:-1] = 0.25 * ((th[:, 1:] + th_l[:, 1:]) + (th[:, :-1] + th_l[:, :-1]))
    th_corner[:, 0] = 0.5 * (aux.wall_b + gr._xprev(aux.wall_b))
    th_corner[:, -1] = 0.5 * (aux.wall_t + gr._xprev(aux.wall_t))
    Sxz = _mu(th_corner, eos) * shear

    du = (
        adv_u
        - jp_x / (eps * eps * rho_fx * dx)
        + ((Sxx - gr._xprev(Sxx)) / dx + (Sxz[:, 1:] - Sxz[:, :-1]) / dz) / rho_fx
    )
    if aux.dGx is not None:
        du += aux.dGx / (eps * dx)
    dw = np.zeros_like(w)
    dw[:, 1:-1] = (
        adv_w[:, 1:-1]
        - jp_z / (eps * eps * rho_fz * dz)
        + aux.dGz / (eps * dz) * (1.0 - aux.rho_hat_f[None, :] / rho_fz)
        + (
            (gr._xnext(Sxz[:, 1:-1]) - Sxz[:, 1:-1]) / dx
            + (Szz[:, 1:] - Szz[:, :-1]) / dz
        )
        / rho_fz
    )

    # eps^2 S : grad U >= 0 cell-wise; the shear square is corner-averaged.
    sh2 = shear * shear
    sh2_r = gr._xnext(sh2)
    sh2_c = 0.25 * ((sh2[:, :-1] + sh2_r[:, :-1]) + (sh2[:, 1:] + sh2_r[:, 1:]))
    diss = mu * ((Dxx - Dzz) ** 2 + sh2_c)
    if eta is not None:
        diss += eta * divU * divU
    d_E += eps * eps * diss - p * divU
    return d_rho, d_E, du, dw


def _theta_of(rho, E, t, scenario, theta_guess):
    if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
        raise DivergenceError("density lost positivity", time=t)
    try:
        th = theta_from_rho_e(rho, E, scenario.eos, theta_guess)
    except DomainError as exc:
        raise DivergenceError(f"energy left the admissible range: {exc}", time=t) from exc
    if not np.all(np.isfinite(th)) or np.any(th <= 0):
        raise DivergenceError("temperature lost positivity", time=t)
    return th


def _cfl_bound(state, scenario, tf):
    g = scenario.grid
    rho = state.rho.values
    c = np.sqrt(tf.c2)
    rate = (np.abs(xface_to_center(state.U.u)) + c / scenario.eps) / g.dx
    rate += (np.abs(zface_to_center(state.U.w)) + c / scenario.eps) / g.dz
    kappa = _kappa(state.theta.values, scenario.eos)
    visc = 2.0 * tf.mu if tf.eta is None else 2.0 * tf.mu + tf.eta
    D = np.maximum(visc / rho, kappa / (rho * tf.e_theta))
    rate += 2.0 * D * (1.0 / g.dx ** 2 + 1.0 / g.dz ** 2)
    return scenario.cfl / float(np.max(rate))


def cfl_dt(state, scenario):
    """Largest stable step at this state: acoustic/advective transport rates
    plus explicit-diffusion rates, scaled by the scenario safety factor.
    Validates the state; run_nsf evaluates the same bound once per step."""
    rho, th = _check_state(state.rho.values, state.theta.values)
    return _cfl_bound(state, scenario, _thermo(rho, th, scenario.eos))


def _step(state, scenario, dt, tf, bound):
    """SSP-RK2 step from a state whose _Thermo is tf and CFL bound is bound."""
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} rejected at t={state.t:.4g}: stability bound {bound:.3e}; "
            f"retry with dt <= {bound:.3e}"
        )
    aux = scenario.reference()
    g = scenario.grid
    r0, th0 = state.rho.values, state.theta.values
    u0, w0 = state.U.u, state.U.w

    k0 = _rhs(r0, th0, u0, w0, scenario, aux, tf)
    r1 = r0 + dt * k0[0]
    E1 = tf.E + dt * k0[1]
    u1 = u0 + dt * k0[2]
    w1 = w0 + dt * k0[3]
    th1 = _theta_of(r1, E1, state.t + dt, scenario, th0)

    k1 = _rhs(r1, th1, u1, w1, scenario, aux, _thermo(r1, th1, scenario.eos))
    r2 = 0.5 * (r0 + r1 + dt * k1[0])
    E2 = 0.5 * (tf.E + E1 + dt * k1[1])
    u2 = 0.5 * (u0 + u1 + dt * k1[2])
    w2 = 0.5 * (w0 + w1 + dt * k1[3])
    th2 = _theta_of(r2, E2, state.t + dt, scenario, th1)
    return _checked_state(
        ScalarField(g, r2), ScalarField(g, th2), VectorField(g, u2, w2), state.t + dt, state.eps
    )


def step_nsf(state, scenario, dt):
    """One SSP-RK2 step of size dt.

    Validates dt and the state, then rejects dt above the stability bound
    (the error message carries the suggested step); raises a divergence
    error when a stage loses positivity.
    """
    require_positive(dt, "dt")
    rho, th = _check_state(state.rho.values, state.theta.values)
    tf = _thermo(rho, th, scenario.eos)
    return _step(state, scenario, dt, tf, _cfl_bound(state, scenario, tf))


def _theta_tilde(scenario, theta_tilde):
    """Checked values of theta_tilde; None means the harmonic wall extension."""
    g = scenario.grid
    wb, wt = scenario.wall_theta()
    if theta_tilde is None:
        theta_tilde = laplace_dirichlet(g, wb, wt)
    vals = theta_tilde.values
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise DomainError("theta_tilde must be finite and strictly positive")
    tol = max(1e-8, 4.0 * g.dz ** 2 * float(np.max(np.abs(vals))))
    trace_b = 1.5 * vals[:, 0] - 0.5 * vals[:, 1]
    trace_t = 1.5 * vals[:, -1] - 0.5 * vals[:, -2]
    gap = max(float(np.max(np.abs(trace_b - wb))), float(np.max(np.abs(trace_t - wt))))
    if gap > tol:
        raise CompatibilityError(
            f"theta_tilde wall trace differs from theta_bar + eps Theta_B by {gap:.3e}"
        )
    return vals


def ballistic_energy(state, scenario, theta_tilde=None):
    """Integral of eps^2 rho |u|^2 / 2 + rho e - theta~ rho s.

    theta_tilde defaults to the harmonic extension of the wall temperatures;
    a supplied center field must be positive and carry the wall trace
    (checked by quadratic extrapolation, tolerance O(dz^2))."""
    vals = _theta_tilde(scenario, theta_tilde)
    rho, th = _check_state(state.rho.values, state.theta.values)
    return _log_row(state, scenario, _rho_e(rho, th, scenario.eos), vals, 0.0)[2]


def _log_row(state, scenario, E, theta_tilde, dt):
    """(t, mass, ballistic energy, entropy integral, dt); E is rho*e of the state."""
    cv = scenario.grid.cell_volume
    rho = state.rho.values
    u, w = state.U.u, state.U.w
    s = _entropy(rho, state.theta.values, scenario.eos)
    kin = 0.5 * rho * (xface_to_center(u * u) + zface_to_center(w * w))
    dens = state.eps ** 2 * kin + E
    dens -= theta_tilde * rho * s
    return state.t, float(np.sum(rho)) * cv, float(np.sum(dens)) * cv, float(np.sum(rho * s)) * cv, dt


def run_nsf(scenario, snapshot_dt=None, initial=None):
    """Integrate to t_end; returns the trajectory with snapshots and the
    conservation log.

    Steps adapt to the CFL bound, evaluated once per step (or use the fixed
    scenario dt, rejected as in step_nsf if unstable), and are clamped to
    land exactly on snapshot times and t_end.  The acoustic bound makes the
    step count scale like 1/eps; steps and wall_seconds report the cost."""
    if snapshot_dt is not None:
        require_positive(snapshot_dt, "snapshot_dt")
    state = initial.copy() if initial is not None else build_initial_nsf(scenario)
    theta_tilde = _theta_tilde(scenario, None)
    t_end = scenario.t_end

    tf = _thermo(state.rho.values, state.theta.values, scenario.eos)
    times = [state.t]
    states = [state.copy()]
    rows = [_log_row(state, scenario, tf.E, theta_tilde, 0.0)]
    next_snap = snapshot_dt if snapshot_dt is not None else np.inf
    started = time.perf_counter()
    steps = 0
    while state.t < t_end - 1e-12:
        bound = _cfl_bound(state, scenario, tf)
        dt = bound if scenario.dt is None else scenario.dt
        dt = min(dt, min(next_snap, t_end) - state.t)
        if dt <= 1e-14:
            raise StabilityError(f"time step collapsed at t={state.t:.4g}")
        state = _step(state, scenario, dt, tf, bound)
        tf = _thermo(state.rho.values, state.theta.values, scenario.eos)
        steps += 1
        rows.append(_log_row(state, scenario, tf.E, theta_tilde, dt))
        at_snap = state.t >= next_snap - 1e-12
        if at_snap or state.t >= t_end - 1e-12:
            times.append(state.t)
            states.append(state.copy())
            if at_snap:
                next_snap += snapshot_dt
    arr = np.array(rows)
    log = ConservationLog(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])
    return NsfTrajectory(scenario, times, states, log, steps, time.perf_counter() - started)
